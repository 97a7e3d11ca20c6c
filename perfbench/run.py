#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory (its own workspace,
with path dependencies on the repository's crates). It is built into
$CARGO_TARGET_DIR (default `.bench_build`), and everything a run writes
goes under `.bench_out/` in the checkout: the journal of the
service-journal workload, the spans of traced runs, the counts used by
the cross-run repeat check, and `results.jsonl`, one record per run with
the host it ran on.

The last line of standard output is the run's JSON result. The exit
code is nonzero, and no result is printed, when the build fails, a
correctness check fails, or a seed-determined count does not repeat.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 700


def run_timeout(seconds):
    """A run measures for about `seconds`, plus its set-up, the service
    preparation and the self-checks."""
    return 2 * seconds + 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target / "release" / "perfbench"


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results and
    counts from different code are never compared."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", BENCH):
        files += [p for p in top.rglob("*")
                  if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py")]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def fs_type(path):
    """Filesystem type of the mount holding `path`, from mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host(digest):
    rev = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else ""
    return {
        "cores": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "git_rev": rev or "none (not a git checkout)",
        "source_sha256": digest,
        "journal_fs": fs_type(OUT),
    }


def check_counts(args, digest, counts):
    """Counts must repeat exactly for a seed and differ between seeds,
    across runs of the same sources and run length."""
    store = OUT / "counts"
    store.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-t{args.seconds}-{digest[:16]}"
    mine = store / f"{tag}-s{args.seed}.json"
    if mine.exists():
        before = json.loads(mine.read_text())
        if before != counts:
            fail(f"counts of seed {args.seed} changed between runs: {before} then {counts}")
    for other in store.glob(f"{tag}-s*.json"):
        if other != mine and json.loads(other.read_text()) == counts:
            fail(f"counts of seed {args.seed} equal those in {other.name}")
    mine.write_text(json.dumps(counts, sort_keys=True))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    binary = build()
    OUT.mkdir(exist_ok=True)
    digest = source_digest()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT)]
    timeout = run_timeout(args.seconds)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines[:-1]))
        fail(f"run failed with exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        fail("run reported incorrect output")

    info = host(digest)
    counts = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("counts "):
            counts = json.loads(line[len("counts "):])
    print("host " + json.dumps(info, sort_keys=True))
    if counts:
        check_counts(args, digest, counts)
    with open(OUT / "results.jsonl", "a") as f:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "host": info, "result": result}
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    main()
