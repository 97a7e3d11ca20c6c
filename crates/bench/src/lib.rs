//! Experiment harness for the `noisy-consensus` workspace.
//!
//! Each experiment in DESIGN.md's per-experiment index (E1–E14) is a
//! module in [`experiments`] that registers itself as a
//! [`scenario::Scenario`]: a static descriptor (id, paper artifact,
//! output CSVs, full-scale and smoke presets) plus a preset-driven
//! runner returning [`Table`]s. The single `repro` binary drives the
//! whole registry:
//!
//! ```sh
//! cargo run --release -p nc-bench --bin repro -- --list
//! cargo run --release -p nc-bench --bin repro -- --only E1,E7 --scale 10
//! cargo run --release -p nc-bench --bin repro -- --smoke --check crates/bench/tests/golden
//! ```
//!
//! Every run writes its CSVs plus a machine-readable `manifest.json`
//! under `--out-dir` (default `results/`). Smoke runs are pinned by
//! committed golden CSVs (`tests/golden_repro.rs`).
//!
//! Engine-driven trial sweeps go through [`nc_engine::sim::TrialSet`]
//! (which owns scratch pooling and worker fan-out);
//! the [`par_trials`] / [`par_trial_chunks`] helpers here cover the
//! non-engine sweeps (renewal races, message-passing runs). In both,
//! **parallelism is per-call state**: every sweep takes its own worker
//! count, there is no process-global thread knob, and results are
//! bit-for-bit identical at every worker count.
//!
//! Criterion benchmarks (native-thread latency, component throughput,
//! Figure 1 point cost) live under `benches/`; the engine perf gate is
//! the separate `bench_engine` binary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod scenario;
pub mod table;

pub use table::Table;

pub use nc_engine::sim::{par_spans, resolve_threads};

/// Runs `trials` independent trial computations across `threads`
/// workers (0 = all cores), returning the results **in trial order**.
///
/// Determinism contract: `f` must be a pure function of its trial index
/// (all experiment trials are — each derives its own seed from the
/// index), so the output is bit-for-bit identical to the serial loop
/// `(0..trials).map(f)` for every worker count.
pub fn par_trials<T, F>(threads: usize, trials: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    par_trial_chunks(threads, trials, || (), |(), t| f(t))
}

/// [`par_trials`] with per-worker reusable state: trials are split into
/// contiguous spans (by [`par_spans`], the same chunked fan-out that
/// powers `TrialSet` sweeps), each span gets a fresh `init()` value
/// that its trials mutate serially. Results come back in trial order.
///
/// The same determinism contract applies: the state is scratch memory,
/// so span boundaries (and therefore the worker count) must not affect
/// any result.
pub fn par_trial_chunks<S, T, Init, F>(threads: usize, trials: u64, init: Init, f: F) -> Vec<T>
where
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
{
    par_spans(threads, trials, |lo, hi| {
        let mut state = init();
        (lo..hi).map(|t| f(&mut state, t)).collect()
    })
}

/// The paper's Figure 1 x-axis: 1, 2, 5 per decade, from 1 to `max_n`.
pub fn figure1_ns(max_n: usize) -> Vec<usize> {
    let mut ns = Vec::new();
    let mut decade = 1usize;
    'outer: loop {
        for mult in [1usize, 2, 5] {
            let n = decade.saturating_mul(mult);
            if n > max_n {
                break 'outer;
            }
            ns.push(n);
        }
        match decade.checked_mul(10) {
            Some(d) => decade = d,
            None => break,
        }
    }
    if ns.last() != Some(&max_n) {
        ns.push(max_n);
    }
    ns
}

/// Trials per Figure 1 point: targets a fixed event budget per point so
/// small `n` gets many trials (up to `base`) and huge `n` still gets a
/// statistically useful handful. `base` caps everything (so e.g.
/// `--trials 5` runs 5 trials, not a panicking `clamp(30, 5)`).
pub fn trials_for(n: usize, base: u64) -> u64 {
    let budget = 40_000_000u64; // ~events per point at first-decision cutoff
    (budget / (n as u64 * 40).max(1)).max(30).min(base.max(1))
}

/// A binary's command line, read in one place.
///
/// Every word that starts with `--` is an option name; a word that does
/// not is the value of the option right before it. So `--out --smoke`
/// is an `--out` with its value missing plus a `--smoke` flag, whatever
/// order the binary reads them in. [`Args::value`] and [`Args::flag`]
/// record each word they read, and [`Args::finish`] exits with status 2
/// on the first word nothing read — an unknown or repeated option, or a
/// stray word — so a mistyped or removed option never runs silently
/// with the defaults.
#[derive(Debug)]
pub struct Args {
    words: Vec<String>,
    used: Vec<bool>,
    keys: Vec<String>,
}

impl Args {
    /// The process's command line, without the program name.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1).collect())
    }

    fn new(words: Vec<String>) -> Self {
        let used = vec![false; words.len()];
        Args {
            words,
            used,
            keys: Vec::new(),
        }
    }

    fn position(&mut self, key: &str) -> Option<usize> {
        let want = format!("--{key}");
        let i = self.words.iter().position(|w| *w == want);
        if !self.keys.contains(&want) {
            self.keys.push(want);
        }
        i
    }

    /// Whether the bare `--key` switch was passed.
    pub fn flag(&mut self, key: &str) -> bool {
        let Some(i) = self.position(key) else {
            return false;
        };
        self.used[i] = true;
        true
    }

    /// Parses the value of the first `--key value` pair: `Ok(None)` when
    /// `--key` is absent, and an error naming the option when its value
    /// is missing or does not parse as `T`.
    fn try_value<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        let Some(i) = self.position(key) else {
            return Ok(None);
        };
        self.used[i] = true;
        match self.words.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(v) => {
                self.used[i + 1] = true;
                v.parse()
                    .map(Some)
                    .map_err(|_| format!("--{key}: cannot parse {v:?}"))
            }
            None => Err(format!("--{key}: missing value")),
        }
    }

    /// The value of `--key value`, or `default` when the option is
    /// absent. A present option whose value is missing or does not parse
    /// prints the option and exits with status 2 instead of silently
    /// running with the default.
    pub fn value<T: std::str::FromStr>(&mut self, key: &str, default: T) -> T {
        match self.try_value(key) {
            Ok(v) => v.unwrap_or(default),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// The first word that no [`Args::value`] or [`Args::flag`] call
    /// read, if any.
    fn unread(&self) -> Option<&str> {
        self.words
            .iter()
            .zip(&self.used)
            .find(|(_, &used)| !used)
            .map(|(w, _)| w.as_str())
    }

    /// Ends argument reading: a word that nothing read prints its name
    /// and the accepted options, and exits with status 2. Call it after
    /// the last `value`/`flag` read.
    pub fn finish(self) {
        if let Some(bad) = self.unread() {
            let what = if self.keys.iter().any(|k| k == bad) {
                "repeated"
            } else {
                "unexpected"
            };
            eprintln!(
                "error: {what} argument {bad:?} (accepted: {})",
                self.keys.join(", ")
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_ns_matches_paper_grid() {
        assert_eq!(
            figure1_ns(1000),
            vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
        );
        assert_eq!(figure1_ns(1), vec![1]);
        // Non-grid max is appended.
        assert_eq!(figure1_ns(30), vec![1, 2, 5, 10, 20, 30]);
        assert_eq!(*figure1_ns(100_000).last().unwrap(), 100_000);
    }

    #[test]
    fn trials_scale_down_with_n() {
        assert_eq!(trials_for(1, 10_000), 10_000);
        assert!(trials_for(100_000, 10_000) >= 30);
        assert!(trials_for(100_000, 10_000) < trials_for(100, 10_000));
        // Small explicit --trials values are honored, not panicked on.
        assert_eq!(trials_for(100, 5), 5);
        assert_eq!(trials_for(100, 0), 1);
    }

    fn args(v: &[&str]) -> Args {
        Args::new(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn args_read_values_and_reject_bad_ones() {
        let mut a = args(&["--threads", "4", "--min-speedup", "1,2", "--out"]);
        assert_eq!(a.try_value::<usize>("threads"), Ok(Some(4)));
        assert_eq!(a.try_value::<usize>("trials"), Ok(None));
        assert_eq!(
            a.try_value::<f64>("min-speedup"),
            Err("--min-speedup: cannot parse \"1,2\"".to_string())
        );
        // A value of the wrong type is an error, not the default.
        assert!(a.try_value::<u64>("min-speedup").is_err());
        assert_eq!(
            a.try_value::<String>("out"),
            Err("--out: missing value".to_string())
        );
        assert_eq!(args(&[]).value("trials", 42u64), 42);
    }

    #[test]
    fn args_name_the_first_unread_word() {
        // Reads the options of a binary taking `--trials n`, `--out path`
        // and `--smoke`, in either order, and returns the unread word.
        let check = |v: &[&str], flag_first: bool| {
            let mut a = args(v);
            let smoke = flag_first && a.flag("smoke");
            let _ = a.try_value::<u64>("trials");
            let _ = a.try_value::<String>("out");
            let smoke = smoke || a.flag("smoke");
            (smoke, a.unread().map(str::to_string))
        };
        for flag_first in [true, false] {
            let c = |v: &[&str]| check(v, flag_first);
            assert_eq!(c(&[]), (false, None));
            assert_eq!(c(&["--smoke", "--trials", "4", "--out", "x"]), (true, None));
            // A word starting with `--` is an option, never a value, so
            // `--out --smoke` sets the flag whichever is read first.
            assert_eq!(c(&["--out", "--smoke"]), (true, None));
            assert_eq!(
                c(&["--smoke", "--lanes", "4"]),
                (true, Some("--lanes".to_string()))
            );
            // A bare flag takes no value, so the word after it is unread.
            assert_eq!(c(&["--smoke", "4"]), (true, Some("4".to_string())));
            assert_eq!(c(&["-smoke"]), (false, Some("-smoke".to_string())));
            assert_eq!(c(&["--"]), (false, Some("--".to_string())));
            // A repeated option is read once; the repeat is unread.
            assert_eq!(
                c(&["--trials", "4", "--trials", "5"]),
                (false, Some("--trials".to_string()))
            );
        }
    }

    #[test]
    fn par_trials_preserves_trial_order_at_every_worker_count() {
        let serial: Vec<u64> = (0..1000u64).map(|t| t * t).collect();
        for threads in [0usize, 1, 2, 3, 8] {
            assert_eq!(par_trials(threads, 1000, |t| t * t), serial, "{threads}");
        }
        assert!(par_trials(4, 0, |t| t).is_empty());
    }

    #[test]
    fn par_trial_chunks_state_is_per_chunk_scratch_only() {
        // The per-chunk state must not leak into results: a counter that
        // workers mutate still yields a pure function of the trial index
        // as long as f ignores it for its output.
        for threads in [1usize, 4] {
            let out = par_trial_chunks(
                threads,
                257,
                || 0u64,
                |acc, t| {
                    *acc += 1;
                    t + 1
                },
            );
            assert_eq!(out, (1..=257u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
