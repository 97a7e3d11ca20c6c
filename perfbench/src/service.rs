//! The service layer group: 5-process instances (exponential(1)
//! delays, `loadgen::proposals_for` inputs) on 2 shards with
//! `Retention::DecidedCap` and an on-disk journal, in three phases:
//!
//! 1. set-up is `NcService::open` over a journal that untimed
//!    preparation filled with a fixed decided history — a restart;
//! 2. an open loop at a fixed rate, driven by `run_ready(1)`, gives the
//!    decide latency from each instance's scheduled arrival to the
//!    `drain_completions` call that returned it;
//! 3. saturation bursts driven by `run_ready(2)` (one worker per shard)
//!    give throughput.
//!
//! It runs in every traced run. Its latency and throughput are reported
//! as per-layer metrics, without a bound: on the reference host they
//! moved by 15–40% between runs of one seed. `run_ready` is split by
//! replaying its facts through the engine and the journal alone; what
//! remains is admission's ring drain, proposing, publishing and
//! eviction.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nc_engine::sim::Sim;
use nc_engine::Algorithm;
use nc_memory::Bit;
use nc_sched::rng::trial_seed;
use nc_service::journal::{encode_record, DEFAULT_SEGMENT_RECORDS};
use nc_service::loadgen::proposals_for;
use nc_service::{CommitFact, JournalReader, JournalWriter, NcService, Retention, ServiceConfig};

use crate::stats::{fnv1a, median, quantile};
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Metric, Res};

const SALT: u64 = 0x5E41;
const PROCS: usize = 5;
const SHARDS: usize = 2;
const CAP: usize = 4096;
/// Records per journal segment of the live service. Each segment roll
/// creates a file; on the ext4 checkout of the reference host a create
/// took 0.2–1.6 ms, varying from run to run, so at the default 256
/// records the rolls (one per 128 instances over 2 shards) set the open
/// loop's p99 and swung it from 0.03 to 1.6 ms between identical runs. At
/// 4096 a roll falls on 1 in 2048 instances, below p99; every record is
/// still encoded, checksummed and written. The journal-append replay runs
/// at the default too, so roll cost is measured there.
const SEGMENT_RECORDS: usize = 4096;
/// Decided instances in the journal before set-up.
const HISTORY: u64 = 100_000;
/// Open-loop arrival rate, instances per second: well under what one
/// worker decides at saturation.
const RATE: f64 = 20_000.0;
/// Latency percentiles are taken per window of arrivals (10,000
/// instances, so 100 lie beyond each window's p99), and the median window
/// is reported: a stall of the host moves the windows it falls in, not
/// the result.
const LATENCY_WINDOW: u64 = 10_000;
/// Share of the group's time the open loop runs for.
const OPEN_SHARE: f64 = 0.4;
/// Saturation instances per second of the group's time, and per burst.
const SAT_PER_S: u64 = 30_000;
const CHUNK: u64 = 10_000;
/// Reopens per set-up measurement.
const REOPENS: usize = 9;

fn config(seed: u64, dir: Option<&Path>) -> ServiceConfig {
    let mut b = ServiceConfig::builder()
        .procs(PROCS)
        .shards(SHARDS)
        .seed(seed)
        .retention(Retention::DecidedCap(CAP))
        .segment_records(SEGMENT_RECORDS);
    if let Some(dir) = dir {
        b = b.journal_dir(dir);
    }
    b.build().expect("static service config is valid")
}

fn service_seed(seed: u64) -> u64 {
    trial_seed(seed, 0, SALT)
}

fn open(cfg: &ServiceConfig) -> Res<NcService> {
    NcService::open(cfg.clone()).map_err(|e| format!("service open: {e}"))
}

/// Submits all proposals of instance `id`; returns whether any was
/// refused.
fn submit(svc: &mut NcService, id: u64) -> bool {
    let mut refused = false;
    for v in proposals_for(id, PROCS) {
        refused |= svc.submit(id, v).is_err();
    }
    refused
}

/// Decides ids `from..to` in bursts of [`CHUNK`] with `run_ready(2)`.
/// Returns (refused instances, facts).
fn burst(svc: &mut NcService, from: u64, to: u64) -> (u64, Vec<CommitFact>) {
    let mut refused = 0;
    let mut facts = Vec::new();
    let mut id = from;
    while id < to {
        let end = (id + CHUNK).min(to);
        for i in id..end {
            refused += u64::from(submit(svc, i));
        }
        svc.run_ready(SHARDS);
        facts.extend(svc.drain_completions());
        id = end;
    }
    (refused, facts)
}

/// A fresh, empty directory.
fn fresh_dir(dir: &Path) -> Res<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Fills `dir` with `history` decided instances; returns the reduced
/// log's fingerprint.
fn prepare(cfg: &ServiceConfig, dir: &Path, history: u64) -> Res<u64> {
    fresh_dir(dir)?;
    let mut svc = open(cfg)?;
    let (refused, _) = burst(&mut svc, 0, history);
    if refused > 0 || svc.decided() as u64 != history {
        return Err(format!(
            "history preparation decided {} of {history}",
            svc.decided()
        ));
    }
    Ok(fnv1a(svc.reduced_log().as_bytes()))
}

/// Reopens the journal `REOPENS` times; returns the last service and
/// every reopen's seconds. Checks the reopened service holds exactly the
/// prepared history.
fn reopen(cfg: &ServiceConfig, history: u64, history_fp: u64) -> Res<(NcService, Vec<f64>)> {
    let mut times = Vec::new();
    let mut svc = None;
    for _ in 0..REOPENS {
        drop(svc.take());
        let t0 = Instant::now();
        let s = open(cfg)?;
        times.push(t0.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let mut svc = svc.expect("at least one reopen");
    // A reopened service announces its replayed facts once.
    let announced = svc.drain_completions().len() as u64;
    if svc.decided() as u64 != history
        || announced != history
        || fnv1a(svc.reduced_log().as_bytes()) != history_fp
    {
        return Err(format!(
            "reopen: decided() is {} and {announced} facts were announced, not the {history} prepared, \
             or the reduced log differs",
            svc.decided()
        ));
    }
    Ok((svc, times))
}

/// What the open loop measured.
#[derive(Default)]
struct OpenLoop {
    /// Decide latency per instance, indexed by arrival order.
    latencies: Vec<f64>,
    refused: u64,
    undecided: u64,
    facts: Vec<CommitFact>,
    /// Scheduled arrival → start of the `run_ready` call that took the
    /// instance.
    queue_waits: Vec<f64>,
    late_max: f64,
    wall: f64,
}

/// Open loop over ids `base..base + count` arriving at [`RATE`]; the
/// generator spins between arrivals.
fn open_loop(svc: &mut NcService, base: u64, count: u64, tr: &mut Tracer) -> OpenLoop {
    let mut out = OpenLoop {
        latencies: vec![0.0; count as usize],
        ..OpenLoop::default()
    };
    let parent = tr.open("service.open_loop", ROOT, base);
    let start = Instant::now();
    let (mut next, mut done) = (0u64, 0u64);
    while done + out.refused < count {
        let now = start.elapsed().as_secs_f64();
        let due = ((now * RATE) as u64 + 1).min(count);
        if due <= next {
            std::hint::spin_loop();
            continue;
        }
        for i in next..due {
            out.late_max = out
                .late_max
                .max(start.elapsed().as_secs_f64() - i as f64 / RATE);
            let span = tr.open("service.submit", parent, base + i);
            out.refused += u64::from(submit(svc, base + i));
            tr.close(span);
        }
        let taken = start.elapsed().as_secs_f64();
        out.queue_waits
            .extend((next..due).map(|i| taken - i as f64 / RATE));
        next = due;
        let span = tr.open("service.run_ready", parent, next);
        svc.run_ready(1);
        tr.close(span);
        let span = tr.open("service.drain_completions", parent, next);
        let fresh = svc.drain_completions();
        tr.close(span);
        let at = start.elapsed().as_secs_f64();
        for f in fresh {
            out.latencies[(f.id - base) as usize] = at - (f.id - base) as f64 / RATE;
            out.undecided += u64::from(f.value.is_none());
            done += 1;
            out.facts.push(f);
        }
    }
    out.wall = start.elapsed().as_secs_f64();
    tr.close(parent);
    out
}

/// Appends `facts` with a fresh journal writer in `dir` at `records`
/// per segment, inside one span named `name`; returns its seconds.
fn append_replay(
    dir: &Path,
    records: usize,
    facts: &[CommitFact],
    tr: &mut Tracer,
    name: &'static str,
) -> Res<f64> {
    fresh_dir(dir)?;
    let (mut writer, _) =
        JournalWriter::open(dir, records).map_err(|e| format!("journal open: {e}"))?;
    let span = tr.open(name, ROOT, records as u64);
    for f in facts {
        writer
            .append(f)
            .map_err(|e| format!("journal append: {e}"))?;
    }
    tr.close(span);
    Ok(tr.total(name).1)
}

/// The median over arrival windows of each window's `q`-quantile.
fn windowed(latencies: &[f64], q: f64) -> f64 {
    let per: Vec<f64> = latencies
        .chunks(LATENCY_WINDOW as usize)
        .filter(|w| w.len() as u64 == LATENCY_WINDOW)
        .map(|w| quantile(w, q))
        .collect();
    median(&per)
}

/// Saturation bursts over ids `base..base + count`; returns the
/// instances/s of each burst and (refused, undecided).
fn saturate(svc: &mut NcService, base: u64, count: u64, tr: &mut Tracer) -> (Vec<f64>, u64, u64) {
    let mut rates = Vec::new();
    let (mut refused, mut undecided) = (0u64, 0u64);
    let mut id = base;
    while id < base + count {
        let end = (id + CHUNK).min(base + count);
        let span = tr.open("service.burst", ROOT, id);
        let t0 = Instant::now();
        for i in id..end {
            refused += u64::from(submit(svc, i));
        }
        svc.run_ready(SHARDS);
        let facts = svc.drain_completions();
        let secs = t0.elapsed().as_secs_f64();
        tr.close(span);
        rates.push(facts.len() as f64 / secs);
        undecided += facts.iter().filter(|f| f.value.is_none()).count() as u64;
        id = end;
    }
    (rates, refused, undecided)
}

/// The journal-off oracle: a service without a journal, fed the same
/// ids, must reduce to the same log.
fn check_against_memory(seed: u64, live: &NcService, ids: u64) -> Res<()> {
    let mut oracle = open(&config(seed, None))?;
    burst(&mut oracle, 0, ids);
    let (a, b) = (
        fnv1a(live.reduced_log().as_bytes()),
        fnv1a(oracle.reduced_log().as_bytes()),
    );
    if a != b {
        return Err(format!(
            "reduced log {a:016x} differs from the journal-off service's {b:016x}"
        ));
    }
    Ok(())
}

/// Counts of a service's journal and table, plus its reduced-log
/// fingerprint.
fn service_counts(svc: &NcService, replayed: u64) -> (Vec<Metric>, u64) {
    let bytes = svc.journal_footprint().map_or(0, |(_, b)| b);
    (
        vec![
            Metric::new(
                "service.journal_bytes_per_op",
                bytes as f64 / svc.decided().max(1) as f64,
                "B",
            ),
            Metric::new("service.replayed_facts", replayed as f64, "count"),
            Metric::new("service.evicted", svc.evicted_count() as f64, "count"),
        ],
        fnv1a(svc.reduced_log().as_bytes()),
    )
}

fn journal_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    ctx.out_dir
        .join(format!("journal-{tag}-{}", std::process::id()))
}

/// The self-check workload: a small journaled run (history, reopen,
/// more instances) whose counts and fingerprint are a pure function of
/// the seed.
pub fn counts(ctx: &Ctx, seed: u64) -> Res<Vec<Metric>> {
    let dir = journal_dir(ctx, "counts");
    let result = (|| {
        let cfg = config(service_seed(seed), Some(&dir));
        let fp = prepare(&cfg, &dir, 3_000)?;
        let mut svc = open(&cfg)?;
        svc.drain_completions();
        if fnv1a(svc.reduced_log().as_bytes()) != fp {
            return Err("self-check reopen changed the reduced log".to_string());
        }
        burst(&mut svc, 3_000, 5_000);
        let (mut out, fp) = service_counts(&svc, 3_000);
        out.push(Metric::new(
            "service.fingerprint_low32",
            (fp & 0xFFFF_FFFF) as f64,
            "count",
        ));
        Ok(out)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

pub fn layers(ctx: &Ctx, budget: f64, tr: &mut Tracer) -> Res<Vec<Metric>> {
    let dir = journal_dir(ctx, "layers");
    let result = layers_in(ctx, &dir, budget, tr);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(dir.with_extension("replay"));
    result
}

fn layers_in(ctx: &Ctx, dir: &Path, budget: f64, tr: &mut Tracer) -> Res<Vec<Metric>> {
    let seed = service_seed(ctx.seed);
    let cfg = config(seed, Some(dir));
    let history_fp = prepare(&cfg, dir, HISTORY)?;

    // Set-up: the whole reopen, and the journal replay inside it alone.
    let (mut svc, setups) = reopen(&cfg, HISTORY, history_fp)?;
    let mut replays = Vec::new();
    for i in 0..REOPENS {
        let span = tr.open("service.journal_replay", ROOT, i as u64);
        let t0 = Instant::now();
        let mut facts = 0usize;
        for s in 0..SHARDS {
            let replay = JournalReader::replay(&dir.join(format!("shard-{s}")))
                .map_err(|e| format!("journal replay: {e}"))?;
            facts += replay.facts.len();
        }
        replays.push(t0.elapsed().as_secs_f64());
        tr.close(span);
        if facts as u64 != HISTORY {
            return Err(format!("journal replay read {facts} facts, not {HISTORY}"));
        }
    }
    let (setup_s, replay_s) = (median(&setups), median(&replays));

    // The open loop, traced, in whole latency windows.
    let windows = ((budget * OPEN_SHARE * RATE) as u64 / LATENCY_WINDOW).max(3);
    let open_n = windows * LATENCY_WINDOW;
    let ol = open_loop(&mut svc, HISTORY, open_n, tr);
    if ol.refused + ol.undecided > 0 {
        return Err("open loop refused or left undecided an instance".into());
    }
    // The saturation bursts, then the journal-off oracle over every id.
    let sat_n = ((budget * SAT_PER_S as f64) as u64).max(5 * CHUNK);
    let (rates, sat_refused, sat_undecided) = saturate(&mut svc, HISTORY + open_n, sat_n, tr);
    if sat_refused + sat_undecided > 0 {
        return Err("saturation refused or left undecided an instance".into());
    }
    check_against_memory(seed, &svc, HISTORY + open_n + sat_n)?;
    let (calls, run_ready_s) = tr.total("service.run_ready");
    let (_, submit_s) = tr.total("service.submit");
    let (_, drain_s) = tr.total("service.drain_completions");
    let per_op = |secs: f64| secs * 1e6 / open_n as f64;

    // The same facts through the engine alone, on the same ids and
    // instance seeds.
    let mut facts = ol.facts;
    facts.sort_unstable_by_key(|f| f.id);
    let mut runner = Sim::new(Algorithm::Lean)
        .inputs(vec![Bit::Zero; PROCS])
        .timing(cfg.timing.clone())
        .limits(cfg.limits)
        .build();
    let span = tr.open("service.engine_replay", ROOT, 0);
    for f in &facts {
        let r = runner.run_with_inputs(svc.instance_seed(f.id), &proposals_for(f.id, PROCS));
        let again = CommitFact {
            id: f.id,
            value: r.agreement_value(),
            round: r.first_decision_round.unwrap_or(0),
            ops: r.total_ops,
        };
        if again != *f {
            return Err(format!(
                "engine replay of instance {} gave {again:?}, the service {f:?}",
                f.id
            ));
        }
    }
    tr.close(span);
    let (_, engine_s) = tr.total("service.engine_replay");

    // The same facts through a journal writer alone, into a fresh
    // directory: at the service's default segment size, so the metric
    // pays the segment rolls a deployment pays, and at the segment size
    // the open loop used, for the publish residual. Then through the
    // record encoder alone.
    let replay_dir = dir.with_extension("replay");
    let append_s = append_replay(
        &replay_dir,
        DEFAULT_SEGMENT_RECORDS,
        &facts,
        tr,
        "service.journal_append",
    )?;
    let append_live_s = append_replay(
        &replay_dir,
        SEGMENT_RECORDS,
        &facts,
        tr,
        "service.journal_append_live",
    )?;
    let mut encodes = Vec::new();
    let start = Instant::now();
    while encodes.len() < 3 || start.elapsed().as_secs_f64() < budget * 0.05 {
        let t0 = Instant::now();
        for f in &facts {
            black_box(encode_record(black_box(f)));
        }
        encodes.push(t0.elapsed().as_secs_f64());
    }

    let run_ready_us = per_op(run_ready_s);
    let publish_us = run_ready_us - per_op(engine_s) - per_op(append_live_s);
    let waits = &ol.queue_waits;
    let mut out = vec![
        Metric::new("service.setup_s", setup_s, "s"),
        Metric::new("service.ops_per_s", median(&rates), "1/s"),
        Metric::new("service.p50_ms", windowed(&ol.latencies, 0.50) * 1e3, "ms"),
        Metric::new("service.p99_ms", windowed(&ol.latencies, 0.99) * 1e3, "ms"),
        Metric::new("service.admit_us_per_op", per_op(submit_s), "us"),
        Metric::new(
            "service.run_ready_us_per_call",
            run_ready_s * 1e6 / calls as f64,
            "us",
        ),
        Metric::new(
            "service.ops_per_batch",
            open_n as f64 / calls as f64,
            "count",
        ),
        Metric::new(
            "service.queue_wait_ms_p50",
            quantile(waits, 0.50) * 1e3,
            "ms",
        ),
        Metric::new(
            "service.queue_wait_ms_p99",
            quantile(waits, 0.99) * 1e3,
            "ms",
        ),
        Metric::new("service.engine_us_per_op", per_op(engine_s), "us"),
        Metric::new("service.journal_append_us_per_op", per_op(append_s), "us"),
        Metric::new(
            "service.journal_roll_us_per_op",
            per_op(append_s - append_live_s),
            "us",
        ),
        Metric::new(
            "service.encode_ns_per_op",
            median(&encodes) * 1e9 / facts.len() as f64,
            "ns",
        ),
        Metric::new("service.publish_us_per_op", publish_us, "us"),
        Metric::new("service.residual_frac", publish_us / run_ready_us, "ratio"),
        Metric::new("service.replay_s", replay_s, "s"),
        Metric::new("service.open_residual_s", setup_s - replay_s, "s"),
        Metric::new(
            "service.busy_frac",
            (submit_s + run_ready_s + drain_s) / ol.wall,
            "ratio",
        ),
        Metric::new("service.generator_late_ms_max", ol.late_max * 1e3, "ms"),
    ];
    out.extend(service_counts(&svc, HISTORY).0);
    Ok(out)
}
