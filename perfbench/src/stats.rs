//! Closed-loop measurement: the loop every workload runs through,
//! windowed throughput medians, latency percentiles, repeated set-ups, the
//! tracing-overhead comparison, and the process's peak resident memory.
//!
//! Every time the untraced loop reports is scaled to nominal host speed
//! by the gauge of [`crate::calib`], timed in a slice after each window.

use std::time::Instant;

use crate::calib::{Gauge, NOMINAL_TRIALS_PER_S};
use crate::trace::Tracer;
use crate::{Ctx, Metric, Res, Run};

/// Busy seconds per throughput window. A run reports the median window,
/// so a stall from another tenant of the machine moves one window, not
/// the result.
pub const WINDOW_S: f64 = 0.2;

/// Seconds of gauge after each window (a tenth of the window).
pub const GAUGE_S: f64 = 0.02;

/// Median of a sample (the mean of the middle two for an even count);
/// 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// The `q`-quantile of a sample by nearest rank; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let rank = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Calls whose latencies a [`Meter`] keeps: a uniform sample of this
/// size (327 lie beyond p99), so the harness's memory, and with it
/// `peak_rss_mib`, does not grow with how many calls a run made.
const LATENCY_SAMPLE: usize = 1 << 15;

/// Accumulates timed operations of a closed loop into fixed busy-time
/// windows and keeps a uniform sample of their latencies.
#[derive(Default)]
pub struct Meter {
    cur_busy: f64,
    cur_ops: u64,
    cur_events: u64,
    ops_rates: Vec<f64>,
    event_rates: Vec<f64>,
    busy: f64,
    /// Operations recorded.
    pub ops: u64,
    /// Events (memory ops or deliveries) recorded.
    pub events: u64,
    /// Calls recorded.
    calls: u64,
    /// Seconds per call and the window it fell in, for a uniform sample
    /// of the calls (reservoir sampling with a fixed-seed xorshift).
    latencies: Vec<(f64, usize)>,
    rng: u64,
    /// Host speed (gauge rate ÷ nominal) after each closed window.
    speeds: Vec<f64>,
}

/// What a [`Meter`] measured, raw and scaled to nominal host speed.
pub struct Summary {
    pub ops_per_s: f64,
    pub events_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub raw_ops_per_s: f64,
    pub raw_p50_ms: f64,
    /// Median host speed over the run's windows.
    pub speed: f64,
}

impl Meter {
    /// Records one timed call of `secs` that completed `ops` operations
    /// and executed `events` events; returns whether it closed a window.
    /// Once it has, the caller gauges the host with [`Meter::speed`].
    pub fn record(&mut self, secs: f64, ops: u64, events: u64) -> bool {
        self.calls += 1;
        let sample = (secs, self.ops_rates.len());
        if self.latencies.len() < LATENCY_SAMPLE {
            self.latencies.push(sample);
        } else {
            let slot = (self.next_random() % self.calls) as usize;
            if slot < LATENCY_SAMPLE {
                self.latencies[slot] = sample;
            }
        }
        self.ops += ops;
        self.events += events;
        self.busy += secs;
        self.cur_busy += secs;
        self.cur_ops += ops;
        self.cur_events += events;
        if self.cur_busy >= WINDOW_S {
            self.ops_rates.push(self.cur_ops as f64 / self.cur_busy);
            self.event_rates
                .push(self.cur_events as f64 / self.cur_busy);
            self.cur_busy = 0.0;
            self.cur_ops = 0;
            self.cur_events = 0;
            return true;
        }
        false
    }

    fn next_random(&mut self) -> u64 {
        if self.rng == 0 {
            self.rng = 0x9E37_79B9_7F4A_7C15;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Records the host speed measured right after the last closed
    /// window.
    pub fn speed(&mut self, speed: f64) {
        self.speeds.push(speed);
    }

    /// Speed of window `w`; a window still open when the run ended
    /// takes the last speed measured.
    fn speed_of(&self, w: usize) -> f64 {
        self.speeds
            .get(w)
            .or(self.speeds.last())
            .copied()
            .unwrap_or(1.0)
    }

    /// Throughput as the median window (the whole-run rate when fewer
    /// than five windows closed) and per-call latency percentiles, each
    /// also scaled by its window's host speed.
    pub fn summary(&self) -> Summary {
        let busy = self.busy.max(1e-12);
        let scaled = |rates: &[f64]| -> Vec<f64> {
            rates
                .iter()
                .enumerate()
                .map(|(w, r)| r / self.speed_of(w))
                .collect()
        };
        let speed = median(&self.speeds).max(1e-12);
        let (ops_per_s, events_per_s, raw_ops_per_s) = if self.ops_rates.len() >= 5 {
            (
                median(&scaled(&self.ops_rates)),
                median(&scaled(&self.event_rates)),
                median(&self.ops_rates),
            )
        } else {
            let ops = self.ops as f64 / busy;
            (ops / speed, self.events as f64 / busy / speed, ops)
        };
        let raw: Vec<f64> = self.latencies.iter().map(|l| l.0).collect();
        let lat: Vec<f64> = self
            .latencies
            .iter()
            .map(|&(secs, w)| secs * self.speed_of(w))
            .collect();
        Summary {
            ops_per_s,
            events_per_s,
            p50_ms: quantile(&lat, 0.50) * 1e3,
            p99_ms: quantile(&lat, 0.99) * 1e3,
            raw_ops_per_s,
            raw_p50_ms: quantile(&raw, 0.50) * 1e3,
            speed,
        }
    }
}

/// What one operation of a closed loop did.
#[derive(Clone, Copy, Default)]
pub struct Done {
    /// Seconds of the timed library call (span included when traced);
    /// the correctness checks after it are not timed.
    pub secs: f64,
    pub ops: u64,
    pub failed: u64,
    /// Memory ops executed, or messages delivered.
    pub events: u64,
}

/// One operation: `op(k, tracer)` runs the k-th op of the seed's stream.
pub trait Op: FnMut(u64, &mut Tracer) -> Res<Done> {}
impl<F: FnMut(u64, &mut Tracer) -> Res<Done>> Op for F {}

/// How many calls of `f` fill about a millisecond, from one timed call.
pub fn reps_for(mut f: impl FnMut(usize) -> Res<()>) -> Res<usize> {
    let t0 = Instant::now();
    f(0)?;
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    Ok(((1e-3 / once).ceil() as usize).clamp(1, 1_000_000))
}

/// Set-up batches a run times at least.
const MIN_SETUP_BATCHES: usize = 5;

/// The untraced closed loop: `op` back to back for `ctx.seconds`, and
/// after each throughput window a set-up batch of about a millisecond
/// or more, then a gauge slice. The reported median set-up thus samples
/// the host over the whole run, as the throughput does, rather than at
/// the process's start, and each window and set-up batch is scaled by
/// the host speed gauged right after it.
pub fn closed_loop(ctx: &Ctx, mut setup: impl FnMut() -> Res<()>, mut op: impl Op) -> Res<Run> {
    let reps = reps_for(|_| setup())?;
    let mut setup_batch = || -> Res<f64> {
        let t0 = Instant::now();
        for _ in 0..reps {
            setup()?;
        }
        Ok(t0.elapsed().as_secs_f64() / reps as f64)
    };
    let mut gauge = Gauge::new();
    let mut speed = || gauge.rate(GAUGE_S) / NOMINAL_TRIALS_PER_S;
    speed();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut off = Tracer::off();
    let mut meter = Meter::default();
    let (mut attempted, mut failed, mut k) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut closed = false;
    while !closed || start.elapsed().as_secs_f64() < ctx.seconds || setups.len() < MIN_SETUP_BATCHES
    {
        let d = op(k, &mut off)?;
        k += 1;
        attempted += d.ops;
        failed += d.failed;
        closed = meter.record(d.secs, d.ops, d.events);
        if closed {
            let secs = setup_batch()?;
            let s = speed();
            meter.speed(s);
            raw_setups.push(secs);
            setups.push(secs * s);
        }
    }
    let rss = peak_rss_mib();
    let sum = meter.summary();
    println!("raw setup_s {} s", median(&raw_setups));
    println!("raw ops_per_s {} 1/s", sum.raw_ops_per_s);
    println!("raw p50_ms {} ms", sum.raw_p50_ms);
    println!("host_speed {} ratio", sum.speed);
    Ok(Run {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("ops_per_s", sum.ops_per_s, "1/s"),
            Metric::new("events_per_s", sum.events_per_s, "1/s"),
            Metric::new("p50_ms", sum.p50_ms, "ms"),
            Metric::new("p99_ms", sum.p99_ms, "ms"),
            Metric::new("peak_rss_mib", rss, "MiB"),
        ],
    })
}

/// Runs `op` from index `*k` on until `secs` of wall time have passed
/// (at least once); returns the summed outcome.
pub fn run_for(secs: f64, k: &mut u64, tr: &mut Tracer, op: &mut impl Op) -> Res<Done> {
    let start = Instant::now();
    let mut sum = Done::default();
    while sum.ops == 0 || start.elapsed().as_secs_f64() < secs {
        let d = op(*k, tr)?;
        *k += 1;
        sum.secs += d.secs;
        sum.ops += d.ops;
        sum.failed += d.failed;
        sum.events += d.events;
    }
    Ok(sum)
}

/// Share by which tracing slows `op`: untraced and traced slices of the
/// same op stream alternate, each slice's rate is its ops over its timed
/// seconds (spans included), and the median over adjacent pairs of the
/// untraced ÷ traced rate, minus 1, is returned. Pairing keeps the
/// host's drift, which moves both slices of a pair alike, out of it.
pub fn trace_overhead(budget: f64, mut op: impl Op) -> Res<f64> {
    const PAIRS: usize = 10;
    let slice = budget / (2 * PAIRS) as f64;
    let (mut off, mut on) = (Tracer::off(), Tracer::new());
    let mut ratios = Vec::new();
    let mut k = 0u64;
    for _ in 0..PAIRS {
        let plain = run_for(slice, &mut k, &mut off, &mut op)?;
        let traced = run_for(slice, &mut k, &mut on, &mut op)?;
        let rate = |d: Done| d.ops as f64 / d.secs.max(1e-12);
        ratios.push(rate(plain) / rate(traced) - 1.0);
    }
    Ok(median(&ratios))
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte string: the fingerprint of a reduced log.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
