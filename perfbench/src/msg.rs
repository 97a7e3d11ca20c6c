//! The `msg-lossy` workload: `run_message_passing` at n = 5 with 5%
//! message loss, so retry timers and gossip run beside the deliveries.
//! One run per operation in a single-thread closed loop. It touches none
//! of the shared-memory engine.

use std::hint::black_box;

use nc_core::invariants::{check_agreement, check_validity};
use nc_msg::{run_message_passing, MsgConfig, NetFaultSpec, Outcome};
use nc_sched::rng::trial_seed;
use nc_sched::Noise;

use crate::stats::{self, closed_loop, run_for, Done, Op};
use crate::trace::Tracer;
use crate::{Ctx, Metric, Res, Run};

const SALT: u64 = 0x3546;
const N: usize = 5;
const LOSS: f64 = 0.05;
/// Runs the seed-determined counts are taken over.
const COUNT_RUNS: u64 = 256;
/// Seed of the warm-up run of every set-up.
const WARMUP_SEED: u64 = 0x5EED;

fn config() -> MsgConfig {
    MsgConfig::new(N, Noise::Exponential { mean: 1.0 })
        .with_faults(NetFaultSpec::none().with_loss(LOSS))
}

fn seed_of(seed: u64, t: u64) -> u64 {
    trial_seed(seed, t, SALT)
}

/// The msg op: run `t` of the seed's stream, `run_message_passing`
/// alone inside a `msg.run` span, then its checks. A safety violation is
/// an error; an outcome other than `Decided` is a failed op.
fn run_op(cfg: &MsgConfig, seed: u64) -> impl Op + '_ {
    move |t, tr| {
        let run = seed_of(seed, t);
        let (report, secs) = tr.time("msg.run", t, || run_message_passing(cfg, run));
        check_agreement(&report.decisions)
            .and_then(|()| check_validity(&cfg.inputs, &report.decisions))
            .map_err(|e| format!("msg run seed {run}: safety violation: {e}"))?;
        Ok(Done {
            secs,
            ops: 1,
            failed: u64::from(report.outcome != Outcome::Decided),
            events: report.deliveries,
        })
    }
}

/// The untraced end-to-end run. A set-up is the builder calls plus one
/// warm-up run with a fixed seed; the builder alone takes tens of
/// nanoseconds.
pub fn run(ctx: &Ctx) -> Res<Run> {
    let cfg = config();
    let setup = || {
        let cfg = config();
        black_box(run_message_passing(&cfg, WARMUP_SEED));
        Ok(())
    };
    closed_loop(ctx, setup, run_op(&cfg, ctx.seed))
}

pub fn counts(seed: u64) -> Vec<Metric> {
    let cfg = config();
    let (mut deliveries, mut retries, mut gossip, mut lost) = (0u64, 0u64, 0u64, 0u64);
    for t in 0..COUNT_RUNS {
        let r = run_message_passing(&cfg, seed_of(seed, t));
        deliveries += r.deliveries;
        retries += r.retries;
        gossip += r.gossip;
        lost += r.lost;
    }
    let per = |x: u64| x as f64 / COUNT_RUNS as f64;
    vec![
        Metric::new("msg.deliveries_per_run", per(deliveries), "count"),
        Metric::new("msg.retries_per_run", per(retries), "count"),
        Metric::new("msg.gossip_per_run", per(gossip), "count"),
        Metric::new("msg.lost_per_run", per(lost), "count"),
    ]
}

pub fn trace_overhead(ctx: &Ctx, budget: f64) -> Res<f64> {
    let cfg = config();
    stats::trace_overhead(budget, run_op(&cfg, ctx.seed))
}

pub fn layers(ctx: &Ctx, budget: f64, tr: &mut Tracer) -> Res<Vec<Metric>> {
    let cfg = config();
    let deliveries = run_for(budget, &mut 0, tr, &mut run_op(&cfg, ctx.seed))?.events;
    let (_, secs) = tr.total("msg.run");
    let out = vec![Metric::new(
        "msg.ns_per_delivery",
        secs * 1e9 / deliveries as f64,
        "ns",
    )];
    Ok(out)
}
