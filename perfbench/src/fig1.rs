//! The Figure 1 workload (`fig1-n100`) and the fig1 layer groups at
//! n = 100 and n = 10,000: lean-consensus under U(0,2) noise,
//! half-and-half inputs, first-decision cutoff, one trial per operation
//! in a single-thread closed loop.
//!
//! The traced run splits the engine's per-event cost by replay: one
//! trial is recorded with `Sim::record_history()`, and its event trace
//! is fed through the queue, the noise sampler, the protocol step and
//! both memory planes alone. What the live run costs beyond the replayed
//! layers is reported as the residual, sign and all.

use std::hint::black_box;
use std::time::Instant;

use nc_core::{LeanConsensus, ProtocolCore, Status};
use nc_engine::setup::{build_lean, build_lean_in, half_and_half};
use nc_engine::sim::{Sim, SimRun};
use nc_engine::{Algorithm, Limits, QueueKind, QueuePolicy, RunOutcome};
use nc_memory::{Bit, DenseRaceMemory, Event, MemStore, SimMemory};
use nc_sched::rng::{salts, stream_rng, trial_seed};
use nc_sched::{EventQueue, EventTree, Noise, QueuedEvent, SimQueue, TimingModel};

use crate::stats::{self, closed_loop, median, reps_for, run_for, Done, Op};
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Metric, Res, Run};

/// Salt of the benchmark's trial-seed stream (distinct from the
/// library's `salts`).
const SALT: u64 = 0xF161;
/// The warm-up trial of a set-up always uses this seed, so set-up time
/// does not depend on which trial the workload seed happens to pick.
const WARMUP_SEED: u64 = 0x5EED;

const NOISE: Noise = Noise::Uniform { lo: 0.0, hi: 2.0 };

fn sim(n: usize) -> Sim {
    Sim::new(Algorithm::Lean)
        .inputs(half_and_half(n))
        .timing(TimingModel::figure1(NOISE))
        .limits(Limits::first_decision())
}

fn seed_of(seed: u64, t: u64) -> u64 {
    trial_seed(seed, t, SALT)
}

/// Trials the seed-determined counts are taken over.
fn count_trials(n: usize) -> u64 {
    if n <= 1000 {
        64
    } else {
        4
    }
}

/// The fig1 op: trial `t` of the seed's stream, its `SimRun::run` alone
/// inside an `engine.run` span, then its safety check. An op fails when
/// the trial hit the op cap undecided.
fn trial_op<'a>(s: &'a mut SimRun, inputs: &'a [Bit], seed: u64) -> impl Op + 'a {
    move |t, tr| {
        let trial = seed_of(seed, t);
        let (report, secs) = tr.time("engine.run", t, || s.run(trial));
        report
            .check_safety(inputs)
            .map_err(|e| format!("fig1 trial seed {trial}: safety violation: {e}"))?;
        Ok(Done {
            secs,
            ops: 1,
            failed: u64::from(report.outcome != RunOutcome::FirstDecision),
            events: report.total_ops,
        })
    }
}

/// The untraced end-to-end run. A set-up is `Sim…build()` plus one
/// warm-up trial.
pub fn run(ctx: &Ctx, n: usize) -> Res<Run> {
    let inputs = half_and_half(n);
    let mut s = sim(n).build();
    let setup = || {
        let mut s = sim(n).build();
        black_box(s.run(WARMUP_SEED));
        Ok(())
    };
    closed_loop(ctx, setup, trial_op(&mut s, &inputs, ctx.seed))
}

/// Counts over the seed's first trials; they repeat exactly per seed.
pub fn counts(seed: u64, n: usize) -> Vec<Metric> {
    let mut s = sim(n).build();
    let trials = count_trials(n);
    let mut events = 0u64;
    let mut rounds = 0u64;
    for t in 0..trials {
        let r = s.run(seed_of(seed, t));
        events += r.total_ops;
        rounds += r.first_decision_round.unwrap_or(0) as u64;
    }
    let footprint = s.memory().map_or(0, |m| m.footprint_words());
    vec![
        Metric::new(
            "engine.events_per_trial",
            events as f64 / trials as f64,
            "count",
        ),
        Metric::new(
            "engine.first_decision_round_mean",
            rounds as f64 / trials as f64,
            "rounds",
        ),
        Metric::new("memory.footprint_words", footprint as f64, "words"),
    ]
}

/// Share by which tracing slows the fig1 closed loop.
pub fn trace_overhead(ctx: &Ctx, n: usize, budget: f64) -> Res<f64> {
    let inputs = half_and_half(n);
    let mut s = sim(n).build();
    stats::trace_overhead(budget, trial_op(&mut s, &inputs, ctx.seed))
}

/// One recorded step of the queue script: the engine either re-keys
/// the first event (the hold) or pops it (the process decided).
#[derive(Clone, Copy)]
enum Step {
    Hold(QueuedEvent),
    Pop,
}

/// The pop/re-key sequence of a recorded trial, reconstructed from its
/// history: process `p`'s k-th event re-keys it to the time of its
/// (k+1)-th, and its last event pops it if it decided there. Events the
/// run scheduled but never executed are keyed past the end of the run,
/// where their exact time cannot change the pop order.
struct QueueScript {
    n: usize,
    prime: Vec<QueuedEvent>,
    steps: Vec<Step>,
    /// Pid expected at the front before each step.
    pids: Vec<u32>,
}

impl QueueScript {
    fn new(n: usize, history: &[Event], decided: &[bool]) -> Self {
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
        for ev in history {
            times[ev.pid.index()].push(ev.time);
        }
        let end = history.last().map_or(0.0, |e| e.time);
        let beyond = end * 2.0 + 1.0;
        let mut seq = 0u64;
        let prime = (0..n)
            .map(|p| {
                seq += 1;
                QueuedEvent::new(times[p].first().copied().unwrap_or(beyond), seq, p as u32)
            })
            .collect();
        let mut next = vec![1usize; n];
        let mut steps = Vec::with_capacity(history.len());
        let mut pids = Vec::with_capacity(history.len());
        for ev in history {
            let p = ev.pid.index();
            pids.push(p as u32);
            let k = next[p];
            next[p] += 1;
            let step = if k < times[p].len() {
                seq += 1;
                Step::Hold(QueuedEvent::new(times[p][k], seq, p as u32))
            } else if decided[p] {
                Step::Pop
            } else {
                seq += 1;
                Step::Hold(QueuedEvent::new(beyond, seq, p as u32))
            };
            steps.push(step);
        }
        QueueScript {
            n,
            prime,
            steps,
            pids,
        }
    }

    /// Noise draws the live run made: one per primed event and one per
    /// hold.
    fn draws(&self) -> u64 {
        (self.prime.len()
            + self
                .steps
                .iter()
                .filter(|s| matches!(s, Step::Hold(_)))
                .count()) as u64
    }

    /// Replays the script; with `check`, verifies every popped pid.
    fn replay<Q: SimQueue>(&self, q: &mut Q, check: bool) -> Res<u64> {
        q.prepare(self.n);
        for &ev in &self.prime {
            q.insert(ev);
        }
        let mut acc = 0u64;
        for (i, step) in self.steps.iter().enumerate() {
            let top = q.first().ok_or("queue replay: queue ran empty")?;
            if check && top.pid() != self.pids[i] {
                return Err(format!(
                    "queue replay: step {i} popped pid {} but the trial ran pid {}",
                    top.pid(),
                    self.pids[i]
                ));
            }
            acc = acc.wrapping_add(u64::from(top.pid()));
            match *step {
                Step::Hold(ev) => q.reschedule_first(ev),
                Step::Pop => {
                    q.pop_first();
                }
            }
        }
        Ok(acc)
    }
}

/// Repeats `f` until `secs` have passed (at least three times), `reps`
/// calls inside each span named `name`, with `prepare` run untimed before
/// each span; returns the median seconds per call.
fn repeat<P, F>(
    tr: &mut Tracer,
    name: &'static str,
    secs: f64,
    reps: usize,
    mut prepare: P,
    mut f: F,
) -> Res<f64>
where
    P: FnMut(),
    F: FnMut(usize) -> Res<()>,
{
    let start = Instant::now();
    let mut i = 0u64;
    while i < 3 || start.elapsed().as_secs_f64() < secs {
        prepare();
        let span = tr.open(name, ROOT, i);
        for r in 0..reps {
            f(r)?;
        }
        tr.close(span);
        i += 1;
    }
    Ok(median(&tr.durations(name)) / reps as f64)
}

/// Replays the recorded reads and writes on one memory plane; with
/// `check`, verifies every read returns what the live trial read.
fn replay_memory<M: MemStore>(mem: &mut M, history: &[Event], check: bool) -> Res<u64> {
    let mut acc = 0u64;
    for (i, ev) in history.iter().enumerate() {
        let got = mem.exec(ev.op);
        if check && got != ev.observed {
            return Err(format!(
                "memory replay: event {i} read {got:?}, the trial read {:?}",
                ev.observed
            ));
        }
        acc = acc.wrapping_add(got.unwrap_or(0));
    }
    Ok(acc)
}

/// Feeds the recorded read values to fresh protocol states; with
/// `check`, verifies each state asks for the recorded operation.
fn replay_core(procs: &mut [LeanConsensus], history: &[Event], check: bool) -> Res<()> {
    for (i, ev) in history.iter().enumerate() {
        let p = &mut procs[ev.pid.index()];
        if check && p.status() != Status::Pending(ev.op) {
            return Err(format!(
                "core replay: event {i} expected {:?}, state is {:?}",
                ev.op,
                p.status()
            ));
        }
        p.advance(ev.observed);
    }
    Ok(())
}

/// The traced layer split at process count `n`, over about `budget`
/// seconds.
pub fn layers(ctx: &Ctx, n: usize, budget: f64, tr: &mut Tracer) -> Res<Vec<Metric>> {
    let inputs = half_and_half(n);

    // Record one trial and check that each replay reproduces it.
    let rec_seed = seed_of(ctx.seed, 0);
    let mut rec = sim(n).record_history().build();
    let report = rec.run(rec_seed);
    let history: Vec<Event> = rec.history().to_vec();
    let events = report.total_ops;
    if history.len() as u64 != events {
        return Err(format!(
            "recorded {} events but the trial ran {events}",
            history.len()
        ));
    }
    let decided: Vec<bool> = report.decisions.iter().map(Option::is_some).collect();
    let script = QueueScript::new(n, &history, &decided);
    if script.steps.len() as u64 != events {
        return Err("queue script length differs from the trial's total_ops".into());
    }
    let kind = QueuePolicy::Auto.kind_for(n);
    let mut heap = EventQueue::new();
    let mut tree = EventTree::new();
    match kind {
        QueueKind::Heap => script.replay(&mut heap, true)?,
        QueueKind::Tree => script.replay(&mut tree, true)?,
    };
    let mut sim_inst = build_lean_in(&inputs, SimMemory::new());
    let mut dense_inst = build_lean_in(&inputs, DenseRaceMemory::new());
    replay_memory(&mut sim_inst.mem, &history, true)?;
    replay_memory(&mut dense_inst.mem, &history, true)?;
    let fresh: Vec<LeanConsensus> = build_lean(&inputs).procs;
    replay_core(&mut fresh.clone(), &history, true)?;

    // Cheap replays run back to back inside one span of about a
    // millisecond or more, so the clock's own cost stays negligible.
    let share = budget / 10.0;
    let ev = events as f64;
    let mut queue = |_| {
        black_box(match kind {
            QueueKind::Heap => script.replay(&mut heap, false)?,
            QueueKind::Tree => script.replay(&mut tree, false)?,
        });
        Ok(())
    };
    let reps = reps_for(&mut queue)?;
    let queue_s = repeat(tr, "sched.queue_replay", share, reps, || {}, queue)?;
    let draws = script.draws();
    let mut rng = stream_rng(rec_seed, 0, salts::NOISE);
    let mut buf = [0.0f64; 16];
    let mut noise = |_| {
        let mut left = draws as usize;
        let mut acc = 0.0;
        while left > 0 {
            let k = left.min(buf.len());
            NOISE.fill(&mut rng, &mut buf[..k]);
            acc += buf[k - 1];
            left -= k;
        }
        black_box(acc);
        Ok(())
    };
    let reps = reps_for(&mut noise)?;
    let noise_s = repeat(tr, "sched.noise_fill", share, reps, || {}, noise)?;
    // Each core replay needs fresh states, cloned untimed before the span.
    let reps = reps_for(|_| replay_core(&mut fresh.clone(), &history, false))?;
    let mut states = vec![fresh.clone(); reps];
    let core_s = {
        let states = std::cell::RefCell::new(&mut states);
        repeat(
            tr,
            "core.step_replay",
            share,
            reps,
            || {
                states
                    .borrow_mut()
                    .iter_mut()
                    .for_each(|s| s.clone_from(&fresh))
            },
            |r| replay_core(&mut states.borrow_mut()[r], &history, false),
        )?
    };
    black_box(&states);
    let mut sim_replay = |_| {
        black_box(replay_memory(&mut sim_inst.mem, &history, false)?);
        Ok(())
    };
    let reps = reps_for(&mut sim_replay)?;
    let sim_s = repeat(tr, "memory.sim_replay", share, reps, || {}, sim_replay)?;
    let mut dense_replay = |_| {
        black_box(replay_memory(&mut dense_inst.mem, &history, false)?);
        Ok(())
    };
    let reps = reps_for(&mut dense_replay)?;
    let dense_s = repeat(tr, "memory.dense_replay", share, reps, || {}, dense_replay)?;
    let mut reset = |_| {
        sim_inst.mem.reset();
        black_box(&mut sim_inst.mem);
        Ok(())
    };
    let reps = reps_for(&mut reset)?;
    let reset_s = repeat(tr, "memory.reset", share, reps, || {}, reset)?;
    let mut rebuild = |_| {
        sim_inst.rebuild(&inputs);
        black_box(&mut sim_inst);
        Ok(())
    };
    let reps = reps_for(&mut rebuild)?;
    let rebuild_s = repeat(tr, "engine.rebuild", share, reps, || {}, rebuild)?;

    // The live engine, traced: one span per `SimRun::run`.
    let mut live = sim(n).build();
    let mut t = 1u64;
    let live_events = run_for(
        share * 3.0,
        &mut t,
        tr,
        &mut trial_op(&mut live, &inputs, ctx.seed),
    )?
    .events;
    let (_, run_s) = tr.total("engine.run");
    let ns_per_event = run_s * 1e9 / live_events as f64;
    let per_event = |s: f64| s * 1e9 / ev;
    let queue_ns = per_event(queue_s);
    let noise_ns_per_draw = noise_s * 1e9 / draws as f64;
    let core_ns = per_event(core_s);
    let sim_ns = per_event(sim_s);
    let rebuild_ns = per_event(rebuild_s);
    let residual = ns_per_event
        - queue_ns
        - noise_ns_per_draw * draws as f64 / ev
        - core_ns
        - sim_ns
        - rebuild_ns;

    let out = vec![
        Metric::new("engine.ns_per_event", ns_per_event, "ns"),
        Metric::new("sched.queue_ns_per_event", queue_ns, "ns"),
        Metric::new("sched.noise_ns_per_draw", noise_ns_per_draw, "ns"),
        Metric::new("core.step_ns_per_event", core_ns, "ns"),
        Metric::new("memory.sim_ns_per_op", sim_ns, "ns"),
        Metric::new("memory.dense_ns_per_op", per_event(dense_s), "ns"),
        Metric::new("memory.reset_us", reset_s * 1e6, "us"),
        Metric::new("engine.rebuild_us_per_trial", rebuild_s * 1e6, "us"),
        Metric::new("engine.residual_ns_per_event", residual, "ns"),
        Metric::new("engine.residual_frac", residual / ns_per_event, "ratio"),
    ];
    Ok(out)
}
