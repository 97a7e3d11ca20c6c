//! The adversary layer group: E16's `Tournament::beam` over
//! `StrategyFamily::standard()` at one n, one thread, scored point by
//! point in the traced run. It is not an end-to-end workload: as one, its
//! beam-call rate spread by up to 0.32 (IQR ÷ median) over ten runs on the
//! reference host, past the 0.25 bound.
//!
//! The tournament reports scores, not runs, so every trial of every
//! beam call is run again through `Sim` with the same seed derivation:
//! each run gets `check_safety`, and the recomputed scores must equal the
//! tournament's.

use std::hint::black_box;
use std::time::Instant;

use nc_adversary::{StrategyFamily, StrategyPoint, Tournament, TournamentResult};
use nc_engine::setup::half_and_half;
use nc_engine::sim::Sim;
use nc_engine::{Algorithm, Limits, RunOutcome};
use nc_sched::rng::{salts, trial_seed};

use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Metric, Res};

const SALT: u64 = 0xAD5E;
const N: usize = 16;
/// A small search per call (42 trials, about 4 ms here), so the run
/// holds thousands of calls and a stall of the host lands on few of
/// them: at 116 trials a call, p99 moved 13–32 ms between runs.
const TRIALS: u64 = 2;
const WIDTH: usize = 2;
const REFINE: u64 = 2;
const CAP: u64 = 200_000;

fn tournament(seed0: u64) -> Tournament {
    Tournament::new(N)
        .trials(TRIALS)
        .seed0(seed0)
        .max_ops(CAP)
        .threads(1)
}

fn seed_of(seed: u64, k: u64) -> u64 {
    trial_seed(seed, k, SALT)
}

/// Trials one beam call executes: the grid pass plus the refinement.
fn trials_per_call(points: usize) -> u64 {
    points as u64 * TRIALS + WIDTH as u64 * REFINE * TRIALS
}

/// A beam call recomputed run by run.
struct Check {
    /// Memory ops over every trial the call executed.
    events: u64,
    capped: u64,
}

/// Re-runs every trial behind `result` (beam call with base seed
/// `seed0`), checking each run's safety and the scores.
fn verify(seed0: u64, result: &TournamentResult) -> Res<Check> {
    let inputs = half_and_half(N);
    let mut events = 0u64;
    let mut capped_total = 0u64;
    for (j, score) in result.scores.iter().enumerate() {
        let point = score.point;
        let point_seed = trial_seed(seed0, j as u64, salts::STRATEGY);
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .adversary(move |run_seed| point.build(run_seed))
            .limits(Limits::first_decision().with_max_ops(CAP))
            .build();
        let (mut sum, mut worst, mut capped) = (0u64, 0usize, 0u64);
        let mut prefix = 0u64;
        for t in 0..score.trials {
            let r = sim.run(trial_seed(point_seed, t, salts::STRATEGY));
            r.check_safety(&inputs).map_err(|e| {
                format!("tournament {seed0} point {j} trial {t}: safety violation: {e}")
            })?;
            let round = r.first_decision_round.unwrap_or(r.max_round);
            sum += round as u64;
            worst = worst.max(round);
            capped += u64::from(r.outcome == RunOutcome::OpCapReached);
            events += r.total_ops;
            if t < TRIALS {
                prefix += r.total_ops;
            }
        }
        // A refined point also ran its grid-pass trials (a prefix of the
        // refined seeds) once before.
        if score.trials > TRIALS {
            events += prefix;
        }
        let mean = sum as f64 / score.trials as f64;
        if mean != score.mean_round || worst != score.worst_round || capped != score.capped {
            return Err(format!(
                "tournament {seed0} point {j}: rerun scores mean {mean} worst {worst} capped {capped}, \
                 the tournament reported {} / {} / {}",
                score.mean_round, score.worst_round, score.capped
            ));
        }
        capped_total += capped;
    }
    Ok(Check {
        events,
        capped: capped_total,
    })
}

/// Counts of the seed's first beam call.
pub fn counts(seed: u64) -> Res<Vec<Metric>> {
    let family = StrategyFamily::standard();
    let seed0 = seed_of(seed, 0);
    let result = tournament(seed0).beam(&family, WIDTH, REFINE);
    let check = verify(seed0, &result)?;
    let worst = result
        .worst_adaptive()
        .ok_or("standard family has adaptive points")?;
    Ok(vec![
        Metric::new(
            "adversary.events_per_trial",
            check.events as f64 / trials_per_call(family.points().len()) as f64,
            "count",
        ),
        Metric::new("adversary.capped_trials", check.capped as f64, "count"),
        Metric::new("adversary.worst_mean_round", worst.mean_round, "rounds"),
    ])
}

/// Per-point scoring cost, and what adaptive picks cost per trial over
/// oblivious ones.
pub fn layers(ctx: &Ctx, budget: f64, tr: &mut Tracer) -> Res<Vec<Metric>> {
    let points: Vec<StrategyPoint> = StrategyFamily::standard().points();
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let start = Instant::now();
    let mut k = 0u64;
    while k < 2 || start.elapsed().as_secs_f64() < budget {
        let seed0 = seed_of(ctx.seed, k);
        let tour = tournament(seed0);
        for (j, &point) in points.iter().enumerate() {
            let t0 = Instant::now();
            let span = tr.open("adversary.score_at", ROOT, j as u64);
            black_box(tour.score_at(point, trial_seed(seed0, j as u64, salts::STRATEGY), TRIALS));
            tr.close(span);
            per_point[j].push(t0.elapsed().as_secs_f64());
        }
        k += 1;
    }
    let (calls, secs) = tr.total("adversary.score_at");
    let oblivious = median(&per_point[0]);
    let adaptive: f64 =
        per_point[1..].iter().map(|v| median(v)).sum::<f64>() / (points.len() - 1) as f64;
    let out = vec![
        Metric::new("adversary.point_ms", secs * 1e3 / calls as f64, "ms"),
        Metric::new(
            "adversary.pick_overhead_frac",
            adaptive / oblivious - 1.0,
            "ratio",
        ),
    ];
    Ok(out)
}
