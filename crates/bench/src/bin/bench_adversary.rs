//! Machine-readable adversary-plane benchmark: runs the `nc_adversary`
//! strategy-search tournament at each protocol size and writes
//! `BENCH_adversary.json` (alongside `BENCH_engine.json`,
//! `BENCH_msg.json`, and `BENCH_service.json`) so future PRs can track
//! the empirically worst searched schedule.
//!
//! Usage:
//! `cargo run --release -p nc-bench --bin bench_adversary [-- --max-n 64 --trials 40 --cap 200000 --out BENCH_adversary.json]`
//!
//! Workload: per n ∈ {4, 8, …, max-n}, a beam search over
//! [`StrategyFamily::standard`] (grid pass at `--trials` per point,
//! then the top `--beam` points re-scored at `--refine ×` the trials).
//! Each cell records the oblivious baseline's mean forced
//! first-decision round next to the strongest adaptive strategy's, and
//! the run asserts adaptive ≥ oblivious at every size — the whole point
//! of searching. A closing `fit_log2` over the worst-adaptive means
//! checks the growth stays Θ(log n)-shaped (Theorem 12 holds against
//! every adversary, searched ones included).

use std::io::Write as _;

use nc_adversary::{StrategyFamily, Tournament};
use nc_bench::Args;
use nc_sched::rng::{salts, trial_seed};
use nc_theory::fit_log2;

struct Cell {
    n: usize,
    oblivious_mean: f64,
    worst_label: String,
    worst_mean: f64,
    worst_round: usize,
    worst_trials: u64,
    capped: u64,
}

fn main() {
    let mut args = Args::from_env();
    let max_n: usize = args.value("max-n", 64);
    let trials: u64 = args.value("trials", 40);
    let cap: u64 = args.value("cap", 200_000);
    let beam: usize = args.value("beam", 4);
    let refine: u64 = args.value("refine", 3);
    let seed: u64 = args.value("seed", 0);
    let out: String = args.value("out", "BENCH_adversary.json".to_string());
    args.finish();

    let family = StrategyFamily::standard();
    let mut cells: Vec<Cell> = Vec::new();
    let mut n = 4usize;
    let mut idx = 0u64;
    while n <= max_n {
        let result = Tournament::new(n)
            .trials(trials)
            .seed0(trial_seed(seed, idx, salts::STRATEGY))
            .max_ops(cap)
            .threads(0)
            .beam(&family, beam, refine);
        let oblivious = result
            .oblivious()
            .expect("standard family has the baseline");
        let worst = result
            .worst_adaptive()
            .expect("standard family has adaptive points");
        assert!(
            worst.mean_round >= oblivious.mean_round,
            "n = {n}: searched adaptive {} ({}) scored below oblivious ({})",
            worst.label,
            worst.mean_round,
            oblivious.mean_round
        );
        eprintln!(
            "n {:3}: oblivious {:.2} rounds, worst adaptive {} at {:.2} rounds (max {}, {} trials, {} capped)",
            n, oblivious.mean_round, worst.label, worst.mean_round, worst.worst_round,
            worst.trials, worst.capped,
        );
        cells.push(Cell {
            n,
            oblivious_mean: oblivious.mean_round,
            worst_label: worst.label.clone(),
            worst_mean: worst.mean_round,
            worst_round: worst.worst_round,
            worst_trials: worst.trials,
            capped: worst.capped,
        });
        n *= 2;
        idx += 1;
    }

    let points: Vec<(f64, f64)> = cells.iter().map(|c| (c.n as f64, c.worst_mean)).collect();
    let fit = fit_log2(&points);
    eprintln!(
        "worst-adaptive fit: {:.3} + {:.3}*log2(n), R^2 = {:.3}",
        fit.intercept, fit.slope, fit.r2
    );

    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{\"n\": {}, \"oblivious_mean_round\": {:.3}, \"worst_strategy\": \"{}\", \"worst_mean_round\": {:.3}, \"worst_max_round\": {}, \"worst_trials\": {}, \"capped_trials\": {}, \"adaptive_over_oblivious\": {:.3}}}",
            c.n,
            c.oblivious_mean,
            c.worst_label,
            c.worst_mean,
            c.worst_round,
            c.worst_trials,
            c.capped,
            c.worst_mean / c.oblivious_mean
        ));
    }

    let json = format!(
        "{{\n  \"workload\": \"nc_adversary beam search over the standard strategy family ({} points): lean-consensus on split inputs, {trials} trials/point grid pass, top {beam} re-scored at {refine}x, op cap {cap}\",\n  \"max_n\": {max_n},\n  \"trials\": {trials},\n  \"cells\": [{rows}\n  ],\n  \"worst_adaptive_fit\": {{\"intercept\": {:.3}, \"slope_per_log2_n\": {:.3}, \"r2\": {:.3}}},\n  \"notes\": \"Numbers from `cargo run --release -p nc-bench --bin bench_adversary`; each cell's mean is the forced first-decision round (capped runs score the round frontier reached — a lower bound). adaptive_over_oblivious >= 1 at every n is asserted by the binary: the searched adaptive family always forces at least the oblivious baseline. The log2 fit over worst-adaptive means documents that even the empirically worst searched schedule keeps Theorem 12's O(log n) growth. Results are byte-identical at every worker-thread count (see crates/adversary/tests/determinism.rs); E16's golden CSV pins the smoke-scale sweep.\"\n}}\n",
        family.points().len(),
        fit.intercept,
        fit.slope,
        fit.r2
    );
    let mut file = std::fs::File::create(&out).expect("create output file");
    file.write_all(json.as_bytes()).expect("write json");
    println!("wrote {out}");
}
