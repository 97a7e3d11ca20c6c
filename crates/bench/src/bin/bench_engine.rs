//! Machine-readable engine benchmark: measures the optimized engine
//! against the naive BinaryHeap baseline and the parallel sweep's
//! multi-worker scaling, then writes `BENCH_engine.json` so future PRs
//! can track the performance trajectory. Doubles as the CI performance
//! gate: exits nonzero if the optimized engine falls below
//! `--min-speedup` (default 1.6x) over the baseline at n = 100.
//!
//! Usage:
//! `cargo run --release -p nc-bench --bin bench_engine [-- --trials 3000 --min-speedup 1.6 --out BENCH_engine.json]`
//!
//! `--smoke` runs the reduced CI tripwire: n = 100 only, few trials, no
//! scaling/reset sections, output to `BENCH_engine.smoke.json` (so a CI
//! run never clobbers the committed record) — same `--min-speedup` gate.
//!
//! Workload: the acceptance configuration — Figure 1 point, `n = 100`
//! (plus 1000 and 10000 for the scaling picture), `U(0, 2)` noise,
//! first-decision cutoff, one full trial per iteration (instance setup
//! included, exactly like `fig1::point`).
//!
//! Per n, four single-thread cells: the naive baseline; the sequential
//! engine (scratch reuse, auto queue, which is the winner tree); the
//! same with the queue forced to the 4-ary heap (the queue ablation);
//! and the sequential engine on the `DenseRaceMemory` plane (the
//! memory-plane ablation). The cells are timed in [`ROUNDS`] rounds of
//! back-to-back runs, the order reversed every other round, so each
//! round's naive and optimized times are an adjacent pair that shares
//! the host's speed phase. Each optimized configuration, sequential and
//! dense, gets the median of its per-round ratios to the naive cell; a
//! row's speedup is the larger of the two medians, and the gate reads it
//! at n = 100. Events/s columns are per-cell medians over the rounds.

use std::io::Write as _;
use std::time::Instant;

use nc_bench::{experiments::fig1, Args};
use nc_engine::baseline::run_noisy_baseline;
use nc_engine::sim::Sim;
use nc_engine::{setup, DenseRaceMemory, Limits, MemStore, QueuePolicy};
use nc_sched::{Noise, TimingModel};

/// Best-of count for the sweep-scaling cells.
const REPEATS: usize = 3;

/// Rounds of alternating paired cells (odd, so the median is one round).
const ROUNDS: usize = 7;

/// Shortest timed block of the reset micro-bench: with [`ROUNDS`]
/// blocks per side, each side runs for over 0.2 s.
const RESET_BLOCK_S: f64 = 0.03;

fn timing() -> TimingModel {
    TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 })
}

/// Best-of-R wall time for `f`, returning (seconds, events).
fn best_of<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..REPEATS {
        let start = Instant::now();
        events = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, events)
}

/// Times every cell once per round for [`ROUNDS`] rounds, running the
/// cells in order on even rounds and in reverse on odd ones, so cells
/// timed next to each other share the host's speed phase. Returns
/// `secs[cell][round]` and each cell's work count (the same every
/// round).
fn paired_rounds(cells: &mut [&mut dyn FnMut() -> u64]) -> (Vec<Vec<f64>>, Vec<u64>) {
    let mut secs = vec![Vec::with_capacity(ROUNDS); cells.len()];
    let mut work = vec![0; cells.len()];
    for round in 0..ROUNDS {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for c in order {
            let start = Instant::now();
            work[c] = cells[c]();
            secs[c].push(start.elapsed().as_secs_f64());
        }
    }
    (secs, work)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One naive-baseline pass over `trials` seeds; returns the events run.
fn naive_pass(n: usize, trials: u64) -> impl FnMut() -> u64 {
    let timing = timing();
    let inputs = setup::half_and_half(n);
    move || {
        let mut events = 0;
        for seed in 0..trials {
            let mut inst = setup::build(setup::Algorithm::Lean, &inputs, seed);
            events +=
                run_noisy_baseline(&mut inst, &timing, seed, Limits::first_decision()).total_ops;
        }
        events
    }
}

/// The optimized engine's builder for one cell: queue `policy`, on the
/// default `SimMemory` plane; [`engine_pass`] runs it.
fn engine(n: usize, policy: QueuePolicy) -> Sim {
    Sim::new(setup::Algorithm::Lean)
        .inputs(setup::half_and_half(n))
        .timing(timing())
        .limits(Limits::first_decision())
        .queue_policy(policy)
}

/// One optimized-engine pass over `trials` seeds through one reused
/// `SimRun` handle (scratch + monomorphized lean instance).
fn engine_pass<M: MemStore>(sim: Sim<M>, trials: u64) -> impl FnMut() -> u64 {
    let mut run = sim.build();
    move || (0..trials).map(|seed| run.run(seed).total_ops).sum()
}

/// The `SimMemory::reset` strategy micro-bench behind the shipped
/// fill(0)-in-place semantics: replay a trial-sweep write pattern
/// against a raw word vector reset either by `fill(0)` (keeping `len`)
/// or by the old `clear()` + geometric regrow. Each side runs blocks of
/// at least [`RESET_BLOCK_S`] seconds in alternating [`paired_rounds`];
/// returns `(fill_secs, clear_secs, trials_per_side, median ratio
/// clear/fill)` for `prefix` words/trial.
fn bench_reset_strategy(prefix: usize) -> (f64, f64, usize, f64) {
    fn write(words: &mut Vec<u64>, idx: usize, val: u64) {
        if idx >= words.len() {
            let new_len = (idx + 1).max(words.len() * 2).max(16);
            words.resize(new_len, 0);
        }
        words[idx] = val;
    }
    fn block(words: &mut Vec<u64>, fill_in_place: bool, prefix: usize, trials: usize) -> u64 {
        let mut acc = 0u64;
        for _ in 0..trials {
            if fill_in_place {
                words.fill(0);
            } else {
                words.clear();
            }
            for idx in 0..prefix {
                write(words, idx, idx as u64);
                acc = acc.wrapping_add(words[idx / 2]);
            }
        }
        std::hint::black_box(acc)
    }
    let (mut fill_words, mut clear_words) = (Vec::new(), Vec::new());
    let mut trials = 64;
    loop {
        let start = Instant::now();
        block(&mut fill_words, true, prefix, trials);
        if start.elapsed().as_secs_f64() >= RESET_BLOCK_S {
            break;
        }
        trials *= 2;
    }
    let (secs, _) = paired_rounds(&mut [
        &mut || block(&mut fill_words, true, prefix, trials),
        &mut || block(&mut clear_words, false, prefix, trials),
    ]);
    let ratios: Vec<f64> = secs[1].iter().zip(&secs[0]).map(|(c, f)| c / f).collect();
    (
        secs[0].iter().sum(),
        secs[1].iter().sum(),
        trials * ROUNDS,
        median(&ratios),
    )
}

fn main() {
    let mut args = Args::from_env();
    let smoke = args.flag("smoke");
    let trials: u64 = args.value("trials", if smoke { 300 } else { 2000 });
    let min_speedup: f64 = args.value("min-speedup", 1.6);
    let out: String = args.value(
        "out",
        if smoke {
            "BENCH_engine.smoke.json".to_string()
        } else {
            "BENCH_engine.json".to_string()
        },
    );
    args.finish();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    // Single-thread cells, timed as alternating rounds.
    let ns: &[usize] = if smoke { &[100] } else { &[100, 1000, 10_000] };
    let mut single = String::new();
    let mut speedup_n100 = 0.0;
    for (i, &n) in ns.iter().enumerate() {
        let t = (trials / (n as u64 / 100).max(1)).max(20);
        let (secs, events) = paired_rounds(&mut [
            &mut naive_pass(n, t),
            &mut engine_pass(engine(n, QueuePolicy::Auto), t),
            &mut engine_pass(engine(n, QueuePolicy::Heap), t),
            &mut engine_pass(
                engine(n, QueuePolicy::Auto).memory_backend(DenseRaceMemory::new()),
                t,
            ),
        ]);
        let ev = events[0];
        assert!(
            events.iter().all(|&e| e == ev),
            "engines diverged at n = {n}: {events:?}"
        );
        let eps = |cell: usize| ev as f64 / median(&secs[cell]);
        let (naive_eps, seq_eps, heap_eps, dense_eps) = (eps(0), eps(1), eps(2), eps(3));
        // The headline is the best single-thread configuration the
        // builder can be asked for, the default `SimMemory` plane or the
        // dense one: each one's median ratio over the rounds against the
        // naive run it was paired with, and the larger of the two.
        let paired =
            |cell: usize| -> Vec<f64> { (0..ROUNDS).map(|r| secs[0][r] / secs[cell][r]).collect() };
        let (seq_ratios, dense_ratios) = (paired(1), paired(3));
        let speedup_sequential = median(&seq_ratios);
        let speedup_dense = median(&dense_ratios);
        let (speedup, ratios) = if speedup_dense > speedup_sequential {
            (speedup_dense, &dense_ratios)
        } else {
            (speedup_sequential, &seq_ratios)
        };
        let best_eps = seq_eps.max(dense_eps);
        let (lo, hi) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
        if n == 100 {
            speedup_n100 = speedup;
        }
        eprintln!(
            "n={n}: naive {naive_eps:.3e} ev/s, sequential (tree) {seq_eps:.3e}, heap {heap_eps:.3e}, dense {dense_eps:.3e} ev/s, speedup {speedup:.2}x (rounds {lo:.2}-{hi:.2}x)"
        );
        if i > 0 {
            single.push(',');
        }
        single.push_str(&format!(
            "\n    {{\"n\": {n}, \"trials\": {t}, \"events_per_trial\": {:.1}, \"naive_events_per_sec\": {naive_eps:.1}, \"heap_events_per_sec\": {heap_eps:.1}, \"tree_events_per_sec\": {seq_eps:.1}, \"dense_memory_events_per_sec\": {dense_eps:.1}, \"optimized_events_per_sec\": {best_eps:.1}, \"speedup\": {speedup:.3}, \"speedup_min\": {lo:.3}, \"speedup_max\": {hi:.3}, \"speedup_sequential\": {speedup_sequential:.3}, \"speedup_dense\": {speedup_dense:.3}}}",
            ev as f64 / t as f64,
        ));
    }

    // Sweep scaling: fig1::point wall time vs worker count. On a 1-core
    // host the single row carries no scaling information, so the record
    // is explicitly marked host-limited (a multi-core re-measurement
    // then shows up as a diff instead of silently overwriting).
    let mut scaling = String::new();
    if !smoke {
        let sweep_trials = trials.max(500);
        let mut base_time = 0.0;
        let mut threads_list: Vec<usize> = vec![1];
        let mut w = 2;
        while w <= cores {
            threads_list.push(w);
            w *= 2;
        }
        if *threads_list.last().unwrap() != cores {
            threads_list.push(cores);
        }
        for (i, &threads) in threads_list.iter().enumerate() {
            let (secs, _) = best_of(|| {
                let p = fig1::point(
                    Noise::Uniform { lo: 0.0, hi: 2.0 },
                    100,
                    sweep_trials,
                    1,
                    threads,
                );
                p.rounds.count()
            });
            if threads == 1 {
                base_time = secs;
            }
            let scale = base_time / secs;
            eprintln!("fig1 point, {threads} worker(s): {secs:.3} s ({scale:.2}x vs 1 worker)");
            if i > 0 {
                scaling.push(',');
            }
            scaling.push_str(&format!(
                "\n      {{\"threads\": {threads}, \"seconds\": {secs:.4}, \"speedup_vs_1\": {scale:.3}}}"
            ));
        }
    }
    let host_limited = cores == 1;

    // SimMemory::reset strategy record: the shipped fill(0)-in-place
    // semantics vs the old clear+geometric-regrow, on a raw replay of
    // the per-trial write pattern (see SimMemory::reset docs).
    let mut reset_cells = String::new();
    if !smoke {
        for (i, &prefix) in [64usize, 1024].iter().enumerate() {
            let (fill_s, clear_s, reps, ratio) = bench_reset_strategy(prefix);
            eprintln!(
                "reset strategy, {prefix}-word prefix: fill(0)-in-place {fill_s:.4}s vs clear+regrow {clear_s:.4}s over {reps} trials each ({ratio:.2}x, median of {ROUNDS} paired blocks)"
            );
            if i > 0 {
                reset_cells.push(',');
            }
            reset_cells.push_str(&format!(
                "\n    {{\"prefix_words\": {prefix}, \"trials\": {reps}, \"fill_in_place_secs\": {fill_s:.4}, \"clear_regrow_secs\": {clear_s:.4}, \"fill_speedup\": {ratio:.3}}}"
            ));
        }
    }

    let scaling_close = if scaling.is_empty() { "" } else { "\n    " };
    let json = format!(
        "{{\n  \"workload\": \"fig1 point: n procs, U(0,2) noise, first-decision cutoff, full trial incl. instance setup\",\n  \"baseline\": \"naive BinaryHeap driver (nc_engine::baseline, seed implementation)\",\n  \"optimized\": \"SoA scratch engine, auto queue (the branch-free winner tree at every n); best of the sequential engine on the default SimMemory plane and on the DenseRaceMemory plane, one thread\",\n  \"host_cores\": {cores},\n  \"smoke\": {smoke},\n  \"trials_n100\": {trials},\n  \"single_thread\": [{single}\n  ],\n  \"speedup_n100\": {speedup_n100:.3},\n  \"sweep_scaling_n100\": {{\n    \"host_limited\": {host_limited},\n    \"rows\": [{scaling}{scaling_close}]\n  }},\n  \"reset_fill_vs_clear\": [{reset_cells}\n  ],\n  \"notes\": \"Numbers from `cargo run --release -p nc-bench --bin bench_engine`. Single-thread cells run in {ROUNDS} rounds, cell order reversed every other round; events_per_sec columns are per-cell medians, speedup_sequential and speedup_dense are the medians over rounds of naive time / that configuration's time in the same round, speedup is the larger of the two (speedup_min/max the range of its rounds), and the n = 100 speedup is the gated one. speedup_sequential is the sequential engine on the default SimMemory plane; tree is that same sequential cell (the auto queue) and heap the forced 4-ary heap ablation; dense_memory is the DenseRaceMemory word-store-plane ablation (Sim::memory_backend); reset_fill_vs_clear records why SimMemory::reset ships fill(0)-in-place: fill_speedup is the median clear/fill ratio over {ROUNDS} alternating blocks of at least 30 ms per side; the secs are each side's total. Sweep-scaling rows are best-of-{REPEATS}. sweep_scaling_n100.host_limited = true means the host had 1 core, so the scaling rows carry no parallel-speedup information.\"\n}}\n"
    );
    let mut file = std::fs::File::create(&out).expect("create output file");
    file.write_all(json.as_bytes()).expect("write json");
    println!("wrote {out}");

    if speedup_n100 < min_speedup {
        eprintln!(
            "PERF REGRESSION: optimized engine is {speedup_n100:.3}x the naive baseline at n=100 (gate: {min_speedup}x)"
        );
        std::process::exit(1);
    }
}
