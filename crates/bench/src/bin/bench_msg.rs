//! Machine-readable message-passing benchmark: measures the `nc_msg`
//! discrete-event simulator's throughput and the cost of the recovery
//! plane under message loss, then writes `BENCH_msg.json` (alongside
//! `BENCH_engine.json`) so future PRs can track the trajectory.
//!
//! Usage:
//! `cargo run --release -p nc-bench --bin bench_msg [-- --trials 200 --n 5 --out BENCH_msg.json]`
//!
//! Workload: one cell per loss rate {0%, 1%, 5%} — `--trials` full
//! lean-over-ABD runs (exponential(1) delays, half-and-half inputs,
//! retry + gossip armed whenever loss > 0). Each cell reports delivered
//! messages per wall-clock second (the simulator's event throughput),
//! mean deliveries and retries per run, and the delivery overhead
//! relative to the loss-free cell (how much extra traffic the faults +
//! recovery plane cost end to end). Best-of-R wall time per cell.

use std::io::Write as _;
use std::time::Instant;

use nc_bench::Args;
use nc_msg::{run_message_passing, MsgConfig, NetFaultSpec, Outcome};
use nc_sched::Noise;

const REPEATS: usize = 3;

struct Cell {
    loss: f64,
    deliveries_per_sec: f64,
    mean_deliveries: f64,
    mean_retries: f64,
    mean_sim_time: f64,
}

fn bench_cell(n: usize, trials: u64, loss: f64) -> Cell {
    let cfg = if loss > 0.0 {
        MsgConfig::new(n, Noise::Exponential { mean: 1.0 })
            .with_faults(NetFaultSpec::none().with_loss(loss))
    } else {
        MsgConfig::new(n, Noise::Exponential { mean: 1.0 })
    };
    let mut best = f64::INFINITY;
    let mut deliveries = 0u64;
    let mut retries = 0u64;
    let mut sim_time = 0.0f64;
    for _ in 0..REPEATS {
        deliveries = 0;
        retries = 0;
        sim_time = 0.0;
        let start = Instant::now();
        for seed in 0..trials {
            let report = run_message_passing(&cfg, seed);
            assert_eq!(
                report.outcome,
                Outcome::Decided,
                "loss {loss} seed {seed} did not decide"
            );
            deliveries += report.deliveries;
            retries += report.retries;
            sim_time += report.sim_time;
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    Cell {
        loss,
        deliveries_per_sec: deliveries as f64 / best,
        mean_deliveries: deliveries as f64 / trials as f64,
        mean_retries: retries as f64 / trials as f64,
        mean_sim_time: sim_time / trials as f64,
    }
}

fn main() {
    let mut args = Args::from_env();
    let trials: u64 = args.value("trials", 200);
    let n: usize = args.value("n", 5);
    let out: String = args.value("out", "BENCH_msg.json".to_string());
    args.finish();

    let cells: Vec<Cell> = [0.0, 0.01, 0.05]
        .iter()
        .map(|&loss| bench_cell(n, trials, loss))
        .collect();
    let base_deliveries = cells[0].mean_deliveries;

    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        let overhead = c.mean_deliveries / base_deliveries;
        eprintln!(
            "loss {:.0}%: {:.3e} deliveries/s, {:.0} deliveries/run ({overhead:.2}x loss-free), {:.1} retries/run, sim time {:.1}",
            c.loss * 100.0,
            c.deliveries_per_sec,
            c.mean_deliveries,
            c.mean_retries,
            c.mean_sim_time,
        );
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{\"loss\": {:.2}, \"deliveries_per_sec\": {:.1}, \"mean_deliveries_per_run\": {:.1}, \"delivery_overhead_vs_lossfree\": {overhead:.3}, \"mean_retries_per_run\": {:.2}, \"mean_sim_time\": {:.2}}}",
            c.loss, c.deliveries_per_sec, c.mean_deliveries, c.mean_retries, c.mean_sim_time
        ));
    }

    let json = format!(
        "{{\n  \"workload\": \"lean-over-ABD full runs: n = {n}, exponential(1) delays, half-and-half inputs, run to all-decided\",\n  \"recovery\": \"retry timers + gossip armed whenever loss > 0 (RecoverySpec defaults)\",\n  \"trials\": {trials},\n  \"cells\": [{rows}\n  ],\n  \"notes\": \"Numbers from `cargo run --release -p nc-bench --bin bench_msg`; best-of-{REPEATS} wall time per cell. deliveries_per_sec is simulator event throughput (delivered messages / wall second); delivery_overhead_vs_lossfree is end-to-end delivered traffic relative to the loss-free cell (values < 1 mean the dropped messages outnumber the retry rebroadcasts that replace them); retries count phase rebroadcasts fired by the timeout chain.\"\n}}\n"
    );
    let mut file = std::fs::File::create(&out).expect("create output file");
    file.write_all(json.as_bytes()).expect("write json");
    println!("wrote {out}");
}
