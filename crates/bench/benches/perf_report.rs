//! Sweep performance record for the benchmark trajectory
//! (`scripts/bench.sh`).
//!
//! Runs the standard P3 figure sweep (the same cluster grid Figs. 8-12
//! profile) and writes one JSON object describing how fast the simulator
//! core ground through it: wall-clock, delivered events per second,
//! measurement-cache hit rate, and the fraction of requested iterations
//! the steady-state detector fast-forwarded instead of simulating.
//!
//! `scripts/bench.sh` invokes this twice — once with
//! `STASH_FAST_FORWARD=0` (the event-by-event baseline) and once with the
//! optimizations on — and folds both records plus the
//! `flownet_recompute` microbenchmark into `results/BENCH_<n>.json`.
//! Knobs: `STASH_BENCH_ITERS` (iterations per measurement step),
//! `STASH_PERF_OUT` (output path, default `results/perf_report.json`).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;

use stash_bench::{bench_iters, results_dir, run_sweep, SweepJob};
use stash_ddl::config::{EpochMode, TrainConfig};
use stash_ddl::engine::{run, RunSpec};
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{p3_16xlarge, p3_24xlarge, p3_2xlarge, p3_8xlarge};

/// The figure-sweep grid: every P3 shape of Figs. 8-12 times two small
/// models at batch 32.
fn jobs() -> Vec<SweepJob> {
    let clusters = [
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p3_24xlarge()),
    ];
    let models = [zoo::alexnet(), zoo::resnet18()];
    clusters
        .iter()
        .flat_map(|c| {
            models
                .iter()
                .map(|m| SweepJob::new(m.clone(), 32, c.clone()))
        })
        .collect()
}

fn main() {
    let jobs = jobs();
    // Steps per job: 4 for single-instance clusters, 5 for multi-node.
    let requested_iterations: u64 = jobs
        .iter()
        .map(|j| {
            let steps = if j.cluster.node_count() > 1 { 5 } else { 4 };
            steps * bench_iters()
        })
        .sum();

    // Self-telemetry rides along: the registry view of the same sweep
    // (solver latency percentiles, queue traffic) lands in the record so
    // the benchmark trajectory can track simulator health over revisions.
    stash_telemetry::enable();
    stash_telemetry::metrics::reset_all();
    let (results, perf) = run_sweep(jobs);
    let snap = stash_telemetry::snapshot::Snapshot::take();
    stash_telemetry::disable();
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "sweep job {i} failed: {:?}", r.as_ref().err());
    }

    // Iteration-dynamics leg: one representative job re-run under the
    // series recorder so the trajectory also tracks iteration-time CoV
    // and transient-spike counts over revisions. The series is a pure
    // observer (tier-1 differentials prove bit-transparency), so this
    // run's report matches what the sweep measured for the same shape.
    stash_telemetry::enable();
    let mut series_cfg = TrainConfig::synthetic(
        stash_hwtopo::cluster::ClusterSpec::homogeneous(p3_8xlarge(), 2),
        zoo::resnet18(),
        32,
        32 * bench_iters(),
    );
    series_cfg.epoch_mode = EpochMode::Full;
    let spec = RunSpec {
        series: true,
        fast_forward: true,
        ..RunSpec::default()
    };
    let sr = run(&series_cfg, spec).expect("series leg failed");
    stash_telemetry::disable();
    let series_stats = serde_json::json!({
        "cluster": sr.report.cluster,
        "model": sr.report.model,
        "iteration_cov": sr.series.iteration_cov(),
        "spike_count": sr.series.spike_count(),
        "samples": sr.series.samples.len() as u64,
        "compressed_ff_iterations": sr.series.samples.iter().map(|s| s.ff_iterations).sum::<u64>(),
        "end_ns": sr.series.end_ns,
    });

    let solver = snap
        .histogram("stash_sim_solver_recompute_latency_ns")
        .expect("solver histogram in schema");
    let events_per_sec = perf.sim_events as f64 / perf.wall_secs.max(1e-9);
    let fast_forward_ratio = perf.fast_forwarded_iterations as f64 / requested_iterations as f64;
    let record = serde_json::json!({
        "iters_per_step": bench_iters(),
        "jobs": perf.jobs as u64,
        "threads": perf.threads as u64,
        "wall_secs": perf.wall_secs,
        "sim_events": perf.sim_events,
        "events_per_sec": events_per_sec,
        "cache_hits": perf.cache_hits,
        "cache_misses": perf.cache_misses,
        "cache_hit_rate": perf.hit_rate(),
        "full_recomputes": perf.full_recomputes,
        "shortcut_events": perf.shortcut_events,
        "requested_iterations": requested_iterations,
        "fast_forwarded_iterations": perf.fast_forwarded_iterations,
        "fast_forward_ratio": fast_forward_ratio,
        "series": series_stats,
        "telemetry": serde_json::json!({
            "solver_recompute_p50_ns": solver.quantile(0.50),
            "solver_recompute_p99_ns": solver.quantile(0.99),
            "solver_recompute_count": solver.count,
            "queue_pushed": snap.counter("stash_sim_queue_events_pushed_total"),
            "queue_popped": snap.counter("stash_sim_queue_events_popped_total"),
            "queue_cancelled": snap.counter("stash_sim_queue_events_cancelled_total"),
            "queue_depth_high_water": snap.gauge("stash_sim_queue_depth_high_water"),
        }),
    });

    let out = std::env::var("STASH_PERF_OUT")
        .map_or_else(|_| results_dir().join("perf_report.json"), Into::into);
    fs::write(
        &out,
        serde_json::to_string_pretty(&record).expect("serialize perf record"),
    )
    .expect("write perf record");
    println!(
        "[perf_report: {:.3}s wall, {:.0} events/s, {:.0}% cache hits, {:.0}% fast-forwarded -> {}]",
        perf.wall_secs,
        events_per_sec,
        perf.hit_rate() * 100.0,
        fast_forward_ratio * 100.0,
        out.display()
    );
}
