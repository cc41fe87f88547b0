//! `figure_sweep`: one pass of `par_profile_many` over the P3 figure grid
//! (the grid of `perf_report.rs`) with a fresh `MeasurementCache`,
//! telemetry off. The seed shuffles cell order per pass.

use std::time::{Duration, Instant};

use stash::core::cache::{CacheStats, MeasurementCache};
use stash::core::profiler::{par_profile_many, ProfileJob};
use stash::core::report::StallReport;
use stash::ddl::engine::EngineArena;
use stash::ddl::perf_stats::{self, PerfSnapshot};
use stash::dnn::zoo;
use stash::hwtopo::cluster::ClusterSpec;
use stash::hwtopo::instance::{p3_16xlarge, p3_24xlarge, p3_2xlarge, p3_8xlarge};

use crate::ledger::{Ledger, TracedOps};
use crate::sim;
use crate::stats::median;
use crate::{closed_loop, Args, Outcome, Rng, SetupClock};

/// Sampled iterations per measurement step, as the figure benches use.
const ITERATIONS: u64 = 120;

/// FNV-128 of the grid's stall-report CSV at the seed commit.
const PINNED_CSV: u128 = 0xd9f9_68a7_ec5b_e469_cd0a_bf8d_51cc_8b64;

fn jobs() -> Vec<ProfileJob> {
    let clusters = [
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p3_24xlarge()),
    ];
    sim::grid(&clusters, &[zoo::alexnet(), zoo::resnet18()], |m| {
        sim::stash_for(m, ITERATIONS)
    })
}

/// One pass with the cells in `order`; the CSV is rebuilt in grid order
/// and checked against the pinned digest.
fn pass(jobs: &[ProfileJob], order: &[usize], ledger: &mut Ledger) -> Result<(), String> {
    let shuffled: Vec<ProfileJob> = order.iter().map(|&i| jobs[i].clone()).collect();
    let cache = ledger.time("core.cache_new", MeasurementCache::new);
    let results = ledger.time("core.par_profile_many", || {
        par_profile_many(&shuffled, Some(&cache))
    });
    let mut reports = vec![None; jobs.len()];
    for (&i, result) in order.iter().zip(results) {
        reports[i] = Some(result.map_err(|e| format!("cell {i}: {e}"))?);
    }
    let digest = sim::csv_digest(jobs, reports.into_iter().flatten().collect(), ledger);
    sim::check_digest("figure_sweep CSV", digest, PINNED_CSV)
}

/// The grid profiled cell by cell on one thread with a shared cache and
/// arena, as `run_sweep` does, timing each `profile_serial_in` call.
struct CellProbe {
    cell_ms: Vec<f64>,
    perf: PerfSnapshot,
    cache: CacheStats,
    reports: Vec<StallReport>,
}

fn cell_probe(jobs: &[ProfileJob]) -> Result<CellProbe, String> {
    let cache = MeasurementCache::new();
    let mut arena = EngineArena::new();
    let before = perf_stats::snapshot();
    let mut cell_ms = Vec::with_capacity(jobs.len());
    let mut reports = Vec::with_capacity(jobs.len());
    for job in jobs {
        let t = Instant::now();
        let report = job
            .stash
            .profile_serial_in(&job.cluster, Some(&cache), &mut arena)
            .map_err(|e| {
                format!(
                    "{} on {}: {e}",
                    job.stash.model().name,
                    job.cluster.display_name()
                )
            })?;
        cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        reports.push(report);
    }
    Ok(CellProbe {
        cell_ms,
        perf: perf_stats::snapshot().since(&before),
        cache: cache.stats(),
        reports,
    })
}

pub fn run(args: &Args, process_start: Instant, out: &mut Outcome) -> Result<(), String> {
    let (mut clock, jobs) = SetupClock::start(process_start, jobs);
    let mut rng = Rng::new(args.seed);
    let n = jobs.len();

    // Warm-up pass: checked, not timed.
    out.check(pass(&jobs, &rng.permutation(n), &mut Ledger::off()));

    let half = if args.trace { 2.0 } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds / half);
    let mut op_ms = Vec::new();
    closed_loop(budget, 3, || {
        let order = rng.permutation(n);
        let t = Instant::now();
        let result = pass(&jobs, &order, &mut Ledger::off());
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(result);
        clock.again(self::jobs);
    });
    out.set("setup_s", clock.median());
    let p50 = median(&op_ms);
    out.set("op_ms.p50", p50);
    out.set("sweep_cells_per_s", n as f64 / (p50 / 1e3));
    if !args.trace {
        return Ok(());
    }

    // Traced half: each traced pass is followed by a serial probe of the
    // same grid that times every `profile_serial_in` call and reads the
    // engine counters; the probe runs one thread, so its counts repeat
    // exactly.
    let mut traced = TracedOps::default();
    let mut cell_ms = Vec::new();
    let mut probe = None;
    closed_loop(budget, 2, || {
        let order = rng.permutation(n);
        let mut ledger = Ledger::on();
        let t = Instant::now();
        let result = pass(&jobs, &order, &mut ledger);
        traced.push(t.elapsed().as_secs_f64() * 1e3, ledger);
        out.check(result);
        let result = cell_probe(&jobs).and_then(|mut p| {
            let reports = std::mem::take(&mut p.reports);
            let digest = sim::csv_digest(&jobs, reports, &mut Ledger::off());
            cell_ms.extend_from_slice(&p.cell_ms);
            probe = Some(p);
            sim::check_digest("figure_sweep probe CSV", digest, PINNED_CSV)
        });
        out.check(result);
    });
    traced.report(&op_ms, out);
    out.set("core.cell_ms.p50", median(&cell_ms));
    out.set("core.cell_ms.p90", crate::stats::quantile(&cell_ms, 0.9));
    if let Some(p) = probe {
        sim::report_counters(
            &p.perf,
            sim::requested_iterations(&jobs),
            p.cell_ms.iter().sum(),
            out,
        );
        sim::report_cache(&p.cache, out);
    }
    Ok(())
}
