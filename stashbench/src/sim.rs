//! Helpers shared by the two sweep workloads: grid construction, the
//! stall-report CSV digest, and the simulator counters they report.

use stash::core::cache::CacheStats;
use stash::core::profiler::{ProfileJob, Stash};
use stash::core::report::StallReport;
use stash::core::sweep::{CellOutcome, CellStatus, SweepOutcome};
use stash::ddl::perf_stats::PerfSnapshot;
use stash::dnn::dataset::DatasetSpec;
use stash::dnn::model::Model;
use stash::hwtopo::cluster::ClusterSpec;
use stash::store::fnv128;

use crate::ledger::Ledger;
use crate::stats::ratio;
use crate::Outcome;

/// A profiler as `stash sweep` and the figure benches configure it:
/// ImageNet-1k, per-GPU batch 32.
pub fn stash_for(model: Model, sampled_iterations: u64) -> Stash {
    Stash::new(model)
        .with_batch(32)
        .with_dataset(DatasetSpec::imagenet1k())
        .with_sampled_iterations(sampled_iterations)
}

/// Every (cluster, model) pair, clusters outermost.
pub fn grid(
    clusters: &[ClusterSpec],
    models: &[Model],
    stash: impl Fn(Model) -> Stash,
) -> Vec<ProfileJob> {
    clusters
        .iter()
        .flat_map(|c| {
            models.iter().map(|m| ProfileJob {
                stash: stash(m.clone()),
                cluster: c.clone(),
            })
        })
        .collect()
}

/// Iterations the grid asks the engine for: four measurement steps per
/// single-instance cell, five per multi-node cell.
pub fn requested_iterations(jobs: &[ProfileJob]) -> u64 {
    jobs.iter()
        .map(|j| {
            let steps = if j.cluster.node_count() > 1 { 5 } else { 4 };
            steps * j.stash.sampled_iterations()
        })
        .sum()
}

/// The FNV-128 digest of the sweep's stall-report CSV for `reports` in
/// grid order.
pub fn csv_digest(jobs: &[ProfileJob], reports: Vec<StallReport>, ledger: &mut Ledger) -> u128 {
    let outcome = SweepOutcome {
        cells: jobs
            .iter()
            .zip(reports)
            .map(|(job, report)| CellOutcome {
                key: String::new(),
                cluster: job.cluster.display_name(),
                model: job.stash.model().name.clone(),
                per_gpu_batch: job.stash.per_gpu_batch(),
                report: Some(report),
                status: CellStatus::Computed,
            })
            .collect(),
    };
    let csv = ledger.time("core.results_csv", || outcome.results_csv());
    ledger.time("store.fnv128", || fnv128(csv.as_bytes()))
}

/// Checks a digest against the value pinned from the seed commit.
pub fn check_digest(what: &str, digest: u128, pinned: u128) -> Result<(), String> {
    if digest == pinned {
        Ok(())
    } else {
        Err(format!(
            "{what} digest {digest:032x} != pinned {pinned:032x}"
        ))
    }
}

/// Reports the engine and solver counters of one pass over `jobs`, which
/// spent `sim_ms` of host time in simulation calls.
pub fn report_counters(perf: &PerfSnapshot, requested: u64, sim_ms: f64, out: &mut Outcome) {
    out.set("ddl.sim_events", perf.sim_events as f64);
    out.set("ddl.requested_iterations", requested as f64);
    out.set(
        "ddl.ff_ratio",
        ratio(perf.fast_forwarded_iterations as f64, requested as f64),
    );
    out.set(
        "ddl.host_ns_per_event",
        ratio(sim_ms * 1e6, perf.sim_events as f64),
    );
    out.set("flowsim.full_recomputes", perf.full_recomputes as f64);
    out.set("flowsim.shortcut_events", perf.shortcut_events as f64);
    out.set(
        "flowsim.shortcut_ratio",
        ratio(
            perf.shortcut_events as f64,
            (perf.full_recomputes + perf.shortcut_events) as f64,
        ),
    );
}

pub fn report_cache(stats: &CacheStats, out: &mut Outcome) {
    out.set("core.cache.hit_ratio", stats.hit_rate());
    out.set("core.cache.lookups", (stats.hits + stats.misses) as f64);
}
