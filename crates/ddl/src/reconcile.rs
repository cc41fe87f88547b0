//! Exact reconciliation of an [`EpochReport`] against an independent
//! observer of the same epoch.
//!
//! The engine's five rank-0 stall accumulators tile the epoch's wall
//! clock. Two observers record the same time a second way: the critical
//! path of the rank-0 trace lane and the iteration series. Each observer's
//! raw (un-extrapolated) per-category total, scaled by the report's
//! extrapolation factor through the same `mul_f64` the engine used, must
//! land on the report's accumulator to the nanosecond.

use std::error::Error;
use std::fmt;

use stash_simkit::time::SimDuration;
use stash_telemetry::series::SeriesTotals;
use stash_trace::critical::{CriticalPath, PathCategory};

use crate::report::EpochReport;

/// One of the five rank-0 stall accumulators of an [`EpochReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// Forward, backward and optimizer kernels (`compute_time`).
    Compute,
    /// Input-batch stall (`data_wait`).
    DataWait,
    /// Exposed gradient-synchronisation stall (`comm_wait`).
    CommWait,
    /// Fault-recovery stall (`recovery_time`).
    Recovery,
    /// Straggler-window excess compute (`straggler_time`).
    Straggler,
}

impl Stall {
    /// Every category, in report order.
    pub const ALL: [Stall; 5] = [
        Stall::Compute,
        Stall::DataWait,
        Stall::CommWait,
        Stall::Recovery,
        Stall::Straggler,
    ];

    /// Stable display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stall::Compute => "compute",
            Stall::DataWait => "data-wait",
            Stall::CommWait => "comm-wait",
            Stall::Recovery => "recovery",
            Stall::Straggler => "straggler",
        }
    }

    /// The report's accumulator for this category.
    #[must_use]
    pub fn of(self, report: &EpochReport) -> SimDuration {
        match self {
            Stall::Compute => report.compute_time,
            Stall::DataWait => report.data_wait,
            Stall::CommWait => report.comm_wait,
            Stall::Recovery => report.recovery_time,
            Stall::Straggler => report.straggler_time,
        }
    }
}

/// An independent record of rank-0 stall time.
pub trait StallObserver {
    /// The raw, un-extrapolated total of `stall` in nanoseconds.
    fn raw_ns(&self, stall: Stall) -> i64;
}

impl StallObserver for CriticalPath {
    fn raw_ns(&self, stall: Stall) -> i64 {
        let cats: &[PathCategory] = match stall {
            Stall::Compute => &[PathCategory::Compute, PathCategory::Overlap],
            Stall::DataWait => &[PathCategory::Prep, PathCategory::Fetch],
            Stall::CommWait => &[PathCategory::Interconnect, PathCategory::Network],
            Stall::Recovery => &[PathCategory::Recovery],
            Stall::Straggler => &[PathCategory::Straggler],
        };
        cats.iter().map(|&c| self.total_ns(c) as i64).sum()
    }
}

impl StallObserver for SeriesTotals {
    fn raw_ns(&self, stall: Stall) -> i64 {
        match stall {
            Stall::Compute => self.compute_ns,
            Stall::DataWait => self.data_wait_ns,
            Stall::CommWait => self.comm_wait_ns,
            Stall::Recovery => self.recovery_ns,
            Stall::Straggler => self.straggler_ns,
        }
    }
}

/// The first stall category on which an observer and the engine disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconcileError {
    /// The disagreeing category.
    pub stall: Stall,
    /// The observer's raw total in ns (negative only for a corrupt series).
    pub raw_ns: i64,
    /// The report's extrapolation factor the raw total was scaled by.
    pub factor: f64,
    /// The report's accumulator.
    pub engine: SimDuration,
}

impl fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} does not reconcile: observed {} ns raw (x{}) vs engine {}",
            self.stall.label(),
            self.raw_ns,
            self.factor,
            self.engine
        )
    }
}

impl Error for ReconcileError {}

/// Checks every stall category `observer` recorded against `report`.
///
/// # Errors
///
/// Returns the first category, in [`Stall::ALL`] order, whose raw total
/// is negative or, extrapolated, differs from the report by any amount.
pub fn reconcile(
    report: &EpochReport,
    observer: &impl StallObserver,
) -> Result<(), ReconcileError> {
    let factor = report.iterations as f64 / report.simulated_iterations as f64;
    for stall in Stall::ALL {
        let raw_ns = observer.raw_ns(stall);
        let engine = stall.of(report);
        let observed = u64::try_from(raw_ns).map(|ns| SimDuration::from_nanos(ns).mul_f64(factor));
        if observed != Ok(engine) {
            return Err(ReconcileError {
                stall,
                raw_ns,
                factor,
                engine,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use stash_datapipe::cache::CacheState;
    use stash_dnn::dataset::DatasetSpec;
    use stash_dnn::zoo;
    use stash_faults::plan::FaultPlan;
    use stash_hwtopo::cluster::ClusterSpec;
    use stash_hwtopo::instance::{p3_16xlarge, p3_8xlarge};
    use stash_trace::{shared, JsonSink, Tracer, Track};

    use super::*;
    use crate::config::{DataMode, EpochMode, TrainConfig};
    use crate::engine::{run, run_epoch, RunSpec};

    /// Runs `cfg` traced (under `plan`) and returns the report plus the
    /// rank-0 critical path.
    fn traced(cfg: &TrainConfig, plan: Option<&FaultPlan>) -> (EpochReport, CriticalPath) {
        let sink = Rc::new(RefCell::new(JsonSink::new()));
        let tracer = shared(Tracer::new(sink.clone()));
        let spec = RunSpec {
            plan,
            tracer: Some(&tracer),
            ..RunSpec::default()
        };
        let report = run(cfg, spec).expect("traced epoch").report;
        let path = CriticalPath::from_events(sink.borrow().events(), 0, Track::gpu(0, 0));
        (report, path)
    }

    /// `Ok` on the untouched report; a 1 ns shift of any accumulator is an
    /// error naming exactly that category.
    fn assert_reconciles_and_catches_drift(report: &EpochReport, path: &CriticalPath) {
        reconcile(report, path).expect("untouched report reconciles");
        for stall in Stall::ALL {
            let mut doctored = report.clone();
            let acc = match stall {
                Stall::Compute => &mut doctored.compute_time,
                Stall::DataWait => &mut doctored.data_wait,
                Stall::CommWait => &mut doctored.comm_wait,
                Stall::Recovery => &mut doctored.recovery_time,
                Stall::Straggler => &mut doctored.straggler_time,
            };
            *acc += SimDuration::from_nanos(1);
            let err = reconcile(&doctored, path).expect_err("1 ns drift must not reconcile");
            assert_eq!(err.stall, stall, "{err}");
            assert!(err.to_string().starts_with(stall.label()), "{err}");
        }
    }

    #[test]
    fn sampled_window_reconciles_and_every_category_drift_is_named() {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_8xlarge()),
            zoo::resnet18(),
            32,
            32 * 64,
        );
        cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
        cfg.data = DataMode::Real {
            dataset: DatasetSpec::imagenet1k(),
            cache: CacheState::Warm,
        };
        let (report, path) = traced(&cfg, None);
        assert!(
            report.iterations > report.simulated_iterations,
            "factor > 1"
        );
        assert_reconciles_and_catches_drift(&report, &path);
    }

    #[test]
    fn faulted_full_window_reconciles_and_every_category_drift_is_named() {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_16xlarge()),
            zoo::resnet18(),
            32,
            32 * 12,
        );
        cfg.epoch_mode = EpochMode::Full;
        let base = run_epoch(&cfg).expect("baseline");
        let plan = FaultPlan::seeded(11, 8, 1, base.epoch_time);
        let (report, path) = traced(&cfg, Some(&plan));
        assert!(
            report.recovery_time > SimDuration::ZERO || report.straggler_time > SimDuration::ZERO
        );
        assert_reconciles_and_catches_drift(&report, &path);
    }

    #[test]
    fn negative_series_total_is_an_error() {
        let report = run_epoch(&TrainConfig::synthetic(
            ClusterSpec::single(p3_8xlarge()),
            zoo::resnet18(),
            32,
            32 * 4,
        ))
        .expect("epoch");
        let totals = SeriesTotals {
            compute_ns: -1,
            ..SeriesTotals::default()
        };
        let err = reconcile(&report, &totals).expect_err("negative total");
        assert_eq!(err.stall, Stall::Compute);
    }
}
