//! Simulator self-telemetry.
//!
//! The trace crate observes the *workload* (GPU spans, stall categories);
//! this crate observes the *simulator itself*: how often the max-min
//! solver runs and how long it takes, how deep the event queue gets, how
//! often fast-forward confirms, how the measurement cache behaves. The
//! design constraints come straight from the hot paths being measured:
//!
//! * **Lock-free recording.** Every metric is a process-wide static built
//!   from [`std::sync::atomic::AtomicU64`]s; recording is a relaxed
//!   fetch-add (or fetch-max for high-water gauges). No mutex, no map
//!   lookup, no registration.
//! * **One counter mechanism.** Simulation components (event queue, flow
//!   network, engine) count in plain `u64` locals; the engine flushes
//!   them into the registry once per epoch. Counters and gauges are
//!   therefore always recorded, at a dozen relaxed adds per epoch.
//! * **Zero steady-state allocation.** The registry is a fixed schema of
//!   statics ([`metrics`]); nothing allocates until a snapshot is taken.
//!   `tests/telemetry_alloc.rs` proves this with a counting allocator.
//! * **Per-sample costs are switched.** A single process-wide
//!   [`AtomicBool`] gates what costs per sample: histogram records (and
//!   the solver-latency clock reads feeding them) and the iteration
//!   series. The flight recorder has its own arm flag. The zoo-wide
//!   differential test proves `EpochReport`s are bit-identical either
//!   way.
//! * **Deterministic snapshots.** [`snapshot::Snapshot::take`] walks the
//!   schema arrays in declaration order, so JSON and Prometheus dumps
//!   are byte-stable for a given set of recorded values.
//!
//! On top of the registry sit the [`flight`] recorder (a ring buffer of
//! the last N engine events, dumped as JSON on panic or typed error),
//! the [`prom`] exposition writer + strict validator shared by every
//! `.prom` artifact the workspace emits, [`diff`], which gates
//! simulator-health metrics (solver p99, events/epoch) in `stash diff`,
//! and [`series`], the iteration-resolved time-series layer: bounded
//! exact-sum downsampling of per-iteration stall samples, fault-window
//! annotations, and `stash diff` gates on iteration-time *dynamics*
//! (CoV, transient spikes) rather than totals.

use std::sync::atomic::{AtomicBool, Ordering};

pub mod diff;
pub mod flight;
pub mod metrics;
pub mod prom;
pub mod registry;
pub mod series;
pub mod snapshot;

/// Process-wide switch for per-sample recording (histograms, series).
/// Off by default: a disabled histogram record is one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns per-sample recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns per-sample recording off (the default).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether per-sample recording is currently on.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Everything an instrumentation site or a consumer typically needs.
pub mod prelude {
    pub use crate::flight::{flight_dump, flight_enable, flight_enabled, flight_record};
    pub use crate::metrics;
    pub use crate::prom::MetricsBuilder;
    pub use crate::registry::{Counter, Gauge, Histogram};
    pub use crate::series::{IterSeries, SeriesMeta, SeriesRecorder, SeriesSample};
    pub use crate::snapshot::Snapshot;
    pub use crate::{disable, enable, enabled};
}

#[cfg(test)]
mod tests {
    #[test]
    fn enable_toggles_the_global_switch() {
        // Single test body: the switch is process-wide state, so the
        // transitions are exercised in one place to avoid ordering races
        // with the parallel test harness.
        assert!(!crate::enabled());
        crate::enable();
        assert!(crate::enabled());
        crate::disable();
        assert!(!crate::enabled());
    }
}
