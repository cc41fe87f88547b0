//! The simulator counters sweeps and benchmarks read, as a view of the
//! telemetry registry.
//!
//! The engine flushes its per-epoch diagnostics into the registry
//! ([`stash_telemetry::metrics`]) instead of into
//! [`crate::report::EpochReport`], so the report stays bit-identical
//! across pure performance features (fast-forward on/off, arena reuse,
//! parallel execution). This module keeps no state of its own: a
//! [`snapshot`] reads four registry counters, and callers take deltas
//! around the work they want to attribute.

use stash_telemetry::metrics;

/// Point-in-time reading of the process-wide simulator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfSnapshot {
    /// Full water-filling solves across all epochs.
    pub full_recomputes: u64,
    /// Network state changes settled by incremental shortcuts instead.
    pub shortcut_events: u64,
    /// Iterations extended analytically by steady-state fast-forward
    /// rather than simulated event-by-event.
    pub fast_forwarded_iterations: u64,
    /// Discrete events delivered by engine event queues.
    pub sim_events: u64,
}

impl PerfSnapshot {
    /// Counter increments between `earlier` and `self`, saturating at
    /// zero (a registry reset in between reads as no activity).
    #[must_use]
    pub fn since(&self, earlier: &PerfSnapshot) -> PerfSnapshot {
        PerfSnapshot {
            full_recomputes: self.full_recomputes.saturating_sub(earlier.full_recomputes),
            shortcut_events: self.shortcut_events.saturating_sub(earlier.shortcut_events),
            fast_forwarded_iterations: self
                .fast_forwarded_iterations
                .saturating_sub(earlier.fast_forwarded_iterations),
            sim_events: self.sim_events.saturating_sub(earlier.sim_events),
        }
    }
}

/// Reads the current registry values.
#[must_use]
pub fn snapshot() -> PerfSnapshot {
    PerfSnapshot {
        full_recomputes: metrics::SOLVER_FULL_RECOMPUTES.get(),
        shortcut_events: metrics::SOLVER_SHORTCUT_EVENTS.get(),
        fast_forwarded_iterations: metrics::FF_ITERATIONS.get(),
        sim_events: metrics::QUEUE_POPPED.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_the_registry_and_deltas_saturate() {
        let before = snapshot();
        metrics::SOLVER_FULL_RECOMPUTES.add(2);
        metrics::SOLVER_SHORTCUT_EVENTS.add(3);
        metrics::FF_ITERATIONS.add(5);
        metrics::QUEUE_POPPED.add(7);
        let delta = snapshot().since(&before);
        assert!(delta.full_recomputes >= 2);
        assert!(delta.shortcut_events >= 3);
        assert!(delta.fast_forwarded_iterations >= 5);
        assert!(delta.sim_events >= 7);
        assert_eq!(before.since(&snapshot()), PerfSnapshot::default());
    }
}
