//! Results of a simulated training epoch.

use serde::Serialize;
use stash_simkit::time::SimDuration;
use stash_telemetry::series::{IterSeries, SeriesMeta};

use crate::recovery::FaultOutcome;

/// Rank-0 timing of one simulated iteration (recorded when
/// [`crate::config::TrainConfig::record_trace`] is set).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IterationSample {
    /// Iteration index.
    pub iteration: u64,
    /// Wall-clock duration of the iteration.
    pub total: SimDuration,
    /// Time blocked waiting for the input batch.
    pub data_wait: SimDuration,
    /// Time blocked on gradient synchronisation after backward.
    pub comm_wait: SimDuration,
}

/// Timing breakdown of one epoch, already extrapolated to full-epoch scale
/// when the run was sampled.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochReport {
    /// Cluster display name (e.g. `"p3.8xlarge*2"`).
    pub cluster: String,
    /// Model name.
    pub model: String,
    /// Per-GPU batch size.
    pub per_gpu_batch: u64,
    /// Number of participating GPUs.
    pub world: usize,
    /// Iterations in the full epoch.
    pub iterations: u64,
    /// Iterations actually simulated (before extrapolation).
    pub simulated_iterations: u64,
    /// Wall-clock time of the epoch.
    pub epoch_time: SimDuration,
    /// Rank-0 time spent in pure compute (forward + backward + optimizer,
    /// including gradient-hook overhead).
    pub compute_time: SimDuration,
    /// Rank-0 time spent waiting for input batches.
    pub data_wait: SimDuration,
    /// Rank-0 time spent waiting for gradient synchronisation after its
    /// own backward pass finished (exposed communication).
    pub comm_wait: SimDuration,
    /// Rank-0 time lost to fault recovery: preemption barrier waits,
    /// restart delays and iterations replayed from the last checkpoint.
    /// Always zero on fault-free runs.
    pub recovery_time: SimDuration,
    /// Rank-0 *excess* compute inflicted by transient straggler windows
    /// (the nominal kernel time stays in `compute_time`). Always zero on
    /// fault-free runs.
    pub straggler_time: SimDuration,
    /// Samples processed across all GPUs in the full epoch.
    pub samples: u64,
    /// Aggregate throughput, samples/second.
    pub throughput: f64,
    /// Mean utilisation of node 0's PCIe host fabric over the simulated
    /// window (0-1) — the contention signal behind the paper's Fig. 7.
    pub host_bus_utilization: f64,
    /// Per-iteration rank-0 trace (empty unless tracing was requested;
    /// *not* extrapolated — one entry per simulated iteration).
    pub trace: Vec<IterationSample>,
}

impl EpochReport {
    /// Epoch time in seconds (convenience for cost math).
    #[must_use]
    pub fn epoch_seconds(&self) -> f64 {
        self.epoch_time.as_secs_f64()
    }

    /// Fraction of the epoch rank 0 spent blocked on communication.
    #[must_use]
    pub fn comm_wait_fraction(&self) -> f64 {
        self.comm_wait.ratio(self.epoch_time)
    }

    /// Fraction of the epoch rank 0 spent blocked on input data.
    #[must_use]
    pub fn data_wait_fraction(&self) -> f64 {
        self.data_wait.ratio(self.epoch_time)
    }

    /// The subject block of this epoch's `stash-series-v1` document.
    #[must_use]
    pub fn series_meta(&self) -> SeriesMeta {
        SeriesMeta {
            cluster: self.cluster.clone(),
            model: self.model.clone(),
            world: self.world as u64,
            per_gpu_batch: self.per_gpu_batch,
            iterations: self.iterations,
            simulated_iterations: self.simulated_iterations,
        }
    }
}

/// Everything one [`run`](crate::engine::run) produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The epoch's timing breakdown (recovery and straggler stall
    /// included as first-class accumulators).
    pub report: EpochReport,
    /// Fault-specific observations; empty without a fault plan.
    pub faults: FaultOutcome,
    /// The iteration series; empty unless [`RunSpec::series`] was set and
    /// the telemetry switch was on.
    ///
    /// [`RunSpec::series`]: crate::engine::RunSpec::series
    pub series: IterSeries,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_divide_by_epoch() {
        let r = EpochReport {
            cluster: "x".into(),
            model: "m".into(),
            per_gpu_batch: 32,
            world: 4,
            iterations: 100,
            simulated_iterations: 10,
            epoch_time: SimDuration::from_secs(10),
            compute_time: SimDuration::from_secs(6),
            data_wait: SimDuration::from_secs(1),
            comm_wait: SimDuration::from_secs(3),
            recovery_time: SimDuration::ZERO,
            straggler_time: SimDuration::ZERO,
            samples: 12800,
            throughput: 1280.0,
            host_bus_utilization: 0.0,
            trace: Vec::new(),
        };
        assert!((r.comm_wait_fraction() - 0.3).abs() < 1e-12);
        assert!((r.data_wait_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(r.epoch_seconds(), 10.0);
    }
}
