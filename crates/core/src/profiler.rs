//! The Stash profiler (paper §IV-B).
//!
//! [`Stash`] orchestrates the five measurement steps against the training
//! engine:
//!
//! 1. synthetic data on **one** GPU of the reference instance (`n/k`
//!    samples) → `T1`;
//! 2. synthetic data on **all** `k` GPUs of the reference instance → `T2`;
//! 3. real data with caches cleared → `T3`;
//! 4. real data fully cached → `T4`;
//! 5. synthetic data across the multi-instance cluster (same `k` total
//!    GPUs) → `T5`.
//!
//! Steps 2-4 are the prior-work DS-Analyzer subset ([`DsAnalyzer`]); steps
//! 1 and 5 are Stash's contribution — the communication stalls.

use serde::Serialize;
use stash_collectives::bucket::Bucketing;
use stash_collectives::schedule::Algorithm;
use stash_datapipe::cache::CacheState;
use stash_ddl::config::{ActiveGpus, DataMode, EpochMode, TrainConfig};
use stash_ddl::engine::{run, run_epoch_traced, EngineArena, RunSpec};
use stash_dnn::dataset::DatasetSpec;
use stash_dnn::model::Model;
use stash_gpucompute::precision::Precision;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{catalog, InstanceType};
use stash_simkit::time::{SimDuration, SimTime};
use stash_trace::{Category, SharedTracer, Track};

use crate::cache::MeasurementCache;
use crate::error::ProfileError;
use crate::report::{StallReport, StepTimes};

/// Default number of iterations simulated per step (the paper exploits
/// DL's repetitiveness the same way: one epoch characterizes training).
pub const DEFAULT_SAMPLED_ITERATIONS: u64 = 25;

/// Number of worker threads every profiling fan-out uses (the steps of
/// one profile, [`par_profile_many`] and the durable sweep): the
/// `STASH_BENCH_THREADS` environment variable when set (minimum 1),
/// otherwise the machine's available parallelism.
#[must_use]
pub fn profile_threads() -> usize {
    match std::env::var("STASH_BENCH_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// The Stash profiler: configured once per (model, dataset, batch), then
/// pointed at cluster configurations.
///
/// # Examples
///
/// ```
/// use stash_core::profiler::Stash;
/// use stash_dnn::zoo;
/// use stash_hwtopo::prelude::*;
///
/// let stash = Stash::new(zoo::resnet18()).with_batch(32);
/// let report = stash.profile(&ClusterSpec::single(p3_16xlarge()))?;
/// assert!(report.interconnect_stall_pct().is_some());
/// # Ok::<(), stash_core::error::ProfileError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Stash {
    pub(crate) model: Model,
    dataset: DatasetSpec,
    per_gpu_batch: u64,
    epoch_samples: Option<u64>,
    sampled_iterations: u64,
    bucketing: Bucketing,
    algorithm: Algorithm,
    precision: Precision,
}

impl Stash {
    /// Creates a profiler for `model` with paper defaults: ImageNet-1k,
    /// batch 32, ring all-reduce, per-layer buckets.
    #[must_use]
    pub fn new(model: Model) -> Stash {
        Stash {
            model,
            dataset: DatasetSpec::imagenet1k(),
            per_gpu_batch: 32,
            epoch_samples: None,
            sampled_iterations: DEFAULT_SAMPLED_ITERATIONS,
            bucketing: Bucketing::PerLayer,
            algorithm: Algorithm::Ring,
            precision: Precision::Fp32,
        }
    }

    /// Sets the per-GPU batch size.
    #[must_use]
    pub fn with_batch(mut self, per_gpu_batch: u64) -> Stash {
        self.per_gpu_batch = per_gpu_batch;
        self
    }

    /// Sets the dataset streamed in steps 3/4.
    #[must_use]
    pub fn with_dataset(mut self, dataset: DatasetSpec) -> Stash {
        self.dataset = dataset;
        self
    }

    /// Overrides the number of samples in the profiled epoch (defaults to
    /// the dataset size).
    #[must_use]
    pub fn with_epoch_samples(mut self, samples: u64) -> Stash {
        self.epoch_samples = Some(samples);
        self
    }

    /// Overrides how many iterations each step simulates before
    /// extrapolating.
    #[must_use]
    pub fn with_sampled_iterations(mut self, iterations: u64) -> Stash {
        self.sampled_iterations = iterations.max(1);
        self
    }

    /// Sets the gradient bucketing policy.
    #[must_use]
    pub fn with_bucketing(mut self, bucketing: Bucketing) -> Stash {
        self.bucketing = bucketing;
        self
    }

    /// Sets the collective algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Stash {
        self.algorithm = algorithm;
        self
    }

    /// Sets the numeric precision (fp32 default; AMP halves gradient
    /// traffic and engages tensor cores).
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Stash {
        self.precision = precision;
        self
    }

    /// The model being profiled.
    #[must_use]
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The configured per-GPU batch size.
    #[must_use]
    pub fn per_gpu_batch(&self) -> u64 {
        self.per_gpu_batch
    }

    /// The dataset streamed in steps 3/4.
    #[must_use]
    pub fn dataset(&self) -> &DatasetSpec {
        &self.dataset
    }

    /// Iterations simulated per step before extrapolating.
    #[must_use]
    pub fn sampled_iterations(&self) -> u64 {
        self.sampled_iterations
    }

    /// The configured epoch-size override, if any.
    #[must_use]
    pub fn epoch_samples_override(&self) -> Option<u64> {
        self.epoch_samples
    }

    fn epoch_samples(&self) -> u64 {
        self.epoch_samples.unwrap_or(self.dataset.num_samples)
    }

    fn base_config(&self, cluster: ClusterSpec, samples_per_gpu: u64) -> TrainConfig {
        TrainConfig {
            cluster,
            model: self.model.clone(),
            per_gpu_batch: self.per_gpu_batch,
            data: DataMode::Synthetic,
            bucketing: self.bucketing,
            algorithm: self.algorithm,
            overlap: true,
            active: ActiveGpus::All,
            samples_per_gpu,
            epoch_mode: EpochMode::Sampled {
                iterations: self.sampled_iterations,
            },
            record_trace: false,
            precision: self.precision,
            grad_accumulation: 1,
            straggler: None,
        }
    }

    /// Finds the single-instance baseline for a multi-node cluster: the
    /// same-family catalog instance whose GPU count equals the cluster's
    /// total.
    ///
    /// # Errors
    ///
    /// [`ProfileError::NoReference`] when no such instance exists.
    pub fn reference_for(cluster: &ClusterSpec) -> Result<InstanceType, ProfileError> {
        if cluster.node_count() == 1 {
            return Ok(cluster.instances[0].clone());
        }
        let world = cluster.world_size();
        let family = cluster.instances[0].family;
        catalog()
            .into_iter()
            .find(|i| i.family == family && i.gpu_count == world)
            .ok_or(ProfileError::NoReference {
                world,
                family: family.to_string(),
            })
    }

    /// Measurement steps 1-4, plus step 5 for multi-node clusters.
    fn step_count(cluster: &ClusterSpec) -> usize {
        if cluster.node_count() > 1 {
            5
        } else {
            4
        }
    }

    /// Builds the config of measurement step `step + 1`. Every path
    /// builds one step at a time, in the worker that measures it, so a
    /// profile holds one copy of the model per worker rather than five.
    fn step_config(
        &self,
        cluster: &ClusterSpec,
        reference: &InstanceType,
        step: usize,
    ) -> TrainConfig {
        let world = cluster.world_size();
        let samples_per_gpu = (self.epoch_samples() / world as u64).max(self.per_gpu_batch);
        // Steps 1 and 2 run on the reference instance, steps 3-5 on the
        // cluster under test.
        let target = if step < 2 {
            ClusterSpec::single(reference.clone())
        } else {
            cluster.clone()
        };
        let mut cfg = self.base_config(target, samples_per_gpu);
        match step {
            // Step 1: one GPU, synthetic, n/k samples.
            0 => cfg.active = ActiveGpus::Single,
            // Step 3: real data, cold caches.
            2 => {
                cfg.data = DataMode::Real {
                    dataset: self.dataset.clone(),
                    cache: CacheState::Cold,
                }
            }
            // Step 4: real data, warm caches.
            3 => {
                cfg.data = DataMode::Real {
                    dataset: self.dataset.clone(),
                    cache: CacheState::Warm,
                }
            }
            // Step 2: all k reference GPUs, synthetic. Step 5 (multi-node
            // only): synthetic across the network.
            _ => {}
        }
        cfg
    }

    /// Runs the full Stash methodology against `cluster`, with the
    /// independent steps spread over [`profile_threads`] workers.
    ///
    /// Single-instance clusters get steps 1-4 (`t5 = None`); multi-node
    /// clusters additionally get step 5, with steps 1/2 measured on the
    /// same-family reference instance.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. out-of-memory) and
    /// [`ProfileError::NoReference`] for unreferenced multi-node shapes.
    pub fn profile(&self, cluster: &ClusterSpec) -> Result<StallReport, ProfileError> {
        self.profile_on(cluster, None, profile_threads())
    }

    /// [`Stash::profile`] on the calling thread only — the original
    /// one-step-after-another execution, kept as the determinism baseline.
    ///
    /// # Errors
    ///
    /// As for [`Stash::profile`].
    pub fn profile_serial(&self, cluster: &ClusterSpec) -> Result<StallReport, ProfileError> {
        self.profile_serial_in(cluster, None, &mut EngineArena::new())
    }

    /// [`Stash::profile`] backed by a measurement cache: steps whose
    /// config was measured before (by any profile sharing `cache`) are
    /// answered without re-simulating.
    ///
    /// # Errors
    ///
    /// As for [`Stash::profile`].
    pub fn profile_cached(
        &self,
        cluster: &ClusterSpec,
        cache: &MeasurementCache,
    ) -> Result<StallReport, ProfileError> {
        self.profile_on(cluster, Some(cache), profile_threads())
    }

    /// The steps on `workers` threads of the in-order executor, each step
    /// config built inside its worker. Reports are bit-identical to
    /// [`Stash::profile_serial`] for any worker count: the engine is
    /// deterministic, steps are independent, results come back in step
    /// order, and on error the lowest-numbered failing step wins (exactly
    /// the error the serial loop stops at).
    pub(crate) fn profile_on(
        &self,
        cluster: &ClusterSpec,
        cache: Option<&MeasurementCache>,
        workers: usize,
    ) -> Result<StallReport, ProfileError> {
        let reference = Self::reference_for(cluster)?;
        let mut results = Vec::with_capacity(Self::step_count(cluster));
        in_order(
            Self::step_count(cluster),
            workers,
            // A fresh arena per step keeps the arena-reuse counter that
            // `stash perf` reports independent of the worker count.
            |step, _| {
                let cfg = self.step_config(cluster, &reference, step);
                measure_in(cache, &cfg, &mut EngineArena::new())
            },
            |_, result| results.push(result),
        );
        let times = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(self.assemble_report(cluster, reference, &times))
    }

    /// Serial profile that measures every step inside a caller-owned
    /// [`EngineArena`]: the five-step measurement ladder reuses one flow
    /// network and event queue, and a sweep looping over many points can
    /// pass the same arena to every profile. Reports are bit-identical to
    /// [`Stash::profile`].
    ///
    /// # Errors
    ///
    /// As for [`Stash::profile`].
    pub fn profile_serial_in(
        &self,
        cluster: &ClusterSpec,
        cache: Option<&MeasurementCache>,
        arena: &mut EngineArena,
    ) -> Result<StallReport, ProfileError> {
        self.serial_steps(cluster, |_, cfg| measure_in(cache, cfg, arena))
    }

    /// The serial step loop: measures each step with `measure(step, cfg)`
    /// and stops at the first error.
    fn serial_steps(
        &self,
        cluster: &ClusterSpec,
        mut measure: impl FnMut(usize, &TrainConfig) -> Result<SimDuration, ProfileError>,
    ) -> Result<StallReport, ProfileError> {
        let reference = Self::reference_for(cluster)?;
        let times = (0..Self::step_count(cluster))
            .map(|step| measure(step, &self.step_config(cluster, &reference, step)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.assemble_report(cluster, reference, &times))
    }

    fn assemble_report(
        &self,
        cluster: &ClusterSpec,
        reference: InstanceType,
        times: &[SimDuration],
    ) -> StallReport {
        StallReport {
            cluster: cluster.display_name(),
            reference: reference.name,
            model: self.model.name.clone(),
            per_gpu_batch: self.per_gpu_batch,
            world: cluster.world_size(),
            times: StepTimes {
                t1: Some(times[0]),
                t2: Some(times[1]),
                t3: Some(times[2]),
                t4: Some(times[3]),
                t5: times.get(4).copied(),
            },
        }
    }

    /// [`Stash::profile_serial`] with a trace recorder attached: every
    /// measurement step runs through the traced engine, scoped to its own
    /// process namespace (`t1` → process 1, ... `t5` → process 5) so the
    /// five independent simulations — each with its own clock starting at
    /// zero — stay distinguishable in one sink. Each step is additionally
    /// stamped as a span on its [`stash_trace::TrackKind::Profiler`] lane
    /// covering the step's (extrapolated) epoch time. It stays serial:
    /// the tracer is shared through an `Rc`, so it cannot cross threads.
    ///
    /// The report is bit-identical to [`Stash::profile_serial`]; the
    /// tracer's process is restored to its previous value afterwards.
    ///
    /// # Errors
    ///
    /// As for [`Stash::profile`].
    pub fn profile_traced(
        &self,
        cluster: &ClusterSpec,
        tracer: &SharedTracer,
    ) -> Result<StallReport, ProfileError> {
        const STEP_NAMES: [&str; 5] = ["t1", "t2", "t3", "t4", "t5"];
        let prior_process = tracer.borrow().process();
        let out = self.serial_steps(cluster, |step, cfg| {
            tracer.borrow_mut().set_process(step as u32 + 1);
            let report = run_epoch_traced(cfg, tracer)?;
            tracer.borrow_mut().span(
                Track::profiler(step),
                Category::Solver,
                STEP_NAMES[step],
                SimTime::ZERO,
                SimTime::ZERO + report.epoch_time,
            );
            Ok(report.epoch_time)
        });
        tracer.borrow_mut().set_process(prior_process);
        out
    }
}

/// Measures one step config inside `arena`, answering from `cache` when
/// possible. Host wall-clock per measurement feeds the step-wall
/// histogram (cache hits included — the point is what a step *costs*).
fn measure_in(
    cache: Option<&MeasurementCache>,
    cfg: &TrainConfig,
    arena: &mut EngineArena,
) -> Result<SimDuration, ProfileError> {
    let t0 = stash_telemetry::enabled().then(std::time::Instant::now);
    let out = match cache {
        Some(c) => c.epoch_time_in(cfg, arena),
        None => Ok(run(
            cfg,
            RunSpec {
                arena: Some(arena),
                ..RunSpec::default()
            },
        )?
        .report
        .epoch_time),
    };
    if let Some(t0) = t0 {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stash_telemetry::metrics::PROFILE_STEP_WALL_NS.record(ns);
    }
    out
}

/// A (profiler, cluster) pair to run as one unit of sweep work.
#[derive(Debug, Clone)]
pub struct ProfileJob {
    /// The configured profiler.
    pub stash: Stash,
    /// The cluster to characterize.
    pub cluster: ClusterSpec,
}

/// Profiles many (profiler, cluster) jobs across [`profile_threads`]
/// worker threads, returning one result per job in input order.
///
/// Each worker runs whole jobs with serial steps
/// ([`Stash::profile_serial_in`]) — the parallelism lives at the job
/// level, so a sweep of dozens of instance x batch x model points
/// saturates the machine without oversubscribing it with nested per-step
/// threads. Passing a `cache` additionally deduplicates measurements
/// shared between jobs (e.g. the reference-instance steps of multi-node
/// points).
///
/// Results are bit-identical to profiling the jobs one by one: jobs are
/// independent, the engine is deterministic, and results are handed back
/// in job order regardless of completion order.
pub fn par_profile_many(
    jobs: &[ProfileJob],
    cache: Option<&MeasurementCache>,
) -> Vec<Result<StallReport, ProfileError>> {
    let mut out = Vec::with_capacity(jobs.len());
    in_order(
        jobs.len(),
        profile_threads(),
        |i, arena| {
            jobs[i]
                .stash
                .profile_serial_in(&jobs[i].cluster, cache, arena)
        },
        |_, result| out.push(result),
    );
    out
}

/// The in-order parallel executor behind every profiling fan-out: the
/// steps of [`Stash::profile`], the jobs of [`par_profile_many`] and the
/// misses of the durable sweep runner.
///
/// `workers` threads claim the indices `0..count` from a shared counter
/// in ascending order, each running `work(index, arena)` inside its own
/// [`EngineArena`]: the calling thread plus `workers - 1` scoped threads.
/// The caller works too because every extra thread costs resident memory,
/// its own allocator heap above all (≈0.4 MiB per extra thread on the
/// 24-cell durable sweep grid, glibc on x86-64); so one worker runs
/// inline with no thread, and a zero count spawns nothing. Scoped workers
/// send their results back over a channel; a reorder buffer on the
/// calling thread hands every result to `deliver(index, result)` in
/// ascending index order, draining the channel after each of its own
/// items. Only finished results wait in the buffer, each leaving it the
/// moment it is delivered. A panicking item propagates its panic to the
/// caller.
pub(crate) fn in_order<T: Send>(
    count: usize,
    workers: usize,
    work: impl Fn(usize, &mut EngineArena) -> T + Sync,
    mut deliver: impl FnMut(usize, T),
) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    let next = AtomicUsize::new(0);
    // Claims the next index in ascending order and runs it in `arena`.
    let run_next = |arena: &mut EngineArena| {
        let i = next.fetch_add(1, Ordering::Relaxed);
        (i < count).then(|| (i, work(i, arena)))
    };
    let workers = workers.max(1).min(count);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 1..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                // Arenas are !Send, so each worker builds its own.
                let mut arena = EngineArena::new();
                while let Some(done) = run_next(&mut arena) {
                    // A closed channel means the caller is unwinding.
                    if tx.send(done).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        let mut buffered: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let mut due = 0;
        let mut accept = |i: usize, result| {
            buffered[i] = Some(result);
            while let Some(result) = buffered.get_mut(due).and_then(Option::take) {
                deliver(due, result);
                due += 1;
            }
        };
        let mut arena = EngineArena::new();
        while let Some((i, result)) = run_next(&mut arena) {
            accept(i, result);
            for (i, result) in rx.try_iter() {
                accept(i, result);
            }
        }
        for (i, result) in rx {
            accept(i, result);
        }
    });
}

/// The prior-work DS-Analyzer profiler: steps 2-4 only — it measures prep
/// (CPU) and fetch (disk) stalls but is blind to communication (the gap
/// Stash fills).
#[derive(Debug, Clone, Serialize)]
pub struct DsAnalyzer {
    inner: Stash,
}

impl DsAnalyzer {
    /// Creates the baseline profiler with the same defaults as [`Stash`].
    #[must_use]
    pub fn new(model: Model) -> DsAnalyzer {
        DsAnalyzer {
            inner: Stash::new(model),
        }
    }

    /// Sets the per-GPU batch size.
    #[must_use]
    pub fn with_batch(mut self, per_gpu_batch: u64) -> DsAnalyzer {
        self.inner = self.inner.with_batch(per_gpu_batch);
        self
    }

    /// Sets the dataset.
    #[must_use]
    pub fn with_dataset(mut self, dataset: DatasetSpec) -> DsAnalyzer {
        self.inner = self.inner.with_dataset(dataset);
        self
    }

    /// Overrides sampled iterations.
    #[must_use]
    pub fn with_sampled_iterations(mut self, iterations: u64) -> DsAnalyzer {
        self.inner = self.inner.with_sampled_iterations(iterations);
        self
    }

    /// Profiles `instance` with DS-Analyzer's steps 2-4 only: the report
    /// carries CPU and disk stalls; `t1`/`t5` stay `None`, so interconnect
    /// and network stalls are unavailable.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn profile(&self, instance: InstanceType) -> Result<StallReport, ProfileError> {
        let mut report = self.inner.profile(&ClusterSpec::single(instance))?;
        report.times.t1 = None;
        report.times.t5 = None;
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use stash_dnn::zoo;
    use stash_hwtopo::instance::{p2_16xlarge, p3_16xlarge, p3_2xlarge, p3_8xlarge};

    fn quick(model: Model) -> Stash {
        Stash::new(model)
            .with_sampled_iterations(3)
            .with_epoch_samples(20_000)
    }

    #[test]
    fn single_instance_report_has_no_t5() {
        let r = quick(zoo::alexnet())
            .profile(&ClusterSpec::single(p3_16xlarge()))
            .unwrap();
        assert!(r.times.t5.is_none());
        assert!(r.interconnect_stall_pct().is_some());
        assert!(r.network_stall_pct().is_none());
        assert_eq!(r.world, 8);
        assert_eq!(r.reference, "p3.16xlarge");
    }

    #[test]
    fn multi_node_uses_family_reference() {
        let r = quick(zoo::alexnet())
            .profile(&ClusterSpec::homogeneous(p3_8xlarge(), 2))
            .unwrap();
        assert_eq!(r.reference, "p3.16xlarge");
        assert!(r.times.t5.is_some());
        let nw = r.network_stall_pct().unwrap();
        assert!(nw > 0.0, "network stall must be positive, got {nw}");
    }

    #[test]
    fn unreferenced_multi_node_shape_errors() {
        let cluster = ClusterSpec::homogeneous(p3_16xlarge(), 3); // 24 GPUs
        match quick(zoo::alexnet()).profile(&cluster) {
            Err(ProfileError::NoReference { world: 24, .. }) => {}
            other => panic!("expected NoReference, got {other:?}"),
        }
    }

    #[test]
    fn single_gpu_instance_has_zero_interconnect_stall() {
        let r = quick(zoo::alexnet())
            .profile(&ClusterSpec::single(p3_2xlarge()))
            .unwrap();
        assert!(r.interconnect_stall_pct().unwrap() < 1e-9);
    }

    #[test]
    fn p2_16x_interconnect_stall_is_severe() {
        let r = quick(zoo::resnet18())
            .profile(&ClusterSpec::single(p2_16xlarge()))
            .unwrap();
        let ic = r.interconnect_stall_pct().unwrap();
        assert!(ic > 25.0, "expected substantial PCIe stall, got {ic}%");
    }

    #[test]
    fn cpu_stall_is_negligible_on_aws() {
        // Headline finding: vCPUs keep up on AWS.
        let r = quick(zoo::resnet18())
            .profile(&ClusterSpec::single(p3_16xlarge()))
            .unwrap();
        let cpu = r.cpu_stall_pct().unwrap();
        assert!(cpu < 15.0, "CPU stall should be small, got {cpu}%");
    }

    #[test]
    fn cached_profile_is_bit_identical_and_hits_on_rerun() {
        let cache = crate::cache::MeasurementCache::new();
        let stash = quick(zoo::resnet18());
        let cluster = ClusterSpec::single(p3_16xlarge());
        let uncached = stash.profile_serial(&cluster).unwrap();
        let cold = stash.profile_cached(&cluster, &cache).unwrap();
        let warm = stash.profile_cached(&cluster, &cache).unwrap();
        assert_eq!(uncached, cold);
        assert_eq!(cold, warm);
        let stats = cache.stats();
        assert_eq!(stats.misses, 4, "first run simulates all four steps");
        assert_eq!(stats.hits, 4, "second run is fully cached");
    }

    #[test]
    fn traced_profile_matches_serial_and_stamps_steps() {
        use stash_trace::{shared, JsonSink, Tracer, TrackKind};
        use std::cell::RefCell;
        use std::rc::Rc;

        let stash = quick(zoo::alexnet());
        let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
        let serial = stash.profile_serial(&cluster).unwrap();
        let sink = Rc::new(RefCell::new(JsonSink::new()));
        let tracer = shared(Tracer::new(sink.clone()));
        let traced = stash.profile_traced(&cluster, &tracer).unwrap();
        assert_eq!(serial, traced);

        let events = sink.borrow().events().to_vec();
        let stamps: Vec<u32> = events
            .iter()
            .filter(|(_, e)| e.track().kind == TrackKind::Profiler)
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(stamps, vec![1, 2, 3, 4, 5], "five steps, one stamp each");
        assert!(
            events
                .iter()
                .any(|(p, e)| *p == 3 && e.track().kind == TrackKind::Gpu),
            "step 3's engine events are namespaced to process 3"
        );
        assert_eq!(tracer.borrow().process(), 0, "process scope restored");
    }

    #[test]
    fn par_profile_many_matches_sequential_profiles() {
        let jobs: Vec<ProfileJob> = [p3_8xlarge(), p3_16xlarge(), p3_2xlarge()]
            .into_iter()
            .map(|inst| ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::single(inst),
            })
            .collect();
        let fanned = par_profile_many(&jobs, None);
        assert_eq!(fanned.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&fanned) {
            let want = job.stash.profile_serial(&job.cluster).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want);
        }
    }

    #[test]
    fn executor_results_do_not_depend_on_worker_count() {
        let clusters = [
            ClusterSpec::single(p3_2xlarge()),
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
            // 24 GPUs: no reference instance, so this job errors.
            ClusterSpec::homogeneous(p3_16xlarge(), 3),
            ClusterSpec::single(p3_16xlarge()),
        ];
        let jobs: Vec<ProfileJob> = clusters
            .into_iter()
            .map(|cluster| ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster,
            })
            .collect();
        let run = |workers| {
            let cache = crate::cache::MeasurementCache::new();
            let mut out = Vec::new();
            in_order(
                jobs.len(),
                workers,
                |i, arena| {
                    jobs[i]
                        .stash
                        .profile_serial_in(&jobs[i].cluster, Some(&cache), arena)
                },
                |i, result| {
                    assert_eq!(i, out.len(), "delivered out of order");
                    out.push(result);
                },
            );
            (out, cache.stats())
        };
        let (one, one_stats) = run(1);
        let (four, four_stats) = run(4);
        assert_eq!(one, four);
        assert_eq!(one_stats, four_stats, "single-flight cache counters");
        assert!(matches!(one[2], Err(ProfileError::NoReference { .. })));
        assert_eq!(one, par_profile_many(&jobs, None));
        in_order(
            0,
            4,
            |_, _| -> usize { panic!("no items, no work") },
            |_, _| panic!("no items, no deliveries"),
        );
    }

    #[test]
    fn serial_and_parallel_profiles_are_bit_identical() {
        let stash = quick(zoo::alexnet());
        for cluster in [
            ClusterSpec::single(p3_8xlarge()),
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ] {
            let serial = stash.profile_serial(&cluster).unwrap();
            let mut stats = Vec::new();
            for workers in [1, 2, 5] {
                let cache = crate::cache::MeasurementCache::new();
                let uncached = stash.profile_on(&cluster, None, workers).unwrap();
                let cold = stash.profile_on(&cluster, Some(&cache), workers).unwrap();
                let warm = stash.profile_on(&cluster, Some(&cache), workers).unwrap();
                for report in [uncached, cold, warm] {
                    assert_eq!(
                        report,
                        serial,
                        "{} on {workers} workers",
                        cluster.display_name()
                    );
                }
                stats.push(cache.stats());
            }
            assert!(stats.windows(2).all(|w| w[0] == w[1]), "{stats:?}");
        }

        // DLRM does not fit a V100: every step fails, and the executor
        // surfaces the error the serial loop stops at.
        let oom = quick(zoo::dlrm());
        let cluster = ClusterSpec::single(p3_16xlarge());
        let want = oom.profile_serial(&cluster).unwrap_err();
        assert!(matches!(
            want,
            ProfileError::Train(stash_ddl::error::TrainError::OutOfMemory { .. })
        ));
        for workers in [1, 2, 5] {
            assert_eq!(oom.profile_on(&cluster, None, workers).unwrap_err(), want);
        }
    }

    #[test]
    fn par_profile_many_shares_reference_steps_through_cache() {
        // p3.8xlarge x2 resolves its steps 1/2 on the p3.16xlarge
        // reference, which the single p3.16xlarge job also measures.
        let cache = crate::cache::MeasurementCache::new();
        let jobs = vec![
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::single(p3_16xlarge()),
            },
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::homogeneous(p3_8xlarge(), 2),
            },
        ];
        let results = par_profile_many(&jobs, Some(&cache));
        assert!(results.iter().all(Result::is_ok));
        assert!(
            cache.stats().hits >= 2,
            "reference steps must be shared, stats: {:?}",
            cache.stats()
        );
    }

    #[test]
    fn profile_threads_honors_env_override() {
        // Temp-env style: the test process may run others concurrently, so
        // restore whatever was set.
        let prior = std::env::var("STASH_BENCH_THREADS").ok();
        std::env::set_var("STASH_BENCH_THREADS", "3");
        assert_eq!(profile_threads(), 3);
        std::env::set_var("STASH_BENCH_THREADS", "0");
        assert_eq!(profile_threads(), 1);
        match prior {
            Some(v) => std::env::set_var("STASH_BENCH_THREADS", v),
            None => std::env::remove_var("STASH_BENCH_THREADS"),
        }
    }

    #[test]
    fn ds_analyzer_misses_communication() {
        let r = DsAnalyzer::new(zoo::resnet18())
            .with_sampled_iterations(3)
            .profile(p2_16xlarge())
            .unwrap();
        assert!(r.interconnect_stall_pct().is_none());
        assert!(r.cpu_stall_pct().is_some());
        assert!(r.disk_stall_pct().is_some());
    }
}
