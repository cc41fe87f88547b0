//! Measurement memoization.
//!
//! The paper's pitch is pay-once characterization: identical measurements
//! should never be simulated twice. [`MeasurementCache`] memoizes
//! [`run_epoch`] results keyed by a canonical hash of the full
//! [`TrainConfig`] — model, batch, dataset, cluster, active GPUs, data
//! mode, collective algorithm, precision and sampled iterations all feed
//! the key, so two configs collide only when the simulation they describe
//! is identical (and therefore, the engine being deterministic, so is the
//! result).
//!
//! The cache is shared: `&MeasurementCache` is [`Sync`], so the parallel
//! profiler's worker threads and [`par_profile_many`] sweep jobs all hit
//! one map. Within a single profile this deduplicates nothing (the five
//! steps differ), but across a sweep it collapses the repeated
//! reference-instance measurements — e.g. steps 1/2 of every multi-node
//! p3 cluster re-measure the same `p3.16xlarge` epochs.
//!
//! Misses are single-flight: the first thread to miss a key simulates it
//! while later threads asking for the same key wait for that result
//! instead of simulating it again.
//!
//! [`run_epoch`]: stash_ddl::engine::run_epoch
//! [`par_profile_many`]: crate::profiler::par_profile_many

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use serde::Serialize;
use stash_ddl::config::TrainConfig;
use stash_ddl::engine::{run, EngineArena, RunSpec};
use stash_simkit::time::SimDuration;

use crate::error::ProfileError;

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the engine.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cache entry: being simulated by some thread, or measured.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Pending,
    Ready(SimDuration),
}

/// A thread-safe memo of epoch measurements keyed by training config.
///
/// # Examples
///
/// ```
/// use stash_core::cache::MeasurementCache;
/// use stash_core::profiler::Stash;
/// use stash_dnn::zoo;
/// use stash_hwtopo::prelude::*;
///
/// let cache = MeasurementCache::new();
/// let stash = Stash::new(zoo::resnet18()).with_sampled_iterations(3);
/// let cluster = ClusterSpec::single(p3_16xlarge());
/// let cold = stash.profile_cached(&cluster, &cache)?;
/// let warm = stash.profile_cached(&cluster, &cache)?;
/// assert_eq!(cold, warm); // bit-identical
/// assert!(cache.stats().hits >= 4); // second run fully served from cache
/// # Ok::<(), stash_core::error::ProfileError>(())
/// ```
#[derive(Debug, Default)]
pub struct MeasurementCache {
    entries: Mutex<HashMap<u128, Slot>>,
    /// Signalled whenever a pending entry resolves or is abandoned.
    resolved: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MeasurementCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> MeasurementCache {
        MeasurementCache::default()
    }

    /// Acquires the entry map, preserving the poisoning panic the public
    /// accessors document (a poisoned cache means a measurement thread
    /// died mid-insert; results can no longer be trusted).
    fn locked(&self) -> MutexGuard<'_, HashMap<u128, Slot>> {
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(_) => panic!("cache poisoned"),
        }
    }

    /// Number of distinct measurements stored.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locked()
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Resets the hit/miss counters (entries are kept).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Drops every stored measurement (counters are kept; measurements
    /// still in flight land afterwards). Each dropped entry counts as an
    /// eviction in the telemetry registry.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn clear(&self) {
        let mut entries = self.locked();
        let before = entries.len();
        entries.retain(|_, s| matches!(s, Slot::Pending));
        let evicted = (before - entries.len()) as u64;
        stash_telemetry::metrics::CACHE_EVICTIONS.add(evicted);
    }

    /// The epoch time for `cfg`, simulated on first request and memoized
    /// after. The engine is deterministic, so a cached result is
    /// bit-identical to a fresh run.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (which are never cached).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn epoch_time(&self, cfg: &TrainConfig) -> Result<SimDuration, ProfileError> {
        self.epoch_time_in(cfg, &mut EngineArena::new())
    }

    /// [`Self::epoch_time`] measuring misses inside a caller-owned
    /// [`EngineArena`], so a loop over many configurations reuses one
    /// simulator allocation instead of rebuilding per miss. Results are
    /// bit-identical to [`Self::epoch_time`].
    ///
    /// The engine runs outside the lock. A thread that finds the key
    /// pending waits for the simulating thread and counts a hit; if that
    /// simulation fails, waiters wake and the next one retries.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (which are never cached).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn epoch_time_in(
        &self,
        cfg: &TrainConfig,
        arena: &mut EngineArena,
    ) -> Result<SimDuration, ProfileError> {
        let key = config_key(cfg);
        let mut entries = self.locked();
        loop {
            match entries.get(&key) {
                Some(&Slot::Ready(t)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    stash_telemetry::metrics::CACHE_HITS.inc();
                    return Ok(t);
                }
                Some(Slot::Pending) => {
                    entries = match self.resolved.wait(entries) {
                        Ok(guard) => guard,
                        Err(_) => panic!("cache poisoned"),
                    };
                }
                None => break,
            }
        }
        entries.insert(key, Slot::Pending);
        drop(entries);
        self.misses.fetch_add(1, Ordering::Relaxed);
        stash_telemetry::metrics::CACHE_MISSES.inc();
        let mut flight = InFlight {
            cache: self,
            key,
            result: None,
        };
        let spec = RunSpec {
            arena: Some(arena),
            ..RunSpec::default()
        };
        let t = run(cfg, spec)?.report.epoch_time;
        flight.result = Some(t);
        Ok(t)
    }
}

/// A pending entry owned by the thread simulating it. Dropping it
/// publishes the result, or on error or panic removes the entry so a
/// waiter can retry, and wakes every waiter either way.
struct InFlight<'a> {
    cache: &'a MeasurementCache,
    key: u128,
    result: Option<SimDuration>,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Never panic here: this may run while unwinding.
        let mut entries = self
            .cache
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match self.result {
            Some(t) => entries.insert(self.key, Slot::Ready(t)),
            None => entries.remove(&self.key),
        };
        self.cache.resolved.notify_all();
    }
}

/// Canonical cache key: FNV-1a (128-bit) over the config's derived
/// `Debug` rendering, streamed straight into the hash.
///
/// The rendering names every field of every nested type in declaration
/// order (no config type holds a hash map or a hand-written `Debug`), so
/// equal configs hash equal and distinct configs render distinctly; 128
/// bits make accidental collisions negligible. Keys live only in memory.
/// Streaming allocates nothing; a JSON value tree of a ResNet-50 config
/// takes ≈0.2 MB, once per measurement step on whichever thread runs it.
#[must_use]
pub fn config_key(cfg: &TrainConfig) -> u128 {
    let mut h = stash_store::Fnv128::new();
    let Ok(()) = std::fmt::Write::write_fmt(&mut h, format_args!("{cfg:?}")) else {
        unreachable!("hashing never fails")
    };
    h.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use stash_ddl::config::ActiveGpus;
    use stash_ddl::engine::run_epoch;
    use stash_dnn::zoo;
    use stash_hwtopo::cluster::ClusterSpec;
    use stash_hwtopo::instance::p3_8xlarge;

    fn cfg() -> TrainConfig {
        let mut c = TrainConfig::synthetic(
            ClusterSpec::single(p3_8xlarge()),
            zoo::resnet18(),
            32,
            2_000,
        );
        c.epoch_mode = stash_ddl::config::EpochMode::Sampled { iterations: 3 };
        c
    }

    #[test]
    fn identical_configs_share_a_key() {
        assert_eq!(config_key(&cfg()), config_key(&cfg()));
    }

    #[test]
    fn differing_fields_change_the_key() {
        let base = cfg();
        let mut batch = cfg();
        batch.per_gpu_batch = 64;
        let mut active = cfg();
        active.active = ActiveGpus::Single;
        assert_ne!(config_key(&base), config_key(&batch));
        assert_ne!(config_key(&base), config_key(&active));
    }

    #[test]
    fn second_lookup_hits_and_matches() {
        let cache = MeasurementCache::new();
        let first = cache.epoch_time(&cfg()).unwrap();
        let second = cache.epoch_time(&cfg()).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clear_empties_entries_but_keeps_counters() {
        let cache = MeasurementCache::new();
        cache.epoch_time(&cfg()).unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    /// Runs `f` on `n` threads released together by a barrier.
    fn concurrently<T: Send>(n: usize, f: impl Fn() -> T + Sync) -> Vec<T> {
        let gate = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        f()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_misses_of_one_key_simulate_once() {
        let cache = MeasurementCache::new();
        let times = concurrently(4, || cache.epoch_time(&cfg()).unwrap());
        assert!(times.iter().all(|&t| t == times[0]));
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_failed_measurement_wakes_its_waiters() {
        // BERT-large at batch 64 does not fit a V100: every lookup errors,
        // and none may wait forever on the failed thread's entry.
        let mut oom = TrainConfig::synthetic(
            ClusterSpec::single(stash_hwtopo::instance::p3_2xlarge()),
            zoo::bert_large(),
            64,
            640,
        );
        oom.epoch_mode = stash_ddl::config::EpochMode::Sampled { iterations: 2 };
        let cache = MeasurementCache::new();
        let results = concurrently(4, || cache.epoch_time(&oom));
        assert!(results.iter().all(Result::is_err));
        assert!(cache.is_empty(), "errors are never cached");
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn cached_value_matches_direct_engine_run() {
        let cache = MeasurementCache::new();
        let via_cache = cache.epoch_time(&cfg()).unwrap();
        let direct = run_epoch(&cfg()).unwrap().epoch_time;
        assert_eq!(via_cache, direct);
    }
}
