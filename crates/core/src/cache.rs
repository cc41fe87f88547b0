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
//! [`run_epoch`]: stash_ddl::engine::run_epoch
//! [`par_profile_many`]: crate::profiler::par_profile_many

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::Serialize;
use stash_ddl::config::TrainConfig;
use stash_ddl::engine::{run, run_epoch, EngineArena, RunSpec};
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
    entries: Mutex<HashMap<u128, SimDuration>>,
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
    fn locked(&self) -> std::sync::MutexGuard<'_, HashMap<u128, SimDuration>> {
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
        self.locked().len()
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

    /// Drops every stored measurement (counters are kept). Each dropped
    /// entry counts as an eviction in the telemetry registry.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn clear(&self) {
        let mut entries = self.locked();
        let evicted = entries.len() as u64;
        entries.clear();
        stash_telemetry::metrics::CACHE_EVICTIONS.add(evicted);
    }

    /// The epoch time for `cfg`, simulated on first request and memoized
    /// after. The engine is deterministic, so a cached result is
    /// bit-identical to a fresh run.
    ///
    /// The engine runs outside the lock: concurrent misses on the same key
    /// may race to simulate, but both compute the same value, so the
    /// duplicate insert is harmless.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (which are never cached).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn epoch_time(&self, cfg: &TrainConfig) -> Result<SimDuration, ProfileError> {
        let key = config_key(cfg);
        if let Some(&t) = self.locked().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            stash_telemetry::metrics::CACHE_HITS.inc();
            return Ok(t);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        stash_telemetry::metrics::CACHE_MISSES.inc();
        let t = run_epoch(cfg)?.epoch_time;
        self.locked().insert(key, t);
        Ok(t)
    }

    /// [`Self::epoch_time`] measuring misses inside a caller-owned
    /// [`EngineArena`], so a loop over many configurations reuses one
    /// simulator allocation instead of rebuilding per miss. Results are
    /// bit-identical to [`Self::epoch_time`].
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
        if let Some(&t) = self.locked().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            stash_telemetry::metrics::CACHE_HITS.inc();
            return Ok(t);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        stash_telemetry::metrics::CACHE_MISSES.inc();
        let t = run(
            cfg,
            RunSpec {
                arena: Some(arena),
                ..RunSpec::default()
            },
        )?
        .report
        .epoch_time;
        self.locked().insert(key, t);
        Ok(t)
    }
}

/// Canonical cache key: FNV-1a (128-bit) over the config's canonical JSON.
///
/// Serialization is field-ordered and deterministic, so equal configs hash
/// equal; 128 bits make accidental collisions between distinct configs
/// negligible.
#[must_use]
pub fn config_key(cfg: &TrainConfig) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let Ok(canonical) = serde_json::to_string(&cfg.to_json_value()) else {
        unreachable!("TrainConfig serialization is infallible")
    };
    let mut h = OFFSET;
    for b in canonical.bytes() {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use stash_ddl::config::ActiveGpus;
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

    #[test]
    fn cached_value_matches_direct_engine_run() {
        let cache = MeasurementCache::new();
        let via_cache = cache.epoch_time(&cfg()).unwrap();
        let direct = run_epoch(&cfg()).unwrap().epoch_time;
        assert_eq!(via_cache, direct);
    }
}
