//! # stash-bench — experiment harness
//!
//! Shared plumbing for the per-table/per-figure benchmark targets (see
//! `benches/`): a [`Table`] emitter that prints the paper-style rows and
//! persists CSV + JSON under `results/`, plus the standard sweeps
//! (instances, batch sizes, profiler settings) used across figures.
//!
//! Every bench target is a `harness = false` binary: running
//! `cargo bench --workspace` regenerates every table and figure of the
//! paper. Set `STASH_BENCH_ITERS` to trade fidelity for speed (default
//! 12 simulated iterations per measurement).

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

pub mod chart;

use stash_core::cache::MeasurementCache;
use stash_core::error::ProfileError;
use stash_core::profiler::{par_profile_many, profile_threads, ProfileJob, Stash};
use stash_core::report::StallReport;
use stash_dnn::dataset::DatasetSpec;
use stash_dnn::model::Model;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{
    p2_16xlarge, p2_8xlarge, p2_xlarge, p3_16xlarge, p3_24xlarge, p3_2xlarge, p3_8xlarge,
};
use stash_telemetry::snapshot::Snapshot;
use stash_trace::rollup::StallRollup;
use stash_trace::span::{Category, Track};

/// Number of iterations each profiling step simulates (env
/// `STASH_BENCH_ITERS`, default 12).
#[must_use]
pub fn bench_iters() -> u64 {
    std::env::var("STASH_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// The batch sizes the paper sweeps for small models (Figs. 4-6, 8, 10 show
/// the smallest and largest: 32 and 128).
#[must_use]
pub fn small_model_batches() -> [u64; 2] {
    [32, 128]
}

/// Batch sizes for the large vision models (bounded by V100 memory).
#[must_use]
pub fn large_model_batches() -> [u64; 2] {
    [4, 32]
}

/// The P2 configurations of Figs. 4-6.
#[must_use]
pub fn p2_configs() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::single(p2_xlarge()),
        ClusterSpec::single(p2_8xlarge()),
        ClusterSpec::homogeneous(p2_8xlarge(), 2),
        ClusterSpec::single(p2_16xlarge()),
    ]
}

/// The P3 configurations of Figs. 8-12.
#[must_use]
pub fn p3_configs() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p3_24xlarge()),
    ]
}

/// A profiler tuned for benchmark runs: the right dataset per model and
/// the benchmark iteration budget.
#[must_use]
pub fn bench_stash(model: Model, batch: u64) -> Stash {
    let dataset = DatasetSpec::for_model(&model);
    Stash::new(model)
        .with_batch(batch)
        .with_dataset(dataset)
        .with_sampled_iterations(bench_iters())
}

/// One sweep point: a configured profiler aimed at one cluster.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The configured profiler (model, batch, dataset, iterations).
    pub stash: Stash,
    /// The cluster to characterize.
    pub cluster: ClusterSpec,
}

impl SweepJob {
    /// Builds a sweep point from the standard bench profiler settings.
    #[must_use]
    pub fn new(model: Model, batch: u64, cluster: ClusterSpec) -> SweepJob {
        SweepJob {
            stash: bench_stash(model, batch),
            cluster,
        }
    }
}

/// How a sweep performed: wall-clock, cache effectiveness, and (when the
/// serial baseline was measured) the speedup over the seed's
/// one-profile-at-a-time, uncached execution.
#[derive(Debug, Clone)]
pub struct SweepPerf {
    /// Wall-clock seconds for the parallel, cached sweep.
    pub wall_secs: f64,
    /// Wall-clock seconds for the serial uncached baseline, when measured
    /// (`STASH_BENCH_BASELINE=1`).
    pub serial_secs: Option<f64>,
    /// `serial_secs / wall_secs`, when the baseline was measured.
    pub speedup: Option<f64>,
    /// Wall-clock seconds for a cache-warm re-sweep (every measurement
    /// served from the cache), when the baseline was measured.
    pub warm_secs: Option<f64>,
    /// `serial_secs / warm_secs`: the memoization speedup a warm
    /// characterization database delivers over re-simulating from scratch.
    pub warm_speedup: Option<f64>,
    /// Measurement-cache hits during the sweep.
    pub cache_hits: u64,
    /// Measurement-cache misses (engine runs) during the sweep.
    pub cache_misses: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Number of profile jobs in the sweep.
    pub jobs: usize,
    /// Full water-filling solves performed by the flow solver during the
    /// sweep (see [`stash_ddl::perf_stats`]).
    pub full_recomputes: u64,
    /// Network state changes the solver settled with incremental
    /// shortcuts instead of a full solve.
    pub shortcut_events: u64,
    /// Iterations extended analytically by steady-state fast-forward
    /// rather than simulated event-by-event.
    pub fast_forwarded_iterations: u64,
    /// Discrete events delivered by engine event queues.
    pub sim_events: u64,
    /// Telemetry-registry activity during the sweep: counters and
    /// histograms as deltas, gauges as high-water marks.
    pub registry: Snapshot,
}

impl SweepPerf {
    /// Cache hit fraction in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Renders the sweep record in the Prometheus text exposition format:
    /// the sweep-only job, wall-time and thread families, then the
    /// registry's `stash_*` families (the same ones `stash perf` dumps)
    /// over the sweep, so sweeps and traces can be scraped side by side.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut b = stash_telemetry::prom::MetricsBuilder::new();
        b.family(
            "stash_sweep_jobs_total",
            "counter",
            "Profile jobs executed by the sweep.",
        );
        b.sample("stash_sweep_jobs_total", &[], self.jobs as f64);
        b.family(
            "stash_sweep_wall_seconds",
            "gauge",
            "Wall-clock seconds for the parallel, cached sweep.",
        );
        b.sample("stash_sweep_wall_seconds", &[], self.wall_secs);
        b.family(
            "stash_sweep_threads",
            "gauge",
            "Worker threads used by the sweep.",
        );
        b.sample("stash_sweep_threads", &[], self.threads as f64);
        // The registry families are disjoint from the sweep families, so
        // the concatenation is still one valid exposition.
        let mut text = b.finish();
        text.push_str(&self.registry.render_prom());
        text
    }
}

/// Profiles every job across all cores with measurement memoization,
/// returning per-job results (in input order) plus the sweep's
/// performance record.
///
/// With `STASH_BENCH_BASELINE=1` the sweep is additionally re-run the
/// seed way — serially, uncached — to measure the speedup, and the two
/// result sets are asserted bit-identical (the determinism contract).
///
/// # Panics
///
/// Panics if the baseline comparison finds any divergence.
#[must_use]
pub fn run_sweep(jobs: Vec<SweepJob>) -> (Vec<Result<StallReport, ProfileError>>, SweepPerf) {
    let profile_jobs: Vec<ProfileJob> = jobs
        .iter()
        .map(|j| ProfileJob {
            stash: j.stash.clone(),
            cluster: j.cluster.clone(),
        })
        .collect();

    let cache = MeasurementCache::new();
    let registry_before = Snapshot::take();
    let perf_before = stash_ddl::perf_stats::snapshot();
    let started = Instant::now();
    let results = par_profile_many(&profile_jobs, Some(&cache));
    let wall_secs = started.elapsed().as_secs_f64();
    let stats = cache.stats();
    // Activity attributed to this sweep only (the registry counters are
    // process-wide monotonic atomics).
    let registry = Snapshot::take().since(&registry_before);
    let solver = stash_ddl::perf_stats::snapshot().since(&perf_before);

    let (serial_secs, speedup, warm_secs, warm_speedup) =
        if std::env::var("STASH_BENCH_BASELINE").is_ok_and(|v| v == "1") {
            let started = Instant::now();
            let baseline: Vec<Result<StallReport, ProfileError>> = profile_jobs
                .iter()
                .map(|j| j.stash.profile_serial(&j.cluster))
                .collect();
            let secs = started.elapsed().as_secs_f64();
            for (i, (fast, slow)) in results.iter().zip(&baseline).enumerate() {
                assert_eq!(
                    fast.as_ref().ok(),
                    slow.as_ref().ok(),
                    "job {i}: parallel+cached result diverged from serial baseline"
                );
            }
            // Warm re-sweep: the cache now holds every measurement, so this
            // is the "characterization database already paid for" case the
            // paper argues for — no simulation, only report assembly.
            let started = Instant::now();
            let warm = par_profile_many(&profile_jobs, Some(&cache));
            let wsecs = started.elapsed().as_secs_f64();
            for (i, (fast, rewarm)) in results.iter().zip(&warm).enumerate() {
                assert_eq!(
                    fast.as_ref().ok(),
                    rewarm.as_ref().ok(),
                    "job {i}: cache-warm result diverged from first sweep"
                );
            }
            (
                Some(secs),
                Some(secs / wall_secs.max(1e-9)),
                Some(wsecs),
                Some(secs / wsecs.max(1e-9)),
            )
        } else {
            (None, None, None, None)
        };

    let perf = SweepPerf {
        wall_secs,
        serial_secs,
        speedup,
        warm_secs,
        warm_speedup,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        threads: profile_threads(),
        jobs: jobs.len(),
        full_recomputes: solver.full_recomputes,
        shortcut_events: solver.shortcut_events,
        fast_forwarded_iterations: solver.fast_forwarded_iterations,
        sim_events: solver.sim_events,
        registry,
    };
    let prom_text = perf.prometheus();
    if let Err(e) = stash_telemetry::prom::validate(&prom_text) {
        panic!("sweep metrics failed exposition validation: {e}");
    }
    let prom_path = results_dir().join("sweep_metrics.prom");
    if let Err(e) = fs::write(&prom_path, prom_text) {
        eprintln!("[warn: could not write {}: {e}]", prom_path.display());
    }
    println!(
        "[sweep: {} jobs in {:.3}s on {} threads, cache {}/{} hits ({:.0}%){}]",
        perf.jobs,
        perf.wall_secs,
        perf.threads,
        perf.cache_hits,
        perf.cache_hits + perf.cache_misses,
        perf.hit_rate() * 100.0,
        perf.speedup
            .map_or_else(String::new, |s| format!(", {s:.1}x over serial uncached")),
    );
    if let (Some(w), Some(s)) = (perf.warm_secs, perf.warm_speedup) {
        println!("[sweep warm re-run: {w:.3}s, {s:.0}x over serial uncached]");
    }
    (results, perf)
}

/// Folds profiled stall breakdowns into one [`StallRollup`], using the
/// same `(track, category)` placement a traced run produces: compute and
/// the exposed interconnect / network / fetch stalls land on the rank-0
/// GPU lane, CPU prep on the loader lane. The figure harnesses attach
/// the result via [`Table::set_rollup`] so every `results/fig*.csv`
/// gains a machine-readable `_rollup.json` sibling.
#[must_use]
pub fn rollup_from_reports<'a, I>(reports: I) -> StallRollup
where
    I: IntoIterator<Item = &'a StallReport>,
{
    let mut rollup = StallRollup::default();
    let gpu = Track::gpu(0, 0);
    let loader = Track::loader(0, 0);
    for r in reports {
        for (track, category, stall) in [
            (gpu, Category::Compute, r.times.t1),
            (gpu, Category::Interconnect, r.interconnect_stall()),
            (gpu, Category::Network, r.network_stall()),
            (loader, Category::Prep, r.cpu_stall()),
            (gpu, Category::Fetch, r.disk_stall()),
        ] {
            if let Some(d) = stall {
                rollup.add_span_ns(track, category, d.as_nanos());
            }
        }
    }
    rollup
}

/// Formats an optional percentage.
#[must_use]
pub fn pct(p: Option<f64>) -> String {
    p.map_or_else(|| "-".into(), |v| format!("{v:.1}"))
}

/// Locates the repository `results/` directory.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if let Err(e) = fs::create_dir_all(&dir) {
        panic!("cannot create results dir {}: {e}", dir.display());
    }
    dir
}

/// A printable, persistable experiment table.
#[derive(Debug)]
pub struct Table {
    name: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    perf: Option<SweepPerf>,
    rollup: Option<StallRollup>,
}

impl Table {
    /// Starts a table named `name` (the file stem under `results/`).
    #[must_use]
    pub fn new(name: &str, title: &str, columns: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
            perf: None,
            rollup: None,
        }
    }

    /// Attaches the sweep's performance record; it is emitted as a `perf`
    /// object in the results JSON.
    pub fn set_perf(&mut self, perf: SweepPerf) {
        self.perf = Some(perf);
    }

    /// Attaches the sweep's per-category stall rollup; it is written as
    /// `results/<name>_rollup.json` alongside the CSV when the table
    /// finishes.
    pub fn set_rollup(&mut self, rollup: StallRollup) {
        self.rollup = Some(rollup);
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of rows so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders a bar chart of `value_col` (numeric) keyed by the
    /// concatenation of `label_cols` — a terminal stand-in for the paper's
    /// figure panel.
    ///
    /// # Panics
    ///
    /// Panics on unknown column names.
    #[must_use]
    pub fn to_bar_chart(&self, label_cols: &[&str], value_col: &str) -> String {
        let Some(vi) = self.columns.iter().position(|c| c == value_col) else {
            panic!("unknown value column '{value_col}'")
        };
        let lis: Vec<usize> = label_cols
            .iter()
            .map(|lc| match self.columns.iter().position(|c| c == *lc) {
                Some(i) => i,
                None => panic!("unknown label column '{lc}'"),
            })
            .collect();
        let rows: Vec<(String, f64)> = self
            .rows
            .iter()
            .filter_map(|r| {
                let value: f64 = r[vi].parse().ok()?;
                let label = lis
                    .iter()
                    .map(|i| r[*i].as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                Some((label, value))
            })
            .collect();
        chart::bar_chart(&format!("{} — {}", self.title, value_col), &rows, 40)
    }

    /// Prints the table and writes `results/<name>.csv` and `.json`.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (benchmarks should fail loudly).
    pub fn finish(&self) {
        // Pretty print.
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(c.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        println!("\n== {} — {} ==", self.name, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }

        // CSV.
        let csv_path = results_dir().join(format!("{}.csv", self.name));
        let mut csv_text = self.columns.join(",");
        csv_text.push('\n');
        for row in &self.rows {
            csv_text.push_str(&row.join(","));
            csv_text.push('\n');
        }
        if let Err(e) = fs::write(&csv_path, csv_text) {
            panic!("cannot write {}: {e}", csv_path.display());
        }

        // JSON.
        let json_rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let obj: serde_json::Map<String, serde_json::Value> = self
                    .columns
                    .iter()
                    .zip(row)
                    .map(|(c, v)| (c.clone(), serde_json::Value::String(v.clone())))
                    .collect();
                serde_json::Value::Object(obj)
            })
            .collect();
        let json_path = results_dir().join(format!("{}.json", self.name));
        let mut doc = serde_json::Map::new();
        doc.insert(
            "experiment".to_string(),
            serde_json::Value::String(self.name.clone()),
        );
        doc.insert(
            "title".to_string(),
            serde_json::Value::String(self.title.clone()),
        );
        doc.insert("rows".to_string(), serde_json::Value::Array(json_rows));
        if let Some(perf) = &self.perf {
            doc.insert(
                "perf".to_string(),
                serde_json::json!({
                    "wall_secs": perf.wall_secs,
                    "serial_secs": perf.serial_secs,
                    "speedup": perf.speedup,
                    "warm_secs": perf.warm_secs,
                    "warm_speedup": perf.warm_speedup,
                    "cache_hits": perf.cache_hits,
                    "cache_misses": perf.cache_misses,
                    "cache_hit_rate": perf.hit_rate(),
                    "threads": perf.threads as u64,
                    "jobs": perf.jobs as u64,
                    "full_recomputes": perf.full_recomputes,
                    "shortcut_events": perf.shortcut_events,
                    "fast_forwarded_iterations": perf.fast_forwarded_iterations,
                    "sim_events": perf.sim_events,
                }),
            );
        }
        let json_text = match serde_json::to_string_pretty(&serde_json::Value::Object(doc)) {
            Ok(t) => t,
            Err(e) => panic!("cannot serialize {}: {e}", self.name),
        };
        if let Err(e) = fs::write(&json_path, json_text) {
            panic!("cannot write {}: {e}", json_path.display());
        }

        if let Some(rollup) = &self.rollup {
            let rollup_path = results_dir().join(format!("{}_rollup.json", self.name));
            let rollup_text = match serde_json::to_string_pretty(&rollup.to_json()) {
                Ok(t) => t,
                Err(e) => panic!("cannot serialize {} rollup: {e}", self.name),
            };
            if let Err(e) = fs::write(&rollup_path, rollup_text) {
                panic!("cannot write {}: {e}", rollup_path.display());
            }
            println!(
                "[written: results/{0}.csv, results/{0}.json, results/{0}_rollup.json]",
                self.name
            );
        } else {
            println!("[written: results/{0}.csv, results/{0}.json]", self.name);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("unit_test_table", "test", &["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        t.finish();
        let csv = std::fs::read_to_string(results_dir().join("unit_test_table.csv")).unwrap();
        assert!(csv.contains("a,b"));
        let _ = std::fs::remove_file(results_dir().join("unit_test_table.csv"));
        let _ = std::fs::remove_file(results_dir().join("unit_test_table.json"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn table_renders_bar_charts() {
        let mut t = Table::new("chart_test", "test", &["config", "stall"]);
        t.row(vec!["a", "10.0"]);
        t.row(vec!["b", "20.0"]);
        let c = t.to_bar_chart(&["config"], "stall");
        assert!(c.contains('a') && c.contains("20.0"));
    }

    #[test]
    fn sweep_perf_prometheus_renders_sweep_families_and_the_registry_delta() {
        let mut registry = Snapshot::zero();
        for (name, v) in &mut registry.counters {
            match *name {
                "stash_cache_hits_total" => *v = 42,
                "stash_sim_solver_full_recomputes_total" => *v = 11,
                "stash_sim_queue_events_popped_total" => *v = 5_000,
                _ => {}
            }
        }
        let perf = SweepPerf {
            wall_secs: 1.5,
            serial_secs: None,
            speedup: None,
            warm_secs: None,
            warm_speedup: None,
            cache_hits: 42,
            cache_misses: 7,
            threads: 4,
            jobs: 9,
            full_recomputes: 11,
            shortcut_events: 1_000,
            fast_forwarded_iterations: 640,
            sim_events: 5_000,
            registry,
        };
        let text = perf.prometheus();
        stash_telemetry::prom::validate(&text).unwrap();
        assert!(text.contains("stash_sweep_jobs_total 9"));
        assert!(text.contains("# TYPE stash_sweep_wall_seconds gauge"));
        assert!(text.contains("stash_sweep_threads 4"));
        assert!(text.contains("stash_cache_hits_total 42"));
        assert!(text.contains("stash_sim_solver_full_recomputes_total 11"));
        assert!(text.contains("stash_sim_queue_events_popped_total 5000"));
        // Registry facts appear once, under their registry names.
        for shadow in [
            "stash_measurement_cache_hits_total",
            "stash_solver_full_recomputes_total",
            "stash_fast_forwarded_iterations_total",
            "stash_sim_events_total",
        ] {
            assert!(!text.contains(shadow), "{shadow} re-declared");
        }
    }

    #[test]
    fn rollup_json_is_written_next_to_the_table() {
        let mut t = Table::new("unit_test_rollup_table", "test", &["a"]);
        t.row(vec!["1"]);
        let mut rollup = StallRollup::default();
        rollup.add_span_ns(Track::gpu(0, 0), Category::Compute, 123);
        t.set_rollup(rollup);
        t.finish();
        let path = results_dir().join("unit_test_rollup_table_rollup.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("stash-rollup-v1"));
        assert!(text.contains("compute"));
        for suffix in [".csv", ".json", "_rollup.json"] {
            let _ =
                std::fs::remove_file(results_dir().join(format!("unit_test_rollup_table{suffix}")));
        }
    }

    #[test]
    fn sweeps_have_expected_sizes() {
        assert_eq!(p2_configs().len(), 4);
        assert_eq!(p3_configs().len(), 5);
        assert!(bench_iters() >= 1);
    }
}
