//! `durable_sweep`: the 24-cell `stash sweep` grid run cold into a fresh
//! `ResultStore`, resumed from it, then served record by record.
//! Telemetry is armed, as `stash sweep` arms it. The store runs on the
//! in-memory backend of [`crate::memfs`]; the traced run measures what
//! `StdFs` adds in a leg of its own.
//!
//! The untraced pass calls `run_sweep` itself. The traced pass makes the
//! same public calls `run_sweep` makes, one by one, so each store, JSON
//! and profiler call is timed; its CSV must match the pinned digest too.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stash::core::cache::{CacheStats, MeasurementCache};
use stash::core::profiler::ProfileJob;
use stash::core::report::StallReport;
use stash::core::sweep::{
    cell_descriptor, cell_key, decode_cell_record, encode_cell_record, run_sweep, SweepOutcome,
};
use stash::ddl::engine::EngineArena;
use stash::ddl::perf_stats;
use stash::dnn::zoo;
use stash::hwtopo::cluster::ClusterSpec;
use stash::hwtopo::instance::{p3_16xlarge, p3_2xlarge, p3_8xlarge};
use stash::store::journal::JournalEntry;
use stash::store::key_hex;
use stash::store::prelude::{Fetch, ResultStore, RetryPolicy, StdFs};
use stash::telemetry::snapshot::Snapshot;

use crate::ledger::{Ledger, TracedOps};
use crate::memfs::MemFs;
use crate::sim;
use crate::stats::{median, ratio, tail};
use crate::{closed_loop, Args, Outcome, Rng, SetupClock};

/// Sampled iterations and epoch size per cell.
const ITERATIONS: u64 = 30;
const EPOCH_SAMPLES: u64 = 20_000;

/// Single-record reads served per pass.
const SERVE_READS: usize = 100;

/// Interleaved repetitions of each subtraction leg per traced run.
const LEG_REPEATS: usize = 3;

/// FNV-128 of the grid's stall-report CSV at the seed commit.
const PINNED_CSV: u128 = 0x857e_85c6_4f53_9157_0bde_c3aa_bc1d_fac8;

struct Durable {
    jobs: Vec<ProfileJob>,
    /// Each cell's content address; a reader would hold it already.
    keys: Vec<u128>,
    policy: RetryPolicy,
}

/// Where a subtraction leg keeps its store.
#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Memory,
    Disk,
    Storeless,
}

fn setup() -> Durable {
    let clusters = [
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
    ];
    let models = [
        zoo::alexnet(),
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::shufflenet(),
        zoo::mobilenet_v2(),
        zoo::vgg11(),
    ];
    let jobs = sim::grid(&clusters, &models, |m| {
        sim::stash_for(m, ITERATIONS).with_epoch_samples(EPOCH_SAMPLES)
    });
    let keys = jobs.iter().map(cell_key).collect();
    Durable {
        jobs,
        keys,
        policy: RetryPolicy::default(),
    }
}

fn open(fs: &MemFs) -> Result<ResultStore, String> {
    ResultStore::open(Path::new("store"), Box::new(fs.clone())).map_err(|e| e.to_string())
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The CSV without its trailing `status` column.
fn strip_status(csv: &str) -> Vec<&str> {
    csv.lines()
        .map(|l| l.rsplit_once(',').map_or(l, |(a, _)| a))
        .collect()
}

/// Cold outcome checks: every cell computed, CSV as pinned.
fn check_cold(jobs: &[ProfileJob], cold: &SweepOutcome) -> Result<(), String> {
    if cold.computed() != jobs.len() {
        return Err(format!(
            "cold sweep computed {} of {} cells ({} failed)",
            cold.computed(),
            jobs.len(),
            cold.failed()
        ));
    }
    let digest = stash::store::fnv128(cold.results_csv().as_bytes());
    sim::check_digest("durable_sweep cold CSV", digest, PINNED_CSV)
}

/// Timings of untraced passes.
#[derive(Default)]
struct PassTimes {
    cold_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    serve_us: Vec<f64>,
}

impl Durable {
    /// One untraced pass into a fresh store: cold `run_sweep`, resumed
    /// `run_sweep`, then [`SERVE_READS`] seeded single-record reads.
    fn pass(&self, rng: &mut Rng, times: &mut PassTimes) -> Result<(), String> {
        let fs = MemFs::default();
        let t = Instant::now();
        let store = open(&fs)?;
        let cold = run_sweep(
            &self.jobs,
            Some(&store),
            &self.policy,
            &MeasurementCache::new(),
        );
        times.cold_ms.push(ms(t));
        drop(store);
        check_cold(&self.jobs, &cold)?;

        let t = Instant::now();
        let store = open(&fs)?;
        let resumed = run_sweep(
            &self.jobs,
            Some(&store),
            &self.policy,
            &MeasurementCache::new(),
        );
        times.resume_ms.push(ms(t));
        if resumed.resumed() != self.jobs.len() {
            return Err(format!(
                "resume served {} of {} cells",
                resumed.resumed(),
                self.jobs.len()
            ));
        }
        if strip_status(&resumed.results_csv()) != strip_status(&cold.results_csv()) {
            return Err("resumed CSV differs from the cold CSV".to_string());
        }

        let cold_reports: Vec<&StallReport> = cold.reports().collect();
        for _ in 0..SERVE_READS {
            let i = rng.below(self.jobs.len());
            let t = Instant::now();
            let report = serve(&store, self.keys[i], &mut Ledger::off())?;
            times.serve_us.push(ms(t) * 1e3);
            if &report != cold_reports[i] {
                return Err(format!("served record {i} differs from its cold report"));
            }
        }
        Ok(())
    }

    /// The traced pass: the public calls `run_sweep` makes, each timed.
    fn traced_pass(&self, rng: &mut Rng, ledger: &mut Ledger) -> Result<CacheStats, String> {
        // Cold.
        let fs = MemFs::default();
        let store = ledger.time("store.open", || open(&fs))?;
        let cache = ledger.time("core.cache_new", MeasurementCache::new);
        let mut arena = ledger.time("ddl.arena_new", EngineArena::new);
        self.journal_plans(&store, ledger)?;
        let mut reports = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let key = ledger.time("json.cell_key", || cell_key(job));
            let hex = key_hex(key);
            match ledger.time("store.get_miss", || store.get(key)) {
                Ok(Fetch::Miss) => {}
                other => return Err(format!("cold store lookup of {hex}: {other:?}")),
            }
            let report = ledger
                .time("core.profile_serial_in", || {
                    job.stash
                        .profile_serial_in(&job.cluster, Some(&cache), &mut arena)
                })
                .map_err(|e| format!("cell {hex}: {e}"))?;
            let payload = ledger.time("json.encode_cell_record", || {
                encode_cell_record(job, &report)
            });
            ledger
                .time("store.put", || store.put(key, &payload))
                .map_err(|e| e.to_string())?;
            append(&store, &JournalEntry::done(&hex), ledger)?;
            reports.push(report);
        }
        drop(store);
        let digest = sim::csv_digest(&self.jobs, reports.clone(), ledger);
        sim::check_digest("durable_sweep traced cold CSV", digest, PINNED_CSV)?;

        // Resume.
        let store = ledger.time("store.open", || open(&fs))?;
        self.journal_plans(&store, ledger)?;
        for (job, cold) in self.jobs.iter().zip(&reports) {
            let key = ledger.time("json.cell_key", || cell_key(job));
            let report = serve(&store, key, ledger)?;
            append(&store, &JournalEntry::done(&key_hex(key)), ledger)?;
            if &report != cold {
                return Err(format!("resumed record {} differs", key_hex(key)));
            }
        }

        // Serve.
        for _ in 0..SERVE_READS {
            let i = rng.below(self.jobs.len());
            if serve(&store, self.keys[i], ledger)? != reports[i] {
                return Err(format!("served record {i} differs from its cold report"));
            }
        }
        Ok(cache.stats())
    }

    /// The write-ahead plan line of every cell, as `run_sweep` journals it.
    fn journal_plans(&self, store: &ResultStore, ledger: &mut Ledger) -> Result<(), String> {
        for job in &self.jobs {
            let hex = key_hex(ledger.time("json.cell_key", || cell_key(job)));
            let descriptor = ledger
                .time("json.cell_descriptor", || {
                    serde_json::to_string(&cell_descriptor(job))
                })
                .map_err(|e| e.to_string())?;
            append(store, &JournalEntry::plan(&hex, &descriptor), ledger)?;
        }
        Ok(())
    }

    /// One cold `run_sweep` into a fresh store on `backend`, telemetry
    /// armed or not; returns its time and the bytes the store wrote.
    fn cold_leg(&self, backend: Backend, armed: bool, disk: &Path) -> Result<(f64, u64), String> {
        if armed {
            stash::telemetry::enable();
        } else {
            stash::telemetry::disable();
        }
        let fs = MemFs::default();
        let t = Instant::now();
        let store = match backend {
            Backend::Memory => Some(open(&fs)?),
            Backend::Disk => {
                Some(ResultStore::open(disk, Box::new(StdFs::new())).map_err(|e| e.to_string())?)
            }
            Backend::Storeless => None,
        };
        let cold = run_sweep(
            &self.jobs,
            store.as_ref(),
            &self.policy,
            &MeasurementCache::new(),
        );
        let elapsed = ms(t);
        stash::telemetry::enable();
        drop(store);
        let _ = std::fs::remove_dir_all(disk);
        check_cold(&self.jobs, &cold)?;
        Ok((elapsed, fs.bytes()))
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(tag: &str) -> Result<ScratchDir, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only once no other run uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn append(store: &ResultStore, entry: &JournalEntry, ledger: &mut Ledger) -> Result<(), String> {
    ledger
        .time("store.journal_append", || {
            store.journal().append(store.io(), entry)
        })
        .map_err(|e| e.to_string())
}

/// One served read: a verified `get` hit decoded to its report.
fn serve(store: &ResultStore, key: u128, ledger: &mut Ledger) -> Result<StallReport, String> {
    let payload = match ledger.time("store.get", || store.get(key)) {
        Ok(Fetch::Hit(payload)) => payload,
        other => return Err(format!("record {}: {other:?}", key_hex(key))),
    };
    ledger.time("json.decode_cell_record", || decode_cell_record(&payload))
}

pub fn run(args: &Args, process_start: Instant, out: &mut Outcome) -> Result<(), String> {
    stash::telemetry::enable();
    let (mut clock, durable) = SetupClock::start(process_start, setup);
    let mut rng = Rng::new(args.seed);
    let n = durable.jobs.len() as f64;

    // Warm-up pass: checked, not timed.
    out.check(durable.pass(&mut rng, &mut PassTimes::default()));

    let half = if args.trace { 2.0 } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds / half);
    let mut times = PassTimes::default();
    let mut op_ms = Vec::new();
    closed_loop(budget, 3, || {
        let t = Instant::now();
        let result = durable.pass(&mut rng, &mut times);
        op_ms.push(ms(t));
        out.check(result);
        clock.again(setup);
    });
    out.set("setup_s", clock.median());
    out.set("op_ms.p50", median(&op_ms));
    out.set("cold_cells_per_s", n / (median(&times.cold_ms) / 1e3));
    out.set("resume_cells_per_s", n / (median(&times.resume_ms) / 1e3));
    out.set("serve_us.p50", median(&times.serve_us));
    out.set("serve_us.p99", tail(&times.serve_us, 0.99));
    if !args.trace {
        return Ok(());
    }

    // Traced half. The registry is reset once and read once around the
    // traced passes; the engine counters of one pass repeat exactly.
    let mut traced = TracedOps::default();
    let mut perf = None;
    let mut cache = None;
    stash::telemetry::metrics::reset_all();
    closed_loop(budget, 2, || {
        let before = perf_stats::snapshot();
        let mut ledger = Ledger::on();
        let t = Instant::now();
        let result = durable.traced_pass(&mut rng, &mut ledger);
        traced.push(ms(t), ledger);
        perf = Some(perf_stats::snapshot().since(&before));
        out.check(result.map(|stats| cache = Some(stats)));
    });
    let registry = Snapshot::take();
    let passes = traced.ledgers().count() as f64;
    traced.report(&op_ms, out);

    let cell_ms = traced.samples("core.profile_serial_in");
    out.set("core.cell_ms.p50", median(&cell_ms));
    out.set("core.cell_ms.p90", crate::stats::quantile(&cell_ms, 0.9));
    if let Some(perf) = perf {
        let sim_ms = traced.per_op_p50(&["core.profile_serial_in"]);
        sim::report_counters(&perf, sim::requested_iterations(&durable.jobs), sim_ms, out);
    }
    if let Some(stats) = cache {
        sim::report_cache(&stats, out);
    }

    if let Some(solve) = registry.histogram("stash_sim_solver_recompute_latency_ns") {
        out.set("flowsim.solve_ns.p50", solve.quantile(0.50) as f64);
        out.set("flowsim.solve_ns.p99", solve.quantile(0.99) as f64);
    }
    out.set(
        "simkit.queue.pushed",
        registry.counter("stash_sim_queue_events_pushed_total") as f64 / passes,
    );
    out.set(
        "simkit.queue.cancelled",
        registry.counter("stash_sim_queue_events_cancelled_total") as f64 / passes,
    );
    out.set(
        "simkit.queue.depth_hwm",
        registry.gauge("stash_sim_queue_depth_high_water") as f64,
    );

    let us = |call: &str| -> Vec<f64> { traced.samples(call).iter().map(|ms| ms * 1e3).collect() };
    let gets = us("store.get");
    out.set("store.put_us.p50", median(&us("store.put")));
    out.set("store.get_us.p50", median(&gets));
    out.set("store.get_us.p99", tail(&gets, 0.99));
    out.set(
        "json.record_encode_us.p50",
        median(&us("json.encode_cell_record")),
    );
    out.set(
        "json.record_decode_us.p50",
        median(&us("json.decode_cell_record")),
    );

    // Subtraction legs, interleaved so drift hits every leg alike: cold
    // `run_sweep` armed in memory (the workload's own setting), disarmed
    // in memory, armed without a store, and armed on `StdFs`.
    let scratch = ScratchDir::create("durable_sweep")?;
    let disk = scratch.0.join("store");
    let legs = [
        (Backend::Memory, true),
        (Backend::Memory, false),
        (Backend::Storeless, true),
        (Backend::Disk, true),
    ];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); legs.len()];
    let mut bytes = 0;
    for rep in 0..LEG_REPEATS {
        let mut order: Vec<usize> = (0..legs.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let (backend, armed) = legs[i];
            let result = durable.cold_leg(backend, armed, &disk).map(|(ms, b)| {
                times[i].push(ms);
                if backend == Backend::Memory {
                    bytes = b;
                }
            });
            out.check(result);
        }
    }
    let [memory, disarmed, storeless, stdfs] = [0, 1, 2, 3].map(|i| median(&times[i]));
    out.set("telemetry.overhead_ratio", ratio(memory, disarmed));
    out.set("telemetry.base_ms", disarmed);
    out.set("store.overhead_ratio", ratio(memory, storeless));
    out.set("store.base_ms", storeless);
    out.set("store.stdfs_ratio", ratio(stdfs, memory));
    out.set("store.memfs_ms", memory);
    out.set("store.bytes_written", bytes as f64);
    Ok(())
}
