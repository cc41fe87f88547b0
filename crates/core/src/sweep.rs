//! The resilient sweep runner: characterization sweeps that survive the
//! process running them.
//!
//! A sweep is a list of [`ProfileJob`] cells (cluster × model × batch).
//! Run against a [`ResultStore`], each cell is *consult-first*: a
//! verified on-disk record is decoded and reused bit-identically
//! ([`CellStatus::Resumed`]); a missing, quarantined or stale record is
//! recomputed through the shared [`MeasurementCache`] on the parallel
//! in-order executor and durably stored, in input order, on the calling
//! thread. Intent and progress go through the store's write-ahead
//! journal: a `plan` line for every cell before any work starts, then
//! `done`/`fail` per cell as it commits — so a sweep killed mid-write
//! resumes the *whole* grid (including cells it never reached) and
//! re-runs only those whose records do not verify. The engine being
//! deterministic, the resumed store converges to the same bytes an
//! uninterrupted run produces, whatever the worker count.
//!
//! Failure is graceful by construction: store I/O goes through the retry
//! policy, profile errors are permanent and typed, and a failed cell is
//! recorded with its [`FailReason`] while the sweep continues — one sick
//! cell costs one row in the results, never the run.

use std::io;

use serde::Serialize;
use stash_dnn::dataset::DatasetSpec;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_store::journal::JournalEntry;
use stash_store::prelude::{with_retry, FailReason, Fetch, ResultStore, RetryPolicy};
use stash_store::{key_hex, Fnv128};

use crate::cache::MeasurementCache;
use crate::error::ProfileError;
use crate::profiler::{in_order, profile_threads, ProfileJob, Stash};
use crate::report::StallReport;

/// Schema tag stamped into every cell record payload and journal plan.
pub const CELL_SCHEMA: &str = "stash-cell-v1";

/// How a cell's result came to be.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CellStatus {
    /// Simulated in this run (and stored, when a store was given).
    Computed,
    /// Served bit-identically from a verified store record.
    Resumed,
    /// Permanently failed; the sweep continued without it.
    Failed(FailReason),
}

impl CellStatus {
    /// The CSV `status` column value.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            CellStatus::Computed => "computed",
            CellStatus::Resumed => "resumed",
            CellStatus::Failed(reason) => reason.code(),
        }
    }
}

/// One sweep cell's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct CellOutcome {
    /// The cell's content-address in the store (32-hex form).
    pub key: String,
    /// Cluster display name.
    pub cluster: String,
    /// Model name.
    pub model: String,
    /// Per-GPU batch size.
    pub per_gpu_batch: u64,
    /// The characterization, when one was produced.
    pub report: Option<StallReport>,
    /// How it was produced (or why not).
    pub status: CellStatus,
}

/// The whole sweep's outcome, in input cell order.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SweepOutcome {
    /// Per-cell outcomes, in input order.
    pub cells: Vec<CellOutcome>,
}

impl SweepOutcome {
    /// Cells that failed permanently.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Failed(_)))
            .count()
    }

    /// Cells served from the store without simulation.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Resumed)
            .count()
    }

    /// Cells simulated in this run.
    #[must_use]
    pub fn computed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Computed)
            .count()
    }

    /// The successful reports, in input order.
    pub fn reports(&self) -> impl Iterator<Item = &StallReport> {
        self.cells.iter().filter_map(|c| c.report.as_ref())
    }

    /// The canonical results CSV. Deterministic: byte-identical for
    /// byte-identical outcomes, which is what the differential and
    /// crash-resume gates compare. The `status` column distinguishes
    /// `computed` from `resumed` rows and carries the typed failure code
    /// for failed cells.
    #[must_use]
    pub fn results_csv(&self) -> String {
        let mut out = String::from(
            "cluster,model,per_gpu_batch,world,t1_ns,t2_ns,t3_ns,t4_ns,t5_ns,\
             interconnect_stall_pct,network_stall_pct,cpu_stall_pct,disk_stall_pct,status\n",
        );
        let ns = |t: Option<stash_simkit::time::SimDuration>| {
            t.map_or_else(String::new, |t| t.as_nanos().to_string())
        };
        let pc = |p: Option<f64>| p.map_or_else(String::new, |p| format!("{p:.4}"));
        for cell in &self.cells {
            let (times, pcts, world) = match &cell.report {
                Some(r) => (
                    [
                        ns(r.times.t1),
                        ns(r.times.t2),
                        ns(r.times.t3),
                        ns(r.times.t4),
                        ns(r.times.t5),
                    ],
                    [
                        pc(r.interconnect_stall_pct()),
                        pc(r.network_stall_pct()),
                        pc(r.cpu_stall_pct()),
                        pc(r.disk_stall_pct()),
                    ],
                    r.world.to_string(),
                ),
                None => (
                    std::array::from_fn(|_| String::new()),
                    std::array::from_fn(|_| String::new()),
                    String::new(),
                ),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                cell.cluster,
                cell.model,
                cell.per_gpu_batch,
                world,
                times[0],
                times[1],
                times[2],
                times[3],
                times[4],
                pcts[0],
                pcts[1],
                pcts[2],
                pcts[3],
                cell.status.code(),
            ));
        }
        out
    }
}

/// The cell's self-describing journal/plan descriptor: everything
/// [`decode_cell_descriptor`] needs to reconstruct the job on resume.
#[must_use]
pub fn cell_descriptor(job: &ProfileJob) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    m.insert("schema".to_string(), CELL_SCHEMA.to_json_value());
    m.insert(
        "cluster".to_string(),
        job.cluster.display_name().to_json_value(),
    );
    m.insert("model".to_string(), job.stash.model().name.to_json_value());
    m.insert(
        "per_gpu_batch".to_string(),
        job.stash.per_gpu_batch().to_json_value(),
    );
    m.insert(
        "sampled_iterations".to_string(),
        job.stash.sampled_iterations().to_json_value(),
    );
    m.insert(
        "epoch_samples".to_string(),
        match job.stash.epoch_samples_override() {
            Some(n) => n.to_json_value(),
            None => serde_json::Value::Null,
        },
    );
    m.insert(
        "dataset".to_string(),
        job.stash.dataset().name.to_json_value(),
    );
    serde_json::Value::Object(m)
}

/// Reconstructs a sweep cell from its journal `plan` descriptor (the
/// JSON text of a [`cell_descriptor`]), so a resumed sweep or a store
/// repair re-runs exactly what the interrupted sweep intended.
///
/// # Errors
///
/// A description of what made the descriptor unusable: malformed JSON, a
/// wrong or missing schema tag, a missing field, an unknown model or
/// cluster, or a dataset other than the one the model trains on.
pub fn decode_cell_descriptor(text: &str) -> Result<ProfileJob, String> {
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("journal plan is not JSON: {e}"))?;
    match v.get("schema").and_then(serde_json::Value::as_str) {
        Some(CELL_SCHEMA) => {}
        Some(other) => return Err(format!("unknown journal plan schema '{other}'")),
        None => return Err("journal plan missing schema tag".to_string()),
    }
    let str_field = |k: &str| {
        v.get(k)
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("journal plan missing '{k}'"))
    };
    let u64_field = |k: &str| {
        v.get(k)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("journal plan missing '{k}'"))
    };
    let cluster = ClusterSpec::parse(str_field("cluster")?)?;
    let model_name = str_field("model")?;
    let model = zoo::by_name(model_name).ok_or_else(|| format!("unknown model '{model_name}'"))?;
    let dataset = DatasetSpec::for_model(&model);
    let mut stash = Stash::new(model)
        .with_batch(u64_field("per_gpu_batch")?)
        .with_dataset(dataset)
        .with_sampled_iterations(u64_field("sampled_iterations")?);
    if let Some(samples) = v.get("epoch_samples").and_then(serde_json::Value::as_u64) {
        stash = stash.with_epoch_samples(samples);
    }
    let planned = str_field("dataset")?;
    if planned != stash.dataset().name {
        return Err(format!(
            "journal plan dataset '{planned}' does not match '{}' derived for the model",
            stash.dataset().name
        ));
    }
    Ok(ProfileJob { stash, cluster })
}

/// The cell's content address: FNV-128 over the canonical JSON of the
/// *full* profiler configuration plus the cluster display name — the
/// same derivation family as `cache::config_key`, so equal cells share a
/// key and (the engine being deterministic) bit-identical records.
///
/// The model's layers are serialized and hashed one at a time, in the
/// place the whole document holds them: the hashed bytes are the same,
/// but no value tree of the whole model is built (≈0.2 MB for
/// ResNet-50).
#[must_use]
pub fn cell_key(job: &ProfileJob) -> u128 {
    let mut shell = job.stash.clone();
    let layers = std::mem::take(&mut shell.model.layers);
    let mut m = serde_json::Map::new();
    m.insert("schema".to_string(), CELL_SCHEMA.to_json_value());
    m.insert(
        "cluster".to_string(),
        job.cluster.display_name().to_json_value(),
    );
    m.insert(
        "stash".to_string(),
        serde_json::to_value(&shell).unwrap_or(serde_json::Value::Null),
    );
    let Ok(canonical) = serde_json::to_string(&serde_json::Value::Object(m)) else {
        unreachable!("value serialization is infallible")
    };
    // The first empty `layers` array is the model's: the model is the
    // first field of the stash, and strings escape their quotes.
    let Some((head, tail)) = canonical.split_once(r#""layers":[]"#) else {
        unreachable!("a model serializes its layers")
    };
    let mut h = Fnv128::new();
    h.update(head.as_bytes());
    h.update(br#""layers":["#);
    for (i, layer) in layers.iter().enumerate() {
        if i > 0 {
            h.update(b",");
        }
        h.update(serde_json::to_string(layer).unwrap_or_default().as_bytes());
    }
    h.update(b"]");
    h.update(tail.as_bytes());
    h.finish()
}

/// Encodes a cell's record payload: canonical compact JSON wrapping the
/// descriptor and the report.
#[must_use]
pub fn encode_cell_record(job: &ProfileJob, report: &StallReport) -> Vec<u8> {
    let mut m = serde_json::Map::new();
    m.insert("schema".to_string(), CELL_SCHEMA.to_json_value());
    m.insert("cell".to_string(), cell_descriptor(job));
    m.insert(
        "report".to_string(),
        serde_json::to_value(report).unwrap_or(serde_json::Value::Null),
    );
    serde_json::to_string(&serde_json::Value::Object(m))
        .unwrap_or_default()
        .into_bytes()
}

/// Decodes a record payload back to its report, validating the schema
/// tag.
///
/// # Errors
///
/// A description of what made the payload unusable (wrong schema,
/// malformed JSON, missing fields).
pub fn decode_cell_record(payload: &[u8]) -> Result<StallReport, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("record not UTF-8: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("record not JSON: {e}"))?;
    match v.get("schema").and_then(serde_json::Value::as_str) {
        Some(CELL_SCHEMA) => {}
        Some(other) => return Err(format!("unknown record schema '{other}'")),
        None => return Err("record missing schema tag".to_string()),
    }
    let report = v.get("report").ok_or("record missing report")?;
    StallReport::from_json_value(report)
}

/// Journal writes are an optimization hint, not the source of truth
/// (resume re-verifies records), so after retries are exhausted the
/// sweep proceeds without the entry rather than failing the cell.
fn journal_best_effort(store: &ResultStore, policy: &RetryPolicy, entry: &JournalEntry) {
    let journal = store.journal();
    let _ = with_retry(policy, || journal.append(store.io(), entry));
}

/// What consulting the store decided for one cell, before any
/// simulation runs.
enum Consult {
    /// A verified record decoded to this report.
    Resumed(StallReport),
    /// The store read failed permanently.
    Failed(FailReason),
    /// The cell must be simulated. `recheck` defers the store lookup to
    /// the cell's commit: an earlier cell with the same key commits
    /// first, and its write is what a serial run would read back (the
    /// cache makes the duplicate's simulation nearly free).
    Simulate { recheck: bool },
}

/// Runs a sweep over `jobs`, optionally backed by a durable store.
///
/// Cells are simulated on [`profile_threads`] workers through the same
/// in-order executor as [`par_profile_many`] (one arena per worker, the
/// shared `cache` deduplicating reference-instance measurements) and
/// committed on the calling thread in input order. With a store, the
/// sweep runs in three phases: every cell's key is computed once and its
/// `plan` line journaled; every cell is consulted in input order, a
/// verified record being the cell's result; then the misses are
/// simulated and each result is framed, atomically written and
/// journaled once every earlier cell has been. Every store operation
/// runs on the calling thread, so the journal and the order of record
/// writes do not depend on the worker count; only the reads move ahead
/// of the writes. A killed sweep loses at most the computed cells still
/// waiting to commit: those behind an earlier cell that is still being
/// simulated, or that arrived while the calling thread was simulating a
/// cell of its own. Without a store, this is a plain storeless sweep
/// producing the identical reports and CSV.
///
/// Never aborts on a failed cell: failures land in the outcome with
/// typed reasons, and the caller maps `outcome.failed() > 0` to its
/// distinct exit class.
///
/// [`par_profile_many`]: crate::profiler::par_profile_many
#[must_use]
pub fn run_sweep(
    jobs: &[ProfileJob],
    store: Option<&ResultStore>,
    policy: &RetryPolicy,
    cache: &MeasurementCache,
) -> SweepOutcome {
    run_sweep_on(jobs, store, policy, cache, profile_threads())
}

/// [`run_sweep`] on an explicit number of simulation workers.
pub(crate) fn run_sweep_on(
    jobs: &[ProfileJob],
    store: Option<&ResultStore>,
    policy: &RetryPolicy,
    cache: &MeasurementCache,
    workers: usize,
) -> SweepOutcome {
    let keys: Vec<u128> = jobs.iter().map(cell_key).collect();
    let hexes: Vec<String> = keys.iter().map(|&key| key_hex(key)).collect();

    // Phase 1, write-ahead intent: journal a plan line for *every* cell
    // before any work starts, so a sweep killed in cell 2 of 10 still
    // resumes all ten — including the cells it never reached.
    if let Some(store) = store {
        for (job, hex) in jobs.iter().zip(&hexes) {
            let descriptor = serde_json::to_string(&cell_descriptor(job)).unwrap_or_default();
            journal_best_effort(store, policy, &JournalEntry::plan(hex, &descriptor));
        }
    }

    // Phase 2, consult-first: a verified record is the result. Nothing
    // is journaled yet; each cell's line is written at its commit.
    let mut consults = Vec::with_capacity(jobs.len());
    let mut uncommitted = std::collections::HashSet::new();
    for &key in &keys {
        let consult = match store {
            None => Consult::Simulate { recheck: false },
            Some(_) if uncommitted.contains(&key) => Consult::Simulate { recheck: true },
            Some(store) => consult(store, policy, key),
        };
        if !matches!(consult, Consult::Resumed(_)) {
            uncommitted.insert(key);
        }
        consults.push(consult);
    }

    // Phase 3: simulate the misses, committing every cell in input order.
    let misses: Vec<usize> = (0..jobs.len())
        .filter(|&i| matches!(consults[i], Consult::Simulate { .. }))
        .collect();
    let mut consults = consults.into_iter();
    let mut cells = Vec::with_capacity(jobs.len());
    // Commits every cell up to and including `last`: the consulted ones
    // from their consult, `last` itself from its simulation `result`.
    let mut commit_through =
        |last: usize, mut result: Option<Result<StallReport, ProfileError>>| {
            while cells.len() <= last {
                let i = cells.len();
                let Some(consult) = consults.next() else {
                    break;
                };
                let delivered = if i == last { result.take() } else { None };
                let (report, status) = match (consult, delivered) {
                    (Consult::Resumed(report), None) => (Some(report), CellStatus::Resumed),
                    (Consult::Failed(reason), None) => (None, CellStatus::Failed(reason)),
                    (Consult::Simulate { recheck }, Some(result)) => {
                        simulated(store, policy, &jobs[i], keys[i], recheck, result)
                    }
                    _ => unreachable!("exactly the simulated cells are delivered"),
                };
                if let Some(store) = store {
                    journal_status(store, policy, &hexes[i], &status);
                }
                cells.push(CellOutcome {
                    key: hexes[i].clone(),
                    cluster: jobs[i].cluster.display_name(),
                    model: jobs[i].stash.model().name.clone(),
                    per_gpu_batch: jobs[i].stash.per_gpu_batch(),
                    report,
                    status,
                });
            }
        };
    in_order(
        misses.len(),
        workers,
        |k, arena| {
            let job = &jobs[misses[k]];
            job.stash
                .profile_serial_in(&job.cluster, Some(cache), arena)
        },
        |k, result| commit_through(misses[k], Some(result)),
    );
    commit_through(jobs.len(), None);
    SweepOutcome { cells }
}

/// Consults the store for one cell.
fn consult(store: &ResultStore, policy: &RetryPolicy, key: u128) -> Consult {
    match with_retry(policy, || store.get(key).map_err(io::Error::other)) {
        // A verified hit whose payload decodes is the result; a valid
        // frame with a stale/foreign payload is recomputed and
        // overwritten.
        Ok(Fetch::Hit(payload)) => match decode_cell_record(&payload) {
            Ok(report) => Consult::Resumed(report),
            Err(_) => Consult::Simulate { recheck: false },
        },
        // Miss or quarantined-corrupt: recompute.
        Ok(Fetch::Miss | Fetch::Quarantined { .. }) => Consult::Simulate { recheck: false },
        Err(reason) => Consult::Failed(reason),
    }
}

/// The outcome of a simulated cell: the deferred lookup when `recheck`,
/// then, with a store, the durable write of a fresh result. Profile
/// errors are permanent: typed, never retried.
fn simulated(
    store: Option<&ResultStore>,
    policy: &RetryPolicy,
    job: &ProfileJob,
    key: u128,
    recheck: bool,
    result: Result<StallReport, ProfileError>,
) -> (Option<StallReport>, CellStatus) {
    if let (Some(store), true) = (store, recheck) {
        match consult(store, policy, key) {
            Consult::Resumed(report) => return (Some(report), CellStatus::Resumed),
            Consult::Failed(reason) => return (None, CellStatus::Failed(reason)),
            Consult::Simulate { .. } => {}
        }
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            let reason = FailReason::Profile {
                error: e.to_string(),
            };
            return (None, CellStatus::Failed(reason));
        }
    };
    let Some(store) = store else {
        return (Some(report), CellStatus::Computed);
    };
    let payload = encode_cell_record(job, &report);
    match with_retry(policy, || {
        store.put(key, &payload).map_err(io::Error::other)
    }) {
        Ok(()) => (Some(report), CellStatus::Computed),
        // Computed but not durable: report the result, flag the cell —
        // a resumed run must re-run it.
        Err(reason) => (Some(report), CellStatus::Failed(reason)),
    }
}

/// Journals a committed cell's `done` or `fail` line.
fn journal_status(store: &ResultStore, policy: &RetryPolicy, hex: &str, status: &CellStatus) {
    let entry = match status {
        CellStatus::Failed(reason) => JournalEntry::fail(hex, &reason.to_json()),
        CellStatus::Computed | CellStatus::Resumed => JournalEntry::done(hex),
    };
    journal_best_effort(store, policy, &entry);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::profiler::Stash;
    use stash_dnn::zoo;
    use stash_hwtopo::cluster::ClusterSpec;
    use stash_hwtopo::instance::{p3_2xlarge, p3_8xlarge};
    use stash_store::prelude::{FaultFs, IoFaultPlan, StdFs};
    use std::path::PathBuf;

    fn jobs() -> Vec<ProfileJob> {
        let quick = |m| {
            Stash::new(m)
                .with_sampled_iterations(3)
                .with_epoch_samples(20_000)
        };
        vec![
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::single(p3_2xlarge()),
            },
            ProfileJob {
                stash: quick(zoo::resnet18()),
                cluster: ClusterSpec::single(p3_8xlarge()),
            },
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::homogeneous(p3_8xlarge(), 2),
            },
        ]
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stash_sweep_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cell_keys_are_stable_and_distinct() {
        let jobs = jobs();
        assert_eq!(cell_key(&jobs[0]), cell_key(&jobs[0]));
        assert_ne!(cell_key(&jobs[0]), cell_key(&jobs[1]));
        assert_ne!(cell_key(&jobs[1]), cell_key(&jobs[2]));
    }

    #[test]
    fn cell_keys_hash_the_whole_configuration_document() {
        for (model, _) in zoo::all_models() {
            for cluster in [
                ClusterSpec::single(p3_2xlarge()),
                ClusterSpec::homogeneous(p3_8xlarge(), 2),
            ] {
                let job = ProfileJob {
                    stash: Stash::new(model.clone()).with_epoch_samples(20_000),
                    cluster,
                };
                let document = serde_json::json!({
                    "schema": CELL_SCHEMA,
                    "cluster": job.cluster.display_name(),
                    "stash": job.stash
                });
                let whole = serde_json::to_string(&document).unwrap();
                assert_eq!(
                    cell_key(&job),
                    stash_store::fnv128(whole.as_bytes()),
                    "{}",
                    model.name
                );
            }
        }
    }

    #[test]
    fn cell_descriptors_decode_to_the_same_cell() {
        for (model, _) in zoo::all_models() {
            for cluster in [
                ClusterSpec::single(p3_2xlarge()),
                ClusterSpec::homogeneous(p3_8xlarge(), 2),
            ] {
                for epoch_samples in [None, Some(20_000)] {
                    let dataset = DatasetSpec::for_model(&model);
                    let mut stash = Stash::new(model.clone())
                        .with_batch(32)
                        .with_dataset(dataset)
                        .with_sampled_iterations(6);
                    if let Some(n) = epoch_samples {
                        stash = stash.with_epoch_samples(n);
                    }
                    let job = ProfileJob {
                        stash,
                        cluster: cluster.clone(),
                    };
                    let text = serde_json::to_string(&cell_descriptor(&job)).unwrap();
                    let decoded = decode_cell_descriptor(&text).unwrap();
                    assert_eq!(cell_key(&decoded), cell_key(&job), "{text}");
                }
            }
        }

        // AlexNet on ImageNet: doctor one field of its descriptor text.
        let text = serde_json::to_string(&cell_descriptor(&jobs()[0])).unwrap();
        let rejects = |from: &str, to: &str, want: &str| {
            assert!(text.contains(from), "{text}");
            match decode_cell_descriptor(&text.replace(from, to)) {
                Err(e) => assert!(e.contains(want), "{e}"),
                Ok(_) => panic!("accepted a descriptor that should fail with '{want}'"),
            }
        };
        rejects(CELL_SCHEMA, "stash-cell-v0", "unknown journal plan schema");
        rejects("\"schema\"", "\"tag\"", "missing schema tag");
        rejects("\"per_gpu_batch\"", "\"batch\"", "missing 'per_gpu_batch'");
        rejects("ImageNet1k", "SQuAD 2.0", "does not match 'ImageNet1k'");
        rejects("{", "{ not json", "not JSON");
    }

    #[test]
    fn record_payload_round_trips() {
        let jobs = jobs();
        let report = jobs[0].stash.profile_serial(&jobs[0].cluster).unwrap();
        let payload = encode_cell_record(&jobs[0], &report);
        assert_eq!(decode_cell_record(&payload).unwrap(), report);
        assert!(decode_cell_record(b"not json").is_err());
        assert!(decode_cell_record(b"{\"schema\":\"other\"}").is_err());
        assert!(decode_cell_record(b"{}").is_err());
    }

    #[test]
    fn storeless_and_stored_sweeps_are_bit_identical() {
        let jobs = jobs();
        let policy = RetryPolicy::default();
        let storeless = run_sweep(&jobs, None, &policy, &MeasurementCache::new());
        assert_eq!(storeless.failed(), 0);
        assert_eq!(storeless.computed(), jobs.len());

        let root = tmp("differential");
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        let stored = run_sweep(&jobs, Some(&store), &policy, &MeasurementCache::new());
        assert_eq!(stored.failed(), 0);
        assert_eq!(storeless.results_csv(), stored.results_csv());

        // Second run over the same store: everything resumes, reports
        // and CSV rows (modulo the status column) stay bit-identical.
        let resumed = run_sweep(&jobs, Some(&store), &policy, &MeasurementCache::new());
        assert_eq!(resumed.resumed(), jobs.len());
        assert_eq!(resumed.computed(), 0);
        let strip_status = |csv: &str| {
            csv.lines()
                .map(|l| {
                    l.rsplit_once(',')
                        .map_or(l.to_string(), |(a, _)| a.to_string())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            strip_status(&stored.results_csv()),
            strip_status(&resumed.results_csv())
        );
        let reports: Vec<_> = stored.reports().cloned().collect();
        let reports_resumed: Vec<_> = resumed.reports().cloned().collect();
        assert_eq!(reports, reports_resumed);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn seeded_faults_recover_to_identical_bytes() {
        let jobs = jobs();
        let policy = RetryPolicy {
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let clean_root = tmp("faults_clean");
        let clean = ResultStore::open(&clean_root, Box::new(StdFs::new())).unwrap();
        let clean_out = run_sweep(&jobs, Some(&clean), &policy, &MeasurementCache::new());
        assert_eq!(clean_out.failed(), 0);

        let faulty_root = tmp("faults_faulty");
        let faulty = ResultStore::open(
            &faulty_root,
            Box::new(FaultFs::new(IoFaultPlan::seeded(11))),
        )
        .unwrap();
        let faulty_out = run_sweep(&jobs, Some(&faulty), &policy, &MeasurementCache::new());
        assert_eq!(faulty_out.failed(), 0, "seeded faults must be recoverable");
        assert_eq!(clean_out.results_csv(), faulty_out.results_csv());

        // The record *files* converge byte-identically.
        for key in clean.keys().unwrap() {
            let a = std::fs::read(clean.record_path(key)).unwrap();
            let b = std::fs::read(faulty.record_path(key)).unwrap();
            assert_eq!(a, b, "record {} diverged", key_hex(key));
        }
        assert_eq!(clean.keys().unwrap(), faulty.keys().unwrap());
        let _ = std::fs::remove_dir_all(&clean_root);
        let _ = std::fs::remove_dir_all(&faulty_root);
    }

    #[test]
    fn profile_failures_degrade_gracefully() {
        use stash_hwtopo::instance::p3_16xlarge;
        let quick = |m| {
            Stash::new(m)
                .with_sampled_iterations(3)
                .with_epoch_samples(20_000)
        };
        let jobs = vec![
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::single(p3_2xlarge()),
            },
            // 3x p3.16xlarge = 24 GPUs: no single-instance reference
            // exists, so this cell fails permanently.
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::homogeneous(p3_16xlarge(), 3),
            },
        ];
        let root = tmp("degrade");
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        let out = run_sweep(
            &jobs,
            Some(&store),
            &RetryPolicy::default(),
            &MeasurementCache::new(),
        );
        assert_eq!(out.failed(), 1);
        assert_eq!(out.computed(), 1);
        assert!(matches!(
            out.cells[1].status,
            CellStatus::Failed(FailReason::Profile { .. })
        ));
        let csv = out.results_csv();
        assert!(csv.contains("profile-error"));
        // The journal carries the typed reason.
        let replay = store.journal().replay(store.io()).unwrap();
        assert!(replay
            .entries
            .iter()
            .any(|e| e.op == "fail" && e.detail.contains("Profile")));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_cell_between_computed_cells_commits_in_input_order() {
        use stash_hwtopo::instance::p3_16xlarge;
        let mut jobs = jobs();
        // 3x p3.16xlarge = 24 GPUs: no reference instance, so the cell
        // fails while its neighbours on either side are simulated.
        jobs.insert(
            1,
            ProfileJob {
                stash: jobs[0].stash.clone(),
                cluster: ClusterSpec::homogeneous(p3_16xlarge(), 3),
            },
        );
        let policy = RetryPolicy::default();
        let mut journals = Vec::new();
        for workers in [1, 4] {
            let root = tmp(&format!("order_{workers}"));
            let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
            let out = run_sweep_on(
                &jobs,
                Some(&store),
                &policy,
                &MeasurementCache::new(),
                workers,
            );
            let codes: Vec<&str> = out.cells.iter().map(|c| c.status.code()).collect();
            assert_eq!(codes, ["computed", "profile-error", "computed", "computed"]);
            let keys: Vec<String> = jobs.iter().map(|j| key_hex(cell_key(j))).collect();
            let cell_keys: Vec<String> = out.cells.iter().map(|c| c.key.clone()).collect();
            assert_eq!(cell_keys, keys);

            // N plan lines, then one done/fail line per cell, both in
            // input order.
            let replay = store.journal().replay(store.io()).unwrap();
            let (plans, commits) = replay.entries.split_at(jobs.len());
            let ops: Vec<&str> = replay.entries.iter().map(|e| e.op.as_str()).collect();
            assert_eq!(
                ops,
                ["plan", "plan", "plan", "plan", "done", "fail", "done", "done"]
            );
            for lines in [plans, commits] {
                let order: Vec<String> = lines.iter().map(|e| e.key.clone()).collect();
                assert_eq!(order, keys);
            }

            // The failed cell's neighbours are stored.
            for i in [0, 2] {
                assert!(matches!(
                    store.get(cell_key(&jobs[i])).unwrap(),
                    Fetch::Hit(_)
                ));
            }
            assert!(matches!(
                store.get(cell_key(&jobs[1])).unwrap(),
                Fetch::Miss
            ));
            journals.push(std::fs::read(store.journal().path()).unwrap());
            let _ = std::fs::remove_dir_all(&root);
        }
        assert_eq!(journals[0], journals[1], "journal bytes depend on workers");
    }

    #[test]
    fn duplicate_cells_read_back_the_earlier_commit() {
        let jobs = jobs();
        let jobs = vec![jobs[0].clone(), jobs[1].clone(), jobs[0].clone()];
        for workers in [1, 4] {
            let root = tmp(&format!("dup_{workers}"));
            let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
            let out = run_sweep_on(
                &jobs,
                Some(&store),
                &RetryPolicy::default(),
                &MeasurementCache::new(),
                workers,
            );
            let statuses: Vec<&str> = out.cells.iter().map(|c| c.status.code()).collect();
            assert_eq!(statuses, ["computed", "computed", "resumed"]);
            assert_eq!(out.cells[0].report, out.cells[2].report);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
