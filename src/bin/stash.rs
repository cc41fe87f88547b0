//! `stash` — the command-line profiler.
//!
//! ```text
//! stash catalog                          list the AWS instance catalog
//! stash models                           list the model zoo
//! stash profile <model> <cluster> [-b N] run the 5-step methodology
//! stash advise <model> [-b N] [--cost]   rank all candidate clusters
//! stash probe <instance>                 per-GPU PCIe bandwidth probe
//! stash trace <instance> <model>         traced epoch + Chrome trace JSON
//!             [--out PATH] [-b N]        (either argument order works)
//! stash report <instance> <model>        critical-path stall report:
//!             [--out PATH] [-b N]        self-contained HTML + JSON
//! stash diff <baseline.json> <cur.json>  flag per-category stall (or, for
//!             [--threshold FRAC]         telemetry docs, simulator-health)
//!                                        regressions (non-zero exit)
//! stash chaos <instance> <model>         faulted epoch under a seeded or
//!             [--seed N] [--plan FILE]   file-provided fault plan, with a
//!             [--out PATH] [-b N]        JSON resilience report
//!             [--flight PATH]            (+ last-events flight recording
//!                                        dumped to PATH on failure)
//! stash perf <cluster|sweep> <model>     simulator self-telemetry for one
//!             [-b N] [--out BASE]        profile or a candidate sweep:
//!             [--format csv]             BASE.json + BASE.prom
//!                                        (+ BASE.csv with --format csv)
//! stash dash <results-dir>               fleet stall dashboard from the
//!             [--out PATH]               stash-series-v1 docs in the dir
//!                                        (simulates a default sweep when
//!                                        the dir has none), validated
//!                                        self-contained HTML
//! stash sweep [--models A,B]             durable characterization sweep:
//!             [--clusters X,Y] [-b N]    consult-first cells against a
//!             [--iters N]                checksummed result store with a
//!             [--store DIR] [--resume]   write-ahead journal; exit 2 when
//!             [--out CSV]                cells failed but the sweep
//!             [--io-fault-plan FILE]     finished (graceful degradation);
//!             [--io-fault-seed N]        deterministic I/O fault
//!             [--retries N]              injection for crash drills
//!             [--deadline-secs S]
//! stash fsck <store-dir> [--repair]      verify every store record's
//!                                        frame; quarantine corrupt ones
//!                                        and (with --repair) rebuild them
//!                                        from the journal, exit 2 when
//!                                        corruption remains
//! ```
//!
//! Cluster syntax matches the paper: `p3.16xlarge` or `p3.8xlarge*2`.

use std::process::ExitCode;

use stash::prelude::*;

/// Edit distance, for "did you mean" hints on unknown names.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest candidate within an edit distance of 3, if any.
fn nearest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    let name = name.to_lowercase();
    candidates
        .map(|c| (levenshtein(&name, &c.to_lowercase()), c))
        .filter(|&(d, _)| d <= 3)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

fn lookup_model(name: &str) -> Result<Model, String> {
    if let Some(m) = zoo::by_name(name) {
        return Ok(m);
    }
    let names: Vec<String> = zoo::all_models().into_iter().map(|(m, _)| m.name).collect();
    Err(match nearest(name, names.iter().map(String::as_str)) {
        Some(s) => format!("unknown model '{name}' — did you mean '{s}'? (try `stash models`)"),
        None => format!("unknown model '{name}' (try `stash models`)"),
    })
}

fn parse_cluster(spec: &str) -> Result<ClusterSpec, String> {
    ClusterSpec::parse(spec).map_err(|e| {
        let cat = catalog();
        let inst = spec.split('*').next().unwrap_or(spec);
        let hint = nearest(inst, cat.iter().map(|i| i.name.as_str()))
            .map(|s| format!(" — did you mean '{s}'?"))
            .unwrap_or_default();
        format!(
            "{e}{hint} (known instances: {})",
            cat.iter()
                .map(|i| i.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// A command's outcome: its exit code, or a message for stderr and exit
/// code 1.
type CmdResult = Result<ExitCode, String>;

/// The value after the first of `names` in `args`: `None` when the flag
/// is absent, an error when it is the last argument.
fn flag_val<'a>(args: &'a [String], names: &[&str]) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| names.contains(&a.as_str())) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{} wants a value", args[i])),
        },
    }
}

/// [`flag_val`] parsed as a `T` that passes `valid`; `want` describes
/// the accepted values in the error.
fn flag_parse<T: std::str::FromStr>(
    args: &[String],
    names: &[&str],
    want: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    let Some(v) = flag_val(args, names)? else {
        return Ok(None);
    };
    match v.parse() {
        Ok(x) if valid(&x) => Ok(Some(x)),
        _ => Err(format!("{} wants {want}, got '{v}'", names[0])),
    }
}

/// `-b`/`--batch`, default 32.
fn parse_batch(args: &[String]) -> Result<u64, String> {
    let batch = flag_parse(args, &["-b", "--batch"], "a positive integer", |&b| b >= 1)?;
    Ok(batch.unwrap_or(32))
}

fn stash_for(model: Model, batch: u64) -> Stash {
    let dataset = DatasetSpec::for_model(&model);
    Stash::new(model).with_batch(batch).with_dataset(dataset)
}

/// The model and cluster a command runs, from its first two positionals
/// in either order: `p3.2xlarge resnet50` (the paper's instance-first
/// habit) or `resnet50 p3.8xlarge*2`.
struct Subject<'a> {
    model: Model,
    cluster: ClusterSpec,
    model_name: &'a str,
    cluster_spec: &'a str,
}

impl<'a> Subject<'a> {
    fn parse(args: &'a [String], usage: &str) -> Result<Subject<'a>, String> {
        let (Some(first), Some(second)) = (args.first(), args.get(1)) else {
            return Err(usage.to_string());
        };
        // Instance first when the second names a model or the first names
        // an instance; otherwise model first, so a misspelt name gets the
        // suggestion for its own kind.
        let instance_first = zoo::by_name(first).is_none()
            && (zoo::by_name(second).is_some() || ClusterSpec::parse(first).is_ok());
        let (model_name, cluster_spec) = if instance_first {
            (second, first)
        } else {
            (first, second)
        };
        Ok(Subject {
            model: lookup_model(model_name)?,
            cluster: parse_cluster(cluster_spec)?,
            model_name,
            cluster_spec,
        })
    }
}

/// `<model>_<cluster>`, for default output file names.
fn slug(model_name: &str, cluster_spec: &str) -> String {
    format!(
        "{}_{}",
        model_name.to_lowercase(),
        cluster_spec.replace('*', "x")
    )
}

fn write_creating_dirs(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn pretty(doc: &serde_json::Value) -> Result<String, String> {
    serde_json::to_string_pretty(doc).map_err(|e| format!("cannot serialize JSON: {e}"))
}

/// The window `trace` and `report` simulate: 12 sampled iterations on
/// real warm-cache data, so fetch, prep, H2D upload, compute and
/// all-reduce each show on their own track.
fn traced_window(s: &Subject, batch: u64) -> TrainConfig {
    let mut cfg = TrainConfig::synthetic(s.cluster.clone(), s.model.clone(), batch, batch * 12);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
    cfg.data = DataMode::Real {
        dataset: DatasetSpec::for_model(&s.model),
        cache: CacheState::Warm,
    };
    cfg
}

/// Runs `cfg` (under `plan`) into a JSON trace sink and returns the run
/// with the recorded events.
fn run_traced(
    cfg: &TrainConfig,
    plan: Option<&FaultPlan>,
) -> Result<(Run, Vec<(u32, TraceEvent)>), TrainError> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let spec = RunSpec {
        plan,
        tracer: Some(&tracer),
        ..RunSpec::default()
    };
    let run = run(cfg, spec)?;
    let events = sink.borrow().events().to_vec();
    Ok((run, events))
}

/// The rank-0 critical-path decomposition of a traced window.
fn rank0_path(events: &[(u32, TraceEvent)]) -> CriticalPath {
    CriticalPath::from_events(events, 0, Track::gpu(0, 0))
}

/// Runs `cfg` (under `plan`) recording its iteration series, telemetry
/// switched on for the duration. The series engine is a pure observer,
/// so the report never disagrees with a plain run of the same config —
/// the zoo-wide differential test proves bit-identity.
fn run_series(cfg: &TrainConfig, plan: Option<&FaultPlan>) -> Result<Run, TrainError> {
    let was_enabled = stash::telemetry::enabled();
    stash::telemetry::enable();
    let spec = RunSpec {
        plan,
        series: true,
        fast_forward: true,
        ..RunSpec::default()
    };
    let out = run(cfg, spec);
    if !was_enabled {
        stash::telemetry::disable();
    }
    out
}

/// The run's `stash-series-v1` document, or `None` when it recorded no
/// samples.
fn series_doc(run: &Run) -> Option<serde_json::Value> {
    (!run.series.is_empty()).then(|| run.series.to_json(&run.report.series_meta()))
}

fn cmd_catalog() -> CmdResult {
    println!(
        "{:<13} {:>10} {:>6} {:<14} {:>9} {:>8}",
        "instance", "gpus", "vcpus", "interconnect", "net_gbps", "$/hr"
    );
    for i in catalog() {
        println!(
            "{:<13} {:>10} {:>6} {:<14} {:>9} {:>8.2}",
            i.name,
            format!("{}x{}", i.gpu_count, i.gpu.label()),
            i.vcpus,
            i.interconnect.label(),
            i.network_gbps,
            i.price_per_hour
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_models() -> CmdResult {
    println!(
        "{:<14} {:>12} {:>8} {:>12}",
        "model", "gradients_M", "layers", "sync_points"
    );
    for (m, _) in zoo::all_models() {
        println!(
            "{:<14} {:>12.2} {:>8} {:>12}",
            m.name,
            m.param_count() as f64 / 1e6,
            m.layer_count(),
            m.trainable_layer_count()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(args: &[String]) -> CmdResult {
    let s = Subject::parse(args, "usage: stash profile <model> <cluster> [-b batch]")?;
    let report = stash_for(s.model, parse_batch(args)?)
        .profile(&s.cluster)
        .map_err(|e| format!("profiling failed: {e}"))?;
    print!("{report}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_advise(args: &[String]) -> CmdResult {
    let Some(model_name) = args.first() else {
        return Err("usage: stash advise <model> [-b batch] [--cost|--time]".to_string());
    };
    let model = lookup_model(model_name)?;
    let objective = if args.iter().any(|a| a == "--time") {
        Objective::Time
    } else {
        Objective::Cost
    };
    let stash = stash_for(model, parse_batch(args)?);
    let advice = recommend(&stash, &default_candidates(), objective)
        .map_err(|e| format!("advisor failed: {e}"))?;
    println!("{:<16} {:>12} {:>10}", "cluster", "epoch", "cost $");
    for r in &advice.ranked {
        println!(
            "{:<16} {:>12} {:>10.2}",
            r.cluster_name,
            r.cost.epoch_time.to_string(),
            r.cost.epoch_cost
        );
    }
    for s in &advice.skipped {
        println!("{:<16} skipped: {}", s.cluster_name, s.reason);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_probe(args: &[String]) -> CmdResult {
    let Some(name) = args.first() else {
        return Err("usage: stash probe <instance>".to_string());
    };
    let Some(inst) = by_name(name) else {
        let cat = catalog();
        return Err(match nearest(name, cat.iter().map(|i| i.name.as_str())) {
            Some(s) => format!("unknown instance '{name}' — did you mean '{s}'?"),
            None => format!("unknown instance '{name}' (try `stash catalog`)"),
        });
    };
    let mut net = FlowNet::new();
    let topo = Topology::build(&ClusterSpec::single(inst), &mut net);
    let rates = topo.pcie_bandwidth_probe(&net, 0);
    println!(
        "per-GPU PCIe bandwidth with {} GPUs probing concurrently:",
        rates.len()
    );
    for (g, r) in rates.iter().enumerate() {
        println!("  gpu{g}: {:.2} GB/s", r / 1e9);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(args: &[String]) -> CmdResult {
    let s = Subject::parse(
        args,
        "usage: stash trace <instance> <model> [--out PATH] [-b batch]",
    )?;
    let out_path = flag_val(args, &["--out", "-o"])?.map_or_else(
        || format!("results/trace_{}.json", slug(s.model_name, s.cluster_spec)),
        str::to_string,
    );
    let mut cfg = traced_window(&s, parse_batch(args)?);
    // The per-iteration timeline below reads `EpochReport::trace`.
    cfg.record_trace = true;
    let (run, events) = run_traced(&cfg, None).map_err(|e| format!("trace failed: {e}"))?;
    let r = &run.report;

    println!(
        "{} | {} | batch {} x {} GPUs — per-iteration timeline",
        r.cluster, r.model, r.per_gpu_batch, r.world
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12}",
        "iter", "total", "data wait", "comm wait"
    );
    for s in &r.trace {
        println!(
            "{:>5} {:>12} {:>12} {:>12}",
            s.iteration,
            s.total.to_string(),
            s.data_wait.to_string(),
            s.comm_wait.to_string()
        );
    }
    println!(
        "host-bus utilisation: {:.1}%  |  throughput: {:.0} samples/s",
        r.host_bus_utilization * 100.0,
        r.throughput
    );

    let rollup = StallRollup::from_events(&events);
    println!(
        "\nper-category traced span time (raw, {} simulated iterations):",
        r.simulated_iterations
    );
    for (kind, category, total) in rollup.kind_totals() {
        println!("  {:<9} {:<13} {}", kind.label(), category.label(), total);
    }
    print!("\n{}", stash::trace::metrics::render_rollup(&rollup, None));

    let text = pretty(&stash::trace::chrome::export(&events))?;
    write_creating_dirs(&out_path, &text)?;
    let stats = stash::trace::chrome::validate(&text)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    println!(
        "\ntrace validated: {} spans / {} instants / {} counters on {} tracks (max depth {})",
        stats.spans, stats.instants, stats.counters, stats.tracks, stats.max_depth
    );
    println!("chrome trace written to {out_path} (open in chrome://tracing or Perfetto)");
    Ok(ExitCode::SUCCESS)
}

/// Resolves `--out BASE` (or the default) into `(html, json)` paths:
/// an explicit `.html`/`.json` extension names one file and derives the
/// sibling; anything else is treated as a base stem.
fn report_paths(base: &str) -> (String, String) {
    if let Some(stem) = base.strip_suffix(".html") {
        (base.to_string(), format!("{stem}.json"))
    } else if let Some(stem) = base.strip_suffix(".json") {
        (format!("{stem}.html"), base.to_string())
    } else {
        (format!("{base}.html"), format!("{base}.json"))
    }
}

fn cmd_report(args: &[String]) -> CmdResult {
    use stash::trace::report::{BlameRow, WhatIfRow};

    let s = Subject::parse(
        args,
        "usage: stash report <instance> <model> [--out PATH] [-b batch]",
    )?;
    let out_base = flag_val(args, &["--out", "-o"])?.map_or_else(
        || format!("results/report_{}", slug(s.model_name, s.cluster_spec)),
        str::to_string,
    );
    let (html_path, json_path) = report_paths(&out_base);
    let cfg = traced_window(&s, parse_batch(args)?);
    let (run, events) = run_traced(&cfg, None).map_err(|e| format!("report failed: {e}"))?;
    let (r, path) = (run.report, rank0_path(&events));

    // The critical path must balance the engine's own accounting to the
    // nanosecond, so each row's trace and engine columns are one value.
    println!(
        "{} | {} | batch {} x {} GPUs — critical-path reconciliation",
        r.cluster, r.model, r.per_gpu_batch, r.world
    );
    reconcile(&r, &path).map_err(|e| format!("critical path vs engine: {e}"))?;
    for stall in Stall::ALL {
        let ns = stall.of(&r);
        println!("  {:<9} trace {ns:>12}  engine {ns:>12}", stall.label());
    }

    let factor = r.iterations as f64 / r.simulated_iterations as f64;
    let mut report = InsightReport::from_path(&r.cluster, &r.model, r.world, factor, &path);
    report.epoch_ns = r.epoch_time.as_nanos();
    report.engine_compute_ns = r.compute_time.as_nanos();
    report.engine_data_wait_ns = r.data_wait.as_nanos();
    report.engine_comm_wait_ns = r.comm_wait.as_nanos();
    let series = run_series(&cfg, None).map_err(|e| format!("report failed: {e}"))?;
    report.series = series_doc(&series);
    report.blame = path
        .top_blamed(10)
        .into_iter()
        .map(|b| BlameRow {
            name: b.name.to_string(),
            arg: b.arg,
            category: b.category.label().to_string(),
            ns: b.contribution_ns,
        })
        .collect();

    // What-if table: every resource 2x faster, each cross-checked by
    // actually re-simulating on rescaled hardware.
    println!("\nwhat-if (2x faster), projected vs re-simulated window:");
    for res in WhatIfResource::ALL {
        let projected = project(&path, res, 2.0);
        let resim = match Resource::from_label(res.label()) {
            None => {
                eprintln!(
                    "  {:<15} has no hardware counterpart; skipping re-simulation",
                    res.label()
                );
                None
            }
            Some(hw) => {
                let mut cfg2 = cfg.clone();
                cfg2.cluster = s.cluster.scaled(hw, 2.0);
                match run_traced(&cfg2, None) {
                    Ok((_, events)) => Some(rank0_path(&events).wall_ns),
                    Err(e) => {
                        eprintln!("  {:<15} re-simulation failed: {e}", res.label());
                        None
                    }
                }
            }
        };
        if let Some(truth) = resim {
            let err = (projected as f64 - truth as f64).abs() / truth.max(1) as f64;
            let flag = if err > PROJECTION_TOLERANCE {
                "  (!) outside tolerance"
            } else {
                ""
            };
            println!(
                "  {:<15} projected {:>14} ns   re-sim {:>14} ns   err {:>5.1}%{flag}",
                res.label(),
                projected,
                truth,
                err * 100.0
            );
        }
        report.whatif.push(WhatIfRow {
            resource: res.label().to_string(),
            factor: 2.0,
            projected_wall_ns: projected,
            resim_wall_ns: resim,
        });
    }

    write_creating_dirs(&json_path, &pretty(&report.to_json())?)?;
    write_creating_dirs(&html_path, &report.to_html())?;
    println!(
        "\nreport written to {html_path} (open in any browser) and {json_path} (for `stash diff`)"
    );
    Ok(ExitCode::SUCCESS)
}

/// Prints one gate's notes and regressions; fails when any regressed.
fn gate_outcome(
    what: &str,
    notes: &[String],
    regressions: &[String],
    base_path: &str,
    cur_path: &str,
) -> ExitCode {
    for note in notes {
        println!("  {note}");
    }
    if regressions.is_empty() {
        println!("no {what} regressions: {base_path} vs {cur_path}");
        return ExitCode::SUCCESS;
    }
    eprintln!("{} {what} regression(s):", regressions.len());
    for reg in regressions {
        eprintln!("  {reg}");
    }
    ExitCode::FAILURE
}

fn cmd_diff(args: &[String]) -> CmdResult {
    use stash::telemetry::{diff as telemetry_diff, series};
    use stash::trace::report::DEFAULT_DIFF_THRESHOLD;

    let (Some(base_path), Some(cur_path)) = (args.first(), args.get(1)) else {
        return Err(
            "usage: stash diff <baseline.json> <current.json> [--threshold FRAC]".to_string(),
        );
    };
    let threshold = flag_parse(
        args,
        &["--threshold", "-t"],
        "a non-negative number",
        |t: &f64| t.is_finite() && *t >= 0.0,
    )?
    .unwrap_or(DEFAULT_DIFF_THRESHOLD);
    let load_doc = |path: &str| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
    };
    let (base_doc, cur_doc) = (load_doc(base_path)?, load_doc(cur_path)?);

    // Series documents get the iteration-dynamics gates (CoV, transient
    // spikes); telemetry documents the simulator-health gates; stall
    // reports the per-category workload gates. Mixing kinds is an error.
    match (
        series::is_series_doc(&base_doc),
        series::is_series_doc(&cur_doc),
    ) {
        (true, true) => {
            let d = series::diff_docs(&base_doc, &cur_doc)?;
            let what = "iteration-dynamics";
            return Ok(gate_outcome(
                what,
                &d.notes,
                &d.regressions,
                base_path,
                cur_path,
            ));
        }
        (true, false) | (false, true) => {
            return Err(format!(
                "cannot diff a series document against a non-series document \
                 ({base_path} vs {cur_path})"
            ));
        }
        (false, false) => {}
    }
    match (
        telemetry_diff::is_telemetry_doc(&base_doc),
        telemetry_diff::is_telemetry_doc(&cur_doc),
    ) {
        (true, true) => {
            let d = telemetry_diff::diff_docs(&base_doc, &cur_doc)?;
            let what = "simulator-health";
            return Ok(gate_outcome(
                what,
                &d.notes,
                &d.regressions,
                base_path,
                cur_path,
            ));
        }
        (true, false) | (false, true) => {
            return Err(format!(
                "cannot diff a telemetry document against a stall report \
                 ({base_path} vs {cur_path})"
            ));
        }
        (false, false) => {}
    }

    let load = |path: &str, doc: &serde_json::Value| {
        InsightReport::from_json(doc).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, current) = (load(base_path, &base_doc)?, load(cur_path, &cur_doc)?);
    let regs = diff(&baseline, &current, threshold);
    if regs.is_empty() {
        println!(
            "no stall regressions: {} / {} vs {} / {} within {:.0}%",
            baseline.cluster,
            baseline.model,
            current.cluster,
            current.model,
            threshold * 100.0
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "{} stall regression(s) beyond {:.0}%:",
        regs.len(),
        threshold * 100.0
    );
    for reg in &regs {
        eprintln!(
            "  {:<13} {:>14} ns -> {:>14} ns  ({:.2}x)",
            reg.category, reg.baseline_ns, reg.current_ns, reg.ratio
        );
    }
    Ok(ExitCode::FAILURE)
}

fn cmd_perf(args: &[String]) -> CmdResult {
    use stash::telemetry::snapshot::Snapshot;

    let usage = "usage: stash perf <cluster|sweep> <model> [-b batch] [--out BASE] [--format csv]";
    let (Some(first), Some(second)) = (args.first(), args.get(1)) else {
        return Err(usage.to_string());
    };
    let format_csv = match flag_val(args, &["--format", "-f"])? {
        None | Some("table") => false,
        Some("csv") => true,
        Some(v) => return Err(format!("--format wants 'csv' or 'table', got '{v}'")),
    };
    let batch = parse_batch(args)?;
    let out_flag = flag_val(args, &["--out", "-o"])?;
    // `perf sweep <model>` aggregates the advisor's default candidates;
    // anything else profiles one cluster. Either argument order works.
    let sweep_model = match (first.as_str(), second.as_str()) {
        ("sweep", m) | (m, "sweep") => Some(m),
        _ => None,
    };
    // Everything below runs with self-telemetry on, from a clean
    // registry, against one shared measurement cache (so sweep mode
    // exercises the hit path on repeated reference-instance steps).
    stash::telemetry::enable();
    stash::telemetry::metrics::reset_all();
    let cache = MeasurementCache::new();

    let (scope, subject, default_base, snap) = match sweep_model {
        None => {
            let s = Subject::parse(args, usage)?;
            stash_for(s.model.clone(), batch)
                .profile_cached(&s.cluster, &cache)
                .map_err(|e| format!("profiling failed: {e}"))?;
            (
                "instance",
                format!("{} {}", s.cluster_spec, s.model_name.to_lowercase()),
                format!("results/telemetry_{}", slug(s.model_name, s.cluster_spec)),
                Snapshot::take(),
            )
        }
        Some(model_name) => {
            let model = lookup_model(model_name)?;
            let model_slug = model_name.to_lowercase();
            let mut fleet = Snapshot::zero();
            let mut prev = Snapshot::take();
            println!(
                "{:<16} {:>12} {:>12} {:>16}",
                "cluster", "events", "recomputes", "solver p99 ns"
            );
            for cluster in default_candidates() {
                let name = cluster.display_name();
                if let Err(e) = stash_for(model.clone(), batch).profile_cached(&cluster, &cache) {
                    println!("{name:<16} skipped: {e}");
                    continue;
                }
                let cur = Snapshot::take();
                let delta = cur.since(&prev);
                prev = cur;
                println!(
                    "{:<16} {:>12} {:>12} {:>16}",
                    name,
                    delta.counter("stash_sim_queue_events_popped_total"),
                    delta.counter("stash_sim_solver_full_recomputes_total"),
                    delta
                        .histogram("stash_sim_solver_recompute_latency_ns")
                        .map_or(0, |h| h.quantile(0.99))
                );
                fleet.merge(&delta);
            }
            (
                "sweep",
                format!("sweep {model_slug}"),
                format!("results/telemetry_sweep_{model_slug}"),
                fleet,
            )
        }
    };

    if format_csv {
        print!("{}", snap.to_csv());
    } else {
        println!("\nsimulator self-telemetry — {subject}:");
        for &(name, v) in &snap.counters {
            println!("  {name:<46} {v:>14}");
        }
        for &(name, v) in &snap.gauges {
            println!("  {name:<46} {v:>14}");
        }
        for (name, h) in &snap.histograms {
            println!(
                "  {name:<46} n={} p50={} ns p99={} ns",
                h.count,
                h.quantile(0.50),
                h.quantile(0.99)
            );
        }
    }

    let out_base = out_flag.map_or(default_base, str::to_string);
    let prom_text = snap.render_prom();
    stash::telemetry::prom::validate(&prom_text)
        .map_err(|e| format!("telemetry exposition failed validation: {e}"))?;
    let mut outputs = vec![
        (
            format!("{out_base}.json"),
            pretty(&snap.to_json(scope, &subject))?,
        ),
        (format!("{out_base}.prom"), prom_text),
    ];
    if format_csv {
        outputs.push((format!("{out_base}.csv"), snap.to_csv()));
    }
    for (path, text) in &outputs {
        write_creating_dirs(path, text)?;
    }
    let names: Vec<&str> = outputs.iter().map(|(p, _)| p.as_str()).collect();
    println!(
        "\nprom validated — telemetry written to {}",
        names.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// Writes the flight recording, if one is armed, to `path`.
fn dump_flight(path: &str) {
    if let Some(dump) = stash::telemetry::flight::flight_dump() {
        match write_creating_dirs(path, &dump) {
            Ok(()) => eprintln!("flight recording written to {path}"),
            Err(e) => eprintln!("{e}"),
        }
    }
}

fn cmd_chaos(args: &[String]) -> CmdResult {
    let s = Subject::parse(
        args,
        "usage: stash chaos <instance> <model> [--seed N] [--plan FILE] [--out PATH] [--series PATH] [-b batch]",
    )?;
    let seed = flag_parse(args, &["--seed"], "an unsigned integer", |_: &u64| true)?.unwrap_or(42);
    let plan_file = flag_val(args, &["--plan"])?;
    let origin = plan_file.map_or_else(|| format!("seed{seed}"), |_| "plan".to_string());
    let out_path = flag_val(args, &["--out", "-o"])?.map_or_else(
        || {
            format!(
                "results/chaos_{}_{origin}.json",
                slug(s.model_name, s.cluster_spec)
            )
        },
        str::to_string,
    );
    let series_path = flag_val(args, &["--series"])?;
    let flight_path = flag_val(args, &["--flight"])?;
    let batch = parse_batch(args)?;

    // Optional flight recorder: keep the tail of the engine's event
    // stream and dump it on failure — typed errors and panics alike —
    // so a broken chaos run leaves behind what the simulator was doing.
    if let Some(path) = flight_path {
        stash::telemetry::flight::flight_enable(stash::telemetry::flight::DEFAULT_CAPACITY);
        let path = path.to_string();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_flight(&path);
            prev(info);
        }));
    }
    let (base, plan, run) =
        chaos_run(&s, batch, seed, plan_file, series_path).inspect_err(|_| {
            if let Some(path) = flight_path {
                dump_flight(path);
            }
        })?;
    let r = &run.report;

    let slowdown = r.epoch_time.as_secs_f64() / base.epoch_time.as_secs_f64().max(1e-12);
    println!(
        "{} | {} | batch {} x {} GPUs — chaos run ({})",
        r.cluster,
        r.model,
        r.per_gpu_batch,
        base.world,
        plan_file.map_or_else(|| format!("seed {seed}"), str::to_string)
    );
    println!(
        "  baseline epoch {:>12}   faulted epoch {:>12}   slowdown {slowdown:.2}x",
        base.epoch_time.to_string(),
        r.epoch_time.to_string()
    );
    println!(
        "  recovery stall {:>12}   straggler excess {:>12}",
        r.recovery_time.to_string(),
        r.straggler_time.to_string()
    );
    println!(
        "  replayed iterations: {}   straggler detections: {}   dead nodes: {:?}",
        run.faults.replayed_iterations,
        run.faults.detections.len(),
        run.faults.dead_nodes
    );
    println!("  per-event blame:");
    for ev in &run.faults.events {
        println!(
            "    {:<18} at {:>12} fired {:<5} blame {:>12}",
            ev.label,
            ev.at.duration_since(SimTime::ZERO).to_string(),
            ev.fired,
            ev.blame.to_string()
        );
    }

    let doc = serde_json::json!({
        "schema": "stash-resilience-v1",
        "cluster": r.cluster,
        "model": r.model,
        "per_gpu_batch": r.per_gpu_batch,
        "seed": plan_file.is_none().then_some(seed),
        "plan": &plan,
        "baseline": serde_json::json!({
            "epoch_ns": base.epoch_time.as_nanos(),
            "throughput": base.throughput,
            "world": base.world,
            "samples": base.samples,
        }),
        "faulted": serde_json::json!({
            "epoch_ns": r.epoch_time.as_nanos(),
            "compute_ns": r.compute_time.as_nanos(),
            "data_wait_ns": r.data_wait.as_nanos(),
            "comm_wait_ns": r.comm_wait.as_nanos(),
            "recovery_ns": r.recovery_time.as_nanos(),
            "straggler_ns": r.straggler_time.as_nanos(),
            "throughput": r.throughput,
            "world": r.world,
            "samples": r.samples,
        }),
        "slowdown": slowdown,
        "goodput_fraction": r.throughput / base.throughput.max(1e-12),
        "faults": &run.faults,
    });
    write_creating_dirs(&out_path, &pretty(&doc)?)?;
    println!("\nresilience report written to {out_path}");
    Ok(ExitCode::SUCCESS)
}

/// The simulation half of `stash chaos`: the fault-free baseline, the
/// plan, and the traced faulted run, self-checked against its trace and
/// (with `series_path`) against an iteration-series run it writes out.
fn chaos_run(
    s: &Subject,
    batch: u64,
    seed: u64,
    plan_file: Option<&str>,
    series_path: Option<&str>,
) -> Result<(EpochReport, FaultPlan, Run), String> {
    // A full (factor-1) synthetic window: every accumulator is exact, so
    // the trace must corroborate the engine to the nanosecond.
    let iters: u64 = 16;
    let mut cfg = TrainConfig::synthetic(s.cluster.clone(), s.model.clone(), batch, batch * iters);
    cfg.epoch_mode = EpochMode::Full;

    // Fault-free baseline: the yardstick, and the plan horizon.
    let base = run_epoch(&cfg).map_err(|e| format!("chaos baseline failed: {e}"))?;
    let (world, nodes) = (s.cluster.world_size(), s.cluster.node_count());
    let plan = match plan_file {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            FaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => FaultPlan::seeded(seed, world, nodes, base.epoch_time),
    };
    plan.validate(world, nodes)
        .map_err(|e| format!("fault plan does not fit {}: {e}", s.cluster_spec))?;

    // Self-check: the rank-0 trace lane must reconcile with the engine's
    // accounting exactly, recovery and straggler categories included.
    let (run, events) =
        run_traced(&cfg, Some(&plan)).map_err(|e| format!("chaos run failed: {e}"))?;
    reconcile(&run.report, &rank0_path(&events))
        .map_err(|e| format!("chaos self-check failed: trace {e}"))?;

    // Optional iteration series: an un-traced series run of the same
    // faulted config must agree with the traced run bit-for-bit (both
    // instrumentation layers are pure observers), and its downsampled
    // totals must reconcile with the report at integer-ns exactness —
    // the sixth leg of the chaos self-check.
    if let Some(spath) = series_path {
        let sr =
            run_series(&cfg, Some(&plan)).map_err(|e| format!("chaos series run failed: {e}"))?;
        if (&sr.report, &sr.faults) != (&run.report, &run.faults) {
            return Err(
                "chaos self-check failed: series engine disagrees with the traced run".to_string(),
            );
        }
        reconcile(&sr.report, &sr.series.totals())
            .map_err(|e| format!("chaos self-check failed: series {e}"))?;
        let doc = sr.series.to_json(&sr.report.series_meta());
        write_creating_dirs(spath, &pretty(&doc)?)?;
        println!(
            "  iteration series ({} buckets, {} fault windows) written to {spath}",
            sr.series.samples.len(),
            sr.series.annotations.len()
        );
    }
    Ok((base, plan, run))
}

fn cmd_dash(args: &[String]) -> CmdResult {
    use stash::trace::dash::{DashCell, Dashboard};

    let Some(dir) = args.first() else {
        return Err("usage: stash dash <results-dir> [--out PATH] [-b batch]".to_string());
    };
    let out_path = flag_val(args, &["--out", "-o"])?
        .map_or_else(|| format!("{dir}/dashboard.html"), str::to_string);

    // A result store is not a series directory: refuse loudly instead of
    // simulating a default sweep into it (which would bury series JSON
    // between the records) or silently skipping its binary files.
    let dir_path = std::path::Path::new(dir);
    if dir_path.join("records").is_dir() || dir_path.join("journal.log").is_file() {
        return Err(format!(
            "{dir}: this is a stash result store (records/ + journal.log), not a series \
             results directory — inspect it with `stash fsck {dir}` or point dash at a \
             directory of stash-series-v1 JSON documents"
        ));
    }

    // Load every stash-series-v1 document already in the directory
    // (sorted by filename for deterministic cell input order; ordering
    // is then re-normalised by Dashboard::new anyway). Unreadable or
    // non-JSON files are typed errors; valid JSON that is not a series
    // document is skipped with an explicit note.
    let mut cells: Vec<DashCell> = Vec::new();
    if dir_path.is_dir() {
        let entries =
            std::fs::read_dir(dir_path).map_err(|e| format!("cannot read directory {dir}: {e}"))?;
        let mut paths: Vec<std::path::PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let shown = path.display();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {shown}: {e}"))?;
            let doc = serde_json::from_str::<serde_json::Value>(&text)
                .map_err(|e| format!("{shown}: invalid JSON: {e}"))?;
            if !stash::telemetry::series::is_series_doc(&doc) {
                println!("skipped (not a series document): {shown}");
                continue;
            }
            cells.push(DashCell::from_doc(&doc).map_err(|e| format!("{shown}: {e}"))?);
            println!("loaded series: {shown}");
        }
    }

    // Nothing on disk: simulate the default sweep grid and leave the
    // series documents behind so the next `stash dash` is a pure load.
    if cells.is_empty() {
        println!("no series documents in {dir} — simulating the default sweep");
        for cluster_spec in ["p3.2xlarge", "p3.8xlarge", "p3.8xlarge*2"] {
            let cluster = parse_cluster(cluster_spec)?;
            for model_name in ["ShuffleNet", "ResNet18", "BERT-Large"] {
                let model = lookup_model(model_name)?;
                let batch = if model.name.starts_with("BERT") {
                    4
                } else {
                    32
                };
                let mut cfg = TrainConfig::synthetic(cluster.clone(), model, batch, batch * 64);
                cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
                let series = run_series(&cfg, None)
                    .map_err(|e| format!("{cluster_spec} {model_name}: {e}"))?;
                let doc = series_doc(&series)
                    .ok_or_else(|| format!("{cluster_spec} {model_name}: empty series"))?;
                let cell = DashCell::from_doc(&doc)
                    .map_err(|e| format!("{cluster_spec} {model_name}: {e}"))?;
                let spath = format!("{dir}/series_{}.json", slug(model_name, cluster_spec));
                write_creating_dirs(&spath, &pretty(&doc)?)?;
                println!("simulated {cluster_spec} x {model_name} -> {spath}");
                cells.push(cell);
            }
        }
    }

    let html = Dashboard::new(cells).to_html();
    let validated =
        Dashboard::validate(&html).map_err(|e| format!("dashboard failed self-validation: {e}"))?;
    write_creating_dirs(&out_path, &html)?;
    println!(
        "dashboard validated ({validated} cell{}) and written to {out_path}",
        if validated == 1 { "" } else { "s" }
    );
    Ok(ExitCode::SUCCESS)
}

/// The record key a quarantine file holds the corpse of, from its
/// `<32 hex>.rec.qN` name.
fn quarantined_record_key(path: &std::path::Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let (stem, _) = name.split_once(".rec")?;
    (stem.len() == 32 && stem.chars().all(|c| c.is_ascii_hexdigit())).then(|| stem.to_string())
}

/// The default sweep grid (matches the dash simulation grid's clusters,
/// with CNN-family models so every cell profiles quickly).
const SWEEP_CLUSTERS: [&str; 3] = ["p3.2xlarge", "p3.8xlarge", "p3.8xlarge*2"];
const SWEEP_MODELS: [&str; 3] = ["ShuffleNet", "ResNet18", "AlexNet"];

fn cmd_sweep(args: &[String]) -> CmdResult {
    let usage = "usage: stash sweep [--models A,B] [--clusters X,Y] [-b batch] [--iters N] \
                 [--store DIR] [--resume] [--out CSV] [--io-fault-plan FILE] \
                 [--io-fault-seed N] [--retries N] [--deadline-secs S]";
    let with_usage = |e: String| format!("{e}\n{usage}");
    let store_dir = flag_val(args, &["--store"]).map_err(with_usage)?;
    let resume = args.iter().any(|a| a == "--resume");
    if resume && store_dir.is_none() {
        return Err(with_usage("--resume requires --store DIR".to_string()));
    }

    // Sampled iterations per cell. A cell's key covers this (it is part
    // of the descriptor), so records computed at different budgets never
    // collide, and resume replays each cell at its journaled budget.
    let positive = |&n: &u64| n >= 1;
    let sampled_iterations = flag_parse(args, &["--iters"], "a positive integer", positive)
        .map_err(with_usage)?
        .unwrap_or(6);
    let mut policy = RetryPolicy::default();
    if let Some(n) = flag_parse(args, &["--retries"], "a positive integer", |&n: &u32| {
        n >= 1
    })
    .map_err(with_usage)?
    {
        policy.max_attempts = n;
    }
    if let Some(s) = flag_parse(args, &["--deadline-secs"], "a positive integer", positive)
        .map_err(with_usage)?
    {
        policy.deadline_ms = s.saturating_mul(1000);
    }

    // The I/O backend: production StdFs, or deterministic fault
    // injection when a plan (file or seed) is given.
    let plan_path = flag_val(args, &["--io-fault-plan"]).map_err(with_usage)?;
    let plan_seed =
        flag_parse(args, &["--io-fault-seed"], "an integer", |_: &u64| true).map_err(with_usage)?;
    let fault_plan = match (plan_path, plan_seed) {
        (Some(_), Some(_)) => {
            return Err(with_usage(
                "--io-fault-plan and --io-fault-seed are mutually exclusive".to_string(),
            ));
        }
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let plan = IoFaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            Some((plan, format!("plan file {path}")))
        }
        (None, Some(seed)) => Some((IoFaultPlan::seeded(seed), format!("seed {seed}"))),
        (None, None) => None,
    };
    if fault_plan.is_some() && store_dir.is_none() {
        return Err(with_usage(
            "I/O fault injection only touches store I/O — add --store DIR".to_string(),
        ));
    }

    // The flag-selected (or default) cluster x model grid and the output
    // path, settled before any simulation or store I/O so a misused flag
    // fails before the sweep touches anything.
    let split = |flag: &str, defaults: &[&str]| -> Result<Vec<String>, String> {
        Ok(flag_val(args, &[flag]).map_err(with_usage)?.map_or_else(
            || defaults.iter().map(|s| (*s).to_string()).collect(),
            |s| {
                s.split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(String::from)
                    .collect()
            },
        ))
    };
    let cluster_specs = split("--clusters", &SWEEP_CLUSTERS)?;
    let model_names = split("--models", &SWEEP_MODELS)?;
    if cluster_specs.is_empty() || model_names.is_empty() {
        return Err(with_usage("empty --clusters/--models list".to_string()));
    }
    let batch = parse_batch(args)?;
    let mut jobs: Vec<ProfileJob> = Vec::new();
    for cluster_spec in &cluster_specs {
        let cluster = parse_cluster(cluster_spec)?;
        for model_name in &model_names {
            jobs.push(ProfileJob {
                stash: stash_for(lookup_model(model_name)?, batch)
                    .with_sampled_iterations(sampled_iterations)
                    .with_epoch_samples(20_000),
                cluster: cluster.clone(),
            });
        }
    }
    let out_path = flag_val(args, &["--out"])?.map_or_else(
        || {
            store_dir.map_or_else(
                || "results/sweep.csv".to_string(),
                |dir| format!("{dir}/results.csv"),
            )
        },
        str::to_string,
    );

    let store = match store_dir {
        Some(dir) => {
            let io: Box<dyn StoreIo> = match fault_plan {
                Some((plan, origin)) => {
                    println!(
                        "sweep: injecting {} planned I/O fault(s) ({origin})",
                        plan.faults.len()
                    );
                    Box::new(FaultFs::new(plan))
                }
                None => Box::new(StdFs::new()),
            };
            Some(ResultStore::open(std::path::Path::new(dir), io).map_err(|e| e.to_string())?)
        }
        None => None,
    };

    // On --resume, the journal's plan lines (what the interrupted sweep
    // intended) replace the grid.
    if let (true, Some(store)) = (resume, &store) {
        let replay = store
            .journal()
            .replay(store.io())
            .map_err(|e| format!("cannot replay {}: {e}", store.journal().path().display()))?;
        if replay.torn_tail {
            println!(
                "sweep: journal has a torn tail (crash mid-append) — trusting the intact prefix"
            );
        }
        let planned = replay
            .planned_cells()
            .iter()
            .map(|(key, detail)| {
                stash::core::sweep::decode_cell_descriptor(detail)
                    .map_err(|e| format!("journal plan for cell {key}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if planned.is_empty() {
            println!("sweep: journal is empty — running a fresh sweep");
        } else {
            println!("sweep: resuming {} journaled cell(s)", planned.len());
            jobs = planned;
        }
    }

    stash::telemetry::enable();
    let cache = MeasurementCache::new();
    let outcome = stash::core::sweep::run_sweep(&jobs, store.as_ref(), &policy, &cache);

    println!("{:<16} {:<12} {:>6} status", "cluster", "model", "batch");
    for cell in &outcome.cells {
        println!(
            "{:<16} {:<12} {:>6} {}",
            cell.cluster,
            cell.model,
            cell.per_gpu_batch,
            cell.status.code()
        );
    }
    println!(
        "sweep: {} computed, {} resumed, {} failed",
        outcome.computed(),
        outcome.resumed(),
        outcome.failed()
    );

    write_creating_dirs(&out_path, &outcome.results_csv())?;
    println!("results written to {out_path}");

    if outcome.failed() > 0 {
        eprintln!(
            "sweep finished with {} failed cell(s) — see the status column in {out_path}",
            outcome.failed()
        );
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_fsck(args: &[String]) -> CmdResult {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("usage: stash fsck <store-dir> [--repair]".to_string());
    };
    let repair = args.iter().any(|a| a == "--repair");

    if !std::path::Path::new(dir).is_dir() {
        return Err(format!(
            "{dir}: not a directory (fsck wants an existing stash result store)"
        ));
    }
    let store = ResultStore::open(std::path::Path::new(dir), Box::new(StdFs::new()))
        .map_err(|e| e.to_string())?;
    let report = store.fsck().map_err(|e| e.to_string())?;
    println!(
        "fsck {dir}: {} record(s) scanned, {} ok, {} issue(s)",
        report.scanned,
        report.ok,
        report.issues.len()
    );
    for issue in &report.issues {
        println!("  {issue}");
    }
    // The rebuild worklist: keys quarantined by this scan plus keys a
    // *previous* scan quarantined (their bytes still sit in quarantine/
    // and their record is gone), minus anything that verifies clean now.
    let mut needs_rebuild: std::collections::BTreeSet<String> =
        report.quarantined_keys().into_iter().collect();
    let quarantined = store
        .io()
        .list(&store.quarantine_dir())
        .map_err(|e| format!("cannot list {}: {e}", store.quarantine_dir().display()))?;
    needs_rebuild.extend(quarantined.iter().filter_map(|f| quarantined_record_key(f)));
    needs_rebuild.retain(|key| {
        stash::store::parse_key_hex(key).is_none_or(|k| !matches!(store.get(k), Ok(Fetch::Hit(_))))
    });
    if needs_rebuild.is_empty() {
        println!("store verifies clean");
        return Ok(ExitCode::SUCCESS);
    }
    if !repair {
        eprintln!(
            "{} corrupt record(s) in quarantine — re-run with --repair to rebuild them \
             from the journal",
            needs_rebuild.len()
        );
        return Ok(ExitCode::from(2));
    }

    // Repair: re-run the quarantined cells from their journal plans; the
    // engine is deterministic, so a rebuilt record is byte-identical to
    // the one the corruption destroyed.
    let replay = store
        .journal()
        .replay(store.io())
        .map_err(|e| format!("cannot replay {}: {e}", store.journal().path().display()))?;
    let mut jobs: Vec<ProfileJob> = Vec::new();
    for key in &needs_rebuild {
        let Some(detail) = replay.plan_for(key) else {
            eprintln!("cannot rebuild {key}: no journal plan for it");
            continue;
        };
        match stash::core::sweep::decode_cell_descriptor(detail) {
            Ok(job) => jobs.push(job),
            Err(e) => eprintln!("cannot rebuild {key}: {e}"),
        }
    }
    let cache = MeasurementCache::new();
    let policy = RetryPolicy::default();
    let outcome = stash::core::sweep::run_sweep(&jobs, Some(&store), &policy, &cache);
    for cell in &outcome.cells {
        match &cell.status {
            CellStatus::Failed(reason) => {
                eprintln!("rebuild of {} failed: {reason}", cell.key);
            }
            _ => println!(
                "rebuilt {} ({} x {}, b{})",
                cell.key, cell.cluster, cell.model, cell.per_gpu_batch
            ),
        }
    }
    // Every quarantined key must now fetch as a verified hit; this loop
    // is the sole arbiter of repair success.
    let mut unrepaired = 0usize;
    for key in &needs_rebuild {
        let Some(parsed) = stash::store::parse_key_hex(key) else {
            eprintln!("rebuild of {key} failed: not a valid record key");
            unrepaired += 1;
            continue;
        };
        match store.get(parsed) {
            Ok(Fetch::Hit(_)) => {}
            Ok(_) => {
                eprintln!("rebuild of {key} did not verify");
                unrepaired += 1;
            }
            Err(e) => {
                eprintln!("{e}");
                unrepaired += 1;
            }
        }
    }
    if unrepaired > 0 {
        eprintln!("{unrepaired} record(s) remain unrepaired");
        return Ok(ExitCode::from(2));
    }
    println!("repair complete: store verifies clean");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("catalog") => cmd_catalog(),
        Some("models") => cmd_models(),
        Some("profile") => cmd_profile(rest),
        Some("advise") => cmd_advise(rest),
        Some("probe") => cmd_probe(rest),
        Some("trace") => cmd_trace(rest),
        Some("report") => cmd_report(rest),
        Some("diff") => cmd_diff(rest),
        Some("chaos") => cmd_chaos(rest),
        Some("perf") => cmd_perf(rest),
        Some("dash") => cmd_dash(rest),
        Some("sweep") => cmd_sweep(rest),
        Some("fsck") => cmd_fsck(rest),
        _ => Err("stash — DDL stall profiler (ICDCS'23 reproduction)\n\n\
             usage:\n  stash catalog\n  stash models\n  \
             stash profile <model> <cluster> [-b batch]\n  \
             stash advise <model> [-b batch] [--cost|--time]\n  \
             stash probe <instance>\n  \
             stash trace <instance> <model> [--out PATH] [-b batch]\n  \
             stash report <instance> <model> [--out PATH] [-b batch]\n  \
             stash diff <baseline.json> <current.json> [--threshold FRAC]\n  \
             stash chaos <instance> <model> [--seed N] [--plan FILE] [--out PATH] [--flight PATH] [--series PATH] [-b batch]\n  \
             stash perf <cluster|sweep> <model> [-b batch] [--out BASE] [--format csv]\n  \
             stash dash <results-dir> [--out PATH]\n  \
             stash sweep [--models A,B] [--clusters X,Y] [-b batch] [--iters N] [--store DIR] [--resume] [--out CSV] [--io-fault-plan FILE] [--io-fault-seed N] [--retries N] [--deadline-secs S]\n  \
             stash fsck <store-dir> [--repair]\n\n\
             clusters: p3.16xlarge, p3.8xlarge*2, ..."
            .to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}
