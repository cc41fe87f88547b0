//! `trace_report`: one `stash trace`-equivalent followed by one
//! `stash report`-equivalent for each of four models on p3.2xlarge (warm
//! real data, 12 sampled iterations), in an order the seed shuffles per
//! operation. Every model runs in every operation, so the operation time
//! does not depend on which documents the seed happens to draw.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use stash::datapipe::cache::CacheState;
use stash::ddl::config::{DataMode, EpochMode, TrainConfig};
use stash::ddl::engine::run_epoch_traced;
use stash::ddl::perf_stats;
use stash::ddl::report::EpochReport;
use stash::dnn::dataset::DatasetSpec;
use stash::dnn::zoo;
use stash::hwtopo::cluster::ClusterSpec;
use stash::hwtopo::instance::p3_2xlarge;
use stash::simkit::time::SimDuration;
use stash::trace::chrome;
use stash::trace::critical::{CriticalPath, PathCategory};
use stash::trace::report::InsightReport;
use stash::trace::{shared, JsonSink, Tracer, Track};

use crate::ledger::{Ledger, TracedOps};
use crate::stats::{median, ratio};
use crate::{closed_loop, Args, Outcome, Rng, SetupClock};

/// Sampled iterations of the traced window, as `stash trace` uses.
const ITERATIONS: u64 = 12;

fn configs() -> Vec<TrainConfig> {
    [
        zoo::alexnet(),
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::shufflenet(),
    ]
    .into_iter()
    .map(|model| {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_2xlarge()),
            model,
            32,
            32 * ITERATIONS,
        );
        cfg.epoch_mode = EpochMode::Sampled {
            iterations: ITERATIONS,
        };
        cfg.record_trace = true;
        cfg.data = DataMode::Real {
            dataset: DatasetSpec::imagenet1k(),
            cache: CacheState::Warm,
        };
        cfg
    })
    .collect()
}

/// What one operation produced, per model in grid order.
struct Docs {
    trace_ms: f64,
    report_ms: f64,
    /// The validated Chrome trace text of each model.
    texts: Vec<String>,
    events: usize,
}

/// The critical path must balance the engine's accounting to the
/// nanosecond, as `stash report` demands.
fn reconcile(r: &EpochReport, path: &CriticalPath) -> Result<(), String> {
    let factor = r.iterations as f64 / r.simulated_iterations as f64;
    let raw = |cats: &[PathCategory]| {
        SimDuration::from_nanos(cats.iter().map(|&c| path.total_ns(c)).sum::<u64>())
    };
    let checks = [
        (
            "compute",
            raw(&[PathCategory::Compute, PathCategory::Overlap]),
            r.compute_time,
        ),
        (
            "data-wait",
            raw(&[PathCategory::Prep, PathCategory::Fetch]),
            r.data_wait,
        ),
        (
            "comm-wait",
            raw(&[PathCategory::Interconnect, PathCategory::Network]),
            r.comm_wait,
        ),
    ];
    for (what, traced, engine) in checks {
        if traced.mul_f64(factor) != engine {
            return Err(format!(
                "{}: critical path {what} {} != engine {engine}",
                r.model,
                traced.mul_f64(factor)
            ));
        }
    }
    Ok(())
}

fn operation(cfgs: &[TrainConfig], order: &[usize], ledger: &mut Ledger) -> Result<Docs, String> {
    let mut docs = Docs {
        trace_ms: 0.0,
        report_ms: 0.0,
        texts: vec![String::new(); cfgs.len()],
        events: 0,
    };
    for &i in order {
        let cfg = &cfgs[i];
        // Trace half.
        let t = Instant::now();
        let sink = Rc::new(RefCell::new(JsonSink::new()));
        let tracer = shared(Tracer::new(sink.clone()));
        let r = ledger
            .time("ddl.run_epoch_traced", || run_epoch_traced(cfg, &tracer))
            .map_err(|e| format!("{}: {e}", cfg.model.name))?;
        let events = ledger.time("trace.events", || sink.borrow().events().to_vec());
        let doc = ledger.time("trace.export", || chrome::export(&events));
        let text = ledger
            .time("json.to_string_pretty", || {
                serde_json::to_string_pretty(&doc)
            })
            .map_err(|e| e.to_string())?;
        let stats = ledger
            .time("trace.validate", || chrome::validate(&text))
            .map_err(|e| format!("{}: trace failed validation: {e}", cfg.model.name))?;
        let recorded = stats.spans + stats.instants + stats.counters;
        if recorded != events.len() as u64 {
            return Err(format!(
                "{}: validated {recorded} events of {} recorded",
                cfg.model.name,
                events.len()
            ));
        }
        docs.trace_ms += t.elapsed().as_secs_f64() * 1e3;

        // Report half.
        let t = Instant::now();
        let path = ledger.time("trace.critical_path", || {
            CriticalPath::from_events(&events, 0, Track::gpu(0, 0))
        });
        reconcile(&r, &path)?;
        let factor = r.iterations as f64 / r.simulated_iterations as f64;
        let mut report = ledger.time("trace.insight_report", || {
            InsightReport::from_path(&r.cluster, &r.model, r.world, factor, &path)
        });
        report.epoch_ns = r.epoch_time.as_nanos();
        report.engine_compute_ns = r.compute_time.as_nanos();
        report.engine_data_wait_ns = r.data_wait.as_nanos();
        report.engine_comm_wait_ns = r.comm_wait.as_nanos();
        let json = ledger.time("trace.report_to_json", || report.to_json());
        let json_text = ledger
            .time("json.report_to_string", || {
                serde_json::to_string_pretty(&json)
            })
            .map_err(|e| e.to_string())?;
        let html = ledger.time("trace.report_to_html", || report.to_html());
        if json_text.is_empty() || !html.contains("<svg") {
            return Err(format!("{}: empty report", cfg.model.name));
        }
        docs.report_ms += t.elapsed().as_secs_f64() * 1e3;
        docs.events += events.len();
        docs.texts[i] = text;
    }
    Ok(docs)
}

pub fn run(args: &Args, process_start: Instant, out: &mut Outcome) -> Result<(), String> {
    let (mut clock, cfgs) = SetupClock::start(process_start, configs);
    let mut rng = Rng::new(args.seed);
    let n = cfgs.len();

    // Warm-up operation: checked, not timed.
    out.check(operation(&cfgs, &rng.permutation(n), &mut Ledger::off()).map(drop));

    let half = if args.trace { 2.0 } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds / half);
    let (mut op_ms, mut trace_ms, mut report_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut trace_bytes = 0usize;
    closed_loop(budget, 3, || {
        let order = rng.permutation(n);
        let t = Instant::now();
        let result = operation(&cfgs, &order, &mut Ledger::off());
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(result.map(|docs| {
            trace_ms.push(docs.trace_ms);
            report_ms.push(docs.report_ms);
            trace_bytes += docs.texts.iter().map(String::len).sum::<usize>();
        }));
        clock.again(configs);
    });
    out.set("setup_s", clock.median());
    out.set("op_ms.p50", median(&op_ms));
    out.set("trace_ms.p50", median(&trace_ms));
    out.set("report_ms.p50", median(&report_ms));
    out.set(
        "trace_mb_per_s",
        ratio(trace_bytes as f64 / 1e6, trace_ms.iter().sum::<f64>() / 1e3),
    );
    if !args.trace {
        return Ok(());
    }

    // Traced half. After each traced operation, outside its time, each
    // document is parsed on its own and validated again back to back:
    // the difference is `chrome::validate`'s own work beyond the parse.
    let mut traced = TracedOps::default();
    let mut validate_self_ms = Vec::new();
    let mut parse = vec![(0usize, Vec::new()); n];
    let mut encoded_bytes = 0usize;
    let mut events = 0;
    let mut perf = None;
    closed_loop(budget, 2, || {
        let order = rng.permutation(n);
        let before = perf_stats::snapshot();
        let mut ledger = Ledger::on();
        let t = Instant::now();
        let result = operation(&cfgs, &order, &mut ledger);
        traced.push(t.elapsed().as_secs_f64() * 1e3, ledger);
        perf = Some(perf_stats::snapshot().since(&before));
        let result = result.and_then(|docs| {
            let mut self_ms = 0.0;
            for (i, text) in docs.texts.iter().enumerate() {
                let t = Instant::now();
                serde_json::from_str::<serde_json::Value>(text).map_err(|e| e.to_string())?;
                let parse_ms = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                chrome::validate(text)?;
                self_ms += t.elapsed().as_secs_f64() * 1e3 - parse_ms;
                parse[i].0 = text.len();
                parse[i].1.push(parse_ms);
                encoded_bytes += text.len();
            }
            validate_self_ms.push(self_ms);
            events = docs.events;
            Ok(())
        });
        out.check(result);
    });
    traced.report(&op_ms, out);

    out.set("trace.events", events as f64);
    out.set("trace.export_ms.p50", traced.per_op_p50(&["trace.export"]));
    out.set("trace.validate_ms.p50", median(&validate_self_ms));
    out.set(
        "trace.critical_path_ms.p50",
        traced.per_op_p50(&["trace.critical_path"]),
    );
    out.set(
        "trace.html_ms.p50",
        traced.per_op_p50(&["trace.report_to_json", "trace.report_to_html"]),
    );
    let epoch_ms = traced.per_op_p50(&["ddl.run_epoch_traced"]);
    out.set("ddl.traced_epoch_ms.p50", epoch_ms);
    if let Some(perf) = perf {
        let requested = n as u64 * ITERATIONS;
        crate::sim::report_counters(&perf, requested, epoch_ms, out);
    }

    // JSON throughput: parse over every probe, encode over the Chrome
    // documents; scaling compares the largest and smallest document.
    let parsed_bytes: f64 = parse.iter().map(|(b, ms)| (b * ms.len()) as f64).sum();
    let parsed_ms: f64 = parse.iter().flat_map(|(_, ms)| ms).sum();
    out.set(
        "json.parse_mb_per_s",
        ratio(parsed_bytes / 1e6, parsed_ms / 1e3),
    );
    let mut sizes: Vec<(usize, f64)> = parse.iter().map(|(b, ms)| (*b, median(ms))).collect();
    sizes.sort_by_key(|(b, _)| *b);
    if let (Some(small), Some(large)) = (sizes.first(), sizes.last()) {
        out.set(
            "json.parse_scaling",
            ratio(
                ratio(large.1, small.1),
                ratio(large.0 as f64, small.0 as f64),
            ),
        );
    }
    let encode_ms: f64 = traced
        .ledgers()
        .map(|l| l.total("json.to_string_pretty"))
        .sum();
    out.set(
        "json.encode_mb_per_s",
        ratio(encoded_bytes as f64 / 1e6, encode_ms / 1e3),
    );
    Ok(())
}
