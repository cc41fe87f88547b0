//! Host-time benchmark of the Stash simulator.
//!
//! ```text
//! bash stashbench/run.sh \
//!     --workload <figure_sweep|durable_sweep|trace_report> --seed N --seconds S --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop: the next operation
//! starts when the previous one ends. Every operation's output is checked
//! against pinned digests or the program's own invariants; a failed check
//! counts the operation as failed. All timings are host time: the
//! simulated results are deterministic, so they serve as checks, never as
//! metrics.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` spends half
//! the run on untraced operations and half on traced ones, which time
//! every call the benchmark makes into a layer (the crates `core`, `ddl`,
//! `trace`, `json` = the vendored `serde_json`, `store`) and read the
//! counters the program exposes (`ddl::perf_stats`,
//! `MeasurementCache::stats`, the telemetry registry). The program itself
//! carries no benchmark spans. The last line of standard output is one
//! JSON object with the metrics; the lines before it print every metric
//! of the workload by name and unit.

mod durable;
mod figure;
mod ledger;
mod memfs;
mod sim;
mod stats;
mod trace_report;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: stashbench --workload <figure_sweep|durable_sweep|trace_report> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics: every untraced run prints all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms.p50", "ms"),
];

/// Per-layer metrics: every traced run prints all of them, with 0 where
/// the workload does not exercise the layer.
const PER_LAYER: &[(&str, &str)] = &[
    // Workload-level figures, measured on the untraced half of the run.
    ("sweep_cells_per_s", "cells/s"),
    ("cold_cells_per_s", "cells/s"),
    ("resume_cells_per_s", "cells/s"),
    ("serve_us.p50", "us"),
    ("serve_us.p99", "us"),
    ("trace_ms.p50", "ms"),
    ("report_ms.p50", "ms"),
    ("trace_mb_per_s", "MB/s"),
    // core
    ("core.op_ms", "ms"),
    ("core.cell_ms.p50", "ms"),
    ("core.cell_ms.p90", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.lookups", "count"),
    // ddl
    ("ddl.op_ms", "ms"),
    ("ddl.sim_events", "count"),
    ("ddl.requested_iterations", "count"),
    ("ddl.ff_ratio", "ratio"),
    ("ddl.host_ns_per_event", "ns"),
    ("ddl.traced_epoch_ms.p50", "ms"),
    // flowsim
    ("flowsim.full_recomputes", "count"),
    ("flowsim.shortcut_events", "count"),
    ("flowsim.shortcut_ratio", "ratio"),
    ("flowsim.solve_ns.p50", "ns"),
    ("flowsim.solve_ns.p99", "ns"),
    // simkit
    ("simkit.queue.pushed", "count"),
    ("simkit.queue.cancelled", "count"),
    ("simkit.queue.depth_hwm", "count"),
    // telemetry
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.base_ms", "ms"),
    // store
    ("store.op_ms", "ms"),
    ("store.overhead_ratio", "ratio"),
    ("store.base_ms", "ms"),
    ("store.stdfs_ratio", "ratio"),
    ("store.memfs_ms", "ms"),
    ("store.put_us.p50", "us"),
    ("store.get_us.p50", "us"),
    ("store.get_us.p99", "us"),
    ("store.bytes_written", "bytes"),
    // json
    ("json.op_ms", "ms"),
    ("json.record_encode_us.p50", "us"),
    ("json.record_decode_us.p50", "us"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.parse_scaling", "ratio"),
    ("json.encode_mb_per_s", "MB/s"),
    // trace
    ("trace.op_ms", "ms"),
    ("trace.events", "count"),
    ("trace.export_ms.p50", "ms"),
    ("trace.validate_ms.p50", "ms"),
    ("trace.critical_path_ms.p50", "ms"),
    ("trace.html_ms.p50", "ms"),
    // The ledger: layer op_ms + unattributed_ms = traced_op_ms.
    ("unattributed_ms", "ms"),
    ("traced_op_ms", "ms"),
    ("untraced_op_ms", "ms"),
    ("tracing_overhead_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                if flags.insert(flag.as_str(), value.as_str()).is_some() {
                    return Err(format!("{flag} given twice"));
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or(format!("missing {f}"));
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds wants a positive number")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operation counts and the metrics one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is logged to stderr.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("check failed: {e}");
        }
    }

    /// Records a metric. The name must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }
}

/// A seeded splitmix64 generator: the only source of workload variation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Set-up times of one run. The inputs are built once from process start,
/// then once more after every untraced operation, and the run reports the
/// median. The host drifts between fast and slow phases that last seconds,
/// so set-ups timed back to back at start all fell in one phase: their
/// median swung about 2x from run to run.
pub struct SetupClock {
    times: Vec<f64>,
}

impl SetupClock {
    /// Builds the inputs, timed from `process_start` so that the first
    /// set-up includes process start-up.
    pub fn start<T>(process_start: Instant, build: impl FnOnce() -> T) -> (SetupClock, T) {
        let built = build();
        let times = vec![process_start.elapsed().as_secs_f64()];
        (SetupClock { times }, built)
    }

    /// Builds the inputs once more, timed, and drops them.
    pub fn again<T>(&mut self, build: impl FnOnce() -> T) {
        let t = Instant::now();
        std::hint::black_box(build());
        self.times.push(t.elapsed().as_secs_f64());
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.times)
    }
}

/// Runs `op` back to back until `budget` has elapsed, at least `min_ops`
/// times.
pub fn closed_loop(budget: Duration, min_ops: usize, mut op: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min_ops || start.elapsed() < budget {
        op();
        done += 1;
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let run = match args.workload.as_str() {
        "figure_sweep" => figure::run(&args, process_start, &mut out),
        "durable_sweep" => durable::run(&args, process_start, &mut out),
        "trace_report" => trace_report::run(&args, process_start, &mut out),
        other => Err(format!("unknown workload '{other}'")),
    };
    if let Err(e) = run {
        eprintln!("stashbench: {e}");
        return ExitCode::FAILURE;
    }

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => {
                eprintln!("stashbench: cannot read VmHWM from /proc/self/status");
                return ExitCode::FAILURE;
            }
        }
    }
    // Human-readable lines: the declared set plus any workload figure the
    // run measured; the JSON line carries the declared set only.
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let is_declared = declared.iter().any(|(n, _)| n == name);
        let value = match out.metrics.get(name) {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            Some(v) if v.is_finite() => *v + 0.0,
            Some(_) | None if is_declared => 0.0,
            _ => continue,
        };
        println!("{name} {value} {unit}");
        if is_declared {
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
