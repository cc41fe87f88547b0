//! Per-layer host-time ledger of traced operations.
//!
//! A traced operation times every call the benchmark makes into a layer,
//! under a key `<layer>.<call>`. Whatever the operation spends outside
//! those calls is `unattributed_ms`, so the layer totals and the remainder
//! add up to the traced operation time exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{mean, median, ratio};
use crate::Outcome;

/// The layers a call key may name, with the metric of each layer's total.
const LAYERS: [(&str, &str); 5] = [
    ("core", "core.op_ms"),
    ("ddl", "ddl.op_ms"),
    ("trace", "trace.op_ms"),
    ("json", "json.op_ms"),
    ("store", "store.op_ms"),
];

/// The timed calls of one operation; records nothing when off.
pub struct Ledger {
    on: bool,
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn off() -> Ledger {
        Ledger {
            on: false,
            calls: BTreeMap::new(),
        }
    }

    pub fn on() -> Ledger {
        Ledger {
            on: true,
            calls: BTreeMap::new(),
        }
    }

    /// Runs `f`, adding its host time (ms) to `call`, a `<layer>.<name>`
    /// key.
    pub fn time<T>(&mut self, call: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        debug_assert!(
            LAYERS
                .iter()
                .any(|(l, _)| call.split('.').next() == Some(l)),
            "call {call} names no layer"
        );
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.calls.entry(call).or_default().push(ms);
        out
    }

    /// Per-call host times (ms) of `call`.
    pub fn samples(&self, call: &str) -> &[f64] {
        self.calls.get(call).map_or(&[], Vec::as_slice)
    }

    /// Total host time (ms) of `call` in this operation.
    pub fn total(&self, call: &str) -> f64 {
        self.samples(call).iter().sum()
    }

    fn layer_total(&self, layer: &str) -> f64 {
        self.calls
            .iter()
            .filter(|(k, _)| k.split('.').next() == Some(layer))
            .flat_map(|(_, v)| v)
            .sum()
    }
}

/// Traced operations of one run: wall time (ms) plus the ledger of each.
#[derive(Default)]
pub struct TracedOps {
    ops: Vec<(f64, Ledger)>,
}

impl TracedOps {
    pub fn push(&mut self, op_ms: f64, ledger: Ledger) {
        self.ops.push((op_ms, ledger));
    }

    pub fn ledgers(&self) -> impl Iterator<Item = &Ledger> {
        self.ops.iter().map(|(_, l)| l)
    }

    /// Every per-call sample of `call` across the run, in ms.
    pub fn samples(&self, call: &str) -> Vec<f64> {
        self.ledgers()
            .flat_map(|l| l.samples(call).iter().copied())
            .collect()
    }

    /// Median over operations of the per-operation total of `calls`, ms.
    pub fn per_op_p50(&self, calls: &[&str]) -> f64 {
        let totals: Vec<f64> = self
            .ledgers()
            .map(|l| calls.iter().map(|c| l.total(c)).sum())
            .collect();
        median(&totals)
    }

    /// Reports the ledger: mean per-operation time of each layer, the
    /// unattributed remainder, the traced operation time, and the tracing
    /// overhead against the untraced operation times of the same run.
    pub fn report(&self, untraced_op_ms: &[f64], out: &mut Outcome) {
        let op_ms: Vec<f64> = self.ops.iter().map(|(ms, _)| *ms).collect();
        let mut attributed = vec![0.0; self.ops.len()];
        for (layer, metric) in LAYERS {
            let per_op: Vec<f64> = self.ledgers().map(|l| l.layer_total(layer)).collect();
            for (a, t) in attributed.iter_mut().zip(&per_op) {
                *a += t;
            }
            out.set(metric, mean(&per_op));
        }
        let unattributed: Vec<f64> = op_ms.iter().zip(&attributed).map(|(o, a)| o - a).collect();
        out.set("unattributed_ms", mean(&unattributed));
        out.set("traced_op_ms", mean(&op_ms));
        out.set("untraced_op_ms", mean(untraced_op_ms));
        out.set(
            "tracing_overhead_ratio",
            ratio(mean(&op_ms), mean(untraced_op_ms)),
        );
    }
}
