//! The iteration series must be a pure observer with exact books: turning
//! recording on cannot change a bit of any [`EpochReport`], and the
//! downsampled series totals must reconcile against the report's stall
//! accumulators at integer-nanosecond exactness — across the model zoo,
//! with fast-forward on and off (compressed regions included), and with a
//! seeded [`FaultPlan`] driving preemptions, stragglers and bandwidth
//! faults through the replay/rebill machinery.
//!
//! This file holds exactly one test: the telemetry switch is process-wide
//! and the default harness runs tests in parallel.
//!
//! [`EpochReport`]: stash::ddl::report::EpochReport

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash::prelude::*;
use stash::telemetry::series::IterSeries;

fn clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p2_16xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
    ]
}

/// The series' running sums must equal the report's accumulators exactly:
/// `report.<cat> == from_nanos(totals.<cat>_ns) * factor` where `factor`
/// is the sampled-epoch extrapolation the report itself applied.
fn assert_reconciles(report: &EpochReport, series: &IterSeries, what: &str) {
    let t = series.totals();
    let factor = report.iterations as f64 / report.simulated_iterations as f64;
    let scaled = |ns: i64, cat: &str| {
        let ns = u64::try_from(ns).unwrap_or_else(|_| panic!("{what}: negative {cat} total {ns}"));
        SimDuration::from_nanos(ns).mul_f64(factor)
    };
    assert_eq!(
        report.compute_time,
        scaled(t.compute_ns, "compute"),
        "{what}: compute drift"
    );
    assert_eq!(
        report.data_wait,
        scaled(t.data_wait_ns, "data_wait"),
        "{what}: data_wait drift"
    );
    assert_eq!(
        report.comm_wait,
        scaled(t.comm_wait_ns, "comm_wait"),
        "{what}: comm_wait drift"
    );
    assert_eq!(
        report.recovery_time,
        scaled(t.recovery_ns, "recovery"),
        "{what}: recovery drift"
    );
    assert_eq!(
        report.straggler_time,
        scaled(t.straggler_ns, "straggler"),
        "{what}: straggler drift"
    );
}

/// Bucket timestamps must be monotone and — on fault-free runs, where no
/// replay rewinds the clock attribution — contiguous: each bucket ends
/// exactly where the next begins, starting from t=0. Pair-merging
/// preserves this because a merged bucket keeps the first window's start
/// and the summed wall.
fn assert_contiguous(series: &IterSeries, what: &str) {
    let mut expect_start = 0u64;
    for (i, s) in series.samples.iter().enumerate() {
        assert_eq!(
            s.start_ns, expect_start,
            "{what}: bucket {i} not contiguous"
        );
        expect_start = s.start_ns + s.wall_ns;
    }
    assert!(
        series.end_ns >= expect_start,
        "{what}: end_ns precedes last bucket"
    );
}

#[test]
fn series_reconciles_exactly_and_never_perturbs() {
    stash::telemetry::enable();

    // --- zoo sweep: bit-identical reports + exact reconciliation.
    for cluster in clusters() {
        for model in zoo::small_models() {
            let mut cfg = TrainConfig::synthetic(cluster.clone(), model.clone(), 32, 32 * 64);
            cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
            for fast_forward in [false, true] {
                let what = format!(
                    "{} x {} ff={fast_forward}",
                    cfg.cluster.display_name(),
                    model.name
                );
                let plain = run(
                    &cfg,
                    RunSpec {
                        fast_forward,
                        ..RunSpec::default()
                    },
                )
                .expect("plain epoch")
                .report;
                let sr = run(
                    &cfg,
                    RunSpec {
                        series: true,
                        fast_forward,
                        ..RunSpec::default()
                    },
                )
                .expect("series epoch");
                assert_eq!(plain, sr.report, "{what}: series perturbed the report");
                assert!(!sr.series.is_empty(), "{what}: empty series");
                let t = sr.series.totals();
                assert_eq!(
                    t.iterations, plain.simulated_iterations,
                    "{what}: iteration count drift"
                );
                assert_reconciles(&plain, &sr.series, &what);
                assert_contiguous(&sr.series, &what);
            }
        }
    }

    // --- long full epoch: fast-forward engages and the skipped span shows
    // up as an explicitly compressed region whose books still balance.
    let mut long = TrainConfig::synthetic(
        ClusterSpec::single(p3_8xlarge()),
        zoo::resnet18(),
        32,
        32 * 200,
    );
    long.epoch_mode = EpochMode::Full;
    let plain = run(
        &long,
        RunSpec {
            fast_forward: true,
            ..RunSpec::default()
        },
    )
    .expect("plain")
    .report;
    let sr = run(
        &long,
        RunSpec {
            series: true,
            fast_forward: true,
            ..RunSpec::default()
        },
    )
    .expect("series");
    assert_eq!(plain, sr.report, "long run: series perturbed the report");
    let t = sr.series.totals();
    assert!(
        t.ff_iterations > 0,
        "long run: fast-forward never engaged (ff_iterations=0)"
    );
    assert!(
        sr.series.samples.iter().any(|s| s.ff_iterations > 0),
        "long run: no compressed-region sample"
    );
    assert_eq!(
        t.iterations, plain.simulated_iterations,
        "long run: count drift"
    );
    assert_reconciles(&plain, &sr.series, "long run");
    assert_contiguous(&sr.series, "long run");

    // --- seeded fault plans: the faulted run is bit-identical with the
    // series on, reconciliation survives checkpoint-replay rebilling and
    // elastic reform, and fired events become window annotations.
    let mut faulty = TrainConfig::synthetic(
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        zoo::resnet18(),
        32,
        32 * 16,
    );
    faulty.epoch_mode = EpochMode::Full;
    let base = run_epoch(&faulty).expect("baseline");
    for seed in [7, 11, 23] {
        let plan = FaultPlan::seeded(seed, faulty.cluster.world_size(), 2, base.epoch_time);
        for fast_forward in [false, true] {
            let what = format!("seed {seed} ff={fast_forward}");
            let faulted = run(
                &faulty,
                RunSpec {
                    plan: Some(&plan),
                    fast_forward,
                    ..RunSpec::default()
                },
            )
            .expect("faulted epoch");
            let sr = run(
                &faulty,
                RunSpec {
                    plan: Some(&plan),
                    series: true,
                    fast_forward,
                    ..RunSpec::default()
                },
            )
            .expect("series epoch");
            assert_eq!(
                (&faulted.report, &faulted.faults),
                (&sr.report, &sr.faults),
                "{what}: series perturbed the faulted run"
            );
            assert_reconciles(&sr.report, &sr.series, &what);
            let fired = sr.faults.events.iter().filter(|e| e.fired).count();
            assert!(
                sr.series.annotations.len() >= fired,
                "{what}: {fired} fired events but only {} annotations",
                sr.series.annotations.len()
            );
            for a in &sr.series.annotations {
                assert!(
                    a.end_ns >= a.start_ns,
                    "{what}: inverted annotation {:?}",
                    a.label
                );
            }
        }
    }

    // --- switch off: the same entry point degrades to a plain run with an
    // empty series.
    stash::telemetry::disable();
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_2xlarge()),
        zoo::resnet18(),
        32,
        32 * 64,
    );
    cfg.epoch_mode = EpochMode::Sampled { iterations: 8 };
    let plain = run_epoch(&cfg).expect("plain epoch");
    let sr = run(
        &cfg,
        RunSpec {
            series: true,
            fast_forward: true,
            ..RunSpec::default()
        },
    )
    .expect("series epoch");
    assert_eq!(plain, sr.report, "disabled: report drift");
    assert!(sr.series.is_empty(), "disabled: series not empty");
}
