//! One counter mechanism: the event queue and the flow network count in
//! plain locals, and the engine's once-per-epoch flush is the only path
//! those counts take into the telemetry registry. So the registry reads
//! the same with the telemetry switch on or off, `ddl::perf_stats` is a
//! view of it, and the registry's delivered-event count is the queue's
//! own.
//!
//! This file holds exactly one test: the registry and the switch are
//! process-wide, so concurrent tests would pollute the deltas.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash::ddl::perf_stats;
use stash::prelude::*;
use stash::telemetry::snapshot::Snapshot;

fn configs() -> Vec<TrainConfig> {
    [
        (ClusterSpec::single(p3_2xlarge()), zoo::shufflenet(), 32),
        (
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
            zoo::resnet18(),
            32,
        ),
        (ClusterSpec::single(p3_16xlarge()), zoo::alexnet(), 64),
    ]
    .into_iter()
    .map(|(cluster, model, batch)| {
        let mut cfg = TrainConfig::synthetic(cluster, model, batch, batch * 64);
        cfg.epoch_mode = EpochMode::Sampled { iterations: 10 };
        cfg
    })
    .collect()
}

/// The simulation counters (`stash_sim_*`) of a registry delta.
fn sim_counters(delta: &Snapshot) -> Vec<(&'static str, u64)> {
    delta
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("stash_sim_"))
        .copied()
        .collect()
}

fn run_in(cfg: &TrainConfig, fast_forward: bool, arena: &mut EngineArena) {
    let spec = RunSpec {
        fast_forward,
        arena: Some(arena),
        ..RunSpec::default()
    };
    run(cfg, spec).expect("run");
}

#[test]
fn simulation_counters_have_one_source_whatever_the_switch() {
    let mut arena = EngineArena::new();
    let mut skipped = 0;
    for cfg in configs() {
        for fast_forward in [true, false] {
            // Warm the arena so both measured runs count one arena reuse.
            run_in(&cfg, fast_forward, &mut arena);
            let mut by_switch = Vec::new();
            for on in [false, true] {
                if on {
                    stash::telemetry::enable();
                } else {
                    stash::telemetry::disable();
                }
                let (reg0, perf0) = (Snapshot::take(), perf_stats::snapshot());
                run_in(&cfg, fast_forward, &mut arena);
                let reg = Snapshot::take().since(&reg0);
                let perf = perf_stats::snapshot().since(&perf0);
                let what = format!(
                    "{} on {} (fast_forward {fast_forward}, switch {on})",
                    cfg.model.name,
                    cfg.cluster.display_name()
                );

                assert_eq!(
                    perf.full_recomputes,
                    reg.counter("stash_sim_solver_full_recomputes_total"),
                    "{what}"
                );
                assert_eq!(
                    perf.shortcut_events,
                    reg.counter("stash_sim_solver_shortcut_events_total"),
                    "{what}"
                );
                assert_eq!(
                    perf.fast_forwarded_iterations,
                    reg.counter("stash_sim_ff_iterations_total"),
                    "{what}"
                );
                assert_eq!(
                    perf.sim_events,
                    reg.counter("stash_sim_queue_events_popped_total"),
                    "{what}"
                );

                let q = arena.queue_counters();
                assert!(q.delivered > 0, "{what}");
                assert_eq!(
                    reg.counter("stash_sim_queue_events_popped_total"),
                    q.delivered,
                    "{what}"
                );
                assert_eq!(
                    reg.counter("stash_sim_queue_events_pushed_total"),
                    q.scheduled,
                    "{what}"
                );
                assert_eq!(
                    reg.counter("stash_sim_queue_events_cancelled_total"),
                    q.cancelled,
                    "{what}"
                );
                assert!(reg.gauge("stash_sim_queue_depth_high_water") >= q.depth_high_water);
                assert_eq!(reg.counter("stash_sim_epochs_total"), 1, "{what}");
                assert_eq!(reg.counter("stash_sim_arena_reuse_total"), 1, "{what}");
                skipped += perf.fast_forwarded_iterations;
                by_switch.push(sim_counters(&reg));
            }
            assert_eq!(
                by_switch[0],
                by_switch[1],
                "the switch changed a counter: {} on {} (fast_forward {fast_forward})",
                cfg.model.name,
                cfg.cluster.display_name()
            );
        }
    }
    stash::telemetry::disable();
    assert!(skipped > 0, "no config exercised fast-forward");
}
