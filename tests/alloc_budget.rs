//! The zero-allocation steady-state gate: once the engine is warmed up,
//! simulating *more* iterations of a synthetic epoch must not allocate at
//! all. We prove it by running the same configuration at N and 2N
//! iterations inside a reused [`EngineArena`]: every allocation either
//! happens during construction/reporting (identical for both runs) or on
//! the per-iteration hot path (which would make the 2N run allocate
//! more). Equal counts ⇒ the hot path is allocation-free.
//!
//! This file holds exactly one test so the global counting allocator is
//! not polluted by concurrent tests in the same binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use stash::ddl::engine::EngineArena;
use stash::prelude::*;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Count only while the measuring thread says so: the libtest harness
// thread blocks in `recv()` for the duration of the test and can lazily
// allocate its parker mid-window, which used to land ±2 allocations in
// a random measured region and flake the exact-equality assertions.
std::thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let value = f();
    MEASURING.with(|m| m.set(false));
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn steady_state_iterations_allocate_exactly_nothing() {
    // Multi-GPU so the hot path exercises collective flows, flow-rate
    // recomputation and the event queue — not just compute timers.
    let mk = |iters: u64| {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_8xlarge()),
            zoo::alexnet(),
            8,
            8 * 128,
        );
        cfg.epoch_mode = EpochMode::Sampled { iterations: iters };
        cfg
    };
    // Fast-forward would trivialize the gate by not simulating the extra
    // iterations; disable it so every iteration runs event by event.
    let run = |arena: &mut EngineArena, iters: u64| {
        let cfg = mk(iters);
        allocations_during(|| {
            let spec = RunSpec {
                arena: Some(arena),
                fast_forward: false,
                ..RunSpec::default()
            };
            stash::ddl::engine::run(&cfg, spec).expect("epoch").report
        })
    };

    let mut arena = EngineArena::new();
    // Warm up: grows every pooled buffer (slab, heap, scratch) to its
    // steady-state capacity and settles lazy one-time initialisation.
    run(&mut arena, 64);
    run(&mut arena, 64);

    let (short, short_allocs) = run(&mut arena, 64);
    let (long, long_allocs) = run(&mut arena, 128);

    assert_eq!(
        short_allocs,
        long_allocs,
        "simulating 64 extra steady-state iterations allocated \
         {} extra times (short run {short_allocs}, long run {long_allocs})",
        long_allocs.saturating_sub(short_allocs),
    );
    assert!(short.epoch_time > SimDuration::ZERO);
    assert!(long.epoch_time > SimDuration::ZERO);

    // With everything warm, arena-reusing epochs are cheap in absolute
    // terms too: construction + reporting only.
    assert!(
        short_allocs < 200,
        "warm epoch allocated {short_allocs} times — construction got expensive"
    );
}
