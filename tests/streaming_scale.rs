//! Bounded-memory gate for the streaming trace pipeline.
//!
//! Installs a counting global allocator (integration tests are their own
//! crates, so the façade's `forbid(unsafe_code)` does not apply here) and
//! proves the headline claim of the streaming pipeline: a 10M-access
//! adversarial workload solves and simulates end-to-end while the peak of
//! live heap bytes stays under a fixed budget — far below what
//! materializing the trace (10M × `Access`) would require.
//!
//! The 10M run is release-only (`cargo test --release`); a small smoke
//! variant covers debug builds so the allocator plumbing is always
//! exercised.

use rtm::offsetstone::TierWorkload;
use rtm::placement::eval::FitnessEngine;
use rtm::placement::random_walk;
use rtm::trace::{AccessStream, PositionIndex};
use rtm::{Budget, CostModel, RtmGeometry, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live/peak byte counters over the system allocator; the peak is kept
/// with a CAS loop so concurrent engine workers never lose a high-water
/// mark.
struct TrackingAllocator;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    let mut seen = PEAK.load(Ordering::Relaxed);
    while live > seen {
        match PEAK.compare_exchange_weak(seen, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => seen = now,
        }
    }
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

const MIB: usize = 1024 * 1024;

/// Streams `target` accesses of the adversarial sweep through the full
/// pipeline (index → streaming engine → random walk → streaming
/// simulator) and asserts the tracked allocation peak stays under
/// `budget_bytes`.
fn solve_streamed_under(target: usize, evals: u64, budget_bytes: usize) {
    let base = TierWorkload::by_name("adv-sweep", 1.0).expect("adv-sweep exists");
    let scale = target as f64 / base.access_count() as f64;
    let w = TierWorkload::by_name("adv-sweep", scale).expect("adv-sweep rescales");
    let accesses = w.access_count();
    assert!(
        accesses.abs_diff(target) <= 1,
        "rescaled workload misses the target length: {accesses} vs {target}"
    );

    let dbcs = 8;
    let capacity = w.var_count().div_ceil(dbcs).max(8);
    let cost = CostModel::single_port();

    reset_peak();
    let index = PositionIndex::from_stream(&w);
    let index_bytes = index.heap_bytes();
    let engine = FitnessEngine::from_compact_index(index, cost);
    let out =
        random_walk::run_budgeted(&engine, dbcs, capacity, 0x5CA1E, Budget::evals(evals), None)
            .expect("workload fits the chosen geometry");

    let geometry = RtmGeometry::new(dbcs, 32, capacity, 1).expect("valid geometry");
    let params = rtm::arch::table1::preset(dbcs)
        .unwrap_or_else(|| rtm::ScalingModel::from_table1().params(dbcs));
    let sim = Simulator::new(geometry, params).expect("matching simulator params");
    let stats = sim
        .run_stream(&w, &out.placement)
        .expect("search placements are valid");
    let peak = peak_bytes();

    assert_eq!(
        stats.shifts, out.cost,
        "streamed simulator must agree with the streaming engine"
    );
    assert!(
        peak < budget_bytes,
        "peak tracked allocation {:.1} MiB (index {:.1} MiB) exceeds the {:.0} MiB budget for {accesses} accesses",
        peak as f64 / MIB as f64,
        index_bytes as f64 / MIB as f64,
        budget_bytes as f64 / MIB as f64,
    );
}

/// 10M accesses, fixed 128 MiB budget. A materialized `Vec<Access>` alone
/// would exceed this; the position index plus merge scratch bounded by
/// the merge window stays well inside it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10M-access run is release-only (cargo test --release)"
)]
fn ten_million_access_streamed_solve_stays_under_128_mib() {
    solve_streamed_under(10_000_000, 32, 128 * MIB);
}

/// Debug-profile smoke of the same pipeline and allocator plumbing at a
/// length that finishes quickly.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "covered by the 10M release gate; avoids concurrent peak-counter pollution"
)]
fn small_streamed_solve_stays_under_64_mib() {
    solve_streamed_under(120_000, 16, 64 * MIB);
}
