//! The serial spawn path's budgets as counts (no clocks).
//!
//! `spawn-fib` is all forks: what one fork costs is what the run costs.  Two
//! parts of that cost are exact allocation counts, so they are asserted here
//! instead of being read off a timer:
//!
//! * unfolding a lazily spawned procedure takes **1.75** allocations per
//!   executed thread on `live_fib` — per instance (two threads each) one
//!   statement vector and the one `Rc<ProcInst>` that owns it, plus a box
//!   per closure that captures something: two spawn bodies in an inner
//!   instance (4 allocations; its zero-sized join step takes none), one step
//!   in a leaf instance (3);
//! * serial SP maintenance and detection add **no** per-node allocation on
//!   top of that: a list handle rides the scheduler's tag, so an instrumented
//!   run allocates a constant (detector set-up) plus vector doublings more
//!   than the bare walk, whatever the program's size.
//!
//! And one budget of the serial *check* path: a one-worker detector has one
//! shadow stripe, so a race-free batch is walked in script order and
//! allocates **nothing** (a striped store builds an index vector per batch
//! that spans stripes).
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sp_maintenance::racedet::{Access, LiveDetector};
use sp_maintenance::spmaint::CurrentSpQuery;
use sp_maintenance::spprog::{run_program, run_uninstrumented, Proc, RunConfig};
use sp_maintenance::sptree::tree::ThreadId;
use sp_maintenance::workloads::live::live_fib;

thread_local! {
    /// Allocations (and reallocations) made by this thread.  Per thread, so
    /// the test harness's own threads cannot disturb a count; const-initialised
    /// and without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while `f` runs (serial runs execute
/// on the calling thread).
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// `(threads, allocations)` of the bare serial walk of `prog`.
fn bare_walk(prog: &Proc) -> (u64, u64) {
    let ((threads, _, _), allocations) = allocations_during(|| run_uninstrumented(prog, 1, 1));
    (threads, allocations)
}

#[test]
fn a_lazily_spawned_thread_costs_seven_quarters_of_an_allocation() {
    // Value memory, the walk's stack doublings, the root instance.
    const PER_RUN: u64 = 32;
    let (threads, allocations) = bare_walk(&live_fib(16, false).prog);
    println!(
        "live_fib(16): {allocations} allocations / {threads} threads = {:.3}",
        allocations as f64 / threads as f64
    );
    assert!(threads > 1_000, "the constant must be small beside the run");
    assert!(
        4 * allocations <= 7 * threads + 4 * PER_RUN,
        "{allocations} allocations for {threads} threads"
    );
}

#[test]
fn serial_sp_maintenance_allocates_nothing_per_node() {
    // Detector set-up plus the doublings of a handful of vectors (the Hebrew
    // order-maintenance list, the thread table, the access buffer): grows
    // with the logarithm of the run, not with the run.
    const MAX_EXTRA: u64 = 128;
    for depth in [16, 20] {
        let fib = live_fib(depth, false);
        let (threads, bare) = bare_walk(&fib.prog);
        let (run, instrumented) =
            allocations_during(|| run_program(&fib.prog, &RunConfig::serial(fib.locations)));
        assert_eq!(run.threads, threads);
        assert!(run.report.is_empty());
        println!("live_fib({depth}): {threads} threads, bare {bare}, instrumented {instrumented}");
        assert!(
            instrumented <= bare + MAX_EXTRA,
            "live_fib({depth}): {instrumented} allocations instrumented, {bare} bare"
        );
    }
}

#[test]
fn a_one_worker_batch_allocates_nothing() {
    /// A serial chain: every recorded thread precedes the current one.
    struct AllPrecede;
    impl CurrentSpQuery for AllPrecede {
        fn precedes_current(&self, _earlier: ThreadId) -> bool {
            true
        }
    }
    const CELLS: u32 = 4096;
    let detector = LiveDetector::new(CELLS, 1);
    // 1,000 batches of 64 reads and writes scattered over the whole store
    // (a multiplicative scramble, so each batch lands all over it).
    let batches: Vec<Vec<Access>> = (0..1_000u32)
        .map(|t| {
            (0..64u32)
                .map(|k| {
                    let loc = (t * 64 + k).wrapping_mul(2_654_435_761) % CELLS;
                    if (t + k) % 3 == 0 { Access::write(loc) } else { Access::read(loc) }
                })
                .collect()
        })
        .collect();
    let ((), allocations) = allocations_during(|| {
        for (t, batch) in batches.iter().enumerate() {
            detector.check_thread(&AllPrecede, ThreadId(t as u32), batch);
        }
    });
    println!("1,000 scattered 64-access batches on one stripe: {allocations} allocations");
    assert_eq!(allocations, 0, "a one-stripe batch is walked in script order, in place");
    assert!(detector.report().is_empty());
}
