//! Multi-worker stress test for SP-hybrid.
//!
//! Repeated seeds at `workers ∈ {2, 4, 8}` on divide-and-conquer and random
//! Cilk programs, with busy-work in every thread to widen the steal windows.
//! Each run asserts
//!
//! * the paper's trace accounting: `|C| = 4·steals + 1` and exactly one
//!   global-tier insertion per steal,
//! * query correctness under concurrent steals: every `SP-PRECEDES` answer
//!   recorded while the run raced along (including lock-free global-tier
//!   queries that had to retry) matches the LCA oracle.

use parking_lot::Mutex;
use sphybrid::HybridBackend;
use spmaint::api::{BackendConfig, SpBackend};
use sptree::cilk::CilkProgram;
use sptree::generate::{fib_like, random_cilk_program, CilkGenParams};
use sptree::oracle::SpOracle;
use sptree::tree::{ParseTree, ThreadId};
use std::sync::atomic::{AtomicBool, Ordering};

/// Run SP-hybrid on `workers` workers, querying every already-executed
/// thread from every thread, and verify all recorded answers.  Returns
/// (steals, traces, query retries).
fn stress_run(tree: &ParseTree, workers: usize, spin: u64) -> (u64, usize, u64) {
    let executed: Vec<AtomicBool> =
        (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect();
    let recorded: Mutex<Vec<(ThreadId, ThreadId, bool)>> = Mutex::new(Vec::new());
    let mut hybrid = HybridBackend::build(tree, BackendConfig::with_workers(workers));
    hybrid.run(|h, current, trace| {
        let mut x = 1u64;
        for i in 0..spin {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let mut answers = Vec::new();
        for earlier in 0..tree.num_threads() as u32 {
            let earlier = ThreadId(earlier);
            if earlier == current || !executed[earlier.index()].load(Ordering::Acquire) {
                continue;
            }
            answers.push((earlier, current, h.precedes_current(earlier, trace)));
        }
        recorded.lock().extend(answers);
        executed[current.index()].store(true, Ordering::Release);
    });

    let stats = hybrid.stats().expect("the run completed");
    let oracle = SpOracle::new(tree);
    for (earlier, current, answer) in recorded.into_inner() {
        assert_eq!(
            answer,
            oracle.precedes(earlier, current),
            "workers={workers}: wrong answer for u{} ≺ u{}",
            earlier.0,
            current.0
        );
    }

    // Trace accounting (paper §3): every steal splits one trace into five,
    // creating four; the global tier sees exactly one insertion per steal.
    assert_eq!(stats.traces as u64, 4 * stats.run.steals + 1, "workers={workers}");
    assert_eq!(stats.global_insertions, stats.run.steals, "workers={workers}");
    (stats.run.steals, stats.traces, stats.query_retries)
}

#[test]
fn repeated_seeds_across_worker_counts_hold_trace_invariant() {
    let mut total_steals = 0u64;
    let mut total_retries = 0u64;
    for workers in [2usize, 4, 8] {
        for seed in 0..4u64 {
            let params = CilkGenParams {
                max_depth: 6,
                max_blocks: 2,
                max_stmts: 4,
                spawn_prob: 0.6,
                work: 2,
            };
            let tree = CilkProgram::new(random_cilk_program(params, seed)).build_tree();
            let (steals, _traces, retries) = stress_run(&tree, workers, 150);
            total_steals += steals;
            total_retries += retries;
        }
    }
    // The matrix is big enough that at least some runs must actually steal —
    // otherwise the cross-trace query path was never exercised.
    assert!(total_steals > 0, "no steals across the whole stress matrix");
    let _ = total_retries; // retries are timing-dependent; correctness is asserted above
}

#[test]
fn fib_tree_stress_exercises_concurrent_steal_queries() {
    let tree = CilkProgram::new(fib_like(9, 1)).build_tree();
    for workers in [2usize, 4, 8] {
        for _round in 0..3 {
            let (steals, traces, _retries) = stress_run(&tree, workers, 200);
            assert_eq!(traces as u64, 4 * steals + 1);
        }
    }
}

/// End-to-end multi-worker stress of the *detector* path: hot shared
/// locations read by every thread (hammering the sharded shadow memory's
/// lock-free fast path concurrently) plus injected write-write races (each
/// forcing the striped-lock slow path and a report).  Every worker count
/// must find exactly the injected racy locations — same set as the serial
/// SP-order reference.
#[test]
fn contended_shadow_detection_matches_serial_across_worker_counts() {
    use racedet::detect_races;
    use spmaint::api::BackendConfig;
    use spmaint::SpOrder;
    use workloads::{inject_races, shared_read_private_write};

    for seed in 0..3u64 {
        let params = CilkGenParams {
            max_depth: 5,
            max_blocks: 2,
            max_stmts: 4,
            spawn_prob: 0.6,
            work: 2,
        };
        // Wrap the random program under an initial serial segment so thread 0
        // precedes every other thread — the precondition for the shared-read
        // base script to be race-free.
        let inner = random_cilk_program(params, seed);
        let main = sptree::cilk::Procedure::single(
            sptree::cilk::SyncBlock::new().work(1).spawn(inner).work(1),
        );
        let tree = CilkProgram::new(main).build_tree();
        let base = shared_read_private_write(&tree, 8, 12);
        let wanted = (tree.num_threads() / 4).clamp(1, 6);
        let (script, expected) = inject_races(&tree, &base, wanted, seed ^ 0x57E55);

        let (serial, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        assert_eq!(serial.racy_locations(), expected, "seed {seed}: serial reference");

        for workers in [2usize, 4, 8] {
            let (report, _) = detect_races::<sphybrid::HybridBackend>(
                &tree,
                &script,
                BackendConfig::with_workers(workers),
            );
            assert_eq!(
                report.racy_locations(),
                expected,
                "seed {seed}, workers {workers}: hybrid detector under shadow contention"
            );
            let (report, _) = detect_races::<sphybrid::NaiveBackend>(
                &tree,
                &script,
                BackendConfig::with_workers(workers),
            );
            assert_eq!(
                report.racy_locations(),
                expected,
                "seed {seed}, workers {workers}: naive detector under shadow contention"
            );
        }
    }
}

#[test]
fn single_worker_baseline_never_splits() {
    let tree = CilkProgram::new(fib_like(7, 1)).build_tree();
    let (steals, traces, retries) = stress_run(&tree, 1, 0);
    assert_eq!(steals, 0);
    assert_eq!(traces, 1);
    assert_eq!(retries, 0, "no concurrent insertions, so queries never retry");
}
