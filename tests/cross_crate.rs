//! Cross-crate integration tests: program generators → SP maintenance → race
//! detection, serial vs parallel.

use sp_maintenance::prelude::*;
use sp_maintenance::sphybrid::hybrid::run_hybrid;
use sp_maintenance::workloads::{disjoint_writes, inject_races, shared_read_private_write};
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn serial_detectors_agree_across_algorithms_on_random_programs() {
    for seed in 0..4u64 {
        let workload = Workload::build(WorkloadKind::RandomSp, 400, 1, seed);
        let base = disjoint_writes(&workload.tree, 3);
        let (script, expected) = inject_races(&workload.tree, &base, 6, seed + 100);
        let (a, _) = detect_races::<SpOrder>(&workload.tree, &script, BackendConfig::serial());
        let (b, _) = detect_races::<SpBags>(&workload.tree, &script, BackendConfig::serial());
        let (c, _) = detect_races::<EnglishHebrewLabels>(&workload.tree, &script, BackendConfig::serial());
        let (d, _) = detect_races::<OffsetSpanLabels>(&workload.tree, &script, BackendConfig::serial());
        for report in [&a, &b, &c, &d] {
            assert_eq!(report.racy_locations(), expected, "seed {seed}");
        }
    }
}

#[test]
fn parallel_detector_matches_serial_on_cilk_workloads() {
    for (kind, seed) in [(WorkloadKind::Fib, 1u64), (WorkloadKind::RandomCilk, 2)] {
        let workload = Workload::build(kind, 600, 2, seed);
        let base = shared_read_private_write(&workload.tree, 16, 4);
        let (script, injected) = inject_races(&workload.tree, &base, 4, seed + 7);
        // The serial detector (backed by oracle-exact SP-order) is the ground
        // truth: random Cilk programs may start with a spawn, in which case
        // the "shared" block written by the first thread legitimately races
        // with the parallel readers, in addition to the injected races.
        let (serial, _) = detect_races::<SpOrder>(&workload.tree, &script, BackendConfig::serial());
        let expected = serial.racy_locations();
        for loc in &injected {
            assert!(expected.contains(loc), "injected race on {loc} must be found");
        }
        for workers in [1usize, 4, 8] {
            let (parallel, backend) = detect_races::<HybridBackend>(
                &workload.tree,
                &script,
                BackendConfig::with_workers(workers),
            );
            let stats = backend.stats().expect("the run completed");
            assert_eq!(
                parallel.racy_locations(),
                expected,
                "kind {:?} workers {workers}",
                kind
            );
            assert_eq!(stats.traces as u64, 4 * stats.run.steals + 1);
        }
    }
}

#[test]
fn hybrid_answers_match_serial_sp_order_during_parallel_execution() {
    // Run SP-hybrid on a fib program and check a sample of its on-line answers
    // against a fully built serial SP-order structure.
    let workload = Workload::build(WorkloadKind::Fib, 800, 1, 9);
    let tree = &workload.tree;
    let reference: SpOrder = run_serial(tree);
    let executed: Vec<AtomicBool> = (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect();
    let failures = std::sync::atomic::AtomicU64::new(0);
    let (_hybrid, stats) = run_hybrid(
        tree,
        sp_maintenance::sphybrid::HybridConfig::with_workers(6),
        |h, current, trace| {
            for step in 1..16u32 {
                let earlier = ThreadId(current.0.wrapping_sub(step * 17) % tree.num_threads() as u32);
                if earlier == current || !executed[earlier.index()].load(Ordering::Acquire) {
                    continue;
                }
                if h.precedes_current(earlier, trace) != reference.precedes(earlier, current) {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            }
            executed[current.index()].store(true, Ordering::Release);
        },
    );
    assert_eq!(failures.load(Ordering::Relaxed), 0);
    assert_eq!(stats.global_insertions, stats.run.steals);
}

#[test]
fn workload_metrics_are_consistent_with_detector_work() {
    let workload = Workload::build(WorkloadKind::ParallelLoop, 1000, 5, 0);
    let script = disjoint_writes(&workload.tree, 2);
    assert_eq!(script.total_accesses(), 2 * workload.tree.num_threads());
    let (report, alg) = detect_races::<SpOrder>(&workload.tree, &script, BackendConfig::serial());
    assert!(report.is_empty());
    // The SP-order structure holds every node of the tree plus the two list
    // base elements.
    assert!(alg.space_bytes() > 0);
}
