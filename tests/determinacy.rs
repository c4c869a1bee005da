//! Tier-1 determinacy enforcement: the structural hash is a fixed point of
//! the program, not of the schedule.
//!
//! Positive direction: for every live workload family — the fixed shapes
//! (fib, loops, matmul), the plan-driven ones (graph BFS), and the
//! data-dependent ones (quicksort, branch-and-bound, spread reduction) — an
//! enforced run on 1, 2, 4, or 8 workers, under tiny or generous substrate
//! capacity hints, must reproduce the serial structural hash bit-for-bit, and `record_program` (the offline
//! bridge) must land on the same hash.
//!
//! Negative direction: deliberately schedule-dependent programs — spawn
//! counts keyed off a shared flag, or off whether two tasks overlapped in
//! time — must fail with a typed `DeterminacyViolation` naming the first
//! divergent node, never a bogus race report, and the violation must be
//! stable across worker counts and repeated runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spprog::{build_proc, record_program, run_program, try_run_program, Proc, RunConfig};
use workloads::{
    branch_bound_plan, live_branch_bound, live_fib, live_graph_bfs, live_matmul,
    live_parallel_loop, live_quicksort, live_reduction, quicksort_input, reduction_input,
    reduction_plan, uniform_digraph, BfsVariant, LiveWorkload,
};

fn enforced(workers: usize, locations: u32, hints: (usize, usize)) -> RunConfig {
    RunConfig {
        workers,
        locations,
        max_threads: hints.0,
        max_steals: hints.1,
        enforce_determinacy: true,
        ..RunConfig::default()
    }
}

/// Tiny hints force several growth-chunk publications per run; generous
/// hints make the first chunk cover everything.  The hash must not care.
const TINY: (usize, usize) = (2, 2);
const GENEROUS: (usize, usize) = (1 << 10, 1 << 7);

fn workload_fleet() -> Vec<LiveWorkload> {
    let g = uniform_digraph(24, 2, 5);
    let qs_input = quicksort_input(12, 7);
    let bb_plan = branch_bound_plan(5, 7);
    let red_plan = reduction_plan(&reduction_input(18, 7), 8);
    vec![
        live_fib(8, true),
        live_parallel_loop(12, true),
        live_matmul(3, true),
        live_graph_bfs(&g, 2, BfsVariant::RacyVisited),
        live_quicksort(&qs_input, true),
        live_branch_bound(&bb_plan, true),
        live_reduction(&red_plan, true),
    ]
}

/// Every workload family hashes identically across 1/2/4/8 workers and tiny
/// vs generous hints — with race reports unperturbed by the enforcement —
/// and `record_program` agrees (the serial bridge).
#[test]
fn structural_hashes_are_schedule_independent_across_every_family() {
    for w in workload_fleet() {
        let serial = run_program(&w.prog, &RunConfig::serial(w.locations).enforced());
        let hash = serial.structural_hash.expect("enforced runs carry a hash");
        assert_eq!(serial.report.racy_locations(), w.expected_racy, "{} serial", w.name);
        assert_eq!(
            record_program(&w.prog, w.locations).structural_hash,
            hash,
            "{}: offline bridge hash",
            w.name
        );
        for workers in [2usize, 4, 8] {
            for hints in [TINY, GENEROUS] {
                let cfg = enforced(workers, w.locations, hints);
                let run = try_run_program(&w.prog, &cfg)
                    .unwrap_or_else(|v| panic!("{} w{workers} {hints:?}: {v}", w.name));
                assert_eq!(
                    run.structural_hash,
                    Some(hash),
                    "{} w{workers} hints {hints:?}",
                    w.name
                );
                assert_eq!(
                    run.report.racy_locations(),
                    w.expected_racy,
                    "{} w{workers}: enforcement must not perturb detection",
                    w.name
                );
            }
        }
    }
}

/// Different programs land on different hashes (the hash is not vacuous).
#[test]
fn structural_hashes_distinguish_programs() {
    let hash = |w: &LiveWorkload| {
        run_program(&w.prog, &RunConfig::serial(w.locations).enforced())
            .structural_hash
            .expect("enforced runs carry a hash")
    };
    assert_ne!(hash(&live_fib(8, true)), hash(&live_fib(9, true)));
    let a = quicksort_input(12, 7);
    let b = quicksort_input(12, 8);
    assert_ne!(hash(&live_quicksort(&a, false)), hash(&live_quicksort(&b, false)));
}

/// A program whose spawn count is keyed off a shared flag: the reference
/// execution leaves the flag set, so every subsequent run unfolds one extra
/// spawn.  Enforcement must turn that into a typed violation naming the
/// divergent node — identically at every worker count.
#[test]
fn negative_flag_keyed_spawn_count_is_a_typed_violation() {
    let flag = Arc::new(AtomicBool::new(false));
    let prog = build_proc(move |p| {
        let flag = Arc::clone(&flag);
        p.step(|_| {});
        p.spawn(move |c| {
            let widen = flag.swap(true, Ordering::Relaxed);
            c.step(|_| {});
            if widen {
                c.spawn(|g| {
                    g.step(|_| {});
                });
            }
        });
    });
    let mut divergences = Vec::new();
    for workers in [2usize, 4] {
        let cfg = RunConfig::with_workers(workers, 4).enforced();
        let err = try_run_program(&prog, &cfg)
            .expect_err("the schedule-dependent program must fail enforcement");
        assert_eq!(err.workers, workers);
        assert_ne!(err.serial_hash, err.parallel_hash);
        let divergence = err.divergence.expect("the violation names the divergent node");
        assert!(
            divergence.parallel_node.is_some() || divergence.serial_node.is_some(),
            "the divergent node is described"
        );
        divergences.push((divergence.path, format!("{divergence}")));
    }
    assert_eq!(divergences[0], divergences[1], "the diagnosis is deterministic");
}

/// A program whose recursion widens only if two spawned tasks *overlapped in
/// time* (a steal happened): green on one worker, a typed violation on ≥ 2.
#[test]
fn negative_steal_dependent_recursion_passes_serially_and_fails_parallel() {
    let prog = rendezvous_prog();
    // One worker: the tasks run back-to-back, the rendezvous times out, the
    // shape matches the reference — repeatedly.
    for _ in 0..2 {
        let run = try_run_program(&prog, &RunConfig::serial(4).enforced())
            .expect("serially the program is determinate");
        assert!(run.structural_hash.is_some());
    }
    // Two or more workers: the tasks meet, the recursion widens, and the
    // enforcer reports the divergence instead of running detection on a
    // structure the serial replay can never reproduce.
    for workers in [2usize, 4] {
        let err = try_run_program(&prog, &RunConfig::with_workers(workers, 4).enforced())
            .expect_err("overlap-keyed widening must fail enforcement");
        assert_eq!(err.workers, workers);
        let divergence = err.divergence.expect("the violation names the divergent node");
        assert!(divergence.parallel_node.is_some(), "the extra spawn is visible");
    }
}

/// Two tasks that each publish a flag and wait (bounded) for the other's;
/// a post-sync spawn widens the program iff both flags were seen — i.e. iff
/// the tasks genuinely overlapped.
fn rendezvous_prog() -> Proc {
    let here = Arc::new((AtomicBool::new(false), AtomicBool::new(false)));
    let saw = Arc::new((AtomicBool::new(false), AtomicBool::new(false)));
    build_proc(move |p| {
        let (h, s) = (Arc::clone(&here), Arc::clone(&saw));
        p.step(move |_| {
            h.0.store(false, Ordering::SeqCst);
            h.1.store(false, Ordering::SeqCst);
            s.0.store(false, Ordering::SeqCst);
            s.1.store(false, Ordering::SeqCst);
        });
        p.sync();
        for side in [false, true] {
            let (h, s) = (Arc::clone(&here), Arc::clone(&saw));
            p.spawn(move |c| {
                let (h, s) = (Arc::clone(&h), Arc::clone(&s));
                c.step(move |_| {
                    let (mine, theirs) = if side { (&h.1, &h.0) } else { (&h.0, &h.1) };
                    mine.store(true, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_millis(200);
                    while !theirs.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    let slot = if side { &s.1 } else { &s.0 };
                    slot.store(theirs.load(Ordering::SeqCst), Ordering::SeqCst);
                });
            });
        }
        p.sync();
        let s = Arc::clone(&saw);
        p.spawn(move |c| {
            let both = s.0.load(Ordering::SeqCst) && s.1.load(Ordering::SeqCst);
            c.step(|_| {});
            if both {
                c.spawn(|g| {
                    g.step(|_| {});
                });
            }
        });
    })
}
