//! Tier-1 live-vs-tree conformance: fixed-seed subset of the
//! `spconform::live` differential sweep, small enough for every
//! `cargo test` run.
//!
//! Each case executes a random Cilk program **both ways** — live through the
//! `spprog` spawn/sync API (user closures on the work-stealing scheduler, SP
//! structure unfolding on the fly, races detected online with no
//! materialized parse tree) and offline through the recorded tree with the
//! classic backends — and cross-checks the reports: bit-identical serially
//! (against *every* serial backend), location-sound and planted-complete on
//! ≥ 2 workers under the live SP-hybrid (the §3 strawman is checked on the
//! recorded tree, next to the other offline backends).  Seeds come from
//! `spconform::case_seed` so this suite draws from the same stream as the
//! full sweep.

use racedet::detect_races;
use spconform::{case_seed, check_live_case, tree_sexpr, ShapeKind};
use spmaint::{BackendConfig, EnglishHebrewLabels, OffsetSpanLabels, SpBags, SpOrder};
use sphybrid::{HybridBackend, NaiveBackend};
use spprog::{record_program, run_program, try_run_program, RunConfig};
use sptree::cilk::CilkProgram;
use workloads::{
    bfs_plan, bfs_procedure, branch_bound_plan, live_bfs_from_plan, live_branch_bound, live_fib,
    live_graph_bfs, live_matmul, live_parallel_loop, live_quicksort, live_reduction,
    power_law_digraph, quicksort_input, reduction_input, reduction_plan, uniform_digraph,
    BfsVariant,
};

/// Base seed of the fixed tier-1 live suite (distinct from both the main
/// sweep default and the fixed conformance suite).
const BASE_SEED: u64 = 0x11FE_5EED;

/// The fixed-seed live differential sweep: every Cilk-form shape, 10 cases
/// each, always on 2 workers (every 5th case on 4).  The acceptance bar of
/// the live subsystem: a program written against the spawn/sync API, run
/// with ≥ 2 workers, reports the same races as the tree-driven engine on
/// the equivalent parse tree.
#[test]
fn live_and_tree_runs_report_the_same_races() {
    const CASES_PER_SHAPE: u64 = 10;
    let mut cases = 0u64;
    let mut planted = 0u64;
    for (shape_idx, shape) in ShapeKind::ALL.iter().copied().enumerate() {
        if shape.build_procedure(1, 1).is_none() {
            continue; // RandomSp has no Cilk form, hence no live program
        }
        for case in 0..CASES_PER_SHAPE {
            let seed = case_seed(BASE_SEED, shape_idx as u64, case);
            let size = 4 + (seed % 20) as u32;
            let workers = if case % 5 == 0 { 4 } else { 2 };
            match check_live_case(shape, size, seed, workers) {
                Ok(stats) => {
                    cases += 1;
                    planted += stats.planted;
                    assert_eq!(stats.parallel_runs, 1, "the live SP-hybrid ran");
                }
                Err(d) => panic!(
                    "{} (shape={}, size={size}, seed={seed:#x}, workers={workers}): {}",
                    d.backend,
                    shape.name(),
                    d.detail
                ),
            }
        }
    }
    assert_eq!(cases, 90, "9 Cilk shapes × 10 cases");
    assert!(planted > 0, "the sweep must exercise real races");
}

/// Serial live reports must be bit-identical to offline detection through
/// **every** serial backend (they all agree with each other already; this
/// pins the live path to the same fixpoint).
#[test]
fn serial_live_reports_match_every_offline_backend() {
    for (workload, locations) in [
        (live_fib(7, true), 1),
        (live_parallel_loop(10, true), 12),
        (live_matmul(3, true), 28),
    ] {
        assert_eq!(workload.locations, locations, "{} location budget", workload.name);
        let live = run_program(&workload.prog, &RunConfig::serial(locations));
        assert_eq!(
            live.report.racy_locations(),
            workload.expected_racy,
            "{} expected races",
            workload.name
        );
        let rec = record_program(&workload.prog, locations);
        let serial = BackendConfig::serial();
        let offline = [
            ("sp-order", detect_races::<SpOrder>(&rec.tree, &rec.script, serial).0),
            ("sp-bags", detect_races::<SpBags>(&rec.tree, &rec.script, serial).0),
            (
                "english-hebrew",
                detect_races::<EnglishHebrewLabels>(&rec.tree, &rec.script, serial).0,
            ),
            (
                "offset-span",
                detect_races::<OffsetSpanLabels>(&rec.tree, &rec.script, serial).0,
            ),
            ("naive-locked", detect_races::<NaiveBackend>(&rec.tree, &rec.script, serial).0),
            ("sp-hybrid", detect_races::<HybridBackend>(&rec.tree, &rec.script, serial).0),
        ];
        for (name, report) in &offline {
            assert_eq!(
                live.report.races(),
                report.races(),
                "{}: live serial vs offline {name}",
                workload.name
            );
        }
    }
}

/// Planted-race completeness for the data-dependent workload families
/// (quicksort, branch-and-bound, spread reduction), on the same fixed seed
/// matrix the CI conformance legs sweep: serial reports bit-identical to the
/// offline reference through the recorded bridge, and exact planted-set
/// equality on ≥ 2 workers — all under determinacy enforcement, which is
/// what licenses running these value-shaped programs live at all.
#[test]
fn data_dependent_families_report_exactly_their_planted_races() {
    for seed in [0xC0FFEEu64, 0x1CEB_00DA, 0x5EED_C0DE] {
        let qs_input = quicksort_input(10 + (seed % 7) as u32, seed);
        let bb_plan = branch_bound_plan(4 + (seed % 4) as u32, seed);
        let red_plan = reduction_plan(&reduction_input(14 + (seed % 9) as u32, seed), 8);
        // These seeds genuinely plant: a vacuous expected set tests nothing.
        assert!(!live_quicksort(&qs_input, true).expected_racy.is_empty());
        assert!(!live_branch_bound(&bb_plan, true).expected_racy.is_empty());
        assert!(!live_reduction(&red_plan, true).expected_racy.is_empty());
        for racy in [false, true] {
            for w in [
                live_quicksort(&qs_input, racy),
                live_branch_bound(&bb_plan, racy),
                live_reduction(&red_plan, racy),
            ] {
                let rec = record_program(&w.prog, w.locations);
                let (offline, _) =
                    detect_races::<SpOrder>(&rec.tree, &rec.script, BackendConfig::serial());
                let serial = run_program(&w.prog, &RunConfig::serial(w.locations).enforced());
                assert_eq!(
                    serial.report.races(),
                    offline.races(),
                    "{} seed {seed:#x}: serial bridge",
                    w.name
                );
                assert_eq!(
                    serial.report.racy_locations(),
                    w.expected_racy,
                    "{} seed {seed:#x}: planted set",
                    w.name
                );
                for workers in [2usize, 4] {
                    let cfg = RunConfig::with_workers(workers, w.locations).enforced();
                    let run = try_run_program(&w.prog, &cfg)
                        .unwrap_or_else(|v| panic!("{} seed {seed:#x}: {v}", w.name));
                    assert_eq!(
                        run.report.racy_locations(),
                        w.expected_racy,
                        "{} seed {seed:#x} w{workers}: exact planted equality",
                        w.name
                    );
                    assert_eq!(
                        run.structural_hash, serial.structural_hash,
                        "{} seed {seed:#x} w{workers}: structural hash",
                        w.name
                    );
                }
            }
        }
    }
}

/// Capacity hints are behavior-neutral: a run that outgrows tiny initial
/// chunks (forcing many substrate growth events) reports exactly what a run
/// with generous hints reports, and the serial report stays bit-identical to
/// offline detection via the recorded-program bridge throughout.  This pins
/// the growable-substrate swap to the fixed-slab behavior it replaced.
#[test]
fn capacity_hints_do_not_affect_reports() {
    for w in [live_fib(8, true), live_matmul(3, true)] {
        // Recorded-program bridge: the offline serial reference.
        let rec = record_program(&w.prog, w.locations);
        let (offline, _) =
            detect_races::<SpOrder>(&rec.tree, &rec.script, BackendConfig::serial());
        // Serial live: bit-identical (hint-independent by construction).
        let serial = run_program(&w.prog, &RunConfig::serial(w.locations));
        assert_eq!(serial.report.races(), offline.races(), "{} serial bridge", w.name);
        // Multi-worker: tiny hints (grows through several chunks) and
        // generous hints (never grows) must agree on racy locations.
        for (max_threads, max_steals) in [(2usize, 1usize), (1 << 12, 1 << 8)] {
            let run = run_program(
                &w.prog,
                &RunConfig {
                    workers: 4,
                    locations: w.locations,
                    max_threads,
                    max_steals,
                    ..RunConfig::default()
                },
            );
            assert_eq!(
                run.report.racy_locations(),
                w.expected_racy,
                "{} hints=({max_threads},{max_steals})",
                w.name
            );
            if max_threads == 2 {
                assert!(
                    run.sp_grow_events > 0,
                    "{} must outgrow the tiny hints",
                    w.name
                );
            }
        }
    }
}

/// The live fair-BFS program and the Cilk procedure `bfs_procedure` builds
/// for the same plan lower to the *identical* parse tree — structure and
/// thread numbering — via the `record_program` bridge.  This is what lets
/// the BFS shape ride the offline conformance sweep: both sweeps traverse
/// the same frontiers.
#[test]
fn bfs_live_and_cilk_procedure_lower_to_the_same_tree() {
    for (label, graph) in [
        ("uniform", uniform_digraph(40, 2, 9)),
        ("power-law", power_law_digraph(40, 2, 9)),
    ] {
        for granularity in [1u32, 4] {
            let plan = bfs_plan(&graph, granularity);
            let live = live_bfs_from_plan(&plan, BfsVariant::RaceFree);
            let rec = record_program(&live.prog, live.locations);
            let tree = CilkProgram::new(bfs_procedure(&plan)).build_tree();
            assert_eq!(
                rec.tree.num_threads(),
                tree.num_threads(),
                "{label}/g{granularity}"
            );
            assert_eq!(
                tree_sexpr(&rec.tree),
                tree_sexpr(&tree),
                "{label}/g{granularity}: structural identity"
            );
        }
    }
}

/// The BFS workload family holds its race contract both ways: serial live
/// reports are bit-identical to offline detection on the recorded program,
/// and ≥ 2-worker runs report exactly the planted racy locations (the
/// planted races are same-level write-write pairs, so completeness is
/// schedule-independent) — nothing on the race-free variant.
#[test]
fn bfs_workloads_hold_their_contract_both_ways() {
    for (label, graph) in [
        ("uniform", uniform_digraph(50, 2, 13)),
        ("power-law", power_law_digraph(50, 2, 13)),
    ] {
        for variant in
            [BfsVariant::RaceFree, BfsVariant::RacyVisited, BfsVariant::RacyAggregate]
        {
            let w = live_graph_bfs(&graph, 3, variant);
            // Serial bridge: bit-identical to the tree-driven engine.
            let serial = run_program(&w.prog, &RunConfig::serial(w.locations));
            let rec = record_program(&w.prog, w.locations);
            let (offline, _) =
                detect_races::<SpOrder>(&rec.tree, &rec.script, BackendConfig::serial());
            assert_eq!(
                serial.report.races(),
                offline.races(),
                "{label}/{variant:?} serial bridge"
            );
            assert_eq!(serial.report.racy_locations(), w.expected_racy, "{label}/{variant:?}");
            // Multi-worker: planted completeness *and* exactness.
            for workers in [2usize, 4] {
                let run = run_program(&w.prog, &RunConfig::with_workers(workers, w.locations));
                assert_eq!(
                    run.report.racy_locations(),
                    w.expected_racy,
                    "{label}/{variant:?} w{workers}"
                );
                assert_eq!(run.traces as u64, 4 * run.steals + 1, "{label} trace accounting");
            }
        }
    }
}

/// Hint-independence + growth-stress for the BFS shapes (the skewed
/// power-law frontier): the smallest `RunConfig` hints start both growable
/// substrates at their 2-slot minimum chunk, so they must grow
/// (`sp_grow_events > 0`) while reporting identically to generous hints.
#[test]
fn power_law_bfs_grows_under_tiny_hints_and_tiny_chunks() {
    let graph = power_law_digraph(80, 3, 21);
    for variant in [BfsVariant::RaceFree, BfsVariant::RacyVisited] {
        let w = live_graph_bfs(&graph, 2, variant);
        let tiny = RunConfig {
            workers: 4,
            locations: w.locations,
            max_threads: 2,
            max_steals: 0,
            ..RunConfig::default()
        };
        let generous = RunConfig {
            workers: 4,
            locations: w.locations,
            max_threads: 1 << 12,
            max_steals: 1 << 8,
            ..RunConfig::default()
        };
        let tiny_run = run_program(&w.prog, &tiny);
        let generous_run = run_program(&w.prog, &generous);
        assert!(
            tiny_run.sp_grow_events > 0,
            "{}: tiny hints + tiny chunks must grow the substrates",
            w.name
        );
        assert_eq!(tiny_run.report.racy_locations(), w.expected_racy, "{} tiny", w.name);
        assert_eq!(generous_run.report.racy_locations(), w.expected_racy, "{} generous", w.name);
        // The serial bridge stays bit-identical beside them.
        let serial = run_program(&w.prog, &RunConfig::serial(w.locations));
        let rec = record_program(&w.prog, w.locations);
        let (offline, _) =
            detect_races::<SpOrder>(&rec.tree, &rec.script, BackendConfig::serial());
        assert_eq!(serial.report.races(), offline.races(), "{} serial bridge", w.name);
    }
}

/// Serial `spprog` execution is deterministic: same thread ids, same query
/// answers, same race report — race for race — across repeated runs.
#[test]
fn serial_live_execution_is_deterministic() {
    let w = live_matmul(4, true);
    let first = run_program(&w.prog, &RunConfig::serial(w.locations));
    for _ in 0..3 {
        let again = run_program(&w.prog, &RunConfig::serial(w.locations));
        assert_eq!(again.report.races(), first.report.races());
        assert_eq!(again.threads, first.threads);
        assert_eq!(again.steals, 0);
    }
    assert_eq!(first.report.racy_locations(), w.expected_racy);
}

/// Multi-worker live runs of the ported workload generators find exactly
/// their seeded races (and nothing on the race-free variants) — the
/// SP-hybrid trace accounting invariant holding throughout.
#[test]
fn workload_generators_hold_their_contract_multiworker() {
    for racy in [false, true] {
        for w in [
            live_fib(7, racy),
            live_parallel_loop(8, racy),
            live_matmul(3, racy),
        ] {
            for workers in [2usize, 3] {
                let run = run_program(&w.prog, &RunConfig::with_workers(workers, w.locations));
                assert_eq!(
                    run.report.racy_locations(),
                    w.expected_racy,
                    "{} workers={workers} racy={racy}",
                    w.name
                );
                assert_eq!(run.traces as u64, 4 * run.steals + 1, "{} trace accounting", w.name);
            }
        }
    }
}
