//! SP-hybrid driven over a materialized parse tree, checked against the LCA
//! oracle.  Test-only: the tree driver is [`crate::HybridBackend`]; the
//! module keeps its name so these tests keep their ids (`hybrid::tests::*`).

mod tests {
    use crate::{HybridBackend, HybridStats, LiveSpHybrid, TraceId};
    use parking_lot::Mutex;
    use spmaint::api::{BackendConfig, SpBackend};
    use sptree::cilk::CilkProgram;
    use sptree::generate::{fib_like, random_cilk_program, CilkGenParams};
    use sptree::oracle::SpOracle;
    use sptree::tree::{ParseTree, ThreadId};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Run SP-hybrid over `tree` on `workers` workers.
    fn run_tree(
        tree: &ParseTree,
        workers: usize,
        on_thread: impl Fn(&LiveSpHybrid, ThreadId, TraceId) + Sync,
    ) -> HybridBackend<'_> {
        let mut hybrid = HybridBackend::build(tree, BackendConfig::with_workers(workers));
        hybrid.run(on_thread);
        hybrid
    }

    /// Run SP-hybrid on `tree` with `workers` workers; at every thread, query
    /// every already-executed thread and record the answer; then check every
    /// recorded answer against the oracle.
    fn check_against_oracle(tree: &ParseTree, workers: usize, spin: u64) -> HybridStats {
        let executed: Vec<AtomicBool> = (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect();
        let recorded: Mutex<Vec<(ThreadId, ThreadId, bool)>> = Mutex::new(Vec::new());
        let hybrid = run_tree(tree, workers, |h, current, trace| {
            // Busy work to widen steal windows.
            let mut x = 1u64;
            for i in 0..spin {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            let mut answers = Vec::new();
            for earlier in 0..tree.num_threads() as u32 {
                let earlier = ThreadId(earlier);
                if earlier == current {
                    continue;
                }
                if executed[earlier.index()].load(Ordering::Acquire) {
                    answers.push((earlier, current, h.precedes_current(earlier, trace)));
                }
            }
            recorded.lock().extend(answers);
            executed[current.index()].store(true, Ordering::Release);
        });
        let stats = hybrid.stats().expect("the run completed").clone();
        let oracle = SpOracle::new(tree);
        let recorded = recorded.into_inner();
        assert!(!recorded.is_empty());
        for (earlier, current, answer) in recorded {
            assert_eq!(
                answer,
                oracle.precedes(earlier, current),
                "hybrid disagrees with oracle on {earlier:?} ≺ {current:?} (workers={workers})"
            );
        }
        assert_eq!(stats.traces as u64, 4 * stats.run.steals + 1);
        assert_eq!(stats.global_insertions, stats.run.steals);
        stats
    }

    #[test]
    fn single_worker_matches_oracle_on_fib() {
        for depth in [3u32, 5, 7] {
            let tree = CilkProgram::new(fib_like(depth, 1)).build_tree();
            let stats = check_against_oracle(&tree, 1, 0);
            assert_eq!(stats.run.steals, 0);
            assert_eq!(stats.traces, 1);
        }
    }

    #[test]
    fn single_worker_matches_oracle_on_random_cilk_programs() {
        for seed in 0..6u64 {
            let proc = random_cilk_program(CilkGenParams::default(), seed);
            let tree = CilkProgram::new(proc).build_tree();
            check_against_oracle(&tree, 1, 0);
        }
    }

    #[test]
    fn parallel_run_matches_oracle_on_fib() {
        let tree = CilkProgram::new(fib_like(9, 1)).build_tree();
        let stats = check_against_oracle(&tree, 4, 300);
        // With 4 workers on a deep fib tree steals are essentially certain;
        // exercise the cross-trace query path.
        assert!(stats.run.steals > 0, "expected steals to occur");
    }

    #[test]
    fn parallel_run_matches_oracle_on_random_cilk_programs() {
        for seed in 0..4u64 {
            let params = CilkGenParams {
                max_depth: 7,
                max_blocks: 2,
                max_stmts: 4,
                spawn_prob: 0.6,
                work: 2,
            };
            let proc = random_cilk_program(params, seed);
            let tree = CilkProgram::new(proc).build_tree();
            check_against_oracle(&tree, 4, 200);
        }
    }

    #[test]
    fn repeated_parallel_runs_are_consistent() {
        let tree = CilkProgram::new(fib_like(8, 1)).build_tree();
        for _ in 0..5 {
            check_against_oracle(&tree, 6, 100);
        }
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        // Regression: zero workers used to reach the scheduler unclamped;
        // the runtime normalizes to 1.
        let tree = CilkProgram::new(fib_like(5, 1)).build_tree();
        let hybrid = run_tree(&tree, 0, |_h, _t, _tr| {});
        let stats = hybrid.stats().expect("the run completed");
        assert_eq!(stats.run.workers, 1);
        assert_eq!(stats.run.steals, 0, "one worker cannot steal");
        assert_eq!(stats.traces, 1);
    }

    #[test]
    fn trace_accounting_matches_paper() {
        // |C| = 4s + 1 (checked inside the helper) and U3 aliases U: the root
        // trace keeps existing after splits.
        let tree = CilkProgram::new(fib_like(10, 1)).build_tree();
        let stats = check_against_oracle(&tree, 8, 100);
        assert!(stats.traces >= 1);
    }

    #[test]
    fn split_log_records_every_steal_once_in_insertion_order() {
        // Every run's log must hold one record per steal whose `seq` values
        // are exactly 1..=steals (assigned under the global insertion lock,
        // so concurrent splits of different victims cannot collide).  Steals
        // are schedule-dependent — on a loaded two-core box six workers can
        // finish a run before any thief gets going — so the leaves are heavy
        // (~20 µs optimised) and runs repeat, up to MAX_RUNS, until one has
        // stolen.
        const MAX_RUNS: usize = 40;
        let tree = CilkProgram::new(fib_like(10, 1)).build_tree();
        let mut steals = 0;
        for _ in 0..MAX_RUNS {
            let hybrid = run_tree(&tree, 6, |_h, _t, _trace| {
                let mut x = 1u64;
                for i in 0..20_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
            });
            let stats = hybrid.stats().expect("the run completed");
            let log = hybrid.split_log();
            assert_eq!(log.len() as u64, stats.run.steals);
            let mut seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
            seqs.sort_unstable();
            assert_eq!(seqs, (1..=stats.run.steals).collect::<Vec<_>>());
            for record in &log {
                assert!(tree.kind(record.pnode).is_p(), "only P-nodes are stolen");
                assert_eq!(record.proc, tree.proc_of(record.pnode));
            }
            steals += stats.run.steals;
            if steals > 0 {
                break;
            }
        }
        assert!(steals > 0, "expected at least one steal within {MAX_RUNS} runs");
    }
}
