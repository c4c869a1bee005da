//! SP-hybrid over a materialized parse tree: the tree as a `forkrt` program,
//! the two tiers as its visitor (paper Figures 8 and 9).

use forkrt::{
    run_live, LiveConfig, LiveVisitor, RunStats, SpKind, StealTokens, Token, TreeProgram,
};
use spmetrics::MetricsHandle;
use sptree::tree::{NodeId, ParseTree, ProcId, ThreadId};

use crate::live::LiveSpHybrid;
use crate::trace::TraceId;

/// Statistics of a completed SP-hybrid run.
#[derive(Clone, Debug)]
pub struct HybridStats {
    /// Scheduler statistics (steals, per-worker thread counts, wall time).
    pub run: RunStats,
    /// Number of traces at the end (must equal 4·steals + 1).
    pub traces: usize,
    /// Global-tier insertions (one per steal).
    pub global_insertions: u64,
    /// Lock-free query attempts that had to be retried.
    pub query_retries: u64,
}

/// Record of one trace split, kept for diagnostics and for the
/// Theorem-10 benchmarks (splits are rare — one per steal — so logging them
/// is cheap).
#[derive(Clone, Copy, Debug)]
pub struct SplitRecord {
    /// The stolen P-node.
    pub pnode: NodeId,
    /// The procedure whose bags were moved.
    pub proc: ProcId,
    /// The trace that was split (U = U⁽³⁾).
    pub victim: TraceId,
    /// The four traces created: U⁽¹⁾, U⁽²⁾, U⁽⁴⁾, U⁽⁵⁾.
    pub created: [TraceId; 4],
    /// Position of this split in global-tier insertion order (1-based).
    pub seq: u64,
}

/// SP-hybrid for a program given as a parse tree: the event-driven two-tier
/// structure ([`LiveSpHybrid`]) fed with the tree's own procedure ids, plus
/// a log of the splits its steals caused.
///
/// The tree must be in canonical Cilk form ([`sptree::cilk`]); arbitrary
/// fork-join programs can be brought into that form by adding empty threads
/// (paper footnote 6).
pub struct SpHybrid<'t> {
    tree: &'t ParseTree,
    live: LiveSpHybrid,
    split_log: parking_lot::Mutex<Vec<SplitRecord>>,
}

impl<'t> SpHybrid<'t> {
    /// Build the structure for `tree`, sized for the worst case in which
    /// every P-node's continuation is stolen.
    pub fn new(tree: &'t ParseTree) -> Self {
        SpHybrid {
            tree,
            live: LiveSpHybrid::new(tree.num_threads(), tree.num_pnodes()),
            split_log: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// The two tiers themselves.
    pub fn live(&self) -> &LiveSpHybrid {
        &self.live
    }

    /// The splits performed so far (one per steal).
    pub fn split_log(&self) -> Vec<SplitRecord> {
        self.split_log.lock().clone()
    }

    /// The parse tree this structure was built for.
    pub fn tree(&self) -> &'t ParseTree {
        self.tree
    }

    /// Which trace does an already-executed thread currently belong to, and is
    /// its bag an S-bag?  (`FIND-TRACE`; exposed for diagnostics and tests.)
    pub fn find_trace(&self, thread: ThreadId) -> (TraceId, bool) {
        self.live.find_trace(thread)
    }

    /// `SP-PRECEDES(earlier, current)` (Figure 9): does the already-executed
    /// thread `earlier` logically precede the currently executing thread,
    /// which runs as part of `current_trace`?
    pub fn precedes_current(&self, earlier: ThreadId, current_trace: TraceId) -> bool {
        self.live.precedes_current(earlier, current_trace)
    }

    /// Approximate heap bytes used by the two tiers.
    pub fn space_bytes(&self) -> usize {
        self.live.space_bytes()
    }

    /// Run the program on `workers` workers (clamped to ≥ 1, like
    /// [`forkrt::LiveConfig::with_workers`]).  `on_thread` is called on the
    /// executing worker for every thread, with the thread id and the trace
    /// it runs in; this is where a race detector performs its shadowed
    /// accesses and issues [`SpHybrid::precedes_current`] queries.
    pub fn run<F>(&self, workers: usize, on_thread: F) -> HybridStats
    where
        F: Fn(&SpHybrid<'t>, ThreadId, TraceId) + Sync,
    {
        let visitor = HybridVisitor {
            hybrid: self,
            on_thread,
        };
        let run = run_live(
            &TreeProgram::new(self.tree),
            &visitor,
            LiveConfig::with_workers(workers),
            self.live.root_trace().to_token(),
            &MetricsHandle::detached(),
        );
        HybridStats {
            traces: self.live.num_traces(),
            global_insertions: self.live.global_insertions(),
            query_retries: self.live.query_retries(),
            run,
        }
    }
}

/// Translates the runtime's events on tree nodes into the maintenance events
/// of the two tiers.
struct HybridVisitor<'h, 't, F> {
    hybrid: &'h SpHybrid<'t>,
    on_thread: F,
}

impl<'t, F> LiveVisitor<TreeProgram<'t>> for HybridVisitor<'_, 't, F>
where
    F: Fn(&SpHybrid<'t>, ThreadId, TraceId) + Sync,
{
    fn execute_leaf(&self, _worker: usize, &node: &NodeId, token: Token) {
        let SpHybrid { tree, live, .. } = self.hybrid;
        let thread = tree.thread_of(node).expect("the runtime executes leaves only");
        let trace = TraceId::from_token(token);
        // Line 3 of Figure 8: insert the thread into the trace, then execute.
        live.thread_executed(tree.proc_of(node), thread, trace);
        (self.on_thread)(self.hybrid, thread, trace);
    }

    fn between_children(&self, _worker: usize, kind: SpKind, &node: &NodeId, token: Token) {
        if kind.is_parallel() {
            let SpHybrid { tree, live, .. } = self.hybrid;
            let trace = TraceId::from_token(token);
            live.child_returned(tree.proc_of(node), tree.spawned_proc(node), trace);
        }
    }

    fn leave_internal(&self, _worker: usize, kind: SpKind, &node: &NodeId, token: Token) {
        if kind.is_parallel() {
            let SpHybrid { tree, live, .. } = self.hybrid;
            live.synced(tree.proc_of(node), TraceId::from_token(token));
        }
    }

    fn steal(&self, _thief: usize, _victim: usize, &pnode: &NodeId, token: Token) -> StealTokens {
        let SpHybrid { tree, live, split_log } = self.hybrid;
        let (proc, victim) = (tree.proc_of(pnode), TraceId::from_token(token));
        let split = live.split(proc, victim);
        split_log.lock().push(SplitRecord {
            pnode,
            proc,
            victim,
            created: split.created,
            seq: split.seq,
        });
        split.tokens()
    }
}

/// Convenience wrapper: build an [`SpHybrid`] for `tree` and run it on
/// `workers` workers ([`SpHybrid::run`]).
pub fn run_hybrid<'t, F>(
    tree: &'t ParseTree,
    workers: usize,
    on_thread: F,
) -> (SpHybrid<'t>, HybridStats)
where
    F: Fn(&SpHybrid<'t>, ThreadId, TraceId) + Sync,
{
    let hybrid = SpHybrid::new(tree);
    let stats = hybrid.run(workers, on_thread);
    (hybrid, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use sptree::cilk::CilkProgram;
    use sptree::generate::{fib_like, random_cilk_program, CilkGenParams};
    use sptree::oracle::SpOracle;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Run SP-hybrid on `tree` with `workers` workers; at every thread, query
    /// every already-executed thread and record the answer; then check every
    /// recorded answer against the oracle.
    fn check_against_oracle(tree: &ParseTree, workers: usize, spin: u64) -> HybridStats {
        let executed: Vec<AtomicBool> = (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect();
        let recorded: Mutex<Vec<(ThreadId, ThreadId, bool)>> = Mutex::new(Vec::new());
        let (_hybrid, stats) = run_hybrid(tree, workers, |h, current, trace| {
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
        let (_hybrid, stats) = run_hybrid(&tree, 0, |_h, _t, _tr| {});
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
            let (hybrid, stats) = run_hybrid(&tree, 6, |_h, _t, _trace| {
                let mut x = 1u64;
                for i in 0..20_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
            });
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
