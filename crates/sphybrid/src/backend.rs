//! [`SpBackend`] adapters for the parallel SP maintainers.
//!
//! The serial algorithms in `spmaint` implement [`SpBackend`] over a tree
//! walk; the two parallel structures of this crate run the tree as a
//! `forkrt::TreeProgram` on the one work-stealing runtime instead:
//!
//! * [`HybridBackend`] — SP-hybrid, and its one tree driver.  Queries need
//!   the [`TraceId`] the current thread runs in, so each thread queries
//!   through [`LiveSpHybrid::view`].  One worker is the paper's serialized
//!   SP-hybrid (no steals, one trace); more is the full two-tier structure.
//! * [`NaiveBackend`] — the globally-locked shared SP-order of §3.  Queries
//!   are arbitrary-pair under the lock, so the per-thread view simply fixes
//!   one endpoint; the backend also implements [`SpQuery`] — the only
//!   *parallel* maintainer that answers arbitrary-pair queries.
//!
//! So one generic engine (`racedet::detect_races`) and one conformance
//! harness (`spconform`) drive all six maintainers identically.

use forkrt::{
    run_live, LiveConfig, LiveVisitor, RunStats, SpKind, StealTokens, Token, TreeProgram,
};
use parking_lot::Mutex;
use spmaint::api::{BackendConfig, CurrentSpQuery, SpBackend, SpQuery};
use spmetrics::MetricsHandle;
use sptree::tree::{NodeId, ParseTree, ProcId, ThreadId};

use crate::live::LiveSpHybrid;
use crate::naive::NaiveSharedSpOrder;
use crate::trace::TraceId;

// ---------------------------------------------------------------------------
// SP-hybrid
// ---------------------------------------------------------------------------

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

/// Record of one trace split, kept for diagnostics (splits are rare — one
/// per steal — so logging them is cheap).
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

/// SP-hybrid for a program given as a parse tree: the two tiers
/// ([`LiveSpHybrid`]) fed with the tree's own procedure ids by a Figure-8
/// visitor on the work-stealing runtime, plus a log of the splits its
/// steals caused.
///
/// Requires the tree to be in canonical Cilk form ([`sptree::cilk`]);
/// arbitrary fork-join programs can be brought into that form by adding
/// empty threads (paper footnote 6).
pub struct HybridBackend<'t> {
    tree: &'t ParseTree,
    live: LiveSpHybrid,
    workers: usize,
    split_log: Mutex<Vec<SplitRecord>>,
    stats: Option<HybridStats>,
}

impl<'t> HybridBackend<'t> {
    /// Statistics of the completed run (`None` before a run).
    pub fn stats(&self) -> Option<&HybridStats> {
        self.stats.as_ref()
    }

    /// The splits performed so far (one per steal), in the order their
    /// steals logged them — not necessarily `seq` order.
    pub fn split_log(&self) -> Vec<SplitRecord> {
        self.split_log.lock().clone()
    }

    /// Run the tree on the configured workers.  `on_thread` is called on
    /// the executing worker for every thread, with the two tiers, the thread
    /// and the trace it runs in; this is where a race detector performs its
    /// shadowed accesses and issues [`LiveSpHybrid::precedes_current`]
    /// queries.
    pub fn run(&mut self, on_thread: impl Fn(&LiveSpHybrid, ThreadId, TraceId) + Sync) {
        let run = run_live(
            &TreeProgram::new(self.tree),
            &HybridVisitor {
                backend: &*self,
                on_thread,
            },
            LiveConfig::with_workers(self.workers),
            self.live.root_trace().to_token(),
            &MetricsHandle::detached(),
        );
        self.stats = Some(HybridStats {
            traces: self.live.num_traces(),
            global_insertions: self.live.global_insertions(),
            query_retries: self.live.query_retries(),
            run,
        });
    }
}

/// Figure 8: translates the runtime's events on tree nodes into the
/// maintenance events of the two tiers.
struct HybridVisitor<'b, 't, F> {
    backend: &'b HybridBackend<'t>,
    on_thread: F,
}

impl<'t, F> LiveVisitor<TreeProgram<'t>> for HybridVisitor<'_, 't, F>
where
    F: Fn(&LiveSpHybrid, ThreadId, TraceId) + Sync,
{
    fn execute_leaf(&self, _worker: usize, &node: &NodeId, token: Token) {
        let HybridBackend { tree, live, .. } = self.backend;
        let thread = tree
            .thread_of(node)
            .expect("the runtime executes leaves only");
        let trace = TraceId::from_token(token);
        // Line 3 of Figure 8: insert the thread into the trace, then execute.
        live.thread_executed(tree.proc_of(node), thread, trace);
        (self.on_thread)(live, thread, trace);
    }

    fn between_children(&self, _worker: usize, kind: SpKind, &node: &NodeId, token: Token) {
        if kind.is_parallel() {
            let HybridBackend { tree, live, .. } = self.backend;
            let trace = TraceId::from_token(token);
            live.child_returned(tree.proc_of(node), tree.spawned_proc(node), trace);
        }
    }

    fn leave_internal(&self, _worker: usize, kind: SpKind, &node: &NodeId, token: Token) {
        if kind.is_parallel() {
            let HybridBackend { tree, live, .. } = self.backend;
            live.synced(tree.proc_of(node), TraceId::from_token(token));
        }
    }

    fn steal(&self, _thief: usize, _victim: usize, &pnode: &NodeId, token: Token) -> StealTokens {
        let HybridBackend {
            tree,
            live,
            split_log,
            ..
        } = self.backend;
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

impl<'t> SpBackend<'t> for HybridBackend<'t> {
    fn build(tree: &'t ParseTree, config: BackendConfig) -> Self {
        let workers = config.workers.max(1);
        // One worker never steals: size the global tier for no splits.
        let steals = if workers > 1 { tree.num_pnodes() } else { 0 };
        HybridBackend {
            tree,
            live: LiveSpHybrid::new(tree.num_threads(), steals),
            workers,
            split_log: Mutex::new(Vec::new()),
            stats: None,
        }
    }

    fn run_with_queries<F>(&mut self, tree: &'t ParseTree, on_thread: F)
    where
        F: Fn(&dyn CurrentSpQuery, ThreadId) + Sync,
    {
        debug_assert!(
            std::ptr::eq(tree, self.tree),
            "run_with_queries must receive the tree the backend was built for"
        );
        self.run(|live, current, trace| on_thread(&live.view(trace), current));
    }

    fn name(&self) -> &'static str {
        if self.workers > 1 {
            "sp-hybrid"
        } else {
            "sp-hybrid-serial"
        }
    }

    fn space_bytes(&self) -> usize {
        self.live.space_bytes()
    }
}

// ---------------------------------------------------------------------------
// Naive globally-locked SP-order
// ---------------------------------------------------------------------------

/// The naive locked shared SP-order of §3 behind [`SpBackend`].  Works on
/// arbitrary SP trees (no per-procedure trace machinery), at the cost of
/// serializing every maintenance operation and query on one global lock.
pub struct NaiveBackend<'t> {
    tree: &'t ParseTree,
    naive: NaiveSharedSpOrder,
    workers: usize,
}

impl NaiveBackend<'_> {
    /// Number of global-lock acquisitions so far (contention metric).
    pub fn lock_acquisitions(&self) -> u64 {
        self.naive.lock_acquisitions()
    }
}

impl<'t> SpBackend<'t> for NaiveBackend<'t> {
    fn build(tree: &'t ParseTree, config: BackendConfig) -> Self {
        NaiveBackend {
            tree,
            naive: NaiveSharedSpOrder::new(tree.root(), tree.num_nodes()),
            workers: config.workers.max(1),
        }
    }

    fn run_with_queries<F>(&mut self, tree: &'t ParseTree, on_thread: F)
    where
        F: Fn(&dyn CurrentSpQuery, ThreadId) + Sync,
    {
        debug_assert!(
            std::ptr::eq(tree, self.tree),
            "run_with_queries must receive the tree the backend was built for"
        );
        struct Vis<'a, 't, F> {
            tree: &'t ParseTree,
            naive: &'a NaiveSharedSpOrder,
            on_thread: F,
        }
        impl<'t, F> LiveVisitor<TreeProgram<'t>> for Vis<'_, 't, F>
        where
            F: Fn(&dyn CurrentSpQuery, ThreadId) + Sync,
        {
            fn enter_internal(&self, _worker: usize, kind: SpKind, &node: &NodeId, _token: Token) {
                let children = [self.tree.left(node), self.tree.right(node)];
                self.naive.expand(node, children, kind.is_parallel());
            }
            fn execute_leaf(&self, _worker: usize, &node: &NodeId, _token: Token) {
                let current = self.tree.thread_of(node).expect("the runtime executes leaves only");
                self.naive.execute(node, current);
                (self.on_thread)(&self.naive.view(current), current);
            }
            // No `steal`: without trace machinery the token passes through.
        }
        let vis = Vis {
            tree,
            naive: &self.naive,
            on_thread,
        };
        run_live(
            &TreeProgram::new(tree),
            &vis,
            LiveConfig::with_workers(self.workers),
            0,
            &MetricsHandle::detached(),
        );
    }

    fn name(&self) -> &'static str {
        if self.workers > 1 {
            "naive-locked-sp-order"
        } else {
            "naive-locked-sp-order-serial"
        }
    }

    fn space_bytes(&self) -> usize {
        self.naive.space_bytes()
    }
}

/// Once every thread has executed, its English and Hebrew handles are final
/// and arbitrary-pair queries are valid — this is what makes the naive
/// scheme the one *parallel* maintainer with pair queries.
impl SpQuery for NaiveBackend<'_> {
    fn precedes(&self, a: ThreadId, b: ThreadId) -> bool {
        self.naive.precedes(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use sptree::cilk::CilkProgram;
    use sptree::generate::{fib_like, random_sp_ast};
    use sptree::oracle::SpOracle;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Run `B` over `tree` on `workers` workers, recording every
    /// current-thread query answer, and check all of them against the oracle.
    fn backend_agrees_with_oracle<'t, B: SpBackend<'t>>(
        tree: &'t ParseTree,
        workers: usize,
    ) -> B {
        let oracle = SpOracle::new(tree);
        let executed: Vec<AtomicBool> =
            (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect();
        let recorded: Mutex<Vec<(ThreadId, ThreadId, bool)>> = Mutex::new(Vec::new());
        let mut backend = B::build(tree, BackendConfig::with_workers(workers));
        backend.run_with_queries(tree, |q, current| {
            let mut answers = Vec::new();
            for earlier in 0..tree.num_threads() as u32 {
                let earlier = ThreadId(earlier);
                if earlier != current && executed[earlier.index()].load(Ordering::Acquire) {
                    answers.push((earlier, current, q.precedes_current(earlier)));
                }
            }
            recorded.lock().extend(answers);
            executed[current.index()].store(true, Ordering::Release);
        });
        for (earlier, current, answer) in recorded.into_inner() {
            assert_eq!(
                answer,
                oracle.precedes(earlier, current),
                "{} disagrees on {earlier:?} ≺ {current:?} (workers={workers})",
                backend.name()
            );
        }
        backend
    }

    #[test]
    fn hybrid_backend_matches_oracle_serial_and_parallel() {
        let tree = CilkProgram::new(fib_like(8, 1)).build_tree();
        let b1: HybridBackend = backend_agrees_with_oracle(&tree, 1);
        assert_eq!(b1.stats().unwrap().run.steals, 0);
        let b4: HybridBackend = backend_agrees_with_oracle(&tree, 4);
        let stats = b4.stats().unwrap();
        assert_eq!(stats.traces as u64, 4 * stats.run.steals + 1);
    }

    /// One worker cannot steal, so the global tier is not sized for a split
    /// per P-node (14.7 MB on this tree).
    #[test]
    fn a_serial_hybrid_sizes_its_global_tier_for_no_steals() {
        let tree = CilkProgram::new(fib_like(20, 1)).build_tree();
        let mut backend = HybridBackend::build(&tree, BackendConfig::serial());
        backend.run_with_queries(&tree, |_q, _t| {});
        assert_eq!(backend.name(), "sp-hybrid-serial");
        let bytes = backend.space_bytes();
        assert!(bytes < 3 << 20, "sp-hybrid-serial holds {bytes} B on fib_like(20, 1)");
    }

    #[test]
    fn naive_backend_matches_oracle_on_arbitrary_trees() {
        let tree = random_sp_ast(120, 0.5, 21).build();
        let _: NaiveBackend = backend_agrees_with_oracle(&tree, 1);
        let nb: NaiveBackend = backend_agrees_with_oracle(&tree, 4);
        assert!(nb.lock_acquisitions() > 0);
    }

    #[test]
    fn naive_backend_is_a_full_backend() {
        fn pair_check<'t, B: SpBackend<'t> + SpQuery>(tree: &'t ParseTree, workers: usize) {
            let mut backend = B::build(tree, BackendConfig::with_workers(workers));
            backend.run_with_queries(tree, |_q, _t| {});
            let oracle = SpOracle::new(tree);
            for a in 0..tree.num_threads() as u32 {
                for b in 0..tree.num_threads() as u32 {
                    assert_eq!(
                        backend.relation(ThreadId(a), ThreadId(b)),
                        oracle.relation(ThreadId(a), ThreadId(b)),
                        "pair ({a},{b})"
                    );
                }
            }
        }
        let tree = random_sp_ast(60, 0.5, 7).build();
        pair_check::<NaiveBackend>(&tree, 1);
        pair_check::<NaiveBackend>(&tree, 4);
    }
}
