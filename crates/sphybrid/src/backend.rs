//! [`SpBackend`] adapters for the parallel SP maintainers.
//!
//! The serial algorithms in `spmaint` implement the unified backend trait
//! directly; the two parallel structures of this crate need thin adapters
//! because their query interface is threaded through the scheduler:
//!
//! * [`HybridBackend`] — SP-hybrid.  Queries need the [`crate::TraceId`] the current
//!   thread runs in, so the adapter closes over it in a per-thread view.
//!   With `workers == 1` this is the paper's serialized SP-hybrid (no steals,
//!   one trace); with `workers > 1` it is the full two-tier parallel
//!   structure.
//! * [`NaiveBackend`] — the globally-locked shared SP-order of §3.  Queries
//!   are arbitrary-pair under the lock, so the per-thread view simply fixes
//!   one endpoint; the backend also implements [`SpQuery`], making it a
//!   [`FullSpBackend`](spmaint::FullSpBackend) — the only *parallel* one.
//!
//! Both adapters run the tree as a `forkrt::TreeProgram` on the one
//! work-stealing runtime, which lets one generic engine (`racedet::detect_races`) and one
//! conformance harness (`spconform`) drive all six maintainers identically.

use forkrt::{run_live, LiveConfig, LiveVisitor, SpKind, Token, TreeProgram};
use spmaint::api::{BackendConfig, CurrentSpQuery, SpBackend, SpQuery};
use spmetrics::MetricsHandle;
use sptree::tree::{NodeId, ParseTree, ThreadId};

use crate::hybrid::{HybridStats, SpHybrid};
use crate::naive::NaiveSharedSpOrder;

// ---------------------------------------------------------------------------
// SP-hybrid
// ---------------------------------------------------------------------------

/// SP-hybrid behind the unified [`SpBackend`] interface.
///
/// Requires the tree to be in canonical Cilk form ([`sptree::cilk`]), like
/// the underlying [`SpHybrid`] structure; arbitrary fork-join programs can be
/// brought into that form by adding empty threads (paper footnote 6).
pub struct HybridBackend<'t> {
    hybrid: SpHybrid<'t>,
    workers: usize,
    stats: Option<HybridStats>,
}

impl<'t> HybridBackend<'t> {
    /// The underlying two-tier structure.
    pub fn hybrid(&self) -> &SpHybrid<'t> {
        &self.hybrid
    }

    /// Statistics of the completed run (`None` before `run_with_queries`).
    pub fn stats(&self) -> Option<&HybridStats> {
        self.stats.as_ref()
    }

    /// Take ownership of the run statistics.
    pub fn take_stats(&mut self) -> Option<HybridStats> {
        self.stats.take()
    }
}

impl<'t> SpBackend<'t> for HybridBackend<'t> {
    fn build(tree: &'t ParseTree, config: BackendConfig) -> Self {
        HybridBackend {
            hybrid: SpHybrid::new(tree),
            workers: config.workers.max(1),
            stats: None,
        }
    }

    fn run_with_queries<F>(&mut self, tree: &'t ParseTree, on_thread: F)
    where
        F: Fn(&dyn CurrentSpQuery, ThreadId) + Sync,
    {
        debug_assert!(
            std::ptr::eq(tree, self.hybrid.tree()),
            "run_with_queries must receive the tree the backend was built for"
        );
        let stats = self.hybrid.run(self.workers, |h, current, trace| {
            on_thread(&h.live().view(trace), current);
        });
        self.stats = Some(stats);
    }

    fn backend_name(&self) -> &'static str {
        if self.workers > 1 {
            "sp-hybrid"
        } else {
            "sp-hybrid-serial"
        }
    }

    fn backend_space_bytes(&self) -> usize {
        self.hybrid.space_bytes()
    }
}

// ---------------------------------------------------------------------------
// Naive globally-locked SP-order
// ---------------------------------------------------------------------------

/// The naive locked shared SP-order of §3 behind the unified [`SpBackend`]
/// interface.  Works on arbitrary SP trees (no per-procedure trace
/// machinery), at the cost of serializing every maintenance operation and
/// query on one global lock.
pub struct NaiveBackend<'t> {
    tree: &'t ParseTree,
    naive: NaiveSharedSpOrder,
    root_tag: u64,
    workers: usize,
}

impl NaiveBackend<'_> {
    /// The underlying locked structure.
    pub fn naive(&self) -> &NaiveSharedSpOrder {
        &self.naive
    }

    /// Number of global-lock acquisitions so far (contention metric).
    pub fn lock_acquisitions(&self) -> u64 {
        self.naive.lock_acquisitions()
    }
}

impl<'t> SpBackend<'t> for NaiveBackend<'t> {
    fn build(tree: &'t ParseTree, config: BackendConfig) -> Self {
        let (naive, root_tag) = NaiveSharedSpOrder::new();
        NaiveBackend {
            tree,
            naive,
            root_tag,
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
            fn enter_internal(
                &self,
                _worker: usize,
                kind: SpKind,
                _node: &NodeId,
                tag: u64,
                _token: Token,
            ) -> (u64, u64) {
                self.naive.expand(tag, kind.is_parallel())
            }
            fn execute_leaf(&self, _worker: usize, &node: &NodeId, tag: u64, _token: Token) {
                let current = self.tree.thread_of(node).expect("the runtime executes leaves only");
                self.naive.execute(tag, current);
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
            self.root_tag,
            0,
            &MetricsHandle::detached(),
        );
    }

    fn backend_name(&self) -> &'static str {
        if self.workers > 1 {
            "naive-locked-sp-order"
        } else {
            "naive-locked-sp-order-serial"
        }
    }

    fn backend_space_bytes(&self) -> usize {
        self.naive.space_bytes()
    }
}

/// Once every thread has executed, its English and Hebrew handles are final
/// and arbitrary-pair queries are valid — this is what makes the naive
/// scheme the one *parallel* full backend.
impl SpQuery for NaiveBackend<'_> {
    fn precedes(&self, a: ThreadId, b: ThreadId) -> bool {
        self.naive.precedes(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use spmaint::api::FullSpBackend;
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
                backend.backend_name()
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

    #[test]
    fn naive_backend_matches_oracle_on_arbitrary_trees() {
        let tree = random_sp_ast(120, 0.5, 21).build();
        let _: NaiveBackend = backend_agrees_with_oracle(&tree, 1);
        let nb: NaiveBackend = backend_agrees_with_oracle(&tree, 4);
        assert!(nb.lock_acquisitions() > 0);
    }

    #[test]
    fn naive_backend_is_a_full_backend() {
        fn pair_check<'t, B: FullSpBackend<'t>>(tree: &'t ParseTree, workers: usize) {
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
