//! The interface every SP maintainer implements.
//!
//! Two query flavours exist, matching the paper:
//!
//! * [`SpQuery`] — answer the relation between **any** two already-executed
//!   threads.  SP-order, the two label-based baselines and the §3 strawman
//!   provide this.
//! * [`CurrentSpQuery`] — answer the relation between an already-executed
//!   thread and the **currently executing** thread only.  These are the
//!   weaker semantics of SP-bags (and of SP-hybrid), and they are exactly what
//!   an on-the-fly race detector needs.
//!
//! [`SpBackend`] is the one maintainer trait: build a structure for a parse
//! tree, run the program, answer [`CurrentSpQuery`] queries while each thread
//! is current.  The serial algorithms of this crate are
//! [`sptree::walk::TreeVisitor`]s, and [`run_serial_with_queries`] is the one
//! left-to-right driver their `run_with_queries` calls.

use sptree::oracle::Relation;
use sptree::tree::{NodeId, ParseTree, ThreadId};
use sptree::walk::{walk_visitor, TreeVisitor};

/// Relation queries between two arbitrary already-executed threads.
pub trait SpQuery {
    /// Does `a` logically precede `b` (`a ≺ b`)?
    fn precedes(&self, a: ThreadId, b: ThreadId) -> bool;

    /// Do `a` and `b` operate logically in parallel (`a ∥ b`)?
    fn parallel(&self, a: ThreadId, b: ThreadId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// Full relation between two threads.
    fn relation(&self, a: ThreadId, b: ThreadId) -> Relation {
        if a == b {
            Relation::Same
        } else if self.precedes(a, b) {
            Relation::Precedes
        } else if self.precedes(b, a) {
            Relation::Follows
        } else {
            Relation::Parallel
        }
    }
}

/// Relation queries against the currently executing thread only.
pub trait CurrentSpQuery {
    /// Does `earlier` logically precede the currently executing thread?
    fn precedes_current(&self, earlier: ThreadId) -> bool;

    /// Does `earlier` operate logically in parallel with the currently
    /// executing thread?
    fn parallel_with_current(&self, earlier: ThreadId) -> bool {
        !self.precedes_current(earlier)
    }
}

/// Walk `tree` left to right through `alg`, invoking `on_thread(alg, thread)`
/// right after each thread is visited — i.e. while that thread is the
/// currently executing one.  This is how a serial race detector uses the
/// structure: it issues `precedes_current` queries for every shadowed memory
/// access the thread performs.
pub fn run_serial_with_queries<A: TreeVisitor>(
    alg: &mut A,
    tree: &ParseTree,
    on_thread: impl FnMut(&A, ThreadId),
) {
    struct Driver<'a, A, F> {
        alg: &'a mut A,
        on_thread: F,
    }
    impl<A: TreeVisitor, F: FnMut(&A, ThreadId)> TreeVisitor for Driver<'_, A, F> {
        fn enter_internal(&mut self, tree: &ParseTree, node: NodeId) {
            self.alg.enter_internal(tree, node);
        }
        fn between_children(&mut self, tree: &ParseTree, node: NodeId) {
            self.alg.between_children(tree, node);
        }
        fn leave_internal(&mut self, tree: &ParseTree, node: NodeId) {
            self.alg.leave_internal(tree, node);
        }
        fn visit_thread(&mut self, tree: &ParseTree, node: NodeId, thread: ThreadId) {
            self.alg.visit_thread(tree, node, thread);
            (self.on_thread)(&*self.alg, thread);
        }
    }
    walk_visitor(tree, &mut Driver { alg, on_thread });
}

/// Configuration for building an [`SpBackend`].
///
/// Serial backends ignore everything except the tree; parallel backends
/// (SP-hybrid, the naive locked SP-order) use `workers` as the paper's P.
#[derive(Clone, Copy, Debug)]
pub struct BackendConfig {
    /// Number of workers a parallel backend runs the program on (clamped to
    /// ≥ 1; serial backends ignore it).
    pub workers: usize,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig { workers: 1 }
    }
}

impl BackendConfig {
    /// Serial execution (one worker).
    pub fn serial() -> Self {
        BackendConfig::default()
    }

    /// Run parallel backends on `workers` workers (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        BackendConfig {
            workers: workers.max(1),
        }
    }
}

/// An SP maintainer — serial or parallel — that executes a program (an SP
/// parse tree) while maintaining the series-parallel relation and answering
/// [`CurrentSpQuery`] queries from the currently executing thread.
///
/// All six maintainers of this repository implement it: the four serial
/// algorithms of Figure 3 (`SpOrder`, `SpBags`, `EnglishHebrewLabels`,
/// `OffsetSpanLabels`), the naive globally-locked parallel SP-order of §3,
/// and the two-tier SP-hybrid of §4–§7.  One generic race-detection engine
/// (`racedet::detect_races`) and one differential conformance harness (the
/// `spconform` crate) drive every maintainer through it.  A maintainer that
/// also answers arbitrary-pair queries implements [`SpQuery`] besides, and
/// generic code asks for `B: SpBackend<'t> + SpQuery`.
///
/// The lifetime `'t` is the lifetime of the parse tree; parallel backends
/// borrow the tree, serial backends ignore the lifetime.
///
/// ```
/// use spmaint::api::{BackendConfig, CurrentSpQuery, SpBackend};
/// use spmaint::SpOrder;
/// use sptree::{builder::Ast, tree::ThreadId};
///
/// // S(u0, P(u1, u2)): u0 runs before the parallel pair u1 ∥ u2.
/// let tree = Ast::seq(vec![Ast::leaf(1), Ast::par(vec![Ast::leaf(1), Ast::leaf(1)])]).build();
/// let mut backend: SpOrder = SpOrder::build(&tree, BackendConfig::serial());
/// backend.run_with_queries(&tree, |q, current| {
///     if current == ThreadId(2) {
///         assert!(q.precedes_current(ThreadId(0))); // serial prefix
///         assert!(q.parallel_with_current(ThreadId(1))); // sibling branch
///     }
/// });
/// assert!(backend.space_bytes() > 0);
/// ```
pub trait SpBackend<'t>: Sized {
    /// Build an instance for `tree` under `config`.
    fn build(tree: &'t ParseTree, config: BackendConfig) -> Self;

    /// Execute the whole program once, invoking `on_thread(queries, thread)`
    /// while each thread is the currently executing one.  `queries` answers
    /// [`CurrentSpQuery`] queries against any *already executed* thread.
    ///
    /// Serial backends call `on_thread` in left-to-right (serial execution)
    /// order; parallel backends call it concurrently from their workers, which
    /// is why the callback must be `Fn + Sync`.  `tree` must be the tree the
    /// backend was built for.  The method is single-shot: it consumes the
    /// "unfolding" of the program, so call it at most once per instance.
    fn run_with_queries<F>(&mut self, tree: &'t ParseTree, on_thread: F)
    where
        F: Fn(&dyn CurrentSpQuery, ThreadId) + Sync;

    /// Human-readable backend name (for reports and failure messages).
    fn name(&self) -> &'static str;

    /// Approximate heap bytes used by the maintenance structures (the
    /// "space" column of Figure 3).
    fn space_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnglishHebrewLabels, OffsetSpanLabels, SpBags, SpOrder};
    use sptree::generate::random_sp_ast;
    use sptree::oracle::SpOracle;

    #[test]
    fn run_serial_with_queries_sees_threads_in_order() {
        let tree = random_sp_ast(50, 0.5, 5).build();
        let mut seen = Vec::new();
        let mut alg: SpOrder = SpOrder::build(&tree, BackendConfig::serial());
        run_serial_with_queries(&mut alg, &tree, |_alg, t| seen.push(t.index()));
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn queries_during_walk_match_oracle_for_sp_order() {
        let tree = random_sp_ast(60, 0.5, 6).build();
        let oracle = SpOracle::new(&tree);
        let mut alg: SpOrder = SpOrder::build(&tree, BackendConfig::serial());
        run_serial_with_queries(&mut alg, &tree, |alg, current| {
            for earlier in 0..current.index() as u32 {
                let earlier = ThreadId(earlier);
                assert_eq!(
                    alg.precedes_current(earlier),
                    oracle.precedes(earlier, current),
                );
            }
        });
    }

    /// Generic over the one trait: every serial backend must agree with the
    /// oracle on every current-thread query issued during the run.
    fn backend_matches_oracle<B: for<'t> SpBackend<'t>>(seed: u64) {
        let tree = random_sp_ast(50, 0.5, seed).build();
        let oracle = SpOracle::new(&tree);
        let mut backend = B::build(&tree, BackendConfig::serial());
        let mismatches = std::sync::Mutex::new(Vec::new());
        backend.run_with_queries(&tree, |q, current| {
            for earlier in 0..current.index() as u32 {
                let earlier = ThreadId(earlier);
                if q.precedes_current(earlier) != oracle.precedes(earlier, current) {
                    mismatches.lock().unwrap().push((earlier, current));
                }
            }
        });
        assert!(
            mismatches.lock().unwrap().is_empty(),
            "{} disagrees with oracle: {:?}",
            backend.name(),
            mismatches.lock().unwrap()
        );
        assert!(backend.space_bytes() > 0);
    }

    #[test]
    fn all_serial_backends_match_oracle_through_unified_trait() {
        backend_matches_oracle::<SpOrder>(11);
        backend_matches_oracle::<SpBags>(11);
        backend_matches_oracle::<EnglishHebrewLabels>(11);
        backend_matches_oracle::<OffsetSpanLabels>(11);
    }

    #[test]
    fn full_backends_answer_pair_queries_after_the_run() {
        fn check<B: for<'t> SpBackend<'t> + SpQuery>() {
            let tree = random_sp_ast(40, 0.5, 3).build();
            let oracle = SpOracle::new(&tree);
            let mut backend = B::build(&tree, BackendConfig::serial());
            backend.run_with_queries(&tree, |_q, _t| {});
            for a in 0..tree.num_threads() as u32 {
                for b in 0..tree.num_threads() as u32 {
                    assert_eq!(
                        backend.relation(ThreadId(a), ThreadId(b)),
                        oracle.relation(ThreadId(a), ThreadId(b)),
                        "{} pair query ({a},{b})",
                        backend.name()
                    );
                }
            }
        }
        check::<SpOrder>();
        check::<EnglishHebrewLabels>();
        check::<OffsetSpanLabels>();
    }

    #[test]
    fn backend_config_clamps_workers() {
        assert_eq!(BackendConfig::with_workers(0).workers, 1);
        assert_eq!(BackendConfig::with_workers(8).workers, 8);
        assert_eq!(BackendConfig::serial().workers, 1);
    }
}
