//! The naive parallelization of SP-order the paper argues against (§3).
//!
//! Sharing the serial SP-order structure among processors and protecting every
//! operation (insertion *and* query) with one global lock is correct — the
//! unfoldings commute as long as a parent unfolds before its children, which
//! any schedule respects (and [`StreamingSpOrder`]'s leaf-only takeover rule
//! is argued one insertion at a time, so it commutes the same way) — but each
//! operation may stall all P−1 other processors, so the apparent work can
//! blow up to Θ(P·T₁).  SP-hybrid's two-tier design exists precisely to avoid
//! this.  This is the one
//! implementation of the strawman: [`crate::NaiveBackend`] drives it from a
//! parse tree, `spprog`'s naive-locked maintainer from a live run; it also
//! doubles as a second, independently-implemented parallel SP oracle in
//! stress tests.

use parking_lot::Mutex;
use spmaint::api::{CurrentSpQuery, SpQuery};
use spmaint::stream::{StreamNode, StreamingSpBackend, StreamingSpOrder};
use sptree::tree::ThreadId;

struct Inner {
    sp: StreamingSpOrder,
    lock_acquisitions: u64,
}

/// A streaming SP-order shared by all workers behind a single global lock.
///
/// A position's handle pair *is* the scheduler's 64-bit *tag*
/// ([`StreamNode::to_tag`]): the root tag comes from
/// [`NaiveSharedSpOrder::new`], and a visitor's `enter_internal` forwards to
/// [`NaiveSharedSpOrder::expand`] to obtain its children's.
pub struct NaiveSharedSpOrder {
    inner: Mutex<Inner>,
}

impl NaiveSharedSpOrder {
    /// An empty structure and the tag of the root position.
    pub fn new() -> (Self, u64) {
        let (sp, root) = StreamingSpOrder::stream_new();
        let inner = Inner {
            sp,
            lock_acquisitions: 0,
        };
        (
            NaiveSharedSpOrder {
                inner: Mutex::new(inner),
            },
            root.to_tag(),
        )
    }

    fn locked<R>(&self, op: impl FnOnce(&mut StreamingSpOrder) -> R) -> R {
        let mut inner = self.inner.lock();
        inner.lock_acquisitions += 1;
        op(&mut inner.sp)
    }

    /// The position tagged `tag` is revealed to be an internal node; returns
    /// the tags of its (left, right) children.  Takes the global lock.
    pub fn expand(&self, tag: u64, parallel: bool) -> (u64, u64) {
        let (left, right) = self.locked(|sp| sp.expand(StreamNode::from_tag(tag), parallel));
        (left.to_tag(), right.to_tag())
    }

    /// The position tagged `tag` is revealed to be a leaf executing as
    /// `thread`.  Takes the global lock.
    pub fn execute(&self, tag: u64, thread: ThreadId) {
        self.locked(|sp| sp.execute(StreamNode::from_tag(tag), thread));
    }

    /// Does thread `a` precede thread `b`?  Both must have started executing.
    /// Takes the global lock.
    pub fn precedes(&self, a: ThreadId, b: ThreadId) -> bool {
        self.locked(|sp| sp.precedes(a, b))
    }

    /// The [`CurrentSpQuery`] view of the executing thread `current`: pair
    /// queries with one endpoint pinned (the structure's own notion of
    /// "current thread" is advanced by other workers concurrently).
    pub fn view(&self, current: ThreadId) -> NaiveView<'_> {
        NaiveView {
            naive: self,
            current,
        }
    }

    /// Number of global-lock acquisitions so far (contention metric).
    pub fn lock_acquisitions(&self) -> u64 {
        self.inner.lock().lock_acquisitions
    }

    /// Approximate heap bytes used by the shared structure.
    pub fn space_bytes(&self) -> usize {
        self.inner.lock().sp.stream_space_bytes()
    }
}

/// Pair queries specialized to one executing thread
/// ([`NaiveSharedSpOrder::view`]).
pub struct NaiveView<'a> {
    naive: &'a NaiveSharedSpOrder,
    current: ThreadId,
}

impl CurrentSpQuery for NaiveView<'_> {
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        self.naive.precedes(earlier, self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NaiveBackend;
    use parking_lot::Mutex as PLMutex;
    use spmaint::api::{BackendConfig, SpBackend};
    use sptree::cilk::CilkProgram;
    use sptree::generate::{fib_like, random_sp_ast};
    use sptree::oracle::SpOracle;
    use sptree::tree::ParseTree;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Run the strawman over `tree`, issuing queries against every
    /// already-executed thread from each executing thread, and check every
    /// answer against the oracle.
    fn check(tree: &ParseTree, workers: usize) {
        let executed: Vec<AtomicBool> =
            (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect();
        let recorded: PLMutex<Vec<(ThreadId, ThreadId, bool)>> = PLMutex::new(Vec::new());
        let mut backend = NaiveBackend::build(tree, BackendConfig::with_workers(workers));
        backend.run_with_queries(tree, |queries, current| {
            let mut answers = Vec::new();
            for earlier in 0..executed.len() as u32 {
                let earlier = ThreadId(earlier);
                if earlier != current && executed[earlier.index()].load(Ordering::Acquire) {
                    answers.push((earlier, current, queries.precedes_current(earlier)));
                }
            }
            recorded.lock().extend(answers);
            executed[current.index()].store(true, Ordering::Release);
        });
        let oracle = SpOracle::new(tree);
        for (a, b, ans) in recorded.into_inner() {
            assert_eq!(ans, oracle.precedes(a, b), "{a:?} vs {b:?}");
        }
        assert!(backend.lock_acquisitions() > 0);
    }

    #[test]
    fn matches_oracle_serially() {
        for seed in 0..4u64 {
            check(&random_sp_ast(80, 0.5, seed).build(), 1);
        }
    }

    #[test]
    fn matches_oracle_in_parallel() {
        let tree = CilkProgram::new(fib_like(8, 1)).build_tree();
        check(&tree, 4);
        // Unlike SP-hybrid, the naive scheme works on arbitrary SP trees too,
        // because it has no per-procedure trace machinery.
        check(&random_sp_ast(300, 0.6, 11).build(), 4);
    }

    #[test]
    fn tags_thread_handles_and_every_operation_counts_a_lock() {
        // S(u0, P(u1, u2)), unfolded by hand.
        let (naive, root) = NaiveSharedSpOrder::new();
        let (u0, rest) = naive.expand(root, false);
        naive.execute(u0, ThreadId(0));
        let (u1, u2) = naive.expand(rest, true);
        naive.execute(u1, ThreadId(1));
        naive.execute(u2, ThreadId(2));
        assert!(naive.precedes(ThreadId(0), ThreadId(2)));
        assert!(!naive.precedes(ThreadId(1), ThreadId(2)));
        assert!(!naive.precedes(ThreadId(2), ThreadId(1)));
        assert_eq!(naive.lock_acquisitions(), 8, "2 expands + 3 executes + 3 queries");
        assert!(naive.space_bytes() > 0);
    }
}
