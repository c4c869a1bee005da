//! The local tier: per-trace SP-bags over a shared concurrent union-find
//! (paper §5).
//!
//! Each trace maintains S-bags and P-bags per procedure, exactly like the
//! serial SP-bags algorithm, but over a single shared
//! [`dsu::ConcurrentUnionFind`] whose elements are threads.  The bag that a
//! thread currently belongs to is recorded as an *annotation* on the bag's
//! representative: a packed `(trace, bag-kind)` word.  This gives the two
//! local-tier query primitives:
//!
//! * `FIND-TRACE(u)` — find the representative, read the trace part of its
//!   annotation (safe to run from any worker concurrently with the owner's
//!   unions, because union by rank never compresses paths);
//! * `LOCAL-PRECEDES(u, current)` — when both threads are in the same trace,
//!   the bag kind at the representative answers (S ⇒ precedes, P ⇒ parallel).
//!
//! `SPLIT(U, X, U⁽¹⁾, U⁽²⁾)` re-annotates the stolen procedure's S-bag as
//! belonging to U⁽¹⁾ and its P-bag as belonging to U⁽²⁾ — two pointer-sized
//! writes, i.e. O(1), which is the property the SP-hybrid analysis needs.

use dsu::ConcurrentUnionFind;
use sptree::tree::{ProcId, ThreadId};

use crate::trace::{TraceId, TraceLocal};

/// Bag kind recorded in annotations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BagKind {
    /// The bag's threads precede the currently executing thread of the trace.
    S,
    /// The bag's threads are parallel to the currently executing thread.
    P,
}

fn pack(trace: TraceId, kind: BagKind) -> u64 {
    ((trace.0 as u64) << 1) | matches!(kind, BagKind::P) as u64
}

fn unpack(word: u64) -> (TraceId, BagKind) {
    let kind = if word & 1 == 1 { BagKind::P } else { BagKind::S };
    let trace = u32::try_from(word >> 1).unwrap_or_else(|_| {
        panic!("bag annotation {word:#x} does not decode to a u32 trace id — the annotation was not produced by this tier's packer")
    });
    (TraceId(trace), kind)
}

/// Shared local tier.
pub struct LocalTier {
    sets: ConcurrentUnionFind,
}

impl LocalTier {
    /// Create a local tier; `num_threads` is only an initial-capacity hint —
    /// the shared union-find grows on demand as threads execute.
    pub fn new(num_threads: usize) -> Self {
        LocalTier {
            sets: ConcurrentUnionFind::with_capacity(num_threads),
        }
    }

    /// Slab chunks published after construction — growth past the hint.
    pub fn grow_events(&self) -> u64 {
        self.sets.grow_events()
    }

    /// Route growth events of the shared union-find to `metrics`.
    pub fn attach_metrics(&self, metrics: &spmetrics::MetricsHandle) {
        self.sets.attach_metrics(metrics.clone());
    }

    /// `LOCAL-INSERT`: the currently executing `thread` (in procedure `proc`,
    /// running as part of `trace`) joins the S-bag of `proc`.
    ///
    /// Must only be called by the worker that owns `trace` (its `TraceLocal`
    /// is passed in by the caller, which holds the trace's lock).
    pub fn thread_executed(
        &self,
        local: &mut TraceLocal,
        trace: TraceId,
        proc: ProcId,
        thread: ThreadId,
    ) {
        let root = match local.sbag.get(&proc.0) {
            Some(&bag) => self.sets.union(bag, thread.0),
            None => thread.0,
        };
        local.sbag.insert(proc.0, root);
        self.sets.set_annotation(root, pack(trace, BagKind::S));
    }

    /// A spawned child procedure `child` of `proc` returned (the left subtree
    /// of its spawn P-node completed without a steal): fold the child's S-bag
    /// into the P-bag of `proc`.
    pub fn child_returned(
        &self,
        local: &mut TraceLocal,
        trace: TraceId,
        proc: ProcId,
        child: ProcId,
    ) {
        let Some(child_sbag) = local.sbag.remove(&child.0) else {
            return;
        };
        let root = match local.pbag.get(&proc.0) {
            Some(&bag) => self.sets.union(bag, child_sbag),
            None => child_sbag,
        };
        local.pbag.insert(proc.0, root);
        self.sets.set_annotation(root, pack(trace, BagKind::P));
    }

    /// A sync of procedure `proc` completed (the spawn's P-node finished
    /// without a steal): fold the P-bag into the S-bag.
    pub fn sync(&self, local: &mut TraceLocal, trace: TraceId, proc: ProcId) {
        let Some(pbag) = local.pbag.remove(&proc.0) else {
            return;
        };
        let root = match local.sbag.get(&proc.0) {
            Some(&bag) => self.sets.union(bag, pbag),
            None => pbag,
        };
        local.sbag.insert(proc.0, root);
        self.sets.set_annotation(root, pack(trace, BagKind::S));
    }

    /// `SPLIT(U, X, U⁽¹⁾, U⁽²⁾)`: the trace whose local state is `local` is
    /// being split around a P-node belonging to procedure `proc`.  The
    /// procedure's S-bag becomes subtrace `u1` (threads that precede the
    /// P-node) and its P-bag becomes subtrace `u2` (threads parallel to it
    /// that are not its descendants).  O(1): two annotation writes.
    pub fn split(&self, local: &mut TraceLocal, proc: ProcId, u1: TraceId, u2: TraceId) {
        if let Some(sbag) = local.sbag.remove(&proc.0) {
            self.sets.set_annotation(sbag, pack(u1, BagKind::S));
        }
        if let Some(pbag) = local.pbag.remove(&proc.0) {
            self.sets.set_annotation(pbag, pack(u2, BagKind::P));
        }
    }

    /// `FIND-TRACE` plus the bag kind: which trace does `thread` currently
    /// belong to, and is its bag an S-bag or a P-bag?  Safe from any worker.
    pub fn find_trace(&self, thread: ThreadId) -> (TraceId, BagKind) {
        let (_root, ann) = self.sets.find_annotation(thread.0);
        unpack(ann)
    }

    /// Approximate heap bytes used.
    pub fn space_bytes(&self) -> usize {
        self.sets.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "does not decode to a u32 trace id")]
    fn foreign_annotations_panic_instead_of_truncating() {
        unpack((1u64 << 40) | 1);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for trace in [0u32, 1, 77, u32::MAX >> 2] {
            for kind in [BagKind::S, BagKind::P] {
                let (t, k) = unpack(pack(TraceId(trace), kind));
                assert_eq!(t, TraceId(trace));
                assert_eq!(k, kind);
            }
        }
    }

    #[test]
    fn serial_bag_lifecycle() {
        // Simulate: proc 0 runs thread 0, spawns child proc 1 which runs
        // threads 1 and 2, the child returns, proc 0 runs thread 3, sync,
        // proc 0 runs thread 4.
        let tier = LocalTier::new(8);
        let trace = TraceId(0);
        let mut local = TraceLocal::default();

        tier.thread_executed(&mut local, trace, ProcId(0), ThreadId(0));
        assert_eq!(tier.find_trace(ThreadId(0)), (trace, BagKind::S));

        tier.thread_executed(&mut local, trace, ProcId(1), ThreadId(1));
        tier.thread_executed(&mut local, trace, ProcId(1), ThreadId(2));
        assert_eq!(tier.find_trace(ThreadId(1)), (trace, BagKind::S));

        tier.child_returned(&mut local, trace, ProcId(0), ProcId(1));
        // Child threads are now parallel to the continuation of proc 0.
        assert_eq!(tier.find_trace(ThreadId(1)).1, BagKind::P);
        assert_eq!(tier.find_trace(ThreadId(2)).1, BagKind::P);
        // Proc 0's own earlier thread still precedes.
        assert_eq!(tier.find_trace(ThreadId(0)).1, BagKind::S);

        tier.thread_executed(&mut local, trace, ProcId(0), ThreadId(3));
        tier.sync(&mut local, trace, ProcId(0));
        // After the sync everything precedes the next thread of proc 0.
        for t in 0..4u32 {
            assert_eq!(tier.find_trace(ThreadId(t)).1, BagKind::S, "thread {t}");
        }
    }

    #[test]
    fn split_moves_bags_to_new_traces() {
        let tier = LocalTier::new(8);
        let u = TraceId(0);
        let mut local = TraceLocal::default();
        // Proc 0 executed thread 0 (S-bag) and has a returned child's threads
        // 1, 2 in its P-bag.
        tier.thread_executed(&mut local, u, ProcId(0), ThreadId(0));
        tier.thread_executed(&mut local, u, ProcId(1), ThreadId(1));
        tier.thread_executed(&mut local, u, ProcId(1), ThreadId(2));
        tier.child_returned(&mut local, u, ProcId(0), ProcId(1));
        // Deeper work of the victim stays in U: thread 3 in proc 2.
        tier.thread_executed(&mut local, u, ProcId(2), ThreadId(3));

        let (u1, u2) = (TraceId(1), TraceId(2));
        tier.split(&mut local, ProcId(0), u1, u2);

        assert_eq!(tier.find_trace(ThreadId(0)).0, u1);
        assert_eq!(tier.find_trace(ThreadId(1)).0, u2);
        assert_eq!(tier.find_trace(ThreadId(2)).0, u2);
        // Threads of deeper procedures stay with U (= U3).
        assert_eq!(tier.find_trace(ThreadId(3)).0, u);
        // The moved bags are gone from the trace's maps.
        assert!(!local.sbag.contains_key(&0));
        assert!(!local.pbag.contains_key(&0));
    }

    #[test]
    fn concurrent_find_trace_during_unions() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let tier = Arc::new(LocalTier::new(10_000));
        let trace = TraceId(0);
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let tier = Arc::clone(&tier);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    // Querying any thread that has been inserted must return a
                    // valid trace id (0 here) and terminate.
                    let (t, _) = tier.find_trace(ThreadId(i % 10_000));
                    assert_eq!(t.0, 0);
                    i = i.wrapping_add(37);
                }
            }));
        }
        let mut local = TraceLocal::default();
        for t in 0..10_000u32 {
            tier.thread_executed(&mut local, trace, ProcId(t % 7), ThreadId(t));
            if t % 13 == 0 && t > 0 {
                tier.child_returned(&mut local, trace, ProcId(0), ProcId((t % 6) + 1));
            }
            if t % 29 == 0 {
                tier.sync(&mut local, trace, ProcId(0));
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
