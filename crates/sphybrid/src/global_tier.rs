//! The global tier: a shared SP-order structure over traces (paper §4).
//!
//! Two concurrent order-maintenance lists hold the English and Hebrew order of
//! traces.  Insertions happen only when a steal splits a trace; both lists are
//! updated under a single global lock (the paper's `lock` in Figure 8, lines
//! 20–23).  Queries — `OM-PRECEDES` on each list — are lock-free and may
//! proceed while an insertion is rebalancing, using the timestamp/retry scheme
//! implemented in [`om::ConcurrentOmList`].
//!
//! When a trace `U` splits, its four new siblings are placed around it so that
//!
//! * English order: ⟨U⁽¹⁾, U⁽²⁾, U⁽³⁾, U⁽⁴⁾, U⁽⁵⁾⟩,
//! * Hebrew order:  ⟨U⁽¹⁾, U⁽⁴⁾, U⁽³⁾, U⁽²⁾, U⁽⁵⁾⟩,
//!
//! (with U⁽³⁾ = U staying in place), which encodes that U⁽¹⁾ precedes
//! everything, U⁽⁵⁾ follows everything, and U⁽²⁾, U⁽³⁾, U⁽⁴⁾ are pairwise
//! logically parallel (Figure 12).

use om::{ConcurrentOmList, ConcurrentOmNode};
use parking_lot::Mutex;

/// Handles of the four traces created by a split, in both orders.
#[derive(Clone, Copy, Debug)]
pub struct SplitHandles {
    /// (English, Hebrew) handles of U⁽¹⁾.
    pub u1: (ConcurrentOmNode, ConcurrentOmNode),
    /// (English, Hebrew) handles of U⁽²⁾.
    pub u2: (ConcurrentOmNode, ConcurrentOmNode),
    /// (English, Hebrew) handles of U⁽⁴⁾.
    pub u4: (ConcurrentOmNode, ConcurrentOmNode),
    /// (English, Hebrew) handles of U⁽⁵⁾.
    pub u5: (ConcurrentOmNode, ConcurrentOmNode),
    /// Position of this split in insertion order (1-based), assigned under
    /// the insertion lock.
    pub seq: u64,
}

/// Shared SP-order over traces.
pub struct GlobalTier {
    eng: ConcurrentOmList,
    heb: ConcurrentOmList,
    /// Serializes insertions (queries never take it).
    lock: Mutex<()>,
    insertions: std::sync::atomic::AtomicU64,
}

impl GlobalTier {
    /// Create a global tier containing the initial trace, whose handles are
    /// returned.  `initial_traces` is only a capacity hint: the underlying
    /// order-maintenance slabs grow on demand as steals split traces.
    pub fn new(initial_traces: usize) -> (Self, ConcurrentOmNode, ConcurrentOmNode) {
        let (eng, eng_base) = ConcurrentOmList::with_capacity(initial_traces);
        let (heb, heb_base) = ConcurrentOmList::with_capacity(initial_traces);
        (
            GlobalTier {
                eng,
                heb,
                lock: Mutex::new(()),
                insertions: std::sync::atomic::AtomicU64::new(0),
            },
            eng_base,
            heb_base,
        )
    }

    /// Perform the two `OM-MULTI-INSERT`s of Figure 8 (lines 20–23) for a
    /// split of the trace with handles `(u_eng, u_heb)`, under the global
    /// insertion lock.
    pub fn insert_split(&self, u_eng: ConcurrentOmNode, u_heb: ConcurrentOmNode) -> SplitHandles {
        let _guard = self.lock.lock();
        let seq = 1 + self
            .insertions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // English: ⟨U1, U2, U, U4, U5⟩.
        let (e1, e2, e4, e5) = self.eng.multi_insert_around(u_eng);
        // Hebrew: ⟨U1, U4, U, U2, U5⟩.
        let (h1, h4, h2, h5) = self.heb.multi_insert_around(u_heb);
        SplitHandles {
            u1: (e1, h1),
            u2: (e2, h2),
            u4: (e4, h4),
            u5: (e5, h5),
            seq,
        }
    }

    /// Lock-free trace-order query: does trace `a` precede trace `b` in the
    /// English order *and* the Hebrew order?
    pub fn precedes(
        &self,
        a: (ConcurrentOmNode, ConcurrentOmNode),
        b: (ConcurrentOmNode, ConcurrentOmNode),
    ) -> bool {
        self.eng.precedes(a.0, b.0) && self.heb.precedes(a.1, b.1)
    }

    /// Number of splits inserted so far.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total lock-free query retries observed by the two lists.
    pub fn query_retries(&self) -> u64 {
        self.eng.query_retry_count() + self.heb.query_retry_count()
    }

    /// Slab chunks published after construction across both lists.
    pub fn grow_events(&self) -> u64 {
        self.eng.grow_events() + self.heb.grow_events()
    }

    /// Route growth events of both order-maintenance slabs to `metrics`.
    pub fn attach_metrics(&self, metrics: &spmetrics::MetricsHandle) {
        self.eng.attach_metrics(metrics.clone());
        self.heb.attach_metrics(metrics.clone());
    }

    /// Approximate heap bytes used.
    pub fn space_bytes(&self) -> usize {
        self.eng.space_bytes() + self.heb.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_produces_paper_figure_12_order() {
        let (tier, u_eng, u_heb) = GlobalTier::new(64);
        let u = (u_eng, u_heb);
        let s = tier.insert_split(u_eng, u_heb);
        // U1 precedes U3(=U), U4, U5 in both orders.
        assert!(tier.precedes(s.u1, u));
        assert!(tier.precedes(s.u1, s.u4));
        assert!(tier.precedes(s.u1, s.u5));
        assert!(tier.precedes(s.u1, s.u2));
        // U5 follows everything.
        assert!(tier.precedes(u, s.u5));
        assert!(tier.precedes(s.u2, s.u5));
        assert!(tier.precedes(s.u4, s.u5));
        // U2, U3, U4 are pairwise parallel: precedes() is false in both
        // directions for each pair.
        for (a, b) in [(s.u2, u), (u, s.u4), (s.u2, s.u4)] {
            assert!(!tier.precedes(a, b));
            assert!(!tier.precedes(b, a));
        }
    }

    #[test]
    fn nested_splits_preserve_relative_order() {
        let (tier, u_eng, u_heb) = GlobalTier::new(256);
        let u = (u_eng, u_heb);
        let s1 = tier.insert_split(u_eng, u_heb);
        // Split U4 again (as if the thief's trace was itself stolen from).
        let s2 = tier.insert_split(s1.u4.0, s1.u4.1);
        // Everything in the second split still follows U1 and precedes U5 of
        // the first split.
        for x in [s2.u1, s2.u2, s2.u4, s2.u5] {
            assert!(tier.precedes(s1.u1, x));
            assert!(tier.precedes(x, s1.u5));
        }
        // And remains parallel to U(=U3) and U2 of the first split, except U1
        // of the second split which inherits U4's parallelism too.
        for x in [s2.u2, s2.u4, s2.u5, s2.u1] {
            assert!(!tier.precedes(x, u) && !tier.precedes(u, x));
            assert!(!tier.precedes(x, s1.u2) && !tier.precedes(s1.u2, x));
        }
        assert_eq!(tier.insertions(), 2);
    }
}
