//! Order-maintenance data structures.
//!
//! An *order-maintenance* (OM) structure maintains a total order over a
//! dynamic set of items under two operations:
//!
//! * `insert_after(x)` — insert a new item immediately after an existing one,
//! * `precedes(a, b)` — report whether `a` comes before `b` in the order.
//!
//! The SP-order algorithm of Bender, Fineman, Gilbert and Leiserson
//! (SPAA 2004) uses two such lists (an *English* and a *Hebrew* order) to
//! answer series-parallel queries in O(1); the SP-hybrid algorithm shares a
//! concurrent variant between processors as its *global tier*.
//!
//! Three implementations are provided:
//!
//! * [`TagList`] — a single-level list-labeling structure with `u64` tags and
//!   density-based relabeling.  Insertions are O(log² n) amortized, queries
//!   O(1) worst case.  Kept as a simple baseline and ablation target.
//! * [`TwoLevelList`] — the two-level structure of Bender et al. / Dietz &
//!   Sleator: a top-level [`TagList`] over *groups* of Θ(log n) items, with
//!   per-group local labels.  Insertions are O(1) amortized, queries O(1)
//!   worst case.  This is the structure assumed by Theorem 5 of the paper.
//! * [`concurrent::ConcurrentOmList`] — the global-tier structure of §4 of the
//!   paper: insertions serialized by a lock, queries lock-free with per-item
//!   timestamps and a multi-pass rebalance that never reorders items.
//!
//! All lists hand out small `Copy` handles; items themselves carry no
//! user payload (callers keep a side table from their own ids to handles).

pub mod concurrent;
pub mod slab;
pub mod tag_list;
pub mod two_level;

pub use concurrent::{ConcurrentOmList, ConcurrentOmNode};
pub use slab::ChunkedSlab;
pub use tag_list::TagList;
pub use two_level::TwoLevelList;

/// Handle to an element of a serial order-maintenance list.
///
/// Handles are only meaningful for the list that created them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OmNode(pub(crate) u32);

impl OmNode {
    /// Raw index of this handle (useful for debugging / metrics).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild the handle whose [`OmNode::index`] is `index` — for callers
    /// that pack handles into words of their own.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        OmNode(index)
    }
}

/// Common interface of the serial order-maintenance structures.
///
/// The paper's `OM-INSERT(L, X, Y1, …, Yk)` maps to [`OrderMaintenance::insert_after_many`],
/// and `OM-PRECEDES(L, X, Y)` maps to [`OrderMaintenance::precedes`].
pub trait OrderMaintenance {
    /// Create a list containing a single *base* element and return it together
    /// with the handle of that element.
    fn new() -> (Self, OmNode)
    where
        Self: Sized;

    /// Insert a new element immediately after `x` and return its handle.
    fn insert_after(&mut self, x: OmNode) -> OmNode;

    /// Insert `count` new elements immediately after `x`, in order
    /// (the first new element directly follows `x`, the second follows the
    /// first, and so on).  Returns the handles in that order.
    fn insert_after_many(&mut self, x: OmNode, count: usize) -> Vec<OmNode> {
        let mut out = Vec::with_capacity(count);
        let mut prev = x;
        for _ in 0..count {
            prev = self.insert_after(prev);
            out.push(prev);
        }
        out
    }

    /// Does `a` precede `b` in the maintained order?  `a == b` yields `false`.
    fn precedes(&self, a: OmNode, b: OmNode) -> bool;

    /// Number of elements currently in the list.
    fn len(&self) -> usize;

    /// True if the list holds no elements (never the case after `new`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate number of heap bytes used by the structure.
    ///
    /// Used by the Figure-3 space comparison; it only needs to be accurate to
    /// within a small constant factor.
    fn space_bytes(&self) -> usize;

    /// Total number of relabeling steps performed so far (for benchmarks and
    /// amortization tests); implementations that do not relabel return 0.
    fn relabel_count(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<L: OrderMaintenance>() {
        let (mut list, base) = L::new();
        assert_eq!(list.len(), 1);
        let a = list.insert_after(base);
        let b = list.insert_after(a);
        let c = list.insert_after(base);
        // Order is now: base, c, a, b
        assert!(list.precedes(base, c));
        assert!(list.precedes(c, a));
        assert!(list.precedes(a, b));
        assert!(list.precedes(base, b));
        assert!(!list.precedes(b, a));
        assert!(!list.precedes(a, a));
        assert_eq!(list.len(), 4);

        let many = list.insert_after_many(b, 3);
        assert_eq!(many.len(), 3);
        assert!(list.precedes(b, many[0]));
        assert!(list.precedes(many[0], many[1]));
        assert!(list.precedes(many[1], many[2]));
        assert_eq!(list.len(), 7);
        assert!(list.space_bytes() > 0);
    }

    #[test]
    fn tag_list_implements_trait() {
        exercise::<TagList>();
    }

    #[test]
    fn two_level_implements_trait() {
        exercise::<TwoLevelList>();
    }
}
