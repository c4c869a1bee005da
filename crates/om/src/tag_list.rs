//! Single-level list-labeling order-maintenance structure.
//!
//! Every item carries a 62-bit integer *tag*; the list order is the numeric
//! order of the tags, so `precedes` is a single comparison.  When an insertion
//! finds no free tag between two neighbours, a *rebalance* spreads the items
//! of an enclosing aligned tag range evenly.  The enclosing range is grown
//! until its density drops below a geometrically decreasing threshold, which
//! yields O(log² n) amortized relabeling work per insertion (Itai–Konheim–Rodeh /
//! Bender et al. style).  Queries never relabel and are O(1) worst case.
//!
//! This structure is both a standalone baseline (compared against
//! [`crate::TwoLevelList`] by relabel count in `tests/paper_example.rs`) and
//! the *top level* of the two-level structure.

use crate::{OmNode, OrderMaintenance};

/// Number of usable tag bits.  Tags live in `[0, 2^TAG_BITS)`.
const TAG_BITS: u32 = 62;
/// Exclusive upper bound of the tag universe.
const TAG_LIMIT: u64 = 1 << TAG_BITS;
/// Density threshold ratio between adjacent range sizes.  A range of size
/// `2^h` may hold at most `2^h * OVERFLOW_NUM^h / OVERFLOW_DEN^h` items before
/// it is considered overflowing.  4/5 keeps capacity astronomically large
/// while giving the amortization argument room to breathe.
const OVERFLOW_NUM: f64 = 4.0;
const OVERFLOW_DEN: f64 = 5.0;

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Item {
    tag: u64,
    prev: u32,
    next: u32,
}

/// Single-level list-labeling order-maintenance list.
#[derive(Clone, Debug)]
pub struct TagList {
    items: Vec<Item>,
    head: u32,
    tail: u32,
    relabels: u64,
}

impl TagList {
    /// Create a list with one base element (returned handle).
    pub fn with_base() -> (Self, OmNode) {
        let mut list = TagList {
            items: Vec::new(),
            head: NIL,
            tail: NIL,
            relabels: 0,
        };
        let base = list.push_item(TAG_LIMIT / 2, NIL, NIL);
        list.head = base;
        list.tail = base;
        (list, OmNode(base))
    }

    fn push_item(&mut self, tag: u64, prev: u32, next: u32) -> u32 {
        let id = self.items.len() as u32;
        self.items.push(Item { tag, prev, next });
        id
    }

    #[inline]
    fn tag(&self, x: OmNode) -> u64 {
        self.items[x.0 as usize].tag
    }

    /// Walk the list in order, returning handles (O(n); for tests/debugging).
    pub fn iter_order(&self) -> Vec<OmNode> {
        let mut out = Vec::with_capacity(self.items.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(OmNode(cur));
            cur = self.items[cur as usize].next;
        }
        out
    }

    /// Verify internal invariants (strictly increasing tags along the list,
    /// consistent prev/next pointers).  Panics on violation.  Test helper.
    pub fn check_invariants(&self) {
        let mut cur = self.head;
        let mut prev = NIL;
        let mut count = 0usize;
        let mut last_tag: Option<u64> = None;
        while cur != NIL {
            let item = &self.items[cur as usize];
            assert_eq!(item.prev, prev, "prev pointer mismatch at {cur}");
            if let Some(t) = last_tag {
                assert!(t < item.tag, "tags not strictly increasing: {t} !< {}", item.tag);
            }
            assert!(item.tag < TAG_LIMIT);
            last_tag = Some(item.tag);
            prev = cur;
            cur = item.next;
            count += 1;
        }
        assert_eq!(prev, self.tail, "tail mismatch");
        assert_eq!(count, self.items.len(), "count mismatch");
    }

    /// Insert a new item right after `x`.
    fn do_insert_after(&mut self, x: OmNode) -> OmNode {
        loop {
            let xi = x.0 as usize;
            let next = self.items[xi].next;
            let lx = self.items[xi].tag;
            let ln = if next == NIL {
                TAG_LIMIT
            } else {
                self.items[next as usize].tag
            };
            if ln - lx >= 2 {
                let tag = lx + (ln - lx) / 2;
                let id = self.push_item(tag, x.0, next);
                self.items[xi].next = id;
                if next == NIL {
                    self.tail = id;
                } else {
                    self.items[next as usize].prev = id;
                }
                return OmNode(id);
            }
            // No room: rebalance a region around x, then retry.
            self.rebalance_around(x.0);
        }
    }

    /// Spread out the items of the smallest sufficiently sparse aligned tag
    /// range containing `x`'s tag.
    fn rebalance_around(&mut self, x: u32) {
        let x_tag = self.items[x as usize].tag;
        let mut height: u32 = 1;
        loop {
            let (range_start, range_size) = if height >= TAG_BITS {
                (0u64, TAG_LIMIT)
            } else {
                let size = 1u64 << height;
                (x_tag & !(size - 1), size)
            };
            let range_end = range_start.saturating_add(range_size); // exclusive; == TAG_LIMIT at top

            // Collect the contiguous run of items whose tags fall in the range.
            let mut first = x;
            while self.items[first as usize].prev != NIL {
                let p = self.items[first as usize].prev;
                if self.items[p as usize].tag >= range_start {
                    first = p;
                } else {
                    break;
                }
            }
            let mut count: u64 = 0;
            let mut cur = first;
            let mut last = first;
            while cur != NIL && self.items[cur as usize].tag < range_end {
                count += 1;
                last = cur;
                cur = self.items[cur as usize].next;
            }

            let capacity = threshold_capacity(range_size, height);
            // Accept the range only if it is below its density threshold AND
            // relabeling will leave a gap of at least one free tag between
            // adjacent items (stride >= 2); otherwise the retried insert could
            // immediately fail again.
            let stride_ok = range_size / (count + 1) >= 2;
            if (count < capacity && stride_ok) || range_size == TAG_LIMIT {
                // Relabel items [first..=last] evenly within the range.
                // Leave a gap at each end: stride = range_size / (count + 1).
                let stride = (range_size / (count + 1)).max(1);
                let mut tag = range_start + stride;
                let mut cur = first;
                loop {
                    self.items[cur as usize].tag = tag.min(range_end - 1);
                    self.relabels += 1;
                    if cur == last {
                        break;
                    }
                    tag = tag.saturating_add(stride);
                    cur = self.items[cur as usize].next;
                }
                return;
            }
            height += 1;
        }
    }
}

/// Maximum number of items a range of `range_size` tags at `height` may hold
/// before it is considered overflowing.
fn threshold_capacity(range_size: u64, height: u32) -> u64 {
    // capacity = range_size * (OVERFLOW_NUM/OVERFLOW_DEN)^height, at least 1.
    let ratio = (OVERFLOW_NUM / OVERFLOW_DEN).powi(height as i32);
    let cap = (range_size as f64) * ratio;
    if cap >= u64::MAX as f64 {
        u64::MAX
    } else {
        (cap as u64).max(1)
    }
}

impl OrderMaintenance for TagList {
    fn new() -> (Self, OmNode) {
        Self::with_base()
    }

    fn insert_after(&mut self, x: OmNode) -> OmNode {
        self.do_insert_after(x)
    }

    #[inline]
    fn precedes(&self, a: OmNode, b: OmNode) -> bool {
        self.tag(a) < self.tag(b)
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn space_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<Item>() + std::mem::size_of::<Self>()
    }

    fn relabel_count(&self) -> u64 {
        self.relabels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference model: a Vec of handles kept in list order.
    struct Model {
        order: Vec<OmNode>,
    }

    impl Model {
        fn new(base: OmNode) -> Self {
            Model { order: vec![base] }
        }
        fn insert_after(&mut self, x: OmNode, y: OmNode) {
            let pos = self.order.iter().position(|&h| h == x).unwrap();
            self.order.insert(pos + 1, y);
        }
        fn precedes(&self, a: OmNode, b: OmNode) -> bool {
            let pa = self.order.iter().position(|&h| h == a).unwrap();
            let pb = self.order.iter().position(|&h| h == b).unwrap();
            pa < pb
        }
    }

    #[test]
    fn sequential_appends() {
        let (mut list, base) = TagList::with_base();
        let mut prev = base;
        let mut all = vec![base];
        for _ in 0..1000 {
            prev = list.insert_after(prev);
            all.push(prev);
        }
        list.check_invariants();
        for w in all.windows(2) {
            assert!(list.precedes(w[0], w[1]));
            assert!(!list.precedes(w[1], w[0]));
        }
        assert!(list.precedes(all[0], all[1000]));
    }

    #[test]
    fn repeated_insert_after_base_forces_rebalance() {
        // Inserting repeatedly after the same element halves the local gap
        // each time, so rebalances must trigger and keep order correct.
        let (mut list, base) = TagList::with_base();
        let mut newest_first: Vec<OmNode> = Vec::new();
        for _ in 0..2000 {
            newest_first.push(list.insert_after(base));
        }
        list.check_invariants();
        assert!(list.relabel_count() > 0, "expected rebalances to occur");
        // Order after base is newest..oldest.
        for w in newest_first.windows(2) {
            // w[0] was inserted before w[1]; w[1] sits closer to base.
            assert!(list.precedes(w[1], w[0]));
        }
        for &h in &newest_first {
            assert!(list.precedes(base, h));
        }
    }

    #[test]
    fn random_inserts_match_model() {
        let mut rng = StdRng::seed_from_u64(0xC11C);
        let (mut list, base) = TagList::with_base();
        let mut model = Model::new(base);
        let mut handles = vec![base];
        for _ in 0..3000 {
            let x = handles[rng.gen_range(0..handles.len())];
            let y = list.insert_after(x);
            model.insert_after(x, y);
            handles.push(y);
        }
        list.check_invariants();
        for _ in 0..3000 {
            let a = handles[rng.gen_range(0..handles.len())];
            let b = handles[rng.gen_range(0..handles.len())];
            assert_eq!(list.precedes(a, b), model.precedes(a, b));
        }
        assert_eq!(list.iter_order(), model.order);
    }

    #[test]
    fn insert_after_many_orders_correctly() {
        let (mut list, base) = TagList::with_base();
        let tail = list.insert_after(base);
        let mids = list.insert_after_many(base, 4);
        // Order: base, mids[0..4], tail
        let mut expect = vec![base];
        expect.extend(&mids);
        expect.push(tail);
        assert_eq!(list.iter_order(), expect);
    }

    #[test]
    fn amortized_relabels_are_moderate() {
        // Total relabel work over n inserts should be O(n log^2 n); check a
        // generous bound to catch accidental quadratic blowups.
        let (mut list, base) = TagList::with_base();
        let mut prev = base;
        let n = 20_000u64;
        for i in 0..n {
            // Mix of append and insert-after-fixed to stress both paths.
            prev = if i % 3 == 0 {
                list.insert_after(base)
            } else {
                list.insert_after(prev)
            };
        }
        let per_insert = list.relabel_count() as f64 / n as f64;
        assert!(
            per_insert < 200.0,
            "relabels per insert too high: {per_insert}"
        );
        list.check_invariants();
    }
}
