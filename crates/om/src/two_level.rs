//! Two-level order-maintenance structure with O(1) amortized insertion.
//!
//! Items are partitioned into contiguous *groups* of at most [`GROUP_MAX`]
//! items.  A top-level [`TagList`] maintains the order of the groups; within a
//! group, items carry widely spaced 64-bit *local* labels.  A query compares
//! the two items' groups via the top list (O(1)), falling back to the local
//! labels when the groups coincide.
//!
//! An insertion takes the midpoint between local labels when a gap exists.
//! When the local gap is exhausted, the group's items are renumbered (O(group
//! size) = O(1) amortized because a renumbering is preceded by Ω(GROUP_MAX)
//! midpoint insertions or a split); when a group grows past [`GROUP_MAX`], it
//! is split in two and one insertion is performed in the top list.  With
//! `GROUP_MAX = Θ(log n_max)`, insertions cost O(1) amortized, which is the
//! bound used by Theorem 5 of the paper.

use crate::tag_list::TagList;
use crate::{OmNode, OrderMaintenance};

/// Maximum number of items per group before a split.
///
/// 64 ≈ log₂ of the largest list we expect to maintain; the structure is
/// correct for any value ≥ 2.
pub const GROUP_MAX: usize = 64;

/// Spacing between consecutive local labels after a renumbering.
const LOCAL_STRIDE: u64 = 1 << 32;

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Item {
    /// Group this item currently belongs to.
    group: u32,
    /// Label within the group; order within a group is label order.
    local: u64,
    /// Next item in the same group (by order), NIL at the group tail.
    next: u32,
}

// One item per executed thread in each of SP-order's two lists: the size is
// part of the per-thread space bound.
const _: () = assert!(std::mem::size_of::<Item>() == 16);

#[derive(Clone, Debug)]
struct Group {
    /// Handle of this group in the top-level tag list.
    top: OmNode,
    /// First item of the group in order.
    head: u32,
    /// Last item of the group in order.
    tail: u32,
    /// Number of items currently in the group.
    count: u32,
}

/// Two-level order-maintenance list (O(1) amortized insert, O(1) query).
#[derive(Clone, Debug)]
pub struct TwoLevelList {
    items: Vec<Item>,
    groups: Vec<Group>,
    top: TagList,
    /// Items relabelled inside their group; part of `relabel_count`.
    renumbers: u64,
    splits: u64,
}

impl TwoLevelList {
    /// Create a list with a single base element.
    pub fn with_base() -> (Self, OmNode) {
        let (top, top_base) = TagList::with_base();
        let mut list = TwoLevelList {
            items: Vec::new(),
            groups: Vec::new(),
            top,
            renumbers: 0,
            splits: 0,
        };
        let gid = list.groups.len() as u32;
        list.groups.push(Group {
            top: top_base,
            head: 0,
            tail: 0,
            count: 1,
        });
        list.items.push(Item {
            group: gid,
            local: LOCAL_STRIDE,
            next: NIL,
        });
        (list, OmNode(0))
    }

    /// Number of group splits performed so far (test/bench introspection).
    pub fn split_count(&self) -> u64 {
        self.splits
    }

    /// The items of `group` in order (test helper).
    fn group_items(&self, gid: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = self.groups[gid as usize].head;
        while cur != NIL {
            out.push(cur);
            cur = self.items[cur as usize].next;
        }
        out
    }

    /// Walk the whole list in order (test helper; O(n)).
    pub fn iter_order(&self) -> Vec<OmNode> {
        let group_handles: Vec<(u32, OmNode)> = self
            .groups
            .iter()
            .enumerate()
            .map(|(gid, g)| (gid as u32, g.top))
            .collect();
        // Order groups by the top list.
        let top_order = self.top.iter_order();
        let mut out = Vec::with_capacity(self.items.len());
        for th in top_order {
            if let Some(&(gid, _)) = group_handles.iter().find(|&&(_, h)| h == th) {
                for item in self.group_items(gid) {
                    out.push(OmNode(item));
                }
            }
        }
        out
    }

    /// Check structural invariants (test helper).
    pub fn check_invariants(&self) {
        self.top.check_invariants();
        let mut total = 0usize;
        for (gid, g) in self.groups.iter().enumerate() {
            let items = self.group_items(gid as u32);
            assert_eq!(items.len(), g.count as usize, "group {gid} count mismatch");
            assert!(!items.is_empty(), "group {gid} is empty");
            assert!(
                items.len() <= 2 * GROUP_MAX,
                "group {gid} severely over capacity"
            );
            assert_eq!(*items.first().unwrap(), g.head);
            assert_eq!(*items.last().unwrap(), g.tail);
            let mut last_local = None;
            for &it in &items {
                let item = &self.items[it as usize];
                assert_eq!(item.group, gid as u32, "item {it} group pointer stale");
                if let Some(l) = last_local {
                    assert!(l < item.local, "local labels not increasing in group {gid}");
                }
                last_local = Some(item.local);
            }
            total += items.len();
        }
        assert_eq!(total, self.items.len());
    }

    fn do_insert_after(&mut self, x: OmNode) -> OmNode {
        let xi = x.0 as usize;
        let gid = self.items[xi].group;
        let next = self.items[xi].next;
        let lx = self.items[xi].local;
        let ln = if next == NIL {
            u64::MAX
        } else {
            self.items[next as usize].local
        };

        if ln - lx < 2 {
            // No local gap: renumber the whole group, then retry (labels are
            // now spaced LOCAL_STRIDE apart, so the retry succeeds).
            self.renumber_group(gid);
            return self.do_insert_after(x);
        }

        let local = lx + (ln - lx) / 2;
        let id = self.items.len() as u32;
        self.items.push(Item {
            group: gid,
            local,
            next,
        });
        self.items[xi].next = id;
        if next == NIL {
            self.groups[gid as usize].tail = id;
        }
        self.groups[gid as usize].count += 1;

        if self.groups[gid as usize].count as usize > GROUP_MAX {
            self.split_group(gid);
        }
        OmNode(id)
    }

    /// Re-space the local labels of every item in `gid`.
    fn renumber_group(&mut self, gid: u32) {
        let mut cur = self.groups[gid as usize].head;
        let mut local = LOCAL_STRIDE;
        while cur != NIL {
            self.items[cur as usize].local = local;
            local = local.saturating_add(LOCAL_STRIDE);
            cur = self.items[cur as usize].next;
            self.renumbers += 1;
        }
    }

    /// Split `gid` into two groups of roughly equal size; the new group is
    /// inserted immediately after `gid` in the top-level list.
    fn split_group(&mut self, gid: u32) {
        self.splits += 1;
        let count = self.groups[gid as usize].count;
        let keep = count / 2;
        // Re-space the half that stays, so both halves regain full slack —
        // which is also the walk to the split point: the successor of the
        // last item that stays heads the new group.
        let mut new_tail_of_old = NIL;
        let mut move_head = self.groups[gid as usize].head;
        let mut local = LOCAL_STRIDE;
        for _ in 0..keep {
            let item = &mut self.items[move_head as usize];
            item.local = local;
            local = local.saturating_add(LOCAL_STRIDE);
            new_tail_of_old = move_head;
            move_head = item.next;
        }
        self.renumbers += u64::from(keep);
        let move_tail = self.groups[gid as usize].tail;

        // Detach.
        self.items[new_tail_of_old as usize].next = NIL;
        self.groups[gid as usize].tail = new_tail_of_old;
        self.groups[gid as usize].count = keep;

        // New group, placed right after the old one in the top list.
        let new_top = self.top.insert_after(self.groups[gid as usize].top);
        let new_gid = self.groups.len() as u32;
        self.groups.push(Group {
            top: new_top,
            head: move_head,
            tail: move_tail,
            count: count - keep,
        });

        // Re-home and renumber the moved items.
        let mut cur = move_head;
        let mut local = LOCAL_STRIDE;
        while cur != NIL {
            let item = &mut self.items[cur as usize];
            item.group = new_gid;
            item.local = local;
            local = local.saturating_add(LOCAL_STRIDE);
            cur = item.next;
        }
    }
}

impl OrderMaintenance for TwoLevelList {
    fn new() -> (Self, OmNode) {
        Self::with_base()
    }

    fn insert_after(&mut self, x: OmNode) -> OmNode {
        self.do_insert_after(x)
    }

    #[inline]
    fn precedes(&self, a: OmNode, b: OmNode) -> bool {
        let ia = &self.items[a.0 as usize];
        let ib = &self.items[b.0 as usize];
        if ia.group == ib.group {
            ia.local < ib.local
        } else {
            let ga = self.groups[ia.group as usize].top;
            let gb = self.groups[ib.group as usize].top;
            self.top.precedes(ga, gb)
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn space_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<Item>()
            + self.groups.capacity() * std::mem::size_of::<Group>()
            + self.top.space_bytes()
            + std::mem::size_of::<Self>()
    }

    fn relabel_count(&self) -> u64 {
        self.renumbers + self.top.relabel_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn base_list_has_one_element() {
        let (list, base) = TwoLevelList::with_base();
        assert_eq!(list.len(), 1);
        assert!(!list.precedes(base, base));
        list.check_invariants();
    }

    #[test]
    fn appends_keep_order() {
        let (mut list, base) = TwoLevelList::with_base();
        let mut prev = base;
        let mut all = vec![base];
        for _ in 0..5000 {
            prev = list.insert_after(prev);
            all.push(prev);
        }
        list.check_invariants();
        assert!(list.split_count() > 0, "groups should have split");
        for w in all.windows(2) {
            assert!(list.precedes(w[0], w[1]));
            assert!(!list.precedes(w[1], w[0]));
        }
        // Spot-check long-distance comparisons.
        assert!(list.precedes(all[0], all[4999]));
        assert!(list.precedes(all[17], all[4321]));
        assert!(!list.precedes(all[4321], all[17]));
    }

    #[test]
    fn insert_after_same_element_repeatedly() {
        let (mut list, base) = TwoLevelList::with_base();
        let mut newest_first = Vec::new();
        for _ in 0..5000 {
            newest_first.push(list.insert_after(base));
        }
        list.check_invariants();
        for w in newest_first.windows(2) {
            assert!(list.precedes(w[1], w[0]));
        }
    }

    #[test]
    fn random_inserts_match_vec_model() {
        let mut rng = StdRng::seed_from_u64(42);
        let (mut list, base) = TwoLevelList::with_base();
        let mut order = vec![base];
        for _ in 0..4000 {
            let pos = rng.gen_range(0..order.len());
            let y = list.insert_after(order[pos]);
            order.insert(pos + 1, y);
        }
        list.check_invariants();
        assert_eq!(list.iter_order(), order);
        for _ in 0..4000 {
            let a = rng.gen_range(0..order.len());
            let b = rng.gen_range(0..order.len());
            assert_eq!(list.precedes(order[a], order[b]), a < b);
        }
    }

    #[test]
    fn amortized_constant_relabeling() {
        // Total renumbering work should grow linearly with n: check that the
        // per-insert average is bounded by a small constant.
        let (mut list, base) = TwoLevelList::with_base();
        let mut prev = base;
        let n = 50_000u64;
        for i in 0..n {
            prev = if i % 2 == 0 {
                list.insert_after(base)
            } else {
                list.insert_after(prev)
            };
        }
        let per_insert = list.relabel_count() as f64 / n as f64;
        assert!(
            per_insert < 16.0,
            "two-level relabels per insert too high: {per_insert}"
        );
        list.check_invariants();
    }

    #[test]
    fn insert_after_many_matches_sequential_semantics() {
        let (mut list, base) = TwoLevelList::with_base();
        let t = list.insert_after(base);
        let mids = list.insert_after_many(base, 10);
        let mut expect = vec![base];
        expect.extend(&mids);
        expect.push(t);
        assert_eq!(list.iter_order(), expect);
        list.check_invariants();
    }

    #[test]
    fn splits_at_either_end_of_a_group_keep_order_and_links() {
        // GROUP_MAX + 1 inserts right behind the base overflow the first
        // group while its head end is the busy one; as many appends then
        // overflow the last group at its tail.  Each split walks to its
        // split point from the head, with no back links to lean on.
        let (mut list, base) = TwoLevelList::with_base();
        let mut order = vec![base];
        for _ in 0..=GROUP_MAX {
            order.insert(1, list.insert_after(base));
            list.check_invariants();
        }
        assert_eq!(list.split_count(), 1);
        let mut last = *order.last().unwrap();
        for _ in 0..=GROUP_MAX {
            last = list.insert_after(last);
            order.push(last);
            list.check_invariants();
        }
        assert!(list.split_count() >= 2, "the tail group split too");
        assert_eq!(list.iter_order(), order);
        for (i, &a) in order.iter().enumerate() {
            for (j, &b) in order.iter().enumerate() {
                assert_eq!(list.precedes(a, b), i < j, "positions {i}, {j}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_model(ops in proptest::collection::vec(0usize..1000, 1..300)) {
            let (mut list, base) = TwoLevelList::with_base();
            let mut order = vec![base];
            for op in ops {
                let pos = op % order.len();
                let y = list.insert_after(order[pos]);
                order.insert(pos + 1, y);
            }
            list.check_invariants();
            for (i, &a) in order.iter().enumerate() {
                for (j, &b) in order.iter().enumerate() {
                    proptest::prop_assert_eq!(list.precedes(a, b), i < j);
                }
            }
        }
    }
}
