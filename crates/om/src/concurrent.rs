//! Concurrent order-maintenance list — the SP-hybrid *global tier* substrate.
//!
//! The paper (§4) requires an order-maintenance structure in which
//!
//! * insertions are serialized (they happen only when a steal occurs, so they
//!   are rare — O(P·T∞) of them in expectation), and
//! * `OM-PRECEDES` queries run **without locking**, even while an insertion is
//!   relabeling items, because queries are issued on every instrumented memory
//!   access and may be very numerous.
//!
//! This implementation follows the paper's scheme directly:
//!
//! * every item has an atomic *label* and an atomic *timestamp*;
//! * a rebalance proceeds in five passes — (1) choose the range, (2) bump every
//!   timestamp in the range, (3) assign each item its minimum possible label
//!   in ascending order, (4) bump every timestamp again, (5) assign the final
//!   evenly spread labels in descending order — so the relative order of items
//!   never changes at any instant;
//! * a query reads `(label, timestamp)` of both items, then re-reads them, and
//!   retries if anything changed in between.
//!
//! Items live in a **growable chunked slab** so the list never needs a size
//! declared up front (see `ARCHITECTURE.md#growable-epoch-published-substrates`):
//! chunk *k* holds `base << k` slots, so a `u32` handle decomposes into a
//! chunk id and an offset with two shifts and a subtraction, and handles stay
//! stable forever — no reallocation ever moves a slot.  Writers (already
//! serialized by the insertion lock) allocate a fresh chunk when the slab is
//! full and *publish* it with a single release store of the chunk pointer;
//! readers traverse with acquire loads and never take a lock, exactly as
//! before.  The initial chunk size is only a capacity hint (overridable with
//! the `SP_OM_CHUNK` env knob so CI can force growth on tiny programs).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use spmetrics::{CounterId, EnvKnob, EventKind, MetricsHandle};

use crate::slab::ChunkedSlab;

/// Handle to an element of a [`ConcurrentOmList`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConcurrentOmNode(pub(crate) u32);

impl ConcurrentOmNode {
    /// Raw slab index of this handle.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const TAG_BITS: u32 = 62;
const TAG_LIMIT: u64 = 1 << TAG_BITS;
const NIL: u32 = u32::MAX;

/// The `SP_OM_CHUNK` knob: forces the base chunk size of every chunked slab
/// (this list's and the concurrent union-find's), so CI can force growth on
/// tiny programs.  A power-of-two slot count in `[2, 1 << 24]`.
pub const CHUNK_KNOB: EnvKnob = EnvKnob {
    name: "SP_OM_CHUNK",
    what: "chunk size",
    power_of_two: true,
    min: 2,
    max: 1 << 24,
};

/// Validate a raw `SP_OM_CHUNK` value against a capacity hint
/// ([`EnvKnob::parse`]): unset or blank falls back to `hint`, itself rounded
/// up to a power of two and clamped.
pub fn parse_chunk_env(value: Option<&str>, hint: usize) -> usize {
    CHUNK_KNOB.parse(value, hint)
}

/// Per-item atomics readable without the list lock.
struct Slot {
    label: AtomicU64,
    stamp: AtomicU64,
}

impl Slot {
    fn new(_index: usize) -> Self {
        Slot {
            label: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
        }
    }
}

/// Linked-list topology; only touched while holding the insertion lock.
struct Inner {
    next: Vec<u32>,
    prev: Vec<u32>,
    head: u32,
    len: usize,
    relabel_items: u64,
    rebalances: u64,
}

/// Concurrent order-maintenance list with lock-free queries and on-demand
/// growth: inserting past the current slab appends a chunk instead of
/// panicking, so callers no longer need a trace budget.
pub struct ConcurrentOmList {
    slots: ChunkedSlab<Slot>,
    inner: Mutex<Inner>,
    query_retries: AtomicU64,
}

impl ConcurrentOmList {
    /// Create a list containing one base item (whose handle is returned).
    ///
    /// `capacity` is only an *initial-capacity hint* (rounded up to a power
    /// of two, overridable via `SP_OM_CHUNK`): the list grows by appending
    /// chunks whenever an insertion needs more room, and never panics on
    /// size.
    pub fn with_capacity(capacity: usize) -> (Self, ConcurrentOmNode) {
        let base = CHUNK_KNOB.from_env(capacity.max(1));
        let slots = ChunkedSlab::new(base, CounterId::OmGrowth, EventKind::OmGrow);
        slots.ensure(0, Slot::new);
        let mut inner = Inner {
            next: Vec::with_capacity(base),
            prev: Vec::with_capacity(base),
            head: 0,
            len: 1,
            relabel_items: 0,
            rebalances: 0,
        };
        inner.next.push(NIL);
        inner.prev.push(NIL);
        let list = ConcurrentOmList {
            slots,
            inner: Mutex::new(inner),
            query_retries: AtomicU64::new(0),
        };
        list.slot(0).label.store(TAG_LIMIT / 2, Ordering::Release);
        (list, ConcurrentOmNode(0))
    }

    /// The atomics of a live handle.  Handles are only handed out after
    /// their slot is published, so a miss is a foreign or forged handle.
    #[inline]
    fn slot(&self, i: u32) -> &Slot {
        self.slots
            .get(i)
            .unwrap_or_else(|| panic!("order-maintenance handle {i} was not allocated by this list"))
    }

    /// Currently allocated slot capacity (grows on demand).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Number of slab chunks currently published (1 until the first growth).
    pub fn chunk_count(&self) -> usize {
        self.slots.chunk_count()
    }

    /// Number of chunks appended after construction — how often the list
    /// outgrew its slab.
    pub fn grow_events(&self) -> u64 {
        self.slots.grow_events()
    }

    /// Route future growth events (counter + trace event with the new
    /// capacity) to `metrics`.  Only the rare chunk-publication path looks
    /// at the handle; queries and insertions that fit the slab never do.
    pub fn attach_metrics(&self, metrics: MetricsHandle) {
        self.slots.attach_metrics(metrics);
    }

    /// Current number of items.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// True if the list has no items (never after construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of query attempts that had to be retried because a rebalance
    /// was observed in flight.
    pub fn query_retry_count(&self) -> u64 {
        self.query_retries.load(Ordering::Relaxed)
    }

    /// Number of rebalances and the total number of item relabelings so far.
    pub fn rebalance_stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.rebalances, inner.relabel_items)
    }

    /// Approximate heap bytes used.
    pub fn space_bytes(&self) -> usize {
        let inner = self.inner.lock();
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + (inner.next.capacity() + inner.prev.capacity()) * std::mem::size_of::<u32>()
            + std::mem::size_of::<Self>()
    }

    /// Insert a new item immediately after `x`.  Serialized internally.
    pub fn insert_after(&self, x: ConcurrentOmNode) -> ConcurrentOmNode {
        let mut inner = self.inner.lock();
        self.locked_insert_after(&mut inner, x.0)
    }

    /// Insert a new item immediately before `x`.  Serialized internally.
    pub fn insert_before(&self, x: ConcurrentOmNode) -> ConcurrentOmNode {
        let mut inner = self.inner.lock();
        let prev = inner.prev[x.0 as usize];
        if prev != NIL {
            return self.locked_insert_after(&mut inner, prev);
        }
        // Inserting before the head: allocate a slot whose label sits halfway
        // between 0 and the head's label, rebalancing if the head is at 0.
        loop {
            let head = inner.head;
            let head_label = self.slot(head).label.load(Ordering::Acquire);
            if head_label >= 2 {
                let id = self.alloc_slot(&mut inner);
                self.slot(id)
                    .label
                    .store(head_label / 2, Ordering::Release);
                inner.next[id as usize] = head;
                inner.prev[id as usize] = NIL;
                inner.prev[head as usize] = id;
                inner.head = id;
                return ConcurrentOmNode(id);
            }
            self.rebalance_around(&mut inner, head);
        }
    }

    /// The paper's `OM-MULTI-INSERT(L, A, B, U, C, D)`: insert two new items
    /// immediately before `u` (in order `A`, `B`) and two immediately after
    /// `u` (in order `C`, `D`), all under a single acquisition of the internal
    /// lock.  Returns `(a, b, c, d)`.
    pub fn multi_insert_around(
        &self,
        u: ConcurrentOmNode,
    ) -> (
        ConcurrentOmNode,
        ConcurrentOmNode,
        ConcurrentOmNode,
        ConcurrentOmNode,
    ) {
        let mut inner = self.inner.lock();
        // B directly precedes U, A precedes B.
        let b = {
            let prev = inner.prev[u.0 as usize];
            if prev != NIL {
                self.locked_insert_after(&mut inner, prev)
            } else {
                drop(inner);
                let b = self.insert_before(u);
                inner = self.inner.lock();
                b
            }
        };
        let a = {
            let prev = inner.prev[b.0 as usize];
            if prev != NIL {
                self.locked_insert_after(&mut inner, prev)
            } else {
                drop(inner);
                let a = self.insert_before(b);
                inner = self.inner.lock();
                a
            }
        };
        // C directly follows U, D follows C.
        let c = self.locked_insert_after(&mut inner, u.0);
        let d = self.locked_insert_after(&mut inner, c.0);
        (a, b, c, d)
    }

    /// Lock-free query: does `a` precede `b`?  `a == b` yields `false`.
    ///
    /// Implements the paper's retry scheme: read label and timestamp of both
    /// items, read them again, and only trust the comparison if nothing
    /// changed in between.
    pub fn precedes(&self, a: ConcurrentOmNode, b: ConcurrentOmNode) -> bool {
        if a == b {
            return false;
        }
        let sa = self.slot(a.0);
        let sb = self.slot(b.0);
        loop {
            let ts_a1 = sa.stamp.load(Ordering::Acquire);
            let la1 = sa.label.load(Ordering::Acquire);
            let ts_b1 = sb.stamp.load(Ordering::Acquire);
            let lb1 = sb.label.load(Ordering::Acquire);

            let ts_a2 = sa.stamp.load(Ordering::Acquire);
            let la2 = sa.label.load(Ordering::Acquire);
            let ts_b2 = sb.stamp.load(Ordering::Acquire);
            let lb2 = sb.label.load(Ordering::Acquire);

            if ts_a1 == ts_a2 && ts_b1 == ts_b2 && la1 == la2 && lb1 == lb2 {
                return la1 < lb1;
            }
            self.query_retries.fetch_add(1, Ordering::Relaxed);
            std::hint::spin_loop();
        }
    }

    /// One shared growth path for every insertion: publish a fresh chunk if
    /// the slab is full, then hand out the next stable index.  Replaces the
    /// old capacity `assert!`.
    fn alloc_slot(&self, inner: &mut Inner) -> u32 {
        let id = u32::try_from(inner.len)
            .ok()
            .filter(|&id| id != NIL)
            .expect("ConcurrentOmList exceeded u32 index space");
        self.slots.ensure(id, Slot::new);
        inner.next.push(NIL);
        inner.prev.push(NIL);
        inner.len += 1;
        id
    }

    fn locked_insert_after(&self, inner: &mut Inner, x: u32) -> ConcurrentOmNode {
        loop {
            let next = inner.next[x as usize];
            let lx = self.slot(x).label.load(Ordering::Acquire);
            let ln = if next == NIL {
                TAG_LIMIT
            } else {
                self.slot(next).label.load(Ordering::Acquire)
            };
            if ln - lx >= 2 {
                let id = self.alloc_slot(inner);
                self.slot(id)
                    .label
                    .store(lx + (ln - lx) / 2, Ordering::Release);
                inner.next[id as usize] = next;
                inner.prev[id as usize] = x;
                inner.next[x as usize] = id;
                if next != NIL {
                    inner.prev[next as usize] = id;
                }
                return ConcurrentOmNode(id);
            }
            self.rebalance_around(inner, x);
        }
    }

    /// Five-pass rebalance as described in §4 of the paper.  The relative
    /// order of items never changes at any point, and timestamps are bumped
    /// before each relabeling pass so in-flight queries can detect interference.
    fn rebalance_around(&self, inner: &mut Inner, x: u32) {
        inner.rebalances += 1;
        let x_tag = self.slot(x).label.load(Ordering::Acquire);

        // Pass 1: determine the range of items to rebalance.
        let mut height: u32 = 1;
        let (first, count, range_start, range_size) = loop {
            let (range_start, range_size) = if height >= TAG_BITS {
                (0u64, TAG_LIMIT)
            } else {
                let size = 1u64 << height;
                (x_tag & !(size - 1), size)
            };
            let range_end = range_start.saturating_add(range_size);

            let mut first = x;
            loop {
                let p = inner.prev[first as usize];
                if p != NIL && self.slot(p).label.load(Ordering::Acquire) >= range_start {
                    first = p;
                } else {
                    break;
                }
            }
            let mut count: u64 = 0;
            let mut cur = first;
            while cur != NIL && self.slot(cur).label.load(Ordering::Acquire) < range_end {
                count += 1;
                cur = inner.next[cur as usize];
            }

            let capacity = {
                let ratio = (4.0f64 / 5.0).powi(height as i32);
                ((range_size as f64) * ratio).max(1.0) as u64
            };
            let stride_ok = range_size / (count + 1) >= 2;
            if (count < capacity && stride_ok) || range_size == TAG_LIMIT {
                break (first, count, range_start, range_size);
            }
            height += 1;
        };

        // Pass 2: bump timestamps to announce the rebalance.
        let mut cur = first;
        for _ in 0..count {
            self.slot(cur).stamp.fetch_add(1, Ordering::Release);
            cur = inner.next[cur as usize];
        }

        // Pass 3: assign minimum labels, ascending.  Item i receives
        // range_start + i, which never reorders items because the old labels
        // are distinct and >= range_start.
        let mut cur = first;
        for i in 0..count {
            self.slot(cur)
                .label
                .store(range_start + i, Ordering::Release);
            cur = inner.next[cur as usize];
        }

        // Pass 4: bump timestamps again to mark the second phase.
        let mut cur = first;
        for _ in 0..count {
            self.slot(cur).stamp.fetch_add(1, Ordering::Release);
            cur = inner.next[cur as usize];
        }

        // Pass 5: assign final labels, descending, evenly spread.
        let stride = (range_size / (count + 1)).max(1);
        // Collect the run once so we can walk it backwards.
        let mut run = Vec::with_capacity(count as usize);
        let mut cur = first;
        for _ in 0..count {
            run.push(cur);
            cur = inner.next[cur as usize];
        }
        for (i, &item) in run.iter().enumerate().rev() {
            let label = range_start + (i as u64 + 1) * stride;
            self.slot(item)
                .label
                .store(label.min(range_start + range_size - 1), Ordering::Release);
        }
        inner.relabel_items += count;
    }

    /// Walk the list in order (takes the lock; for tests and debugging only).
    pub fn iter_order(&self) -> Vec<ConcurrentOmNode> {
        let inner = self.inner.lock();
        let mut out = Vec::with_capacity(inner.len);
        let mut cur = inner.head;
        while cur != NIL {
            out.push(ConcurrentOmNode(cur));
            cur = inner.next[cur as usize];
        }
        out
    }

    /// Check structural invariants (test helper).
    pub fn check_invariants(&self) {
        let inner = self.inner.lock();
        let mut cur = inner.head;
        let mut prev = NIL;
        let mut count = 0usize;
        let mut last = None;
        while cur != NIL {
            assert_eq!(inner.prev[cur as usize], prev);
            let label = self.slot(cur).label.load(Ordering::Acquire);
            if let Some(l) = last {
                assert!(l < label, "labels not strictly increasing");
            }
            last = Some(label);
            prev = cur;
            cur = inner.next[cur as usize];
            count += 1;
        }
        assert_eq!(count, inner.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn chunk_env_unset_or_blank_falls_back_to_the_hint() {
        assert_eq!(parse_chunk_env(None, 64), 64);
        assert_eq!(parse_chunk_env(Some(""), 64), 64);
        assert_eq!(parse_chunk_env(Some("  \t"), 64), 64);
        // The hint itself is still rounded and clamped.
        assert_eq!(parse_chunk_env(None, 0), 2);
        assert_eq!(parse_chunk_env(None, 100), 128);
        assert_eq!(parse_chunk_env(None, usize::MAX / 2), 1 << 24);
    }

    #[test]
    fn chunk_env_valid_values_override_the_hint() {
        assert_eq!(parse_chunk_env(Some("2"), 1 << 14), 2);
        assert_eq!(parse_chunk_env(Some(" 1024 "), 4), 1024);
        // 1 is a power of two but below the supported minimum: clamped to 2.
        assert_eq!(parse_chunk_env(Some("1"), 4), 2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn chunk_env_rejects_zero() {
        parse_chunk_env(Some("0"), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn chunk_env_rejects_non_power_of_two() {
        parse_chunk_env(Some("3"), 64);
    }

    #[test]
    #[should_panic(expected = "unparseable value")]
    fn chunk_env_rejects_unparseable_values() {
        parse_chunk_env(Some("lots"), 64);
    }

    #[test]
    #[should_panic(expected = "unparseable value")]
    fn chunk_env_rejects_negative_values() {
        parse_chunk_env(Some("-8"), 64);
    }

    #[test]
    fn chunk_addressing_is_stable() {
        let slots = ChunkedSlab::<Slot>::new(4, CounterId::OmGrowth, EventKind::OmGrow);
        // With base 4: chunk 0 = [0,4), chunk 1 = [4,12), chunk 2 = [12,28).
        assert_eq!(slots.locate(0), (0, 0));
        assert_eq!(slots.locate(3), (0, 3));
        assert_eq!(slots.locate(4), (1, 0));
        assert_eq!(slots.locate(11), (1, 7));
        assert_eq!(slots.locate(12), (2, 0));
        assert_eq!(slots.locate(27), (2, 15));
        assert_eq!(slots.locate(28), (3, 0));
    }

    #[test]
    fn serial_inserts_and_queries() {
        let (list, base) = ConcurrentOmList::with_capacity(1 << 14);
        let mut prev = base;
        let mut all = vec![base];
        for _ in 0..5000 {
            prev = list.insert_after(prev);
            all.push(prev);
        }
        list.check_invariants();
        for w in all.windows(2) {
            assert!(list.precedes(w[0], w[1]));
            assert!(!list.precedes(w[1], w[0]));
        }
    }

    #[test]
    fn insert_before_works_even_at_head() {
        let (list, base) = ConcurrentOmList::with_capacity(1 << 12);
        let mut earliest = base;
        let mut fronts = vec![base];
        for _ in 0..1000 {
            earliest = list.insert_before(earliest);
            fronts.push(earliest);
        }
        list.check_invariants();
        // fronts[i] precedes fronts[j] for i > j (later inserts go earlier).
        for w in fronts.windows(2) {
            assert!(list.precedes(w[1], w[0]));
        }
        assert_eq!(list.iter_order().first().copied(), Some(earliest));
    }

    #[test]
    fn multi_insert_around_produces_paper_order() {
        let (list, u) = ConcurrentOmList::with_capacity(64);
        let (a, b, c, d) = list.multi_insert_around(u);
        // Expected order: a, b, u, c, d.
        assert_eq!(list.iter_order(), vec![a, b, u, c, d]);
        assert!(list.precedes(a, b));
        assert!(list.precedes(b, u));
        assert!(list.precedes(u, c));
        assert!(list.precedes(c, d));
        list.check_invariants();
    }

    #[test]
    fn repeated_insert_after_base_rebalances() {
        let (list, base) = ConcurrentOmList::with_capacity(1 << 13);
        let mut newest = Vec::new();
        for _ in 0..4000 {
            newest.push(list.insert_after(base));
        }
        let (rebalances, relabeled) = list.rebalance_stats();
        assert!(rebalances > 0);
        assert!(relabeled > 0);
        list.check_invariants();
        for w in newest.windows(2) {
            assert!(list.precedes(w[1], w[0]));
        }
    }

    #[test]
    fn concurrent_queries_during_inserts_are_consistent() {
        // One writer inserting (and hence rebalancing and *growing*), several
        // readers continuously checking a fixed known-ordered chain of items.
        // The tiny initial chunk forces many chunk publications while the
        // readers are live.
        let (list, base) = ConcurrentOmList::with_capacity(4);
        let list = Arc::new(list);
        let mut chain = vec![base];
        {
            let mut prev = base;
            for _ in 0..64 {
                prev = list.insert_after(prev);
                chain.push(prev);
            }
        }
        let chain = Arc::new(chain);
        let stop = Arc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for t in 0..4 {
            let list = Arc::clone(&list);
            let chain = Arc::clone(&chain);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut checks = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let a = i % (chain.len() - 1);
                    let b = a + 1 + (i % (chain.len() - a - 1));
                    assert!(list.precedes(chain[a], chain[b]));
                    assert!(!list.precedes(chain[b], chain[a]));
                    checks += 1;
                    i += 7;
                }
                checks
            }));
        }

        // Writer: hammer inserts right after base to force many rebalances of
        // the region containing the chain (and many chunk growths).
        for _ in 0..20_000 {
            list.insert_after(base);
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0);
        assert!(list.grow_events() > 0, "tiny initial chunk must have grown");
        list.check_invariants();
    }

    /// Regression for the old fixed-slab behavior: inserting past the initial
    /// capacity used to panic; now it appends chunks and order survives every
    /// boundary crossing.
    #[test]
    fn growth_past_initial_chunk_preserves_order() {
        let (list, base) = ConcurrentOmList::with_capacity(4);
        let mut prev = base;
        let mut all = vec![base];
        for _ in 0..3000 {
            prev = list.insert_after(prev);
            all.push(prev);
        }
        assert!(list.chunk_count() >= 8, "3000 inserts from base 4 span many chunks");
        assert!(list.grow_events() as usize == list.chunk_count() - 1);
        assert!(list.capacity() >= all.len());
        list.check_invariants();
        for w in all.windows(2) {
            assert!(list.precedes(w[0], w[1]));
            assert!(!list.precedes(w[1], w[0]));
        }
        // Queries across distant chunks agree with the insertion order.
        assert!(list.precedes(all[0], all[2999]));
        assert!(!list.precedes(all[2999], all[0]));
    }

    /// `insert_before` at the head (the rebalance-at-zero path) also grows.
    #[test]
    fn growth_through_head_inserts_preserves_order() {
        let (list, base) = ConcurrentOmList::with_capacity(2);
        let mut earliest = base;
        let mut fronts = vec![base];
        for _ in 0..500 {
            earliest = list.insert_before(earliest);
            fronts.push(earliest);
        }
        assert!(list.grow_events() > 0);
        list.check_invariants();
        for w in fronts.windows(2) {
            assert!(list.precedes(w[1], w[0]));
        }
    }
}
