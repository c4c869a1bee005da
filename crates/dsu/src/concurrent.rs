//! Union-find with atomic parent pointers: per-set writers, many readers.
//!
//! The SP-hybrid local tier (paper §5) needs a disjoint-set structure in which
//!
//! * the worker that owns a trace performs `make_set` and `union` (one at a
//!   time — unions are only performed on a processor's own local-tier data),
//!   while
//! * any other worker may concurrently perform `FIND-TRACE`, i.e. walk parent
//!   pointers up to a representative and read an annotation stored there.
//!
//! Path compression is omitted exactly as the paper prescribes (§5: the
//! classical structure "does not work out of the box when multiple FIND-TRACE
//! operations execute concurrently" because compression mutates the forest),
//! so `find` is a read-only O(log n) walk over `AtomicU32` parent pointers and
//! is safe to run concurrently with the writers.
//!
//! Elements live in a **growable chunked slab** (see
//! `ARCHITECTURE.md#growable-epoch-published-substrates`): chunk *k* holds
//! `base << k` elements at stable indices, every new chunk is pre-initialized
//! to singletons (`parent[i] = i`) and *published* with a release store of its
//! pointer, and an index beyond the published capacity simply reads as a
//! singleton root with annotation 0 — so the structure needs no size declared
//! up front and readers never take a lock.  Growth itself (rare: amortized
//! O(log total) chunk allocations ever) is serialized by a small mutex that
//! the read path never touches.
//!
//! Each element also carries a 64-bit atomic *annotation*; the local tier
//! stores bag metadata (bag kind and owning trace) in the annotation of the
//! set representative, which is how `FIND-TRACE` returns a trace in O(log n).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use om::ChunkedSlab;
use spmetrics::{CounterId, EventKind, MetricsHandle};

/// One slab element; all fields readable without any lock.
struct Element {
    parent: AtomicU32,
    rank: AtomicU32,
    annotation: AtomicU64,
}

impl Element {
    /// The singleton at `index`.  A chunk of a large-base slab can end past
    /// `u32::MAX`, so the parent is checked rather than cast: a silent wrap
    /// would initialize a parent pointing into another set.
    fn singleton(index: usize) -> Self {
        Element {
            parent: AtomicU32::new(
                u32::try_from(index).expect("ConcurrentUnionFind element index exceeds u32"),
            ),
            rank: AtomicU32::new(0),
            annotation: AtomicU64::new(0),
        }
    }
}

/// Growable union-find with atomic parents (per-set writers, many readers).
///
/// Indices are stable forever: growth appends chunks, it never moves an
/// element.  Reads of indices beyond the published capacity return singleton
/// defaults, matching the eager `parent[i] = i` initialization the fixed slab
/// used to provide.
pub struct ConcurrentUnionFind {
    elements: ChunkedSlab<Element>,
    len: AtomicU32,
}

impl ConcurrentUnionFind {
    /// Create a structure with an *initial-capacity hint* of `capacity`
    /// elements (the first chunk's size, see [`ChunkedSlab::new`]).  The
    /// structure grows on demand; writes beyond the current slab publish new
    /// chunks instead of panicking.
    pub fn with_capacity(capacity: usize) -> Self {
        let uf = ConcurrentUnionFind {
            elements: ChunkedSlab::new(capacity, CounterId::DsuGrowth, EventKind::DsuGrow),
            len: AtomicU32::new(0),
        };
        uf.ensure(0);
        uf
    }

    /// Lock-free element access: `None` when `x` is beyond the published
    /// capacity (an implicit singleton).
    #[inline]
    fn slot(&self, x: u32) -> Option<&Element> {
        self.elements.get(x)
    }

    /// Make index `x` addressable, publishing chunks as needed.  Called from
    /// every write path; multi-writer safe (growth serialized by a mutex the
    /// read path never touches).
    fn ensure(&self, x: u32) {
        self.elements.ensure(x, Element::singleton);
    }

    /// Currently published element capacity (grows on demand).
    pub fn capacity(&self) -> usize {
        self.elements.capacity()
    }

    /// Number of slab chunks currently published (1 until the first growth).
    pub fn chunk_count(&self) -> usize {
        self.elements.chunk_count()
    }

    /// Number of chunks appended after construction — how often the slab
    /// outgrew its initial hint.
    pub fn grow_events(&self) -> u64 {
        self.elements.grow_events()
    }

    /// Route future growth events (counter + trace event with the new
    /// capacity) to `metrics`.  Only the rare chunk-publication path looks
    /// at the handle; finds and unions never do.
    pub fn attach_metrics(&self, metrics: MetricsHandle) {
        self.elements.attach_metrics(metrics);
    }

    /// Number of elements created via [`make_set`](Self::make_set) so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// True if no elements have been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create the next singleton set.  Only one allocating writer may call
    /// this at a time; the slab grows on demand and never panics on size.
    pub fn make_set(&self) -> u32 {
        let id = self.len.load(Ordering::Relaxed);
        self.ensure(id);
        let e = self.slot(id).expect("just ensured");
        e.parent.store(id, Ordering::Release);
        e.rank.store(0, Ordering::Release);
        self.len.store(id + 1, Ordering::Release);
        id
    }

    /// Parent pointer of `x`; indices beyond the published slab are implicit
    /// singletons (their parent is themselves).
    #[inline]
    fn parent_of(&self, x: u32) -> u32 {
        match self.slot(x) {
            Some(e) => e.parent.load(Ordering::Acquire),
            None => x,
        }
    }

    /// Find the representative of `x`.  Safe to call from any thread; never
    /// takes a lock.
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent_of(x);
            if p == x {
                return x;
            }
            x = p;
        }
    }

    /// Union the sets of `a` and `b` (union by rank, no compression) and
    /// return the new representative.  Writers of disjoint sets may run
    /// concurrently; the sets being united must be owned by the caller.
    pub fn union(&self, a: u32, b: u32) -> u32 {
        self.ensure(a.max(b));
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let ea = self.slot(ra).expect("root published by ensure");
        let eb = self.slot(rb).expect("root published by ensure");
        let rank_a = ea.rank.load(Ordering::Relaxed);
        let rank_b = eb.rank.load(Ordering::Relaxed);
        let (hi, lo) = if rank_a >= rank_b { (ra, rb) } else { (rb, ra) };
        self.slot(lo)
            .expect("published")
            .parent
            .store(hi, Ordering::Release);
        if rank_a == rank_b {
            self.slot(hi)
                .expect("published")
                .rank
                .store(rank_a + 1, Ordering::Release);
        }
        hi
    }

    /// Read the annotation stored on element `x` (usually a representative).
    /// Unpublished indices read as 0.
    pub fn annotation(&self, x: u32) -> u64 {
        match self.slot(x) {
            Some(e) => e.annotation.load(Ordering::Acquire),
            None => 0,
        }
    }

    /// Store an annotation on element `x`, growing the slab if needed.
    pub fn set_annotation(&self, x: u32, value: u64) {
        self.ensure(x);
        self.slot(x)
            .expect("published by ensure")
            .annotation
            .store(value, Ordering::Release);
    }

    /// Find the representative of `x` and return its annotation.
    ///
    /// This is the primitive behind `FIND-TRACE`: bag metadata (kind + trace)
    /// is stored in the representative's annotation.
    pub fn find_annotation(&self, x: u32) -> (u32, u64) {
        let root = self.find(x);
        (root, self.annotation(root))
    }

    /// Approximate heap bytes used.
    pub fn space_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<Element>() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;

    #[test]
    fn serial_behaviour_matches_expectations() {
        let uf = ConcurrentUnionFind::with_capacity(128);
        for i in 0..128u32 {
            assert_eq!(uf.make_set(), i);
        }
        for i in 0..127u32 {
            uf.union(i, i + 1);
        }
        let r = uf.find(0);
        for i in 0..128u32 {
            assert_eq!(uf.find(i), r);
        }
    }

    #[test]
    fn annotations_travel_with_representatives() {
        let uf = ConcurrentUnionFind::with_capacity(8);
        let a = uf.make_set();
        let b = uf.make_set();
        uf.set_annotation(a, 0xAAAA);
        uf.set_annotation(b, 0xBBBB);
        let r = uf.union(a, b);
        // The surviving representative keeps its own annotation; the caller is
        // responsible for re-annotating after a union (as the local tier does).
        assert_eq!(uf.find_annotation(a).0, r);
        assert_eq!(uf.find_annotation(b).0, r);
        uf.set_annotation(r, 0xCCCC);
        assert_eq!(uf.find_annotation(a).1, 0xCCCC);
        assert_eq!(uf.find_annotation(b).1, 0xCCCC);
    }

    #[test]
    fn unpublished_indices_read_as_singletons() {
        let uf = ConcurrentUnionFind::with_capacity(2);
        // Far beyond the initial chunk: reads must behave exactly as the old
        // eagerly initialized slab (parent = self, annotation = 0) without
        // growing anything.
        assert_eq!(uf.find(100_000), 100_000);
        assert_eq!(uf.annotation(100_000), 0);
        assert_eq!(uf.find_annotation(100_000), (100_000, 0));
        assert_eq!(uf.chunk_count(), 1);
        // A write to the same index grows the slab and behaves normally.
        uf.set_annotation(100_000, 7);
        assert_eq!(uf.find_annotation(100_000), (100_000, 7));
        assert!(uf.capacity() > 100_000);
        assert!(uf.grow_events() > 0);
    }

    #[test]
    fn concurrent_finds_during_unions_terminate_and_agree_eventually() {
        // Tiny initial hint: the writer's unions publish many chunks while
        // the readers walk parents lock-free.
        let uf = Arc::new(ConcurrentUnionFind::with_capacity(4));
        for _ in 0..10_000u32 {
            uf.make_set();
        }
        let stop = Arc::new(AtomicBool::new(false));
        // Readers that have done a find: the writer waits for all of them,
        // so the finds really overlap the unions.
        let started = Arc::new(AtomicUsize::new(0));
        let mut readers = Vec::new();
        for t in 0..4 {
            let uf = Arc::clone(&uf);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            readers.push(std::thread::spawn(move || {
                let mut finds = 0u64;
                let mut x = t as u32;
                loop {
                    let r = uf.find(x % 10_000);
                    assert!(r < 10_000);
                    finds += 1;
                    if finds == 1 {
                        started.fetch_add(1, Ordering::Release);
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    x = x.wrapping_mul(2654435761).wrapping_add(1);
                }
                finds
            }));
        }
        while started.load(Ordering::Acquire) < 4 {
            std::thread::yield_now();
        }
        // Writer: build a single set by unions of adjacent blocks.
        for step in [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            let mut i = 0;
            while i + step < 10_000 {
                uf.union(i, i + step);
                i += step * 2;
            }
        }
        for i in 0..9_999u32 {
            uf.union(i, i + 1);
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0);
        assert!(uf.grow_events() > 0, "10k elements from base 4 must have grown");
        // After the writer is done every element resolves to the same root.
        let r = uf.find(0);
        for i in 0..10_000u32 {
            assert_eq!(uf.find(i), r);
        }
    }

    /// Regression for the old fixed-slab behavior: `make_set` past the
    /// initial capacity used to panic; now the slab grows and find/union
    /// results are unaffected by chunk boundaries.
    #[test]
    fn growth_past_initial_chunk_preserves_find_results() {
        let uf = ConcurrentUnionFind::with_capacity(2);
        for i in 0..1000u32 {
            assert_eq!(uf.make_set(), i);
        }
        assert!(uf.grow_events() > 0);
        assert!(uf.capacity() >= 1000);
        // Unions spanning chunk boundaries behave exactly as before.
        for i in 0..999u32 {
            uf.union(i, i + 1);
        }
        let r = uf.find(0);
        for i in 0..1000u32 {
            assert_eq!(uf.find(i), r);
        }
    }

    /// Concurrent writers growing disjoint regions race only on the growth
    /// mutex; all unions and annotations land correctly.
    #[test]
    fn concurrent_growth_from_multiple_writers_is_safe() {
        let uf = Arc::new(ConcurrentUnionFind::with_capacity(2));
        let mut writers = Vec::new();
        for t in 0..4u32 {
            let uf = Arc::clone(&uf);
            writers.push(std::thread::spawn(move || {
                // Each writer owns a disjoint id range and chains it.
                let lo = t * 5_000;
                for i in lo..lo + 4_999 {
                    uf.union(i, i + 1);
                }
                uf.set_annotation(uf.find(lo), (t + 1) as u64);
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        for t in 0..4u32 {
            let lo = t * 5_000;
            let root = uf.find(lo);
            for i in lo..lo + 5_000 {
                assert_eq!(uf.find(i), root, "writer {t} chain intact");
            }
            assert_eq!(uf.find_annotation(lo).1, (t + 1) as u64);
        }
        assert!(uf.grow_events() > 0);
    }

    #[test]
    fn find_depth_stays_logarithmic() {
        let n = 1u32 << 12;
        let uf = ConcurrentUnionFind::with_capacity(n as usize);
        for _ in 0..n {
            uf.make_set();
        }
        let mut step = 1u32;
        while step < n {
            let mut i = 0u32;
            while i + step < n {
                uf.union(i, i + step);
                i += step * 2;
            }
            step *= 2;
        }
        // Count hops manually for a few elements.
        for i in (0..n).step_by(131) {
            let mut hops = 0;
            let mut x = i;
            loop {
                let p = uf.parent_of(x);
                if p == x {
                    break;
                }
                x = p;
                hops += 1;
            }
            assert!(hops <= 12, "find depth {hops} exceeds log2(n)");
        }
    }
}
