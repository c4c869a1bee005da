//! Growable chunked slab: stable `u32` indices, lock-free reads through
//! growth — the one substrate under [`crate::ConcurrentOmList`] and `dsu`'s
//! `ConcurrentUnionFind` (see
//! `ARCHITECTURE.md#growable-epoch-published-substrates`).
//!
//! Chunk *k* holds `base << k` elements, cumulatively `base · (2^(k+1) − 1)`,
//! so an index decomposes into a chunk id and an offset with two shifts and
//! a subtraction, and no reallocation ever moves an element.  Growth
//! ([`ChunkedSlab::ensure`]) is serialized by a mutex the read path never
//! touches: a new chunk is fully initialized, its pointer is published with a
//! release store, and then the `published` capacity watermark is raised with
//! another.  Readers ([`ChunkedSlab::get`]) acquire-load the watermark and
//! treat anything at or past it as absent.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use spmetrics::{CounterId, EventKind, MetricsHandle};

/// Upper bound on the number of chunks: with the smallest base chunk (2
/// elements) the cumulative capacity covers the `u32` index space after 31
/// doublings, so 32 pointers always suffice.
const MAX_CHUNKS: usize = 32;

/// Writer-side state, behind the growth mutex.
struct Growth {
    /// Chunks published so far.
    chunks: usize,
    /// Where growth events are reported; consulted only when a chunk is
    /// published, never on reads.
    metrics: MetricsHandle,
}

/// Growable slab of `T` with stable indices and lock-free reads.
pub struct ChunkedSlab<T> {
    chunks: [AtomicPtr<T>; MAX_CHUNKS],
    base: usize,
    base_log2: u32,
    /// Published element capacity.
    published: AtomicUsize,
    /// Chunks published beyond the first.
    grow_events: AtomicU64,
    grow: Mutex<Growth>,
    /// Counter and trace event a growth is reported under.
    counter: CounterId,
    event: EventKind,
}

// SAFETY: a chunk pointer goes null → non-null exactly once (under `grow`)
// and is freed only in `Drop`, which has `&mut self`; the remaining fields
// are atomics and a mutex.  Shared access only ever hands out `&T`, and the
// `T`s a growing thread builds may be dropped by another, hence the bounds.
unsafe impl<T: Send + Sync> Send for ChunkedSlab<T> {}
unsafe impl<T: Send + Sync> Sync for ChunkedSlab<T> {}

impl<T> ChunkedSlab<T> {
    /// An empty slab for about `hint` elements, reporting growth as
    /// `counter` / `event`.  The hint is only a size for the first chunk:
    /// rounded up to a power of two and clamped to `[2, 1 << 24]`.
    pub fn new(hint: usize, counter: CounterId, event: EventKind) -> Self {
        // Clamping first keeps the rounding from overflowing; the result is
        // the same as rounding first.
        let base = hint.clamp(2, 1 << 24).next_power_of_two();
        ChunkedSlab {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            base,
            base_log2: base.trailing_zeros(),
            published: AtomicUsize::new(0),
            grow_events: AtomicU64::new(0),
            grow: Mutex::new(Growth {
                chunks: 0,
                metrics: MetricsHandle::detached(),
            }),
            counter,
            event,
        }
    }

    /// Length of chunk `k`; chunk 0 is the one the hint sized.
    #[inline]
    pub(crate) fn chunk_len(&self, k: usize) -> usize {
        self.base << k
    }

    /// Total capacity once chunks `0..=k` exist: `base · (2^(k+1) − 1)`.
    #[inline]
    fn cumulative(&self, k: usize) -> usize {
        (self.base << (k + 1)) - self.base
    }

    /// Decompose a stable index into (chunk, offset).
    #[inline]
    pub(crate) fn locate(&self, i: u32) -> (usize, usize) {
        let q = (i as usize >> self.base_log2) + 1;
        let k = (usize::BITS - 1 - q.leading_zeros()) as usize;
        let offset = i as usize - (self.cumulative(k) - self.chunk_len(k));
        (k, offset)
    }

    /// Lock-free element access: `None` when `i` is at or beyond the
    /// published capacity.
    #[inline]
    pub fn get(&self, i: u32) -> Option<&T> {
        if i as usize >= self.published.load(Ordering::Acquire) {
            return None;
        }
        let (k, offset) = self.locate(i);
        let ptr = self.chunks[k].load(Ordering::Acquire);
        debug_assert!(
            !ptr.is_null(),
            "element {i} inside the published range has no chunk"
        );
        // SAFETY: `i < published`, and `ensure` raises `published` past an
        // index only after release-storing the pointer of the fully
        // initialized chunk that holds it, so the acquire load above
        // synchronizes with that store: `ptr` is the start of a live
        // `chunk_len(k)`-element allocation and `offset < chunk_len(k)`.
        // Chunks are freed only in `Drop`, which cannot overlap `&self`.
        Some(unsafe { &*ptr.add(offset) })
    }

    /// Make index `i` addressable, publishing chunks as needed; every new
    /// element is built by `init` from its index.  Safe to call from several
    /// writers at once.
    pub fn ensure(&self, i: u32, init: impl Fn(usize) -> T) {
        if (i as usize) < self.published.load(Ordering::Acquire) {
            return;
        }
        let mut grow = self.grow.lock();
        while i as usize >= self.published.load(Ordering::Relaxed) {
            let k = grow.chunks;
            assert!(k < MAX_CHUNKS, "chunked slab exceeded the u32 index space");
            let start = self.cumulative(k) - self.chunk_len(k);
            let chunk: Box<[T]> = (start..start + self.chunk_len(k)).map(&init).collect();
            self.chunks[k].store(Box::into_raw(chunk).cast::<T>(), Ordering::Release);
            self.published.store(self.cumulative(k), Ordering::Release);
            grow.chunks = k + 1;
            if k > 0 {
                self.grow_events.fetch_add(1, Ordering::Relaxed);
                grow.metrics.add(self.counter, 1);
                grow.metrics.event(self.event, self.cumulative(k) as u64, 0);
            }
        }
    }

    /// Currently published element capacity.
    pub fn capacity(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// Number of chunks currently published.
    pub fn chunk_count(&self) -> usize {
        self.grow.lock().chunks
    }

    /// Chunks published beyond the first — how often the slab outgrew its
    /// initial hint.
    pub fn grow_events(&self) -> u64 {
        self.grow_events.load(Ordering::Relaxed)
    }

    /// Route future growth events (counter + trace event carrying the new
    /// capacity) to `metrics`.
    pub fn attach_metrics(&self, metrics: MetricsHandle) {
        self.grow.lock().metrics = metrics;
    }
}

impl<T> Drop for ChunkedSlab<T> {
    fn drop(&mut self) {
        for (k, chunk) in self.chunks.iter_mut().enumerate() {
            let ptr = *chunk.get_mut();
            if !ptr.is_null() {
                let len = self.base << k;
                // SAFETY: a non-null chunk pointer came from
                // `Box::<[T]>::into_raw` of exactly `base << k` elements in
                // `ensure`, and `&mut self` means no reader is left.
                unsafe { drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len))) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_stop_at_the_published_watermark() {
        let slab = ChunkedSlab::new(4, CounterId::OmGrowth, EventKind::OmGrow);
        assert!(
            slab.get(0).is_none(),
            "nothing is published before the first ensure"
        );
        slab.ensure(5, |i| i * 10);
        // Chunks 0 = [0,4) and 1 = [4,12) exist; every element knows its index.
        assert_eq!(
            (slab.capacity(), slab.chunk_count(), slab.grow_events()),
            (12, 2, 1)
        );
        assert_eq!(slab.get(11), Some(&110));
        assert!(slab.get(12).is_none());
        slab.ensure(3, |_| unreachable!("already published"));
    }
}
