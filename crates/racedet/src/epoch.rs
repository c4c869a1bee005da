//! Epoch-reset shadow arenas: generation-tagged shadow memory for the
//! multi-session detection service.
//!
//! A standalone run allocates a fresh [`ShardedShadowMemory`](crate::shadow::ShardedShadowMemory) and throws it
//! away.  A service running thousands of short sessions cannot afford that:
//! allocating and zeroing a shadow arena per session is O(locations) of
//! memory traffic on the admission path.  [`EpochShadowArena`] reuses one
//! arena across sessions by tagging every packed cell with the **generation**
//! of the session that wrote it:
//!
//! * the packed word becomes `gen(16) | writer(24) | reader(24)` — still one
//!   `AtomicU64`, so the engine's lock-free consistent-snapshot fast path is
//!   untouched;
//! * a session reads cells through an [`EpochShadowView`] pinned to the
//!   arena's current generation: a cell whose tag differs from the view's
//!   generation *is* the empty cell, exactly as if the arena had been zeroed;
//! * finishing a session calls [`EpochShadowArena::reset`], which bumps the
//!   generation counter — O(1) instead of O(locations).
//!
//! The generation space is finite (at most [`EpochShadowArena::MAX_GEN_LIMIT`]
//! generations, configurable down to 2 for tests), so wraparound must be
//! handled: when the counter wraps back to generation 0, the arena is
//! **purged** once — every cell rewritten to the empty word — so a stale cell
//! from the previous cycle can never alias a fresh session with the same tag.
//! The purge amortizes to `locations / gen_limit` cell stores per reset.
//!
//! Packing the tag costs thread-id width: an epoch arena records thread ids
//! in 24 bits (16 777 214 threads per session; `0xFF_FFFF` is the "none"
//! sentinel).  A session exceeding that panics with a checked conversion
//! rather than silently truncating.
//!
//! Sharding, striped locks, and the mutation discipline are identical to
//! [`ShardedShadowMemory`](crate::shadow::ShardedShadowMemory) — the view implements [`ShadowStore`], so the
//! generic engine ([`crate::engine::check_thread_accesses`]) drives both.
//! The cells belong to the arena, the striping to the **lease**: each
//! [`EpochShadowArena::view`] is striped for the workers of the session it
//! serves, so a serial session on a recycled arena gets the same single
//! stripe a standalone serial run gets.
//! See `ARCHITECTURE.md#detection-as-a-service-spservice`.

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use sptree::tree::ThreadId;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::shadow::{shard_layout, shard_of, ShadowCell, ShadowStore};

/// "No recorded thread" in the 24-bit thread field of an epoch cell.
const NONE24: u32 = 0xFF_FFFF;

/// Checked narrowing of a thread id into the 24-bit epoch-cell field.
fn encode24(t: Option<ThreadId>) -> u64 {
    match t {
        Some(t) => {
            assert!(
                t.0 < NONE24,
                "thread id {} exceeds the epoch shadow arena's 24-bit thread \
                 space (max {} threads per session)",
                t.0,
                NONE24 - 1
            );
            u64::from(t.0)
        }
        None => u64::from(NONE24),
    }
}

fn decode24(raw: u32) -> Option<ThreadId> {
    (raw != NONE24).then_some(ThreadId(raw))
}

fn pack_gen(cell: ShadowCell, gen: u32) -> u64 {
    debug_assert!(gen <= 0xFFFF, "generation tag must fit 16 bits");
    (u64::from(gen) << 48) | (encode24(cell.writer) << 24) | encode24(cell.reader)
}

fn unpack_gen(word: u64) -> (ShadowCell, u32) {
    (
        ShadowCell {
            writer: decode24(((word >> 24) & u64::from(NONE24)) as u32),
            reader: decode24((word & u64::from(NONE24)) as u32),
        },
        (word >> 48) as u32,
    )
}

/// The empty cell of generation 0 — what a purge writes everywhere.  Safe
/// under *any* view generation: a matching tag unpacks to the default cell,
/// a mismatching tag reads as the default cell by definition.
fn empty_word() -> u64 {
    pack_gen(ShadowCell::default(), 0)
}

/// A reusable, generation-tagged shadow arena (see the module docs).
///
/// One arena serves one session at a time (the service's arena pool
/// guarantees exclusivity); [`Self::reset`] recycles it for the next session
/// in O(1).  All within-session concurrency runs through
/// [`EpochShadowView`], which implements [`ShadowStore`] for the generic
/// detection engine.
pub struct EpochShadowArena {
    cells: Vec<AtomicU64>,
    /// Striped locks, as many as the widest lease so far needed; a view uses
    /// the first [`EpochShadowView::num_shards`] of them.
    locks: Vec<CachePadded<Mutex<()>>>,
    /// Current generation, always `< gen_limit`.
    gen: AtomicU32,
    gen_limit: u32,
    resets: AtomicU64,
    purges: AtomicU64,
}

impl EpochShadowArena {
    /// Largest supported generation space: 16 tag bits.
    pub const MAX_GEN_LIMIT: u32 = 1 << 16;

    /// An arena covering `locations` locations, using the full 16-bit
    /// generation space.
    pub fn new(locations: u32) -> Self {
        Self::with_gen_limit(locations, Self::MAX_GEN_LIMIT)
    }

    /// An arena with a deliberately small generation space (`gen_limit`
    /// generations before wraparound) — the wraparound-purge path can then
    /// be exercised in a handful of resets.  `gen_limit` must be a power of
    /// two in `[2, MAX_GEN_LIMIT]`.
    pub fn with_gen_limit(locations: u32, gen_limit: u32) -> Self {
        assert!(
            gen_limit.is_power_of_two() && (2..=Self::MAX_GEN_LIMIT).contains(&gen_limit),
            "gen_limit must be a power of two in [2, {}], got {gen_limit}",
            Self::MAX_GEN_LIMIT
        );
        EpochShadowArena {
            cells: (0..locations).map(|_| AtomicU64::new(empty_word())).collect(),
            locks: Vec::new(),
            gen: AtomicU32::new(0),
            gen_limit,
            resets: AtomicU64::new(0),
            purges: AtomicU64::new(0),
        }
    }

    /// Number of shadowed locations.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no locations are shadowed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The generation a view opened now would be pinned to.
    pub fn current_gen(&self) -> u32 {
        self.gen.load(Ordering::Acquire)
    }

    /// Resets performed so far (one per recycled session).
    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }

    /// Wraparound purges performed so far (each one rewrote every cell).
    pub fn purges(&self) -> u64 {
        self.purges.load(Ordering::Relaxed)
    }

    /// Recycle the arena for the next session: bump the generation tag —
    /// O(1) — instead of reallocating or zeroing.  When the counter wraps
    /// around the finite tag space, the arena is purged once so stale cells
    /// from the previous cycle cannot alias the new generation's tags.
    ///
    /// Must only be called between sessions (no live view); the service's
    /// arena pool guarantees that by leasing each arena exclusively.
    pub fn reset(&self) -> u32 {
        let next = (self.current_gen() + 1) % self.gen_limit;
        if next == 0 {
            self.purge();
        }
        self.gen.store(next, Ordering::Release);
        self.resets.fetch_add(1, Ordering::Relaxed);
        next
    }

    /// Rewrite every cell to the empty word (generation 0).
    fn purge(&self) {
        for cell in &self.cells {
            cell.store(empty_word(), Ordering::Release);
        }
        self.purges.fetch_add(1, Ordering::Relaxed);
    }

    /// Hard-clear the arena: rewrite every cell to empty and restart the
    /// generation counter at 1 (generation 0 is the empty tag, so fresh
    /// cells never alias the new session).  This is the quarantine path —
    /// when a session panics mid-run its shadow writes are untrusted, so
    /// the pool scrubs the arena physically instead of relying on the O(1)
    /// generation bump.  Requires exclusive access, like [`Self::reset`].
    pub fn quarantine_purge(&self) -> u32 {
        self.purge();
        self.gen.store(1, Ordering::Release);
        1
    }

    /// Grow the arena to cover at least `locations` locations (between
    /// sessions); existing generation state is preserved, new cells start
    /// empty.
    pub fn ensure_locations(&mut self, locations: u32) {
        if locations as usize <= self.cells.len() {
            return;
        }
        // Fresh empty cells: the old cells' tags are at most the current
        // generation, and a view never outlives a lease, so dropping the old
        // contents is equivalent to a purge of the grown range.
        self.cells = (0..locations).map(|_| AtomicU64::new(empty_word())).collect();
        // The old generation's cells are gone wholesale, so the tag can keep
        // counting from where it was.
    }

    /// Open the session view of the current generation, striped for a
    /// session checked by `workers` concurrent workers.
    ///
    /// Stripes follow the threads that can contend *within this lease* — the
    /// session's own worker count, not the size of whatever pool runs
    /// sessions: a serial (or any one-worker) session gets exactly one
    /// stripe, a `workers`-worker session the `8 · workers` rule of
    /// [`ShardedShadowMemory`](crate::shadow::ShardedShadowMemory) over the
    /// arena's current size.  The layout is the view's alone; cells carry no
    /// trace of it, so an arena can be leased under a different striping
    /// every time.  `&mut self`: the lock vector grows here the first time a
    /// lease needs more stripes than any before it, and the exclusive borrow
    /// is the "one session at a time" rule stated to the compiler.
    pub fn view(&mut self, workers: usize) -> EpochShadowView<'_> {
        // The cells were sized from a `u32`.
        let (shard_shift, num_shards) = shard_layout(self.cells.len() as u32, workers);
        if self.locks.len() < num_shards {
            self.locks.resize_with(num_shards, || CachePadded::new(Mutex::new(())));
        }
        EpochShadowView {
            cells: &self.cells,
            locks: &self.locks[..num_shards],
            shard_shift,
            gen: self.current_gen(),
        }
    }

    /// Approximate heap bytes of the arena.
    pub fn space_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<AtomicU64>()
            + self.locks.capacity() * std::mem::size_of::<CachePadded<Mutex<()>>>()
    }
}

/// One session's window onto an [`EpochShadowArena`], pinned to the
/// generation current at lease time.
///
/// Implements [`ShadowStore`]: loads translate a generation mismatch into
/// the empty cell, stores tag the cell with the session's generation.  The
/// mutation discipline (shard lock held across [`ShadowStore::store`]) and
/// the single-word consistency argument are identical to
/// [`ShardedShadowMemory`](crate::shadow::ShardedShadowMemory).
pub struct EpochShadowView<'a> {
    cells: &'a [AtomicU64],
    /// This lease's stripes.
    locks: &'a [CachePadded<Mutex<()>>],
    shard_shift: u32,
    gen: u32,
}

impl EpochShadowView<'_> {
    /// The generation this view is pinned to.
    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// Number of striped shard locks of this lease.
    pub fn num_shards(&self) -> usize {
        self.locks.len()
    }
}

impl ShadowStore for EpochShadowView<'_> {
    fn load(&self, loc: u32) -> ShadowCell {
        let word = self.cells[loc as usize].load(Ordering::Acquire);
        let (cell, gen) = unpack_gen(word);
        if gen == self.gen {
            cell
        } else {
            // A stale tag from an earlier session: this cell has not been
            // touched in the current generation, so it is empty.
            ShadowCell::default()
        }
    }

    fn shard_of(&self, loc: u32) -> usize {
        shard_of(loc, self.shard_shift)
    }

    fn lock_shard(&self, shard: usize) -> parking_lot::MutexGuard<'_, ()> {
        self.locks[shard].lock()
    }

    fn store(&self, loc: u32, cell: ShadowCell) {
        self.cells[loc as usize].store(pack_gen(cell, self.gen), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::engine::check_thread_accesses;
    use crate::report::RaceCollector;
    use spmaint::api::CurrentSpQuery;

    struct AllParallel;
    impl CurrentSpQuery for AllParallel {
        fn precedes_current(&self, _earlier: ThreadId) -> bool {
            false
        }
    }

    #[test]
    fn packed_gen_roundtrip() {
        for gen in [0u32, 1, 3, 0xFFFF] {
            for writer in [None, Some(ThreadId(0)), Some(ThreadId(NONE24 - 1))] {
                for reader in [None, Some(ThreadId(7))] {
                    let cell = ShadowCell { writer, reader };
                    assert_eq!(unpack_gen(pack_gen(cell, gen)), (cell, gen));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "24-bit thread space")]
    fn thread_ids_beyond_24_bits_panic_instead_of_truncating() {
        encode24(Some(ThreadId(NONE24)));
    }

    #[test]
    fn reset_makes_old_cells_read_as_empty() {
        let mut arena = EpochShadowArena::new(8);
        let v0 = arena.view(1);
        let gen0 = v0.gen();
        {
            let _g = v0.lock_shard(v0.shard_of(3));
            v0.store(3, ShadowCell { writer: Some(ThreadId(5)), reader: None });
        }
        assert_eq!(v0.load(3).writer, Some(ThreadId(5)));
        arena.reset();
        let v1 = arena.view(1);
        assert_ne!(v1.gen(), gen0);
        assert_eq!(v1.load(3), ShadowCell::default(), "stale generation reads as empty");
    }

    #[test]
    fn wraparound_purges_so_tags_never_alias() {
        // gen_limit 2: generations alternate 0,1,0,1,... — without the
        // purge, a cell written in the first generation 0 would read as live
        // in the second generation 0.
        let mut arena = EpochShadowArena::with_gen_limit(4, 2);
        let v = arena.view(1);
        {
            let _g = v.lock_shard(v.shard_of(0));
            v.store(0, ShadowCell { writer: Some(ThreadId(9)), reader: None });
        }
        assert_eq!(arena.reset(), 1); // gen 0 -> 1
        assert_eq!(arena.reset(), 0); // gen 1 -> 0: wraparound, purge
        assert_eq!(arena.purges(), 1);
        let v = arena.view(1);
        assert_eq!(v.gen(), 0);
        assert_eq!(v.load(0), ShadowCell::default(), "purge cleared the aliasing cell");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_gen_limit_is_rejected() {
        EpochShadowArena::with_gen_limit(4, 3);
    }

    #[test]
    fn engine_runs_identically_over_an_epoch_view() {
        // The same parallel write-write race detected through the sharded
        // store and through a (fresh and a recycled) epoch view.
        let mut arena = EpochShadowArena::new(4);
        for round in 0..3 {
            let view = arena.view(2);
            let report = RaceCollector::new(4);
            check_thread_accesses(&AllParallel, &view, &report, ThreadId(0), &[Access::write(1)], &spmetrics::MetricsHandle::detached());
            check_thread_accesses(&AllParallel, &view, &report, ThreadId(1), &[Access::write(1)], &spmetrics::MetricsHandle::detached());
            let report = report.into_report();
            assert_eq!(report.racy_locations(), vec![1], "round {round}");
            assert_eq!(report.len(), 1, "round {round}: no stale state leaked in");
            arena.reset();
        }
        assert_eq!(arena.resets(), 3);
    }

    #[test]
    fn grow_preserves_generation_and_reads_empty() {
        let mut arena = EpochShadowArena::new(4);
        arena.reset();
        let gen = arena.current_gen();
        arena.ensure_locations(64);
        assert_eq!(arena.current_gen(), gen);
        assert_eq!(arena.len(), 64);
        let v = arena.view(2);
        assert_eq!(v.load(63), ShadowCell::default());
        assert_eq!(v.num_shards(), 8, "striped over the grown size");
        assert!(arena.space_bytes() > 0);
        assert!(!arena.is_empty());
    }

    /// Stripes belong to the lease: one arena viewed for one worker has one
    /// stripe, viewed next for four workers the 4-worker layout of a
    /// standalone store of its size, and then one again — while cells written
    /// under one striping read back (or read as stale) under another.
    #[test]
    fn each_view_is_striped_for_its_own_worker_count() {
        use crate::shadow::ShardedShadowMemory;
        const CELLS: u32 = 4096;
        let mut arena = EpochShadowArena::new(CELLS);
        let four = ShardedShadowMemory::new(CELLS, 4);
        let mark = ShadowCell { writer: Some(ThreadId(1)), reader: None };

        let serial = arena.view(1);
        assert_eq!(serial.num_shards(), 1);
        assert_eq!(serial.shard_of(CELLS - 1), 0);
        {
            let _g = serial.lock_shard(0);
            serial.store(CELLS - 1, mark);
        }

        // Same generation, other striping: the cell is where it was.
        let wide = arena.view(4);
        assert_eq!(wide.num_shards(), four.num_shards());
        for loc in [0, 127, 128, CELLS - 1] {
            assert_eq!(wide.shard_of(loc), four.shard_of(loc));
        }
        assert_eq!(wide.load(CELLS - 1), mark);
        drop(wide.lock_shard(wide.shard_of(CELLS - 1)));

        arena.reset();
        let serial = arena.view(1);
        assert_eq!(serial.num_shards(), 1, "the wider lease left nothing behind");
        assert_eq!(serial.load(CELLS - 1), ShadowCell::default());
    }
}
