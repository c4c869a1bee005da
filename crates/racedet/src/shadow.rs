//! Shadow memory: one recorded reader and writer per shared location.
//!
//! This is the classic Nondeterminator shadow scheme (Feng–Leiserson): for
//! every monitored location the detector remembers the last writer and one
//! representative reader.  The update rules are
//!
//! * on a **write** by thread `t`: report a race if the recorded writer or the
//!   recorded reader runs logically in parallel with `t`; then record `t` as
//!   the writer;
//! * on a **read** by thread `t`: report a race if the recorded writer runs
//!   logically in parallel with `t`; record `t` as the reader if the previous
//!   reader precedes `t` (keeping a "deepest" reader that still races with any
//!   later conflicting write).
//!
//! The store is [`ShardedShadowMemory`].  Cells are packed
//! `(writer, reader)` words in one `AtomicU64` each, grouped into
//! power-of-two blocks of consecutive cells per *shard*; one cache-padded
//! striped lock per shard (lock count sized to the worker count) serializes
//! mutations within a shard.  Because a cell is a single atomic word, an
//! unlocked load always yields a consistent snapshot — the seqlock pattern
//! with the version counter collapsed away — which gives the engine a
//! lock-free fast path for the common "recorded reader/writer already
//! precedes the current thread" re-check (see
//! `engine::check_thread_accesses`).
//!
//! Logically parallel threads may access the same location concurrently —
//! which is precisely when a race exists and must still be reported, not
//! missed or corrupted.  Serial backend runs take the same (uncontended)
//! paths, which keeps one engine code path for all six backends.

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use sptree::tree::ThreadId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shadow state of one location.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ShadowCell {
    /// Last recorded writer.
    pub writer: Option<ThreadId>,
    /// Recorded reader.
    pub reader: Option<ThreadId>,
}

/// Sentinel for "no recorded thread" in a packed cell word (thread ids are
/// dense indices starting at 0, so `u32::MAX` can never be a real thread).
const NONE: u32 = u32::MAX;

fn encode(t: Option<ThreadId>) -> u32 {
    match t {
        Some(t) => {
            debug_assert_ne!(t.0, NONE, "thread id u32::MAX is reserved");
            t.0
        }
        None => NONE,
    }
}

fn decode(raw: u32) -> Option<ThreadId> {
    (raw != NONE).then_some(ThreadId(raw))
}

fn pack(cell: ShadowCell) -> u64 {
    ((encode(cell.writer) as u64) << 32) | encode(cell.reader) as u64
}

fn unpack(word: u64) -> ShadowCell {
    ShadowCell {
        writer: decode((word >> 32) as u32),
        reader: decode(word as u32),
    }
}

/// The surface the detection engine needs from a shadow store: consistent
/// lock-free snapshots, a location→shard map, one striped lock per shard,
/// and release-published cell updates.
///
/// Two implementors exist: [`ShardedShadowMemory`] (the standalone engines'
/// store) and the generation-tagged epoch view of
/// [`crate::epoch::EpochShadowArena`] (the multi-session service's store,
/// where "empty" is a generation mismatch instead of a zeroed word).  The
/// engine ([`crate::engine::check_thread_accesses`]) is generic over this
/// trait, which is what lets one detection loop serve both.
pub trait ShadowStore: Sync {
    /// Consistent lock-free snapshot of a cell (one atomic load).
    fn load(&self, loc: u32) -> ShadowCell;

    /// The shard that guards `loc`.
    fn shard_of(&self, loc: u32) -> usize;

    /// Acquire the striped lock of one shard.  Mutating any cell of the
    /// shard ([`Self::store`]) requires holding this.
    fn lock_shard(&self, shard: usize) -> parking_lot::MutexGuard<'_, ()>;

    /// Publish a new cell value; the caller must hold the shard lock of
    /// `shard_of(loc)`.  The store itself must be a single atomic release so
    /// unlocked [`Self::load`]s always see a consistent value.
    fn store(&self, loc: u32, cell: ShadowCell);
}

/// Striped-lock layout shared by every sharded shadow store: returns
/// `(shard_shift, num_shards)` for `locations` locations checked by `workers`
/// concurrent workers; [`shard_of`] maps a location under it.
///
/// Stripes exist to keep threads that can contend apart, so they follow the
/// worker count and nothing else.  **One worker cannot contend with itself**:
/// it gets exactly one stripe whatever the size (`shard_shift` is the full
/// width of a location, so every location maps to shard 0), and the engine
/// then walks every batch in script order under at most one lock acquisition
/// — no grouping pass, no index vector.  Two or more workers get a
/// power-of-two lock count comfortably above the worker count
/// (`8 · workers`, saturating), capped by how many cache-line blocks there
/// are to guard (see [`ShardedShadowMemory`] for the rationale).
///
/// Pure arithmetic, no allocation, total on every `(u32, usize)` input.
pub(crate) fn shard_layout(locations: u32, workers: usize) -> (u32, usize) {
    if workers <= 1 {
        return (u32::BITS, 1);
    }
    let workers = u32::try_from(workers).unwrap_or(u32::MAX);
    // No more shards than cache-line blocks (at most 2²⁹ of them), which is
    // also what a saturated target falls back to.
    let blocks = locations.div_ceil(ShardedShadowMemory::MIN_BLOCK).max(1).next_power_of_two();
    let target_shards = workers.saturating_mul(8).checked_next_power_of_two().unwrap_or(blocks);
    let shards = target_shards.min(blocks);
    let cells_per_shard = locations
        .div_ceil(shards)
        .max(ShardedShadowMemory::MIN_BLOCK)
        .next_power_of_two();
    let shard_shift = cells_per_shard.trailing_zeros();
    let num_shards = (locations.div_ceil(cells_per_shard)).max(1) as usize;
    (shard_shift, num_shards)
}

/// The shard of `loc` under a [`shard_layout`] shift.  Widened before the
/// shift so the one-stripe layout (`shard_shift == 32`) is an ordinary shift
/// that yields 0 for every location.
#[inline]
pub(crate) fn shard_of(loc: u32, shard_shift: u32) -> usize {
    (u64::from(loc) >> shard_shift) as usize
}

/// Sharded, cache-aware shadow memory — the engine's shadow store.
///
/// Cells live in one flat array of packed `AtomicU64` words.  Consecutive
/// cells are grouped into power-of-two blocks (`cells_per_shard`, at least a
/// cache line's worth), each guarded by its own cache-padded striped lock;
/// the number of locks scales with the worker count, so logically concurrent
/// threads rarely collide on a lock unless they touch nearby locations — and
/// a store built for one worker has exactly one stripe, since one worker
/// cannot contend with itself (`shard_layout`).
/// Mapping by *blocks* rather than interleaving means a thread scanning
/// consecutive locations stays within one shard, which is what lets the
/// engine amortize a single lock acquisition over a whole run of same-shard
/// accesses.
///
/// Unlocked readers get consistent snapshots for free ([`Self::load`] is one
/// atomic load of the packed word); all mutations happen under the shard
/// lock and publish with a single atomic store, so torn cells cannot exist.
pub struct ShardedShadowMemory {
    cells: Vec<AtomicU64>,
    locks: Vec<CachePadded<Mutex<()>>>,
    /// `shard_of(loc, shard_shift)` is the shard of `loc`.
    shard_shift: u32,
}

impl ShardedShadowMemory {
    /// Minimum cells per shard: one 64-byte cache line of packed words, so
    /// two shards never false-share a line of cells.
    pub(crate) const MIN_BLOCK: u32 = 8;

    /// Shadow memory covering `locations` locations, with striped locks
    /// sized for `workers` concurrent workers.
    pub fn new(locations: u32, workers: usize) -> Self {
        let (shard_shift, num_shards) = shard_layout(locations, workers);
        ShardedShadowMemory {
            cells: (0..locations).map(|_| AtomicU64::new(pack(ShadowCell::default()))).collect(),
            locks: (0..num_shards).map(|_| CachePadded::new(Mutex::new(()))).collect(),
            shard_shift,
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

    /// Number of striped shard locks.
    pub fn num_shards(&self) -> usize {
        self.locks.len()
    }

    /// The shard that guards `loc`.
    pub fn shard_of(&self, loc: u32) -> usize {
        shard_of(loc, self.shard_shift)
    }

    /// Consistent lock-free snapshot of a cell (one atomic load).
    pub fn load(&self, loc: u32) -> ShadowCell {
        unpack(self.cells[loc as usize].load(Ordering::Acquire))
    }

    /// Acquire the striped lock of one shard.  Mutating any cell of the
    /// shard ([`Self::store`]) requires holding this.
    pub(crate) fn lock_shard(&self, shard: usize) -> parking_lot::MutexGuard<'_, ()> {
        self.locks[shard].lock()
    }

    /// Publish a new cell value.  The caller must hold the shard lock of
    /// `shard_of(loc)` — enforced by convention inside this crate; the store
    /// itself is a single atomic release so unlocked [`Self::load`]s always
    /// see a consistent value.
    pub(crate) fn store(&self, loc: u32, cell: ShadowCell) {
        self.cells[loc as usize].store(pack(cell), Ordering::Release);
    }
}

impl ShadowStore for ShardedShadowMemory {
    fn load(&self, loc: u32) -> ShadowCell {
        ShardedShadowMemory::load(self, loc)
    }

    fn shard_of(&self, loc: u32) -> usize {
        ShardedShadowMemory::shard_of(self, loc)
    }

    fn lock_shard(&self, shard: usize) -> parking_lot::MutexGuard<'_, ()> {
        ShardedShadowMemory::lock_shard(self, shard)
    }

    fn store(&self, loc: u32, cell: ShadowCell) {
        ShardedShadowMemory::store(self, loc, cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_start_empty() {
        let shadow = ShardedShadowMemory::new(8, 1);
        assert_eq!(shadow.len(), 8);
        for loc in 0..8 {
            assert_eq!(shadow.load(loc), ShadowCell::default());
        }
    }

    #[test]
    fn packed_roundtrip_covers_all_states() {
        for writer in [None, Some(ThreadId(0)), Some(ThreadId(7)), Some(ThreadId(u32::MAX - 1))] {
            for reader in [None, Some(ThreadId(3))] {
                let cell = ShadowCell { writer, reader };
                assert_eq!(unpack(pack(cell)), cell);
            }
        }
    }

    #[test]
    fn store_under_lock_is_visible_to_unlocked_load() {
        let shadow = ShardedShadowMemory::new(4, 2);
        {
            let _guard = shadow.lock_shard(shadow.shard_of(0));
            shadow.store(0, ShadowCell { writer: Some(ThreadId(7)), reader: None });
            shadow.store(1, ShadowCell { writer: None, reader: Some(ThreadId(9)) });
        }
        assert_eq!(shadow.load(0).writer, Some(ThreadId(7)));
        assert_eq!(shadow.load(1).reader, Some(ThreadId(9)));
        assert_eq!(shadow.load(2).writer, None);
    }

    #[test]
    fn sharding_grows_with_workers_and_maps_blocks() {
        let small = ShardedShadowMemory::new(1 << 12, 2);
        let big = ShardedShadowMemory::new(1 << 12, 8);
        assert!(big.num_shards() > small.num_shards());
        assert!(big.num_shards().is_power_of_two());
        // Block mapping: consecutive locations share a shard...
        assert_eq!(big.shard_of(0), big.shard_of(1));
        // ...and every shard index is within the allocated locks.
        for loc in (0..1u32 << 12).step_by(61) {
            assert!(big.shard_of(loc) < big.num_shards());
        }
        // Blocks are a power of two and at least a cache line of cells.
        assert!(1 << big.shard_shift >= ShardedShadowMemory::MIN_BLOCK);
    }

    const SIZES: [u32; 8] = [0, 1, 7, 8, 9, 4096, 300_000, u32::MAX];

    /// One worker cannot contend with itself: one stripe whatever the size,
    /// and `shard_of` is total on it (the shift is the full location width).
    #[test]
    fn one_worker_gets_exactly_one_stripe_at_every_size() {
        for locations in SIZES {
            for workers in [0, 1] {
                let (shift, shards) = shard_layout(locations, workers);
                assert_eq!(shards, 1, "{locations} locations, {workers} workers");
                for loc in [0, locations / 2, locations.saturating_sub(1), u32::MAX] {
                    assert_eq!(shard_of(loc, shift), 0, "{locations} locations, loc {loc}");
                }
            }
        }
        assert_eq!(ShardedShadowMemory::new(300_000, 1).num_shards(), 1);
    }

    /// The multi-worker layouts, pinned as literals: `8 · workers` stripes
    /// rounded up to a power of two, capped by the cache-line blocks there
    /// are, in power-of-two runs of consecutive cells.
    #[test]
    fn multi_worker_layouts_are_pinned() {
        let table: [(u32, usize, (u32, usize)); 9] = [
            (4_096, 2, (8, 16)),
            (4_096, 4, (7, 32)),
            (4_096, 8, (6, 64)),
            (300_000, 2, (15, 10)),
            (300_000, 4, (14, 19)),
            (300_000, 8, (13, 37)),
            (2_400_001, 2, (18, 10)),
            (2_400_001, 4, (17, 19)),
            (2_400_001, 8, (16, 37)),
        ];
        for (locations, workers, layout) in table {
            assert_eq!(shard_layout(locations, workers), layout, "({locations}, {workers})");
            assert!(shard_of(locations - 1, layout.0) < layout.1, "({locations}, {workers})");
        }
    }

    /// Total on every input: worker counts beyond `u32` and beyond what
    /// `8 · workers` can hold saturate to "one stripe per cache-line block"
    /// instead of truncating or overflowing, and the last location always
    /// maps inside the lock vector.
    #[test]
    fn layout_saturates_instead_of_overflowing() {
        for locations in SIZES {
            for workers in [2, 3, 1 << 28, (1 << 29) + 1, u32::MAX as usize, usize::MAX] {
                let (shift, shards) = shard_layout(locations, workers);
                assert!(shift >= ShardedShadowMemory::MIN_BLOCK.trailing_zeros());
                assert!(shards >= 1);
                assert!(
                    shard_of(locations.saturating_sub(1), shift) < shards,
                    "({locations}, {workers}) -> ({shift}, {shards})"
                );
            }
        }
        // Saturated: as many stripes as there are cache-line blocks.
        assert_eq!(shard_layout(4_096, usize::MAX), (3, 512));
        assert_eq!(shard_layout(4_096, u32::MAX as usize), shard_layout(4_096, usize::MAX));
    }

    #[test]
    fn tiny_and_empty_shadows_are_valid() {
        let empty = ShardedShadowMemory::new(0, 4);
        assert!(empty.is_empty());
        assert!(empty.num_shards() >= 1);
        let one = ShardedShadowMemory::new(1, 8);
        assert_eq!(one.len(), 1);
        assert_eq!(one.shard_of(0), 0);
        assert_eq!(one.load(0), ShadowCell::default());
    }
}
