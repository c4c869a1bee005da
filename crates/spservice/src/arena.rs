//! Pooled session arenas: value + shadow memory recycled across sessions.
//!
//! A standalone [`racedet::LiveDetector`] allocates a value array and a
//! shadow memory per run.  The service instead leases each session a
//! [`SessionArena`] from a pool and *recycles* it in O(1) when the session
//! finishes:
//!
//! * the shadow plane is an [`EpochShadowArena`] — recycling bumps its
//!   generation tag instead of zeroing cells (see `racedet::epoch`);
//! * the value plane gets the same treatment with a separate generation
//!   word per location: a value cell whose generation differs from the
//!   session's reads as 0, exactly like freshly allocated memory.  Values
//!   and their generations are two separate atomics; the scheduler's
//!   happens-before edges make ordered accesses see both consistently, and
//!   an inconsistent interleaving can only be observed by threads that are
//!   logically parallel — i.e. by a program that races on the location
//!   anyway, whose value outcome is unspecified by definition.
//!
//! [`SessionSink`] is the per-session lens over a leased arena: it
//! implements [`DetectionSink`], so a `spprog::run_session` drives the very
//! same generic engine loop over it that a standalone run drives over a
//! fresh detector — which is what makes service reports bit-identical to
//! standalone reports by construction.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use racedet::epoch::{EpochShadowArena, EpochShadowView};
use racedet::{check_thread_accesses, Access, DetectionSink, RaceCollector, RaceReport};
use spmaint::api::CurrentSpQuery;
use spmetrics::MetricsHandle;
use sptree::tree::ThreadId;

/// "Never written in any generation" sentinel for value-generation words.
/// Shadow generations are at most 16 bits, so `u32::MAX` can never collide
/// with a live generation.
const VAL_GEN_NONE: u32 = u32::MAX;

/// One reusable detection arena: epoch-reset shadow memory plus
/// generation-tagged value memory, leased to one session at a time.
pub struct SessionArena {
    shadow: EpochShadowArena,
    vals: Vec<AtomicU64>,
    val_gens: Vec<AtomicU32>,
}

impl SessionArena {
    /// An arena covering `locations` locations with a generation space of
    /// `gen_limit` sessions before the amortized wraparound purge (see
    /// [`EpochShadowArena::with_gen_limit`]).  Shadow striping is not a
    /// property of the arena: every lease brings its own ([`Self::sink`]).
    pub fn new(locations: u32, gen_limit: u32) -> Self {
        SessionArena {
            shadow: EpochShadowArena::with_gen_limit(locations, gen_limit),
            vals: (0..locations).map(|_| AtomicU64::new(0)).collect(),
            val_gens: (0..locations).map(|_| AtomicU32::new(VAL_GEN_NONE)).collect(),
        }
    }

    /// Locations this arena can currently shadow.
    pub fn capacity(&self) -> u32 {
        self.shadow.len() as u32
    }

    /// Grow the arena (between leases) to cover at least `locations`.
    pub fn ensure_locations(&mut self, locations: u32) {
        if locations as usize <= self.vals.len() {
            return;
        }
        self.shadow.ensure_locations(locations);
        self.vals = (0..locations).map(|_| AtomicU64::new(0)).collect();
        self.val_gens = (0..locations).map(|_| AtomicU32::new(VAL_GEN_NONE)).collect();
    }

    /// Recycle the arena for its next lease: one generation bump on each
    /// plane instead of reallocating or zeroing ~`capacity()` cells.  The
    /// value plane purges its generation words whenever the shadow plane
    /// wraps, so the two planes stay in lockstep and a recycled generation
    /// number can never resurrect a previous cycle's values.  Returns the
    /// new generation; 0 means the tag space wrapped and both planes were
    /// purged.
    pub fn recycle(&self) -> u32 {
        let next = self.shadow.reset();
        if next == 0 {
            self.purge_val_gens();
        }
        next
    }

    /// Hard-scrub both planes and restart the generation counter — the
    /// quarantine path for a session that panicked mid-run, whose shadow
    /// and value writes are untrusted (see
    /// [`EpochShadowArena::quarantine_purge`]).  Requires exclusive access,
    /// like [`Self::recycle`].  Returns the fresh generation.
    pub fn quarantine_purge(&self) -> u32 {
        let next = self.shadow.quarantine_purge();
        self.purge_val_gens();
        next
    }

    fn purge_val_gens(&self) {
        for g in &self.val_gens {
            g.store(VAL_GEN_NONE, Ordering::Release);
        }
    }

    /// The generation a sink leased now would be pinned to.
    pub fn current_gen(&self) -> u32 {
        self.shadow.current_gen()
    }

    /// Epoch resets performed (one per recycled lease).
    pub fn resets(&self) -> u64 {
        self.shadow.resets()
    }

    /// Wraparound purges performed.
    pub fn purges(&self) -> u64 {
        self.shadow.purges()
    }

    /// Lease the arena to a session over `locations` locations (must be
    /// within [`Self::capacity`]; the pool grows arenas before leasing) that
    /// runs on `workers` workers — the **session's** worker count
    /// (`spprog::SessionMode::workers`), which is what its shadow stripes
    /// are sized for ([`EpochShadowArena::view`]): a serial session gets one
    /// stripe however wide the service's pool is, a 4-worker session the
    /// 4-worker layout even from a one-worker pool.
    /// The sink is pinned to the current generation; drop it and call
    /// [`Self::recycle`] before the next lease.  Shadow-tier hit counters
    /// and race counters/events are folded into `metrics` once per checked
    /// thread batch, and a run over the sink reports its runtime events
    /// there too; reports are bit-identical whether or not it is attached.
    pub fn sink(&mut self, locations: u32, workers: usize, metrics: MetricsHandle) -> SessionSink<'_> {
        assert!(
            locations <= self.capacity(),
            "session wants {locations} locations but the arena holds {}; grow it first",
            self.capacity()
        );
        let view = self.shadow.view(workers);
        SessionSink {
            gen: view.gen(),
            view,
            vals: &self.vals,
            val_gens: &self.val_gens,
            locations,
            races: RaceCollector::new(locations),
            metrics,
        }
    }

    /// Approximate heap bytes of the arena (both planes).
    pub fn space_bytes(&self) -> usize {
        self.shadow.space_bytes()
            + self.vals.capacity() * std::mem::size_of::<AtomicU64>()
            + self.val_gens.capacity() * std::mem::size_of::<AtomicU32>()
    }
}

/// One session's [`DetectionSink`] over a leased [`SessionArena`].
///
/// Reads and writes go to the generation-tagged value plane (stale
/// generations read as 0, like fresh memory); per-thread batches run the
/// generic engine over the arena's epoch shadow view; races accumulate in a
/// session-private collector, so a location claimed in one lease is
/// unclaimed in the next.
pub struct SessionSink<'a> {
    view: EpochShadowView<'a>,
    vals: &'a [AtomicU64],
    val_gens: &'a [AtomicU32],
    gen: u32,
    locations: u32,
    races: RaceCollector,
    metrics: MetricsHandle,
}

impl SessionSink<'_> {
    /// The generation this lease is pinned to.
    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// Shadow stripes of this lease (1 for a one-worker session).
    pub fn num_shards(&self) -> usize {
        self.view.num_shards()
    }

    /// Snapshot of the races found so far.
    pub fn report(&self) -> RaceReport {
        self.races.report()
    }

    /// Consume the sink and return the session's final report.
    pub fn into_report(self) -> RaceReport {
        self.races.into_report()
    }

    fn slot(&self, loc: u32) -> usize {
        assert!(
            loc < self.locations,
            "location {loc} is outside the configured shared memory (0..{}); \
             raise `locations` in the session request",
            self.locations
        );
        loc as usize
    }
}

impl DetectionSink for SessionSink<'_> {
    fn read(&self, loc: u32) -> u64 {
        let i = self.slot(loc);
        if self.val_gens[i].load(Ordering::Relaxed) == self.gen {
            self.vals[i].load(Ordering::Relaxed)
        } else {
            // Not written in this session: fresh memory reads as 0.
            0
        }
    }

    fn write(&self, loc: u32, value: u64) {
        let i = self.slot(loc);
        self.vals[i].store(value, Ordering::Relaxed);
        self.val_gens[i].store(self.gen, Ordering::Relaxed);
    }

    fn check_thread(&self, queries: &dyn CurrentSpQuery, thread: ThreadId, accesses: &[Access]) {
        check_thread_accesses(queries, &self.view, &self.races, thread, accesses, &self.metrics);
    }

    fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AllParallel;
    impl CurrentSpQuery for AllParallel {
        fn precedes_current(&self, _earlier: ThreadId) -> bool {
            false
        }
    }

    #[test]
    fn values_are_fresh_after_recycle() {
        let mut arena = SessionArena::new(4, 8);
        let sink = arena.sink(4, 1, MetricsHandle::detached());
        sink.write(2, 99);
        assert_eq!(sink.read(2), 99);
        drop(sink);
        arena.recycle();
        let sink = arena.sink(4, 1, MetricsHandle::detached());
        assert_eq!(sink.read(2), 0, "stale-generation value reads as fresh memory");
        assert_eq!(arena.resets(), 1);
    }

    #[test]
    fn shadow_state_is_fresh_after_recycle() {
        let mut arena = SessionArena::new(2, 8);
        for round in 0..3 {
            let sink = arena.sink(2, 1, MetricsHandle::detached());
            sink.check_thread(&AllParallel, ThreadId(0), &[Access::write(0)]);
            sink.check_thread(&AllParallel, ThreadId(1), &[Access::write(0)]);
            let report = sink.into_report();
            assert_eq!(report.len(), 1, "round {round}: exactly the fresh-arena race");
            arena.recycle();
        }
    }

    /// A claimed location belongs to its lease: two consecutive sessions on
    /// one recycled arena, each with eight writers racing on the same two
    /// locations, both report each location once.
    #[test]
    fn race_claims_do_not_leak_across_leases() {
        let mut arena = SessionArena::new(4, 8);
        let racing = [Access::write(1), Access::write(3)];
        for session in 0..2 {
            let sink = arena.sink(4, 2, MetricsHandle::detached());
            for writer in 0..8 {
                sink.check_thread(&AllParallel, ThreadId(writer), &racing);
            }
            let report = sink.into_report();
            let entries: Vec<(u32, ThreadId, ThreadId)> = report
                .races()
                .iter()
                .map(|r| (r.loc, r.earlier, r.later))
                .collect();
            assert_eq!(
                entries,
                [(1, ThreadId(0), ThreadId(1)), (3, ThreadId(0), ThreadId(1))],
                "session {session}"
            );
            arena.recycle();
        }
    }

    #[test]
    fn value_plane_survives_generation_wraparound() {
        // gen_limit 2: every second recycle wraps and purges both planes.
        let mut arena = SessionArena::new(2, 2);
        for round in 0..5 {
            let sink = arena.sink(2, 1, MetricsHandle::detached());
            assert_eq!(sink.read(0), 0, "round {round}");
            sink.write(0, round + 1);
            assert_eq!(sink.read(0), round + 1);
            drop(sink);
            arena.recycle();
        }
        assert_eq!(arena.purges(), 2, "rounds 2 and 4 wrapped");
    }

    #[test]
    fn growth_between_leases_preserves_recycling() {
        let mut arena = SessionArena::new(2, 8);
        arena.ensure_locations(16);
        assert!(arena.capacity() >= 16);
        let sink = arena.sink(16, 2, MetricsHandle::detached());
        sink.write(15, 7);
        assert_eq!(sink.read(15), 7);
        drop(sink);
        arena.recycle();
        assert_eq!(arena.sink(16, 2, MetricsHandle::detached()).read(15), 0);
        assert!(arena.space_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "outside the configured shared memory")]
    fn session_bounds_are_enforced_even_on_a_larger_arena() {
        let mut arena = SessionArena::new(64, 8);
        // The arena holds 64 locations but this session asked for 4.
        arena.sink(4, 1, MetricsHandle::detached()).read(10);
    }

    #[test]
    #[should_panic(expected = "grow it first")]
    fn oversized_leases_are_rejected() {
        SessionArena::new(4, 8).sink(64, 1, MetricsHandle::detached());
    }

    /// Stripes per lease, from the session's own mode: the same recycled
    /// arena is one stripe under a `Serial` session and the 4-worker layout
    /// under a `Hybrid { workers: 4 }` one, and the first lease's cells read
    /// as empty through the second.
    #[test]
    fn a_recycled_arena_is_striped_for_each_lease() {
        use spprog::SessionMode;
        const CELLS: u32 = 4096;
        let mut arena = SessionArena::new(CELLS, 8);
        let serial = arena.sink(CELLS, SessionMode::Serial.workers(), MetricsHandle::detached());
        assert_eq!(serial.num_shards(), 1);
        let everywhere: Vec<Access> = (0..CELLS).step_by(97).map(Access::write).collect();
        serial.check_thread(&AllParallel, ThreadId(0), &everywhere);
        assert!(serial.into_report().is_empty());
        arena.recycle();

        let wide_mode = SessionMode::Hybrid { workers: 4 };
        let wide = arena.sink(CELLS, wide_mode.workers(), MetricsHandle::detached());
        assert_eq!(wide.num_shards(), 32, "8 · 4 stripes over 4,096 cells");
        // Stale cells of the serial lease are empty here: writing the same
        // locations from a thread parallel with everything reports nothing.
        wide.check_thread(&AllParallel, ThreadId(1), &everywhere);
        assert!(wide.into_report().is_empty());
        arena.recycle();

        let serial = arena.sink(CELLS, SessionMode::Serial.workers(), MetricsHandle::detached());
        assert_eq!(serial.num_shards(), 1, "and back");
    }
}
