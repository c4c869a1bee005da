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

use parking_lot::Mutex;
use racedet::epoch::{EpochShadowArena, EpochShadowView};
use racedet::{check_thread_accesses, Access, DetectionSink, RaceReport};
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
    workers: usize,
}

impl SessionArena {
    /// An arena covering `locations` locations, with shadow striping sized
    /// for `workers` concurrent workers and a generation space of
    /// `gen_limit` sessions before the amortized wraparound purge (see
    /// [`EpochShadowArena::with_gen_limit`]).
    pub fn new(locations: u32, workers: usize, gen_limit: u32) -> Self {
        SessionArena {
            shadow: EpochShadowArena::with_gen_limit(locations, workers, gen_limit),
            vals: (0..locations).map(|_| AtomicU64::new(0)).collect(),
            val_gens: (0..locations).map(|_| AtomicU32::new(VAL_GEN_NONE)).collect(),
            workers,
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
        self.shadow.ensure_locations(locations, self.workers);
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
    /// within [`Self::capacity`]; the pool grows arenas before leasing).
    /// The sink is pinned to the current generation; drop it and call
    /// [`Self::recycle`] before the next lease.  Shadow-tier hit counters
    /// and race counters/events are folded into `metrics` once per checked
    /// thread batch, and a run over the sink reports its runtime events
    /// there too; reports are bit-identical whether or not it is attached.
    pub fn sink(&self, locations: u32, metrics: MetricsHandle) -> SessionSink<'_> {
        assert!(
            locations <= self.capacity(),
            "session wants {locations} locations but the arena holds {}; grow it first",
            self.capacity()
        );
        SessionSink {
            view: self.shadow.view(),
            vals: &self.vals,
            val_gens: &self.val_gens,
            gen: self.shadow.current_gen(),
            locations,
            report: Mutex::new(RaceReport::new()),
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
/// session-private report.
pub struct SessionSink<'a> {
    view: EpochShadowView<'a>,
    vals: &'a [AtomicU64],
    val_gens: &'a [AtomicU32],
    gen: u32,
    locations: u32,
    report: Mutex<RaceReport>,
    metrics: MetricsHandle,
}

impl SessionSink<'_> {
    /// The generation this lease is pinned to.
    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// Snapshot of the races found so far.
    pub fn report(&self) -> RaceReport {
        self.report.lock().clone()
    }

    /// Consume the sink and return the session's final report.
    pub fn into_report(self) -> RaceReport {
        self.report.into_inner()
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
        check_thread_accesses(queries, &self.view, &self.report, thread, accesses, &self.metrics);
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
        let arena = SessionArena::new(4, 1, 8);
        let sink = arena.sink(4, MetricsHandle::detached());
        sink.write(2, 99);
        assert_eq!(sink.read(2), 99);
        drop(sink);
        arena.recycle();
        let sink = arena.sink(4, MetricsHandle::detached());
        assert_eq!(sink.read(2), 0, "stale-generation value reads as fresh memory");
        assert_eq!(arena.resets(), 1);
    }

    #[test]
    fn shadow_state_is_fresh_after_recycle() {
        let arena = SessionArena::new(2, 1, 8);
        for round in 0..3 {
            let sink = arena.sink(2, MetricsHandle::detached());
            sink.check_thread(&AllParallel, ThreadId(0), &[Access::write(0)]);
            sink.check_thread(&AllParallel, ThreadId(1), &[Access::write(0)]);
            let report = sink.into_report();
            assert_eq!(report.len(), 1, "round {round}: exactly the fresh-arena race");
            arena.recycle();
        }
    }

    #[test]
    fn value_plane_survives_generation_wraparound() {
        // gen_limit 2: every second recycle wraps and purges both planes.
        let arena = SessionArena::new(2, 1, 2);
        for round in 0..5 {
            let sink = arena.sink(2, MetricsHandle::detached());
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
        let mut arena = SessionArena::new(2, 2, 8);
        arena.ensure_locations(16);
        assert!(arena.capacity() >= 16);
        let sink = arena.sink(16, MetricsHandle::detached());
        sink.write(15, 7);
        assert_eq!(sink.read(15), 7);
        drop(sink);
        arena.recycle();
        assert_eq!(arena.sink(16, MetricsHandle::detached()).read(15), 0);
        assert!(arena.space_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "outside the configured shared memory")]
    fn session_bounds_are_enforced_even_on_a_larger_arena() {
        let arena = SessionArena::new(64, 1, 8);
        // The arena holds 64 locations but this session asked for 4.
        arena.sink(4, MetricsHandle::detached()).read(10);
    }

    #[test]
    #[should_panic(expected = "grow it first")]
    fn oversized_leases_are_rejected() {
        SessionArena::new(4, 1, 8).sink(64, MetricsHandle::detached());
    }
}
