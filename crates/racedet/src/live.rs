//! Online race detection over a **live** event stream.
//!
//! [`detect_races`](crate::detect_races) replays a pre-built access script
//! over a pre-built parse tree.  A live `spprog` execution has neither: user
//! closures run on the work-stealing scheduler, perform reads and writes as
//! they go, and the SP structure unfolds underneath them.  [`LiveDetector`]
//! is the engine for that mode — the *same* sharded shadow memory and the
//! *same* batched per-thread checking path
//! ([`check_thread_accesses`]), fed from the
//! event stream instead of a script:
//!
//! * [`LiveDetector::read`] / [`LiveDetector::write`] serve the program's
//!   *values* from an atomic value memory (racy programs really do race on
//!   it — atomics keep that well-defined);
//! * each executing thread's accesses are recorded as they happen and
//!   checked as one batch via [`LiveDetector::check_thread`] when the thread
//!   ends, under whatever [`CurrentSpQuery`] view the live SP maintainer
//!   provides.  Batching at thread granularity is exactly what the offline
//!   engine does, which is why serial live runs produce **bit-identical**
//!   reports to offline serial detection on the equivalent tree.
//!
//! See `ARCHITECTURE.md#live-execution-spprog` for the subsystem overview.

use std::sync::atomic::{AtomicU64, Ordering};

use spmaint::api::CurrentSpQuery;
use sptree::tree::ThreadId;

use spmetrics::MetricsHandle;

use crate::access::Access;
use crate::engine::check_thread_accesses;
use crate::report::{RaceCollector, RaceReport};
use crate::shadow::ShardedShadowMemory;

/// The detection surface a live run needs from its environment: value
/// memory for the program's reads and writes, plus per-thread batched
/// shadow checking.
///
/// [`LiveDetector`] is the standalone implementor (it owns a fresh value
/// array and [`ShardedShadowMemory`]); the `spservice` session sink is the
/// multiplexed one, backing both planes with leased generation-tagged
/// arenas recycled across sessions.  `spprog`'s run paths take
/// `&dyn DetectionSink`, which is what makes them reentrant per-session
/// instead of tied to one detector for the process's life.
pub trait DetectionSink: Sync {
    /// Current value of a location (program-visible memory, not shadow).
    fn read(&self, loc: u32) -> u64;

    /// Store a value into a location.
    fn write(&self, loc: u32, value: u64);

    /// Check one finished thread's recorded accesses against the shadow
    /// memory (the per-thread batch of the generic engine).  `queries` must
    /// answer [`CurrentSpQuery`] for `thread` as the currently executing
    /// thread.
    fn check_thread(&self, queries: &dyn CurrentSpQuery, thread: ThreadId, accesses: &[Access]);

    /// Where a run over this sink reports its runtime events (steals, parks,
    /// substrate growth) and per-run counters — the handle the sink already
    /// folds its shadow-tier and race counters into.  Detached unless the
    /// sink was built with one.
    fn metrics(&self) -> &MetricsHandle {
        static DETACHED: MetricsHandle = MetricsHandle::detached();
        &DETACHED
    }
}

/// Shared state of an online race-detection run: value memory, sharded
/// shadow memory, and the race collector.
///
/// One instance is shared by all workers of a live run; every method is
/// callable concurrently.
pub struct LiveDetector {
    values: Vec<AtomicU64>,
    shadow: ShardedShadowMemory,
    races: RaceCollector,
    metrics: MetricsHandle,
}

impl LiveDetector {
    /// A detector covering `locations` shared locations, with shadow-memory
    /// striping sized for `workers` concurrent workers (one worker: one
    /// stripe, so its batches are checked in script order, in place).  All
    /// values start at 0.
    pub fn new(locations: u32, workers: usize) -> Self {
        Self::with_metrics(locations, workers, MetricsHandle::detached())
    }

    /// [`LiveDetector::new`] with an observability sink: shadow-tier hit
    /// counters and race counters/events are folded into `metrics` once per
    /// checked thread batch.  Reports are bit-identical either way.
    pub fn with_metrics(locations: u32, workers: usize, metrics: MetricsHandle) -> Self {
        LiveDetector {
            values: (0..locations).map(|_| AtomicU64::new(0)).collect(),
            shadow: ShardedShadowMemory::new(locations, workers),
            races: RaceCollector::new(locations),
            metrics,
        }
    }

    /// Number of shared locations.
    pub fn num_locations(&self) -> u32 {
        self.values.len() as u32
    }

    /// Current value of a location (the program-visible memory, not the
    /// shadow state).
    pub fn read(&self, loc: u32) -> u64 {
        self.location(loc).load(Ordering::Relaxed)
    }

    /// Store a value into a location.
    pub fn write(&self, loc: u32, value: u64) {
        self.location(loc).store(value, Ordering::Relaxed);
    }

    fn location(&self, loc: u32) -> &AtomicU64 {
        self.values.get(loc as usize).unwrap_or_else(|| {
            panic!(
                "location {loc} is outside the configured shared memory \
                 (0..{}); raise `locations` in the run config",
                self.values.len()
            )
        })
    }

    /// Check one finished thread's recorded accesses against the shadow
    /// memory — the online equivalent of the script engine's per-thread
    /// batch.  `queries` must answer [`CurrentSpQuery`] for `thread` as the
    /// currently executing thread.
    pub fn check_thread(
        &self,
        queries: &dyn CurrentSpQuery,
        thread: ThreadId,
        accesses: &[Access],
    ) {
        check_thread_accesses(queries, &self.shadow, &self.races, thread, accesses, &self.metrics);
    }

    /// Snapshot of the races found so far.
    pub fn report(&self) -> RaceReport {
        self.races.report()
    }

    /// Consume the detector and return the final report.
    pub fn into_report(self) -> RaceReport {
        self.races.into_report()
    }

    /// Approximate heap bytes used (value + shadow memory).
    pub fn space_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<AtomicU64>()
            + self.shadow.len() * std::mem::size_of::<AtomicU64>()
    }
}

impl DetectionSink for LiveDetector {
    fn read(&self, loc: u32) -> u64 {
        LiveDetector::read(self, loc)
    }

    fn write(&self, loc: u32, value: u64) {
        LiveDetector::write(self, loc, value)
    }

    fn check_thread(&self, queries: &dyn CurrentSpQuery, thread: ThreadId, accesses: &[Access]) {
        LiveDetector::check_thread(self, queries, thread, accesses)
    }

    fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;

    struct AllParallel;
    impl CurrentSpQuery for AllParallel {
        fn precedes_current(&self, _earlier: ThreadId) -> bool {
            false
        }
    }

    struct AllSerial;
    impl CurrentSpQuery for AllSerial {
        fn precedes_current(&self, _earlier: ThreadId) -> bool {
            true
        }
    }

    #[test]
    fn values_are_plain_memory() {
        let det = LiveDetector::new(4, 1);
        assert_eq!(det.read(2), 0);
        det.write(2, 77);
        assert_eq!(det.read(2), 77);
        assert_eq!(det.num_locations(), 4);
        assert!(det.space_bytes() > 0);
    }

    #[test]
    fn parallel_writers_race_serial_writers_do_not() {
        let det = LiveDetector::new(2, 2);
        det.check_thread(&AllSerial, ThreadId(0), &[Access::write(0), Access::write(1)]);
        // Thread 1 is parallel with thread 0: racy on both locations.
        det.check_thread(&AllParallel, ThreadId(1), &[Access::write(0)]);
        // Thread 2 is serial after everything: silent.
        det.check_thread(&AllSerial, ThreadId(2), &[Access::write(1), Access::read(0)]);
        let report = det.into_report();
        assert_eq!(report.racy_locations(), vec![0]);
        assert_eq!(report.races()[0].kind, crate::report::RaceKind::WriteWrite);
        assert_eq!(report.races()[0].later, ThreadId(1));
    }

    #[test]
    fn empty_access_batches_are_free() {
        let det = LiveDetector::new(1, 1);
        det.check_thread(&AllParallel, ThreadId(0), &[]);
        assert!(det.report().is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the configured shared memory")]
    fn out_of_range_locations_panic_with_guidance() {
        let det = LiveDetector::new(2, 1);
        det.read(5);
    }

    #[test]
    fn access_kinds_route_to_the_same_rules_as_the_script_engine() {
        // read-after-parallel-write races; read-after-serial-write doesn't.
        let det = LiveDetector::new(1, 2);
        det.check_thread(&AllSerial, ThreadId(0), &[Access { loc: 0, kind: AccessKind::Write }]);
        det.check_thread(&AllParallel, ThreadId(1), &[Access { loc: 0, kind: AccessKind::Read }]);
        let report = det.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report.races()[0].kind, crate::report::RaceKind::WriteRead);
    }
}
