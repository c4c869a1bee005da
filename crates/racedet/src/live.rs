//! Online race detection over a **live** event stream.
//!
//! [`detect_races`](crate::detect_races) replays a pre-built access script
//! over a pre-built parse tree.  A live `spprog` execution has neither: user
//! closures run on the work-stealing scheduler, perform reads and writes as
//! they go, and the SP structure unfolds underneath them.  [`LiveDetector`]
//! is the engine for that mode — the *same* sharded shadow memory and the
//! *same* batched per-thread checking path as the script engine, fed from
//! the event stream instead of a script:
//!
//! * [`LiveDetector::read`] / [`LiveDetector::write`] serve the program's
//!   *values* from an atomic value memory (racy programs really do race on
//!   it — atomics keep that well-defined);
//! * each executing thread's accesses are recorded as they happen and
//!   checked via [`LiveDetector::check_thread`] in program-order batches of
//!   a few thousand, under the live SP maintainer's [`CurrentSpQuery`]
//!   view.  Cutting a thread into batches changes no report, so serial live
//!   runs report **bit-identically** to offline serial detection.
//!
//! A detector is also reusable: [`LiveDetector::reset`] makes it the
//! detector [`LiveDetector::new`] would build for the next run's size and
//! worker count, refilling only that many locations in the memory it
//! already holds.  The `spservice` detection service pools detectors that
//! way and resets one per session lease.
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
/// [`LiveDetector`] is the one detecting implementor — a standalone run and
/// a detection-service session alike run over one (the service's are pooled
/// and reset per lease).  `spprog`'s run paths take `&dyn DetectionSink`,
/// which is what makes them reentrant per-session instead of tied to one
/// detector for the process's life, and what lets tests and benchmarks wrap
/// a detector in their own sink.
pub trait DetectionSink: Sync {
    /// Current value of a location (program-visible memory, not shadow).
    fn read(&self, loc: u32) -> u64;

    /// Store a value into a location.
    fn write(&self, loc: u32, value: u64);

    /// Check a batch of `thread`'s accesses against the shadow memory: a run
    /// of consecutive accesses in program order (a thread may arrive in
    /// several).  `queries` must answer [`CurrentSpQuery`] for `thread` as
    /// the currently executing thread.
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
/// One instance is shared by all workers of a live run; every `&self`
/// method is callable concurrently.  Between runs, [`Self::reset`] recycles
/// it for the next one.
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

    /// Make this the detector [`Self::with_metrics`] would build for
    /// `locations`, `workers` and `metrics`, keeping the memory it holds:
    /// values and shadow cells are refilled for the first `locations`
    /// locations only (16 bytes each), the shadow stripes are re-laid for
    /// `workers`, and races are collected afresh.  A location beyond
    /// `locations` is rejected as on a new detector, however much memory an
    /// earlier, larger run left allocated.
    pub fn reset(&mut self, locations: u32, workers: usize, metrics: MetricsHandle) {
        self.values.clear();
        self.values.resize_with(locations as usize, || AtomicU64::new(0));
        self.shadow.reset(locations, workers);
        self.races = RaceCollector::new(locations);
        self.metrics = metrics;
    }

    /// Number of shared locations.
    pub fn num_locations(&self) -> u32 {
        self.values.len() as u32
    }

    /// Number of shadow-memory stripes, as laid out for the worker count of
    /// the last [`Self::new`] or [`Self::reset`].
    pub fn num_shards(&self) -> usize {
        self.shadow.num_shards()
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

    /// Check a batch of `thread`'s accesses — consecutive, in program order;
    /// a thread may arrive in several — with the script engine's per-thread
    /// loop.  `queries` must answer [`CurrentSpQuery`] for `thread` as the
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

    /// Take the final report and keep the detector for a [`Self::reset`]:
    /// races are collected afresh from here on.
    pub fn take_report(&mut self) -> RaceReport {
        let fresh = RaceCollector::new(self.num_locations());
        std::mem::replace(&mut self.races, fresh).into_report()
    }

    /// Approximate heap bytes held (value + shadow memory), counted by
    /// capacity: a pooled detector keeps what its largest lease grew.
    pub fn space_bytes(&self) -> usize {
        (self.values.capacity() + self.shadow.capacity()) * std::mem::size_of::<AtomicU64>()
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

    /// The leases of the reuse tests below, as `(locations, workers,
    /// stripes)`: one detector grows, shrinks and grows again, and is
    /// re-striped for one and four workers (16 locations hold only two
    /// cache-line blocks, so four workers get two stripes there).
    const LEASES: [(u32, usize, usize); 4] = [(4096, 1, 1), (16, 4, 2), (4096, 4, 32), (4096, 1, 1)];

    /// Every lease starts from fresh memory — values read 0, shadow cells
    /// are empty — and from the stripes a new detector of its shape has,
    /// although the lease before it wrote every value and cell.
    #[test]
    fn a_reset_detector_is_fresh_and_striped_for_each_lease() {
        let mut det = LiveDetector::new(LEASES[0].0, LEASES[0].1);
        for (locations, workers, stripes) in LEASES {
            det.reset(locations, workers, MetricsHandle::detached());
            assert_eq!(det.num_locations(), locations);
            assert_eq!(det.shadow.num_shards(), stripes, "{locations} locations, {workers} workers");
            assert_eq!(stripes, ShardedShadowMemory::new(locations, workers).num_shards());
            for loc in 0..locations {
                assert_eq!(det.read(loc), 0, "value of {loc}");
                assert_eq!(det.shadow.load(loc), crate::shadow::ShadowCell::default(), "cell {loc}");
            }
            let everywhere: Vec<Access> =
                (0..locations).flat_map(|loc| [Access::write(loc), Access::read(loc)]).collect();
            det.check_thread(&AllSerial, ThreadId(0), &everywhere);
            for loc in 0..locations {
                det.write(loc, u64::from(loc) + 1);
            }
            assert!(det.take_report().is_empty());
        }
        assert!(det.space_bytes() >= 4096 * 16, "the largest lease's memory is kept");
    }

    /// A shrinking reset keeps both planes' memory, and the detector still
    /// counts all of it: 4,096 locations of values and shadow cells, 16 B
    /// each, although the lease now covers 16.
    #[test]
    fn a_shrunk_detector_still_counts_the_memory_it_holds() {
        let mut det = LiveDetector::new(4096, 1);
        det.reset(16, 1, MetricsHandle::detached());
        assert_eq!(det.num_locations(), 16);
        assert!(det.space_bytes() >= 4096 * 16, "{} bytes after 4,096 → 16", det.space_bytes());
    }

    /// A claimed location belongs to its lease: in every lease of one
    /// detector, eight writers racing on the same locations report each
    /// location once, the first race found there.
    #[test]
    fn race_claims_do_not_leak_across_leases() {
        let mut det = LiveDetector::new(LEASES[0].0, LEASES[0].1);
        for (lease, (locations, workers, _)) in LEASES.into_iter().enumerate() {
            det.reset(locations, workers, MetricsHandle::detached());
            let racing = [Access::write(1), Access::write(locations - 1)];
            for writer in 0..8 {
                det.check_thread(&AllParallel, ThreadId(writer), &racing);
            }
            let entries: Vec<(u32, ThreadId, ThreadId)> =
                det.take_report().races().iter().map(|r| (r.loc, r.earlier, r.later)).collect();
            assert_eq!(
                entries,
                [(1, ThreadId(0), ThreadId(1)), (locations - 1, ThreadId(0), ThreadId(1))],
                "lease {lease}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside the configured shared memory")]
    fn session_bounds_are_enforced_even_on_a_larger_allocation() {
        let mut det = LiveDetector::new(4096, 1);
        // The detector holds 4,096 locations but this lease asked for 16.
        det.reset(16, 4, MetricsHandle::detached());
        det.read(100);
    }
}
