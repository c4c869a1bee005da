//! Benchmark-side [`DetectionSink`]s: the two ablation points that split a
//! run's time by layer *from outside the program*.
//!
//! * [`NullSink`] serves values and ignores `check_thread`, so a
//!   `run_session` over it pays scheduler + unfold + SP maintenance + access
//!   recording but no shadow check.
//! * [`TimingSink`] wraps a [`LiveDetector`] and times every non-empty
//!   `check_thread` call, summing busy time per worker.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sp_maintenance::racedet::{Access, DetectionSink, LiveDetector};
use sp_maintenance::spmaint::CurrentSpQuery;
use sp_maintenance::sptree::ThreadId;

use crate::trace::now_ns;

/// Value memory with no shadow memory behind it.
pub struct NullSink {
    values: Vec<AtomicU64>,
}

impl NullSink {
    pub fn new(locations: u32) -> Self {
        NullSink {
            values: (0..locations).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Final value of a location (tests compare it with a detector's).
    pub fn value(&self, loc: u32) -> u64 {
        self.values[loc as usize].load(Ordering::Relaxed)
    }
}

impl DetectionSink for NullSink {
    fn read(&self, loc: u32) -> u64 {
        self.values[loc as usize].load(Ordering::Relaxed)
    }

    fn write(&self, loc: u32, value: u64) {
        self.values[loc as usize].store(value, Ordering::Relaxed);
    }

    fn check_thread(&self, _queries: &dyn CurrentSpQuery, _thread: ThreadId, _accesses: &[Access]) {
    }
}

/// Worker threads hash into this many timing slots; runs here use at most
/// two workers at a time.
const SLOTS: usize = 8;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<usize> = Cell::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SLOTS);
}

/// Per-worker tallies, one cache line pair each so two workers never share.
/// All `Relaxed`: they are statistics, read only after the run has joined.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    busy_ns: AtomicU64,
    batches: AtomicU64,
    accesses: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

/// What one worker spent inside `check_thread` during one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerCheck {
    pub busy_ns: u64,
    pub batches: u64,
    pub accesses: u64,
    /// Start of the first and end of the last timed call ([`now_ns`] clock).
    pub first_ns: u64,
    pub last_ns: u64,
}

/// A [`LiveDetector`] whose `check_thread` calls are timed from outside.
pub struct TimingSink {
    inner: LiveDetector,
    slots: [Slot; SLOTS],
}

impl TimingSink {
    pub fn new(inner: LiveDetector) -> Self {
        TimingSink {
            inner,
            slots: Default::default(),
        }
    }

    /// Tallies of the workers that checked at least one batch.
    pub fn workers(&self) -> Vec<WorkerCheck> {
        self.slots
            .iter()
            .map(|s| WorkerCheck {
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
                batches: s.batches.load(Ordering::Relaxed),
                accesses: s.accesses.load(Ordering::Relaxed),
                first_ns: s.first_ns.load(Ordering::Relaxed),
                last_ns: s.last_ns.load(Ordering::Relaxed),
            })
            .filter(|w| w.batches > 0)
            .collect()
    }

    pub fn into_detector(self) -> LiveDetector {
        self.inner
    }
}

impl DetectionSink for TimingSink {
    fn read(&self, loc: u32) -> u64 {
        self.inner.read(loc)
    }

    fn write(&self, loc: u32, value: u64) {
        self.inner.write(loc, value);
    }

    fn check_thread(&self, queries: &dyn CurrentSpQuery, thread: ThreadId, accesses: &[Access]) {
        // An empty batch returns at once inside the detector; timing it
        // would charge two clock reads per thread to a layer that did
        // nothing (114,627 threads on `spawn-fib`).
        if accesses.is_empty() {
            return self.inner.check_thread(queries, thread, accesses);
        }
        let start = now_ns();
        self.inner.check_thread(queries, thread, accesses);
        let end = now_ns();
        let slot = &self.slots[THREAD_SLOT.with(Cell::get)];
        if slot.batches.fetch_add(1, Ordering::Relaxed) == 0 {
            slot.first_ns.store(start, Ordering::Relaxed);
        }
        slot.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        slot.accesses
            .fetch_add(accesses.len() as u64, Ordering::Relaxed);
        slot.last_ns.store(end, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Sizes, Workload};
    use sp_maintenance::spprog::{
        run_program, run_session, run_uninstrumented, RunConfig, SessionMode,
    };

    #[test]
    fn null_sink_run_leaves_the_values_an_instrumented_run_leaves() {
        for name in ["read-matmul", "bfs-100k"] {
            let w = Workload::build(name, &Sizes::SMOKE, 5).unwrap();
            let p = &w.programs[0];
            let null = NullSink::new(p.locations);
            let run = run_session(&p.prog, SessionMode::Serial, &null);
            // Same program, same threads as the uninstrumented walk ...
            let (bare_threads, _, _) = run_uninstrumented(&p.prog, 1, p.locations);
            assert_eq!(run.threads, bare_threads);
            // ... and the same memory image as a detector-backed run
            // (`run_uninstrumented` keeps its value memory to itself).
            let detector = LiveDetector::new(p.locations, 1);
            run_session(&p.prog, SessionMode::Serial, &detector);
            for loc in 0..p.locations {
                assert_eq!(null.value(loc), detector.read(loc), "{name} location {loc}");
            }
        }
    }

    #[test]
    fn timing_sink_changes_no_report_and_counts_every_access() {
        let w = Workload::build("bfs-100k-racy", &Sizes::SMOKE, 5).unwrap();
        let p = &w.programs[0];
        let plain = run_program(&p.prog, &RunConfig::serial(p.locations)).report;
        let sink = TimingSink::new(LiveDetector::new(p.locations, 1));
        run_session(&p.prog, SessionMode::Serial, &sink);
        let workers = sink.workers();
        assert_eq!(workers.len(), 1, "a serial run checks on one thread");
        let recorded = sp_maintenance::spprog::record_program(&p.prog, p.locations);
        assert_eq!(
            workers[0].accesses as usize,
            recorded.script.total_accesses()
        );
        assert!(workers[0].busy_ns > 0 && workers[0].last_ns >= workers[0].first_ns);
        assert_eq!(sink.into_detector().into_report().races(), plain.races());
    }
}
