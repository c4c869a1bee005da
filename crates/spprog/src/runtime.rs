//! Executing live programs: serial elision, work-stealing run, online
//! detection wiring.
//!
//! Every instrumented run goes one way — the private `execute` — whatever
//! the entry point ([`run_session`], [`try_run_program`] plain or enforced),
//! and a thread's work (`run_leaf`) is the same whatever maintains the SP
//! relation.  Two run modes over the same unfolding (the crate-internal
//! `unfold` module):
//!
//! * **Serial** (`workers == 1`) — [`forkrt::run_live_serial`] on the calling
//!   thread, SP maintenance by [`spmaint::SerialSpBags`]: runs of thread ids
//!   parallel to the current thread, nothing stored per thread or per
//!   S-node.  That the walk executes threads in the order it numbers them is
//!   asserted at every thread, in every build.  Detection is
//!   [`racedet::LiveDetector`], fed each thread's accesses in bounded
//!   batches.  Deterministic, and its report is bit-identical to offline
//!   serial detection on the recorded tree.
//! * **Parallel** — [`forkrt::run_live`] with the live SP-hybrid
//!   ([`sphybrid::LiveSpHybrid`], paper §4–§7): tokens carry [`TraceId`]s,
//!   steals split the victim's trace five ways (the steal token *is* the
//!   split input), and queries follow paper Figure 9.  The §3 one-lock
//!   strawman it replaces runs tree-driven only ([`sphybrid::NaiveBackend`]).
//!
//! [`run_uninstrumented`] executes the program with *no* SP maintenance and
//! no detection (values only) — the denominator of every overhead metric.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use forkrt::{
    run_live, run_live_serial, LiveConfig, LiveVisitor, SerialLiveVisitor, SpKind, StealTokens,
    Token,
};
use parking_lot::Mutex;
use racedet::{Access, DetectionSink, LiveDetector, RaceReport};
use spmaint::stream::SerialSpBags;
use spmetrics::{CounterId, EventKind, HistId, MetricsHandle};
use sphybrid::{LiveSpHybrid, TraceId};
use sptree::tree::ThreadId;

use crate::determinacy::{
    diagnose, internal_record, leaf_record, AccessFold, DeterminacyViolation, NodeRecord,
    SerialCapture, SerialCheck, SerialFold, SerialReference, SharedCapture,
};
use crate::program::{MemRef, Proc, Recording, StepCtx};
use crate::unfold::{InstRef, Meta, SerialCilk, SerialMeta, SharedCilk, SharedMeta};

// ---------------------------------------------------------------------------
// Configuration and outcome
// ---------------------------------------------------------------------------

/// Initial-capacity hints `(max_threads, max_steals)` of the SP-hybrid
/// substrates when a run names none.
const DEFAULT_HINTS: (usize, usize) = (1 << 10, 1 << 7);

/// Configuration of a live run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker threads; 1 means deterministic serial execution on the calling
    /// thread, its SP relation kept by [`spmaint::SerialSpBags`], and more
    /// run the live SP-hybrid ([`sphybrid::LiveSpHybrid`]) on the
    /// work-stealing scheduler.  Clamped to ≥ 1 (like
    /// [`forkrt::LiveConfig`]) so a struct-literal 0 cannot diverge from the
    /// tree-driven engines.
    pub workers: usize,
    /// Number of shared-memory locations (sizes value + shadow memory).
    pub locations: u32,
    /// **Deprecated budget, now an initial-capacity hint.**  The SP-hybrid
    /// substrates grow on demand (chunked slabs, published lock-free), so a
    /// program may execute any number of threads regardless of this value;
    /// it only sizes the union-find's first chunk.  No caller needs to size
    /// a program up front anymore.
    pub max_threads: usize,
    /// **Deprecated budget, now an initial-capacity hint.**  Sizes the first
    /// chunk of the global tier's order-maintenance slabs; any number of
    /// steals beyond it just publishes more chunks.
    pub max_steals: usize,
    /// Enforce fork-join determinacy: fold every spawn/sync/step into the
    /// schedule-independent structural hash (see [`crate::determinacy`])
    /// and require the run's hash to equal the program's cached serial
    /// reference.  A mismatch makes [`try_run_program`] return a typed
    /// [`DeterminacyViolation`] naming the first divergent node — never a
    /// bogus race report.  Off by default (zero overhead when off).
    pub enforce_determinacy: bool,
    /// Opt-in observability sink (`spmetrics`).  Detached by default —
    /// every metering call is an inlined no-op; attach a registry with
    /// [`RunConfig::with_metrics`] to collect steal/park/shadow-tier/race
    /// counters, per-run timing histograms, and trace events.
    pub metrics: MetricsHandle,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            workers: 1,
            locations: 64,
            max_threads: DEFAULT_HINTS.0,
            max_steals: DEFAULT_HINTS.1,
            enforce_determinacy: false,
            metrics: MetricsHandle::detached(),
        }
    }
}

impl RunConfig {
    /// Serial run over `locations` shared locations.
    pub fn serial(locations: u32) -> Self {
        RunConfig::with_workers(1, locations)
    }

    /// Multi-worker run over `locations` shared locations.
    pub fn with_workers(workers: usize, locations: u32) -> Self {
        RunConfig {
            workers: workers.max(1),
            locations,
            ..RunConfig::default()
        }
    }

    /// Turn determinacy enforcement on (builder-style):
    /// `RunConfig::with_workers(4, 8).enforced()`.
    #[must_use]
    pub fn enforced(mut self) -> Self {
        self.enforce_determinacy = true;
        self
    }

    /// Attach an observability sink (builder-style):
    /// `RunConfig::with_workers(4, 8).with_metrics(handle)`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }
}

/// How a *session* executes when driven by an external [`DetectionSink`]
/// (see [`run_session`]).  Unlike [`RunConfig`], the mode names the SP
/// maintainer explicitly even for one worker, because a multi-session
/// service needs deterministic per-session execution under **both**
/// maintainers: `Hybrid { workers: 1 }` runs the live SP-hybrid on the
/// work-stealing scheduler with a single worker (no steals can occur, so
/// the run — thread ids, queries, report — is deterministic), which
/// [`run_program`] never does (it elides `workers == 1` to [`Serial`]).
///
/// [`Serial`]: SessionMode::Serial
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionMode {
    /// Serial elision on the calling thread with the serial SP-order —
    /// deterministic, bit-identical to offline serial detection.
    Serial,
    /// Live two-tier SP-hybrid on `workers` workers (deterministic iff
    /// `workers == 1`).
    Hybrid {
        /// Worker threads (clamped to ≥ 1).
        workers: usize,
    },
}

impl SessionMode {
    /// Worker threads the mode runs on: one for [`SessionMode::Serial`], the
    /// clamped count for the scheduler modes — what a session's sink should
    /// stripe its shadow memory for.
    pub fn workers(self) -> usize {
        match self {
            SessionMode::Serial => 1,
            SessionMode::Hybrid { workers } => workers.max(1),
        }
    }
}

/// Outcome of a sessionized run ([`run_session`]): everything a
/// [`LiveRun`] reports *except* the race report, which lives in the
/// caller-owned [`DetectionSink`].
#[derive(Debug)]
pub struct SessionRun {
    /// Threads (SP parse-tree leaves) executed.
    pub threads: u64,
    /// Successful steals (0 for serial runs).
    pub steals: u64,
    /// Traces at the end (4·steals + 1 for SP-hybrid; 1 otherwise).
    pub traces: usize,
    /// Workers the run actually used.
    pub workers: usize,
    /// Which maintainer answered the SP queries.
    pub maintainer: &'static str,
    /// Approximate heap bytes of the SP structures (not the detector).
    pub sp_space_bytes: usize,
    /// Substrate chunks published beyond the initial hints during the run.
    pub sp_grow_events: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Outcome of an instrumented live run.
#[derive(Debug)]
pub struct LiveRun {
    /// Races detected online, while the program ran.
    pub report: RaceReport,
    /// Threads (SP parse-tree leaves) executed.
    pub threads: u64,
    /// Successful steals (0 for serial runs).
    pub steals: u64,
    /// Traces at the end (4·steals + 1 for SP-hybrid; 1 otherwise).
    pub traces: usize,
    /// Workers the run actually used.
    pub workers: usize,
    /// Which maintainer answered the SP queries.
    pub maintainer: &'static str,
    /// Approximate heap bytes of the SP structures (not the detector).
    pub sp_space_bytes: usize,
    /// Substrate chunks published beyond the initial hints during the run
    /// (0 for serial runs, which have no chunked slabs).
    pub sp_grow_events: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Schedule-independent structural hash of the unfolded SP dag —
    /// `Some` iff [`RunConfig::enforce_determinacy`] was set (in which case
    /// it is guaranteed equal to the serial reference hash; a mismatch
    /// would have made [`try_run_program`] return a
    /// [`DeterminacyViolation`] instead).
    pub structural_hash: Option<u64>,
}

// ---------------------------------------------------------------------------
// The per-thread work every maintainer shares
// ---------------------------------------------------------------------------

/// The body of one executing thread, the same on every instrumented walk:
/// run the step (if any) over `sink`'s value memory, its accesses recorded
/// into `buf` and handed to `check` in program-order batches of at most
/// [`BATCH`](crate::program::BATCH), then — on a hashed walk — hand the
/// leaf's structural record to `fold`.
#[inline]
pub(crate) fn run_leaf<R: InstRef>(
    meta: &Meta<R>,
    sink: &dyn DetectionSink,
    buf: &mut Vec<Access>,
    mut check: impl FnMut(&[Access]),
    fold: Option<impl FnOnce(NodeRecord)>,
) {
    // A step that panicked on this buffer may have left accesses in it.
    buf.clear();
    let step = meta.step();
    let mut accesses = AccessFold::default();
    if let Some(step) = step {
        let hashed = fold.is_some();
        let mut flush = |batch: &[Access]| {
            if hashed {
                accesses.add(batch);
            }
            check(batch);
        };
        let mut ctx = StepCtx {
            mem: MemRef::Sink(sink),
            trace: Some(Recording { buf, flush: &mut flush }),
        };
        step(&mut ctx);
        // Finished in place: moving the recording out of `ctx` here reloads
        // it wider than the stores that built it, which cost `spawn-fib`'s
        // near-empty threads ≈ 5 % of its run.
        if let Some(recording) = &mut ctx.trace {
            recording.finish();
        }
    }
    if let Some(fold) = fold {
        fold(leaf_record(meta.path, step.is_some(), accesses));
    }
}

/// Where a determinacy-enforced walk folds its node records (see
/// [`crate::determinacy`]).
enum Fold<'a> {
    /// Not enforced: nothing is hashed.
    Off,
    /// Serial walk: records arrive in visit order — a full capture when
    /// seeding a reference, a streaming check against the cached one after.
    Ordered(&'a mut (dyn SerialFold + 'a)),
    /// Multi-worker walk: every worker folds into its own slot.
    PerWorker(&'a SharedCapture),
}

// ---------------------------------------------------------------------------
// Serial run
// ---------------------------------------------------------------------------

struct SerialRunVisitor<'a> {
    sp: SerialSpBags,
    sink: &'a dyn DetectionSink,
    buf: Vec<Access>,
    /// Structural-hash fold when the run is determinacy-enforced.
    capture: Option<&'a mut dyn SerialFold>,
}

impl SerialLiveVisitor<SerialCilk> for SerialRunVisitor<'_> {
    fn enter_internal(&mut self, kind: SpKind, meta: &SerialMeta) {
        if let Some(c) = self.capture.as_deref_mut() {
            c.fold(internal_record(meta.path, kind));
        }
        if kind.is_parallel() {
            self.sp.enter_p();
        }
    }

    fn between_children(&mut self, kind: SpKind) {
        if kind.is_parallel() {
            self.sp.between_p();
        }
    }

    fn leave_internal(&mut self, kind: SpKind) {
        if kind.is_parallel() {
            self.sp.leave_p();
        }
    }

    fn execute_leaf(&mut self, meta: &SerialMeta) {
        // `run_live_serial` executes leaves left to right, the order the
        // serial SP-bags number threads in: the bags hold the one count.
        let thread = self.sp.next_thread();
        self.sp.execute(thread);
        let (sp, sink) = (&self.sp, self.sink);
        let fold = self.capture.as_deref_mut().map(|c| |rec| c.fold(rec));
        run_leaf(meta, sink, &mut self.buf, |batch| sink.check_thread(sp, thread, batch), fold);
    }
}

/// Run `prog` on the calling thread; returns the run and the number of
/// procedures it spawned.
fn run_serial<'a>(
    prog: &Proc,
    sink: &'a dyn DetectionSink,
    capture: Option<&'a mut (dyn SerialFold + 'a)>,
) -> (SessionRun, u64) {
    let program = SerialCilk::new(prog);
    let mut visitor = SerialRunVisitor {
        sp: SerialSpBags::default(),
        sink,
        buf: Vec::new(),
        capture,
    };
    sink.metrics().event(EventKind::RunStarted, 0, 0);
    let start = Instant::now();
    let threads = run_live_serial(&program, &mut visitor);
    let elapsed = start.elapsed();
    let run = SessionRun {
        threads,
        steals: 0,
        traces: 1,
        workers: 1,
        maintainer: visitor.sp.name(),
        sp_space_bytes: visitor.sp.space_bytes(),
        sp_grow_events: 0,
        elapsed,
    };
    (run, program.spawns())
}

// ---------------------------------------------------------------------------
// Parallel run
// ---------------------------------------------------------------------------

/// The parallel walk's events, forwarded to the live SP-hybrid as paper
/// Figure 8 orders them.
struct ParallelRunVisitor<'a> {
    sp: &'a LiveSpHybrid,
    sink: &'a dyn DetectionSink,
    next_thread: AtomicU32,
    /// Per-worker access buffers, reused across leaves (indexed by worker;
    /// each lock is only ever taken by its own worker, so it is uncontended).
    /// One cache line each: an unpadded slot is 32 bytes, so two workers'
    /// lock words and length fields would share a line and every `push`
    /// would bounce it.
    bufs: Vec<CachePadded<Mutex<Vec<Access>>>>,
    /// Structural-hash capture when the run is determinacy-enforced.
    capture: Option<&'a SharedCapture>,
}

impl LiveVisitor<SharedCilk> for ParallelRunVisitor<'_> {
    fn enter_internal(&self, worker: usize, kind: SpKind, meta: &SharedMeta, _token: Token) {
        if let Some(c) = self.capture {
            c.fold(worker, internal_record(meta.path, kind));
        }
    }

    fn execute_leaf(&self, worker: usize, meta: &SharedMeta, token: Token) {
        let thread = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        let trace = TraceId::from_token(token);
        // Line 3 of Figure 8: insert the thread into its trace, then run it.
        self.sp.thread_executed(meta.proc, thread, trace);
        let view = self.sp.view(trace);
        let mut buf = self.bufs[worker].lock();
        let fold = self.capture.map(|c| move |rec| c.fold(worker, rec));
        run_leaf(meta, self.sink, &mut buf, |batch| self.sink.check_thread(&view, thread, batch), fold);
    }

    fn between_children(&self, _worker: usize, kind: SpKind, meta: &SharedMeta, token: Token) {
        if kind.is_parallel() {
            let spawned = meta.spawned.expect("P-nodes carry their spawned procedure");
            self.sp.child_returned(meta.proc, spawned, TraceId::from_token(token));
        }
    }

    fn leave_internal(&self, _worker: usize, kind: SpKind, meta: &SharedMeta, token: Token) {
        if kind.is_parallel() {
            self.sp.synced(meta.proc, TraceId::from_token(token));
        }
    }

    fn steal(&self, _thief: usize, _victim: usize, meta: &SharedMeta, token: Token) -> StealTokens {
        self.sp.split(meta.proc, TraceId::from_token(token)).tokens()
    }
}

/// Run `prog` on `workers` workers under the live SP-hybrid `sp`; returns
/// the run and the number of procedures it spawned.
fn run_parallel(
    prog: &Proc,
    sp: &LiveSpHybrid,
    workers: usize,
    sink: &dyn DetectionSink,
    capture: Option<&SharedCapture>,
) -> (SessionRun, u64) {
    let program = SharedCilk::new(prog);
    let metrics = sink.metrics();
    let visitor = ParallelRunVisitor {
        sp,
        sink,
        next_thread: AtomicU32::new(0),
        bufs: (0..workers).map(|_| CachePadded::new(Mutex::new(Vec::new()))).collect(),
        capture,
    };
    metrics.event(EventKind::RunStarted, workers as u64, 0);
    let config = LiveConfig::with_workers(workers);
    let stats = run_live(&program, &visitor, config, sp.root_trace().to_token(), metrics);
    let run = SessionRun {
        threads: stats.total_threads(),
        steals: stats.steals,
        traces: sp.num_traces(),
        workers,
        maintainer: "live-sp-hybrid",
        sp_space_bytes: sp.space_bytes(),
        sp_grow_events: sp.grow_events(),
        elapsed: stats.elapsed,
    };
    (run, program.spawns())
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The one way from a [`Proc`] to a finished instrumented run — and the one
/// place the maintainer is chosen.  `(max_threads, max_steals)` are the
/// initial capacities of the SP-hybrid substrates; `fold` must match the
/// walk ([`Fold::Ordered`] for serial, [`Fold::PerWorker`] for the scheduler
/// mode) — a mismatched fold is never fed, so its hash stays 0 and
/// enforcement fails loudly.
fn execute<'a>(
    prog: &Proc,
    mode: SessionMode,
    (max_threads, max_steals): (usize, usize),
    sink: &'a dyn DetectionSink,
    fold: Fold<'a>,
) -> SessionRun {
    let (ordered, per_worker) = match fold {
        Fold::Off => (None, None),
        Fold::Ordered(c) => (Some(c), None),
        Fold::PerWorker(c) => (None, Some(c)),
    };
    let metrics = sink.metrics();
    let workers = mode.workers();
    let (run, spawns) = match mode {
        SessionMode::Serial => run_serial(prog, sink, ordered),
        SessionMode::Hybrid { .. } => {
            let hybrid = LiveSpHybrid::new(max_threads, max_steals);
            if metrics.is_attached() {
                hybrid.attach_metrics(metrics);
            }
            run_parallel(prog, &hybrid, workers, sink, per_worker)
        }
    };
    // Whole-run tallies, folded in once per run — never on a per-node path.
    if metrics.is_attached() {
        metrics.add(CounterId::Threads, run.threads);
        metrics.add(CounterId::Spawns, spawns);
        metrics.record(
            HistId::RunElapsedNs,
            u64::try_from(run.elapsed.as_nanos()).unwrap_or(u64::MAX),
        );
        metrics.event(EventKind::RunFinished, run.threads, run.steals);
    }
    run
}

/// The mode [`run_program`] runs a configuration in: one worker always
/// elides to the deterministic serial walk.
fn session_mode(config: &RunConfig) -> SessionMode {
    match config.workers.max(1) {
        1 => SessionMode::Serial,
        workers => SessionMode::Hybrid { workers },
    }
}

/// Execute a live program as a *session* over a caller-owned
/// [`DetectionSink`] — the reentrant entry point the multi-session
/// `spservice` layer is built on.
///
/// [`run_program`] owns its detector for the life of one run; this function
/// instead borrows whatever sink the caller hands it (a fresh
/// [`LiveDetector`], or a pooled one the service reset for this session),
/// so any number of sessions can execute back to back — or
/// concurrently, each over its own sink — in one process.  Races land in
/// the sink; everything else about the run comes back as a [`SessionRun`].
///
/// [`SessionMode::Serial`] and the 1-worker scheduler mode are
/// deterministic: same program + same mode ⇒ bit-identical accesses,
/// thread ids, and report.
///
/// Runtime events (steals, parks), per-run counters, and substrate-growth
/// events land in the sink's [`DetectionSink::metrics`] handle; reports and
/// [`SessionRun`] stats are bit-identical whether or not it is attached.
pub fn run_session(prog: &Proc, mode: SessionMode, sink: &dyn DetectionSink) -> SessionRun {
    execute(prog, mode, DEFAULT_HINTS, sink, Fold::Off)
}

fn finish_live_run(
    detector: LiveDetector,
    stats: SessionRun,
    structural_hash: Option<u64>,
) -> LiveRun {
    LiveRun {
        report: detector.into_report(),
        threads: stats.threads,
        steals: stats.steals,
        traces: stats.traces,
        workers: stats.workers,
        maintainer: stats.maintainer,
        sp_space_bytes: stats.sp_space_bytes,
        sp_grow_events: stats.sp_grow_events,
        elapsed: stats.elapsed,
        structural_hash,
    }
}

/// Execute a live program with on-the-fly SP maintenance and online race
/// detection; races are detected *while the program runs*, with no
/// materialized parse tree anywhere on this path.
///
/// With [`RunConfig::enforce_determinacy`] set this panics on a
/// [`DeterminacyViolation`] — use [`try_run_program`] to handle the typed
/// error.  See the crate-level documentation for a complete example.
pub fn run_program(prog: &Proc, config: &RunConfig) -> LiveRun {
    try_run_program(prog, config).unwrap_or_else(|violation| panic!("{violation}"))
}

/// Execute a live program like [`run_program`], returning a typed
/// [`DeterminacyViolation`] instead of a race report when
/// [`RunConfig::enforce_determinacy`] is set and the run's fork-join
/// structure diverges from the program's serial reference.
///
/// Enforcement folds every spawn/sync/step event into a
/// schedule-independent structural hash (per node, combined commutatively,
/// so work-stealing order cannot affect it — see [`crate::determinacy`] and
/// `ARCHITECTURE.md#enforced-determinacy`).  The first enforced run of a
/// [`Proc`] seeds a cached serial reference; every later enforced run of
/// the same program (or any clone) is compared against it, so repeated runs
/// pay only the per-node fold.  On a mismatch the violation names the first
/// divergent node in serial visit order and the run's race report is
/// discarded — a schedule-dependent program's report would be meaningless.
///
/// Without enforcement this never returns `Err` and adds no overhead.
///
/// ```
/// use spprog::{build_proc, try_run_program, RunConfig};
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// // A determinate program passes with the same hash on every schedule.
/// let prog = build_proc(|p| {
///     p.spawn(|c| { c.step(|m| m.write(0, 1)); });
///     p.spawn(|c| { c.step(|m| m.write(1, 2)); });
/// });
/// let serial = try_run_program(&prog, &RunConfig::serial(2).enforced()).unwrap();
/// let live = try_run_program(&prog, &RunConfig::with_workers(4, 2).enforced()).unwrap();
/// assert_eq!(serial.structural_hash, live.structural_hash);
///
/// // A program whose spawn count is keyed off a shared flag is *not*
/// // determinate: the reference run flips the flag, the checked run
/// // unfolds a different shape, and the violation names the divergence.
/// let flag = Arc::new(AtomicBool::new(false));
/// let schedule_dependent = build_proc(move |p| {
///     let flag = Arc::clone(&flag);
///     p.spawn(move |c| {
///         if flag.swap(true, Ordering::Relaxed) {
///             c.spawn(|g| { g.step(|_| {}); }); // extra spawn on re-run
///         }
///         c.step(|_| {});
///     });
/// });
/// let err = try_run_program(&schedule_dependent, &RunConfig::with_workers(2, 1).enforced())
///     .unwrap_err();
/// assert!(err.divergence.is_some(), "the first divergent node is named");
/// ```
pub fn try_run_program(prog: &Proc, config: &RunConfig) -> Result<LiveRun, DeterminacyViolation> {
    let mode = session_mode(config);
    let workers = config.workers.max(1);
    let hints = (config.max_threads, config.max_steals);
    let metrics = &config.metrics;
    let detector = LiveDetector::with_metrics(config.locations, workers, metrics.clone());
    if !config.enforce_determinacy {
        let stats = execute(prog, mode, hints, &detector, Fold::Off);
        return Ok(finish_live_run(detector, stats, None));
    }
    let violation = |reference: &SerialReference, hash, divergence| {
        metrics.add(CounterId::EnforcementMismatches, 1);
        metrics.event(EventKind::EnforcementMismatch, workers as u64, 0);
        DeterminacyViolation {
            serial_hash: reference.hash,
            parallel_hash: hash,
            workers,
            divergence,
        }
    };
    if mode == SessionMode::Serial {
        // A serial run *is* a reference execution.  The first enforced run
        // captures the walk inline (no second pass) and seeds the program's
        // cache; every later one checks run-to-run serial stability
        // *streamingly* against the cached reference — comparing each node
        // in place, allocating nothing on the steady-state happy path.
        let Some(reference) = prog.reference.get() else {
            let mut capture = SerialCapture::default();
            let stats = execute(prog, mode, hints, &detector, Fold::Ordered(&mut capture));
            let hash = capture.hash;
            let _ = prog.reference.set(capture);
            return Ok(finish_live_run(detector, stats, Some(hash)));
        };
        let mut check = SerialCheck::new(reference);
        let stats = execute(prog, mode, hints, &detector, Fold::Ordered(&mut check));
        let hash = check.hash;
        if hash != reference.hash {
            return Err(violation(reference, hash, check.into_divergence()));
        }
        return Ok(finish_live_run(detector, stats, Some(hash)));
    }
    // A multi-worker run of a program with no reference yet seeds one by the
    // ordinary serial path over a throwaway detached detector: one extra
    // detection pass, once per `Proc`.
    let reference = prog.reference.get_or_init(|| {
        let mut capture = SerialCapture::default();
        let throwaway = LiveDetector::new(config.locations, 1);
        execute(prog, SessionMode::Serial, hints, &throwaway, Fold::Ordered(&mut capture));
        capture
    });
    let capture = SharedCapture::new(workers);
    let stats = execute(prog, mode, hints, &detector, Fold::PerWorker(&capture));
    let hash = capture.hash();
    if hash != reference.hash {
        // The hot path keeps per-worker hashes only; re-run with full
        // node recording to *name* the first divergent node.  A program
        // that diverged once is schedule-dependent and diverges again
        // with overwhelming likelihood — if this run happens to match
        // the reference after all, the violation is still reported,
        // just without a named node.  The diagnostic re-run's sink is
        // detached, so it cannot double-count the failed run.
        let recording = SharedCapture::recording(workers, reference.nodes.len());
        let rerun_sink = LiveDetector::new(config.locations, workers);
        execute(prog, mode, hints, &rerun_sink, Fold::PerWorker(&recording));
        let divergence = if recording.hash() == reference.hash {
            None
        } else {
            diagnose(reference, &recording.into_records())
        };
        return Err(violation(reference, hash, divergence));
    }
    Ok(finish_live_run(detector, stats, Some(hash)))
}

/// Execute a live program with **no** instrumentation: no SP maintenance,
/// no shadow memory, no access recording — just the user closures over
/// atomic value memory on the scheduler.  The denominator of every overhead
/// metric.  Returns `(threads, steals, elapsed)`.
pub fn run_uninstrumented(prog: &Proc, workers: usize, locations: u32) -> (u64, u64, Duration) {
    let values: Vec<AtomicU64> = (0..locations).map(|_| AtomicU64::new(0)).collect();
    let workers = workers.max(1);
    if workers == 1 {
        struct Bare<'a> {
            values: &'a [AtomicU64],
        }
        impl SerialLiveVisitor<SerialCilk> for Bare<'_> {
            fn execute_leaf(&mut self, meta: &SerialMeta) {
                if let Some(step) = meta.step() {
                    step(&mut StepCtx {
                        mem: MemRef::Raw(self.values),
                        trace: None,
                    });
                }
            }
        }
        let program = SerialCilk::new(prog);
        let start = Instant::now();
        let threads = run_live_serial(&program, &mut Bare { values: &values });
        (threads, 0, start.elapsed())
    } else {
        struct Bare<'a> {
            values: &'a [AtomicU64],
        }
        impl LiveVisitor<SharedCilk> for Bare<'_> {
            fn execute_leaf(&self, _w: usize, meta: &SharedMeta, _token: Token) {
                if let Some(step) = meta.step() {
                    step(&mut StepCtx {
                        mem: MemRef::Raw(self.values),
                        trace: None,
                    });
                }
            }
        }
        let program = SharedCilk::new(prog);
        let stats = run_live(
            &program,
            &Bare { values: &values },
            LiveConfig::with_workers(workers),
            0,
            &MetricsHandle::detached(),
        );
        (stats.total_threads(), stats.steals, stats.elapsed)
    }
}
