//! Executing live programs: serial elision, work-stealing run, online
//! detection wiring.
//!
//! Three run modes over the same unfolding (the crate-internal `unfold` module):
//!
//! * **Serial** (`workers == 1`) — [`forkrt::run_live_serial`] on the calling
//!   thread.  SP maintenance is the streaming SP-order
//!   ([`spmaint::StreamingSpOrder`]), whose node handles ride the
//!   scheduler's *tags*; detection is [`racedet::LiveDetector`] with the
//!   same per-thread batching as the offline engine.  Deterministic: thread
//!   ids, query answers, and the race report are bit-identical across runs —
//!   and bit-identical to offline serial detection on the recorded tree.
//! * **Parallel, SP-hybrid** — [`forkrt::run_live`] with
//!   [`sphybrid::LiveSpHybrid`]: tokens carry [`TraceId`]s, steals split the
//!   victim's trace five ways (the steal token *is* the split input), and
//!   queries follow paper Figure 9.
//! * **Parallel, naive-locked** — the §3 strawman live
//!   ([`sphybrid::NaiveSharedSpOrder`]): one global mutex around a shared
//!   streaming SP-order.  Kept as the ablation/cross-check backend.
//!
//! [`run_uninstrumented`] executes the program with *no* SP maintenance and
//! no detection (values only) — the baseline of the `live_overhead` bench.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use forkrt::{
    run_live, run_live_serial, LiveConfig, LiveVisitor, SerialLiveVisitor, SpKind, StealTokens,
    Token,
};
use parking_lot::Mutex;
use racedet::{Access, DetectionSink, LiveDetector, RaceReport};
use spmetrics::{CounterId, EventKind, HistId, MetricsHandle};
use spmaint::stream::{StreamNode, StreamingSpBackend, StreamingSpOrder};
use sphybrid::live::{LiveHybridConfig, LiveSpHybrid};
use sphybrid::{NaiveSharedSpOrder, TraceId};
use sptree::tree::ThreadId;

use std::sync::Arc;

use crate::determinacy::{
    diagnose, internal_record, leaf_record, DeterminacyViolation, SerialCapture, SerialCheck,
    SerialFold, SerialReference, SharedCapture,
};
use crate::program::Proc;
use crate::unfold::{LiveCilk, Meta};

// ---------------------------------------------------------------------------
// Step context
// ---------------------------------------------------------------------------

enum MemRef<'a> {
    Sink(&'a dyn DetectionSink),
    Raw(&'a [AtomicU64]),
}

/// The view a step closure gets of shared memory.
///
/// Reads and writes go to the program's *value* memory immediately (racy
/// programs really race on it — it is atomic word storage); in instrumented
/// runs each access is also recorded and checked against the shadow memory
/// when the step ends, exactly like the offline engine checks one thread's
/// scripted accesses.
pub struct StepCtx<'a> {
    mem: MemRef<'a>,
    trace: Option<&'a mut Vec<Access>>,
}

impl StepCtx<'_> {
    /// Read a shared location, returning its current value.
    pub fn read(&mut self, loc: u32) -> u64 {
        if let Some(t) = self.trace.as_mut() {
            t.push(Access::read(loc));
        }
        match &self.mem {
            MemRef::Sink(d) => d.read(loc),
            MemRef::Raw(v) => raw_cell(v, loc).load(Ordering::Relaxed),
        }
    }

    /// Write a value to a shared location.
    pub fn write(&mut self, loc: u32, value: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.push(Access::write(loc));
        }
        match &self.mem {
            MemRef::Sink(d) => d.write(loc, value),
            MemRef::Raw(v) => raw_cell(v, loc).store(value, Ordering::Relaxed),
        }
    }

    /// Replay a pre-recorded access (scripted workloads); reads discard the
    /// value, writes store a marker.
    pub fn access(&mut self, access: Access) {
        match access.kind {
            racedet::AccessKind::Read => {
                self.read(access.loc);
            }
            racedet::AccessKind::Write => self.write(access.loc, 1),
        }
    }
}

/// Step context over a detector's value memory, recording accesses into
/// `buf` — the recorder's way of running steps (crate-internal).
pub(crate) fn record_step_ctx<'a>(
    detector: &'a LiveDetector,
    buf: &'a mut Vec<Access>,
) -> StepCtx<'a> {
    StepCtx {
        mem: MemRef::Sink(detector),
        trace: Some(buf),
    }
}

fn raw_cell(values: &[AtomicU64], loc: u32) -> &AtomicU64 {
    values.get(loc as usize).unwrap_or_else(|| {
        panic!(
            "location {loc} is outside the configured shared memory (0..{}); \
             raise `locations` in the run config",
            values.len()
        )
    })
}

// ---------------------------------------------------------------------------
// Configuration and outcome
// ---------------------------------------------------------------------------

/// Which SP maintainer a multi-worker live run uses (`workers == 1` always
/// runs the deterministic serial streaming SP-order).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LiveMaintainer {
    /// Two-tier live SP-hybrid (paper §4–§7): steal tokens are trace splits.
    #[default]
    Hybrid,
    /// One global lock around a shared streaming SP-order (the §3 strawman);
    /// the cross-check/ablation backend.
    NaiveLocked,
}

/// Configuration of a live run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker threads; 1 means deterministic serial execution on the calling
    /// thread.  Clamped to ≥ 1 (like [`forkrt::LiveConfig`]) so a
    /// struct-literal 0 cannot diverge from the tree-driven engines.
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
    /// SP maintainer for multi-worker runs.
    pub maintainer: LiveMaintainer,
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
            max_threads: 1 << 10,
            max_steals: 1 << 7,
            maintainer: LiveMaintainer::Hybrid,
            enforce_determinacy: false,
            metrics: MetricsHandle::detached(),
        }
    }
}

impl RunConfig {
    /// Serial run over `locations` shared locations.
    pub fn serial(locations: u32) -> Self {
        RunConfig {
            locations,
            ..RunConfig::default()
        }
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
/// service needs deterministic per-session execution under **every**
/// maintainer: `Hybrid { workers: 1 }` runs the live SP-hybrid on the
/// work-stealing scheduler with a single worker (no steals can occur, so
/// the run — thread ids, queries, report — is deterministic), which
/// [`run_program`] never does (it elides `workers == 1` to [`Serial`]).
///
/// [`Serial`]: SessionMode::Serial
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionMode {
    /// Serial elision on the calling thread with the streaming SP-order —
    /// deterministic, bit-identical to offline serial detection.
    Serial,
    /// Live two-tier SP-hybrid on `workers` workers (deterministic iff
    /// `workers == 1`).
    Hybrid {
        /// Worker threads (clamped to ≥ 1).
        workers: usize,
    },
    /// Naive-locked shared streaming SP-order on `workers` workers
    /// (deterministic iff `workers == 1`).
    NaiveLocked {
        /// Worker threads (clamped to ≥ 1).
        workers: usize,
    },
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
    /// (0 for serial and naive-locked runs, which have no chunked slabs).
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
// Serial run
// ---------------------------------------------------------------------------

struct SerialRunVisitor<'a> {
    sp: StreamingSpOrder,
    sink: &'a dyn DetectionSink,
    next_thread: u32,
    buf: Vec<Access>,
    /// Spawned procedures (P-nodes unfolded) — plain local, folded into the
    /// metrics sink once at the end of the run.
    spawns: u64,
    /// Structural-hash fold when the run is determinacy-enforced: a full
    /// capture on the reference-seeding run, a streaming check afterwards.
    capture: Option<&'a mut dyn SerialFold>,
}

impl SerialLiveVisitor<LiveCilk> for SerialRunVisitor<'_> {
    fn enter_internal(&mut self, kind: SpKind, meta: &Meta, tag: u64) -> (u64, u64) {
        if kind.is_parallel() {
            self.spawns += 1;
        }
        if let Some(c) = self.capture.as_deref_mut() {
            c.fold(internal_record(meta.path, kind));
        }
        let (l, r) = self.sp.expand(StreamNode::from_tag(tag), kind.is_parallel());
        (l.to_tag(), r.to_tag())
    }

    fn execute_leaf(&mut self, meta: &Meta, tag: u64) {
        let thread = ThreadId(self.next_thread);
        self.next_thread += 1;
        self.sp.execute(StreamNode::from_tag(tag), thread);
        self.buf.clear();
        if let Some(step) = &meta.step {
            step(&mut StepCtx {
                mem: MemRef::Sink(self.sink),
                trace: Some(&mut self.buf),
            });
        }
        if let Some(c) = self.capture.as_deref_mut() {
            c.fold(leaf_record(meta.path, meta.step.is_some(), &self.buf));
        }
        self.sink.check_thread(&self.sp, thread, &self.buf);
    }
}

fn run_serial_with<'a>(
    prog: &Proc,
    sink: &'a dyn DetectionSink,
    capture: Option<&'a mut (dyn SerialFold + 'a)>,
) -> SessionRun {
    let metrics = sink.metrics();
    let program = LiveCilk::new(prog);
    let (sp, root) = StreamingSpOrder::stream_new();
    let mut visitor = SerialRunVisitor {
        sp,
        sink,
        next_thread: 0,
        buf: Vec::new(),
        spawns: 0,
        capture,
    };
    metrics.event(EventKind::RunStarted, 0, 0);
    let start = Instant::now();
    let threads = run_live_serial(&program, &mut visitor, root.to_tag());
    let elapsed = start.elapsed();
    finish_run_metrics(metrics, threads, visitor.spawns, 0, elapsed);
    SessionRun {
        threads,
        steals: 0,
        traces: 1,
        workers: 1,
        maintainer: visitor.sp.stream_name(),
        sp_space_bytes: visitor.sp.stream_space_bytes(),
        sp_grow_events: 0,
        elapsed,
    }
}

/// Fold a finished run's whole-run tallies into the metrics sink: thread and
/// spawn counters, the elapsed-time histogram, and the RunFinished event.
/// One call per run — never on a per-node path.
fn finish_run_metrics(
    metrics: &MetricsHandle,
    threads: u64,
    spawns: u64,
    steals: u64,
    elapsed: Duration,
) {
    if !metrics.is_attached() {
        return;
    }
    metrics.add(CounterId::Threads, threads);
    metrics.add(CounterId::Spawns, spawns);
    metrics.record(
        HistId::RunElapsedNs,
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
    );
    metrics.event(EventKind::RunFinished, threads, steals);
}

// ---------------------------------------------------------------------------
// Parallel run, SP-hybrid
// ---------------------------------------------------------------------------

struct HybridRunVisitor<'a> {
    hybrid: &'a LiveSpHybrid,
    sink: &'a dyn DetectionSink,
    next_thread: &'a AtomicU32,
    /// Per-worker access buffers, reused across leaves (indexed by worker;
    /// each lock is only ever taken by its own worker, so it is uncontended).
    bufs: Vec<Mutex<Vec<Access>>>,
    /// Structural-hash capture when the run is determinacy-enforced.
    capture: Option<&'a SharedCapture>,
    /// Spawn tally, bumped only when a registry is attached (P-nodes are
    /// unfolded exactly once, so one relaxed add per spawn).
    metrics: &'a MetricsHandle,
    spawns: AtomicU64,
}

impl LiveVisitor<LiveCilk> for HybridRunVisitor<'_> {
    fn enter_internal(
        &self,
        worker: usize,
        kind: SpKind,
        meta: &Meta,
        _tag: u64,
        _token: Token,
    ) -> (u64, u64) {
        // The hybrid keys on proc ids and trace tokens, not tags; this
        // override exists only to fold enforced runs' internal nodes.
        if kind.is_parallel() && self.metrics.is_attached() {
            self.spawns.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(c) = self.capture {
            c.fold(worker, internal_record(meta.path, kind));
        }
        (0, 0)
    }

    fn execute_leaf(&self, worker: usize, meta: &Meta, _tag: u64, token: Token) {
        let trace = TraceId::from_token(token);
        let thread = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        // Line 3 of Figure 8: insert the thread into its trace, then run it.
        self.hybrid.thread_executed(meta.proc, thread, trace);
        let mut buf = self.bufs[worker].lock();
        buf.clear();
        if let Some(step) = &meta.step {
            step(&mut StepCtx {
                mem: MemRef::Sink(self.sink),
                trace: Some(&mut buf),
            });
        }
        if let Some(c) = self.capture {
            c.fold(worker, leaf_record(meta.path, meta.step.is_some(), &buf));
        }
        self.sink.check_thread(&self.hybrid.view(trace), thread, &buf);
    }

    fn between_children(&self, _worker: usize, kind: SpKind, meta: &Meta, token: Token) {
        if kind.is_parallel() {
            let spawned = meta.spawned.expect("P-nodes carry their spawned procedure");
            self.hybrid
                .child_returned(meta.proc, spawned, TraceId::from_token(token));
        }
    }

    fn leave_internal(&self, _worker: usize, kind: SpKind, meta: &Meta, token: Token) {
        if kind.is_parallel() {
            self.hybrid.synced(meta.proc, TraceId::from_token(token));
        }
    }

    fn steal(&self, _thief: usize, _victim: usize, meta: &Meta, token: Token) -> StealTokens {
        self.hybrid.split(meta.proc, TraceId::from_token(token)).tokens()
    }
}

fn run_hybrid_with(
    prog: &Proc,
    workers: usize,
    hints: (usize, usize),
    sink: &dyn DetectionSink,
    capture: Option<&SharedCapture>,
) -> SessionRun {
    let metrics = sink.metrics();
    let program = LiveCilk::new(prog);
    let hybrid = LiveSpHybrid::new(LiveHybridConfig {
        max_threads: hints.0,
        max_steals: hints.1,
    });
    if metrics.is_attached() {
        hybrid.attach_metrics(metrics);
    }
    let next_thread = AtomicU32::new(0);
    let visitor = HybridRunVisitor {
        hybrid: &hybrid,
        sink,
        next_thread: &next_thread,
        bufs: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        capture,
        metrics,
        spawns: AtomicU64::new(0),
    };
    metrics.event(EventKind::RunStarted, workers as u64, 0);
    let stats = run_live(
        &program,
        &visitor,
        LiveConfig::with_workers(workers),
        0,
        hybrid.root_trace().to_token(),
        metrics,
    );
    finish_run_metrics(
        metrics,
        stats.total_threads(),
        visitor.spawns.load(Ordering::Relaxed),
        stats.steals,
        stats.elapsed,
    );
    SessionRun {
        threads: stats.total_threads(),
        steals: stats.steals,
        traces: hybrid.num_traces(),
        workers,
        maintainer: "live-sp-hybrid",
        sp_space_bytes: hybrid.space_bytes(),
        sp_grow_events: hybrid.grow_events(),
        elapsed: stats.elapsed,
    }
}

// ---------------------------------------------------------------------------
// Parallel run, naive-locked
// ---------------------------------------------------------------------------

struct NaiveRunVisitor<'a> {
    shared: &'a NaiveSharedSpOrder,
    sink: &'a dyn DetectionSink,
    next_thread: &'a AtomicU32,
    /// Per-worker access buffers, reused across leaves.
    bufs: Vec<Mutex<Vec<Access>>>,
    /// Structural-hash capture when the run is determinacy-enforced.
    capture: Option<&'a SharedCapture>,
    /// Spawn tally, bumped only when a registry is attached.
    metrics: &'a MetricsHandle,
    spawns: AtomicU64,
}

impl LiveVisitor<LiveCilk> for NaiveRunVisitor<'_> {
    fn enter_internal(
        &self,
        worker: usize,
        kind: SpKind,
        meta: &Meta,
        tag: u64,
        _token: Token,
    ) -> (u64, u64) {
        if kind.is_parallel() && self.metrics.is_attached() {
            self.spawns.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(c) = self.capture {
            c.fold(worker, internal_record(meta.path, kind));
        }
        self.shared.expand(tag, kind.is_parallel())
    }

    fn execute_leaf(&self, worker: usize, meta: &Meta, tag: u64, _token: Token) {
        let thread = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        self.shared.execute(tag, thread);
        let mut buf = self.bufs[worker].lock();
        buf.clear();
        if let Some(step) = &meta.step {
            step(&mut StepCtx {
                mem: MemRef::Sink(self.sink),
                trace: Some(&mut buf),
            });
        }
        if let Some(c) = self.capture {
            c.fold(worker, leaf_record(meta.path, meta.step.is_some(), &buf));
        }
        self.sink.check_thread(&self.shared.view(thread), thread, &buf);
    }

    // No `steal`: the shared structure is schedule-independent, so the
    // token passes through unsplit.
}

fn run_naive_with(
    prog: &Proc,
    workers: usize,
    sink: &dyn DetectionSink,
    capture: Option<&SharedCapture>,
) -> SessionRun {
    let metrics = sink.metrics();
    let program = LiveCilk::new(prog);
    let (shared, root_tag) = NaiveSharedSpOrder::new();
    let next_thread = AtomicU32::new(0);
    let visitor = NaiveRunVisitor {
        shared: &shared,
        sink,
        next_thread: &next_thread,
        bufs: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        capture,
        metrics,
        spawns: AtomicU64::new(0),
    };
    metrics.event(EventKind::RunStarted, workers as u64, 0);
    let stats = run_live(
        &program,
        &visitor,
        LiveConfig::with_workers(workers),
        root_tag,
        0,
        metrics,
    );
    finish_run_metrics(
        metrics,
        stats.total_threads(),
        visitor.spawns.load(Ordering::Relaxed),
        stats.steals,
        stats.elapsed,
    );
    SessionRun {
        threads: stats.total_threads(),
        steals: stats.steals,
        traces: 1,
        workers,
        maintainer: "live-naive-locked",
        sp_space_bytes: shared.space_bytes(),
        sp_grow_events: 0,
        elapsed: stats.elapsed,
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Execute a live program as a *session* over a caller-owned
/// [`DetectionSink`] — the reentrant entry point the multi-session
/// `spservice` layer is built on.
///
/// [`run_program`] owns its detector for the life of one run; this function
/// instead borrows whatever sink the caller hands it (a fresh
/// [`LiveDetector`], or a service sink multiplexing recycled epoch-reset
/// arenas), so any number of sessions can execute back to back — or
/// concurrently, each over its own sink — in one process.  Races land in
/// the sink; everything else about the run comes back as a [`SessionRun`].
///
/// [`SessionMode::Serial`] and both 1-worker scheduler modes are
/// deterministic: same program + same mode ⇒ bit-identical accesses,
/// thread ids, and report.
///
/// Runtime events (steals, parks), per-run counters, and substrate-growth
/// events land in the sink's [`DetectionSink::metrics`] handle; reports and
/// [`SessionRun`] stats are bit-identical whether or not it is attached.
pub fn run_session(prog: &Proc, mode: SessionMode, sink: &dyn DetectionSink) -> SessionRun {
    let hints = {
        let d = RunConfig::default();
        (d.max_threads, d.max_steals)
    };
    match mode {
        SessionMode::Serial => run_serial_with(prog, sink, None),
        SessionMode::Hybrid { workers } => run_hybrid_with(prog, workers.max(1), hints, sink, None),
        SessionMode::NaiveLocked { workers } => run_naive_with(prog, workers.max(1), sink, None),
    }
}

// ---------------------------------------------------------------------------
// Determinacy enforcement
// ---------------------------------------------------------------------------

/// Hash-only serial walk over raw value memory: computes a program's
/// serial reference (structural hash + per-node records) without any SP
/// maintenance or detection.
struct ReferenceVisitor<'a> {
    values: &'a [AtomicU64],
    buf: Vec<Access>,
    capture: SerialCapture,
}

impl SerialLiveVisitor<LiveCilk> for ReferenceVisitor<'_> {
    fn enter_internal(&mut self, kind: SpKind, meta: &Meta, _tag: u64) -> (u64, u64) {
        self.capture.fold(internal_record(meta.path, kind));
        (0, 0)
    }

    fn execute_leaf(&mut self, meta: &Meta, _tag: u64) {
        self.buf.clear();
        if let Some(step) = &meta.step {
            step(&mut StepCtx {
                mem: MemRef::Raw(self.values),
                trace: Some(&mut self.buf),
            });
        }
        self.capture
            .fold(leaf_record(meta.path, meta.step.is_some(), &self.buf));
    }
}

fn compute_serial_reference(prog: &Proc, locations: u32) -> SerialReference {
    let program = LiveCilk::new(prog);
    let values: Vec<AtomicU64> = (0..locations).map(|_| AtomicU64::new(0)).collect();
    let mut visitor = ReferenceVisitor {
        values: &values,
        buf: Vec::new(),
        capture: SerialCapture::default(),
    };
    run_live_serial(&program, &mut visitor, 0);
    visitor.capture.into_reference()
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
    let workers = config.workers.max(1);
    let metrics = &config.metrics;
    let detector = LiveDetector::with_metrics(config.locations, workers, metrics.clone());
    let hints = (config.max_threads, config.max_steals);
    if !config.enforce_determinacy {
        let stats = if workers == 1 {
            run_serial_with(prog, &detector, None)
        } else {
            match config.maintainer {
                LiveMaintainer::Hybrid => {
                    run_hybrid_with(prog, workers, hints, &detector, None)
                }
                LiveMaintainer::NaiveLocked => {
                    run_naive_with(prog, workers, &detector, None)
                }
            }
        };
        return Ok(finish_live_run(detector, stats, None));
    }
    if workers == 1 {
        // A serial run *is* a reference execution.  The first enforced run
        // captures the walk inline (no second pass) and seeds the program's
        // cache; every later one checks run-to-run serial stability
        // *streamingly* against the cached reference — comparing each node
        // in place, allocating nothing on the steady-state happy path.
        if let Some(reference) = prog.reference.get() {
            let mut check = SerialCheck::new(reference);
            let stats = run_serial_with(prog, &detector, Some(&mut check));
            let hash = check.hash;
            if hash != reference.hash {
                metrics.add(CounterId::EnforcementMismatches, 1);
                metrics.event(EventKind::EnforcementMismatch, 1, 0);
                return Err(DeterminacyViolation {
                    serial_hash: reference.hash,
                    parallel_hash: hash,
                    workers: 1,
                    divergence: check.into_divergence(),
                });
            }
            return Ok(finish_live_run(detector, stats, Some(hash)));
        }
        let mut capture = SerialCapture::default();
        let stats = run_serial_with(prog, &detector, Some(&mut capture));
        let hash = capture.hash;
        let _ = prog.reference.set(Arc::new(capture.into_reference()));
        return Ok(finish_live_run(detector, stats, Some(hash)));
    }
    let reference = Arc::clone(
        prog.reference
            .get_or_init(|| Arc::new(compute_serial_reference(prog, config.locations))),
    );
    let capture = SharedCapture::new(workers);
    let stats = match config.maintainer {
        LiveMaintainer::Hybrid => {
            run_hybrid_with(prog, workers, hints, &detector, Some(&capture))
        }
        LiveMaintainer::NaiveLocked => {
            run_naive_with(prog, workers, &detector, Some(&capture))
        }
    };
    let hash = capture.hash();
    if hash != reference.hash {
        metrics.add(CounterId::EnforcementMismatches, 1);
        metrics.event(EventKind::EnforcementMismatch, workers as u64, 0);
        // The hot path keeps per-worker hashes only; re-run with full
        // node recording to *name* the first divergent node.  A program
        // that diverged once is schedule-dependent and diverges again
        // with overwhelming likelihood — if this run happens to match
        // the reference after all, the violation is still reported,
        // just without a named node.  The diagnostic re-run's sink is
        // detached, so it cannot double-count the failed run.
        let recording = SharedCapture::recording(workers, reference.nodes.len());
        let rerun_sink = LiveDetector::new(config.locations, workers);
        match config.maintainer {
            LiveMaintainer::Hybrid => {
                run_hybrid_with(prog, workers, hints, &rerun_sink, Some(&recording))
            }
            LiveMaintainer::NaiveLocked => {
                run_naive_with(prog, workers, &rerun_sink, Some(&recording))
            }
        };
        let divergence = if recording.hash() == reference.hash {
            None
        } else {
            diagnose(&reference, &recording.into_records())
        };
        return Err(DeterminacyViolation {
            serial_hash: reference.hash,
            parallel_hash: hash,
            workers,
            divergence,
        });
    }
    Ok(finish_live_run(detector, stats, Some(hash)))
}

/// Execute a live program with **no** instrumentation: no SP maintenance,
/// no shadow memory, no access recording — just the user closures over
/// atomic value memory on the scheduler.  The baseline of the
/// `live_overhead` benchmark.  Returns `(threads, steals, elapsed)`.
pub fn run_uninstrumented(prog: &Proc, workers: usize, locations: u32) -> (u64, u64, Duration) {
    let program = LiveCilk::new(prog);
    let values: Vec<AtomicU64> = (0..locations).map(|_| AtomicU64::new(0)).collect();
    let workers = workers.max(1);
    if workers == 1 {
        struct Bare<'a> {
            values: &'a [AtomicU64],
        }
        impl SerialLiveVisitor<LiveCilk> for Bare<'_> {
            fn execute_leaf(&mut self, meta: &Meta, _tag: u64) {
                if let Some(step) = &meta.step {
                    step(&mut StepCtx {
                        mem: MemRef::Raw(self.values),
                        trace: None,
                    });
                }
            }
        }
        let start = Instant::now();
        let threads = run_live_serial(&program, &mut Bare { values: &values }, 0);
        (threads, 0, start.elapsed())
    } else {
        struct Bare<'a> {
            values: &'a [AtomicU64],
        }
        impl LiveVisitor<LiveCilk> for Bare<'_> {
            fn execute_leaf(&self, _w: usize, meta: &Meta, _tag: u64, _token: Token) {
                if let Some(step) = &meta.step {
                    step(&mut StepCtx {
                        mem: MemRef::Raw(self.values),
                        trace: None,
                    });
                }
            }        }
        let stats = run_live(
            &program,
            &Bare { values: &values },
            LiveConfig::with_workers(workers),
            0,
            0,
            &MetricsHandle::detached(),
        );
        (stats.total_threads(), stats.steals, stats.elapsed)
    }
}
