//! The [`DetectionService`]: a pool of detector workers draining an
//! admission queue of [`spprog`] sessions over pooled detectors.
//!
//! Life of a session: [`DetectionService::submit`] computes its
//! [`WorkloadSignature`] and enqueues it; a detector worker admits it
//! (shortest-job-first with aging when ≥ 2 sessions are pending, the
//! sequential fast path otherwise), leases a [`LiveDetector`] from the pool
//! (creating one only on a pool miss), resets it for the session
//! ([`LiveDetector::reset`]: the session's locations refilled in place, its
//! own worker count's stripes), executes the program via
//! [`spprog::run_session`] over it, takes the report, folds the observed
//! runtime into the P² estimator for its signature, returns the detector to
//! the pool, and fulfills the caller's [`SessionHandle`].
//!
//! Per-session execution is deterministic ([`SessionMode::Serial`] by
//! default), so every session's race report is **bit-identical** to a
//! standalone [`spprog::run_program`] of the same program — the service's
//! concurrency lives *between* sessions, not inside them.  The `spconform`
//! service sweep enforces exactly that equivalence on randomized batches.
//!
//! Sessions are **quarantined**, not fatal: a user closure that panics
//! mid-run unwinds into the detector worker, which catches it, returns the
//! detector to the pool as it is, and fulfills the handle with
//! [`SessionOutcome::Panicked`] carrying the panic message.  Nothing needs
//! scrubbing: the next lease's reset refills every location that lease can
//! touch.  The pool keeps serving; [`ServiceStats::sessions_quarantined`]
//! counts the casualties.
//!
//! Observability: attach a [`spmetrics::MetricsHandle`] via
//! [`ServiceConfig::metrics`] and the service emits session lifecycle
//! events (submitted/admitted/started/finished), detector recycle events,
//! and queue-wait / run-time histograms — and every
//! [`SessionOutcome`] carries a per-session [`SessionMetrics`].
//! [`DetectionService::snapshot`] reads live [`ServiceStats`] at any time,
//! mid-flight, without shutting the service down.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use racedet::{LiveDetector, RaceReport};
use spmetrics::{CounterId, EnvKnob, EventKind, HistId, MetricsHandle};
use spprog::{run_session, Proc, SessionMode, SessionRun};

use crate::sched::{select_session, RuntimeEstimator, WorkloadSignature};

/// Environment knob naming the detector worker count.
pub const WORKERS_ENV: &str = "SP_SERVICE_WORKERS";

/// The `SP_SERVICE_WORKERS` knob: a positive worker count, clamped to 512.
pub const WORKERS_KNOB: EnvKnob = EnvKnob {
    name: WORKERS_ENV,
    what: "worker count",
    power_of_two: false,
    min: 1,
    max: 512,
};

/// Validate an `SP_SERVICE_WORKERS` override ([`EnvKnob::parse`]): unset or
/// empty keeps `default`; a typo'd override refuses to start the service,
/// naming the knob.
pub fn parse_workers_env(value: Option<&str>, default: usize) -> usize {
    WORKERS_KNOB.parse(value, default)
}

/// Starvation aging of the admission score: estimate-nanoseconds forgiven
/// per waited nanosecond.  1.0 bounds any session's extra wait by its own
/// estimate (0.0 would be pure, starvation-prone shortest-job-first).
const AGING: f64 = 1.0;

/// Configuration of a [`DetectionService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Detector worker threads draining the admission queue — concurrency
    /// *between* sessions.  It does not size anything inside a session: a
    /// leased detector's shadow stripes follow the session's own
    /// [`SessionMode::workers`] ([`LiveDetector::reset`]).
    pub workers: usize,
    /// Execution mode of sessions submitted via [`DetectionService::submit`]
    /// ([`DetectionService::submit_with`] overrides per session).  The
    /// default, [`SessionMode::Serial`], is deterministic — required for the
    /// bit-identical-to-standalone guarantee.
    pub mode: SessionMode,
    /// Observability sink.  Detached (the default) compiles every
    /// instrumentation site down to an inlined no-op; attached, the service
    /// emits lifecycle events and histograms into the shared registry.
    pub metrics: MetricsHandle,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            mode: SessionMode::Serial,
            metrics: MetricsHandle::detached(),
        }
    }
}

impl ServiceConfig {
    /// A service with `workers` detector workers and default everything else.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            ..ServiceConfig::default()
        }
    }

    /// Replace the observability sink (builder style).
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Worker count from the validated [`WORKERS_ENV`] knob, `default` when
    /// unset.  Panics (naming the knob) on unparseable or zero overrides.
    pub fn workers_from_env(default: usize) -> usize {
        WORKERS_KNOB.from_env(default)
    }
}

/// Per-session observability, present in **every** [`SessionOutcome`] —
/// completed or quarantined — whether or not a metrics registry is
/// attached.
#[derive(Clone, Debug)]
pub struct SessionMetrics {
    /// Submission-to-admission latency (time spent in the queue).
    pub queue_wait: Duration,
    /// Wall-clock execution time (for a panicked session: until the panic
    /// unwound back to the worker).
    pub run_time: Duration,
    /// Races found (0 for a panicked session — its report is discarded).
    pub races: usize,
    /// Successful steals inside the session (0 for serial modes).
    pub steals: u64,
    /// Threads (SP parse-tree leaves) the session executed.
    pub threads: u64,
    /// The scheduler's P² cost estimate at admission (0 for unknown
    /// signatures), in nanoseconds.
    pub estimated_ns: f64,
    /// The observed run time in nanoseconds — what the estimator was fed
    /// (0 for a panicked session, which the estimator never sees).
    pub actual_ns: f64,
    /// True if the session was admitted through the ≤1-pending sequential
    /// fast path rather than the scored shortest-job-first walk.
    pub sequential_admission: bool,
}

/// A session that ran to completion.
#[derive(Debug)]
pub struct SessionCompleted {
    /// Races found — bit-identical to a standalone run of the same program
    /// in the same (deterministic) mode.
    pub report: RaceReport,
    /// Execution statistics from [`spprog::run_session`].
    pub run: SessionRun,
    /// Mode the session executed under.
    pub mode: SessionMode,
    /// Per-session observability.
    pub metrics: SessionMetrics,
}

/// A session whose user code panicked mid-run and was quarantined.
#[derive(Debug)]
pub struct SessionPanicked {
    /// The panic payload, stringified (`"<non-string panic payload>"` when
    /// the payload was neither `&str` nor `String`).
    pub message: String,
    /// Mode the session executed under.
    pub mode: SessionMode,
    /// Per-session observability (races/steals/threads are 0: the
    /// interrupted run's partial state is untrusted and discarded).
    pub metrics: SessionMetrics,
}

/// Everything one finished session reports back: either it completed, or
/// it panicked and was quarantined (the service survives both).
#[derive(Debug)]
pub enum SessionOutcome {
    /// The session ran to completion.
    Completed(SessionCompleted),
    /// The session's user code panicked; its report was discarded and the
    /// worker kept serving.
    Panicked(SessionPanicked),
}

impl SessionOutcome {
    /// The race report of a completed session.
    ///
    /// # Panics
    /// If the session panicked (its partial report is discarded as
    /// untrusted) — check [`Self::is_panicked`] first when panics are
    /// expected.
    pub fn report(&self) -> &RaceReport {
        match self {
            SessionOutcome::Completed(c) => &c.report,
            SessionOutcome::Panicked(p) => {
                panic!("session panicked ({}), it has no race report", p.message)
            }
        }
    }

    /// The execution statistics of a completed session.
    ///
    /// # Panics
    /// If the session panicked.
    pub fn run(&self) -> &SessionRun {
        match self {
            SessionOutcome::Completed(c) => &c.run,
            SessionOutcome::Panicked(p) => {
                panic!("session panicked ({}), it has no run statistics", p.message)
            }
        }
    }

    /// Mode the session executed under (available for both outcomes).
    pub fn mode(&self) -> SessionMode {
        match self {
            SessionOutcome::Completed(c) => c.mode,
            SessionOutcome::Panicked(p) => p.mode,
        }
    }

    /// Per-session observability (available for both outcomes).
    pub fn metrics(&self) -> &SessionMetrics {
        match self {
            SessionOutcome::Completed(c) => &c.metrics,
            SessionOutcome::Panicked(p) => &p.metrics,
        }
    }

    /// True if the session was quarantined after a panic.
    pub fn is_panicked(&self) -> bool {
        matches!(self, SessionOutcome::Panicked(_))
    }

    /// The panic message of a quarantined session, `None` when it
    /// completed.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            SessionOutcome::Completed(_) => None,
            SessionOutcome::Panicked(p) => Some(&p.message),
        }
    }

    /// Unwrap into the completed form.
    ///
    /// # Panics
    /// If the session panicked.
    pub fn into_completed(self) -> SessionCompleted {
        match self {
            SessionOutcome::Completed(c) => c,
            SessionOutcome::Panicked(p) => {
                panic!("session panicked ({}), it did not complete", p.message)
            }
        }
    }
}

/// Waitable handle to a submitted session.
pub struct SessionHandle {
    slot: Arc<OutcomeSlot>,
}

impl SessionHandle {
    /// Block until the session completes and return its outcome.
    pub fn wait(self) -> SessionOutcome {
        let mut done = self.slot.done.lock().expect("outcome mutex poisoned");
        loop {
            if let Some(outcome) = done.take() {
                return outcome;
            }
            done = self.slot.cv.wait(done).expect("outcome mutex poisoned");
        }
    }
}

struct OutcomeSlot {
    done: Mutex<Option<SessionOutcome>>,
    cv: Condvar,
}

/// Counters of a service's lifetime so far, returned live by
/// [`DetectionService::snapshot`] and finally by
/// [`DetectionService::shutdown`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Sessions completed (quarantined sessions are counted separately).
    pub sessions: u64,
    /// Recycled leases: pooled detectors reset for a session that then
    /// completed, one per completed session.  (The name predates the
    /// reset-per-lease store; the benchmark reads it.)
    pub epoch_resets: u64,
    /// Detectors actually allocated (pool misses — the service's whole point
    /// is keeping this far below `sessions`).
    pub arenas_created: u64,
    /// Sessions admitted via the ≤1-pending sequential fast path.
    pub sequential_admissions: u64,
    /// Sessions admitted via the scored shortest-job-first walk.
    pub scheduled_admissions: u64,
    /// Distinct workload signatures with runtime history.
    pub signatures: usize,
    /// Sessions whose user code panicked and were quarantined (report
    /// discarded, handle fulfilled with [`SessionOutcome::Panicked`]).
    pub sessions_quarantined: u64,
}

struct Queued {
    prog: Proc,
    locations: u32,
    mode: SessionMode,
    sig: WorkloadSignature,
    enqueued: Instant,
    slot: Arc<OutcomeSlot>,
}

struct State {
    queue: VecDeque<Queued>,
    estimator: RuntimeEstimator,
    /// Free detectors, reset by whichever session leases one next.
    pool: Vec<LiveDetector>,
    arenas_created: u64,
    sequential_admissions: u64,
    scheduled_admissions: u64,
    epoch_resets: u64,
    quarantined: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    sessions: AtomicU64,
    config: ServiceConfig,
}

/// A multi-session race-detection service (see the module docs).
///
/// ```
/// use spprog::{build_proc, run_program, RunConfig};
/// use spservice::{DetectionService, ServiceConfig};
///
/// // Two children write the same location in parallel: a determinacy race.
/// let racy = build_proc(|p| {
///     p.spawn(|c| { c.step(|m| m.write(1, 10)); });
///     p.spawn(|c| { c.step(|m| m.write(1, 20)); });
///     p.sync();
/// });
/// let standalone = run_program(&racy, &RunConfig::serial(2));
///
/// // Four concurrent sessions of the same program on two detector workers:
/// // every report is bit-identical to the standalone run.
/// let service = DetectionService::new(ServiceConfig::with_workers(2));
/// let handles: Vec<_> = (0..4).map(|_| service.submit(&racy, 2)).collect();
/// for handle in handles {
///     let outcome = handle.wait();
///     assert_eq!(outcome.report().races(), standalone.report.races());
/// }
/// let stats = service.shutdown();
/// assert_eq!(stats.sessions, 4);
/// assert!(stats.arenas_created <= 2, "detectors are recycled, not reallocated");
/// ```
pub struct DetectionService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl DetectionService {
    /// Start a service: spawns `config.workers` detector worker threads.
    pub fn new(config: ServiceConfig) -> Self {
        let worker_count = config.workers.max(1);
        let config = ServiceConfig {
            workers: worker_count,
            ..config
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                estimator: RuntimeEstimator::new(),
                pool: Vec::new(),
                arenas_created: 0,
                sequential_admissions: 0,
                scheduled_admissions: 0,
                epoch_resets: 0,
                quarantined: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            sessions: AtomicU64::new(0),
            config,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        DetectionService { shared, workers }
    }

    /// Submit a program as a session over `locations` shared locations,
    /// executing under the service's default mode.
    pub fn submit(&self, prog: &Proc, locations: u32) -> SessionHandle {
        self.submit_with(prog, locations, self.shared.config.mode)
    }

    /// Submit with an explicit per-session [`SessionMode`].
    pub fn submit_with(&self, prog: &Proc, locations: u32, mode: SessionMode) -> SessionHandle {
        let slot = Arc::new(OutcomeSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        let queued = Queued {
            prog: prog.clone(),
            locations,
            mode,
            sig: WorkloadSignature::of(prog, locations),
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
        };
        let metrics = &self.shared.config.metrics;
        metrics.add(CounterId::SessionsSubmitted, 1);
        metrics.event(EventKind::SessionSubmitted, u64::from(locations), 0);
        {
            let mut state = self.lock_state();
            assert!(!state.shutdown, "cannot submit to a service that is shutting down");
            state.queue.push_back(queued);
        }
        self.shared.work_cv.notify_one();
        SessionHandle { slot }
    }

    /// Sessions completed so far.
    pub fn sessions_completed(&self) -> u64 {
        self.shared.sessions.load(Ordering::Relaxed)
    }

    /// Live lifetime counters — readable at any moment, mid-flight, without
    /// shutting the service down (sessions still queued or executing simply
    /// haven't been counted yet).
    ///
    /// ```
    /// use spprog::build_proc;
    /// use spservice::{DetectionService, ServiceConfig};
    ///
    /// let service = DetectionService::new(ServiceConfig::with_workers(2));
    /// let prog = build_proc(|p| { p.step(|m| m.write(0, 7)); });
    /// service.submit(&prog, 1).wait();
    ///
    /// // The service is still running: snapshot() sees the completed
    /// // session while later submissions remain possible.
    /// let live = service.snapshot();
    /// assert_eq!(live.sessions, 1);
    /// assert_eq!(live.sessions_quarantined, 0);
    ///
    /// service.submit(&prog, 1).wait();
    /// assert_eq!(service.shutdown().sessions, 2);
    /// ```
    pub fn snapshot(&self) -> ServiceStats {
        let state = self.lock_state();
        ServiceStats {
            sessions: self.shared.sessions.load(Ordering::Relaxed),
            epoch_resets: state.epoch_resets,
            arenas_created: state.arenas_created,
            sequential_admissions: state.sequential_admissions,
            scheduled_admissions: state.scheduled_admissions,
            signatures: state.estimator.signatures(),
            sessions_quarantined: state.quarantined,
        }
    }

    /// Drain the queue, stop the workers, and return lifetime counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.join_workers();
        self.snapshot()
    }

    /// The one join path, shared by [`Self::shutdown`] and `Drop` and
    /// idempotent: the first call drains and joins, any later call sees an
    /// empty worker list and returns immediately (so `shutdown` followed by
    /// the implicit drop never double-joins).
    fn join_workers(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.lock_state().shutdown = true;
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("detector worker panicked");
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared.state.lock().expect("service state mutex poisoned")
    }
}

impl Drop for DetectionService {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// One admitted session plus the detector leased for it.
struct Admitted {
    job: Queued,
    detector: LiveDetector,
    estimated_ns: f64,
    sequential: bool,
    queue_wait: Duration,
}

fn worker_loop(shared: &Shared) {
    loop {
        let admitted = {
            let mut state = shared.state.lock().expect("service state mutex poisoned");
            loop {
                if let Some(admitted) = admit(&mut state, shared) {
                    break admitted;
                }
                if state.shutdown {
                    return; // queue drained
                }
                state = shared.work_cv.wait(state).expect("service state mutex poisoned");
            }
        };
        run_one(shared, admitted);
    }
}

/// Pop the next session (sequential fast path or scored SJF walk) and lease
/// it a detector.  Called under the state lock; `None` if the queue is empty.
fn admit(state: &mut State, shared: &Shared) -> Option<Admitted> {
    if state.queue.is_empty() {
        return None;
    }
    let (job, sequential) = if state.queue.len() == 1 {
        // Sequential mode: nothing to rank, skip the scoring walk.
        state.sequential_admissions += 1;
        (state.queue.pop_front().expect("len == 1"), true)
    } else {
        let now = Instant::now();
        let entries: Vec<(f64, f64)> = state
            .queue
            .iter()
            .map(|q| {
                let waited = now.duration_since(q.enqueued).as_nanos() as f64;
                (state.estimator.estimate_ns(q.sig), waited)
            })
            .collect();
        let pick = select_session(&entries, AGING);
        state.scheduled_admissions += 1;
        (state.queue.remove(pick).expect("selected index is in range"), false)
    };
    let estimated_ns = state.estimator.estimate_ns(job.sig);
    let queue_wait = job.enqueued.elapsed();

    // Lease a detector: reuse a free one; on a pool miss create an empty one
    // (the session's reset sizes it, later leases grow it on demand).
    let detector = state.pool.pop().unwrap_or_else(|| {
        state.arenas_created += 1;
        LiveDetector::new(0, 1)
    });
    let metrics = &shared.config.metrics;
    metrics.add(CounterId::SessionsAdmitted, 1);
    metrics.event(
        EventKind::SessionAdmitted,
        estimated_ns as u64,
        u64::from(sequential),
    );
    Some(Admitted {
        job,
        detector,
        estimated_ns,
        sequential,
        queue_wait,
    })
}

/// Execute one admitted session outside the state lock on its reset
/// detector, then return the detector to the pool, feed the estimator, and
/// fulfill the handle.
fn run_one(shared: &Shared, admitted: Admitted) {
    let Admitted {
        job,
        mut detector,
        estimated_ns,
        sequential,
        queue_wait,
    } = admitted;
    let metrics = &shared.config.metrics;
    metrics.event(EventKind::SessionStarted, u64::from(job.locations), 0);

    let started = Instant::now();
    // User closures run inside: a panicking session must not take the
    // detector worker (and every session queued behind it) down with it.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // Striped for this session's own workers, not for the pool's.
        detector.reset(job.locations, job.mode.workers(), metrics.clone());
        let run = run_session(&job.prog, job.mode, &detector);
        (detector.take_report(), run)
    }));
    let run_time = started.elapsed();
    if metrics.is_attached() {
        metrics.record(HistId::QueueWaitNs, duration_ns(queue_wait));
        metrics.record(HistId::SessionRunNs, duration_ns(run_time));
    }

    let session_metrics = |races: usize, steals: u64, threads: u64, actual_ns: f64| SessionMetrics {
        queue_wait,
        run_time,
        races,
        steals,
        threads,
        estimated_ns,
        actual_ns,
        sequential_admission: sequential,
    };

    let outcome = match result {
        Ok((report, run)) => {
            metrics.add(CounterId::ArenaResets, 1);
            metrics.event(EventKind::ArenaRecycle, u64::from(job.locations), 0);
            let actual_ns = run.elapsed.as_nanos() as f64;
            {
                let mut state = shared.state.lock().expect("service state mutex poisoned");
                state.estimator.observe(job.sig, actual_ns);
                state.epoch_resets += 1;
                state.pool.push(detector);
            }
            shared.sessions.fetch_add(1, Ordering::Relaxed);
            metrics.add(CounterId::SessionsCompleted, 1);
            metrics.event(
                EventKind::SessionFinished,
                report.len() as u64,
                duration_ns(run.elapsed),
            );
            let m = session_metrics(report.len(), run.steals, run.threads, actual_ns);
            SessionOutcome::Completed(SessionCompleted {
                report,
                run,
                mode: job.mode,
                metrics: m,
            })
        }
        Err(payload) => {
            // Quarantine: the partial report is discarded and the estimator
            // is NOT fed (a truncated runtime would poison the signature's
            // estimate).  The detector rejoins the pool as it is: the next
            // lease's reset refills everything that lease can touch.
            let message = panic_message(payload.as_ref());
            metrics.add(CounterId::SessionsQuarantined, 1);
            metrics.event(EventKind::SessionFinished, 0, duration_ns(run_time));
            {
                let mut state = shared.state.lock().expect("service state mutex poisoned");
                state.quarantined += 1;
                state.pool.push(detector);
            }
            let m = session_metrics(0, 0, 0, 0.0);
            SessionOutcome::Panicked(SessionPanicked {
                message,
                mode: job.mode,
                metrics: m,
            })
        }
    };

    *job.slot.done.lock().expect("outcome mutex poisoned") = Some(outcome);
    job.slot.cv.notify_all();
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spprog::{build_proc, run_program, RunConfig};

    fn racy_pair() -> Proc {
        build_proc(|p| {
            p.spawn(|c| {
                c.step(|m| m.write(0, 1));
            });
            p.spawn(|c| {
                c.step(|m| m.write(0, 2));
            });
            p.sync();
        })
    }

    fn race_free(n: u32) -> Proc {
        build_proc(move |p| {
            for i in 0..n {
                p.spawn(move |c| {
                    c.step(move |m| m.write(i, u64::from(i)));
                });
            }
            p.sync();
            p.step(move |m| {
                for i in 0..n {
                    assert_eq!(m.read(i), u64::from(i));
                }
            });
        })
    }

    fn panicking() -> Proc {
        build_proc(|p| {
            p.spawn(|c| {
                c.step(|m| m.write(0, 1));
            });
            p.step(|_| panic!("planted session panic"));
        })
    }

    #[test]
    fn reports_match_standalone_runs() {
        let service = DetectionService::new(ServiceConfig::with_workers(2));
        let racy = racy_pair();
        let clean = race_free(6);
        let solo_racy = run_program(&racy, &RunConfig::serial(1));
        let solo_clean = run_program(&clean, &RunConfig::serial(6));
        let handles: Vec<(bool, SessionHandle)> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    (true, service.submit(&racy, 1))
                } else {
                    (false, service.submit(&clean, 6))
                }
            })
            .collect();
        for (is_racy, handle) in handles {
            let outcome = handle.wait();
            let expected = if is_racy { &solo_racy } else { &solo_clean };
            assert_eq!(outcome.report().races(), expected.report.races());
            assert_eq!(outcome.run().threads, expected.threads);
        }
        let stats = service.shutdown();
        assert_eq!(stats.sessions, 10);
        assert!(stats.arenas_created <= 2);
        assert!(stats.epoch_resets >= 8, "recycling, not reallocating");
        assert_eq!(stats.sessions_quarantined, 0);
    }

    #[test]
    fn sequential_fast_path_engages_when_queue_is_short() {
        let service = DetectionService::new(ServiceConfig::with_workers(1));
        let prog = race_free(2);
        // Submitted and drained one at a time: every admission sees ≤1
        // pending.
        for _ in 0..4 {
            let outcome = service.submit(&prog, 2).wait();
            assert!(outcome.metrics().sequential_admission);
        }
        let stats = service.shutdown();
        assert_eq!(stats.sequential_admissions, 4);
        assert_eq!(stats.scheduled_admissions, 0);
    }

    #[test]
    fn estimator_learns_signatures() {
        let service = DetectionService::new(ServiceConfig::with_workers(1));
        for _ in 0..3 {
            service.submit(&racy_pair(), 1).wait();
            service.submit(&race_free(32), 32).wait();
        }
        let stats = service.shutdown();
        assert!(stats.signatures >= 2, "two distinct workload shapes observed");
    }

    #[test]
    fn dropping_a_service_joins_its_workers() {
        let service = DetectionService::new(ServiceConfig::with_workers(2));
        let handle = service.submit(&race_free(2), 2);
        drop(service); // drains the queue before stopping
        assert!(handle.wait().report().races().is_empty());
    }

    #[test]
    fn panicking_sessions_are_quarantined_not_fatal() {
        let service = DetectionService::new(ServiceConfig::with_workers(1));
        let racy = racy_pair();
        let solo = run_program(&racy, &RunConfig::serial(1));

        let poisoned = service.submit(&panicking(), 1).wait();
        assert!(poisoned.is_panicked());
        assert_eq!(poisoned.panic_message(), Some("planted session panic"));
        assert_eq!(poisoned.metrics().races, 0);

        // The same worker (and the same detector, reset for each lease)
        // keeps serving, bit-identically.
        for _ in 0..3 {
            let outcome = service.submit(&racy, 1).wait();
            assert!(!outcome.is_panicked());
            assert_eq!(outcome.report().races(), solo.report.races());
        }
        let stats = service.shutdown();
        assert_eq!(stats.sessions, 3, "panicked sessions are not 'completed'");
        assert_eq!(stats.sessions_quarantined, 1);
    }

    /// A quarantined session leaks nothing into the next lease of its
    /// detector: on a one-worker service (one detector) a session writes
    /// location 0 and panics, and the next session still reads 0 there and
    /// reports its standalone races.
    #[test]
    fn a_panicked_session_leaks_no_values_or_races_into_the_next_lease() {
        let service = DetectionService::new(ServiceConfig::with_workers(1));
        let poisoned = build_proc(|p| {
            p.step(|m| m.write(0, 41));
            p.spawn(|c| {
                c.step(|m| m.write(0, 42));
            });
            p.step(|_| panic!("planted session panic"));
        });
        let fresh = build_proc(|p| {
            p.step(|m| assert_eq!(m.read(0), 0, "a value leaked from the panicked lease"));
            p.spawn(|c| {
                c.step(|m| m.write(0, 1));
            });
            p.spawn(|c| {
                c.step(|m| m.write(0, 2));
            });
            p.sync();
        });
        let solo = run_program(&fresh, &RunConfig::serial(1));
        assert_eq!(solo.report.len(), 1);

        assert!(service.submit(&poisoned, 1).wait().is_panicked());
        let outcome = service.submit(&fresh, 1).wait();
        assert!(!outcome.is_panicked(), "{:?}", outcome.panic_message());
        assert_eq!(outcome.report().races(), solo.report.races());
        let stats = service.shutdown();
        assert_eq!((stats.arenas_created, stats.sessions_quarantined), (1, 1));
    }

    #[test]
    fn snapshot_reads_live_stats_mid_flight() {
        let service = DetectionService::new(ServiceConfig::with_workers(1));
        assert_eq!(service.snapshot().sessions, 0);
        service.submit(&race_free(2), 2).wait();
        let live = service.snapshot();
        assert_eq!(live.sessions, 1);
        assert_eq!(live.epoch_resets, 1, "snapshot sees the recycle immediately");
        service.submit(&race_free(2), 2).wait();
        let done = service.shutdown();
        assert_eq!(done.sessions, 2);
        assert_eq!(done.epoch_resets, 2);
    }

    #[test]
    fn shutdown_then_drop_joins_exactly_once() {
        // `shutdown` consumes the service and Drop still runs after it;
        // the idempotent join path must make the second pass a no-op.
        let service = DetectionService::new(ServiceConfig::with_workers(3));
        service.submit(&race_free(2), 2).wait();
        let stats = service.shutdown(); // Drop of `service` runs right here
        assert_eq!(stats.sessions, 1);
    }

    #[test]
    fn outcomes_carry_session_metrics() {
        let registry = spmetrics::MetricsRegistry::new();
        let service = DetectionService::new(
            ServiceConfig::with_workers(1).with_metrics(MetricsHandle::attached(&registry)),
        );
        let outcome = service.submit(&racy_pair(), 1).wait();
        let m = outcome.metrics();
        assert_eq!(m.races, 1);
        assert_eq!(m.steals, 0, "serial sessions never steal");
        assert!(m.threads >= 3, "two spawns and a continuation");
        assert!(m.actual_ns > 0.0);
        assert!(m.run_time > Duration::ZERO);
        service.shutdown();

        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterId::SessionsSubmitted), 1);
        assert_eq!(snap.counter(CounterId::SessionsAdmitted), 1);
        assert_eq!(snap.counter(CounterId::SessionsCompleted), 1);
        assert_eq!(snap.counter(CounterId::ArenaResets), 1);
        assert_eq!(snap.counter(CounterId::RacesFound), 1);
        assert_eq!(snap.histogram_count(HistId::SessionRunNs), 1);
        assert_eq!(snap.histogram_count(HistId::QueueWaitNs), 1);
        assert_eq!(snap.events_of(EventKind::SessionSubmitted).count(), 1);
        assert_eq!(snap.events_of(EventKind::SessionFinished).count(), 1);
    }

    #[test]
    fn parse_workers_env_accepts_valid_overrides() {
        assert_eq!(parse_workers_env(None, 3), 3);
        assert_eq!(parse_workers_env(Some(""), 3), 3);
        assert_eq!(parse_workers_env(Some("  "), 3), 3);
        assert_eq!(parse_workers_env(Some("8"), 3), 8);
        assert_eq!(parse_workers_env(Some(" 2 "), 3), 2);
        assert_eq!(parse_workers_env(Some("100000"), 3), 512, "clamped");
    }

    #[test]
    #[should_panic(expected = "SP_SERVICE_WORKERS: unparseable value")]
    fn parse_workers_env_rejects_garbage() {
        parse_workers_env(Some("two"), 3);
    }

    #[test]
    #[should_panic(expected = "SP_SERVICE_WORKERS: worker count must be positive")]
    fn parse_workers_env_rejects_zero() {
        parse_workers_env(Some("0"), 3);
    }
}
