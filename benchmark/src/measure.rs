//! The two measured runs.
//!
//! * [`run_untraced`] produces the end-to-end metrics: set-up time, then
//!   rounds of a direct `run_program` pass on 1 worker, one on 2 and a block
//!   of closed-loop sessions, then peak memory.  No span is recorded and no
//!   registry is attached.
//! * [`run_traced`] produces the per-layer metrics by timing the public
//!   entry points of each layer from outside, recording a span around each
//!   call.
//!
//! Every operation's output is checked; a mismatch is a failed operation.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use sp_maintenance::dsu::ConcurrentUnionFind;
use sp_maintenance::om::{ConcurrentOmList, OrderMaintenance, TwoLevelList};
use sp_maintenance::racedet::{detect_races, LiveDetector, RaceReport};
use sp_maintenance::spmaint::{stream_tree, BackendConfig, SpOrder, StreamingSpOrder};
use sp_maintenance::spmetrics::{CounterId, MetricsHandle, MetricsRegistry};
use sp_maintenance::spprog::{
    record_program, run_program, run_session, run_uninstrumented, Recorded, RunConfig, SessionMode,
};
use sp_maintenance::spservice::{DetectionService, ServiceConfig};

use crate::env;
use crate::sinks::{NullSink, TimingSink};
use crate::stats::{median, percentile, quartiles};
use crate::trace::{now_ns, SpanId, Tracer};
use crate::workload::{Program, Sizes, SplitMix64, Workload};

/// Sessions the generator keeps outstanding: eight callers that each wait
/// for a reply.
pub const WINDOW: usize = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Sessions whose spans are kept (the rest are measured, not drawn).
const SESSION_SPAN_CAP: u64 = 2_000;

/// What a run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    pub seconds: f64,
    pub seed: u64,
    pub smoke: bool,
}

impl RunOptions {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// What a run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units live in [`crate::spec`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable detail: sample counts, quartiles, failures.
    pub notes: Vec<String>,
    /// Whether the rows that need two CPUs can be trusted: `nproc >= 2` and,
    /// in a traced run, steals really happened.
    pub w2_valid: bool,
    /// The traced run's spans; `None` for an untraced run.
    pub tracer: Option<Tracer>,
}

/// Counts operations and the ones whose output was wrong.
#[derive(Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checker {
    /// One operation; `problem` is `Some(description)` when its output is
    /// wrong.
    fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Detector workers of the service: everything but the generator's core.
fn service_workers() -> usize {
    env::nproc().saturating_sub(1).max(1)
}

// ---------------------------------------------------------------------------
// Direct passes
// ---------------------------------------------------------------------------

/// One checked `run_program` call.  Returns `(milliseconds, steals)`.
fn direct_job(
    p: &Program,
    reference: &RaceReport,
    config: &RunConfig,
    chk: &mut Checker,
) -> (f64, u64) {
    let start = Instant::now();
    let run = run_program(&p.prog, config);
    let ms = ms_since(start);
    chk.op(if run.workers == 1 {
        // Serial runs are deterministic: the same races in the same order
        // as the reference, hence the same count every repetition.
        (run.report.races() != reference.races()).then(|| {
            format!(
                "{}: 1-worker report differs from the serial reference",
                p.name
            )
        })
    } else if run.traces as u64 != 4 * run.steals + 1 {
        Some(format!(
            "{}: {} traces after {} steals",
            p.name, run.traces, run.steals
        ))
    } else {
        (run.report.racy_locations() != p.expected_racy)
            .then(|| format!("{}: 2-worker run reported the wrong racy locations", p.name))
    });
    (ms, run.steals)
}

/// One pass over the workload's jobs through `run_program` on 1 worker.
/// Returns the milliseconds spent inside `run_program`.
fn direct_pass(w: &Workload, refs: &[RaceReport], chk: &mut Checker) -> f64 {
    w.pass
        .iter()
        .map(|&job| {
            let p = &w.programs[job];
            direct_job(p, &refs[job], &RunConfig::serial(p.locations), chk).0
        })
        .sum()
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

/// What the generator saw of one session.
struct SessionSample {
    submit_ns: f64,
    queue_wait_us: f64,
    run_us: f64,
}

impl SessionSample {
    fn latency_us(&self) -> f64 {
        self.queue_wait_us + self.run_us
    }
}

/// One generator thread keeps `window` sessions outstanding: it submits
/// until the window is full, then waits for the oldest reply, checks it
/// and submits again.  `next_job` returns `None` once the stream is over;
/// the loop then drains.  Returns wall seconds from first submit to last
/// reply.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    service: &DetectionService,
    programs: &[Program],
    refs: Option<&[RaceReport]>,
    window: usize,
    next_job: &mut dyn FnMut() -> Option<usize>,
    chk: &mut Checker,
    mut tracer: Option<&mut Tracer>,
    samples: &mut Vec<SessionSample>,
) -> f64 {
    let start = Instant::now();
    let mut pending = VecDeque::with_capacity(window);
    let mut session_id = 0u64;
    loop {
        while pending.len() < window {
            let Some(job) = next_job() else { break };
            let p = &programs[job];
            let t0 = now_ns();
            let handle = service.submit(&p.prog, p.locations);
            pending.push_back((job, handle, t0, now_ns(), session_id));
            session_id += 1;
        }
        let Some((job, handle, t0, t1, id)) = pending.pop_front() else {
            break;
        };
        let outcome = handle.wait();
        let p = &programs[job];
        let m = outcome.metrics();
        samples.push(SessionSample {
            submit_ns: (t1 - t0) as f64,
            queue_wait_us: m.queue_wait.as_secs_f64() * 1e6,
            run_us: m.run_time.as_secs_f64() * 1e6,
        });
        if let Some(tracer) = tracer.as_deref_mut().filter(|_| id < SESSION_SPAN_CAP) {
            let admitted = t0 + m.queue_wait.as_nanos() as u64;
            let submit = tracer.record("spservice.submit", t0, t1, None, id, 0);
            let wait = tracer.record("spservice.queue_wait", t0, admitted, Some(submit), id, 1);
            let done = admitted + m.run_time.as_nanos() as u64;
            tracer.record("spservice.run", admitted, done, Some(wait), id, 2);
        }
        chk.op(if outcome.is_panicked() {
            Some(format!("{}: session panicked", p.name))
        } else {
            refs.and_then(|refs| {
                (outcome.report().races() != refs[job].races()).then(|| {
                    format!(
                        "{}: session report differs from the standalone serial report",
                        p.name
                    )
                })
            })
        });
    }
    start.elapsed().as_secs_f64()
}

/// Serve exactly `count` jobs from `source`.
fn counted_jobs(mut source: impl FnMut() -> usize, count: usize) -> impl FnMut() -> Option<usize> {
    let mut served = 0;
    move || {
        (served < count).then(|| {
            served += 1;
            source()
        })
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Build the inputs, start a service and push the warm-up sessions through
/// it: everything a user pays before the first measured operation.
fn set_up(name: &str, opts: &RunOptions) -> Option<(Workload, f64)> {
    let start = Instant::now();
    let w = Workload::build(name, &opts.sizes(), opts.seed)?;
    let service = DetectionService::new(ServiceConfig::with_workers(service_workers()));
    let warm_up = w.pass.len().max(2);
    let mut pass = w.pass.iter().cycle().copied();
    closed_loop(
        &service,
        &w.programs,
        None,
        WINDOW,
        &mut counted_jobs(|| pass.next().expect("cycle"), warm_up),
        &mut Checker::default(),
        None,
        &mut Vec::new(),
    );
    service.shutdown();
    Some((w, start.elapsed().as_secs_f64()))
}

/// Compute the references and check them against the expected locations.
fn references(w: &Workload, chk: &mut Checker) -> Vec<RaceReport> {
    let refs = w.references();
    for (p, r) in w.programs.iter().zip(&refs) {
        chk.op((r.racy_locations() != p.expected_racy).then(|| {
            format!(
                "{}: serial reference reports the wrong racy locations",
                p.name
            )
        }));
    }
    refs
}

/// The lower quartile of a run's timings.  Neighbours on a shared box only
/// ever add time, in phases that last seconds, so within one run the fast
/// quartile repeats where the median jumps between a quiet and a disturbed
/// mode (`README.md` has the measured spreads of both).
fn quiet_quartile(samples: &[f64]) -> f64 {
    quartiles(samples).0
}

/// The same for rates, whose quiet side is the upper quartile.
fn quiet_quartile_of_rates(samples: &[f64]) -> f64 {
    quartiles(samples).2
}

fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let (q1, med, q3) = quartiles(samples);
    format!(
        "{name}: median {med:.4} {unit}, quartiles {q1:.4}..{q3:.4}, min {:.4}, p10 {:.4}, p90 {:.4}, max {:.4}, n={}",
        percentile(samples, 0.0),
        percentile(samples, 10.0),
        percentile(samples, 90.0),
        percentile(samples, 100.0),
        samples.len()
    )
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

/// One round of the untraced run.
struct Round {
    run_ms_w1: f64,
    sessions_per_s: f64,
    latency_p50_us: f64,
}

/// Measure the end-to-end metrics of workload `name`; `None` if there is no
/// such workload.
pub fn run_untraced(name: &str, opts: &RunOptions) -> Option<Outcome> {
    let mut chk = Checker::default();
    let mut notes = Vec::new();
    // The speed probe runs between the timed sections, all through the run.
    let mut probes = vec![env::speed_probe_ms()];

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (w, secs) = set_up(name, opts)?;
        setups.push(secs);
        probes.push(env::speed_probe_ms());
        built = Some(w);
    }
    let w = built.expect("SETUP_REPS > 0");
    let refs = references(&w, &mut chk);

    // One round = a direct pass on 1 worker and a block of sessions through
    // the closed loop, so both sample the same stretches of wall time from
    // the first second of the run to the last.  The service outlives the
    // rounds; its workers are parked, not runnable, during a direct pass.
    let (min_rounds, block) = match (opts.smoke, w.service_bound) {
        (true, false) => (2, WINDOW + 2),
        (true, true) => (2, 200),
        (false, false) => (5, WINDOW + 4),
        (false, true) => (10, 2_048),
    };
    let service = DetectionService::new(ServiceConfig::with_workers(service_workers()));
    let mut stream = w.job_stream();
    let mut samples = Vec::new();
    let mut round = |chk: &mut Checker| {
        let run_ms_w1 = direct_pass(&w, &refs, chk);
        samples.clear();
        let wall = closed_loop(
            &service,
            &w.programs,
            Some(&refs),
            WINDOW,
            &mut counted_jobs(&mut stream, block),
            chk,
            None,
            &mut samples,
        );
        // The first window of a block is submitted to an idle service and
        // queues behind 0..WINDOW-1 sessions; the rest see the full window.
        let steady: Vec<f64> = samples[WINDOW.min(block - 1)..]
            .iter()
            .map(SessionSample::latency_us)
            .collect();
        Round {
            run_ms_w1,
            sessions_per_s: block as f64 / wall,
            latency_p50_us: median(&steady),
        }
    };
    round(&mut chk); // warm-up
    let mut rounds: Vec<Round> = Vec::new();
    let phase = Instant::now();
    loop {
        // Stop before the round that would overrun `--seconds`, taking the
        // next round to last as long as the average one so far.
        let elapsed = phase.elapsed().as_secs_f64();
        if rounds.len() >= min_rounds && elapsed + elapsed / rounds.len() as f64 > opts.seconds {
            break;
        }
        rounds.push(round(&mut chk));
        probes.push(env::speed_probe_ms());
    }
    service.shutdown();

    // Every time is reported at the reference CPU speed: scaled by what the
    // probe should read over what it read, quiet quartile like the timings.
    let scale = env::PROBE_REFERENCE_MS / quiet_quartile(&probes);
    let column = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let run_ms_w1 = column(|r| r.run_ms_w1);
    let sessions_per_s = column(|r| r.sessions_per_s);
    let latency_p50_us = column(|r| r.latency_p50_us);
    notes.push(format!(
        "{} rounds in {:.3} s; a round is one pass on 1 worker and {block} sessions \
         (window {WINDOW}, {} detector worker(s))",
        rounds.len(),
        phase.elapsed().as_secs_f64(),
        service_workers()
    ));
    notes.push("as measured:".into());
    notes.push(describe("setup_s", "s", &setups));
    notes.push(describe("run_ms_w1", "ms", &run_ms_w1));
    notes.push(describe(
        "sessions_per_s of a block",
        "1/s",
        &sessions_per_s,
    ));
    notes.push(describe("latency_p50_us of a block", "us", &latency_p50_us));
    notes.push(describe("speed probe", "ms", &probes));
    notes.push(format!(
        "reported at the speed of a {} ms probe: times x {scale:.4}, rates / {scale:.4}",
        env::PROBE_REFERENCE_MS
    ));
    notes.extend(chk.messages.iter().map(|m| format!("FAILED {m}")));

    Some(Outcome {
        attempted: chk.attempted,
        failed: chk.failed,
        metrics: vec![
            ("setup_s", median(&setups) * scale),
            ("run_ms_w1", quiet_quartile(&run_ms_w1) * scale),
            (
                "sessions_per_s",
                quiet_quartile_of_rates(&sessions_per_s) / scale,
            ),
            ("latency_p50_us", quiet_quartile(&latency_p50_us) * scale),
            (
                "peak_rss_mb",
                env::peak_rss_mb().expect("VmHWM in /proc/self/status"),
            ),
        ],
        notes,
        // No 2-worker row here; the service still needs a CPU of its own.
        w2_valid: env::nproc() >= 2,
        tracer: None,
    })
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics
// ---------------------------------------------------------------------------

/// The configurations one layer repetition rotates through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    BareW1,
    BareW2,
    NullW1,
    NullW2,
    Hybrid1,
    TimedW1,
    TimedW2,
    RunW1,
    RunW2,
    MeteredW1,
    MeteredW2,
}

const STEPS: [Step; 11] = [
    Step::BareW1,
    Step::BareW2,
    Step::NullW1,
    Step::NullW2,
    Step::Hybrid1,
    Step::TimedW1,
    Step::TimedW2,
    Step::RunW1,
    Step::RunW2,
    Step::MeteredW1,
    Step::MeteredW2,
];

/// Samples and tallies of the layer phase.
#[derive(Default)]
struct Layers {
    ms: [Vec<f64>; STEPS.len()],
    check_ms_w1: Vec<f64>,
    check_ms_w2: Vec<f64>,
    threads: u64,
    bare_steals_w2: Vec<f64>,
    hybrid_steals_w2: Vec<f64>,
    hybrid_traces_w2: Vec<f64>,
    grow_events_w2: Vec<f64>,
    sp_space_bytes_w1: u64,
    batches: u64,
    accesses: u64,
    races_w1: u64,
    metered_runs: [u64; 2],
}

impl Layers {
    fn median_ms(&self, step: Step) -> f64 {
        median(&self.ms[step as usize])
    }
}

/// One pass over the jobs in configuration `step`, a span around each call
/// into the program.
#[allow(clippy::too_many_arguments)]
fn layer_pass(
    step: Step,
    w: &Workload,
    refs: &[RaceReport],
    registries: &[std::sync::Arc<MetricsRegistry>; 2],
    rep: (SpanId, u64),
    layers: &mut Layers,
    chk: &mut Checker,
    tracer: &mut Tracer,
) {
    let (rep_span, rep_no) = rep;
    let pass_start = now_ns();
    let (mut ms, mut check_ns) = (0.0, 0u64);
    let (mut steals, mut traces, mut grows) = (0u64, 0u64, 0u64);
    let (mut threads, mut batches, mut accesses, mut races) = (0u64, 0u64, 0u64, 0u64);
    let mut worker_spans = Vec::new();
    for &job in &w.pass {
        let p = &w.programs[job];
        match step {
            Step::BareW1 | Step::BareW2 => {
                let workers = if step == Step::BareW1 { 1 } else { 2 };
                let start = Instant::now();
                let (t, s, _) = run_uninstrumented(&p.prog, workers, p.locations);
                ms += ms_since(start);
                threads += t;
                steals += s;
            }
            Step::NullW1 | Step::NullW2 | Step::Hybrid1 => {
                let mode = match step {
                    Step::NullW1 => SessionMode::Serial,
                    Step::NullW2 => SessionMode::Hybrid { workers: 2 },
                    _ => SessionMode::Hybrid { workers: 1 },
                };
                let start = Instant::now();
                let sink = NullSink::new(p.locations);
                let run = run_session(&p.prog, mode, &sink);
                ms += ms_since(start);
                if step == Step::NullW1 {
                    layers.sp_space_bytes_w1 =
                        layers.sp_space_bytes_w1.max(run.sp_space_bytes as u64);
                }
                chk.op(
                    (step != Step::NullW1 && run.traces as u64 != 4 * run.steals + 1).then(|| {
                        format!(
                            "{}: {} traces after {} steals",
                            p.name, run.traces, run.steals
                        )
                    }),
                );
            }
            Step::TimedW1 | Step::TimedW2 => {
                let (mode, workers) = if step == Step::TimedW1 {
                    (SessionMode::Serial, 1)
                } else {
                    (SessionMode::Hybrid { workers: 2 }, 2)
                };
                let start = Instant::now();
                let sink = TimingSink::new(LiveDetector::new(p.locations, workers));
                let run = run_session(&p.prog, mode, &sink);
                ms += ms_since(start);
                for wk in sink.workers() {
                    check_ns += wk.busy_ns;
                    batches += wk.batches;
                    accesses += wk.accesses;
                    worker_spans.push(wk);
                }
                steals += run.steals;
                traces += run.traces as u64;
                grows += run.sp_grow_events;
                let report = sink.into_detector().into_report();
                races += report.len() as u64;
                chk.op(if step == Step::TimedW1 {
                    (report.races() != refs[job].races()).then(|| {
                        format!(
                            "{}: timed 1-worker report differs from the reference",
                            p.name
                        )
                    })
                } else if run.traces as u64 != 4 * run.steals + 1 {
                    Some(format!(
                        "{}: {} traces after {} steals",
                        p.name, run.traces, run.steals
                    ))
                } else {
                    (report.racy_locations() != p.expected_racy).then(|| {
                        format!(
                            "{}: timed 2-worker run reported the wrong locations",
                            p.name
                        )
                    })
                });
            }
            Step::RunW1 | Step::RunW2 | Step::MeteredW1 | Step::MeteredW2 => {
                let workers = if matches!(step, Step::RunW1 | Step::MeteredW1) {
                    1
                } else {
                    2
                };
                let metered = matches!(step, Step::MeteredW1 | Step::MeteredW2);
                let mut config = RunConfig::with_workers(workers, p.locations);
                if metered {
                    config = config.with_metrics(MetricsHandle::attached(&registries[workers - 1]));
                }
                let (job_ms, _) = direct_job(p, &refs[job], &config, chk);
                ms += job_ms;
            }
        }
    }
    let pass_end = now_ns();
    layers.ms[step as usize].push(ms);
    let span_name = match step {
        Step::BareW1 | Step::BareW2 => "forkrt.bare",
        Step::NullW1 | Step::NullW2 | Step::Hybrid1 => "spprog.nullsink",
        _ => "spprog.run",
    };
    let span = tracer.record(span_name, pass_start, pass_end, Some(rep_span), rep_no, 0);
    match step {
        Step::BareW1 => layers.threads = threads,
        Step::BareW2 => layers.bare_steals_w2.push(steals as f64),
        Step::TimedW1 => {
            layers.check_ms_w1.push(check_ns as f64 / 1e6);
            (layers.batches, layers.accesses, layers.races_w1) = (batches, accesses, races);
        }
        Step::TimedW2 => {
            layers.check_ms_w2.push(check_ns as f64 / 1e6);
            layers.hybrid_steals_w2.push(steals as f64);
            layers.hybrid_traces_w2.push(traces as f64);
            layers.grow_events_w2.push(grows as f64);
        }
        Step::MeteredW1 => layers.metered_runs[0] += 1,
        Step::MeteredW2 => layers.metered_runs[1] += 1,
        _ => {}
    }
    // `check_thread` children, aggregated per worker of each job: the span
    // is as long as the worker was busy checking, placed at its first call.
    for (lane, wk) in worker_spans.iter().enumerate() {
        tracer.record(
            "racedet.check_thread",
            wk.first_ns,
            wk.first_ns + wk.busy_ns,
            Some(span),
            rep_no,
            1 + (lane % 2) as u32,
        );
    }
}

/// Nanoseconds per operation of the SP substrates, driven with `n` seeded
/// operations each: `[two-level insert, two-level precedes, concurrent
/// insert, concurrent precedes, union-find make/union/find]`.
fn substrate_costs(n: usize, seed: u64) -> [f64; 5] {
    let n = n.max(1);
    let mut rng = SplitMix64(seed ^ 0x0A11_D5C0);
    let per_op = |start: Instant, ops: usize| start.elapsed().as_secs_f64() * 1e9 / ops as f64;

    let (mut list, base) = TwoLevelList::new();
    let mut nodes = Vec::with_capacity(n + 1);
    nodes.push(base);
    let start = Instant::now();
    for _ in 0..n {
        let after = nodes[rng.below(nodes.len())];
        nodes.push(list.insert_after(after));
    }
    let two_level_insert = per_op(start, n);
    let start = Instant::now();
    let mut hits = 0usize;
    for _ in 0..n {
        let (a, b) = (nodes[rng.below(nodes.len())], nodes[rng.below(nodes.len())]);
        hits += usize::from(list.precedes(a, b));
    }
    black_box(hits);
    let two_level_precedes = per_op(start, n);

    // Initial-capacity hints as `RunConfig::default()` gives the live run.
    let hints = RunConfig::default();
    let (list, base) = ConcurrentOmList::with_capacity(hints.max_steals);
    let mut nodes = Vec::with_capacity(n + 1);
    nodes.push(base);
    let start = Instant::now();
    for _ in 0..n {
        let after = nodes[rng.below(nodes.len())];
        nodes.push(list.insert_after(after));
    }
    let concurrent_insert = per_op(start, n);
    let start = Instant::now();
    let mut hits = 0usize;
    for _ in 0..n {
        let (a, b) = (nodes[rng.below(nodes.len())], nodes[rng.below(nodes.len())]);
        hits += usize::from(list.precedes(a, b));
    }
    black_box(hits);
    let concurrent_precedes = per_op(start, n);

    let sets = ConcurrentUnionFind::with_capacity(hints.max_threads);
    let start = Instant::now();
    for _ in 0..n {
        sets.make_set();
    }
    let mut roots = 0u64;
    for _ in 0..n {
        let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
        roots += u64::from(sets.union(a, b));
    }
    for _ in 0..n {
        roots += u64::from(sets.find(rng.below(n) as u32));
    }
    black_box(roots);
    let union_find = per_op(start, 3 * n);

    [
        two_level_insert,
        two_level_precedes,
        concurrent_insert,
        concurrent_precedes,
        union_find,
    ]
}

/// Measure the per-layer metrics of workload `name`; `None` if there is no
/// such workload.
pub fn run_traced(name: &str, opts: &RunOptions) -> Option<Outcome> {
    let mut chk = Checker::default();
    let mut notes = Vec::new();
    let mut tracer = Tracer::default();
    let w = Workload::build(name, &opts.sizes(), opts.seed)?;
    let refs = references(&w, &mut chk);
    let registries = [MetricsRegistry::new(), MetricsRegistry::new()];

    // Phase A (55% of the time): the layer rotation.
    let mut layers = Layers::default();
    let min_reps = if opts.smoke { 2 } else { 5 };
    let phase = Instant::now();
    let mut rep = 0u64;
    while rep < min_reps || phase.elapsed().as_secs_f64() < opts.seconds * 0.55 {
        let rep_start = now_ns();
        let rep_span = tracer.record("rep", rep_start, rep_start, None, rep, 0);
        for k in 0..STEPS.len() {
            let step = STEPS[(k + rep as usize) % STEPS.len()];
            layer_pass(
                step,
                &w,
                &refs,
                &registries,
                (rep_span, rep),
                &mut layers,
                &mut chk,
                &mut tracer,
            );
        }
        tracer.close(rep_span, now_ns());
        rep += 1;
    }
    notes.push(format!(
        "layer phase: {rep} repetitions of {} configurations",
        STEPS.len()
    ));

    // Phase B: the tree-driven path and the substrates, a few repetitions
    // each over the recorded programs.
    let recorded: Vec<Recorded> = w
        .programs
        .iter()
        .map(|p| record_program(&p.prog, p.locations))
        .collect();
    let nodes: usize = w.pass.iter().map(|&j| recorded[j].tree.num_nodes()).sum();
    let once_reps = if opts.smoke { 2 } else { 3 };
    let (mut replay, mut offline, mut new_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut substrates: [Vec<f64>; 5] = Default::default();
    for i in 0..once_reps {
        let start = Instant::now();
        for &job in &w.pass {
            let sp: StreamingSpOrder = stream_tree(&recorded[job].tree, |_, _| {});
            black_box(sp.num_nodes());
        }
        replay.push(ms_since(start));

        let start = Instant::now();
        for &job in &w.pass {
            let rec = &recorded[job];
            let (report, _) =
                detect_races::<SpOrder>(&rec.tree, &rec.script, BackendConfig::serial());
            chk.op((report.races() != refs[job].races()).then(|| {
                format!(
                    "{}: offline report differs from the live serial one",
                    w.programs[job].name
                )
            }));
        }
        offline.push(ms_since(start));

        let start = Instant::now();
        for &job in &w.pass {
            black_box(LiveDetector::new(w.programs[job].locations, 2));
        }
        new_ms.push(ms_since(start));

        for (samples, cost) in substrates
            .iter_mut()
            .zip(substrate_costs(nodes, opts.seed + i))
        {
            samples.push(cost);
        }
    }
    drop(recorded);

    // Phase C: the service, with a registry attached.  Session counts are
    // fixed so the admission and arena counters compare between runs.
    let sessions = match (opts.smoke, w.service_bound) {
        (true, false) => 8,
        (true, true) => 400,
        (false, false) => 24,
        (false, true) => 8_000,
    };
    let service_registry = MetricsRegistry::new();
    let service = DetectionService::new(
        ServiceConfig::with_workers(service_workers())
            .with_metrics(MetricsHandle::attached(&service_registry)),
    );
    let mut samples = Vec::new();
    let wall = closed_loop(
        &service,
        &w.programs,
        Some(&refs),
        WINDOW,
        &mut counted_jobs(w.job_stream(), sessions),
        &mut chk,
        Some(&mut tracer),
        &mut samples,
    );
    let traced_sessions_per_s = samples.len() as f64 / wall;
    let stats = service.snapshot();
    // Window 1: every admission takes the sequential fast path.
    let mut seq = Vec::new();
    closed_loop(
        &service,
        &w.programs,
        Some(&refs),
        1,
        &mut counted_jobs(w.job_stream(), sessions / 4),
        &mut chk,
        None,
        &mut seq,
    );
    service.shutdown();
    // The same jobs with no service in the way.
    let mut standalone = Vec::new();
    for _ in 0..once_reps {
        let start = Instant::now();
        for &job in &w.pass {
            let p = &w.programs[job];
            let detector = LiveDetector::new(p.locations, 1);
            run_session(&p.prog, SessionMode::Serial, &detector);
            chk.op((detector.into_report().races() != refs[job].races())
                .then(|| format!("{}: standalone session differs from the reference", p.name)));
        }
        standalone.push(ms_since(start));
    }
    let column =
        |f: fn(&SessionSample) -> f64, of: &[SessionSample]| of.iter().map(f).collect::<Vec<_>>();
    let latencies = column(SessionSample::latency_us, &samples);
    let queue_waits = column(|s| s.queue_wait_us, &samples);
    notes.push(format!(
        "service phase: {} sessions at {traced_sessions_per_s:.1}/s traced, window {WINDOW}; {} at window 1",
        samples.len(),
        seq.len()
    ));

    let snapshots = [
        registries[0].snapshot(),
        registries[1].snapshot(),
        service_registry.snapshot(),
    ];
    let per_w1_pass =
        |id: CounterId| snapshots[0].counter(id) as f64 / layers.metered_runs[0].max(1) as f64;
    let events_dropped: u64 = snapshots.iter().map(|s| s.events_dropped).sum();

    for (span, count, total, own) in tracer.self_times() {
        notes.push(format!(
            "span {span}: {count} spans, {:.3} ms total, {:.3} ms self",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    notes.extend(chk.messages.iter().map(|m| format!("FAILED {m}")));

    let bare_w1 = layers.median_ms(Step::BareW1);
    let bare_w2 = layers.median_ms(Step::BareW2);
    let null_w1 = layers.median_ms(Step::NullW1);
    let null_w2 = layers.median_ms(Step::NullW2);
    let hybrid1 = layers.median_ms(Step::Hybrid1);
    let run_w1 = layers.median_ms(Step::RunW1);
    let run_w2 = layers.median_ms(Step::RunW2);
    let check_w1 = median(&layers.check_ms_w1);
    let check_w2 = median(&layers.check_ms_w2);
    let accesses = layers.accesses.max(1) as f64;
    let standalone_ms = median(&standalone);
    let steals_w2 = median(&layers.bare_steals_w2);
    let replay_ms = median(&replay);

    let metrics = vec![
        ("forkrt.bare_ms_w1", bare_w1),
        ("forkrt.bare_ms_w2", bare_w2),
        (
            "forkrt.bare_ns_per_thread_w1",
            bare_w1 * 1e6 / layers.threads.max(1) as f64,
        ),
        ("forkrt.steals_w2", steals_w2),
        ("spprog.nullsink_ms_w1", null_w1),
        ("spprog.nullsink_ms_w2", null_w2),
        ("spprog.run_ms_w1", run_w1),
        ("spprog.run_ms_w2", run_w2),
        ("spmaint.self_ms_w1", null_w1 - bare_w1),
        ("spmaint.replay_ms", replay_ms),
        (
            "spmaint.replay_ns_per_node",
            replay_ms * 1e6 / nodes.max(1) as f64,
        ),
        ("spmaint.sp_space_bytes_w1", layers.sp_space_bytes_w1 as f64),
        ("sphybrid.self_ms_w2", null_w2 - bare_w2),
        ("sphybrid.hybrid1_ms", hybrid1),
        ("sphybrid.tier_cost_x", hybrid1 / null_w1),
        ("sphybrid.steals_w2", median(&layers.hybrid_steals_w2)),
        ("sphybrid.traces_w2", median(&layers.hybrid_traces_w2)),
        ("sphybrid.grow_events_w2", median(&layers.grow_events_w2)),
        ("om.two_level_insert_ns", median(&substrates[0])),
        ("om.two_level_precedes_ns", median(&substrates[1])),
        ("om.concurrent_insert_ns", median(&substrates[2])),
        ("om.concurrent_precedes_ns", median(&substrates[3])),
        ("dsu.concurrent_union_find_ns", median(&substrates[4])),
        ("racedet.check_ms_w1", check_w1),
        ("racedet.check_ms_w2", check_w2),
        ("racedet.check_ns_per_access_w1", check_w1 * 1e6 / accesses),
        ("racedet.check_contention_x", check_w2 / check_w1),
        ("racedet.batches", layers.batches as f64),
        ("racedet.accesses", layers.accesses as f64),
        ("racedet.races_w1", layers.races_w1 as f64),
        (
            "racedet.owner_hint",
            per_w1_pass(CounterId::ShadowOwnerHint),
        ),
        ("racedet.lock_free", per_w1_pass(CounterId::ShadowLockFree)),
        ("racedet.locked", per_w1_pass(CounterId::ShadowLocked)),
        ("racedet.detector_new_ms", median(&new_ms)),
        ("racedet.offline_ms", median(&offline)),
        (
            "spservice.submit_p50_ns",
            median(&column(|s| s.submit_ns, &samples)),
        ),
        ("spservice.queue_wait_p50_us", median(&queue_waits)),
        (
            "spservice.queue_wait_p99_us",
            percentile(&queue_waits, 99.0),
        ),
        (
            "spservice.run_time_p50_us",
            median(&column(|s| s.run_us, &samples)),
        ),
        ("spservice.latency_p99_us", percentile(&latencies, 99.0)),
        (
            "spservice.scheduled_admissions",
            stats.scheduled_admissions as f64,
        ),
        ("spservice.epoch_resets", stats.epoch_resets as f64),
        ("spservice.arenas_created", stats.arenas_created as f64),
        ("spservice.standalone_ms", standalone_ms),
        (
            "spservice.overhead_x",
            w.pass.len() as f64 / traced_sessions_per_s * 1e3 / standalone_ms,
        ),
        (
            "spservice.seq_latency_p50_us",
            median(&column(SessionSample::latency_us, &seq)),
        ),
        (
            "trace.overhead_x_w1",
            layers.median_ms(Step::MeteredW1) / run_w1,
        ),
        (
            "trace.overhead_x_w2",
            layers.median_ms(Step::MeteredW2) / run_w2,
        ),
        ("spmetrics.events_dropped", events_dropped as f64),
        ("derived.overhead_x_w1", run_w1 / bare_w1),
        ("derived.overhead_x_w2", run_w2 / bare_w2),
        ("derived.speedup_w2", run_w1 / run_w2),
        (
            "derived.ns_per_access_w1",
            (run_w1 - bare_w1) * 1e6 / accesses,
        ),
    ];
    Some(Outcome {
        attempted: chk.attempted,
        failed: chk.failed,
        metrics,
        notes,
        w2_valid: env::nproc() >= 2 && steals_w2 > 0.0,
        tracer: Some(tracer),
    })
}
