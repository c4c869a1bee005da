//! Service-vs-standalone differential conformance: random *batches* of Cilk
//! programs run both as concurrent [`spservice::DetectionService`] sessions
//! (multiplexed over pooled epoch-reset arenas) and as standalone
//! [`spprog::run_session`] runs over fresh detectors — and every session's
//! race report must be **bit-identical** to its standalone twin (same races,
//! same order, same thread ids).
//!
//! Each case exercises the full service surface the tentpole claims are
//! isolation-safe:
//!
//! * service pools of **1 and ≥ 2 detector workers** (sequential fast path
//!   and concurrent admission both covered),
//! * **both live SP maintainers** plus the serial elision, via the
//!   deterministic one-worker [`SessionMode`]s (`Serial`, `Hybrid`,
//!   `NaiveLocked` — determinism is what makes bit-identity well-defined),
//! * arena **recycling and growth** (an arena is created at its first
//!   session's size, so the batch's differently-sized programs force
//!   `ensure_locations` growth; more sessions than workers forces epoch
//!   resets), and on even seeds a deliberately tiny generation space so the
//!   batch crosses the **wraparound purge** mid-stream.
//!
//! Scripts reuse the live sweep's planting machinery: every program carries
//! parallel write-write pairs on dedicated locations (odd seeds add a random
//! shared/private mix), so the compared reports are non-trivial on every
//! seed.  Failures shrink to a replayable `(shape, size, seed, workers)`
//! like the other sweeps, and [`run_service_sweep`] honors the same
//! `SPCONFORM_SEED` / `SPCONFORM_CASES` environment variables.

use racedet::LiveDetector;
use spprog::{run_session, Proc, SessionMode};
use spservice::{DetectionService, ServiceConfig, SessionHandle};
use sptree::cilk::CilkProgram;
use sptree::oracle::SpOracle;
use workloads::live_from_cilk;

use crate::live::planted_script;
use crate::{
    minimize, one_entry_per_location, sweep, Discrepancy, Failure, ShapeKind, SweepConfig,
    SweepKind,
};

/// Programs per batch: enough that sessions outnumber any worker pool's
/// arenas (forcing recycling) while a single case stays cheap.
const BATCH: usize = 3;

/// The deterministic session modes every batch runs under — the serial
/// elision plus both live SP maintainers pinned to one scheduler worker
/// (the only configurations where "bit-identical" is well-defined).
const MODES: [(&str, SessionMode); 3] = [
    ("service-serial", SessionMode::Serial),
    ("service-sp-hybrid", SessionMode::Hybrid { workers: 1 }),
    ("service-naive-locked", SessionMode::NaiveLocked { workers: 1 }),
];

/// What one service differential case covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceCaseStats {
    /// Sessions run through a service (0 if the shape has no Cilk form and
    /// the case was skipped).
    pub sessions: u64,
    /// Planted parallel write-write races across the batch's programs.
    pub planted: u64,
    /// Epoch resets the services performed (arena recycling, not realloc).
    pub epoch_resets: u64,
    /// Wraparound purges the services performed (even seeds use a tiny
    /// generation space precisely to force these).
    pub epoch_purges: u64,
}

/// A [`Failure`] of the service sweep (`workers` is the detector-worker
/// pool size, `tree` the batch's first program).
pub type ServiceFailure = Failure;

fn err(backend: &'static str, detail: String) -> Discrepancy {
    Discrepancy { backend, detail }
}

/// Seed of the `i`-th program in a batch (a fixed odd-multiplier stream so
/// batch members differ but stay replayable from the case seed).
pub(crate) fn program_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One program of a batch: the live form, its shared-location count, its
/// standalone reference reports per mode, and its planted-race count.
struct BatchProgram {
    live: Proc,
    locations: u32,
    planted: u64,
    references: Vec<racedet::RaceReport>,
}

/// Build the `i`-th program of the batch, reusing the live sweep's
/// plant-on-fresh-locations script machinery, and compute its standalone
/// reference report under every mode in [`MODES`] with a fresh
/// [`LiveDetector`] each — the "one program owns one detector" baseline the
/// service must be indistinguishable from.
fn build_program(
    shape: ShapeKind,
    size: u32,
    seed: u64,
    i: usize,
) -> Result<Option<BatchProgram>, Discrepancy> {
    let seed = program_seed(seed, i);
    let Some(procedure) = shape.build_procedure(size, seed) else {
        return Ok(None);
    };
    let tree = CilkProgram::new(procedure.clone()).build_tree();
    let oracle = SpOracle::new(&tree);
    let (script, planted) = planted_script(&tree, &oracle, seed, 0x5E21_1CE5);

    let live = live_from_cilk(&procedure, &script);
    let locations = script.num_locations();
    let mut references = Vec::with_capacity(MODES.len());
    for (name, mode) in MODES {
        let detector = LiveDetector::new(locations, 1);
        run_session(&live, mode, &detector);
        let report = detector.into_report();
        one_entry_per_location(name, &report)?;
        // Non-vacuity anchor: the planted pairs sit alone on fresh
        // locations, so every deterministic standalone run must flag them —
        // otherwise the bit-identity comparison below would compare silence
        // to silence.
        let locs = report.racy_locations();
        if let Some(missed) = planted.iter().find(|l| !locs.contains(l)) {
            return Err(err(
                name,
                format!(
                    "standalone reference missed planted race on location {missed}; \
                     reported {locs:?} (program {i} of the batch)"
                ),
            ));
        }
        references.push(report);
    }
    Ok(Some(BatchProgram {
        live,
        locations,
        planted: planted.len() as u64,
        references,
    }))
}

/// Run the service differential check for one `(shape, size, seed)` case:
/// build a `BATCH`-sized batch of planted-race programs, submit every
/// `(program, mode)` pair concurrently to a [`DetectionService`] with
/// `service_workers` detector workers (and, always, to a 1-worker service —
/// the sequential fast path), and require every session outcome to be
/// bit-identical to the standalone reference of the same program and mode.
/// Even seeds run both services with a generation space of 4, so the batch
/// crosses an epoch wraparound purge; shapes without a Cilk form are
/// skipped.
pub fn check_service_case(
    shape: ShapeKind,
    size: u32,
    seed: u64,
    service_workers: usize,
) -> Result<ServiceCaseStats, Discrepancy> {
    let mut batch = Vec::with_capacity(BATCH);
    for i in 0..BATCH {
        match build_program(shape, size, seed, i)? {
            Some(program) => batch.push(program),
            None => return Ok(ServiceCaseStats::default()),
        }
    }

    let mut stats = ServiceCaseStats {
        sessions: 0,
        planted: batch.iter().map(|p| p.planted).sum(),
        epoch_resets: 0,
        epoch_purges: 0,
    };

    // Even seeds: a 4-generation arena space, so ~half the recycles in a
    // 9-session batch happen *after* a wraparound purge.
    let gen_limit = if seed % 2 == 0 {
        4
    } else {
        racedet::EpochShadowArena::MAX_GEN_LIMIT
    };

    for workers in [1, service_workers.max(2)] {
        let service = DetectionService::new(ServiceConfig {
            workers,
            gen_limit,
            ..ServiceConfig::default()
        });
        // Submit the whole batch up front so multi-worker pools genuinely
        // interleave sessions over the shared arena pool.
        let mut handles: Vec<(usize, usize, &'static str, SessionHandle)> = Vec::new();
        for (pi, program) in batch.iter().enumerate() {
            for (mi, &(name, mode)) in MODES.iter().enumerate() {
                let handle = service.submit_with(&program.live, program.locations, mode);
                handles.push((pi, mi, name, handle));
            }
        }
        for (pi, mi, name, handle) in handles {
            let outcome = handle.wait();
            let expected = &batch[pi].references[mi];
            one_entry_per_location(name, outcome.report())?;
            if outcome.report().races() != expected.races() {
                return Err(err(
                    name,
                    format!(
                        "session report diverges from the standalone run \
                         (program {pi}, {workers}-worker service, gen_limit {gen_limit}): \
                         {:?} vs {:?}",
                        outcome.report().races(),
                        expected.races()
                    ),
                ));
            }
            stats.sessions += 1;
        }
        let service_stats = service.shutdown();
        let submitted = (batch.len() * MODES.len()) as u64;
        if service_stats.sessions != submitted {
            return Err(err(
                "service-lifecycle",
                format!(
                    "service completed {} sessions but {submitted} were submitted",
                    service_stats.sessions
                ),
            ));
        }
        if service_stats.epoch_resets != submitted {
            return Err(err(
                "service-lifecycle",
                format!(
                    "every session must recycle its arena exactly once: \
                     {} resets for {submitted} sessions",
                    service_stats.epoch_resets
                ),
            ));
        }
        stats.epoch_resets += service_stats.epoch_resets;
        stats.epoch_purges += service_stats.epoch_purges;
    }

    if gen_limit == 4 && stats.epoch_purges == 0 {
        return Err(err(
            "service-lifecycle",
            format!(
                "a gen_limit-4 service ran {} sessions without one wraparound purge",
                stats.sessions
            ),
        ));
    }
    Ok(stats)
}

/// Aggregate statistics of a green service sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceSweepStats {
    /// Cases run (batches submitted to 1- and multi-worker services).
    pub cases: u64,
    /// Sessions run across all services.
    pub sessions: u64,
    /// Planted races across all batch programs.
    pub planted: u64,
    /// Epoch resets across all services (recycles, not reallocations).
    pub epoch_resets: u64,
    /// Wraparound purges across all services.
    pub epoch_purges: u64,
}

/// Run `cases_per_shape` service differential cases for every Cilk-form
/// shape, shrinking the first failure to a replayable [`ServiceFailure`].
/// Seeds draw from the same [`crate::case_seed`] stream as the other sweeps,
/// offset so the three sweeps cover different programs; every case runs
/// against a 1-worker service and a multi-worker one (2 by default,
/// `parallel_workers` on every `parallel_every`-th case).  The validated
/// `SP_SERVICE_WORKERS` knob ([`spservice::parse_workers_env`]) overrides
/// the multi-worker pool size for the whole sweep — CI pins one matrix leg
/// to a fixed pool that way; a zero or unparseable override panics naming
/// the knob instead of silently shrinking the sweep.
pub fn run_service_sweep(config: &SweepConfig) -> Result<ServiceSweepStats, Box<ServiceFailure>> {
    let env_override = std::env::var(spservice::WORKERS_ENV)
        .ok()
        .filter(|raw| !raw.trim().is_empty())
        .map(|raw| spservice::parse_workers_env(Some(&raw), 2));
    let add = |stats: &mut ServiceSweepStats, s: ServiceCaseStats| {
        stats.cases += 1;
        stats.sessions += s.sessions;
        stats.planted += s.planted;
        stats.epoch_resets += s.epoch_resets;
        stats.epoch_purges += s.epoch_purges;
    };
    sweep(SweepKind::Service, config, env_override, check_service_case, add)
}

/// Shrink a failing [`check_service_case`] case to the smallest `size` that still
/// fails and package it for replay (the shrink protocol shared by the three
/// sweeps: only sizes that re-fail are descended into, and the reported
/// discrepancy is the one observed at the returned size).
pub fn minimize_service_failure(
    shape: ShapeKind,
    size: u32,
    seed: u64,
    workers: usize,
    original: Discrepancy,
) -> ServiceFailure {
    minimize(SweepKind::Service, shape, size, seed, workers, original, check_service_case)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_cases_pass_on_every_cilk_shape_both_parities() {
        let mut planted = 0;
        for shape in ShapeKind::ALL {
            if shape.build_procedure(1, 1).is_none() {
                continue;
            }
            // Even seed: tiny gen space (wraparound purges mid-batch);
            // odd seed: full gen space, mixed scripts.
            for seed in [42u64, 43] {
                let stats = check_service_case(shape, 8, seed, 2).unwrap_or_else(|d| {
                    panic!("{} seed {seed}: {} — {}", shape.name(), d.backend, d.detail)
                });
                assert_eq!(stats.sessions, 2 * (BATCH * MODES.len()) as u64);
                planted += stats.planted;
            }
        }
        assert!(planted > 0, "the batches must actually plant races");
    }

    #[test]
    fn even_seeds_actually_cross_wraparound() {
        let stats = check_service_case(ShapeKind::ParallelLoop, 8, 42, 2).expect("case is green");
        assert!(stats.epoch_purges > 0, "gen_limit 4 must purge mid-batch");
    }

    #[test]
    fn random_sp_shapes_are_skipped_not_failed() {
        let stats = check_service_case(ShapeKind::RandomSp, 8, 1, 2).unwrap();
        assert_eq!(stats.sessions, 0);
    }

    #[test]
    fn small_service_sweep_is_green() {
        let config = SweepConfig {
            cases_per_shape: 2,
            ..SweepConfig::default()
        };
        let stats = run_service_sweep(&config).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.cases, 18, "9 Cilk shapes × 2 cases");
        assert!(stats.planted > 0);
        assert_eq!(stats.epoch_resets, stats.sessions, "one recycle per session");
    }
}
