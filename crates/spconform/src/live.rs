//! Live-vs-offline differential conformance: every random Cilk program runs
//! **both ways** — live through the `spprog` spawn/sync API (tree unfolding
//! on the fly, online detection) and offline through the materialized parse
//! tree (the classic engines) — and the reports must line up:
//!
//! * the recorded artifacts of a serial live run must reproduce the
//!   canonical tree lowering *exactly* (same structure, same thread
//!   numbering, same access script);
//! * serial live reports must be **bit-identical** to offline serial
//!   detection (same races, same order, same thread ids);
//! * multi-worker live runs — under both live maintainers, the two-tier
//!   SP-hybrid and the naive-locked strawman — must be *location-sound*
//!   (every reported racy location is truly racy per the brute-force
//!   parallel-conflict oracle) and *complete on planted races* (each
//!   planted parallel write-write pair sits alone on its own location, so
//!   any correct detector must flag it under every schedule).  On
//!   planted-only scripts this tightens to exact racy-location equality
//!   with the tree-driven engine.
//!
//! Cases shrink to a replayable `(shape, size, seed)` like the main sweep.
//! [`run_live_sweep`] honors the same `SPCONFORM_SEED` / `SPCONFORM_CASES`
//! environment variables.

use racedet::{detect_races, Access, AccessScript};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmaint::api::BackendConfig;
use spmaint::SpOrder;
use spprog::{record_program, run_program, try_run_program, LiveMaintainer, RunConfig};
use sptree::cilk::CilkProgram;
use sptree::oracle::SpOracle;
use sptree::tree::{ParseTree, ThreadId};
use workloads::{live_from_cilk, racy_locations_oracle};

use crate::{
    minimize, one_entry_per_location, sweep, tree_sexpr, Discrepancy, Failure, ShapeKind,
    SweepConfig, SweepKind,
};

/// What one live differential case covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveCaseStats {
    /// Threads of the program (0 if the shape has no Cilk form and the case
    /// was skipped).
    pub threads: u64,
    /// Accesses in the generated script.
    pub accesses: u64,
    /// Planted parallel write-write races (found by every run).
    pub planted: u64,
    /// Emergent racy locations of the random mix (serial-exact, checked for
    /// soundness in multi-worker runs).
    pub emergent: u64,
    /// Multi-worker live runs performed (2 maintainers when `workers > 1`).
    pub parallel_runs: u64,
}

/// A [`Failure`] of the live sweep.
pub type LiveFailure = Failure;

fn err(backend: &'static str, detail: String) -> Discrepancy {
    Discrepancy { backend, detail }
}

/// The script of one live or service case, over step threads only: on odd
/// seeds a random shared/private read/write mix, and always planted parallel
/// write-write pairs, each alone on a dedicated fresh location.  Returns the
/// script and the planted locations (ascending).  `salt` keeps the two
/// sweeps' random streams apart.
pub(crate) fn planted_script(
    tree: &ParseTree,
    oracle: &SpOracle<'_>,
    seed: u64,
    salt: u64,
) -> (AccessScript, Vec<u32>) {
    let n = tree.num_threads();
    let steps: Vec<ThreadId> = tree.thread_ids().filter(|&t| tree.work_of(t) > 0).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    const SHARED: u32 = 6;
    let mut script = AccessScript::new(n, SHARED);
    if seed % 2 == 1 {
        for &t in &steps {
            for _ in 0..rng.gen_range(0..3usize) {
                let loc = if rng.gen_bool(0.7) {
                    rng.gen_range(0..SHARED)
                } else {
                    SHARED + t.0
                };
                let access = if rng.gen_bool(0.4) {
                    Access::write(loc)
                } else {
                    Access::read(loc)
                };
                script.push(t, access);
            }
        }
    }
    let mut planted = Vec::new();
    if steps.len() >= 2 {
        let wanted = (steps.len() / 4).clamp(1, 4);
        let mut next_loc = SHARED + n as u32;
        let mut attempts = 0;
        while planted.len() < wanted && attempts < 4_000 {
            attempts += 1;
            let a = steps[rng.gen_range(0..steps.len())];
            let b = steps[rng.gen_range(0..steps.len())];
            if a == b || !oracle.parallel(a, b) {
                continue;
            }
            script.push(a, Access::write(next_loc));
            script.push(b, Access::write(next_loc));
            planted.push(next_loc);
            next_loc += 1;
        }
    }
    (script, planted)
}

/// Run the full live-vs-offline differential check for one
/// `(shape, size, seed)` case.  `workers >= 2` also runs the program live on
/// that many workers under both live maintainers; shapes without a Cilk
/// form ([`ShapeKind::RandomSp`]) are skipped (the live API *is* canonical
/// Cilk form).
///
/// Odd seeds generate a random read/write mix on top of the planted races
/// (multi-worker runs held to soundness + planted completeness); even seeds
/// are planted-only (multi-worker racy-location sets must match the
/// tree-driven engine exactly).
pub fn check_live_case(
    shape: ShapeKind,
    size: u32,
    seed: u64,
    workers: usize,
) -> Result<LiveCaseStats, Discrepancy> {
    let Some(procedure) = shape.build_procedure(size, seed) else {
        return Ok(LiveCaseStats::default());
    };
    let tree = CilkProgram::new(procedure.clone()).build_tree();
    let oracle = SpOracle::new(&tree);
    let n = tree.num_threads();
    let mixed = seed % 2 == 1;
    let (script, planted) = planted_script(&tree, &oracle, seed, 0x11FE_C0DE);

    // Ground truth and the offline serial reference.
    let truth = racy_locations_oracle(&tree, &script);
    if !planted.iter().all(|loc| truth.contains(loc)) {
        return Err(err(
            "live-harness",
            format!("planted locations {planted:?} not all in oracle truth {truth:?}"),
        ));
    }
    let serial_cfg = BackendConfig::serial();
    let (reference, _) = detect_races::<SpOrder>(&tree, &script, serial_cfg);
    one_entry_per_location("sp-order", &reference)?;
    if reference.racy_locations() != truth {
        return Err(err(
            "sp-order",
            format!(
                "offline serial racy locations {:?} != oracle {:?}",
                reference.racy_locations(),
                truth
            ),
        ));
    }

    // The live program, and its recorded artifacts, must reproduce the
    // canonical lowering exactly.
    let live = live_from_cilk(&procedure, &script);
    let locations = script.num_locations();
    let rec = record_program(&live, locations);
    if tree_sexpr(&rec.tree) != tree_sexpr(&tree) {
        return Err(err(
            "spprog-record",
            format!(
                "recorded tree diverges from the Cilk lowering: {} vs {}",
                tree_sexpr(&rec.tree),
                tree_sexpr(&tree)
            ),
        ));
    }
    if rec.script != script {
        return Err(err(
            "spprog-record",
            "recorded access script diverges from the generated script".to_string(),
        ));
    }

    // Serial live run (determinacy-enforced — it seeds the program's serial
    // reference for the multi-worker runs below): bit-identical to offline
    // serial detection, and its structural hash must equal the recorder's.
    let serial_run = run_program(&live, &RunConfig::serial(locations).enforced());
    one_entry_per_location("spprog-serial", &serial_run.report)?;
    if serial_run.report.races() != reference.races() {
        return Err(err(
            "spprog-serial",
            format!(
                "serial live report diverges from offline sp-order: {:?} vs {:?}",
                serial_run.report.races(),
                reference.races()
            ),
        ));
    }
    if serial_run.structural_hash != Some(rec.structural_hash) {
        return Err(err(
            "spprog-serial",
            format!(
                "serial structural hash {:?} != recorded bridge hash {:#x}",
                serial_run.structural_hash, rec.structural_hash
            ),
        ));
    }

    // Multi-worker live runs, both maintainers.
    let mut parallel_runs = 0u64;
    if workers > 1 {
        for (name, maintainer) in [
            ("live-sp-hybrid", LiveMaintainer::Hybrid),
            ("live-naive-locked", LiveMaintainer::NaiveLocked),
        ] {
            // Tiny capacity hints: every multi-worker case outgrows the
            // initial chunks of the growable substrates, so the sweep
            // exercises chunk-boundary crossings on every seed (the hints
            // are behavior-neutral — only initial sizes, never limits).
            // Determinacy enforcement is on: every multi-worker run's
            // structural hash must equal the serial reference seeded above.
            let config = RunConfig {
                workers,
                locations,
                maintainer,
                max_threads: 4,
                max_steals: 1,
                enforce_determinacy: true,
                ..RunConfig::default()
            };
            let run = match try_run_program(&live, &config) {
                Ok(run) => run,
                Err(violation) => return Err(err(name, violation.to_string())),
            };
            parallel_runs += 1;
            if run.structural_hash != serial_run.structural_hash {
                return Err(err(
                    name,
                    format!(
                        "structural hash {:?} != serial reference {:?} ({workers} workers)",
                        run.structural_hash, serial_run.structural_hash
                    ),
                ));
            }
            one_entry_per_location(name, &run.report)?;
            let locs = run.report.racy_locations();
            if let Some(bogus) = locs.iter().find(|l| !truth.contains(l)) {
                return Err(err(
                    name,
                    format!(
                        "unsound: location {bogus} reported racy ({workers} workers) \
                         but oracle truth is {truth:?}"
                    ),
                ));
            }
            if let Some(missed) = planted.iter().find(|l| !locs.contains(l)) {
                return Err(err(
                    name,
                    format!(
                        "planted race on location {missed} missed ({workers} workers); \
                         reported {locs:?}"
                    ),
                ));
            }
            if !mixed && locs != truth {
                return Err(err(
                    name,
                    format!(
                        "planted-only script: racy locations {locs:?} != tree-driven \
                         {truth:?} ({workers} workers)"
                    ),
                ));
            }
        }
    }

    Ok(LiveCaseStats {
        threads: n as u64,
        accesses: script.total_accesses() as u64,
        planted: planted.len() as u64,
        emergent: (truth.len() - planted.len()) as u64,
        parallel_runs,
    })
}

/// Aggregate statistics of a green live sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveSweepStats {
    /// Cases run (programs executed both ways).
    pub cases: u64,
    /// Total threads across all programs.
    pub threads: u64,
    /// Total accesses across all scripts.
    pub accesses: u64,
    /// Planted races, all found by every run.
    pub planted: u64,
    /// Emergent racy locations of the mixed scripts.
    pub emergent: u64,
    /// Multi-worker live runs performed.
    pub parallel_runs: u64,
}

/// Run `cases_per_shape` live differential cases for every Cilk-form shape,
/// shrinking the first failure to a replayable [`LiveFailure`].  Seeds come
/// from the same [`crate::case_seed`] stream as the main sweep (offset so
/// the two sweeps cover different programs); every case runs multi-worker —
/// 2 workers by default, `parallel_workers` on every `parallel_every`-th case.
pub fn run_live_sweep(config: &SweepConfig) -> Result<LiveSweepStats, Box<LiveFailure>> {
    sweep(SweepKind::Live, config, None, check_live_case, |stats: &mut LiveSweepStats, s| {
        stats.cases += 1;
        stats.threads += s.threads;
        stats.accesses += s.accesses;
        stats.planted += s.planted;
        stats.emergent += s.emergent;
        stats.parallel_runs += s.parallel_runs;
    })
}

/// Shrink a failing [`check_live_case`] case to the smallest `size` that still
/// fails and package it for replay (the shrink protocol shared by the three
/// sweeps: only sizes that re-fail are descended into, and the reported
/// discrepancy is the one observed at the returned size).
pub fn minimize_live_failure(
    shape: ShapeKind,
    size: u32,
    seed: u64,
    workers: usize,
    original: Discrepancy,
) -> LiveFailure {
    minimize(SweepKind::Live, shape, size, seed, workers, original, check_live_case)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_cases_pass_on_every_cilk_shape_both_script_modes() {
        for shape in ShapeKind::ALL {
            if shape.build_procedure(1, 1).is_none() {
                continue;
            }
            // Even seed: planted-only (exact racy-location equality);
            // odd seed: mixed (soundness + planted completeness).
            for seed in [42u64, 43] {
                let stats = check_live_case(shape, 8, seed, 2).unwrap_or_else(|d| {
                    panic!("{} seed {seed}: {} — {}", shape.name(), d.backend, d.detail)
                });
                assert!(stats.threads > 0);
                assert_eq!(stats.parallel_runs, 2, "both live maintainers ran");
            }
        }
    }

    #[test]
    fn random_sp_shapes_are_skipped_not_failed() {
        let stats = check_live_case(ShapeKind::RandomSp, 8, 1, 2).unwrap();
        assert_eq!(stats.threads, 0);
    }

    #[test]
    fn planted_races_are_not_vacuous_across_seeds() {
        let mut planted = 0;
        for seed in 0..8u64 {
            planted += check_live_case(ShapeKind::DivideAndConquer, 10, seed, 2)
                .expect("case is green")
                .planted;
        }
        assert!(planted > 0, "the plant machinery must actually plant races");
    }

    #[test]
    fn shrunk_data_dependent_cases_replay_to_the_same_structural_hash() {
        // The minimizer never mutates a realized tree: it only shrinks
        // `size` and regenerates the whole case from `(shape, size, seed)`.
        // For the data-dependent shapes — whose spawn structure is a
        // function of the seeded input *values* — that discipline is what
        // keeps a shrunk failure replayable: an independently rebuilt
        // program must unfold to the bit-identical structure, pinned here
        // through the schedule-independent structural hash.
        for shape in [ShapeKind::Quicksort, ShapeKind::BranchBound, ShapeKind::DataReduction] {
            // Sizes a shrink may land on, including the floor.
            for size in [0u32, 3, 9] {
                let seed = 0x0DA7_ADE9u64;
                let replay_hash = || {
                    let procedure = shape.build_procedure(size, seed).expect("Cilk-form shape");
                    let tree = CilkProgram::new(procedure.clone()).build_tree();
                    let script = AccessScript::new(tree.num_threads(), 1);
                    let live = live_from_cilk(&procedure, &script);
                    record_program(&live, 1).structural_hash
                };
                assert_eq!(replay_hash(), replay_hash(), "{} size {size}", shape.name());
            }
        }
    }

    #[test]
    fn small_live_sweep_is_green() {
        let config = SweepConfig {
            cases_per_shape: 3,
            ..SweepConfig::default()
        };
        let stats = run_live_sweep(&config).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.cases, 27, "9 Cilk shapes × 3 cases");
        assert!(stats.planted > 0);
        assert!(stats.parallel_runs >= stats.cases, "every case ran multi-worker");
    }
}
