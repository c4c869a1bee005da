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
//! * multi-worker live runs — under the live two-tier SP-hybrid, the one
//!   parallel maintainer of the live path — must be *location-sound*
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
use spprog::{record_program, run_program, try_run_program, RunConfig};
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
    /// Multi-worker live runs performed (1 when `workers > 1`).
    pub parallel_runs: u64,
    /// 1 if a planted race sits in a thread's third live batch.
    pub split: u64,
}

/// A [`Failure`] of the live sweep.
pub type LiveFailure = Failure;

fn err(backend: &'static str, detail: String) -> Discrepancy {
    Discrepancy { backend, detail }
}

/// Accesses a live step thread records before its first check: `spprog`'s
/// crate-private `BATCH`, which this must follow so that a long run below
/// really spans three batches.
const LIVE_BATCH: usize = 4096;

/// The script of one live or service case, over step threads only: on odd
/// seeds a random shared/private read/write mix, and always planted parallel
/// write-write pairs, each alone on a dedicated fresh location.  On seeds
/// ≡ 3 (mod 8) the first planted pair's first thread also runs more than
/// `2 · LIVE_BATCH` alternating writes and reads of its private location
/// ahead of its planted writes, so a live run checks that thread in three
/// batches and finds its planted race in the third.  Returns the script,
/// the planted locations (ascending) and whether such a split thread was
/// planted.  `salt` keeps the two sweeps' random streams apart.
pub(crate) fn planted_script(
    tree: &ParseTree,
    oracle: &SpOracle<'_>,
    seed: u64,
    salt: u64,
) -> (AccessScript, Vec<u32>, bool) {
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
    let mut pairs = Vec::new();
    if steps.len() >= 2 {
        let wanted = (steps.len() / 4).clamp(1, 4);
        let mut next_loc = SHARED + n as u32;
        let mut attempts = 0;
        while pairs.len() < wanted && attempts < 4_000 {
            attempts += 1;
            let a = steps[rng.gen_range(0..steps.len())];
            let b = steps[rng.gen_range(0..steps.len())];
            if a == b || !oracle.parallel(a, b) {
                continue;
            }
            pairs.push((a, b, next_loc));
            next_loc += 1;
        }
    }
    // A private location adds no race, so the ground truth is unchanged.
    let split = seed % 8 == 3 && !pairs.is_empty();
    if split {
        let (long, private) = (pairs[0].0, SHARED + pairs[0].0 .0);
        for i in 0..2 * LIVE_BATCH + 2 {
            script.push(long, if i % 2 == 0 { Access::write(private) } else { Access::read(private) });
        }
    }
    for &(a, b, loc) in &pairs {
        script.push(a, Access::write(loc));
        script.push(b, Access::write(loc));
    }
    (script, pairs.into_iter().map(|(_, _, loc)| loc).collect(), split)
}

/// Run the full live-vs-offline differential check for one
/// `(shape, size, seed)` case.  `workers >= 2` also runs the program live on
/// that many workers under the live SP-hybrid; shapes without a Cilk
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
    let (script, planted, split) = planted_script(&tree, &oracle, seed, 0x11FE_C0DE);

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

    // Multi-worker live run under the live SP-hybrid.
    let mut parallel_runs = 0u64;
    if workers > 1 {
        let name = "live-sp-hybrid";
        // The smallest capacity hints: both growable substrates start at
        // their 2-slot minimum chunk, so every multi-worker case crosses
        // chunk boundaries (the hints are behavior-neutral — only initial
        // sizes, never limits).  Determinacy enforcement is on: the run's
        // structural hash must equal the serial reference seeded above.
        let config = RunConfig {
            workers,
            locations,
            max_threads: 2,
            max_steals: 0,
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

    Ok(LiveCaseStats {
        threads: n as u64,
        accesses: script.total_accesses() as u64,
        planted: planted.len() as u64,
        emergent: (truth.len() - planted.len()) as u64,
        parallel_runs,
        split: u64::from(split),
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
    /// Cases whose planted race sits in a thread's third live batch.
    pub split: u64,
}

/// Run `cases_per_shape` live differential cases for every Cilk-form shape,
/// shrinking the first failure to a replayable [`LiveFailure`].  Seeds come
/// from the same [`crate::case_seed`] stream as the main sweep (offset so
/// the two sweeps cover different programs); every case runs multi-worker —
/// 2 workers by default, `parallel_workers` on every `parallel_every`-th case.
pub fn run_live_sweep(config: &SweepConfig) -> Result<LiveSweepStats, Box<LiveFailure>> {
    sweep(SweepKind::Live, config, check_live_case, |stats: &mut LiveSweepStats, s| {
        stats.cases += 1;
        stats.threads += s.threads;
        stats.accesses += s.accesses;
        stats.planted += s.planted;
        stats.emergent += s.emergent;
        stats.parallel_runs += s.parallel_runs;
        stats.split += s.split;
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
                assert_eq!(stats.parallel_runs, 1, "the live SP-hybrid ran");
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

    /// Seeds ≡ 3 (mod 8) give a planted thread more than two live batches
    /// of private accesses ahead of its planted write, and stay green.
    #[test]
    fn split_cases_plant_a_race_behind_two_full_batches() {
        for seed in [3u64, 11, 19] {
            let stats = check_live_case(ShapeKind::DivideAndConquer, 10, seed, 2).expect("case is green");
            assert_eq!(stats.split, 1, "seed {seed}");
            assert!(stats.accesses > 2 * LIVE_BATCH as u64, "seed {seed}");
        }
        let other = check_live_case(ShapeKind::DivideAndConquer, 10, 4, 2).expect("case is green");
        assert_eq!(other.split, 0);
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
