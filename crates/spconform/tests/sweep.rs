//! The full differential conformance sweep.
//!
//! Runs `SPCONFORM_CASES` (default 32) random programs per shape, derived
//! from `SPCONFORM_SEED` (default 0xC0FFEE), through all six SP backends and
//! cross-checks every queried relation against the LCA oracle plus the race
//! reports of every generic-engine instantiation.  CI runs this in release
//! at 200 cases under several seeds; locally, e.g.:
//!
//! ```text
//! SPCONFORM_SEED=0x1234 SPCONFORM_CASES=500 cargo test -p spconform --release
//! ```

use spconform::{run_live_sweep, run_service_sweep, run_sweep, ShapeKind, SweepConfig};

#[test]
fn differential_sweep_all_shapes() {
    let config = SweepConfig::from_env();
    let shapes = if config.only_shape.is_some() {
        1
    } else {
        ShapeKind::ALL.len() as u64
    };
    match run_sweep(&config) {
        Ok(stats) => {
            assert_eq!(
                stats.cases,
                shapes * config.cases_per_shape as u64,
                "every generated case must be checked"
            );
            assert!(stats.queries > 0 && stats.pair_queries > 0);
            assert!(stats.emergent_races > 0, "random-script check must not be vacuous");
            println!(
                "conformance sweep green: {} cases, {} threads, {} current-queries, \
                 {} pair-queries, {} injected + {} emergent races (seed {:#x})",
                stats.cases,
                stats.threads,
                stats.queries,
                stats.pair_queries,
                stats.injected_races,
                stats.emergent_races,
                config.base_seed
            );
        }
        Err(failure) => panic!("{failure}"),
    }
}

/// The service differential sweep: random batches of planted-race programs
/// submitted as concurrent `spservice` sessions (1-worker and multi-worker
/// pools, all three deterministic session modes, pooled detectors reset per
/// lease) — every session report must be
/// bit-identical to a standalone run of the same program and mode.  Honors
/// the same environment variables as the main sweep, so CI covers it under
/// every seed of the matrix.
#[test]
fn service_differential_sweep_all_cilk_shapes() {
    let config = SweepConfig::from_env();
    let cilk_shapes = match config.only_shape {
        Some(shape) => u64::from(shape.is_cilk_form()),
        None => ShapeKind::ALL.len() as u64 - 1,
    };
    match run_service_sweep(&config) {
        Ok(stats) => {
            assert_eq!(
                stats.cases,
                cilk_shapes * config.cases_per_shape as u64,
                "every Cilk-form case must run through the service"
            );
            assert!(
                cilk_shapes == 0 || stats.planted > 0,
                "planted-race checks must not be vacuous"
            );
            assert_eq!(
                stats.epoch_resets, stats.sessions,
                "every session must reset its detector exactly once"
            );
            println!(
                "service conformance sweep green: {} cases, {} sessions, {} planted races, \
                 {} detector resets (seed {:#x})",
                stats.cases,
                stats.sessions,
                stats.planted,
                stats.epoch_resets,
                config.base_seed
            );
        }
        Err(failure) => panic!("{failure}"),
    }
}

/// The live differential sweep: every Cilk-form case executed both ways —
/// live via the `spprog` spawn/sync API (serial, and multi-worker under the
/// live SP-hybrid) and offline via the recorded parse tree — with serial
/// reports required to be bit-identical and multi-worker reports held to
/// location soundness + planted completeness (exact equality on
/// planted-only scripts).  Honors the same environment variables as the
/// main sweep, so CI covers it under every seed of the matrix.
#[test]
fn live_differential_sweep_all_cilk_shapes() {
    let config = SweepConfig::from_env();
    // All shapes but RandomSp have a Cilk form and run live.
    let cilk_shapes = match config.only_shape {
        Some(shape) => u64::from(shape.is_cilk_form()),
        None => ShapeKind::ALL.len() as u64 - 1,
    };
    match run_live_sweep(&config) {
        Ok(stats) => {
            assert_eq!(
                stats.cases,
                cilk_shapes * config.cases_per_shape as u64,
                "every Cilk-form case must run live"
            );
            assert!(
                cilk_shapes == 0 || stats.planted > 0,
                "planted-race check must not be vacuous"
            );
            assert!(
                stats.parallel_runs >= stats.cases,
                "the live SP-hybrid must run multi-worker on every case"
            );
            println!(
                "live conformance sweep green: {} cases, {} threads, {} accesses, \
                 {} planted + {} emergent races, {} multi-worker live runs (seed {:#x})",
                stats.cases,
                stats.threads,
                stats.accesses,
                stats.planted,
                stats.emergent,
                stats.parallel_runs,
                config.base_seed
            );
        }
        Err(failure) => panic!("{failure}"),
    }
}
