//! # spprog — live fork-join programs
//!
//! The rest of this workspace checks pre-built SP parse trees; this crate is
//! the *on-the-fly* system the paper actually describes: a programmatic
//! fork-join API — [`ProcBuilder::step`], [`ProcBuilder::spawn`],
//! [`ProcBuilder::sync`], with [`StepCtx::read`] / [`StepCtx::write`] inside
//! steps — whose user closures execute on the `forkrt` work-stealing
//! scheduler while the SP parse tree **unfolds incrementally** underneath
//! them.  Every fork, sync, and memory access streams into the SP
//! maintainers and the race-detection engine as it happens, so races are
//! reported *during* execution and **no parse tree is ever materialized on
//! the live path**:
//!
//! * serial runs (`workers == 1`) drive the serial SP-order
//!   ([`spmaint::SerialSpOrder`]: the Hebrew list, thread ids standing for
//!   the English one) — deterministic, with reports bit-identical to
//!   offline serial detection on the equivalent tree;
//! * multi-worker runs drive the live two-tier SP-hybrid
//!   ([`sphybrid::LiveSpHybrid`]): the scheduler's steal tokens *are* the
//!   trace splits of paper Figure 8, and queries follow Figure 9.  The §3
//!   naive-locked structure is available as a cross-check
//!   ([`LiveMaintainer::NaiveLocked`]);
//! * detection reuses the sharded shadow memory and the batched per-thread
//!   engine path ([`racedet::LiveDetector`]).
//!
//! [`record_program`] is the offline bridge: one serial execution lowered
//! into the equivalent [`sptree::tree::ParseTree`] + access script, which is
//! how the `spconform` harness differentially checks live against every
//! tree-driven backend.  The repository-root
//! `ARCHITECTURE.md#live-execution-spprog` maps this subsystem to the paper.
//!
//! All of the above assumes the program is *determinate* — its fork-join
//! structure a function of the program, not the schedule.
//! [`RunConfig::enforced`] turns the assumption into a checked guarantee:
//! every run folds a schedule-independent structural hash of the unfolding
//! dag and [`try_run_program`] returns a typed [`DeterminacyViolation`]
//! (naming the first divergent node) instead of a bogus race report when a
//! run's structure diverges from the serial reference — see
//! [`determinacy`] and `ARCHITECTURE.md#enforced-determinacy`.
//!
//! ## Example: a racy program, detected while it runs
//!
//! ```
//! use spprog::{build_proc, run_program, RunConfig};
//!
//! // main: init; spawn {w}; spawn {w}; sync; check — the two children
//! // write location 1 in parallel: a determinacy race.
//! let prog = build_proc(|p| {
//!     p.step(|m| m.write(0, 41));
//!     p.spawn(|c| {
//!         c.step(|m| m.write(1, 10));
//!     });
//!     p.spawn(|c| {
//!         c.step(|m| m.write(1, 20));
//!     });
//!     p.sync();
//!     p.step(|m| {
//!         let v = m.read(0) + 1;
//!         m.write(0, v); // private re-write: owner-hint fast path
//!         assert_eq!(v, 42);
//!     });
//! });
//!
//! // Serial: deterministic, bit-identical to offline detection.
//! let serial = run_program(&prog, &RunConfig::serial(2));
//! assert_eq!(serial.report.racy_locations(), vec![1]);
//! assert_eq!(serial.threads, 8); // steps, child bodies, implicit sync threads
//!
//! // Live on 4 workers: same races, found while the program runs, with the
//! // SP relation maintained by the live SP-hybrid (no materialized tree).
//! let live = run_program(&prog, &RunConfig::with_workers(4, 2));
//! assert_eq!(live.report.racy_locations(), vec![1]);
//! assert_eq!(live.traces as u64, 4 * live.steals + 1);
//! ```

pub mod determinacy;
pub mod program;
pub mod record;
pub mod runtime;
pub(crate) mod unfold;

pub use determinacy::{DeterminacyViolation, Divergence};
pub use program::{build_proc, Proc, ProcBuilder, SpawnFn, StepCtx, StepFn};
pub use record::{record_program, Recorded};
pub use runtime::{
    run_program, run_session, run_uninstrumented, try_run_program,
    LiveMaintainer, LiveRun, RunConfig, SessionMode, SessionRun,
};

#[cfg(test)]
mod tests {
    use super::*;
    use racedet::detect_races;
    use spmaint::{BackendConfig, SpOrder};

    /// fib-style recursion through lazy spawn bodies: the program unfolds at
    /// run time, procedure by procedure.
    fn fib_proc(n: u32, racy_loc: Option<u32>) -> impl Fn(&mut ProcBuilder) + Send + Sync {
        move |p: &mut ProcBuilder| {
            if n < 2 {
                p.step(move |m| {
                    if let Some(loc) = racy_loc {
                        let v = m.read(loc);
                        m.write(loc, v + 1); // every leaf increments: racy
                    }
                });
                return;
            }
            p.spawn(fib_proc(n - 1, racy_loc));
            p.spawn(fib_proc(n - 2, racy_loc));
            p.step(|_| {});
        }
    }

    #[test]
    fn serial_live_report_is_bit_identical_to_offline_detection() {
        let prog = build_proc(fib_proc(7, Some(0)));
        let live = run_program(&prog, &RunConfig::serial(1));
        let rec = record_program(&prog, 1);
        let (offline, _) = detect_races::<SpOrder>(&rec.tree, &rec.script, BackendConfig::serial());
        assert!(!live.report.is_empty(), "fib leaves race on location 0");
        assert_eq!(live.report.races(), offline.races(), "bit-identical reports");
    }

    #[test]
    fn serial_execution_is_deterministic() {
        let prog = build_proc(fib_proc(8, Some(0)));
        let a = run_program(&prog, &RunConfig::serial(1));
        let b = run_program(&prog, &RunConfig::serial(1));
        assert_eq!(a.report.races(), b.report.races());
        assert_eq!(a.threads, b.threads);
        assert_eq!(a.steals, 0);
        // The serial maintainer, under whatever name it reports.
        use spmaint::{SerialSpOrder, StreamingSpBackend};
        let (serial_sp, _) = <SerialSpOrder>::stream_new();
        assert_eq!(a.maintainer, serial_sp.stream_name());
    }

    #[test]
    fn multiworker_hybrid_finds_the_same_racy_locations() {
        let prog = build_proc(fib_proc(9, Some(3)));
        let serial = run_program(&prog, &RunConfig::serial(4));
        for workers in [2usize, 4] {
            let live = run_program(&prog, &RunConfig::with_workers(workers, 4));
            assert_eq!(
                live.report.racy_locations(),
                serial.report.racy_locations(),
                "workers={workers}"
            );
            assert_eq!(live.threads, serial.threads);
            assert_eq!(live.traces as u64, 4 * live.steals + 1);
        }
    }

    #[test]
    fn naive_locked_maintainer_agrees_on_racy_locations() {
        let prog = build_proc(fib_proc(8, Some(0)));
        let serial = run_program(&prog, &RunConfig::serial(1));
        let config = RunConfig {
            workers: 3,
            locations: 1,
            maintainer: LiveMaintainer::NaiveLocked,
            ..RunConfig::default()
        };
        let live = run_program(&prog, &config);
        assert_eq!(live.maintainer, "live-naive-locked");
        assert_eq!(live.report.racy_locations(), serial.report.racy_locations());
    }

    #[test]
    fn race_free_program_stays_silent_on_all_paths() {
        // Each leaf writes its own location; the combiner reads them after
        // the sync — no parallelism on any location.
        let prog = build_proc(|p| {
            for i in 0..8u32 {
                p.spawn(move |c| {
                    c.step(move |m| m.write(i, u64::from(i)));
                });
            }
            p.sync();
            p.step(|m| {
                let total: u64 = (0..8).map(|i| m.read(i)).sum();
                m.write(8, total);
            });
        });
        assert!(run_program(&prog, &RunConfig::serial(9)).report.is_empty());
        assert!(run_program(&prog, &RunConfig::with_workers(4, 9)).report.is_empty());
        let naive = RunConfig {
            workers: 4,
            locations: 9,
            maintainer: LiveMaintainer::NaiveLocked,
            ..RunConfig::default()
        };
        assert!(run_program(&prog, &naive).report.is_empty());
    }

    #[test]
    fn uninstrumented_runs_execute_the_same_threads() {
        let prog = build_proc(fib_proc(8, None));
        let instrumented = run_program(&prog, &RunConfig::serial(1));
        let (threads, steals, _) = run_uninstrumented(&prog, 1, 1);
        assert_eq!(threads, instrumented.threads);
        assert_eq!(steals, 0);
        let (threads, _, _) = run_uninstrumented(&prog, 4, 1);
        assert_eq!(threads, instrumented.threads);
    }

    #[test]
    fn enforced_runs_agree_on_the_structural_hash_across_schedules() {
        let prog = build_proc(fib_proc(9, Some(0)));
        let serial = run_program(&prog, &RunConfig::serial(1).enforced());
        let hash = serial.structural_hash.expect("enforced runs carry a hash");
        for workers in [2usize, 4] {
            for maintainer in [LiveMaintainer::Hybrid, LiveMaintainer::NaiveLocked] {
                let config = RunConfig {
                    workers,
                    locations: 1,
                    maintainer,
                    ..RunConfig::default()
                }
                .enforced();
                let live = try_run_program(&prog, &config).expect("fib is determinate");
                assert_eq!(live.structural_hash, Some(hash), "workers={workers}");
                assert_eq!(
                    live.report.racy_locations(),
                    serial.report.racy_locations(),
                    "enforcement must not perturb detection"
                );
            }
        }
        // The serial bridge folds the same per-node fingerprints.
        assert_eq!(record_program(&prog, 1).structural_hash, hash);
    }

    #[test]
    fn run_program_and_run_session_are_one_dispatch() {
        use racedet::LiveDetector;
        let prog = build_proc(fib_proc(8, Some(0)));
        let session = |mode, workers| {
            let detector = LiveDetector::new(1, workers);
            let run = run_session(&prog, mode, &detector);
            (run, detector.into_report())
        };
        // One worker: every mode is deterministic, so the report is
        // bit-identical to `run_program`'s however the run was entered.
        let serial = run_program(&prog, &RunConfig::serial(1));
        for mode in [
            SessionMode::Serial,
            SessionMode::Hybrid { workers: 1 },
            SessionMode::NaiveLocked { workers: 1 },
        ] {
            let (run, report) = session(mode, 1);
            assert_eq!(report.races(), serial.report.races(), "{mode:?}");
            assert_eq!(run.threads, serial.threads, "{mode:?}");
            assert_eq!((run.workers, run.steals), (1, 0), "{mode:?}");
            if mode == SessionMode::Serial {
                assert_eq!(run.maintainer, serial.maintainer);
            }
        }
        // Two workers: each maintainer answers under the same name and finds
        // the same racy locations, entered either way.
        for (maintainer, mode) in [
            (LiveMaintainer::Hybrid, SessionMode::Hybrid { workers: 2 }),
            (LiveMaintainer::NaiveLocked, SessionMode::NaiveLocked { workers: 2 }),
        ] {
            let config = RunConfig {
                maintainer,
                ..RunConfig::with_workers(2, 1)
            };
            let direct = run_program(&prog, &config);
            let (run, report) = session(mode, 2);
            assert_eq!(run.maintainer, direct.maintainer, "{mode:?}");
            assert_eq!(run.threads, direct.threads, "{mode:?}");
            assert_eq!(report.racy_locations(), direct.report.racy_locations(), "{mode:?}");
            assert_eq!(report.racy_locations(), serial.report.racy_locations(), "{mode:?}");
        }
    }

    #[test]
    fn a_multiworker_run_seeds_the_reference_an_enforced_serial_run_would() {
        // Two fresh `Proc`s of one program: the first is seeded by the
        // throwaway serial pass of an enforced 2-worker run, the second
        // inline by an enforced serial run.
        let seeded = |config: RunConfig| {
            let prog = build_proc(fib_proc(8, Some(0)));
            assert!(prog.reference.get().is_none(), "a fresh Proc has no reference");
            let run = run_program(&prog, &config.enforced());
            let reference = prog.reference.get().expect("the enforced run seeded it");
            assert_eq!(run.structural_hash, Some(reference.hash));
            (reference.hash, reference.nodes.clone())
        };
        assert_eq!(
            seeded(RunConfig::with_workers(2, 1)),
            seeded(RunConfig::serial(1)),
            "same hash, same node records in serial visit order"
        );
    }

    #[test]
    fn unenforced_runs_carry_no_hash_and_never_fail() {
        let prog = build_proc(fib_proc(6, None));
        let run = try_run_program(&prog, &RunConfig::with_workers(3, 1)).unwrap();
        assert_eq!(run.structural_hash, None);
    }

    #[test]
    fn enforcement_caches_the_serial_reference_per_program() {
        // Clones share the cache: the first enforced run seeds it, a clone's
        // enforced run reuses it (observable as identical hashes without a
        // serial run in between — and as hash stability across repeats).
        let prog = build_proc(fib_proc(7, None));
        let clone = prog.clone();
        let a = try_run_program(&prog, &RunConfig::with_workers(4, 1).enforced()).unwrap();
        let b = try_run_program(&clone, &RunConfig::with_workers(2, 1).enforced()).unwrap();
        assert_eq!(a.structural_hash, b.structural_hash);
    }

    #[test]
    fn schedule_dependent_spawn_shape_is_a_typed_violation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        // Every evaluation of the lazy spawn body widens the program: run 1
        // (the serial reference) unfolds one extra leaf, run 2 two, …  The
        // violation must name the first divergent node, identically however
        // many workers checked it.
        let make = || {
            let runs = Arc::new(AtomicU64::new(0));
            build_proc(move |p| {
                let runs = Arc::clone(&runs);
                p.spawn(move |c| {
                    let n = runs.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..n {
                        c.spawn(|g| {
                            g.step(|_| {});
                        });
                    }
                    c.step(|_| {});
                });
            })
        };
        let mut divergences = Vec::new();
        for workers in [2usize, 4] {
            let prog = make();
            let err = try_run_program(&prog, &RunConfig::with_workers(workers, 1).enforced())
                .expect_err("schedule-dependent shape must be rejected");
            assert_eq!(err.workers, workers);
            assert_ne!(err.serial_hash, err.parallel_hash);
            divergences.push(err.divergence.expect("the divergent node is named"));
        }
        assert_eq!(
            divergences[0], divergences[1],
            "the named node is deterministic"
        );
    }

    #[test]
    fn workers_zero_is_clamped_to_serial() {
        let prog = build_proc(fib_proc(5, Some(0)));
        let run = run_program(
            &prog,
            &RunConfig {
                workers: 0,
                locations: 1,
                ..RunConfig::default()
            },
        );
        assert_eq!(run.workers, 1);
        assert_eq!(run.steals, 0);
    }

    #[test]
    fn multiblock_procedures_serialize_across_syncs() {
        // Block 1 spawns a writer of loc 0; block 2 spawns another writer of
        // loc 0.  The sync between them serializes the writes: race-free.
        let prog = build_proc(|p| {
            p.spawn(|c| {
                c.step(|m| m.write(0, 1));
            });
            p.sync();
            p.spawn(|c| {
                c.step(|m| m.write(0, 2));
            });
        });
        assert!(run_program(&prog, &RunConfig::serial(1)).report.is_empty());
        assert!(run_program(&prog, &RunConfig::with_workers(3, 1)).report.is_empty());
    }

    #[test]
    fn data_flows_through_shared_memory_across_workers() {
        // Parallel partial sums into private locations, then a combine step;
        // deterministic result on every schedule.
        let prog = build_proc(|p| {
            for i in 0..6u32 {
                p.spawn(move |c| {
                    c.step(move |m| m.write(i, u64::from(i) * 10));
                });
            }
            p.sync();
            p.step(|m| {
                let total: u64 = (0..6).map(|i| m.read(i)).sum();
                m.write(7, total);
            });
        });
        for workers in [1usize, 4] {
            let rec = record_program(&prog, 8);
            assert_eq!(rec.script.total_accesses(), 6 + 6 + 1);
            let run = run_program(&prog, &RunConfig::with_workers(workers, 8));
            assert!(run.report.is_empty(), "workers={workers}");
        }
    }
}
