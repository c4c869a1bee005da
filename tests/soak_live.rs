//! Growth soak suite for the budget-free live runtime.
//!
//! The always-on tests run at smoke scale in tier-1: a spawn tree that
//! outgrows deliberately tiny capacity hints (serial report pinned
//! bit-identical to the recorded-program bridge, multi-worker report
//! planted-complete), a program whose thread count exceeds the old
//! `max_threads` default of `2^18`, and a deterministic split loop driving
//! [`sphybrid::LiveSpHybrid`] past the old `max_steals` default of `2^13`
//! (scheduler steals are nondeterministic, so the structure is driven
//! directly).  None of these were *possible* before the growable substrates:
//! each tripped a capacity assert.
//!
//! Set `SP_SOAK=1` (ideally with `--release`) to additionally run the
//! ~10^7-spawn soak on 1 and 4 workers — hours-equivalent spawn counts for a
//! long-lived instrumented process, compressed into one balanced recursion.

use racedet::detect_races;
use spmaint::{BackendConfig, SpOrder};
use spprog::{record_program, run_program, RunConfig};
use sptree::tree::{ProcId, ThreadId};
use workloads::live_growth;

/// Smoke-scale growth: 2^9 leaves through tiny hints.  Serial must be
/// bit-identical to offline detection on the recorded tree; a 4-worker run
/// must grow (not panic) and still report the planted race.
#[test]
fn growth_smoke_serial_bridge_and_multiworker() {
    let w = live_growth(9, true);

    let rec = record_program(&w.prog, w.locations);
    let (offline, _) = detect_races::<SpOrder>(&rec.tree, &rec.script, BackendConfig::serial());
    let serial = run_program(&w.prog, &RunConfig::serial(w.locations));
    assert_eq!(serial.report.races(), offline.races(), "serial vs recorded bridge");
    assert_eq!(serial.report.racy_locations(), w.expected_racy);

    let run = run_program(
        &w.prog,
        &RunConfig {
            workers: 4,
            locations: w.locations,
            max_threads: 2,
            max_steals: 1,
            ..RunConfig::default()
        },
    );
    assert_eq!(run.report.racy_locations(), w.expected_racy, "planted race survives growth");
    assert_eq!(run.traces as u64, 4 * run.steals + 1, "trace accounting");
    assert!(run.sp_grow_events > 0, "tiny hints must force substrate growth");
}

/// A live program whose thread count exceeds the old `max_threads` default
/// (`2^18`) completes on 1 and 4 workers.  Before the growable substrates
/// this configuration was unreachable: the local tier asserted at the budget.
#[test]
fn thread_count_past_old_default_budget() {
    let w = live_growth(17, true);
    let serial = run_program(&w.prog, &RunConfig::serial(w.locations));
    assert!(
        serial.threads > 1 << 18,
        "workload must exceed the old max_threads default (got {} threads)",
        serial.threads
    );
    assert_eq!(serial.report.racy_locations(), w.expected_racy);

    let run = run_program(&w.prog, &RunConfig::with_workers(4, w.locations));
    assert_eq!(run.threads, serial.threads, "thread numbering is schedule-independent");
    assert_eq!(run.report.racy_locations(), w.expected_racy);
    assert_eq!(run.traces as u64, 4 * run.steals + 1, "trace accounting");
}

/// Drive the live SP-hybrid structure through more splits than the old
/// `max_steals` default (`2^13`) allowed.  Steals cannot be forced through
/// the scheduler deterministically, so this exercises the structure the way
/// the runtime does: a chain of splits, each stolen continuation split
/// again.  Order queries must stay correct through every relabel and every
/// chunk publication.
#[test]
fn split_chain_past_old_default_budget() {
    let h = sphybrid::LiveSpHybrid::new(1 << 10, 1 << 7);
    let main = ProcId(0);
    let mut victim = h.root_trace();
    for t in 0..64 {
        h.thread_executed(main, ThreadId(t), victim);
    }
    const SPLITS: u64 = (1 << 13) + 64;
    for _ in 0..SPLITS {
        victim = h.split(main, victim).stolen();
    }
    assert_eq!(h.num_traces() as u64, 4 * SPLITS + 1);
    assert!(h.grow_events() > 0, "the default hints are far below 2^13 steals");
    // Threads executed before the first split precede the deepest stolen
    // continuation; a thread executed on the far side does not.
    for t in 0..64 {
        assert!(h.precedes_current(ThreadId(t), victim), "u{t} precedes the deepest steal");
    }
    h.thread_executed(main, ThreadId(64), victim);
    let parallel_trace = h.split(main, h.root_trace()).stolen();
    assert!(!h.precedes_current(ThreadId(64), parallel_trace));
}

/// `SP_SOAK=1`: ~10^7 spawns (a balanced 2^22-leaf recursion) on 1 and 4
/// workers, default hints — hours of spawn traffic for a real instrumented
/// program.  Run with `--release`; debug mode works but takes minutes.
#[test]
fn soak_ten_million_spawns() {
    if std::env::var("SP_SOAK").is_err() {
        eprintln!("soak_ten_million_spawns: skipped (set SP_SOAK=1 to run)");
        return;
    }
    let w = live_growth(22, true);
    let serial = run_program(&w.prog, &RunConfig::serial(w.locations));
    assert_eq!(serial.report.racy_locations(), w.expected_racy);
    assert!(serial.threads > 10_000_000, "got {} threads", serial.threads);

    let run = run_program(&w.prog, &RunConfig::with_workers(4, w.locations));
    assert_eq!(run.threads, serial.threads);
    assert_eq!(run.report.racy_locations(), w.expected_racy);
    assert_eq!(run.traces as u64, 4 * run.steals + 1, "trace accounting");
    assert!(run.sp_grow_events > 0, "a 10^7-spawn run dwarfs the default hints");
}
