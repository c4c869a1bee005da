//! Tier-1 correctness checks of the `spmetrics` observability layer: the
//! counters must be *exact* where the semantics are deterministic (serial
//! runs), the snapshot must agree with the run's own `RunStats`-derived
//! figures, the 1-worker event trace must follow serial visit order, and —
//! the cardinal rule — attaching a registry must not change a single
//! detection result.

use racedet::RaceKind;
use spmetrics::{
    validate_chrome_trace, CounterId, EventKind, HistId, MetricsHandle, MetricsRegistry,
    DEFAULT_SLOTS, DEFAULT_TRACE_BUF,
};
use spprog::{build_proc, run_program, LiveRun, Proc, RunConfig};

/// `pairs` parallel write-write races, one per location, in location order.
fn planted_races(pairs: u32) -> Proc {
    build_proc(move |p| {
        for i in 0..pairs {
            p.spawn(move |c| {
                c.step(move |m| m.write(i, 1));
            });
            p.spawn(move |c| {
                c.step(move |m| m.write(i, 2));
            });
        }
        p.sync();
    })
}

/// `writers` spawned children that each write every one of `locations`
/// locations: each location races `writers - 1` times or more.
fn contended_races(locations: u32, writers: u64) -> Proc {
    build_proc(move |p| {
        for w in 0..writers {
            p.spawn(move |c| {
                c.step(move |m| (0..locations).for_each(|loc| m.write(loc, w)));
            });
        }
        p.sync();
    })
}

/// Race-free fork-join fib(n): every internal call spawns its two
/// recursive children.
fn fib_prog(n: u32) -> Proc {
    fn fib(p: &mut spprog::ProcBuilder, n: u32, slot: u32) {
        if n < 2 {
            p.step(move |m| m.write(slot, u64::from(n)));
            return;
        }
        p.spawn(move |c| fib(c, n - 1, 2 * slot + 1));
        p.spawn(move |c| fib(c, n - 2, 2 * slot + 2));
        p.sync();
        p.step(move |m| {
            let sum = m.read(2 * slot + 1) + m.read(2 * slot + 2);
            m.write(slot, sum);
        });
    }
    build_proc(move |p| fib(p, n, 0))
}

/// A run configuration attached to a fresh registry whose per-slot event
/// rings hold `ring` records.
fn attached_config(
    locations: u32,
    workers: usize,
    ring: usize,
) -> (RunConfig, std::sync::Arc<MetricsRegistry>) {
    let registry = MetricsRegistry::with_options(DEFAULT_SLOTS, ring);
    let config = RunConfig::with_workers(workers, locations)
        .with_metrics(MetricsHandle::attached(&registry));
    (config, registry)
}

#[test]
fn serial_fib_counters_are_exact() {
    let prog = fib_prog(8);
    let locations = 1 << 10;
    let (config, registry) = attached_config(locations, 1, DEFAULT_TRACE_BUF);
    let run = run_program(&prog, &config);
    let snap = registry.snapshot();

    // A serial run steals nothing, parks nothing, and finds no races in a
    // race-free program.
    assert_eq!(snap.counter(CounterId::Steals), 0);
    assert_eq!(snap.counter(CounterId::FailedSteals), 0);
    assert_eq!(snap.counter(CounterId::Parks), 0);
    assert_eq!(snap.counter(CounterId::RacesFound), 0);
    assert!(run.report.is_empty());

    // Snapshot-vs-RunStats equality: the counters must agree with what the
    // run itself reported.
    assert_eq!(snap.counter(CounterId::Threads), run.threads);

    // fib(8) executes 33 internal calls, each with two spawn statements,
    // and every executed spawn unfolds exactly one P-node: the spawn
    // counter is exact, not approximate.
    assert_eq!(snap.counter(CounterId::Spawns), 66);

    // Exactly one run: one RunStarted, one RunFinished, one elapsed sample.
    assert_eq!(snap.events_of(EventKind::RunStarted).count(), 1);
    assert_eq!(snap.events_of(EventKind::RunFinished).count(), 1);
    assert_eq!(snap.histogram_count(HistId::RunElapsedNs), 1);
    let finished = snap.events_of(EventKind::RunFinished).next().unwrap();
    assert_eq!(finished.a, run.threads, "RunFinished carries the thread count");
}

#[test]
fn serial_trace_follows_serial_visit_order() {
    // Planted races on locations 0,1,2 are discovered left-to-right in a
    // serial run; the RaceFound events must appear in exactly that order.
    let prog = planted_races(3);
    let (config, registry) = attached_config(3, 1, DEFAULT_TRACE_BUF);
    let run = run_program(&prog, &config);
    assert_eq!(run.report.racy_locations(), vec![0, 1, 2]);

    let snap = registry.snapshot();
    assert_eq!(snap.counter(CounterId::RacesFound), 3);
    let race_locs: Vec<u64> = snap.events_of(EventKind::RaceFound).map(|e| e.a).collect();
    assert_eq!(race_locs, vec![0, 1, 2], "trace order == serial visit order");

    // All events of a 1-worker run are timestamp-ordered in the snapshot.
    let ts: Vec<u64> = snap.events.iter().map(|e| e.ts_ns).collect();
    let mut sorted = ts.clone();
    sorted.sort_unstable();
    assert_eq!(ts, sorted);
}

#[test]
fn parallel_snapshot_agrees_with_run_stats() {
    let prog = fib_prog(10);
    for ring in [DEFAULT_TRACE_BUF, 8] {
        let (config, registry) = attached_config(1 << 12, 4, ring);
        let run = run_program(&prog, &config);
        let snap = registry.snapshot();

        // Counters never drop, whatever the ring.
        assert_eq!(snap.counter(CounterId::Threads), run.threads, "ring={ring}");
        assert_eq!(snap.counter(CounterId::Steals), run.steals, "ring={ring}");
        assert_eq!(snap.counter(CounterId::RacesFound), run.report.len() as u64, "ring={ring}");
        let steal_events = snap.events_of(EventKind::Steal).count() as u64;
        if ring == DEFAULT_TRACE_BUF {
            assert_eq!(steal_events, run.steals, "one Steal event per successful steal");
        } else {
            // A wrapped ring keeps the newest events and counts every one it
            // lost: RunStarted, the steals and RunFinished are all there or
            // dropped.
            assert!(steal_events <= run.steals);
            assert!(snap.events.len() as u64 + snap.events_dropped >= run.steals + 2);
        }
    }
}

#[test]
fn race_counters_and_events_see_one_race_per_location() {
    // Six writers per location find at least five races on each; the
    // report, the RacesFound counter and the RaceFound events all see the
    // first one only.
    for ring in [DEFAULT_TRACE_BUF, 8] {
        for workers in [1usize, 4] {
            let (config, registry) = attached_config(8, workers, ring);
            let run = run_program(&contended_races(8, 6), &config);
            let snap = registry.snapshot();
            let entries = run.report.len();
            let locations = run.report.racy_locations();
            let at = format!("ring={ring} workers={workers}");
            assert_eq!(locations, (0..8).collect::<Vec<u32>>(), "{at}");
            assert_eq!(entries, 8, "{at}: one entry per location");
            assert_eq!(snap.counter(CounterId::RacesFound), entries as u64, "{at}");
            let race_events = snap.events_of(EventKind::RaceFound).count();
            if ring == DEFAULT_TRACE_BUF {
                assert_eq!(race_events, entries, "{at}: one RaceFound event per report entry");
            } else {
                // Eight RaceFound events plus RunStarted and RunFinished
                // overflow one 8-entry ring: what is not seen is counted.
                assert!(race_events <= entries, "{at}");
                assert!(
                    snap.events.len() + snap.events_dropped as usize >= entries + 2,
                    "{at}: every lost event is counted"
                );
                if workers == 1 {
                    assert!(snap.events_dropped > 0, "{at}: one slot must wrap");
                }
            }
        }
    }
}

#[test]
fn attaching_a_registry_never_changes_detection_results() {
    // The cardinal rule of the observability layer: reports are
    // bit-identical with and without a registry attached.  A multi-worker
    // run numbers its threads in the order the schedule starts them, so
    // there a steal may renumber a race's endpoints and reorder the merged
    // report between any two runs: everything else about every race —
    // its location and its kind — must still agree.
    fn by_location(run: &LiveRun) -> Vec<(u32, RaceKind)> {
        let mut races: Vec<_> = run.report.races().iter().map(|r| (r.loc, r.kind)).collect();
        races.sort_by_key(|&(loc, _)| loc);
        races
    }
    for workers in [1usize, 4] {
        let prog = planted_races(4);
        let detached = run_program(&prog, &RunConfig::with_workers(workers, 4));
        let (config, _registry) = attached_config(4, workers, DEFAULT_TRACE_BUF);
        let attached = run_program(&prog, &config);
        if workers == 1 {
            assert_eq!(attached.report.races(), detached.report.races());
        }
        assert_eq!(
            by_location(&attached),
            by_location(&detached),
            "workers={workers}: attached run diverged from detached run"
        );
        assert_eq!(
            by_location(&attached),
            (0..4).map(|loc| (loc, RaceKind::WriteWrite)).collect::<Vec<_>>(),
            "workers={workers}: one write-write race per planted location"
        );
        assert_eq!(attached.threads, detached.threads);
    }
}

#[test]
fn om_and_dsu_growth_is_observed() {
    // Tiny capacity hints force substrate growth during a multi-worker
    // hybrid run; the growth counters must see every published chunk the
    // run itself reports.
    let prog = fib_prog(10);
    let registry = MetricsRegistry::new();
    let config = RunConfig {
        workers: 4,
        locations: 1 << 12,
        max_threads: 4,
        max_steals: 1,
        metrics: MetricsHandle::attached(&registry),
        ..RunConfig::default()
    };
    let run = run_program(&prog, &config);
    let snap = registry.snapshot();
    assert!(run.sp_grow_events > 0, "tiny hints must force growth");
    assert_eq!(
        snap.counter(CounterId::OmGrowth) + snap.counter(CounterId::DsuGrowth),
        run.sp_grow_events,
        "every published chunk is counted exactly once"
    );
    assert!(
        snap.events_of(EventKind::OmGrow).next().is_some()
            || snap.events_of(EventKind::DsuGrow).next().is_some(),
        "growth must also appear in the event trace"
    );
}

#[test]
fn tiny_rings_lose_events_gracefully_never_corrupt() {
    // An 8-entry ring under a busy run overflows by design: dropped
    // events are *counted*, surviving events are well-formed, and the
    // counters (which never drop) stay exact.
    let registry = MetricsRegistry::with_options(4, 8);
    let prog = planted_races(64);
    let config = RunConfig::with_workers(1, 64)
        .with_metrics(MetricsHandle::attached(&registry));
    let run = run_program(&prog, &config);
    let snap = registry.snapshot();
    assert!(
        snap.events_dropped > 0,
        "64 RaceFound events must wrap an 8-entry ring"
    );
    assert!(snap.events.len() <= 8 * registry.slot_count());
    assert_eq!(snap.counter(CounterId::Threads), run.threads, "counters never drop");
    for e in &snap.events {
        // Every surviving record is a published one, not a torn one.
        assert!(EventKind::ALL.contains(&e.kind));
    }
}

#[test]
fn chrome_trace_round_trips() {
    let prog = planted_races(2);
    let (config, registry) = attached_config(2, 1, DEFAULT_TRACE_BUF);
    run_program(&prog, &config);
    let snap = registry.snapshot();
    let json = snap.chrome_trace_json();
    let n = validate_chrome_trace(&json).expect("emitted trace must validate");
    assert_eq!(n, snap.events.len());
}
