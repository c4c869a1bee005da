//! Tier-1 end-to-end checks of the detection service (`spservice`): many
//! concurrent sessions — a mix of race-free and planted-race programs —
//! multiplexed over pooled detectors reset per lease, with every session's
//! race report required to be **bit-identical** to a standalone run of the
//! same program, including after one detector has served many leases of
//! different sizes.

use racedet::{LiveDetector, RaceReport};
use spprog::{build_proc, run_program, run_session, Proc, RunConfig, SessionMode};
use spservice::{DetectionService, ServiceConfig, SessionHandle};

/// `pairs` parallel write-write races, each alone on its own location, plus
/// a race-free reduction over the locations after the sync.
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
        p.step(move |m| {
            for i in 0..pairs {
                let v = m.read(i);
                assert!(v == 1 || v == 2, "a planted writer got there first");
            }
        });
    })
}

/// `n` children each writing a private location; the parent checks the sum
/// after the sync.  No races, and any cross-session bleed-through of shadow
/// *or* value state would flip either the report or the assertion.
fn race_free_sum(n: u32) -> Proc {
    build_proc(move |p| {
        for i in 0..n {
            p.spawn(move |c| {
                c.step(move |m| m.write(i, u64::from(i) + 1));
            });
        }
        p.sync();
        p.step(move |m| {
            let total: u64 = (0..n).map(|i| m.read(i)).sum();
            assert_eq!(total, u64::from(n) * u64::from(n + 1) / 2);
        });
    })
}

/// The workload mix: (label, program, locations, expected racy locations).
fn mixed_workloads() -> Vec<(&'static str, Proc, u32)> {
    vec![
        ("racy-1", planted_races(1), 1),
        ("racy-3", planted_races(3), 3),
        ("clean-4", race_free_sum(4), 4),
        ("clean-16", race_free_sum(16), 16),
    ]
}

fn solo_report(prog: &Proc, locations: u32) -> RaceReport {
    run_program(prog, &RunConfig::serial(locations)).report
}

#[test]
fn concurrent_sessions_match_solo_runs_bit_for_bit() {
    let workloads = mixed_workloads();
    let solos: Vec<RaceReport> = workloads
        .iter()
        .map(|(_, prog, locations)| solo_report(prog, *locations))
        .collect();
    assert!(
        solos.iter().filter(|r| !r.races().is_empty()).count() >= 2,
        "the mix must contain racy programs"
    );
    assert!(
        solos.iter().filter(|r| r.races().is_empty()).count() >= 2,
        "the mix must contain race-free programs"
    );

    // 3 rounds × 4 workloads = 12 concurrent sessions on 4 detector
    // workers, all in flight before the first wait.
    let service = DetectionService::new(ServiceConfig::with_workers(4));
    let handles: Vec<(usize, SessionHandle)> = (0..3)
        .flat_map(|_| {
            workloads
                .iter()
                .enumerate()
                .map(|(w, (_, prog, locations))| (w, service.submit(prog, *locations)))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(handles.len() >= 8, "the tentpole demands ≥8 concurrent sessions");

    for (w, handle) in handles {
        let outcome = handle.wait();
        assert_eq!(
            outcome.report().races(),
            solos[w].races(),
            "workload `{}` diverged from its solo run",
            workloads[w].0
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.sessions, 12);
    assert!(
        stats.arenas_created <= 4,
        "12 sessions must share ≤4 pooled detectors, not allocate 12"
    );
    assert!(
        stats.epoch_resets >= stats.sessions - stats.arenas_created,
        "recycling must be the common case"
    );
}

#[test]
fn sessions_stay_identical_across_twenty_leases_of_one_detector() {
    // One worker, one pooled detector: a 20-session stream of four
    // differently-sized workloads resets it 20 times, growing and shrinking
    // the leased range as it goes.
    let service = DetectionService::new(ServiceConfig::with_workers(1));
    let workloads = mixed_workloads();
    let solos: Vec<RaceReport> = workloads
        .iter()
        .map(|(_, prog, locations)| solo_report(prog, *locations))
        .collect();
    for round in 0..5 {
        for (w, (label, prog, locations)) in workloads.iter().enumerate() {
            let outcome = service.submit(prog, *locations).wait();
            assert_eq!(
                outcome.report().races(),
                solos[w].races(),
                "round {round}, workload `{label}`"
            );
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.sessions, 20);
    assert_eq!((stats.arenas_created, stats.epoch_resets), (1, 20));
}

#[test]
fn every_deterministic_mode_matches_its_own_standalone_run() {
    // Both live SP maintainers (pinned to one scheduler worker) and the
    // serial elision, each compared mode-for-mode against a standalone
    // `run_session` over a fresh detector.
    let prog = planted_races(2);
    let service = DetectionService::new(ServiceConfig::with_workers(2));
    for mode in [
        SessionMode::Serial,
        SessionMode::Hybrid { workers: 1 },
        SessionMode::NaiveLocked { workers: 1 },
    ] {
        let detector = LiveDetector::new(2, 1);
        run_session(&prog, mode, &detector);
        let standalone = detector.into_report();
        assert_eq!(standalone.racy_locations(), vec![0, 1]);
        let outcome = service.submit_with(&prog, 2, mode).wait();
        assert_eq!(outcome.mode(), mode);
        assert_eq!(outcome.report().races(), standalone.races(), "mode {mode:?}");
    }
    service.shutdown();
}

/// Stripes belong to the lease, not to the pool: a 4-worker service
/// alternates `Serial` sessions (one stripe) and `Hybrid { workers: 4 }`
/// sessions (the 4-worker layout) over the same pooled detectors — first one
/// at a time, so a single detector is re-leased across modes every time, then
/// all in flight at once — and every report matches its standalone run.
#[test]
fn arenas_released_across_modes_match_standalone_runs() {
    let workloads: Vec<(&str, Proc, u32)> = vec![
        ("racy-40", planted_races(40), 40),
        ("clean-300", race_free_sum(300), 300),
        ("racy-3", planted_races(3), 3),
    ];
    let modes = [SessionMode::Serial, SessionMode::Hybrid { workers: 4 }];
    let standalone = |prog: &Proc, locations: u32, mode: SessionMode| {
        let detector = LiveDetector::new(locations, mode.workers());
        run_session(prog, mode, &detector);
        detector.into_report()
    };
    let check = |label: &str, mode: SessionMode, report: &RaceReport, solo: &RaceReport| match mode {
        SessionMode::Serial => assert_eq!(report.races(), solo.races(), "`{label}`, {mode:?}"),
        _ => assert_eq!(report.racy_locations(), solo.racy_locations(), "`{label}`, {mode:?}"),
    };
    let solos: Vec<Vec<RaceReport>> = workloads
        .iter()
        .map(|(_, prog, locations)| modes.iter().map(|&m| standalone(prog, *locations, m)).collect())
        .collect();
    assert!(!solos[0][0].is_empty() && solos[1][0].is_empty(), "racy and race-free programs");

    let service = DetectionService::new(ServiceConfig::with_workers(4));
    // One at a time: the pool holds one detector, leased Serial, Hybrid, Serial, …
    for round in 0..3 {
        for (w, (label, prog, locations)) in workloads.iter().enumerate() {
            for (m, &mode) in modes.iter().enumerate() {
                let outcome = service.submit_with(prog, *locations, mode).wait();
                assert_eq!(outcome.mode(), mode);
                check(&format!("{label} round {round}"), mode, outcome.report(), &solos[w][m]);
            }
        }
    }
    assert_eq!(service.snapshot().arenas_created, 1, "one detector served every mode");
    // All at once, modes interleaved in the queue.
    let mut handles: Vec<(usize, usize, SessionHandle)> = Vec::new();
    for _ in 0..2 {
        for (w, (_, prog, locations)) in workloads.iter().enumerate() {
            for (m, &mode) in modes.iter().enumerate() {
                handles.push((w, m, service.submit_with(prog, *locations, mode)));
            }
        }
    }
    for (w, m, handle) in handles {
        check(workloads[w].0, modes[m], handle.wait().report(), &solos[w][m]);
    }
    let stats = service.shutdown();
    assert_eq!(stats.sessions, 18 + 12);
    assert!(stats.arenas_created <= 4);
}

#[test]
fn facade_reexports_the_service_layer() {
    use sp_maintenance::prelude::*;
    let prog = build_proc(|p| {
        p.spawn(|c| {
            c.step(|m| m.write(0, 1));
        });
        p.spawn(|c| {
            c.step(|m| m.write(0, 2));
        });
        p.sync();
    });
    let service = DetectionService::new(ServiceConfig::default());
    let outcome: SessionOutcome = service.submit(&prog, 1).wait();
    assert_eq!(outcome.report().racy_locations(), vec![0]);
}
