//! Adversarial soak of the detection service: a mixed batch of panicking
//! sessions and oversized sessions (forcing pooled detectors to grow, and
//! the next small lease to shrink the range again), on 1 and 4 detector
//! workers.  Every surviving session's report must stay
//! bit-identical to a standalone run, and the quarantine count must equal
//! exactly the number of planted panics.
//!
//! Runs a smoke-sized batch by default; set `SP_SOAK=1` for the heavy
//! version (more rounds, bigger programs).

use spprog::{build_proc, run_program, Proc, RunConfig};
use spservice::{DetectionService, ServiceConfig, SessionHandle};

fn soak_mode() -> bool {
    std::env::var("SP_SOAK").is_ok_and(|v| v == "1")
}

/// Suppress the default panic hook's output for the *planted* panics only
/// (they are the test's point; their backtraces are noise).  Installed
/// once, chains to the previous hook for every other panic.
fn quiet_planted_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let planted = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| *m == "soak: planted panic");
            if !planted {
                prev(info);
            }
        }));
    });
}

/// `pairs` planted write-write races plus a race-free reduction.
fn planted(pairs: u32) -> Proc {
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

/// A "huge" session: `n` race-free writers over `n` locations, far past
/// the small sessions the pooled detectors were created for, forcing their
/// reset to grow them.
fn huge(n: u32) -> Proc {
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

/// A session that does some real shadowed work, then panics mid-run.
fn poisoned() -> Proc {
    build_proc(|p| {
        p.spawn(|c| {
            c.step(|m| m.write(0, 7));
        });
        p.spawn(|c| {
            c.step(|m| m.write(0, 8));
        });
        p.sync();
        p.step(|_| panic!("soak: planted panic"));
    })
}

/// What one submitted session should come back as.
enum Expect {
    Report(usize), // index into the solo-report table
    Panic,
}

fn run_soak(workers: usize, rounds: usize) {
    let huge_locs: u32 = if soak_mode() { 4096 } else { 512 };
    let workloads: Vec<(Proc, u32)> = vec![
        (planted(1), 1),
        (planted(3), 3),
        (huge(huge_locs), huge_locs),
        (planted(7), 7),
    ];
    let solos: Vec<_> = workloads
        .iter()
        .map(|(prog, locs)| run_program(prog, &RunConfig::serial(*locs)).report)
        .collect();
    let bad = poisoned();

    let service = DetectionService::new(ServiceConfig::with_workers(workers));

    let mut handles: Vec<(Expect, SessionHandle)> = Vec::new();
    let mut planted_panics = 0u64;
    for round in 0..rounds {
        for (w, (prog, locs)) in workloads.iter().enumerate() {
            handles.push((Expect::Report(w), service.submit(prog, *locs)));
            // Interleave a panicking session at varying positions.
            if (round + w) % 3 == 0 {
                planted_panics += 1;
                handles.push((Expect::Panic, service.submit(&bad, 1)));
            }
        }
    }
    assert!(planted_panics > 0);

    let mut seen_panics = 0u64;
    for (expect, handle) in handles {
        let outcome = handle.wait();
        match expect {
            Expect::Report(w) => {
                assert!(
                    !outcome.is_panicked(),
                    "healthy session quarantined: {:?}",
                    outcome.panic_message()
                );
                assert_eq!(
                    outcome.report().races(),
                    solos[w].races(),
                    "workers={workers}: survivor {w} diverged from its standalone run"
                );
            }
            Expect::Panic => {
                assert!(outcome.is_panicked());
                assert_eq!(outcome.panic_message(), Some("soak: planted panic"));
                seen_panics += 1;
            }
        }
    }
    assert_eq!(seen_panics, planted_panics);

    let stats = service.shutdown();
    assert_eq!(
        stats.sessions_quarantined, planted_panics,
        "quarantine count == planted panics, exactly"
    );
    assert_eq!(stats.sessions, (rounds * workloads.len()) as u64);
}

#[test]
fn soak_one_worker() {
    quiet_planted_panics();
    let rounds = if soak_mode() { 60 } else { 6 };
    run_soak(1, rounds);
}

#[test]
fn soak_four_workers() {
    quiet_planted_panics();
    let rounds = if soak_mode() { 60 } else { 6 };
    run_soak(4, rounds);
}
