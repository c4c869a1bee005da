//! Find an injected determinacy race in a parallel loop, serially (with each
//! SP-maintenance algorithm) and in parallel (with SP-hybrid).
//!
//! Run with: `cargo run --release --example race_detection`

use sp_maintenance::prelude::*;
use sp_maintenance::workloads::{disjoint_writes, inject_races};

fn main() {
    // A divide-and-conquer parallel workload in canonical Cilk form.
    let workload = Workload::build(WorkloadKind::Fib, 2_000, 4, 42);
    let tree = &workload.tree;
    println!(
        "program: {} threads, T1 = {}, T∞ = {}, parallelism = {:.1}",
        tree.num_threads(),
        workload.metrics.work,
        workload.metrics.span,
        workload.metrics.parallelism()
    );

    // Every thread writes its own location (race free), then we inject five
    // write-write races between random pairs of logically parallel threads.
    let base = disjoint_writes(tree, 4);
    let (script, injected) = inject_races(tree, &base, 5, 7);
    println!(
        "access script: {} accesses over {} locations; injected races on locations {:?}",
        script.total_accesses(),
        script.num_locations(),
        injected
    );

    // Serial detection with each of the four algorithms of Figure 3.
    let (r_order, _) = detect_races::<SpOrder>(tree, &script, BackendConfig::serial());
    let (r_bags, _) = detect_races::<SpBags>(tree, &script, BackendConfig::serial());
    let (r_eh, _) = detect_races::<EnglishHebrewLabels>(tree, &script, BackendConfig::serial());
    let (r_os, _) = detect_races::<OffsetSpanLabels>(tree, &script, BackendConfig::serial());
    for (name, report) in [
        ("sp-order", &r_order),
        ("sp-bags", &r_bags),
        ("english-hebrew", &r_eh),
        ("offset-span", &r_os),
    ] {
        println!(
            "serial detector [{name:>14}]: {} race reports on locations {:?}",
            report.len(),
            report.racy_locations()
        );
        assert_eq!(report.racy_locations(), injected);
        assert_eq!(
            report.len(),
            injected.len(),
            "one report entry per racy location"
        );
    }

    // Parallel detection with SP-hybrid on several worker counts.
    for workers in [1, 2, 4, 8] {
        let (report, backend) =
            detect_races::<HybridBackend>(tree, &script, BackendConfig::with_workers(workers));
        let stats = backend.stats().expect("the run completed");
        println!(
            "parallel detector [P = {workers}]: {} race reports on locations {:?} \
             ({} steals, {} traces, {:.1} ms)",
            report.len(),
            report.racy_locations(),
            stats.run.steals,
            stats.traces,
            stats.run.elapsed.as_secs_f64() * 1e3
        );
        assert_eq!(report.racy_locations(), injected);
        assert_eq!(
            report.len(),
            injected.len(),
            "one report entry per racy location"
        );
    }
    println!("every detector found exactly the injected races, one report each ✓");
}
