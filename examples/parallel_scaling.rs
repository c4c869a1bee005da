//! SP-hybrid scaling experiment (the shape of Theorem 10).
//!
//! Runs the same instrumented fork-join program on 1..=P workers and prints
//! wall-clock time, speedup, steal counts and trace counts.  The steal count
//! should stay near O(P·T∞) and far below the number of threads, and the
//! speedup should track the program's parallelism until P approaches
//! √(T1/T∞).
//!
//! Run with: `cargo run --release --example parallel_scaling [threads] [max_workers]`

use sp_maintenance::prelude::*;
use sp_maintenance::workloads::disjoint_writes;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(50_000);
    let max_workers: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);

    let workload = Workload::build(WorkloadKind::Fib, threads, 64, 3);
    let tree = &workload.tree;
    let script = disjoint_writes(tree, 8);
    println!(
        "program: {} threads, T1 = {}, T∞ = {}, parallelism = {:.1}, {} accesses",
        tree.num_threads(),
        workload.metrics.work,
        workload.metrics.span,
        workload.metrics.parallelism(),
        script.total_accesses()
    );
    println!(
        "{:>8} {:>12} {:>9} {:>9} {:>9} {:>10} {:>12}",
        "workers", "time (ms)", "speedup", "steals", "traces", "OM retry", "imbalance"
    );

    let mut base_ms = None;
    let mut p = 1;
    while p <= max_workers {
        let (report, backend) =
            detect_races::<HybridBackend>(tree, &script, BackendConfig::with_workers(p));
        let stats = backend.stats().expect("the run completed");
        assert!(report.is_empty(), "the scaling workload is race free");
        // Every steal splits one trace into five (|C| = 4s + 1).
        assert_eq!(stats.traces as u64, 4 * stats.run.steals + 1);
        let ms = stats.run.elapsed.as_secs_f64() * 1e3;
        let base = *base_ms.get_or_insert(ms);
        println!(
            "{:>8} {:>12.2} {:>9.2} {:>9} {:>9} {:>10} {:>12.2}",
            p,
            ms,
            base / ms,
            stats.run.steals,
            stats.traces,
            stats.query_retries,
            stats.run.imbalance()
        );
        p *= 2;
    }
}
