//! Live reproduction of Figure 3: the serial SP-maintenance algorithms
//! compared on space per node, time per thread creation (building the
//! structure during the walk) and time per query.
//!
//! Run with: `cargo run --release --example algorithm_comparison [threads]`

use std::time::Instant;

use sp_maintenance::prelude::*;

/// Measure one algorithm on one workload: (construction ns/thread, query ns,
/// space bytes/node).
fn measure<A: OnTheFlySp + CurrentSpQuery>(tree: &ParseTree, queries: usize) -> (f64, f64, f64) {
    let start = Instant::now();
    let alg: A = run_serial(tree);
    let build = start.elapsed();

    // Queries against the last thread as "current", spread over earlier threads.
    let n = tree.num_threads() as u32;
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..queries as u32 {
        let earlier = ThreadId(i.wrapping_mul(2654435761) % (n - 1));
        acc += alg.precedes_current(earlier) as u64;
    }
    let query = start.elapsed();
    std::hint::black_box(acc);

    (
        build.as_nanos() as f64 / tree.num_threads() as f64,
        query.as_nanos() as f64 / queries as f64,
        alg.space_bytes() as f64 / tree.num_nodes() as f64,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let queries = 1_000_000;

    println!("Figure 3 reproduction — serial SP-maintenance algorithms");
    println!("(workloads scaled to ~{threads} threads; times are measured, not asymptotic)\n");

    for kind in [
        WorkloadKind::Fib,
        WorkloadKind::ParallelLoop,
        WorkloadKind::DeepNesting,
        WorkloadKind::RandomSp,
    ] {
        // The static-label schemes carry Θ(d) labels, so construction on a
        // depth-d nest is Θ(n·d): at full size the deep-nesting workload
        // would run for hours.  Cap it where the asymptotic separation is
        // already unmistakable.
        let threads = match kind {
            WorkloadKind::DeepNesting => threads.min(2_000),
            _ => threads,
        };
        let workload = Workload::build(kind, threads, 1, 11);
        let tree = &workload.tree;
        println!(
            "workload {:<14} threads={} forks={} max-P-nesting={}",
            kind.name(),
            tree.num_threads(),
            tree.num_pnodes(),
            tree.max_p_nesting()
        );
        println!(
            "  {:<16} {:>18} {:>14} {:>16}",
            "algorithm", "creation (ns/thr)", "query (ns)", "space (B/node)"
        );
        let rows: Vec<(&str, (f64, f64, f64))> = vec![
            ("english-hebrew", measure::<EnglishHebrewLabels>(tree, queries)),
            ("offset-span", measure::<OffsetSpanLabels>(tree, queries)),
            ("sp-bags", measure::<SpBags>(tree, queries)),
            ("sp-order", measure::<SpOrder>(tree, queries)),
        ];
        for (name, (create, query, space)) in rows {
            println!("  {name:<16} {create:>18.1} {query:>14.1} {space:>16.1}");
        }
        println!();
    }
}
