//! Figure 3 — comparison of the serial SP-maintenance algorithms.
//!
//! The paper's table reports asymptotic space per node, time per thread
//! creation and time per query for English-Hebrew, offset-span, SP-bags and
//! SP-order.  This bench measures all three quantities on concrete workloads
//! and also reports the label-growth behaviour that drives the asymptotic
//! differences (label bytes growing with the fork count / nesting depth for
//! the static schemes, constant for SP-order).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spbench::measure_serial_algorithm;
use spmaint::{run_serial, EnglishHebrewLabels, OffsetSpanLabels, SpBags, SpOrder};
use spmaint::api::OnTheFlySp;
use sptree::tree::{ParseTree, ThreadId};
use workloads::{Workload, WorkloadKind};

fn bench_queries<A: OnTheFlySp>(c: &mut Criterion, group: &str, name: &str, tree: &ParseTree) {
    let alg: A = run_serial(tree);
    let n = tree.num_threads() as u32;
    let mut group = c.benchmark_group(group);
    group.bench_function(BenchmarkId::new("query", name), |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2654435761);
            let earlier = ThreadId(i % (n - 1));
            std::hint::black_box(alg.precedes_current(earlier))
        })
    });
    group.finish();
}

fn bench_construction<A: OnTheFlySp>(c: &mut Criterion, group: &str, name: &str, tree: &ParseTree) {
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("construction", name), |b| {
        b.iter(|| {
            let alg: A = run_serial(tree);
            std::hint::black_box(alg.space_bytes())
        })
    });
    group.finish();
}

fn fig3(c: &mut Criterion) {
    // One parallelism-rich workload (fib) and one deeply nested workload, the
    // two regimes that separate the algorithms.
    let fib = Workload::build(WorkloadKind::Fib, 20_000, 1, 11);
    let deep = Workload::build(WorkloadKind::DeepNesting, 2_000, 1, 11);

    for (wname, tree) in [("fib-20k", &fib.tree), ("deep-2k", &deep.tree)] {
        let group = format!("fig3/{wname}");
        bench_queries::<EnglishHebrewLabels>(c, &group, "english-hebrew", tree);
        bench_queries::<OffsetSpanLabels>(c, &group, "offset-span", tree);
        bench_queries::<SpBags>(c, &group, "sp-bags", tree);
        bench_queries::<SpOrder>(c, &group, "sp-order", tree);

        bench_construction::<EnglishHebrewLabels>(c, &group, "english-hebrew", tree);
        bench_construction::<OffsetSpanLabels>(c, &group, "offset-span", tree);
        bench_construction::<SpBags>(c, &group, "sp-bags", tree);
        bench_construction::<SpOrder>(c, &group, "sp-order", tree);
    }

    // Printed summary table (space per node + measured per-op costs), the
    // direct analogue of the Figure 3 rows.
    println!("\n=== Figure 3 summary (measured) ===");
    for (wname, tree) in [("fib-20k", &fib.tree), ("deep-2k", &deep.tree)] {
        println!(
            "workload {wname}: threads={} forks={} nesting={}",
            tree.num_threads(),
            tree.num_pnodes(),
            tree.max_p_nesting()
        );
        let q = 200_000;
        let rows = [
            ("english-hebrew", measure_serial_algorithm::<EnglishHebrewLabels>(tree, q)),
            ("offset-span", measure_serial_algorithm::<OffsetSpanLabels>(tree, q)),
            ("sp-bags", measure_serial_algorithm::<SpBags>(tree, q)),
            ("sp-order", measure_serial_algorithm::<SpOrder>(tree, q)),
        ];
        println!(
            "  {:<16} {:>18} {:>12} {:>14}",
            "algorithm", "create (ns/thr)", "query (ns)", "space (B/node)"
        );
        for (name, (create, query, space)) in rows {
            println!("  {name:<16} {create:>18.1} {query:>12.1} {space:>14.1}");
        }
    }

    // Label growth: the Θ(f)/Θ(d) space behaviour of the static schemes vs
    // the Θ(1) handles of SP-order, across nesting depths.
    println!("\n=== Figure 3 label growth (bytes per thread label) ===");
    for depth in [16usize, 64, 256, 1024] {
        let tree = sptree::generate::left_deep_parallel(depth, 1).build();
        let eh: EnglishHebrewLabels = run_serial(&tree);
        let os: OffsetSpanLabels = run_serial(&tree);
        let max_eh = tree.thread_ids().map(|t| eh.label_len(t)).max().unwrap();
        let max_os = tree.thread_ids().map(|t| os.label_len(t)).max().unwrap();
        println!(
            "  nesting depth {depth:>5}: english-hebrew max label = {max_eh:>5} steps, \
             offset-span max label = {max_os:>5} pairs, sp-order handle = 2 words (constant)"
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = fig3
}
criterion_main!(benches);
