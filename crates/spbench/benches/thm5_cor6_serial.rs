//! Theorem 5 and Corollary 6 — linear-time construction and O(T₁) race
//! detection with SP-order.
//!
//! Theorem 5: total time to build the SP-order structure on the fly is O(n),
//! so nanoseconds *per leaf* must stay flat as n grows.  Corollary 6: a
//! determinacy-race detector using SP-order runs in O(T₁); we measure detector
//! time divided by the access count for each SP-maintenance algorithm, which
//! also exposes the α(v,v) factor of SP-bags and the Θ(f)/Θ(d) factors of the
//! label schemes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use racedet::detect_races;
use spmaint::{run_serial, BackendConfig, EnglishHebrewLabels, OffsetSpanLabels, SpBags, SpOrder};
use workloads::{disjoint_writes, Workload, WorkloadKind};

/// Theorem 5: construction cost per leaf across a decade of sizes.
fn thm5_linear_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm5/sp-order-construction");
    group.sample_size(10);
    for threads in [10_000usize, 30_000, 100_000] {
        let w = Workload::build(WorkloadKind::RandomSp, threads, 1, 5);
        group.throughput(Throughput::Elements(w.tree.num_threads() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &w.tree,
            |b, tree| {
                b.iter(|| {
                    let alg: SpOrder = run_serial(tree);
                    std::hint::black_box(alg.relabel_count())
                })
            },
        );
    }
    group.finish();
}

/// Corollary 6: end-to-end race-detector time per access for each algorithm.
fn cor6_detector_overhead(c: &mut Criterion) {
    let w = Workload::build(WorkloadKind::Fib, 20_000, 1, 3);
    let script = disjoint_writes(&w.tree, 4);
    let accesses = script.total_accesses() as u64;

    let mut group = c.benchmark_group("cor6/race-detector");
    group.sample_size(10);
    group.throughput(Throughput::Elements(accesses));
    group.bench_function("sp-order", |b| {
        b.iter(|| detect_races::<SpOrder>(&w.tree, &script, BackendConfig::serial()).0.len())
    });
    group.bench_function("sp-bags", |b| {
        b.iter(|| detect_races::<SpBags>(&w.tree, &script, BackendConfig::serial()).0.len())
    });
    group.bench_function("english-hebrew", |b| {
        b.iter(|| detect_races::<EnglishHebrewLabels>(&w.tree, &script, BackendConfig::serial()).0.len())
    });
    group.bench_function("offset-span", |b| {
        b.iter(|| detect_races::<OffsetSpanLabels>(&w.tree, &script, BackendConfig::serial()).0.len())
    });
    group.finish();

    // Printed ratio table: detector time per access — the "overhead factor
    // over T1" view of Corollary 6.
    println!("\n=== Corollary 6 summary: detector ns per access ===");
    macro_rules! report_overhead {
        ($name:expr, $alg:ty) => {{
            let start = std::time::Instant::now();
            let (report, _) = detect_races::<$alg>(&w.tree, &script, BackendConfig::serial());
            let elapsed = start.elapsed();
            println!(
                "  {:<16} {:>10.1} ns/access   ({} races)",
                $name,
                elapsed.as_nanos() as f64 / accesses as f64,
                report.len()
            );
        }};
    }
    report_overhead!("sp-order", SpOrder);
    report_overhead!("sp-bags", SpBags);
    report_overhead!("english-hebrew", EnglishHebrewLabels);
    report_overhead!("offset-span", OffsetSpanLabels);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = thm5_linear_construction, cor6_detector_overhead
}
criterion_main!(benches);
