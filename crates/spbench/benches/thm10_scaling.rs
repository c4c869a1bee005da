//! Theorem 10 — SP-hybrid parallel performance.
//!
//! The theorem says SP-hybrid runs in O((T₁/P + P·T∞) lg n) expected time and
//! that the number of steals (hence trace splits, hence global-tier
//! insertions) is O(P·T∞) in expectation.  We measure, for a fixed
//! instrumented program:
//!
//! * wall-clock time of the full SP-hybrid race detector vs worker count P,
//! * wall-clock time of the *uninstrumented* work-stealing walk vs P (the
//!   baseline whose speedup SP-hybrid is allowed to degrade by O(lg n)),
//! * the measured steal count vs P (should grow roughly linearly in P and
//!   stay orders of magnitude below the thread count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use forkrt::{run_live, LiveConfig, LiveVisitor, Token, TreeProgram};
use racedet::{detect_races, AccessScript, RaceReport};
use sphybrid::hybrid::HybridStats;
use sphybrid::HybridBackend;
use spmaint::BackendConfig;
use spmetrics::MetricsHandle;
use sptree::tree::{NodeId, ParseTree};
use workloads::{disjoint_writes, Workload, WorkloadKind};

/// Full parallel race detection through SP-hybrid on `workers` workers.
fn detect_parallel(tree: &ParseTree, script: &AccessScript, workers: usize) -> (RaceReport, HybridStats) {
    let (report, mut backend) =
        detect_races::<HybridBackend>(tree, script, BackendConfig::with_workers(workers));
    (report, backend.take_stats().expect("the run completed"))
}

/// Plain walk visitor that just burns the per-thread work (no SP maintenance):
/// the uninstrumented baseline.
struct PlainWork {
    spin: u64,
}

impl LiveVisitor<TreeProgram<'_>> for PlainWork {
    fn execute_leaf(&self, _w: usize, _n: &NodeId, _tag: u64, _token: Token) {
        let mut x = 1u64;
        for i in 0..self.spin {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
    }
}

fn thm10(c: &mut Criterion) {
    let workload = Workload::build(WorkloadKind::Fib, 30_000, 1, 17);
    let tree = &workload.tree;
    let script = disjoint_writes(tree, 6);
    let workers_sweep = [1usize, 2, 4, 8];

    // Instrumented: full parallel race detection through SP-hybrid.
    let mut group = c.benchmark_group("thm10/sp-hybrid-detector");
    group.sample_size(10);
    for &p in &workers_sweep {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let (report, stats) = detect_parallel(tree, &script, p);
                std::hint::black_box((report.len(), stats.run.steals))
            })
        });
    }
    group.finish();

    // Uninstrumented baseline: the same program on the same scheduler with no
    // SP maintenance and no shadow memory.
    let mut group = c.benchmark_group("thm10/uninstrumented-walk");
    group.sample_size(10);
    for &p in &workers_sweep {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let visitor = PlainWork { spin: 200 };
            b.iter(|| {
                let stats = run_live(
                    &TreeProgram::new(tree),
                    &visitor,
                    LiveConfig::with_workers(p),
                    0,
                    0,
                    &MetricsHandle::detached(),
                );
                std::hint::black_box(stats.steals)
            })
        });
    }
    group.finish();

    // Printed summary: speedup curve and steal accounting (|C| = 4s+1; the
    // bench asserts it on every run).
    println!("\n=== Theorem 10 summary ===");
    println!(
        "program: {} threads, T1 = {}, T∞ = {}, parallelism = {:.1}",
        tree.num_threads(),
        workload.metrics.work,
        workload.metrics.span,
        workload.metrics.parallelism()
    );
    let mut base = None;
    for &p in &workers_sweep {
        let start = std::time::Instant::now();
        let (report, stats) = detect_parallel(tree, &script, p);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        let base = *base.get_or_insert(elapsed);
        println!(
            "  P={p}: {elapsed:>8.2} ms  speedup {:>5.2}  steals {:>6}  traces {:>7}  \
             global-inserts {:>6}  OM-query-retries {:>6}  races {}",
            base / elapsed,
            stats.run.steals,
            stats.traces,
            stats.global_insertions,
            stats.query_retries,
            report.len()
        );
        assert_eq!(stats.traces as u64, 4 * stats.run.steals + 1);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(2000));
    targets = thm10
}
criterion_main!(benches);
