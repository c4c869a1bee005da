//! Ablations of the design choices the paper discusses.
//!
//! * §2 / related work — order-maintenance backends: the O(1)-amortized
//!   two-level list vs the simpler single-level list-labeling structure.
//! * §5 footnote 8 / §7 — union-find heuristics: path compression + rank
//!   (classical, serial SP-bags) vs rank only (what the concurrent local tier
//!   must use).
//! * §3 — the naive parallelization: one global lock around a shared SP-order
//!   structure vs the two-tier SP-hybrid.
//! * §4 — lock-free global-tier queries: retry counts under insertion load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsu::{DisjointSets, RankOnlyUnionFind, UnionFind};
use forkrt::{run_live, LiveConfig, LiveVisitor, SpKind, Token, TreeProgram};
use om::{OrderMaintenance, TagList, TwoLevelList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmaint::{run_serial, SpOrder};
use sphybrid::NaiveSharedSpOrder;
use spmetrics::MetricsHandle;
use sptree::tree::{NodeId, ParseTree, ThreadId};
use std::sync::atomic::{AtomicBool, Ordering};
use workloads::{Workload, WorkloadKind};

/// Order-maintenance backends under the SP-order insertion pattern.
fn ablation_om_backend(c: &mut Criterion) {
    let w = Workload::build(WorkloadKind::RandomSp, 50_000, 1, 23);
    let mut group = c.benchmark_group("ablation/om-backend");
    group.sample_size(10);
    group.bench_function("two-level", |b| {
        b.iter(|| {
            let alg: SpOrder<TwoLevelList> = run_serial(&w.tree);
            std::hint::black_box(alg.relabel_count())
        })
    });
    group.bench_function("single-level-taglist", |b| {
        b.iter(|| {
            let alg: SpOrder<TagList> = run_serial(&w.tree);
            std::hint::black_box(alg.relabel_count())
        })
    });
    group.finish();

    // Raw structure microbenchmark: random inserts.
    let mut group = c.benchmark_group("ablation/om-raw-insert");
    for n in [10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::new("two-level", n), &n, |b, &n| {
            b.iter(|| {
                let (mut list, base) = TwoLevelList::new();
                let mut rng = StdRng::seed_from_u64(7);
                let mut handles = vec![base];
                for _ in 0..n {
                    let at = handles[rng.gen_range(0..handles.len())];
                    handles.push(list.insert_after(at));
                }
                std::hint::black_box(list.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("single-level", n), &n, |b, &n| {
            b.iter(|| {
                let (mut list, base) = TagList::new();
                let mut rng = StdRng::seed_from_u64(7);
                let mut handles = vec![base];
                for _ in 0..n {
                    let at = handles[rng.gen_range(0..handles.len())];
                    handles.push(list.insert_after(at));
                }
                std::hint::black_box(list.len())
            })
        });
    }
    group.finish();
}

/// Union-find heuristics under an SP-bags-like operation mix.
fn ablation_dsu(c: &mut Criterion) {
    let n = 200_000u32;
    let mut group = c.benchmark_group("ablation/dsu");
    group.sample_size(10);
    group.bench_function("rank+path-compression", |b| {
        b.iter(|| {
            let mut uf = UnionFind::with_capacity(n as usize);
            for _ in 0..n {
                uf.make_set();
            }
            for i in 1..n {
                uf.union(i - 1, i);
                std::hint::black_box(uf.find(i / 2));
            }
            std::hint::black_box(uf.find_steps())
        })
    });
    group.bench_function("rank-only", |b| {
        b.iter(|| {
            let mut uf = RankOnlyUnionFind::with_capacity(n as usize);
            for _ in 0..n {
                uf.make_set();
            }
            for i in 1..n {
                uf.union(i - 1, i);
                std::hint::black_box(uf.find(i / 2));
            }
            std::hint::black_box(uf.find_steps())
        })
    });
    group.finish();
}

/// §3's naive parallelization (shared SP-order behind one lock) vs SP-hybrid,
/// both running the same instrumented program with one query per thread.
fn ablation_naive_lock(c: &mut Criterion) {
    let w = Workload::build(WorkloadKind::Fib, 20_000, 1, 31);
    let tree = &w.tree;
    let workers = 8usize;

    /// One query per thread against an earlier thread, like a detector
    /// shadowing a single location per thread.  On a parallel schedule the
    /// earlier thread may not have started yet; a detector would find an
    /// empty shadow cell and ask nothing, so neither side asks then.
    fn started_flags(tree: &ParseTree) -> Vec<AtomicBool> {
        (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect()
    }
    fn query_target(started: &[AtomicBool], t: ThreadId) -> Option<ThreadId> {
        started[t.index()].store(true, Ordering::Release);
        let earlier = ThreadId(t.0 / 2);
        (t.0 > 0 && started[earlier.index()].load(Ordering::Acquire)).then_some(earlier)
    }

    struct NaiveQuerying<'a> {
        tree: &'a ParseTree,
        naive: &'a NaiveSharedSpOrder,
        started: Vec<AtomicBool>,
    }
    impl LiveVisitor<TreeProgram<'_>> for NaiveQuerying<'_> {
        fn enter_internal(&self, _w: usize, kind: SpKind, _n: &NodeId, tag: u64, _token: Token) -> (u64, u64) {
            self.naive.expand(tag, kind.is_parallel())
        }
        fn execute_leaf(&self, _w: usize, &node: &NodeId, tag: u64, _token: Token) {
            let t = self.tree.thread_of(node).expect("leaf");
            self.naive.execute(tag, t);
            if let Some(earlier) = query_target(&self.started, t) {
                std::hint::black_box(self.naive.precedes(earlier, t));
            }
        }
    }

    let mut group = c.benchmark_group("ablation/naive-lock-vs-hybrid");
    group.sample_size(10);
    group.bench_function("naive-global-lock", |b| {
        b.iter(|| {
            let (naive, root_tag) = NaiveSharedSpOrder::new();
            let vis = NaiveQuerying {
                tree,
                naive: &naive,
                started: started_flags(tree),
            };
            let stats = run_live(
                &TreeProgram::new(tree),
                &vis,
                LiveConfig::with_workers(workers),
                root_tag,
                0,
                &MetricsHandle::detached(),
            );
            std::hint::black_box(stats.steals)
        })
    });
    group.bench_function("sp-hybrid", |b| {
        b.iter(|| {
            let started = started_flags(tree);
            let (_h, stats) = sphybrid::run_hybrid(
                tree,
                sphybrid::HybridConfig::with_workers(workers),
                |h, t, trace| {
                    if let Some(earlier) = query_target(&started, t) {
                        std::hint::black_box(h.precedes_current(earlier, trace));
                    }
                },
            );
            std::hint::black_box(stats.run.steals)
        })
    });
    group.finish();
}

/// §4: lock-free query retries while insertions rebalance the structure.
fn ablation_lockfree_queries(_c: &mut Criterion) {
    use om::ConcurrentOmList;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (list, base) = ConcurrentOmList::with_capacity(1 << 18);
    let list = Arc::new(list);
    let mut chain = vec![base];
    let mut prev = base;
    for _ in 0..512 {
        prev = list.insert_after(prev);
        chain.push(prev);
    }
    let chain = Arc::new(chain);
    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for r in 0..6 {
        let list = Arc::clone(&list);
        let chain = Arc::clone(&chain);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut queries = 0u64;
            let mut i = r;
            while !stop.load(Ordering::Relaxed) {
                let a = i % (chain.len() - 1);
                std::hint::black_box(list.precedes(chain[a], chain[a + 1]));
                queries += 1;
                i += 13;
            }
            queries
        }));
    }
    // Writer: force repeated rebalances of the dense region.
    for _ in 0..150_000 {
        list.insert_after(base);
    }
    stop.store(true, Ordering::Relaxed);
    let queries: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    let (rebalances, relabeled) = list.rebalance_stats();
    println!(
        "\n=== §4 lock-free query ablation === queries={queries} retries={} \
         rebalances={rebalances} items-relabeled={relabeled} (retry rate {:.6}%)",
        list.query_retry_count(),
        100.0 * list.query_retry_count() as f64 / queries.max(1) as f64
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = ablation_om_backend, ablation_dsu, ablation_naive_lock, ablation_lockfree_queries
}
criterion_main!(benches);
