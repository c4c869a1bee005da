//! Shadow-memory contention: sharded + batched vs per-cell locks.
//!
//! The parallel detector's scalability bottleneck before this benchmark
//! existed was the shadow memory: one `Mutex<ShadowCell>` per location means
//! every access — even a re-read of data the current thread is already
//! ordered after — takes a lock that logically parallel threads fight over.
//! The sharded [`racedet::ShardedShadowMemory`] attacks that three ways
//! (striped locks sized to the worker count, a lock-free fast path for
//! silent reads, and per-thread shard batching in the engine); this bench
//! measures all three against the preserved per-cell baseline
//! ([`PerCellShadowMemory`] + [`check_access_per_cell`], which live in this
//! file — the bench is their only user) on the adversarial workload: **few
//! hot locations, many workers**.
//!
//! Four scenarios:
//!
//! * `hot-read` — thread 0 initializes 4 shared locations, every other
//!   thread re-reads them many times (plus a private write): race-free, all
//!   contention, the fast-path showcase;
//! * `private-scan` — every thread sweeps a run of consecutive private
//!   locations: no contention at all, isolating pure per-access lock
//!   overhead and the batching amortization (consecutive cells share a
//!   shard);
//! * `private-rewrite` — every thread re-writes (and re-reads) its *own*
//!   location over and over: the private-write-run pattern the owner-hint
//!   tier of the fast path serves with zero locks and zero SP queries
//!   (before the hint, every one of those writes took the shard lock);
//! * `query-dense` — a handful of writer threads fill a few thousand shared
//!   cells (spanning every shard), sync, and then every thread of a wide
//!   parallel loop re-reads all of them: race-free, two SP questions per
//!   access about the same few recorded threads — what the engine's
//!   per-batch query memo turns into one question per recorded thread per
//!   batch.
//!
//! The trailing report prints a JSON document with ns/access for every
//! (scenario × engine × backend) cell; the committed `BENCH_shadow.json` at
//! the repository root is a capture of that output.  Run with
//! `SPBENCH_SMOKE=1` for the CI smoke pass (single iteration, tiny sizes).

use criterion::{criterion_group, criterion_main, smoke_mode, Criterion, Throughput};
use parking_lot::Mutex;
use spbench::{BenchReport, Row};
use racedet::engine::apply_access;
use racedet::{detect_races, Access, AccessKind, AccessScript, RaceReport, ShadowCell};
use sphybrid::HybridBackend;
use spmaint::api::{BackendConfig, CurrentSpQuery, SpBackend};
use spmaint::SpOrder;
use sptree::cilk::{CilkProgram, Procedure, SyncBlock};
use sptree::tree::{ParseTree, ThreadId};
use workloads::shared_read_private_write;

/// The previous shadow design: one `Mutex<ShadowCell>` per location.
///
/// Superseded by `racedet::ShardedShadowMemory` in the engine (per-cell locks
/// were the parallel detector's main contention point) but kept here as the
/// measured baseline, and as the simplest-possible reference implementation
/// of the shadow scheme.
pub struct PerCellShadowMemory {
    cells: Vec<Mutex<ShadowCell>>,
}

impl PerCellShadowMemory {
    /// Shadow memory covering `locations` locations.
    pub fn new(locations: u32) -> Self {
        PerCellShadowMemory {
            cells: (0..locations).map(|_| Mutex::new(ShadowCell::default())).collect(),
        }
    }

    /// Lock and return a cell.
    pub fn lock(&self, loc: u32) -> parking_lot::MutexGuard<'_, ShadowCell> {
        self.cells[loc as usize].lock()
    }
}

/// Shadow check for one access against the per-cell-locked baseline store:
/// the engine's update rules, one lock acquisition per access.
pub fn check_access_per_cell(
    queries: &dyn CurrentSpQuery,
    shadow: &PerCellShadowMemory,
    report: &Mutex<RaceReport>,
    current: ThreadId,
    loc: u32,
    kind: AccessKind,
) {
    let mut cell = shadow.lock(loc);
    apply_access(queries, current, loc, kind, &mut cell, &mut |race| {
        report.lock().push(race)
    });
}

/// Flat Cilk parallel loop: main does serial work, spawns `children`
/// one-thread procedures, syncs.  Thread 0 precedes every other thread.
fn parallel_loop_tree(children: usize) -> ParseTree {
    let mut block = SyncBlock::new().work(1);
    for _ in 0..children {
        block = block.spawn(Procedure::single(SyncBlock::new().work(1)));
    }
    CilkProgram::new(Procedure::single(block.work(1))).build_tree()
}

/// Every thread alternately re-writes and re-reads its own single location
/// `reps` times — the private-write run the owner hint turns lock-free.
fn private_rewrite_script(tree: &ParseTree, reps: u32) -> AccessScript {
    let n = tree.num_threads();
    let mut script = AccessScript::new(n, n as u32);
    for t in tree.thread_ids() {
        for i in 0..reps {
            let access = if i % 2 == 0 {
                Access::write(t.0)
            } else {
                Access::read(t.0)
            };
            script.push(t, access);
        }
    }
    script
}

/// Every thread writes then re-reads a run of `span` consecutive private
/// locations — zero sharing, maximal same-shard run length.
fn private_scan_script(tree: &ParseTree, span: u32) -> AccessScript {
    let n = tree.num_threads();
    let mut script = AccessScript::new(n, n as u32 * span);
    for t in tree.thread_ids() {
        for i in 0..span {
            script.push(t, Access::write(t.0 * span + i));
        }
        for i in 0..span {
            script.push(t, Access::read(t.0 * span + i));
        }
    }
    script
}

/// The engine loop exactly as it was before sharding landed: per-access,
/// per-cell lock, no batching, no fast path.
fn detect_per_cell<'t, B: SpBackend<'t>>(
    tree: &'t ParseTree,
    script: &AccessScript,
    config: BackendConfig,
) -> RaceReport {
    let shadow = PerCellShadowMemory::new(script.num_locations());
    let report = Mutex::new(RaceReport::new());
    let mut backend = B::build(tree, config);
    backend.run_with_queries(tree, |queries, current| {
        for access in script.of(current) {
            check_access_per_cell(queries, &shadow, &report, current, access.loc, access.kind);
        }
    });
    report.into_inner()
}

/// `writers` parallel threads fill `cells` shared locations between them
/// (interleaved, so every shard holds every writer), sync, and then
/// `readers` parallel threads each re-read every cell.  Race-free; every
/// read asks about the cell's writer and, after the first reader, about its
/// recorded (parallel) reader.
fn query_dense(writers: u32, readers: usize, cells: u32) -> (ParseTree, AccessScript) {
    const WRITER: u64 = 2;
    const READER: u64 = 3;
    let leaf = |work| Procedure::single(SyncBlock::new().work(work));
    let mut fill = SyncBlock::new().work(1);
    for _ in 0..writers {
        fill = fill.spawn(leaf(WRITER));
    }
    let mut scan = SyncBlock::new();
    for _ in 0..readers {
        scan = scan.spawn(leaf(READER));
    }
    let tree = CilkProgram::new(Procedure::new().block(fill).block(scan.work(1))).build_tree();
    let mut script = AccessScript::new(tree.num_threads(), cells);
    let mut next_writer = 0;
    for t in tree.thread_ids() {
        match tree.work_of(t) {
            WRITER => {
                for loc in (next_writer..cells).step_by(writers as usize) {
                    script.push(t, Access::write(loc));
                }
                next_writer += 1;
            }
            READER => {
                for loc in 0..cells {
                    script.push(t, Access::read(loc));
                }
            }
            _ => {}
        }
    }
    (tree, script)
}

struct Scenario {
    name: &'static str,
    tree: ParseTree,
    script: AccessScript,
}

fn scenarios() -> Vec<Scenario> {
    let (children, hot_accesses, span, dense_cells) =
        if smoke_mode() { (32, 8, 8, 64) } else { (512, 96, 64, 2048) };
    // Each script is generated against the very tree instance its scenario
    // benches, so thread ids can never drift between the two.
    let hot_tree = parallel_loop_tree(children);
    let hot_script = shared_read_private_write(&hot_tree, 4, hot_accesses);
    let scan_tree = parallel_loop_tree(children);
    let scan_script = private_scan_script(&scan_tree, span);
    let rewrite_tree = parallel_loop_tree(children);
    let rewrite_script = private_rewrite_script(&rewrite_tree, 2 * span);
    let (dense_tree, dense_script) = query_dense(4, children, dense_cells);
    vec![
        Scenario { name: "hot-read", tree: hot_tree, script: hot_script },
        Scenario { name: "private-scan", tree: scan_tree, script: scan_script },
        Scenario { name: "private-rewrite", tree: rewrite_tree, script: rewrite_script },
        Scenario { name: "query-dense", tree: dense_tree, script: dense_script },
    ]
}

/// (engine, backend label, worker count) rows of the comparison matrix.
const ENGINES: [&str; 2] = ["per-cell", "sharded"];
const CONFIGS: [(&str, usize); 3] = [("sp-order", 1), ("sp-hybrid", 4), ("sp-hybrid", 8)];

fn run_once(scenario: &Scenario, engine: &str, backend: &str, workers: usize) -> usize {
    let cfg = BackendConfig::with_workers(workers);
    match (engine, backend) {
        ("per-cell", "sp-order") => detect_per_cell::<SpOrder>(&scenario.tree, &scenario.script, cfg).len(),
        ("per-cell", _) => detect_per_cell::<HybridBackend>(&scenario.tree, &scenario.script, cfg).len(),
        (_, "sp-order") => detect_races::<SpOrder>(&scenario.tree, &scenario.script, cfg).0.len(),
        _ => detect_races::<HybridBackend>(&scenario.tree, &scenario.script, cfg).0.len(),
    }
}

fn shadow_contention(c: &mut Criterion) {
    let scenarios = scenarios();
    for scenario in &scenarios {
        let accesses = scenario.script.total_accesses() as u64;
        let mut group = c.benchmark_group(format!("shadow-contention/{}", scenario.name));
        group.sample_size(10);
        group.throughput(Throughput::Elements(accesses));
        for (backend, workers) in CONFIGS {
            for engine in ENGINES {
                group.bench_function(format!("{engine}/{backend}-w{workers}"), |b| {
                    b.iter(|| run_once(scenario, engine, backend, workers))
                });
            }
        }
        group.finish();
    }

    // JSON report (captured into BENCH_shadow.json at the repo root): best
    // of `reps` timed runs per cell, so scheduler noise doesn't inflate a row.
    let reps = if smoke_mode() { 1 } else { 5 };
    let mut report = BenchReport::new(
        "shadow_contention",
        "shadow",
        "ns_per_access",
        &format!(
            "best of {reps} runs; per-cell = one Mutex<ShadowCell> per location \
             (pre-sharding engine), sharded = striped locks + lock-free read fast path + \
             per-thread shard batching with a per-batch SP-query memo"
        ),
    )
    .command("cargo bench -p spbench --bench shadow_contention");
    for scenario in &scenarios {
        let accesses = scenario.script.total_accesses() as u64;
        for (backend, workers) in CONFIGS {
            let mut cells = Vec::new();
            for engine in ENGINES {
                let mut best = f64::INFINITY;
                for _ in 0..reps {
                    let start = std::time::Instant::now();
                    std::hint::black_box(run_once(scenario, engine, backend, workers));
                    best = best.min(start.elapsed().as_nanos() as f64 / accesses as f64);
                }
                cells.push(best);
            }
            report.push(
                Row::new()
                    .str("scenario", scenario.name)
                    .str("backend", backend)
                    .int("workers", workers as u64)
                    .f1("per_cell", cells[0])
                    .f1("sharded", cells[1])
                    .f2("speedup", cells[0] / cells[1]),
            );
        }
    }
    report.print();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = shadow_contention
}
criterion_main!(benches);
