//! Differential conformance harness for the SP-maintenance backends.
//!
//! The paper's central claim is that SP-order, SP-bags, the two label-based
//! baselines, the naive locked SP-order, and SP-hybrid all answer the *same*
//! series-parallel queries with different cost profiles.  This crate checks
//! that claim mechanically: it generates random Cilk programs in several
//! shapes, drives **every** backend through the unified
//! [`spmaint::SpBackend`] trait over the same program, and cross-checks
//!
//! * every current-thread `SP-PRECEDES` answer issued *during* the run
//!   against the [`SpOracle`] LCA ground truth,
//! * every arbitrary-pair relation of the full backends
//!   ([`spmaint::FullSpBackend`]) after the run,
//! * the race reports of the generic detection engine
//!   ([`racedet::detect_races`]) across all backend instantiations —
//!   bit-identical for deterministic single-worker runs, equal racy-location
//!   sets (and equal to the injected ground truth) for multi-worker runs,
//! * fully random read/write *access scripts* (no planted ground truth)
//!   against a brute-force parallel-conflict oracle: serial backends must
//!   find exactly the oracle's racy locations with bit-identical reports —
//!   the differential exercise of the reader-replacement rule — while
//!   multi-worker runs are held to soundness ([`check_random_scripts`]).
//!
//! Failures are minimized with the `proptest` shrinker to a replayable
//! `(shape, size, seed)` triple plus the shrunk parse tree, so a red run
//! prints something a human can act on instead of a 300-thread random dump.
//!
//! The sweep entry point [`run_sweep`] honors two environment variables:
//! `SPCONFORM_SEED` (base seed, default `0xC0FFEE`) and `SPCONFORM_CASES`
//! (cases per shape, default 32; CI passes 200) — CI runs the sweep under
//! several seeds.
//!
//! The shape generators double as handy deterministic program factories.
//! Build a tree, script two parallel writes, detect, assert the race:
//!
//! ```
//! use racedet::{detect_races, Access, AccessScript};
//! use spconform::ShapeKind;
//! use spmaint::{BackendConfig, SpOrder};
//! use sptree::tree::ThreadId;
//!
//! let tree = ShapeKind::ParallelLoop.build_tree(4, 7);
//! let mut script = AccessScript::new(tree.num_threads(), 1);
//! script.push(ThreadId(1), Access::write(0)); // two parallel loop iterations
//! script.push(ThreadId(3), Access::write(0)); // write the same location
//! let (report, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
//! assert_eq!(report.racy_locations(), vec![0]);
//! ```

use parking_lot::Mutex;
use racedet::{detect_races, RaceReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmaint::api::{BackendConfig, SpBackend};
use spmaint::{EnglishHebrewLabels, OffsetSpanLabels, SpBags, SpOrder, SpQuery};
use sphybrid::{HybridBackend, NaiveBackend};
use sptree::cilk::{CilkProgram, Procedure, SyncBlock};
use sptree::generate::{random_cilk_program, random_sp_ast, CilkGenParams};
use sptree::oracle::SpOracle;
use sptree::tree::{NodeKind, ParseTree, ThreadId};
use std::sync::atomic::{AtomicBool, Ordering};
use workloads::{
    bfs_plan, bfs_procedure, branch_bound_plan, branch_bound_procedure, disjoint_writes,
    inject_races, power_law_digraph, quicksort_input, quicksort_procedure, racy_locations_oracle,
    random_mixed_script, reduction_input, reduction_plan, reduction_procedure, uniform_digraph,
};

pub mod live;
pub mod service;

pub use live::{check_live_case, minimize_live_failure, run_live_sweep, LiveFailure, LiveSweepStats};
pub use service::{
    check_service_case, minimize_service_failure, run_service_sweep, ServiceFailure,
    ServiceSweepStats,
};

// ---------------------------------------------------------------------------
// Program shapes
// ---------------------------------------------------------------------------

/// The program-shape families the harness sweeps over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShapeKind {
    /// Randomized divide-and-conquer recursion (fib-style spawning).
    DivideAndConquer,
    /// One sync block spawning every iteration (Cilk `for … spawn; sync`).
    ParallelLoop,
    /// A chain of procedures each spawning one child: maximal spawn nesting.
    DeepNesting,
    /// Fully random canonical Cilk program ([`random_cilk_program`]).
    RandomCilk,
    /// Deep spawn chains hanging off a wide parallel loop: the
    /// unbounded-growth stressor.  Sized so that live runs with tiny
    /// capacity hints cross several chunk boundaries of the growable
    /// SP-hybrid substrates on every seed.
    GrowthStress,
    /// Fair-chunked parallel BFS over a seeded digraph
    /// ([`workloads::graphs`]): per level one serial statement (init or
    /// merge) plus one spawn per frontier chunk.  Seed picks the degree skew
    /// (uniform vs power-law) and the chunk granularity, so skewed frontiers
    /// ride every sweep.
    GraphBfs,
    /// Pivot-driven parallel quicksort over a seeded array
    /// ([`workloads::datadep`]): the recursion tree is a function of the
    /// input *values* (each node spawns its two partition halves and places
    /// the pivot), so the realized shape is data-dependent while staying a
    /// pure function of `(size, seed)`.
    Quicksort,
    /// Level-synchronous branch-and-bound with feasibility and bound
    /// pruning ([`workloads::datadep`]): which nodes each level spawns
    /// depends on the plan-precomputed incumbent, per level one serial
    /// publish statement plus one spawn per surviving node.
    BranchBound,
    /// Reduction whose recursion depth varies with the local value spread
    /// ([`workloads::datadep`]): segments split only where the data is
    /// rough, so subtree depths differ across the array.
    DataReduction,
    /// Random series-parallel tree that is *not* in canonical Cilk form;
    /// exercises every backend except SP-hybrid (which, like the paper,
    /// assumes Cilk canonical form).
    RandomSp,
}

impl ShapeKind {
    /// Every shape, in sweep order.
    pub const ALL: [ShapeKind; 10] = [
        ShapeKind::DivideAndConquer,
        ShapeKind::ParallelLoop,
        ShapeKind::DeepNesting,
        ShapeKind::RandomCilk,
        ShapeKind::GrowthStress,
        ShapeKind::GraphBfs,
        ShapeKind::Quicksort,
        ShapeKind::BranchBound,
        ShapeKind::DataReduction,
        ShapeKind::RandomSp,
    ];

    /// Look a shape up by its [`name`](Self::name) (the spelling reports and
    /// the `SPCONFORM_SHAPE` env knob use).
    pub fn by_name(name: &str) -> Option<ShapeKind> {
        ShapeKind::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ShapeKind::DivideAndConquer => "divide-and-conquer",
            ShapeKind::ParallelLoop => "parallel-loop",
            ShapeKind::DeepNesting => "deep-nesting",
            ShapeKind::RandomCilk => "random-cilk",
            ShapeKind::GrowthStress => "growth-stress",
            ShapeKind::GraphBfs => "graph-bfs",
            ShapeKind::Quicksort => "quicksort",
            ShapeKind::BranchBound => "branch-bound",
            ShapeKind::DataReduction => "data-reduction",
            ShapeKind::RandomSp => "random-sp",
        }
    }

    /// Whether trees of this shape are in canonical Cilk form (a
    /// precondition of the SP-hybrid backend).
    pub fn is_cilk_form(self) -> bool {
        !matches!(self, ShapeKind::RandomSp)
    }

    /// Build the deterministic Cilk *procedure* for `(self, size, seed)` —
    /// `None` for [`ShapeKind::RandomSp`], which is not in canonical Cilk
    /// form.  The live conformance harness runs these same procedures
    /// through the `spprog` API, so the two sweeps cover identical program
    /// families.
    pub fn build_procedure(self, size: u32, seed: u64) -> Option<Procedure> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5BC0_4F02);
        match self {
            ShapeKind::DivideAndConquer => {
                let depth = 2 + size / 6; // 4..=28 → depth 2..=6
                Some(dandc_proc(depth.min(6), &mut rng))
            }
            ShapeKind::ParallelLoop => {
                let iterations = 1 + size as usize + rng.gen_range(0..3usize);
                let mut block = SyncBlock::new().work(1);
                for _ in 0..iterations {
                    block = block.spawn(Procedure::single(
                        SyncBlock::new().work(1 + rng.gen_range(0..3u64)),
                    ));
                }
                Some(Procedure::single(block.work(1)))
            }
            ShapeKind::DeepNesting => {
                let depth = 1 + size;
                let mut proc = Procedure::single(SyncBlock::new().work(1));
                for _ in 0..depth {
                    proc = Procedure::single(SyncBlock::new().work(1).spawn(proc));
                }
                Some(proc)
            }
            ShapeKind::RandomCilk => {
                let params = CilkGenParams {
                    max_depth: 2 + size / 6,
                    max_blocks: 2,
                    max_stmts: 3,
                    spawn_prob: 0.45 + (seed % 20) as f64 / 100.0,
                    work: 2,
                };
                Some(random_cilk_program(params, seed))
            }
            ShapeKind::GrowthStress => {
                // Deep spawn chains hanging off a wide parallel loop.  The
                // live conformance harness runs these with tiny substrate
                // hints, so the per-seed thread count (hundreds) forces
                // multiple chunk publications in the union-find, and the
                // nesting gives steals plenty of continuations to split.
                // `size` saturates at 16 to keep debug-mode sweeps affordable
                // (still hundreds of threads — dozens of chunk crossings with
                // the conformance harness's hint of 4).
                let depth = 4 + size.min(16);
                let mut chain = Procedure::single(SyncBlock::new().work(1));
                for _ in 0..depth {
                    chain = Procedure::single(SyncBlock::new().work(1).spawn(chain));
                }
                let width = 4 + 2 * size.min(16) as usize;
                let mut block = SyncBlock::new().work(1);
                for _ in 0..width {
                    block = block.spawn(if rng.gen_bool(0.5) {
                        chain.clone()
                    } else {
                        Procedure::single(SyncBlock::new().work(1 + rng.gen_range(0..2u64)))
                    });
                }
                Some(Procedure::single(block.work(1)))
            }
            ShapeKind::GraphBfs => {
                // Node count scales with size; the seed picks uniform vs
                // power-law degree skew and the nodes-per-chunk granularity.
                // The procedure is the exact spawn structure of the live
                // fair-BFS program (`workloads::live_graph_bfs`) on the same
                // graph, so both sweeps traverse identical frontiers.
                let n = 4 + size * 3;
                let graph = if seed % 2 == 0 {
                    uniform_digraph(n, 2, seed)
                } else {
                    power_law_digraph(n, 2, seed)
                };
                let granularity = 1 + ((seed >> 1) % 4) as u32;
                Some(bfs_procedure(&bfs_plan(&graph, granularity)))
            }
            ShapeKind::Quicksort => {
                // The realized recursion tree depends on the seeded values
                // (pivot choices), but is a pure function of (size, seed) —
                // which is what lets the minimizer shrink `size` without
                // ever mutating a realized tree (see the shrinker note in
                // `minimize_failure`).
                let input = quicksort_input(2 + size, seed);
                Some(quicksort_procedure(&input))
            }
            ShapeKind::BranchBound => {
                // Depth 3..=7; the plan's capacity comes from the full item
                // pool, so deeper searches strictly extend shallower ones
                // (monotone size scaling).
                let depth = 3 + (size / 6).min(4);
                Some(branch_bound_procedure(&branch_bound_plan(depth, seed)))
            }
            ShapeKind::DataReduction => {
                let input = reduction_input(2 + 2 * size, seed);
                Some(reduction_procedure(&reduction_plan(&input, 8)))
            }
            ShapeKind::RandomSp => None,
        }
    }

    /// Build the deterministic tree for `(self, size, seed)`.  `size` scales
    /// the program monotonically (it is the shrink knob of the minimizer);
    /// `seed` varies the random choices.
    pub fn build_tree(self, size: u32, seed: u64) -> ParseTree {
        match self.build_procedure(size, seed) {
            Some(proc) => CilkProgram::new(proc).build_tree(),
            None => random_sp_ast(2 + 2 * size as usize, 0.5, seed).build(),
        }
    }
}

/// Randomized divide-and-conquer procedure: every level spawns two children
/// (the second possibly shallower), with optional serial work around the
/// spawns and an optional second sync block after the join.
fn dandc_proc(depth: u32, rng: &mut StdRng) -> Procedure {
    if depth == 0 {
        return Procedure::single(SyncBlock::new().work(1 + rng.gen_range(0..3u64)));
    }
    let mut block = SyncBlock::new();
    if rng.gen_bool(0.5) {
        block = block.work(1);
    }
    let shallower = depth.saturating_sub(1 + rng.gen_range(0..2u32));
    block = block
        .spawn(dandc_proc(depth - 1, rng))
        .spawn(dandc_proc(shallower, rng))
        .work(1);
    let mut proc = Procedure::new().block(block);
    if rng.gen_bool(0.5) {
        proc = proc.block(SyncBlock::new().work(1));
    }
    proc
}

// ---------------------------------------------------------------------------
// Backends under test
// ---------------------------------------------------------------------------

/// The six SP maintainers driven through [`spmaint::SpBackend`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// SP-order (this paper, §2).
    SpOrder,
    /// SP-bags (Feng–Leiserson).
    SpBags,
    /// English-Hebrew static labels (Nudler–Rudolph style).
    EnglishHebrew,
    /// Offset-span labels (Mellor-Crummey).
    OffsetSpan,
    /// Naive globally-locked shared SP-order (§3 strawman).
    Naive,
    /// Two-tier SP-hybrid (§4–§7); requires canonical Cilk form.
    Hybrid,
}

impl BackendKind {
    /// All six backends.
    pub const ALL: [BackendKind; 6] = [
        BackendKind::SpOrder,
        BackendKind::SpBags,
        BackendKind::EnglishHebrew,
        BackendKind::OffsetSpan,
        BackendKind::Naive,
        BackendKind::Hybrid,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::SpOrder => "sp-order",
            BackendKind::SpBags => "sp-bags",
            BackendKind::EnglishHebrew => "english-hebrew",
            BackendKind::OffsetSpan => "offset-span",
            BackendKind::Naive => "naive-locked",
            BackendKind::Hybrid => "sp-hybrid",
        }
    }

    /// Can this backend run programs of the given shape?
    pub fn supports(self, shape: ShapeKind) -> bool {
        self != BackendKind::Hybrid || shape.is_cilk_form()
    }
}

// ---------------------------------------------------------------------------
// One differential case
// ---------------------------------------------------------------------------

/// What one [`check_case`] run did (aggregated by the sweep).
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseStats {
    /// Threads of the generated program.
    pub threads: u64,
    /// Current-thread queries cross-checked against the oracle.
    pub queries: u64,
    /// Arbitrary-pair relations cross-checked on full backends.
    pub pair_queries: u64,
    /// Races injected (and required to be found exactly) in the race check.
    pub injected_races: u64,
    /// Emergent racy locations of the random-mix script check, required to
    /// be found exactly by every serial backend.
    pub emergent_races: u64,
}

/// A single disagreement between a backend and the ground truth.
#[derive(Clone, Debug)]
pub struct Discrepancy {
    /// Backend that disagreed.
    pub backend: &'static str,
    /// What went wrong, human-readable.
    pub detail: String,
}

/// Which of the three sweeps a [`Failure`] came from — names the entry
/// point its replay line calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SweepKind {
    /// The tree-driven sweep over all six backends ([`run_sweep`]).
    Tree,
    /// The live-vs-offline sweep ([`run_live_sweep`]).
    Live,
    /// The service-vs-standalone sweep ([`run_service_sweep`]).
    Service,
}

impl SweepKind {
    /// The `check_*_case` function that replays a case of this sweep.
    fn replay_fn(self) -> &'static str {
        match self {
            SweepKind::Tree => "spconform::check_case",
            SweepKind::Live => "spconform::live::check_live_case",
            SweepKind::Service => "spconform::service::check_service_case",
        }
    }

    /// `(offset into the `case_seed` stream, workers of an ordinary case)`:
    /// the offsets keep the three sweeps on different programs under one
    /// base seed; the live and service sweeps run every case multi-worker.
    fn plan(self) -> (u64, usize) {
        match self {
            SweepKind::Tree => (0, 1),
            SweepKind::Live => (17, 2),
            SweepKind::Service => (43, 2),
        }
    }

    /// Seed of the program a failure of case `seed` renders: a service case
    /// is a batch, shown by its first program.
    fn tree_seed(self, seed: u64) -> u64 {
        match self {
            SweepKind::Service => service::program_seed(seed, 0),
            SweepKind::Tree | SweepKind::Live => seed,
        }
    }
}

/// A conformance failure of any sweep, minimized to a replayable case.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The sweep that found it.
    pub sweep: SweepKind,
    /// Shape of the failing program (of the batch's programs, for
    /// [`SweepKind::Service`]).
    pub shape: ShapeKind,
    /// Minimized size knob.
    pub size: u32,
    /// Seed reproducing the failure (together with shape and size).
    pub seed: u64,
    /// Worker count of the failing configuration (the detector-worker pool,
    /// for [`SweepKind::Service`]).
    pub workers: usize,
    /// The disagreement at the minimized case.
    pub discrepancy: Discrepancy,
    /// The shrunk parse tree (of the batch's first program, for
    /// [`SweepKind::Service`]), rendered as an S-expression.
    pub tree: String,
}

/// A [`Failure`] of the tree-driven sweep.
pub type ConformanceFailure = Failure;

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:?}-sweep conformance failure in `{}` (shape={}, size={}, seed={:#x}, workers={})",
            self.sweep,
            self.discrepancy.backend,
            self.shape.name(),
            self.size,
            self.seed,
            self.workers
        )?;
        writeln!(f, "  {}", self.discrepancy.detail)?;
        writeln!(f, "  shrunk tree: {}", self.tree)?;
        write!(
            f,
            "  replay: {}(ShapeKind::{:?}, {}, {:#x}, {})",
            self.sweep.replay_fn(),
            self.shape,
            self.size,
            self.seed,
            self.workers
        )
    }
}

/// Render a parse tree as a compact S-expression: `S(u0, P(u1, u2))`.
pub fn tree_sexpr(tree: &ParseTree) -> String {
    fn rec(tree: &ParseTree, node: sptree::tree::NodeId, out: &mut String) {
        match tree.kind(node) {
            NodeKind::Leaf(t) => out.push_str(&format!("u{}", t.0)),
            kind => {
                out.push(if kind == NodeKind::S { 'S' } else { 'P' });
                out.push('(');
                rec(tree, tree.left(node), out);
                out.push_str(", ");
                rec(tree, tree.right(node), out);
                out.push(')');
            }
        }
    }
    if tree.num_nodes() > 512 {
        return format!("<{} nodes, too large to render>", tree.num_nodes());
    }
    let mut out = String::new();
    rec(tree, tree.root(), &mut out);
    out
}

/// Run backend `B` over `tree` on `workers` workers, recording every
/// current-thread query answer against already-executed threads.  Per-thread
/// fan-in is capped (deterministically) so huge programs stay affordable.
fn record_query_run<'t, B: SpBackend<'t>>(
    tree: &'t ParseTree,
    workers: usize,
) -> (B, Vec<(ThreadId, ThreadId, bool)>) {
    let n = tree.num_threads();
    let stride = (n / 96).max(1) as u32;
    let executed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let recorded: Mutex<Vec<(ThreadId, ThreadId, bool)>> = Mutex::new(Vec::new());
    let mut backend = B::build(tree, BackendConfig::with_workers(workers));
    backend.run_with_queries(tree, |q, current| {
        let mut answers = Vec::new();
        for earlier in 0..n as u32 {
            let earlier = ThreadId(earlier);
            if earlier == current || !executed[earlier.index()].load(Ordering::Acquire) {
                continue;
            }
            if stride > 1 && (earlier.0.wrapping_mul(2654435761) ^ current.0) % stride != 0 {
                continue;
            }
            answers.push((earlier, current, q.precedes_current(earlier)));
        }
        recorded.lock().extend(answers);
        executed[current.index()].store(true, Ordering::Release);
    });
    (backend, recorded.into_inner())
}

/// Check the recorded current-thread answers of one backend run against the
/// oracle.
fn verify_queries(
    backend: &'static str,
    recorded: &[(ThreadId, ThreadId, bool)],
    oracle: &SpOracle<'_>,
) -> Result<u64, Discrepancy> {
    for &(earlier, current, answer) in recorded {
        let truth = oracle.precedes(earlier, current);
        if answer != truth {
            return Err(Discrepancy {
                backend,
                detail: format!(
                    "precedes_current(u{}) answered {answer} while u{} was current; oracle says {truth}",
                    earlier.0, current.0
                ),
            });
        }
    }
    Ok(recorded.len() as u64)
}

/// Check arbitrary-pair relations of a full backend against the oracle
/// (all pairs for small programs, a deterministic sample for large ones).
fn verify_pairs<B: SpQuery>(
    backend_name: &'static str,
    backend: &B,
    tree: &ParseTree,
    oracle: &SpOracle<'_>,
) -> Result<u64, Discrepancy> {
    let n = tree.num_threads() as u32;
    let mut checked = 0u64;
    let stride = (n / 64).max(1);
    for a in 0..n {
        for b in 0..n {
            if stride > 1 && (a.wrapping_mul(2654435761) ^ b) % stride != 0 {
                continue;
            }
            let (ta, tb) = (ThreadId(a), ThreadId(b));
            let got = backend.relation(ta, tb);
            let want = oracle.relation(ta, tb);
            if got != want {
                return Err(Discrepancy {
                    backend: backend_name,
                    detail: format!("relation(u{a}, u{b}) = {got:?}, oracle says {want:?}"),
                });
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Query-conformance pass for one backend kind, serial (`workers == 1`) or
/// parallel.
fn check_backend_queries(
    kind: BackendKind,
    tree: &ParseTree,
    oracle: &SpOracle<'_>,
    workers: usize,
) -> Result<CaseStats, Discrepancy> {
    let name = kind.name();
    let mut stats = CaseStats::default();
    match kind {
        BackendKind::SpOrder => {
            let (backend, rec) = record_query_run::<SpOrder>(tree, workers);
            stats.queries += verify_queries(name, &rec, oracle)?;
            stats.pair_queries += verify_pairs(name, &backend, tree, oracle)?;
        }
        BackendKind::SpBags => {
            let (_backend, rec) = record_query_run::<SpBags>(tree, workers);
            stats.queries += verify_queries(name, &rec, oracle)?;
        }
        BackendKind::EnglishHebrew => {
            let (backend, rec) = record_query_run::<EnglishHebrewLabels>(tree, workers);
            stats.queries += verify_queries(name, &rec, oracle)?;
            stats.pair_queries += verify_pairs(name, &backend, tree, oracle)?;
        }
        BackendKind::OffsetSpan => {
            let (backend, rec) = record_query_run::<OffsetSpanLabels>(tree, workers);
            stats.queries += verify_queries(name, &rec, oracle)?;
            stats.pair_queries += verify_pairs(name, &backend, tree, oracle)?;
        }
        BackendKind::Naive => {
            let (backend, rec) = record_query_run::<NaiveBackend>(tree, workers);
            stats.queries += verify_queries(name, &rec, oracle)?;
            stats.pair_queries += verify_pairs(name, &backend, tree, oracle)?;
        }
        BackendKind::Hybrid => {
            let (_backend, rec) = record_query_run::<HybridBackend>(tree, workers);
            stats.queries += verify_queries(name, &rec, oracle)?;
        }
    }
    Ok(stats)
}

/// Every report holds one entry per racy location, whatever produced it —
/// the engine keeps the first race of each location and drops the rest.
pub(crate) fn one_entry_per_location(
    backend: &'static str,
    report: &RaceReport,
) -> Result<(), Discrepancy> {
    let locations = report.racy_locations().len();
    if report.len() == locations {
        return Ok(());
    }
    Err(Discrepancy {
        backend,
        detail: format!(
            "{} report entries on {locations} racy locations: {:?}",
            report.len(),
            report.races()
        ),
    })
}

/// Race-report conformance: inject known races, then require every serial
/// backend instantiation of the generic engine to produce the **identical**
/// report, and every backend (including multi-worker parallel runs) to flag
/// exactly the injected locations, one entry per location.  Returns the
/// number of injected races.
/// Public so the tier-1 suite can reuse the exact backend list the sweep
/// covers instead of duplicating it.
pub fn check_races(
    shape: ShapeKind,
    tree: &ParseTree,
    seed: u64,
    workers: usize,
) -> Result<u64, Discrepancy> {
    let base = disjoint_writes(tree, 2);
    let wanted = (tree.num_threads() / 8).min(4);
    let (script, expected) = inject_races(tree, &base, wanted, seed ^ 0x9E37_79B9);
    let serial = BackendConfig::serial();

    let (reference, _) = detect_races::<SpOrder>(tree, &script, serial);
    one_entry_per_location("sp-order", &reference)?;
    if reference.racy_locations() != expected {
        return Err(Discrepancy {
            backend: "sp-order",
            detail: format!(
                "racy locations {:?} != injected {:?}",
                reference.racy_locations(),
                expected
            ),
        });
    }

    // Deterministic single-worker runs must agree *race for race*.
    let serial_reports = [
        ("sp-bags", detect_races::<SpBags>(tree, &script, serial).0),
        (
            "english-hebrew",
            detect_races::<EnglishHebrewLabels>(tree, &script, serial).0,
        ),
        (
            "offset-span",
            detect_races::<OffsetSpanLabels>(tree, &script, serial).0,
        ),
        ("naive-locked", detect_races::<NaiveBackend>(tree, &script, serial).0),
    ];
    for (name, report) in &serial_reports {
        one_entry_per_location(name, report)?;
        if report.races() != reference.races() {
            return Err(Discrepancy {
                backend: name,
                detail: format!(
                    "serial race report diverges from sp-order: {:?} vs {:?}",
                    report.races(),
                    reference.races()
                ),
            });
        }
    }
    if shape.is_cilk_form() {
        let (report, _) = detect_races::<HybridBackend>(tree, &script, serial);
        one_entry_per_location("sp-hybrid", &report)?;
        if report.races() != reference.races() {
            return Err(Discrepancy {
                backend: "sp-hybrid",
                detail: format!(
                    "serial race report diverges from sp-order: {:?} vs {:?}",
                    report.races(),
                    reference.races()
                ),
            });
        }
    }

    // Multi-worker runs are nondeterministically ordered, but on this script
    // (each injected location carries exactly one parallel write-write pair)
    // the racy-location set must still be exactly the injected one.
    if workers > 1 {
        let cfg = BackendConfig::with_workers(workers);
        let (report, _) = detect_races::<NaiveBackend>(tree, &script, cfg);
        one_entry_per_location("naive-locked", &report)?;
        if report.racy_locations() != expected {
            return Err(Discrepancy {
                backend: "naive-locked",
                detail: format!(
                    "parallel ({workers} workers) racy locations {:?} != injected {:?}",
                    report.racy_locations(),
                    expected
                ),
            });
        }
        if shape.is_cilk_form() {
            let (report, _) = detect_races::<HybridBackend>(tree, &script, cfg);
            one_entry_per_location("sp-hybrid", &report)?;
            if report.racy_locations() != expected {
                return Err(Discrepancy {
                    backend: "sp-hybrid",
                    detail: format!(
                        "parallel ({workers} workers) racy locations {:?} != injected {:?}",
                        report.racy_locations(),
                        expected
                    ),
                });
            }
        }
    }
    Ok(expected.len() as u64)
}

/// Random-access-script conformance: a fully random read/write mix (no
/// planted ground truth) is judged against the brute-force parallel-conflict
/// oracle.  Serial backends must agree **bit-identically** on the full race
/// list and find exactly the oracle's racy locations — this is the
/// differential test of the reader-replacement rule, whose left-to-right
/// exactness is what makes one recorded reader per location sufficient.
/// Multi-worker runs process accesses in an arbitrary linear extension of
/// the SP order, where one recorded reader is *not* guaranteed to catch
/// every racy location, so they are held to soundness: every reported race
/// must be a genuine parallel conflict on a genuinely racy location.
/// Returns the number of oracle racy locations.
pub fn check_random_scripts(
    shape: ShapeKind,
    tree: &ParseTree,
    seed: u64,
    workers: usize,
) -> Result<u64, Discrepancy> {
    let script = random_mixed_script(tree, 4, 3, seed ^ 0x0DD_B01D);
    let truth = racy_locations_oracle(tree, &script);
    let serial = BackendConfig::serial();

    let (reference, _) = detect_races::<SpOrder>(tree, &script, serial);
    one_entry_per_location("sp-order", &reference)?;
    if reference.racy_locations() != truth {
        return Err(Discrepancy {
            backend: "sp-order",
            detail: format!(
                "random script: racy locations {:?} != oracle {:?}",
                reference.racy_locations(),
                truth
            ),
        });
    }

    let serial_reports = [
        ("sp-bags", detect_races::<SpBags>(tree, &script, serial).0),
        (
            "english-hebrew",
            detect_races::<EnglishHebrewLabels>(tree, &script, serial).0,
        ),
        (
            "offset-span",
            detect_races::<OffsetSpanLabels>(tree, &script, serial).0,
        ),
        ("naive-locked", detect_races::<NaiveBackend>(tree, &script, serial).0),
    ];
    for (name, report) in &serial_reports {
        one_entry_per_location(name, report)?;
        if report.races() != reference.races() {
            return Err(Discrepancy {
                backend: name,
                detail: format!(
                    "random script: serial race report diverges from sp-order: {:?} vs {:?}",
                    report.races(),
                    reference.races()
                ),
            });
        }
    }
    if shape.is_cilk_form() {
        let (report, _) = detect_races::<HybridBackend>(tree, &script, serial);
        one_entry_per_location("sp-hybrid", &report)?;
        if report.races() != reference.races() {
            return Err(Discrepancy {
                backend: "sp-hybrid",
                detail: format!(
                    "random script: serial race report diverges from sp-order: {:?} vs {:?}",
                    report.races(),
                    reference.races()
                ),
            });
        }
    }

    if workers > 1 {
        let cfg = BackendConfig::with_workers(workers);
        let oracle = SpOracle::new(tree);
        let mut parallel_runs = vec![(
            "naive-locked",
            detect_races::<NaiveBackend>(tree, &script, cfg).0,
        )];
        if shape.is_cilk_form() {
            parallel_runs.push(("sp-hybrid", detect_races::<HybridBackend>(tree, &script, cfg).0));
        }
        for (name, report) in &parallel_runs {
            one_entry_per_location(name, report)?;
            for race in report.races() {
                let genuine = race.earlier != race.later
                    && oracle.parallel(race.earlier, race.later)
                    && truth.contains(&race.loc);
                if !genuine {
                    return Err(Discrepancy {
                        backend: name,
                        detail: format!(
                            "random script ({workers} workers): unsound race {race:?} \
                             (oracle racy locations {truth:?})"
                        ),
                    });
                }
            }
        }
    }
    Ok(truth.len() as u64)
}

/// Run the full differential check for one `(shape, size, seed)` case.
///
/// `workers == 1` checks every backend on a deterministic serial schedule;
/// `workers > 1` additionally runs the parallel-capable backends (SP-hybrid,
/// naive) on that many workers.
///
/// ```
/// use spconform::{check_case, ShapeKind};
///
/// let stats = check_case(ShapeKind::DivideAndConquer, 8, 42, 2)
///     .expect("every backend agrees with the oracle");
/// assert!(stats.queries > 0 && stats.injected_races > 0);
/// ```
pub fn check_case(
    shape: ShapeKind,
    size: u32,
    seed: u64,
    workers: usize,
) -> Result<CaseStats, Discrepancy> {
    let tree = shape.build_tree(size, seed);
    let oracle = SpOracle::new(&tree);
    let mut stats = CaseStats {
        threads: tree.num_threads() as u64,
        ..CaseStats::default()
    };

    for kind in BackendKind::ALL {
        if !kind.supports(shape) {
            continue;
        }
        let s = check_backend_queries(kind, &tree, &oracle, 1)?;
        stats.queries += s.queries;
        stats.pair_queries += s.pair_queries;
    }
    if workers > 1 {
        for kind in [BackendKind::Naive, BackendKind::Hybrid] {
            if !kind.supports(shape) {
                continue;
            }
            let s = check_backend_queries(kind, &tree, &oracle, workers)?;
            stats.queries += s.queries;
            stats.pair_queries += s.pair_queries;
        }
    }
    stats.injected_races += check_races(shape, &tree, seed, workers)?;
    stats.emergent_races += check_random_scripts(shape, &tree, seed, workers)?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Sweep + minimization
// ---------------------------------------------------------------------------

/// Configuration of a conformance sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Base seed; every case derives its own seed from it.
    pub base_seed: u64,
    /// Random cases per shape.
    pub cases_per_shape: u32,
    /// Worker count for the periodic multi-worker cases.
    pub parallel_workers: usize,
    /// Every `parallel_every`-th case also runs the parallel backends
    /// multi-worker (0 disables parallel cases).
    pub parallel_every: u32,
    /// Restrict the sweep to a single shape (`None` sweeps all of them).
    /// Per-case seeds are unchanged by the filter: a single-shape run covers
    /// exactly the cases the full sweep would have run for that shape.
    pub only_shape: Option<ShapeKind>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            base_seed: 0xC0FFEE,
            cases_per_shape: 32,
            parallel_workers: 4,
            parallel_every: 8,
            only_shape: None,
        }
    }
}

impl SweepConfig {
    /// Read `SPCONFORM_SEED`, `SPCONFORM_CASES` and `SPCONFORM_SHAPE` from
    /// the environment, falling back to the defaults.  An unknown shape name
    /// panics with the list of valid names — a CI matrix typo must not
    /// silently run an empty sweep.
    pub fn from_env() -> Self {
        let mut config = SweepConfig::default();
        if let Some(seed) = env_u64("SPCONFORM_SEED") {
            config.base_seed = seed;
        }
        if let Some(cases) = env_u64("SPCONFORM_CASES") {
            config.cases_per_shape = cases as u32;
        }
        if let Ok(raw) = std::env::var("SPCONFORM_SHAPE") {
            let raw = raw.trim();
            if !raw.is_empty() {
                config.only_shape = Some(ShapeKind::by_name(raw).unwrap_or_else(|| {
                    panic!(
                        "SPCONFORM_SHAPE: unknown shape {raw:?} (valid: {})",
                        ShapeKind::ALL.map(ShapeKind::name).join(", ")
                    )
                }));
            }
        }
        config
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Aggregate statistics of a green sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Cases run (trees generated).
    pub cases: u64,
    /// Total threads across all generated programs.
    pub threads: u64,
    /// Current-thread queries verified against the oracle.
    pub queries: u64,
    /// Pair relations verified on full backends.
    pub pair_queries: u64,
    /// Injected races all backends were required to find exactly.
    pub injected_races: u64,
    /// Emergent racy locations of random-mix scripts, matched exactly by
    /// the serial backends against the brute-force oracle.
    pub emergent_races: u64,
}

/// SplitMix64, used to derive independent per-case seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The deterministic seed of case number `case` for shape index `shape_idx`
/// under `base_seed` — the derivation [`run_sweep`] uses, exported so other
/// suites draw from the same stream instead of reinventing it.
pub fn case_seed(base_seed: u64, shape_idx: u64, case: u64) -> u64 {
    splitmix64(base_seed.wrapping_add(shape_idx << 40).wrapping_add(case))
}

/// The one sweep loop: `cases_per_shape` cases of `check` for every shape
/// the sweep covers (every shape for [`SweepKind::Tree`], the Cilk-form ones
/// otherwise), each green case folded into the stats by `add`.  Every
/// `parallel_every`-th case runs on `parallel_workers` workers;
/// `workers_override` pins the worker count of every case instead.  On the
/// first disagreement the failing case is [`minimize`]d and returned.
pub(crate) fn sweep<C, S: Default>(
    kind: SweepKind,
    config: &SweepConfig,
    workers_override: Option<usize>,
    check: impl Fn(ShapeKind, u32, u64, usize) -> Result<C, Discrepancy>,
    mut add: impl FnMut(&mut S, C),
) -> Result<S, Box<Failure>> {
    let (seed_offset, base_workers) = kind.plan();
    let mut stats = S::default();
    for (shape_idx, shape) in ShapeKind::ALL.iter().copied().enumerate() {
        if kind != SweepKind::Tree && !shape.is_cilk_form() {
            continue;
        }
        if config.only_shape.is_some_and(|only| only != shape) {
            continue;
        }
        for case in 0..config.cases_per_shape {
            let seed = case_seed(config.base_seed, shape_idx as u64 + seed_offset, case as u64);
            let size = 4 + (seed % 25) as u32;
            let parallel_case = config.parallel_every > 0 && case % config.parallel_every == 0;
            let workers = workers_override.unwrap_or(if parallel_case {
                config.parallel_workers.max(base_workers)
            } else {
                base_workers
            });
            match check(shape, size, seed, workers) {
                Ok(case_stats) => add(&mut stats, case_stats),
                Err(discrepancy) => {
                    let failure = minimize(kind, shape, size, seed, workers, discrepancy, &check);
                    return Err(Box::new(failure));
                }
            }
        }
    }
    Ok(stats)
}

/// The one shrink protocol: shrink a failing case (via the `proptest`
/// shrinker) to the smallest `size` that still fails `check` and package it
/// with the shrunk tree for replay.
///
/// `original` is the discrepancy observed at the unshrunk case.  Multi-worker
/// failures can be timing-dependent and may not reproduce on replay; the
/// shrinker only descends through sizes that failed *when re-checked*, and
/// the reported discrepancy is always the one actually observed at the
/// returned size (falling back to `original` if nothing smaller re-failed —
/// never losing the evidence).
pub(crate) fn minimize<C>(
    sweep: SweepKind,
    shape: ShapeKind,
    size: u32,
    seed: u64,
    workers: usize,
    original: Discrepancy,
    check: impl Fn(ShapeKind, u32, u64, usize) -> Result<C, Discrepancy>,
) -> Failure {
    let mut last = original;
    let min_size = proptest::minimize(size, |&s| match check(shape, s, seed, workers) {
        Err(d) => {
            last = d;
            true
        }
        Ok(_) => false,
    });
    Failure {
        sweep,
        shape,
        size: min_size,
        seed,
        workers,
        discrepancy: last,
        tree: tree_sexpr(&shape.build_tree(min_size, sweep.tree_seed(seed))),
    }
}

/// Run `cases_per_shape` differential cases for every shape.  On the first
/// disagreement the failing case is shrunk to the smallest `size` that still
/// fails and returned as a replayable [`ConformanceFailure`].
///
/// ```
/// use spconform::{run_sweep, SweepConfig};
///
/// let config = SweepConfig { cases_per_shape: 2, ..SweepConfig::default() };
/// let stats = run_sweep(&config).expect("sweep is green");
/// assert_eq!(stats.cases, 20); // 2 cases × 10 shapes
/// ```
pub fn run_sweep(config: &SweepConfig) -> Result<SweepStats, Box<ConformanceFailure>> {
    sweep(SweepKind::Tree, config, None, check_case, |stats: &mut SweepStats, s| {
        stats.cases += 1;
        stats.threads += s.threads;
        stats.queries += s.queries;
        stats.pair_queries += s.pair_queries;
        stats.injected_races += s.injected_races;
        stats.emergent_races += s.emergent_races;
    })
}

/// Shrink a failing [`check_case`] case to the smallest `size` that still
/// fails and package it for replay (the shrink protocol shared by the three
/// sweeps: only sizes that re-fail are descended into, and the reported
/// discrepancy is the one observed at the returned size).
pub fn minimize_failure(
    shape: ShapeKind,
    size: u32,
    seed: u64,
    workers: usize,
    original: Discrepancy,
) -> ConformanceFailure {
    minimize(SweepKind::Tree, shape, size, seed, workers, original, check_case)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_names_round_trip_through_by_name() {
        for shape in ShapeKind::ALL {
            assert_eq!(ShapeKind::by_name(shape.name()), Some(shape));
        }
        assert_eq!(ShapeKind::by_name("no-such-shape"), None);
    }

    #[test]
    fn shapes_build_deterministic_valid_trees() {
        for shape in ShapeKind::ALL {
            for (size, seed) in [(0u32, 1u64), (4, 2), (12, 3), (28, 4)] {
                let a = shape.build_tree(size, seed);
                let b = shape.build_tree(size, seed);
                a.check_invariants();
                assert!(a.num_threads() >= 1, "{shape:?} size={size}");
                assert_eq!(a.num_threads(), b.num_threads(), "determinism");
                assert_eq!(tree_sexpr(&a), tree_sexpr(&b), "determinism");
            }
        }
    }

    #[test]
    fn shape_size_scales_the_program() {
        for shape in ShapeKind::ALL {
            let small = shape.build_tree(2, 9).num_threads();
            let large = shape.build_tree(28, 9).num_threads();
            assert!(large > small, "{shape:?}: {small} !< {large}");
        }
    }

    #[test]
    fn check_case_passes_on_every_shape() {
        for shape in ShapeKind::ALL {
            let stats = check_case(shape, 10, 42, 2).unwrap_or_else(|d| {
                panic!("{}: {} — {}", shape.name(), d.backend, d.detail)
            });
            assert!(stats.queries > 0, "{shape:?} issued no queries");
            assert!(stats.pair_queries > 0, "{shape:?} checked no pairs");
        }
    }

    #[test]
    fn random_scripts_find_emergent_races_on_every_shape() {
        // Across a handful of seeds per shape the random mixes must produce
        // at least one emergent racy location (otherwise the check would be
        // vacuous), and every case must pass serial-exactness + parallel
        // soundness.
        for shape in ShapeKind::ALL {
            let mut emergent = 0;
            for seed in 0..6u64 {
                let tree = shape.build_tree(10, seed);
                emergent += check_random_scripts(shape, &tree, seed, 2).unwrap_or_else(|d| {
                    panic!("{}: {} — {}", shape.name(), d.backend, d.detail)
                });
            }
            assert!(emergent > 0, "{shape:?}: random scripts never raced");
        }
    }

    #[test]
    fn minimizer_shrinks_a_synthetic_failure() {
        // Pretend every case of size >= 7 "fails": the minimizer must land
        // exactly on 7 and the replayable failure must rebuild its tree.
        let shape = ShapeKind::ParallelLoop;
        let min = proptest::minimize(20u32, |&s| s >= 7);
        assert_eq!(min, 7);
        let sexpr = tree_sexpr(&shape.build_tree(min, 3));
        assert!(sexpr.contains("u0"), "tree renders: {sexpr}");
        // The same through the one sweep driver, for every sweep kind: the
        // first failing case shrinks to 7 and replays by the right entry point.
        let config = SweepConfig {
            only_shape: Some(shape),
            ..SweepConfig::default()
        };
        let check = |_: ShapeKind, size: u32, _: u64, workers: usize| {
            if size >= 7 {
                return Err(Discrepancy {
                    backend: "synthetic",
                    detail: format!("size {size} on {workers} workers"),
                });
            }
            Ok(())
        };
        for (kind, replay, pinned) in [
            (SweepKind::Tree, "spconform::check_case(", None),
            (SweepKind::Live, "spconform::live::check_live_case(", None),
            (SweepKind::Service, "spconform::service::check_service_case(", Some(3)),
        ] {
            let failure = sweep(kind, &config, pinned, check, |green: &mut u32, ()| *green += 1)
                .expect_err("sizes 7.. fail");
            assert_eq!((failure.sweep, failure.shape, failure.size), (kind, shape, 7));
            // The shrunk discrepancy was observed on the failing case's workers.
            let detail = format!("size 7 on {} workers", failure.workers);
            assert_eq!(failure.discrepancy.detail, detail);
            if let Some(workers) = pinned {
                assert_eq!(failure.workers, workers, "an override pins every case");
            }
            let text = failure.to_string();
            assert!(text.contains(replay), "{text}");
            assert!(text.contains("shrunk tree: "), "{text}");
        }
    }

    #[test]
    fn sweep_config_reads_env_shapes() {
        let d = SweepConfig::default();
        assert_eq!(d.cases_per_shape, 32);
        assert_eq!(d.base_seed, 0xC0FFEE);
    }

    #[test]
    fn tree_sexpr_matches_structure() {
        use sptree::builder::Ast;
        let tree = Ast::seq(vec![
            Ast::leaf(1),
            Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]),
        ])
        .build();
        assert_eq!(tree_sexpr(&tree), "S(u0, P(u1, u2))");
    }
}
