//! # sp-maintenance
//!
//! A from-scratch Rust implementation of
//! *On-the-Fly Maintenance of Series-Parallel Relationships in Fork-Join
//! Multithreaded Programs* (Bender, Fineman, Gilbert, Leiserson — SPAA 2004),
//! together with every substrate and baseline the paper builds on:
//!
//! * [`om`] — order-maintenance lists (single-level, two-level O(1) amortized,
//!   and a concurrent lock-free-query variant),
//! * [`dsu`] — disjoint-set structures (path-compressed, and a
//!   concurrent-read variant),
//! * [`sptree`] — SP parse trees, Cilk canonical form, walks, the LCA oracle,
//!   computation-dag metrics and random program generators,
//! * [`spmaint`] — the serial SP-maintenance algorithms of Figure 3:
//!   SP-order, SP-bags, English-Hebrew labels, offset-span labels,
//! * [`forkrt`] — the Cilk-style work-stealing runtime: one scheduler over
//!   computations that unfold as they run, a materialized parse tree included,
//! * [`sphybrid`] — the parallel SP-hybrid algorithm (global + local tier),
//! * [`racedet`] — one generic race-detection engine over any SP backend,
//! * [`workloads`] — synthetic fork-join programs and access scripts,
//! * [`spconform`] — the differential conformance harness cross-checking
//!   every backend against the LCA oracle on random Cilk programs,
//! * [`spprog`] — **live** fork-join programs: a spawn/sync/step closure API
//!   whose user code executes on the work-stealing scheduler while the SP
//!   parse tree unfolds incrementally and races are detected online, with no
//!   materialized tree on the live path,
//! * [`spservice`] — detection as a service: many concurrent
//!   [`spprog`]-program *sessions* on a shared pool of detector workers,
//!   multiplexed over pooled detectors (each lease resets one in place,
//!   not a reallocation), admitted shortest-job-first on
//!   streaming P² runtime estimates (see
//!   `ARCHITECTURE.md#detection-as-a-service-spservice`).
//!
//! ## The unified `SpBackend` trait
//!
//! All six SP maintainers — [`spmaint::SpOrder`], [`spmaint::SpBags`],
//! [`spmaint::EnglishHebrewLabels`], [`spmaint::OffsetSpanLabels`], the
//! naive locked SP-order ([`sphybrid::NaiveBackend`]) and SP-hybrid
//! ([`sphybrid::HybridBackend`], serial or multi-worker) — implement one
//! trait, [`spmaint::SpBackend`]: *build a structure for a parse tree, run
//! the program while maintaining it, answer `SP-PRECEDES` queries from the
//! currently executing thread*.  Those that also answer arbitrary-pair
//! queries implement [`spmaint::SpQuery`] as well.
//!
//! Two subsystems consume the trait generically:
//!
//! * [`racedet::detect_races`] — the single Nondeterminator-style detection
//!   engine; pick a backend type parameter and a
//!   [`spmaint::BackendConfig`] worker count, get a race report.
//! * [`spconform`] — the differential harness: random programs in five
//!   shapes (divide-and-conquer, parallel loop, deep nesting, random Cilk,
//!   random SP) are driven through **every** backend simultaneously; all
//!   queried relations are cross-checked against [`sptree::SpOracle`] and
//!   all race reports against each other, with failing cases shrunk to a
//!   replayable `(shape, size, seed)` triple.  Sweeps honor the
//!   `SPCONFORM_SEED` / `SPCONFORM_CASES` environment variables (CI runs
//!   three seeds per push).
//!
//! ```
//! use sp_maintenance::prelude::*;
//!
//! // A tiny racy Cilk program: main spawns two children that both write
//! // location 0.
//! let child = |w| Procedure::single(SyncBlock::new().work(w));
//! let main = Procedure::single(SyncBlock::new().spawn(child(2)).spawn(child(3)).work(1));
//! let tree = CilkProgram::new(main).build_tree();
//! let mut script = AccessScript::new(tree.num_threads(), 1);
//! let a = tree.thread_ids().find(|&t| tree.work_of(t) == 2).unwrap();
//! let b = tree.thread_ids().find(|&t| tree.work_of(t) == 3).unwrap();
//! script.push(a, Access::write(0));
//! script.push(b, Access::write(0));
//!
//! // One engine, any backend: serial SP-order or 4-worker SP-hybrid.
//! let (r1, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
//! let (r2, _) = detect_races::<HybridBackend>(&tree, &script, BackendConfig::with_workers(4));
//! assert_eq!(r1.racy_locations(), vec![0]);
//! assert_eq!(r2.racy_locations(), vec![0]);
//! ```
//!
//! ## Live execution
//!
//! The same race is caught *while the program runs* — user closures on the
//! scheduler, the tree unfolding on the fly ([`spprog`]; see
//! `ARCHITECTURE.md#live-execution-spprog`):
//!
//! ```
//! use sp_maintenance::prelude::*;
//!
//! let prog = build_proc(|p| {
//!     p.spawn(|c| { c.step(|m| m.write(0, 1)); });
//!     p.spawn(|c| { c.step(|m| m.write(0, 2)); }); // parallel write: a race
//! });
//! let live = run_program(&prog, &RunConfig::with_workers(2, 1));
//! assert_eq!(live.report.racy_locations(), vec![0]);
//! ```
//!
//! ## Quick start
//!
//! ```
//! use sp_maintenance::prelude::*;
//!
//! // Build a tiny fork-join program:  u0 ; (u1 ∥ u2) ; u3
//! let tree = Ast::seq(vec![
//!     Ast::leaf(1),
//!     Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]),
//!     Ast::leaf(1),
//! ])
//! .build();
//!
//! // Maintain SP relationships on the fly with SP-order and query them.
//! let mut sp: SpOrder = SpOrder::build(&tree, BackendConfig::serial());
//! sp.run_with_queries(&tree, |_, _| {});
//! assert!(sp.precedes(ThreadId(0), ThreadId(3)));
//! assert!(sp.parallel(ThreadId(1), ThreadId(2)));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios (race detection,
//! parallel scaling, algorithm comparison) and the repository-root
//! `ARCHITECTURE.md#benchmarks-and-experiments` for the repository's
//! benchmark.  `ARCHITECTURE.md#paper-to-crate-map` maps every paper section,
//! figure, and theorem (Fig. 3, Thm 5/Cor 6, Thm 10) to the crate and the
//! test or metric that checks it.

pub use dsu;
pub use forkrt;
pub use om;
pub use racedet;
pub use spconform;
pub use sphybrid;
pub use spmaint;
pub use spmetrics;
pub use spprog;
pub use spservice;
pub use sptree;
pub use workloads;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use om::{OrderMaintenance, TagList, TwoLevelList};
    pub use racedet::{detect_races, Access, AccessKind, AccessScript, RaceReport};
    pub use spconform::{
        check_case, check_live_case, run_live_sweep, run_sweep, ShapeKind, SweepConfig,
    };
    pub use spprog::{
        build_proc, record_program, run_program, run_session, try_run_program,
        DeterminacyViolation, Divergence, Proc, ProcBuilder, RunConfig, SessionMode, StepCtx,
    };
    pub use spmetrics::{CounterId, EventKind, HistId, MetricsHandle, MetricsRegistry};
    pub use spservice::{DetectionService, ServiceConfig, SessionMetrics, SessionOutcome};
    pub use sphybrid::{HybridBackend, NaiveBackend};
    pub use spmaint::{
        BackendConfig, CurrentSpQuery, EnglishHebrewLabels, OffsetSpanLabels, SpBackend, SpBags,
        SpOrder, SpQuery,
    };
    pub use sptree::{
        Ast, CilkProgram, NodeId, NodeKind, ParseTree, Procedure, Relation, SpOracle, Stmt,
        SyncBlock, ThreadId, WorkSpan,
    };
    pub use workloads::{
        branch_bound_plan, live_branch_bound, live_quicksort, live_reduction, quicksort_input,
        reduction_input, reduction_plan, BranchBoundPlan, LiveWorkload, ReductionPlan, Workload,
        WorkloadKind,
    };
}
