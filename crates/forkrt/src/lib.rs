//! A Cilk-like work-stealing runtime for fork-join computations whose SP
//! parse tree unfolds as they run.
//!
//! The SP-hybrid algorithm (paper §3–§7) is "described and analyzed as a Cilk
//! program": its correctness (Lemma 7) and its O(P·T∞) steal bound rely on two
//! properties of Cilk's work-stealing scheduler —
//!
//! 1. each processor unfolds the parse tree left-to-right, and
//! 2. a thief always steals the continuation of the **topmost** P-node whose
//!    left subtree the victim is still walking.
//!
//! The original system ran on MIT Cilk-5; this crate reproduces the
//! scheduling behaviour **once**, in [`run_live`], with explicit frames over
//! a [`LiveProgram`] — a cursor plus an `unfold` function that reveals one
//! node at a time:
//!
//! * each worker owns a [`crossbeam_deque::Worker`] deque; unfolding a P-node
//!   pushes its frame onto the bottom of the deque and descends into the left
//!   child, so the deque holds the open P-frames of the worker's current
//!   leftward path, oldest (topmost) at the steal end;
//! * thieves steal from the top, giving exactly Cilk's steal-from-the-oldest
//!   behaviour;
//! * when a worker finishes the left subtree of a P-node it pops its deque:
//!   getting the frame back means no steal happened (the `SYNCHED()` test of
//!   Figure 8) and the walk continues serially; an empty pop means the
//!   continuation was stolen, and the join is resolved with a two-flag
//!   protocol so that the **last** of the two workers to finish continues the
//!   walk above the P-node — matching Cilk's semantics where the processor
//!   that passes a sync last resumes the frame;
//! * a 64-bit *token* travels along the walk exactly like the trace argument
//!   `U` of `SP-HYBRID(X, U)` in Figure 8; the [`LiveVisitor`] decides what
//!   tokens mean (SP-hybrid uses them as trace identifiers).
//!
//! Two kinds of program run on it: the `spprog` crate's fork-join API, whose
//! `unfold` instantiates procedures as the user's closures spawn them, and
//! [`TreeProgram`], which unfolds a materialized [`sptree::tree::ParseTree`]
//! by reading children from the arena — the path every tree-driven
//! maintainer, conformance sweep, and paper benchmark takes.
//! [`run_live_serial`] is the single-threaded elision of the same unfolding.
//!
//! The runtime reports steal counts and per-worker statistics ([`RunStats`]),
//! which the Theorem-10 benchmarks compare against the O(P·T∞) bound.

pub mod live;
pub mod metrics;
pub mod tree;

pub use live::{
    run_live, run_live_serial, LiveConfig, LiveNode, LiveProgram, LiveVisitor, SerialLiveVisitor,
    SpKind, StealTokens, Token,
};
pub use metrics::RunStats;
pub use tree::TreeProgram;

// The tree scheduler's unit tests, re-pointed at `run_live` over
// `TreeProgram`.  The module keeps the name `scheduler` so the tests keep
// the ids (`scheduler::tests::*`) the suite's floor list knows them by.
#[cfg(test)]
#[path = "tree_tests.rs"]
mod scheduler;
