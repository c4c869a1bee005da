//! SP-hybrid: parallel on-the-fly SP maintenance (paper §3–§7).
//!
//! SP-hybrid maintains series-parallel relationships while the program runs
//! **in parallel** under a Cilk-style work-stealing scheduler (our `forkrt`
//! crate).  It is a two-tier structure ([`LiveSpHybrid`]), driven by
//! maintenance events; [`HybridBackend`] feeds it from a materialized parse
//! tree and `spprog` from a live run, on the same runtime:
//!
//! * the **global tier** ([`global_tier::GlobalTier`]) is a shared SP-order
//!   structure over *traces* — sets of threads executed on one processor
//!   between steals.  Insertions happen only when a steal splits a trace, so
//!   there are O(P·T∞) of them; they are serialized by a lock.  Queries are
//!   lock-free ([`om::ConcurrentOmList`]).
//! * the **local tier** ([`local_tier::LocalTier`]) is an SP-bags structure
//!   per trace over a shared union-find with atomic parent pointers, so that
//!   `FIND-TRACE` can run concurrently with the single-owner unions.  A steal
//!   splits the victim's trace into five subtraces in O(1) by moving the
//!   stolen procedure's S-bag and P-bag (paper §5).
//!
//! Queries follow Figure 9: if the two threads are in the same trace the local
//! tier answers; otherwise the English/Hebrew order of their traces answers.
//! Like the paper, the query semantics are *current-thread* semantics: one of
//! the two threads must be currently executing — exactly what a race detector
//! needs.
//!
//! As in the paper, SP-hybrid assumes the program is given in canonical Cilk
//! form (procedures and sync blocks — [`sptree::cilk`]); any fork-join
//! program can be put in that form by adding empty threads (paper footnote 6).
//!
//! The crate also contains [`naive::NaiveSharedSpOrder`], the strawman of §3
//! (one global lock around a shared SP-order structure): the design the
//! two-tier structure exists to avoid, run tree-driven only
//! ([`NaiveBackend`]) — live runs use SP-hybrid.
//!
//! Both tree drivers implement the one maintainer trait
//! [`spmaint::SpBackend`], so `racedet`'s generic engine and the `spconform`
//! harness drive them interchangeably with the serial Figure-3 algorithms.

pub mod backend;
pub mod global_tier;
#[cfg(test)]
mod hybrid;
pub mod live;
pub mod local_tier;
pub mod naive;
pub mod trace;

pub use backend::{HybridBackend, HybridStats, NaiveBackend};
pub use live::{LiveSpHybrid, TraceSplit};
pub use naive::NaiveSharedSpOrder;
pub use trace::TraceId;
