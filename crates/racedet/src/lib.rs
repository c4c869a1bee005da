//! On-the-fly determinacy-race detection — the application the paper's
//! SP-maintenance algorithms exist to serve.
//!
//! A *determinacy race* occurs when two logically parallel threads access the
//! same shared-memory location and at least one of the accesses is a write.
//! The Nondeterminator-style detector keeps, for every shadowed location, one
//! recorded *writer* and one recorded *reader*; every access by the currently
//! executing thread issues O(1) SP queries against those recorded threads
//! (`parallel?`) and updates them.  The per-access cost is therefore exactly
//! the SP-maintenance query cost, which is why Figure 3's comparison
//! translates directly into end-to-end detector overhead (Corollary 6: with
//! SP-order the whole instrumented run costs O(T₁)).
//!
//! There is **one** detection engine ([`engine::detect_races`]), generic over
//! the unified [`spmaint::SpBackend`] trait, so the same shadow-memory logic
//! drives all six SP maintainers of this repository: the four serial
//! Figure-3 algorithms, the naive locked SP-order, and SP-hybrid.  Pinned
//! to one worker with a serial algorithm (`BackendConfig::serial()`) it is
//! the classic left-to-right simulating detector; instantiated with
//! `sphybrid::HybridBackend` it is the parallel detector on the `forkrt`
//! work-stealing runtime.
//!
//! The shadow store is the sharded, cache-aware
//! [`shadow::ShardedShadowMemory`]: packed atomic cells under striped locks
//! sized to the worker count, with a lock-free fast path and per-thread
//! shard batching in the engine (see [`engine`] and the repository-root
//! `ARCHITECTURE.md#race-detection-racedet` for the design).
//!
//! Memory accesses are provided as per-thread *access scripts*
//! ([`access::AccessScript`]), the synthetic stand-in for instrumenting a real
//! program (see `ARCHITECTURE.md#race-detection-racedet`; a *live* program's
//! real accesses take the [`live`] path instead).

pub mod access;
pub mod engine;
pub mod epoch;
pub mod live;
#[cfg(test)]
mod parallel;
pub mod report;
#[cfg(test)]
mod serial;
pub mod shadow;

pub use access::{Access, AccessKind, AccessScript};
pub use engine::{check_thread_accesses, detect_races};
pub use epoch::{EpochShadowArena, EpochShadowView};
pub use live::{DetectionSink, LiveDetector};
pub use report::{Race, RaceCollector, RaceKind, RaceReport};
pub use shadow::{ShadowCell, ShadowStore, ShardedShadowMemory};
