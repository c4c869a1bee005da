//! # spservice — detection as a service
//!
//! Every other engine in this workspace assumes one program owns one
//! detector for its whole life.  This crate is the *session layer* on top:
//! a [`DetectionService`] accepts [`spprog`] programs as **sessions**, runs
//! many of them concurrently on a shared pool of detector workers, and
//! multiplexes them over pooled [`racedet::LiveDetector`]s that are reset
//! per lease instead of being reallocated — the service analogue of the
//! paper's "detection while the program runs", scaled from one program to
//! heavy concurrent traffic.
//!
//! The moving parts, bottom up:
//!
//! * [`racedet::LiveDetector::reset`] — the recycled detectors.  A lease
//!   refills the session's locations of the value and shadow memory the
//!   detector already holds (16 bytes per location) and lays its shadow
//!   stripes out for the session's own worker count, so a leased detector
//!   *is* the fresh detector a standalone run would build.
//! * [`spprog::run_session`] — the reentrant run entry: a session executes
//!   over a borrowed [`racedet::DetectionSink`] (here: the leased detector)
//!   through the *same* engine loop as a standalone run, deterministically.
//!   Bit-identical reports are therefore by construction, and the
//!   `spconform` service sweep checks them on randomized batches.
//! * [`P2Quantile`] / [`RuntimeEstimator`] — streaming P² medians of
//!   observed session runtimes, keyed by static [`WorkloadSignature`]
//!   buckets (statement/spawn-block/location counts).
//! * The admission scheduler — shortest-job-first on those estimates with
//!   starvation aging, collapsing to a no-overhead sequential mode while
//!   ≤ 1 session is pending.
//!
//! The caller sizes the pool with [`ServiceConfig::workers`].  See the
//! repository-root `ARCHITECTURE.md#detection-as-a-service-spservice` for
//! the design map and `ARCHITECTURE.md#benchmarks-and-experiments` for the
//! `spservice.*` metrics that measure throughput and detector recycling.

#[cfg(test)]
mod arena;
pub mod p2;
pub mod sched;
pub mod service;

pub use p2::P2Quantile;
pub use sched::{RuntimeEstimator, WorkloadSignature};
pub use service::{
    DetectionService, ServiceConfig, ServiceStats, SessionCompleted, SessionHandle,
    SessionMetrics, SessionOutcome, SessionPanicked,
};
