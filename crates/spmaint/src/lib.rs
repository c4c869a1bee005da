//! Serial SP-maintenance algorithms.
//!
//! An *SP-maintenance* data structure ingests an SP parse tree as it unfolds
//! during a (serial) execution and answers queries about the series-parallel
//! relationship between threads.  This crate implements every serial
//! algorithm that appears in Figure 3 of the paper:
//!
//! | Algorithm | Space per node | Thread creation | Query |
//! |---|---|---|---|
//! | [`EnglishHebrewLabels`] (Nudler–Rudolph style static labels) | Θ(f) | Θ(f)¹ | Θ(f) |
//! | [`OffsetSpanLabels`] (Mellor-Crummey) | Θ(d) | Θ(d)¹ | Θ(d) |
//! | [`SpBags`] (Feng–Leiserson) | Θ(1) | Θ(α(v,v)) | Θ(α(v,v)) |
//! | [`SpOrder`] (this paper) | Θ(1) | Θ(1) | Θ(1) |
//!
//! where `f` is the number of forks, `d` the maximum nesting depth of
//! parallelism, and α Tarjan's functional inverse of Ackermann's function.
//! ¹ In our label-based baselines the creation cost includes materializing the
//! label (a copy of the ancestor path), so it grows like the label length; the
//! original schemes share label prefixes and advertise Θ(1) creation.  The
//! growth behaviour that the paper's comparison highlights — label length and
//! query time growing with `f` or `d` while SP-order stays constant — is
//! preserved and is what `examples/algorithm_comparison.rs` prints.
//!
//! All algorithms are driven through the [`sptree::walk::TreeVisitor`]
//! interface by a serial left-to-right walk ([`run_serial`],
//! [`run_serial_with_queries`]), mirroring how a serial race detector executes
//! the program under test and issues queries from the currently executing
//! thread.
//!
//! Every algorithm additionally implements the unified [`SpBackend`] trait,
//! the common interface shared with the parallel maintainers in `sphybrid`
//! (SP-hybrid and the naive locked SP-order).  The generic race-detection
//! engine in `racedet` and the differential conformance harness in
//! `spconform` drive all six implementations through that one trait.  The
//! repository-root `ARCHITECTURE.md#serial-sp-maintenance-figure-3` places
//! this crate in the paper-to-crate map.

pub mod api;
pub mod english_hebrew;
pub mod offset_span;
pub mod sp_bags;
pub mod sp_order;
pub mod stream;

pub use api::{
    run_serial, run_serial_backend, run_serial_with_queries, BackendConfig, CurrentSpQuery,
    FullSpBackend, OnTheFlySp, SpBackend, SpQuery,
};
pub use english_hebrew::EnglishHebrewLabels;
pub use offset_span::OffsetSpanLabels;
pub use sp_bags::SpBags;
pub use sp_order::SpOrder;
pub use stream::{stream_tree, SerialSpOrder, StreamNode, StreamingSpBackend, StreamingSpOrder};
