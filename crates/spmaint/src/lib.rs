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
//! Every algorithm here, and the two parallel maintainers in `sphybrid`
//! (SP-hybrid and the naive locked SP-order), implements the one maintainer
//! trait [`SpBackend`]: build for a parse tree, run the program, answer
//! [`CurrentSpQuery`] queries from the currently executing thread.  The
//! serial algorithms are [`sptree::walk::TreeVisitor`]s run by the
//! left-to-right driver [`run_serial_with_queries`], mirroring how a serial
//! race detector executes the program under test.  Those that also answer
//! arbitrary-pair queries implement [`SpQuery`].  The generic race-detection
//! engine in `racedet` and the differential conformance harness in
//! `spconform` drive all six implementations through [`SpBackend`].  For a
//! computation that unfolds as it runs instead of arriving as a tree,
//! [`stream`] holds the event-driven SP-order ([`StreamingSpBackend`]).  The
//! repository-root `ARCHITECTURE.md#serial-sp-maintenance-figure-3` places
//! this crate in the paper-to-crate map.

pub mod api;
pub mod english_hebrew;
pub mod offset_span;
pub mod sp_bags;
pub mod sp_order;
pub mod stream;

pub use api::{run_serial_with_queries, BackendConfig, CurrentSpQuery, SpBackend, SpQuery};
pub use english_hebrew::EnglishHebrewLabels;
pub use offset_span::OffsetSpanLabels;
pub use sp_bags::SpBags;
pub use sp_order::SpOrder;
pub use stream::{stream_tree, SerialSpBags, StreamNode, StreamingSpBackend, StreamingSpOrder};
