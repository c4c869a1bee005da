//! End-to-end and per-layer benchmark of the SP-maintenance workspace.
//!
//! A package of its own: it depends on the repository only through the
//! `sp_maintenance` facade and drives it through public entry points, so
//! every layer is measured from outside.  `README.md` beside this crate
//! documents the workloads, the metrics and how they interact.

pub mod env;
pub mod json;
pub mod measure;
pub mod sinks;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
