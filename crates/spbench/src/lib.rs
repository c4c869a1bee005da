//! Shared helpers for the benchmark harness.
//!
//! Every bench target in `benches/` reproduces one table or figure of the
//! paper (the repository-root `ARCHITECTURE.md#benchmarks-and-experiments`
//! is the experiment index; measured rows are the committed `BENCH_*.json`):
//!
//! * `fig3_comparison` — Figure 3: per-operation cost and per-node space of
//!   the four serial SP-maintenance algorithms, plus label growth.
//! * `thm5_cor6_serial` — Theorem 5 and Corollary 6: SP-order total
//!   construction time stays linear in n, and race-detection overhead stays a
//!   constant factor over T₁.
//! * `thm10_scaling` — Theorem 10: SP-hybrid wall time vs worker count, steal
//!   counts vs P·T∞, comparison against an uninstrumented walk.
//! * `ablations` — design-choice ablations: two-level vs single-level order
//!   maintenance, path compression vs rank-only union-find, SP-hybrid vs the
//!   naive globally-locked SP-order of §3, lock-free query retries.
//! * `backend_matrix` — all six SP maintainers behind the unified
//!   `spmaint::SpBackend` trait through the one generic race-detection
//!   engine (`racedet::detect_races`), so rows are directly comparable.

use spmaint::api::OnTheFlySp;
use spmaint::run_serial;
use sptree::tree::{ParseTree, ThreadId};

pub mod report;
pub use report::{BenchReport, Row};

/// Build an SP structure and return (nanoseconds per thread creation,
/// nanoseconds per query, bytes per node) — one row of Figure 3.
pub fn measure_serial_algorithm<A: OnTheFlySp>(tree: &ParseTree, queries: usize) -> (f64, f64, f64) {
    let start = std::time::Instant::now();
    let alg: A = run_serial(tree);
    let build = start.elapsed();

    let n = tree.num_threads() as u32;
    let start = std::time::Instant::now();
    let mut acc = 0u64;
    for i in 0..queries as u32 {
        let earlier = ThreadId((i.wrapping_mul(2654435761)) % (n - 1));
        acc += alg.precedes_current(earlier) as u64;
    }
    let query = start.elapsed();
    std::hint::black_box(acc);

    (
        build.as_nanos() as f64 / tree.num_threads() as f64,
        query.as_nanos() as f64 / queries.max(1) as f64,
        alg.space_bytes() as f64 / tree.num_nodes() as f64,
    )
}

/// A short human-readable summary line used by the benches' println reports.
pub fn row(label: &str, values: &[(&str, f64)]) -> String {
    let mut out = format!("{label:<24}");
    for (name, v) in values {
        out.push_str(&format!(" {name}={v:.1}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmaint::SpOrder;
    use sptree::generate::random_sp_ast;

    #[test]
    fn measurement_helper_produces_sane_numbers() {
        let tree = random_sp_ast(2000, 0.5, 1).build();
        let (create, query, space) = measure_serial_algorithm::<SpOrder>(&tree, 10_000);
        assert!(create > 0.0 && create < 1e7);
        assert!(query > 0.0 && query < 1e7);
        assert!(space > 0.0);
    }

    #[test]
    fn row_formatting() {
        let s = row("sp-order", &[("create", 10.0), ("query", 5.0)]);
        assert!(s.contains("sp-order"));
        assert!(s.contains("create=10.0"));
    }
}
