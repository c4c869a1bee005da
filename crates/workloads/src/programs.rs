//! Named fork-join program families with controllable size.

use sptree::cilk::CilkProgram;
use sptree::dag::WorkSpan;
use sptree::generate::{
    balanced_parallel, fib_like, flat_parallel_loop, left_deep_parallel, random_cilk_program,
    random_sp_ast, serial_chain, CilkGenParams,
};
use sptree::tree::ParseTree;

/// The program families used throughout the benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// Divide-and-conquer recursion in the style of `fib` — the canonical
    /// Cilk example; high parallelism, logarithmic critical path.
    Fib,
    /// Balanced divide-and-conquer parallel loop (`cilk_for` style).
    ParallelLoop,
    /// A loop that spawns each iteration in sequence: linear nesting depth.
    SpawnChainLoop,
    /// Pure serial chain: no parallelism at all (worst case for speedup,
    /// best case for SP-maintenance overhead measurements).
    SerialChain,
    /// Left-deep chain of P-nodes: maximal P-nesting depth `d`.
    DeepNesting,
    /// Random series-parallel tree (50% P-nodes).
    RandomSp,
    /// Random canonical Cilk program (procedures + sync blocks).
    RandomCilk,
}

impl WorkloadKind {
    /// All families, for sweeps.
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::Fib,
        WorkloadKind::ParallelLoop,
        WorkloadKind::SpawnChainLoop,
        WorkloadKind::SerialChain,
        WorkloadKind::DeepNesting,
        WorkloadKind::RandomSp,
        WorkloadKind::RandomCilk,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Fib => "fib",
            WorkloadKind::ParallelLoop => "parallel-loop",
            WorkloadKind::SpawnChainLoop => "spawn-chain-loop",
            WorkloadKind::SerialChain => "serial-chain",
            WorkloadKind::DeepNesting => "deep-nesting",
            WorkloadKind::RandomSp => "random-sp",
            WorkloadKind::RandomCilk => "random-cilk",
        }
    }

    /// Only canonical Cilk-form workloads are suitable for SP-hybrid (the
    /// paper assumes Cilk programs; see the footnote-6 row of the
    /// repository-root `ARCHITECTURE.md#paper-to-crate-map`).
    pub fn is_cilk_form(self) -> bool {
        matches!(
            self,
            WorkloadKind::Fib | WorkloadKind::RandomCilk | WorkloadKind::SerialChain
        )
    }
}

/// A concrete program instance: the parse tree plus its metrics.
pub struct Workload {
    /// Which family it came from.
    pub kind: WorkloadKind,
    /// The SP parse tree.
    pub tree: ParseTree,
    /// Work and critical path.
    pub metrics: WorkSpan,
}

impl Workload {
    /// Build an instance of `kind` with roughly `target_threads` threads; each
    /// thread carries `work_per_thread` abstract work.  `seed` controls the
    /// random families.
    pub fn build(
        kind: WorkloadKind,
        target_threads: usize,
        work_per_thread: u64,
        seed: u64,
    ) -> Workload {
        let target = target_threads.max(2);
        let tree = match kind {
            WorkloadKind::Fib => {
                // fib_like(d) has roughly Fibonacci(d) leaves; pick the depth
                // that gets closest to the target.
                let mut depth = 2u32;
                loop {
                    let t = CilkProgram::new(fib_like(depth, work_per_thread)).build_tree();
                    if t.num_threads() >= target || depth > 30 {
                        break t;
                    }
                    depth += 1;
                }
            }
            WorkloadKind::ParallelLoop => balanced_parallel(target, work_per_thread).build(),
            WorkloadKind::SpawnChainLoop => flat_parallel_loop(target, work_per_thread).build(),
            WorkloadKind::SerialChain => serial_chain(target, work_per_thread).build(),
            WorkloadKind::DeepNesting => left_deep_parallel(target - 1, work_per_thread).build(),
            WorkloadKind::RandomSp => random_sp_ast(target, 0.5, seed).build(),
            WorkloadKind::RandomCilk => {
                // Scale the spawn depth until the program is big enough.
                let mut depth = 3u32;
                loop {
                    let params = CilkGenParams {
                        max_depth: depth,
                        max_blocks: 2,
                        max_stmts: 4,
                        spawn_prob: 0.55,
                        work: work_per_thread,
                    };
                    let t = CilkProgram::new(random_cilk_program(params, seed)).build_tree();
                    if t.num_threads() >= target || depth > 24 {
                        break t;
                    }
                    depth += 1;
                }
            }
        };
        let metrics = WorkSpan::of(&tree);
        Workload {
            kind,
            tree,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_and_reports_metrics() {
        for kind in WorkloadKind::ALL {
            let w = Workload::build(kind, 200, 3, 7);
            w.tree.check_invariants();
            assert!(w.tree.num_threads() >= 2, "{:?}", kind);
            assert!(w.metrics.work > 0);
            assert!(w.metrics.span > 0);
            assert!(w.metrics.span <= w.metrics.work);
        }
    }

    #[test]
    fn family_shapes_have_expected_parallelism_ordering() {
        let loop_w = Workload::build(WorkloadKind::ParallelLoop, 512, 4, 0);
        let chain_w = Workload::build(WorkloadKind::SerialChain, 512, 4, 0);
        let fib_w = Workload::build(WorkloadKind::Fib, 512, 4, 0);
        assert!(loop_w.metrics.parallelism() > fib_w.metrics.parallelism());
        assert!(fib_w.metrics.parallelism() > chain_w.metrics.parallelism());
        assert!((chain_w.metrics.parallelism() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deep_nesting_maximizes_p_depth() {
        let deep = Workload::build(WorkloadKind::DeepNesting, 256, 1, 0);
        let balanced = Workload::build(WorkloadKind::ParallelLoop, 256, 1, 0);
        assert!(deep.tree.max_p_nesting() > 8 * balanced.tree.max_p_nesting());
    }

    #[test]
    fn target_thread_count_is_roughly_respected() {
        for kind in [WorkloadKind::ParallelLoop, WorkloadKind::SerialChain, WorkloadKind::RandomSp] {
            let w = Workload::build(kind, 1000, 1, 3);
            assert!(w.tree.num_threads() >= 1000);
            assert!(w.tree.num_threads() <= 1100);
        }
        let fib = Workload::build(WorkloadKind::Fib, 1000, 1, 3);
        assert!(fib.tree.num_threads() >= 1000);
    }
}
