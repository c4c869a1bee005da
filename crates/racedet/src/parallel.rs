//! The engine over SP-hybrid on the work-stealing runtime: every worker
//! checks its threads' scripted accesses against the shared sharded shadow
//! memory and queries through the two tiers — the end-to-end system
//! Theorem 10 is about.  Test-only: the entry point is
//! [`crate::detect_races`] with `sphybrid::HybridBackend`; the module keeps
//! its name so these tests keep the ids (`parallel::tests::*`) the suite's
//! floor list knows them by.

mod tests {
    use crate::access::{Access, AccessScript};
    use crate::engine::detect_races;
    use crate::report::RaceReport;
    use sphybrid::{HybridBackend, HybridStats};
    use spmaint::api::BackendConfig;
    use spmaint::SpOrder;
    use sptree::tree::ParseTree;
    use sptree::cilk::{CilkProgram, Procedure, SyncBlock};
    use sptree::generate::fib_like;

    /// The engine over SP-hybrid on `workers` workers.
    fn detect_parallel(tree: &ParseTree, script: &AccessScript, workers: usize) -> (RaceReport, HybridStats) {
        let (report, backend) =
            detect_races::<HybridBackend>(tree, script, BackendConfig::with_workers(workers));
        let stats = backend
            .stats()
            .expect("run_with_queries completed, so stats are recorded");
        (report, stats.clone())
    }

    /// main spawns two children that both write the same location.
    fn racy_cilk_program() -> (ParseTree, AccessScript) {
        let child = |work| Procedure::single(SyncBlock::new().work(work));
        let main = Procedure::single(SyncBlock::new().spawn(child(3)).spawn(child(5)).work(1));
        let tree = CilkProgram::new(main).build_tree();
        let mut script = AccessScript::new(tree.num_threads(), 4);
        let a = tree.thread_ids().find(|&t| tree.work_of(t) == 3).unwrap();
        let b = tree.thread_ids().find(|&t| tree.work_of(t) == 5).unwrap();
        script.push(a, Access::write(0));
        script.push(b, Access::write(0));
        (tree, script)
    }

    #[test]
    fn parallel_detector_finds_injected_race() {
        let (tree, script) = racy_cilk_program();
        for workers in [1usize, 2, 4] {
            let (report, stats) = detect_parallel(&tree, &script, workers);
            assert_eq!(report.racy_locations(), vec![0], "workers = {workers}");
            assert_eq!(stats.traces as u64, 4 * stats.run.steals + 1);
        }
    }

    #[test]
    fn race_free_program_stays_clean_in_parallel() {
        // fib-like program where every thread touches only its own location.
        let tree = CilkProgram::new(fib_like(8, 1)).build_tree();
        let mut script = AccessScript::new(tree.num_threads(), tree.num_threads() as u32);
        for t in tree.thread_ids() {
            script.push(t, Access::write(t.0));
            script.push(t, Access::read(t.0));
        }
        for workers in [1usize, 4] {
            let (report, _stats) = detect_parallel(&tree, &script, workers);
            assert!(report.is_empty(), "workers = {workers}: {:?}", report.races());
        }
    }

    #[test]
    fn parallel_and_serial_detectors_agree_on_racy_locations() {
        // A program with shared read-mostly data plus one racy counter.
        let child = |id: u64| Procedure::single(SyncBlock::new().work(id));
        let main = Procedure::new()
            .block(SyncBlock::new().work(100).spawn(child(1)).spawn(child(2)).spawn(child(3)))
            .block(SyncBlock::new().work(101));
        let tree = CilkProgram::new(main).build_tree();
        let mut script = AccessScript::new(tree.num_threads(), 8);
        // Thread with work 100 initializes location 1 (before the spawns).
        let init = tree.thread_ids().find(|&t| tree.work_of(t) == 100).unwrap();
        script.push(init, Access::write(1));
        // Every spawned child reads location 1 (no race) and writes location 2
        // (races between children).
        for id in 1..=3u64 {
            let t = tree.thread_ids().find(|&t| tree.work_of(t) == id).unwrap();
            script.push(t, Access::read(1));
            script.push(t, Access::write(2));
        }
        // The thread after the sync reads location 2: no race (all writers joined).
        let after = tree.thread_ids().find(|&t| tree.work_of(t) == 101).unwrap();
        script.push(after, Access::read(2));

        let (serial_report, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        for workers in [1usize, 2, 4] {
            let (par_report, _) = detect_parallel(&tree, &script, workers);
            assert_eq!(
                par_report.racy_locations(),
                serial_report.racy_locations(),
                "workers = {workers}"
            );
        }
        assert_eq!(serial_report.racy_locations(), vec![2]);
    }
}
