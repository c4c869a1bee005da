//! Scheduling behaviour on materialized trees: [`run_live`] over
//! [`TreeProgram`] must deliver the serial walk on one worker and stay
//! structurally sound (exactly-once leaves, balanced enters and closes)
//! under steals.

mod tests {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    use spmetrics::MetricsHandle;
    use sptree::builder::Ast;
    use sptree::generate::{balanced_parallel, random_sp_ast, serial_chain};
    use sptree::tree::{NodeId, ParseTree};
    use sptree::walk::{serial_walk, WalkEvent};

    use crate::{
        run_live, LiveConfig, LiveVisitor, RunStats, SpKind, StealTokens, Token, TreeProgram,
    };

    /// Visitor that records which threads executed and how often, plus event
    /// balance, and hands out fresh tokens on steals.
    struct Recorder<'t> {
        tree: &'t ParseTree,
        executed: Vec<AtomicUsize>,
        enters: AtomicUsize,
        leaves_or_joins: AtomicUsize,
        steals_seen: AtomicUsize,
        next_token: AtomicU64,
        /// Every event in arrival order, with the token it carried.
        events: Mutex<Vec<(WalkEvent, Token)>>,
        spin: u64,
    }

    impl<'t> Recorder<'t> {
        fn new(tree: &'t ParseTree, spin: u64) -> Self {
            Recorder {
                tree,
                executed: (0..tree.num_threads())
                    .map(|_| AtomicUsize::new(0))
                    .collect(),
                enters: AtomicUsize::new(0),
                leaves_or_joins: AtomicUsize::new(0),
                steals_seen: AtomicUsize::new(0),
                next_token: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                spin,
            }
        }

        fn log(&self, event: WalkEvent, token: Token) {
            self.events.lock().unwrap().push((event, token));
        }
    }

    impl<'t> LiveVisitor<TreeProgram<'t>> for Recorder<'t> {
        fn enter_internal(
            &self,
            _w: usize,
            _k: SpKind,
            &node: &NodeId,
            _tag: u64,
            token: Token,
        ) -> (u64, u64) {
            self.enters.fetch_add(1, Ordering::Relaxed);
            self.log(WalkEvent::EnterInternal(node), token);
            (0, 0)
        }
        fn between_children(&self, _w: usize, _k: SpKind, &node: &NodeId, token: Token) {
            self.log(WalkEvent::BetweenChildren(node), token);
        }
        fn leave_internal(&self, _w: usize, _k: SpKind, &node: &NodeId, token: Token) {
            self.leaves_or_joins.fetch_add(1, Ordering::Relaxed);
            self.log(WalkEvent::LeaveInternal(node), token);
        }
        fn join_stolen(&self, _w: usize, _node: &NodeId, _after: Token) {
            self.leaves_or_joins.fetch_add(1, Ordering::Relaxed);
        }
        fn execute_leaf(&self, _w: usize, &node: &NodeId, _tag: u64, token: Token) {
            let thread = self.tree.thread_of(node).expect("leaves carry a thread");
            self.executed[thread.index()].fetch_add(1, Ordering::Relaxed);
            self.log(WalkEvent::Thread(node, thread), token);
            // Busy work to widen the steal window.
            let mut x = 1u64;
            for i in 0..self.spin {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        fn steal(&self, _thief: usize, _victim: usize, _p: &NodeId, _token: Token) -> StealTokens {
            self.steals_seen.fetch_add(1, Ordering::Relaxed);
            let right = self.next_token.fetch_add(2, Ordering::Relaxed);
            StealTokens {
                right,
                after: right + 1,
            }
        }
    }

    fn run(
        tree: &ParseTree,
        recorder: &Recorder<'_>,
        config: LiveConfig,
        token: Token,
    ) -> RunStats {
        run_live(
            &TreeProgram::new(tree),
            recorder,
            config,
            0,
            token,
            &MetricsHandle::detached(),
        )
    }

    fn check_run(tree: &ParseTree, workers: usize, spin: u64) -> RunStats {
        let recorder = Recorder::new(tree, spin);
        let stats = run(tree, &recorder, LiveConfig::with_workers(workers), 0);
        // Every thread executed exactly once.
        for (i, count) in recorder.executed.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::Relaxed),
                1,
                "thread {i} execution count"
            );
        }
        // Every internal node entered exactly once and completed exactly once.
        let internal = tree.num_nodes() - tree.num_threads();
        assert_eq!(recorder.enters.load(Ordering::Relaxed), internal);
        assert_eq!(recorder.leaves_or_joins.load(Ordering::Relaxed), internal);
        // Steal count in the stats matches steal callbacks.
        assert_eq!(
            stats.steals as usize,
            recorder.steals_seen.load(Ordering::Relaxed)
        );
        assert_eq!(stats.total_threads() as usize, tree.num_threads());
        stats
    }

    fn adapter_trees() -> [ParseTree; 3] {
        [
            random_sp_ast(300, 0.5, 42).build(),
            serial_chain(5_000, 1).build(),
            Ast::leaf(1).build(),
        ]
    }

    #[test]
    fn single_worker_matches_serial_semantics() {
        // One worker over the adapter delivers exactly the events of
        // `serial_walk` — enter / thread / between / leave, node by node.
        for tree in adapter_trees() {
            let recorder = Recorder::new(&tree, 0);
            let stats = run(&tree, &recorder, LiveConfig::with_workers(1), 0);
            assert_eq!(stats.steals, 0, "one worker can never steal");
            assert_eq!(
                stats.final_token, 0,
                "token must be unchanged without steals"
            );
            let mut expected = Vec::new();
            serial_walk(&tree, |event| expected.push(event));
            let seen: Vec<WalkEvent> = recorder
                .events
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|(event, _)| event)
                .collect();
            assert_eq!(seen, expected, "{} nodes", tree.num_nodes());
        }
    }

    #[test]
    fn tokens_propagate_serially_when_not_stolen() {
        // With one worker, every event — every leaf included — must carry
        // the initial token.
        for tree in adapter_trees() {
            let recorder = Recorder::new(&tree, 0);
            let stats = run(&tree, &recorder, LiveConfig::with_workers(1), 77);
            assert_eq!(stats.final_token, 77);
            let events = recorder.events.into_inner().unwrap();
            assert!(events.iter().all(|&(_, token)| token == 77));
            let leaves = events
                .iter()
                .filter(|(e, _)| matches!(e, WalkEvent::Thread(..)))
                .count();
            assert_eq!(leaves, tree.num_threads());
        }
    }

    #[test]
    fn two_workers_complete_all_threads() {
        for seed in 0..5u64 {
            let tree = random_sp_ast(400, 0.6, seed).build();
            check_run(&tree, 2, 200);
        }
    }

    #[test]
    fn many_workers_on_balanced_parallel_tree() {
        let tree = balanced_parallel(2048, 1).build();
        let stats = check_run(&tree, 8, 500);
        // With 8 workers and 2048 long-running parallel leaves, steals
        // essentially always occur; the structural checks above are the real
        // assertions, but verify work actually spread out.
        assert!(stats.steals > 0, "expected at least one steal");
        assert!(
            stats.threads_per_worker.iter().filter(|&&c| c > 0).count() > 1,
            "work should be distributed across workers"
        );
    }

    #[test]
    fn serial_chain_cannot_be_stolen() {
        // A pure serial chain has no P-nodes, hence nothing to steal.
        let tree = serial_chain(500, 1).build();
        let stats = check_run(&tree, 4, 10);
        assert_eq!(stats.steals, 0);
        // All threads executed by worker 0.
        assert_eq!(stats.threads_per_worker[0] as usize, tree.num_threads());
    }

    #[test]
    fn single_leaf_tree() {
        let tree = Ast::leaf(1).build();
        let stats = check_run(&tree, 4, 0);
        assert_eq!(stats.total_threads(), 1);
    }

    #[test]
    fn zero_workers_struct_literal_is_clamped_to_one() {
        // Regression: `LiveConfig { workers: 0 }` built as a struct literal
        // bypasses `with_workers`; the run must normalize it, so a degenerate
        // config cannot mean zero spawned threads and a walk that never runs.
        let tree = random_sp_ast(100, 0.5, 11).build();
        let recorder = Recorder::new(&tree, 0);
        let stats = run(&tree, &recorder, LiveConfig { workers: 0 }, 5);
        assert_eq!(stats.workers, 1, "zero workers must clamp to one");
        assert_eq!(stats.steals, 0, "one worker can never steal");
        assert_eq!(stats.total_threads() as usize, tree.num_threads());
        assert_eq!(stats.final_token, 5, "token unchanged without steals");
    }

    #[test]
    fn repeated_parallel_runs_are_structurally_sound() {
        // Hammer the join protocol: many runs of a fork-heavy tree.
        let tree = random_sp_ast(600, 0.8, 99).build();
        for _ in 0..20 {
            check_run(&tree, 6, 50);
        }
    }
}
