//! The SP-bags algorithm of Feng and Leiserson, in the thread-granularity
//! form the paper uses for SP-hybrid's local tier (§5).
//!
//! Every procedure `F` (under the canonical "one spawn per P-node" Cilk view
//! provided by [`sptree::tree::ParseTree`]) owns two bags of threads:
//!
//! * the **S-bag** of `F` holds the descendant threads of `F` that logically
//!   precede the currently executing thread in `F`;
//! * the **P-bag** of `F` holds the descendant threads of completed children
//!   of `F` that operate logically in parallel with the currently executing
//!   thread in `F`.
//!
//! Bags are disjoint sets: a query `FIND`s the representative of the thread's
//! set and inspects whether that bag is currently an S-bag (the thread
//! precedes the current thread) or a P-bag (it runs in parallel with it).
//! The serial walk updates bags at three points:
//!
//! * when a thread of `F` executes, it is unioned into `S_F`;
//! * when a spawned child `F'` returns (the walk finishes the left subtree of
//!   the P-node `X`), its S-bag becomes the P-bag attached to `X`;
//! * at the corresponding join (the walk finishes `X`), that P-bag is folded
//!   into `S_F`.
//!
//! In Cilk's canonical parse trees every spawn of a sync block joins at the
//! same sync, so Feng–Leiserson keep a *single* P-bag per procedure and fold
//! it at the sync statement.  This implementation accepts **arbitrary** SP
//! parse trees, where an inner join may be followed by more threads before an
//! outer join of the same procedure; attaching the P-bag to the P-node rather
//! than the procedure keeps the classification exact in that general setting
//! while performing the same number of union-find operations (one union per
//! internal node, one make-set per thread).  On canonical Cilk trees the two
//! formulations coincide.
//!
//! With the classical union-find structure every operation costs
//! O(α(m, n)) amortized — the SP-bags row of Figure 3.  Queries are only
//! defined against the *currently executing* thread ([`CurrentSpQuery`]); this
//! is the weaker semantics that suffices for race detection.

use dsu::UnionFind;
use sptree::tree::{NodeId, NodeKind, ParseTree, ThreadId};
use sptree::walk::TreeVisitor;

use crate::api::{run_serial_with_queries, BackendConfig, CurrentSpQuery, SpBackend};

/// Which flavour a bag currently is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BagKind {
    /// Threads that precede the current thread of the owning procedure.
    S,
    /// Threads parallel to the current thread of the owning procedure.
    P,
}

/// Serial SP-bags structure.
pub struct SpBags {
    /// One disjoint-set element per thread.
    sets: UnionFind,
    /// Representative of each procedure's S-bag (u32::MAX = empty), by ProcId.
    sbag: Vec<u32>,
    /// Representative of the P-bag attached to each P-node (u32::MAX = empty),
    /// by NodeId.  Only P-nodes whose left subtree has completed but whose
    /// right subtree is still unfolding have a non-empty P-bag.
    pbag: Vec<u32>,
    /// Bag metadata, valid at set representatives only.
    kind_at_root: Vec<BagKind>,
}

const EMPTY: u32 = u32::MAX;

impl SpBags {
    fn union_into_bag(&mut self, bag_root: u32, element: u32, kind: BagKind) -> u32 {
        let root = if bag_root == EMPTY {
            self.sets.find(element)
        } else {
            self.sets.union(bag_root, element)
        };
        self.kind_at_root[root as usize] = kind;
        root
    }

    /// Cumulative number of parent-pointer hops performed by finds
    /// (benchmark metric: grows like α amortized).
    pub fn find_steps(&self) -> u64 {
        self.sets.find_steps()
    }
}

impl TreeVisitor for SpBags {
    fn visit_thread(&mut self, tree: &ParseTree, node: NodeId, thread: ThreadId) {
        // The executing thread joins the S-bag of its procedure.
        let f = tree.proc_of(node).index();
        self.sbag[f] = self.union_into_bag(self.sbag[f], thread.0, BagKind::S);
    }

    fn between_children(&mut self, tree: &ParseTree, node: NodeId) {
        // Left subtree of a P-node finished ⇒ the spawned child F' returned:
        // its S-bag becomes the P-bag attached to this P-node.
        if tree.kind(node) != NodeKind::P {
            return;
        }
        let child = tree.spawned_proc(node).index();
        let child_sbag = self.sbag[child];
        if child_sbag != EMPTY {
            self.pbag[node.index()] =
                self.union_into_bag(self.pbag[node.index()], child_sbag, BagKind::P);
            self.sbag[child] = EMPTY;
        }
    }

    fn leave_internal(&mut self, tree: &ParseTree, node: NodeId) {
        // A P-node completing is the join for its spawn: fold its P-bag into
        // the S-bag of the procedure that contains it.
        if tree.kind(node) != NodeKind::P {
            return;
        }
        let f = tree.proc_of(node).index();
        let pbag = self.pbag[node.index()];
        if pbag != EMPTY {
            self.sbag[f] = self.union_into_bag(self.sbag[f], pbag, BagKind::S);
            self.pbag[node.index()] = EMPTY;
        }
    }
}

impl CurrentSpQuery for SpBags {
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        // `find` without path compression would allow &self here; with the
        // classical structure we need interior mutation, so we re-implement a
        // read-only find (no compression) for the query path.  Compression
        // still happens during maintenance operations (unions), which is where
        // the amortized bound comes from.
        let root = {
            let mut x = earlier.0;
            loop {
                let p = self.sets.parent_of(x);
                if p == x {
                    break x;
                }
                x = p;
            }
        };
        self.kind_at_root[root as usize] == BagKind::S
    }
}

impl<'t> SpBackend<'t> for SpBags {
    fn build(tree: &'t ParseTree, _config: BackendConfig) -> Self {
        let n = tree.num_threads();
        let mut sets = UnionFind::with_capacity(n);
        for _ in 0..n {
            sets.make_set();
        }
        SpBags {
            sets,
            sbag: vec![EMPTY; tree.num_procs()],
            pbag: vec![EMPTY; tree.num_nodes()],
            kind_at_root: vec![BagKind::S; n],
        }
    }

    fn run_with_queries<F>(&mut self, tree: &'t ParseTree, on_thread: F)
    where
        F: Fn(&dyn CurrentSpQuery, ThreadId) + Sync,
    {
        run_serial_with_queries(self, tree, |alg, thread| on_thread(alg, thread));
    }

    fn name(&self) -> &'static str {
        "sp-bags"
    }

    fn space_bytes(&self) -> usize {
        self.sets.space_bytes()
            + self.sbag.capacity() * 4
            + self.pbag.capacity() * 4
            + self.kind_at_root.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptree::builder::Ast;
    use sptree::cilk::{CilkProgram, Procedure, SyncBlock};
    use sptree::generate::{fib_like, random_cilk_program, random_sp_ast, CilkGenParams};
    use sptree::oracle::SpOracle;

    /// Replay the serial walk and check every current-thread query against the
    /// oracle.
    fn assert_matches_oracle(tree: &ParseTree) {
        let oracle = SpOracle::new(tree);
        let mut alg = SpBags::build(tree, BackendConfig::serial());
        run_serial_with_queries(&mut alg, tree, |alg, current| {
            for earlier in 0..current.index() as u32 {
                let earlier = ThreadId(earlier);
                assert_eq!(
                    alg.precedes_current(earlier),
                    oracle.precedes(earlier, current),
                    "earlier {earlier:?} vs current {current:?}"
                );
                assert_eq!(
                    alg.parallel_with_current(earlier),
                    oracle.parallel(earlier, current)
                );
            }
        });
    }

    #[test]
    fn two_thread_series_and_parallel() {
        assert_matches_oracle(&Ast::seq(vec![Ast::leaf(1), Ast::leaf(1)]).build());
        assert_matches_oracle(&Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]).build());
    }

    #[test]
    fn cilk_sync_block_example() {
        // main: u0; spawn a; u1; spawn b; u2; sync; u3
        let a = Procedure::single(SyncBlock::new().work(5));
        let b = Procedure::single(SyncBlock::new().work(6));
        let main = Procedure::new()
            .block(SyncBlock::new().work(1).spawn(a).work(2).spawn(b).work(3))
            .block(SyncBlock::new().work(4));
        let tree = CilkProgram::new(main).build_tree();
        assert_matches_oracle(&tree);
    }

    #[test]
    fn fib_like_programs_match_oracle() {
        for depth in [1u32, 3, 5, 7] {
            let tree = CilkProgram::new(fib_like(depth, 1)).build_tree();
            assert_matches_oracle(&tree);
        }
    }

    #[test]
    fn random_sp_trees_match_oracle() {
        for seed in 0..10u64 {
            assert_matches_oracle(&random_sp_ast(70, 0.5, seed).build());
        }
    }

    #[test]
    fn random_cilk_programs_match_oracle() {
        for seed in 0..6u64 {
            let proc = random_cilk_program(CilkGenParams::default(), seed);
            assert_matches_oracle(&CilkProgram::new(proc).build_tree());
        }
    }

    #[test]
    fn bags_track_procedure_state() {
        // P(a, b): while b (the continuation) executes, a's thread must be in
        // a P-bag of the root procedure.
        let tree = Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]).build();
        let mut alg = SpBags::build(&tree, BackendConfig::serial());
        run_serial_with_queries(&mut alg, &tree, |alg, current| {
            if current == ThreadId(1) {
                assert!(alg.parallel_with_current(ThreadId(0)));
            }
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_sp_bags_matches_oracle(leaves in 2usize..90, p in 0.0f64..1.0, seed in 0u64..1_000_000) {
            let tree = random_sp_ast(leaves, p, seed).build();
            let oracle = SpOracle::new(&tree);
            let mut alg = SpBags::build(&tree, BackendConfig::serial());
            run_serial_with_queries(&mut alg, &tree, |alg, current| {
                for earlier in 0..current.index() as u32 {
                    let earlier = ThreadId(earlier);
                    assert_eq!(alg.precedes_current(earlier), oracle.precedes(earlier, current));
                }
            });
        }
    }
}
