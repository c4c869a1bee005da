//! Offset-span labeling (Mellor-Crummey's scheme), adapted to binary SP parse
//! trees.
//!
//! Each thread carries a label that is a sequence of (offset, span) pairs.
//! Entering a fork with span `s` appends a pair whose offset identifies the
//! branch; completing the corresponding join removes the pair and advances the
//! offset of the now-last pair by its span.  Two threads are ordered iff, at
//! the first position where their labels differ, the offsets are congruent
//! modulo the span (they are separated by at least one join of that fork
//! region); otherwise they are parallel.
//!
//! For binary parse trees the scheme specializes to:
//!
//! * the walk starts with the label `[(0, 1)]`;
//! * entering the left child of a P-node appends `(0, 2)`, the right child
//!   appends `(1, 2)`;
//! * leaving a P-node pops the pair and bumps the last remaining pair's offset
//!   by its span;
//! * every executed thread also bumps the last pair's offset by its span, so
//!   consecutive serial threads get distinct, increasing offsets.
//!
//! Label length is Θ(d) where `d` is the maximum nesting depth of parallelism,
//! which is the offset-span row of Figure 3: Θ(d) space per node and Θ(d)
//! query time, better than English-Hebrew when nesting is shallow but still
//! non-constant — the gap SP-order closes.

use sptree::tree::{NodeId, NodeKind, ParseTree, ThreadId};
use sptree::walk::TreeVisitor;

use crate::api::{run_serial_with_queries, BackendConfig, CurrentSpQuery, SpBackend, SpQuery};

type Pair = (u64, u64);

/// Offset-span labels for every thread.
pub struct OffsetSpanLabels {
    /// Label of the execution point the walk is currently at.
    cur: Vec<Pair>,
    /// Saved parent labels for every open P-node, by node id.
    saved: Vec<Vec<Pair>>,
    /// Stack of open P-nodes (indices into `saved` are node ids).
    labels: Vec<Option<Box<[Pair]>>>,
    total_label_len: usize,
    current: Option<ThreadId>,
}

impl OffsetSpanLabels {
    /// Length of a thread's label.
    pub fn label_len(&self, thread: ThreadId) -> usize {
        self.labels[thread.index()]
            .as_ref()
            .map(|l| l.len())
            .unwrap_or(0)
    }

    /// Sum of all label lengths (space metric).
    pub fn total_label_len(&self) -> usize {
        self.total_label_len
    }

    fn bump_last(label: &mut [Pair]) {
        if let Some(last) = label.last_mut() {
            last.0 += last.1;
        }
    }

    /// Does label `a` precede label `b`?
    fn label_precedes(a: &[Pair], b: &[Pair]) -> bool {
        for (pa, pb) in a.iter().zip(b.iter()) {
            if pa == pb {
                continue;
            }
            let (oa, sa) = *pa;
            let (ob, sb) = *pb;
            // The first differing pair stems from the same fork region, so the
            // spans agree; differing spans can only mean the threads diverged
            // at this region in incomparable ways, i.e. they are parallel.
            if sa != sb {
                return false;
            }
            return oa % sa == ob % sa && oa < ob;
        }
        // One label is a prefix of the other: the shorter one was produced
        // strictly before the nested forks of the longer one were entered, so
        // the shorter precedes the longer.
        a.len() < b.len()
    }
}

impl TreeVisitor for OffsetSpanLabels {
    fn enter_internal(&mut self, tree: &ParseTree, node: NodeId) {
        if tree.kind(node) == NodeKind::P {
            // Save the pre-fork label and descend into the left branch.
            self.saved[node.index()] = self.cur.clone();
            self.cur.push((0, 2));
        }
    }

    fn between_children(&mut self, tree: &ParseTree, node: NodeId) {
        if tree.kind(node) == NodeKind::P {
            // Right branch of the fork: offset 1 of span 2.
            self.cur = self.saved[node.index()].clone();
            self.cur.push((1, 2));
        }
    }

    fn leave_internal(&mut self, tree: &ParseTree, node: NodeId) {
        if tree.kind(node) == NodeKind::P {
            // Join: restore the pre-fork label and advance past the join.
            self.cur = std::mem::take(&mut self.saved[node.index()]);
            Self::bump_last(&mut self.cur);
        }
    }

    fn visit_thread(&mut self, _tree: &ParseTree, _node: NodeId, thread: ThreadId) {
        let label: Box<[Pair]> = self.cur.clone().into_boxed_slice();
        self.total_label_len += label.len();
        self.labels[thread.index()] = Some(label);
        self.current = Some(thread);
        // Later serial threads at this nesting level come after this one.
        Self::bump_last(&mut self.cur);
    }
}

impl SpQuery for OffsetSpanLabels {
    fn precedes(&self, a: ThreadId, b: ThreadId) -> bool {
        if a == b {
            return false;
        }
        let la = self.labels[a.index()].as_ref().expect("thread a not yet executed");
        let lb = self.labels[b.index()].as_ref().expect("thread b not yet executed");
        Self::label_precedes(la, lb)
    }
}

impl CurrentSpQuery for OffsetSpanLabels {
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        let current = self.current.expect("no thread is currently executing");
        self.precedes(earlier, current)
    }
}

impl<'t> SpBackend<'t> for OffsetSpanLabels {
    fn build(tree: &'t ParseTree, _config: BackendConfig) -> Self {
        OffsetSpanLabels {
            cur: vec![(0, 1)],
            saved: vec![Vec::new(); tree.num_nodes()],
            labels: vec![None; tree.num_threads()],
            total_label_len: 0,
            current: None,
        }
    }

    fn run_with_queries<F>(&mut self, tree: &'t ParseTree, on_thread: F)
    where
        F: Fn(&dyn CurrentSpQuery, ThreadId) + Sync,
    {
        run_serial_with_queries(self, tree, |alg, thread| on_thread(alg, thread));
    }

    fn name(&self) -> &'static str {
        "offset-span"
    }

    fn space_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<Option<Box<[Pair]>>>()
            + self.total_label_len * std::mem::size_of::<Pair>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptree::builder::Ast;
    use sptree::cilk::CilkProgram;
    use sptree::generate::{
        fib_like, flat_parallel_loop, left_deep_parallel, random_sp_ast, serial_chain,
    };
    use sptree::oracle::SpOracle;
    use sptree::walk::walk_visitor;

    fn assert_matches_oracle(tree: &ParseTree) {
        let oracle = SpOracle::new(tree);
        let mut alg: OffsetSpanLabels = SpBackend::build(tree, BackendConfig::serial());
        walk_visitor(tree, &mut alg);
        for a in tree.thread_ids() {
            for b in tree.thread_ids() {
                assert_eq!(
                    alg.relation(a, b),
                    oracle.relation(a, b),
                    "threads {a:?}, {b:?}"
                );
            }
        }
    }

    #[test]
    fn basic_compositions() {
        assert_matches_oracle(&Ast::seq(vec![Ast::leaf(1), Ast::leaf(1)]).build());
        assert_matches_oracle(&Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]).build());
        assert_matches_oracle(&serial_chain(25, 1).build());
        assert_matches_oracle(&flat_parallel_loop(25, 1).build());
    }

    #[test]
    fn nested_forks_match_oracle() {
        assert_matches_oracle(&left_deep_parallel(20, 1).build());
        assert_matches_oracle(&CilkProgram::new(fib_like(6, 1)).build_tree());
    }

    #[test]
    fn random_trees_match_oracle() {
        for seed in 0..12u64 {
            assert_matches_oracle(&random_sp_ast(60, 0.5, seed).build());
        }
    }

    #[test]
    fn label_length_tracks_p_nesting_not_fork_count() {
        // A balanced divide-and-conquer loop has many forks but only
        // logarithmic nesting: labels stay short.
        let balanced_tree = sptree::generate::balanced_parallel(256, 1).build();
        let mut balanced: OffsetSpanLabels =
            SpBackend::build(&balanced_tree, BackendConfig::serial());
        walk_visitor(&balanced_tree, &mut balanced);
        let balanced_max = balanced_tree
            .thread_ids()
            .map(|t| balanced.label_len(t))
            .max()
            .unwrap();
        // A left-deep chain with the same number of forks has deep nesting.
        let deep_tree = left_deep_parallel(255, 1).build();
        let mut deep: OffsetSpanLabels = SpBackend::build(&deep_tree, BackendConfig::serial());
        walk_visitor(&deep_tree, &mut deep);
        let deep_max = deep_tree
            .thread_ids()
            .map(|t| deep.label_len(t))
            .max()
            .unwrap();
        assert_eq!(balanced_tree.num_pnodes(), deep_tree.num_pnodes());
        assert!(balanced_max as u32 <= balanced_tree.max_p_nesting() + 1);
        assert!(deep_max > 16 * balanced_max);
    }

    #[test]
    fn on_the_fly_queries_match_oracle() {
        let tree = random_sp_ast(50, 0.5, 21).build();
        let oracle = SpOracle::new(&tree);
        let mut alg = OffsetSpanLabels::build(&tree, BackendConfig::serial());
        run_serial_with_queries(&mut alg, &tree, |alg, current| {
            for earlier in 0..current.index() as u32 {
                let earlier = ThreadId(earlier);
                assert_eq!(
                    alg.precedes_current(earlier),
                    oracle.precedes(earlier, current)
                );
            }
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_matches_oracle(leaves in 2usize..90, p in 0.0f64..1.0, seed in 0u64..1_000_000) {
            let tree = random_sp_ast(leaves, p, seed).build();
            let oracle = SpOracle::new(&tree);
            let mut alg: OffsetSpanLabels = SpBackend::build(&tree, BackendConfig::serial());
            walk_visitor(&tree, &mut alg);
            for a in tree.thread_ids() {
                for b in tree.thread_ids() {
                    proptest::prop_assert_eq!(alg.relation(a, b), oracle.relation(a, b));
                }
            }
        }
    }
}
