//! Static English-Hebrew labeling (Nudler–Rudolph style baseline).
//!
//! The original English-Hebrew scheme labels every thread with two static
//! integer vectors whose lengths grow with the number of forks in the program
//! — that growth is the scheme's downfall (Figure 3: Θ(f) space per node and
//! Θ(f) query time) and the motivation for replacing static labels with
//! order-maintenance structures in SP-order.
//!
//! Our baseline realizes the same idea as a *pedigree* labeling: a thread's
//! label is its root-to-leaf path, one entry per internal node, recording the
//! branch direction taken and whether the node is a P-node.  The English
//! comparison orders threads by the raw path (left before right everywhere);
//! the Hebrew comparison flips the direction bit at P-nodes (right before
//! left).  A thread precedes another iff it precedes it in both comparisons —
//! the same characterization (Lemma 1) SP-order uses, but with Θ(depth)-sized
//! labels, Θ(depth) label-materialization cost per thread, and Θ(depth) query
//! time, where the depth is Θ(f) in the worst case.

use sptree::tree::{NodeId, NodeKind, ParseTree, ThreadId};
use sptree::walk::TreeVisitor;

use crate::api::{run_serial_with_queries, BackendConfig, CurrentSpQuery, SpBackend, SpQuery};

/// One step of a root-to-leaf path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PathStep {
    /// True if the internal node is a P-node.
    is_p: bool,
    /// True if the path continues into the right child.
    right: bool,
}

/// Static English-Hebrew (pedigree) labels for every thread.
pub struct EnglishHebrewLabels {
    /// Current root-to-node path maintained during the walk.
    path: Vec<PathStep>,
    /// Label of each thread (its root-to-leaf path), filled in when the
    /// thread executes.
    labels: Vec<Option<Box<[PathStep]>>>,
    /// Total label entries stored (space metric).
    total_label_len: usize,
    current: Option<ThreadId>,
}

impl EnglishHebrewLabels {
    /// Length of a thread's label (test / bench metric).
    pub fn label_len(&self, thread: ThreadId) -> usize {
        self.labels[thread.index()]
            .as_ref()
            .map(|l| l.len())
            .unwrap_or(0)
    }

    /// Sum of all label lengths (the Θ(f)-per-node space behaviour).
    pub fn total_label_len(&self) -> usize {
        self.total_label_len
    }

    /// Compare two labels in the English order: first differing step decides,
    /// left (false) before right (true).
    fn english_less(a: &[PathStep], b: &[PathStep]) -> bool {
        for (sa, sb) in a.iter().zip(b.iter()) {
            if sa.right != sb.right {
                return !sa.right;
            }
        }
        // Two distinct leaves can never have one path a prefix of the other.
        debug_assert_eq!(a.len(), b.len(), "leaf paths cannot be nested");
        false
    }

    /// Compare two labels in the Hebrew order: like English, but the branch
    /// direction is flipped at P-nodes.
    fn hebrew_less(a: &[PathStep], b: &[PathStep]) -> bool {
        for (sa, sb) in a.iter().zip(b.iter()) {
            if sa.right != sb.right {
                let a_first = if sa.is_p { sa.right } else { !sa.right };
                return a_first;
            }
        }
        debug_assert_eq!(a.len(), b.len(), "leaf paths cannot be nested");
        false
    }
}

impl TreeVisitor for EnglishHebrewLabels {
    fn enter_internal(&mut self, tree: &ParseTree, node: NodeId) {
        self.path.push(PathStep {
            is_p: tree.kind(node) == NodeKind::P,
            right: false,
        });
    }

    fn between_children(&mut self, _tree: &ParseTree, _node: NodeId) {
        // The left subtree is finished; the walk continues into the right
        // child, so the step for this node (now at the top of the path) flips.
        self.path
            .last_mut()
            .expect("between_children with empty path")
            .right = true;
    }

    fn leave_internal(&mut self, _tree: &ParseTree, _node: NodeId) {
        self.path.pop();
    }

    fn visit_thread(&mut self, _tree: &ParseTree, _node: NodeId, thread: ThreadId) {
        let label: Box<[PathStep]> = self.path.clone().into_boxed_slice();
        self.total_label_len += label.len();
        self.labels[thread.index()] = Some(label);
        self.current = Some(thread);
    }
}

impl SpQuery for EnglishHebrewLabels {
    fn precedes(&self, a: ThreadId, b: ThreadId) -> bool {
        if a == b {
            return false;
        }
        let la = self.labels[a.index()].as_ref().expect("thread a not yet executed");
        let lb = self.labels[b.index()].as_ref().expect("thread b not yet executed");
        Self::english_less(la, lb) && Self::hebrew_less(la, lb)
    }
}

impl CurrentSpQuery for EnglishHebrewLabels {
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        let current = self.current.expect("no thread is currently executing");
        self.precedes(earlier, current)
    }
}

impl<'t> SpBackend<'t> for EnglishHebrewLabels {
    fn build(tree: &'t ParseTree, _config: BackendConfig) -> Self {
        EnglishHebrewLabels {
            path: Vec::with_capacity(64),
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
        "english-hebrew"
    }

    fn space_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<Option<Box<[PathStep]>>>()
            + self.total_label_len * std::mem::size_of::<PathStep>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptree::builder::Ast;
    use sptree::generate::{left_deep_parallel, random_sp_ast, serial_chain};
    use sptree::oracle::SpOracle;
    use sptree::walk::walk_visitor;

    fn assert_matches_oracle(tree: &ParseTree) {
        let oracle = SpOracle::new(tree);
        let mut alg: EnglishHebrewLabels = SpBackend::build(tree, BackendConfig::serial());
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
        assert_matches_oracle(&serial_chain(30, 1).build());
    }

    #[test]
    fn random_trees_match_oracle() {
        for seed in 0..10u64 {
            assert_matches_oracle(&random_sp_ast(60, 0.5, seed).build());
        }
    }

    #[test]
    fn label_length_grows_with_nesting_depth() {
        // This is precisely the weakness Figure 3 reports: Θ(f)/Θ(d) labels.
        let (shallow_tree, deep_tree) = (
            left_deep_parallel(4, 1).build(),
            left_deep_parallel(64, 1).build(),
        );
        let mut shallow = EnglishHebrewLabels::build(&shallow_tree, BackendConfig::serial());
        walk_visitor(&shallow_tree, &mut shallow);
        let mut deep = EnglishHebrewLabels::build(&deep_tree, BackendConfig::serial());
        walk_visitor(&deep_tree, &mut deep);
        let shallow_max = (0..5u32).map(|t| shallow.label_len(ThreadId(t))).max();
        let deep_max = (0..65u32).map(|t| deep.label_len(ThreadId(t))).max();
        assert!(deep_max.unwrap() > 8 * shallow_max.unwrap());
    }

    #[test]
    fn on_the_fly_queries_match_oracle() {
        let tree = random_sp_ast(50, 0.6, 11).build();
        let oracle = SpOracle::new(&tree);
        let mut alg = EnglishHebrewLabels::build(&tree, BackendConfig::serial());
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
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_matches_oracle(leaves in 2usize..80, p in 0.0f64..1.0, seed in 0u64..1_000_000) {
            let tree = random_sp_ast(leaves, p, seed).build();
            let oracle = SpOracle::new(&tree);
            let mut alg: EnglishHebrewLabels = SpBackend::build(&tree, BackendConfig::serial());
            walk_visitor(&tree, &mut alg);
            for a in tree.thread_ids() {
                for b in tree.thread_ids() {
                    proptest::prop_assert_eq!(alg.relation(a, b), oracle.relation(a, b));
                }
            }
        }
    }
}
