//! Ground-truth SP relation via least common ancestors.
//!
//! The paper defines the series-parallel relation structurally: for threads
//! `u_i` and `u_j`, `u_i ≺ u_j` iff `lca(u_i, u_j)` is an S-node with `u_i` in
//! its left subtree, and `u_i ∥ u_j` iff the LCA is a P-node (§1).  The
//! [`SpOracle`] computes exactly that, by walking parent pointers — an
//! intentionally simple, obviously-correct implementation used as the ground
//! truth against which SP-order, SP-bags, the labeling baselines and
//! SP-hybrid are all property-tested.

use crate::tree::{NodeId, NodeKind, ParseTree, ThreadId};

/// Relation between two threads in the SP parse tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relation {
    /// The two arguments are the same thread.
    Same,
    /// The first thread logically precedes the second (`a ≺ b`).
    Precedes,
    /// The second thread logically precedes the first (`b ≺ a`).
    Follows,
    /// The threads operate logically in parallel (`a ∥ b`).
    Parallel,
}

/// LCA-based SP relation oracle over a parse tree.
pub struct SpOracle<'t> {
    tree: &'t ParseTree,
}

impl<'t> SpOracle<'t> {
    /// Build an oracle for `tree`.
    pub fn new(tree: &'t ParseTree) -> Self {
        SpOracle { tree }
    }

    /// Least common ancestor of two nodes.
    pub fn lca(&self, mut a: NodeId, mut b: NodeId) -> NodeId {
        let t = self.tree;
        while t.depth(a) > t.depth(b) {
            a = t.parent(a);
        }
        while t.depth(b) > t.depth(a) {
            b = t.parent(b);
        }
        while a != b {
            a = t.parent(a);
            b = t.parent(b);
        }
        a
    }

    /// Relation between two threads.
    pub fn relation(&self, a: ThreadId, b: ThreadId) -> Relation {
        if a == b {
            return Relation::Same;
        }
        let t = self.tree;
        let na = t.leaf_of(a);
        let nb = t.leaf_of(b);
        let x = self.lca(na, nb);
        // Which side of the LCA does each thread live on?
        let a_on_left = t.is_ancestor(t.left(x), na);
        match t.kind(x) {
            NodeKind::P => Relation::Parallel,
            NodeKind::S => {
                if a_on_left {
                    Relation::Precedes
                } else {
                    Relation::Follows
                }
            }
            NodeKind::Leaf(_) => unreachable!("LCA of two distinct leaves cannot be a leaf"),
        }
    }

    /// Does `a` logically precede `b`?
    pub fn precedes(&self, a: ThreadId, b: ThreadId) -> bool {
        self.relation(a, b) == Relation::Precedes
    }

    /// Do `a` and `b` operate logically in parallel?
    pub fn parallel(&self, a: ThreadId, b: ThreadId) -> bool {
        self.relation(a, b) == Relation::Parallel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Ast;
    use crate::generate::random_sp_ast;
    use crate::walk::{english_index, hebrew_index};

    #[test]
    fn serial_chain_is_totally_ordered() {
        let tree = Ast::seq((0..10).map(|_| Ast::leaf(1)).collect()).build();
        let oracle = SpOracle::new(&tree);
        for i in 0..10u32 {
            for j in 0..10u32 {
                let rel = oracle.relation(ThreadId(i), ThreadId(j));
                let expect = match i.cmp(&j) {
                    std::cmp::Ordering::Less => Relation::Precedes,
                    std::cmp::Ordering::Equal => Relation::Same,
                    std::cmp::Ordering::Greater => Relation::Follows,
                };
                assert_eq!(rel, expect);
            }
        }
    }

    #[test]
    fn flat_parallel_block_is_pairwise_parallel() {
        let tree = Ast::par((0..10).map(|_| Ast::leaf(1)).collect()).build();
        let oracle = SpOracle::new(&tree);
        for i in 0..10u32 {
            for j in 0..10u32 {
                if i == j {
                    assert_eq!(oracle.relation(ThreadId(i), ThreadId(j)), Relation::Same);
                } else {
                    assert_eq!(
                        oracle.relation(ThreadId(i), ThreadId(j)),
                        Relation::Parallel
                    );
                }
            }
        }
    }

    #[test]
    fn relation_is_antisymmetric_and_parallel_is_symmetric() {
        let tree = random_sp_ast(64, 0.5, 99).build();
        let oracle = SpOracle::new(&tree);
        for i in 0..64u32 {
            for j in 0..64u32 {
                let rij = oracle.relation(ThreadId(i), ThreadId(j));
                let rji = oracle.relation(ThreadId(j), ThreadId(i));
                match rij {
                    Relation::Same => assert_eq!(rji, Relation::Same),
                    Relation::Precedes => assert_eq!(rji, Relation::Follows),
                    Relation::Follows => assert_eq!(rji, Relation::Precedes),
                    Relation::Parallel => assert_eq!(rji, Relation::Parallel),
                }
            }
        }
    }

    /// Lemma 1 / Corollary 2 of the paper, checked against the structural
    /// oracle: `a ≺ b` iff `a` precedes `b` in both the English and Hebrew
    /// orders, and (given E[a] < E[b]) `a ∥ b` iff H[a] > H[b].
    #[test]
    fn lemma1_english_hebrew_characterization() {
        for seed in 0..8u64 {
            let tree = random_sp_ast(80, 0.5, seed).build();
            let oracle = SpOracle::new(&tree);
            let e = english_index(&tree);
            let h = hebrew_index(&tree);
            for i in 0..tree.num_threads() {
                for j in 0..tree.num_threads() {
                    if i == j {
                        continue;
                    }
                    let a = ThreadId(i as u32);
                    let b = ThreadId(j as u32);
                    let both = e[i] < e[j] && h[i] < h[j];
                    assert_eq!(oracle.precedes(a, b), both, "seed {seed}, ({i},{j})");
                    if e[i] < e[j] {
                        assert_eq!(oracle.parallel(a, b), h[i] > h[j]);
                    }
                }
            }
        }
    }

    #[test]
    fn precedes_is_transitive_on_random_trees() {
        let tree = random_sp_ast(48, 0.4, 1234).build();
        let oracle = SpOracle::new(&tree);
        let n = tree.num_threads() as u32;
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if oracle.precedes(ThreadId(a), ThreadId(b))
                        && oracle.precedes(ThreadId(b), ThreadId(c))
                    {
                        assert!(oracle.precedes(ThreadId(a), ThreadId(c)));
                    }
                }
            }
        }
    }
}
