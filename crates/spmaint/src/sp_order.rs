//! The SP-order algorithm (paper §2, Figure 5).
//!
//! Two order-maintenance lists are kept: an *English* order `Eng` and a
//! *Hebrew* order `Heb` over parse-tree nodes.  When the walk reaches an
//! internal node `X`, its two children are inserted immediately after `X` in
//! both lists — in the order (left, right) in `Eng`; in the order
//! (left, right) in `Heb` if `X` is an S-node, and (right, left) if `X` is a
//! P-node (Figures 6 and 7).  By Lemma 1 / Corollary 2,
//!
//! * `a ≺ b`  ⇔  `a` precedes `b` in **both** orders,
//! * `a ∥ b`  ⇔  `a` precedes `b` in one order and follows it in the other.
//!
//! With an O(1)-amortized order-maintenance structure every SP-order operation
//! is O(1) amortized, which gives the O(n) total construction time of
//! Theorem 5 and the O(T₁) race-detection bound of Corollary 6.
//!
//! The implementation is generic over the order-maintenance structure so the
//! O(1)-amortized two-level list can be compared with the simpler
//! single-level list ([`om::TagList`]).

use om::{OmNode, OrderMaintenance, TwoLevelList};
use sptree::tree::{NodeId, NodeKind, ParseTree, ThreadId};
use sptree::walk::TreeVisitor;

use crate::api::{CurrentSpQuery, OnTheFlySp, SpQuery};

/// SP-order over an arbitrary order-maintenance implementation.
pub struct SpOrder<L: OrderMaintenance = TwoLevelList> {
    eng: L,
    heb: L,
    /// English-order handle of every parse-tree node (by `NodeId`).
    node_eng: Vec<OmNode>,
    /// Hebrew-order handle of every parse-tree node.
    node_heb: Vec<OmNode>,
    /// Whether a node has been inserted yet (the root is inserted up front;
    /// other nodes when their parent is visited).
    inserted: Vec<bool>,
    /// Leaf node of every thread (copied from the tree so queries need no tree
    /// reference).
    leaf_of: Vec<NodeId>,
    /// The currently executing thread, for [`CurrentSpQuery`].
    current: Option<ThreadId>,
}

impl<L: OrderMaintenance> SpOrder<L> {
    /// English/Hebrew order handles of a node (test/diagnostic aid).
    pub fn handles(&self, node: NodeId) -> (OmNode, OmNode) {
        (self.node_eng[node.index()], self.node_heb[node.index()])
    }

    /// Has `node` been inserted into the orders yet?
    pub fn is_inserted(&self, node: NodeId) -> bool {
        self.inserted[node.index()]
    }

    /// Relation between two parse-tree nodes (not just leaves).  Both must
    /// already be inserted.  This is the raw `SP-PRECEDES` of Figure 5.
    pub fn node_precedes(&self, x: NodeId, y: NodeId) -> bool {
        debug_assert!(self.inserted[x.index()] && self.inserted[y.index()]);
        let ex = self.node_eng[x.index()];
        let ey = self.node_eng[y.index()];
        let hx = self.node_heb[x.index()];
        let hy = self.node_heb[y.index()];
        self.eng.precedes(ex, ey) && self.heb.precedes(hx, hy)
    }

    /// Total relabeling work done by the two underlying lists.
    pub fn relabel_count(&self) -> u64 {
        self.eng.relabel_count() + self.heb.relabel_count()
    }
}

impl<L: OrderMaintenance> TreeVisitor for SpOrder<L> {
    fn enter_internal(&mut self, tree: &ParseTree, node: NodeId) {
        debug_assert!(self.inserted[node.index()], "parent must be inserted first");
        let left = tree.left(node);
        let right = tree.right(node);

        // English order: insert (left, right) after X — line 4 of Figure 5.
        let eng = self
            .eng
            .insert_after_many(self.node_eng[node.index()], 2);
        self.node_eng[left.index()] = eng[0];
        self.node_eng[right.index()] = eng[1];

        // Hebrew order: (left, right) after X for an S-node, (right, left) for
        // a P-node — lines 5–7 of Figure 5.
        let heb = self
            .heb
            .insert_after_many(self.node_heb[node.index()], 2);
        match tree.kind(node) {
            NodeKind::S => {
                self.node_heb[left.index()] = heb[0];
                self.node_heb[right.index()] = heb[1];
            }
            NodeKind::P => {
                self.node_heb[right.index()] = heb[0];
                self.node_heb[left.index()] = heb[1];
            }
            NodeKind::Leaf(_) => unreachable!("enter_internal on a leaf"),
        }
        self.inserted[left.index()] = true;
        self.inserted[right.index()] = true;
    }

    fn visit_thread(&mut self, _tree: &ParseTree, node: NodeId, thread: ThreadId) {
        debug_assert!(self.inserted[node.index()]);
        self.current = Some(thread);
    }
}

impl<L: OrderMaintenance> SpQuery for SpOrder<L> {
    fn precedes(&self, a: ThreadId, b: ThreadId) -> bool {
        if a == b {
            return false;
        }
        self.node_precedes(self.leaf_of[a.index()], self.leaf_of[b.index()])
    }
}

impl<L: OrderMaintenance> CurrentSpQuery for SpOrder<L> {
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        let current = self.current.expect("no thread is currently executing");
        self.precedes(earlier, current)
    }
}

impl<L: OrderMaintenance> OnTheFlySp for SpOrder<L> {
    fn for_tree(tree: &ParseTree) -> Self {
        let n = tree.num_nodes();
        let (mut eng, eng_base) = L::new();
        let (mut heb, heb_base) = L::new();
        // The root is inserted right after the base element of each list.
        let root_eng = eng.insert_after(eng_base);
        let root_heb = heb.insert_after(heb_base);
        let mut node_eng = vec![eng_base; n];
        let mut node_heb = vec![heb_base; n];
        let mut inserted = vec![false; n];
        node_eng[tree.root().index()] = root_eng;
        node_heb[tree.root().index()] = root_heb;
        inserted[tree.root().index()] = true;
        SpOrder {
            eng,
            heb,
            node_eng,
            node_heb,
            inserted,
            leaf_of: tree.thread_ids().map(|t| tree.leaf_of(t)).collect(),
            current: None,
        }
    }

    fn name(&self) -> &'static str {
        "sp-order"
    }

    fn space_bytes(&self) -> usize {
        self.eng.space_bytes()
            + self.heb.space_bytes()
            + self.node_eng.capacity() * std::mem::size_of::<OmNode>() * 2
            + self.inserted.capacity()
            + self.leaf_of.capacity() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_serial, run_serial_with_queries};
    use om::TagList;
    use sptree::builder::Ast;
    use sptree::generate::{flat_parallel_loop, random_sp_ast, serial_chain};
    use sptree::oracle::{Relation, SpOracle};

    fn assert_matches_oracle(tree: &ParseTree) {
        let oracle = SpOracle::new(tree);
        let alg: SpOrder = run_serial(tree);
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
    fn snode_insert_order() {
        // Figure 6: at an S-node, both orders become ⟨S, L, R⟩.
        let tree = Ast::seq(vec![Ast::leaf(1), Ast::leaf(1)]).build();
        let alg: SpOrder = run_serial(&tree);
        let root = tree.root();
        let l = tree.left(root);
        let r = tree.right(root);
        assert!(alg.node_precedes(l, r));
        assert!(!alg.node_precedes(r, l));
        // The root precedes both children in the English order but the root
        // relation to children mixes orders; just check thread-level result.
        assert_eq!(alg.relation(ThreadId(0), ThreadId(1)), Relation::Precedes);
    }

    #[test]
    fn pnode_insert_order() {
        // Figure 7: at a P-node the Hebrew order reverses the children, so the
        // two leaves are parallel.
        let tree = Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]).build();
        let alg: SpOrder = run_serial(&tree);
        assert_eq!(alg.relation(ThreadId(0), ThreadId(1)), Relation::Parallel);
        assert_eq!(alg.relation(ThreadId(1), ThreadId(0)), Relation::Parallel);
    }

    #[test]
    fn serial_chain_and_flat_loop() {
        assert_matches_oracle(&serial_chain(40, 1).build());
        assert_matches_oracle(&flat_parallel_loop(40, 1).build());
    }

    #[test]
    fn random_trees_match_oracle() {
        for seed in 0..10u64 {
            let tree = random_sp_ast(80, 0.5, seed).build();
            assert_matches_oracle(&tree);
        }
    }

    #[test]
    fn random_trees_match_oracle_with_tag_list_backend() {
        for seed in 0..5u64 {
            let tree = random_sp_ast(80, 0.4, seed).build();
            let oracle = SpOracle::new(&tree);
            let alg: SpOrder<TagList> = run_serial(&tree);
            for a in tree.thread_ids() {
                for b in tree.thread_ids() {
                    assert_eq!(alg.relation(a, b), oracle.relation(a, b));
                }
            }
        }
    }

    #[test]
    fn on_the_fly_queries_are_available_immediately() {
        // Every already-executed thread must be queryable while any later
        // thread is current (Theorem 4).
        let tree = random_sp_ast(70, 0.6, 77).build();
        let oracle = SpOracle::new(&tree);
        let _alg = run_serial_with_queries::<SpOrder, _>(&tree, |alg, current| {
            for earlier in 0..=current.index() as u32 {
                let earlier = ThreadId(earlier);
                if earlier == current {
                    continue;
                }
                assert_eq!(
                    alg.precedes_current(earlier),
                    oracle.precedes(earlier, current)
                );
                assert_eq!(
                    alg.parallel_with_current(earlier),
                    oracle.parallel(earlier, current)
                );
            }
        });
    }

    #[test]
    fn construction_inserts_every_node_once() {
        let tree = random_sp_ast(120, 0.5, 3).build();
        let alg: SpOrder = run_serial(&tree);
        for node in tree.node_ids() {
            assert!(alg.is_inserted(node));
        }
        // Each list holds every node plus its base element.
        assert_eq!(alg.eng.len(), tree.num_nodes() + 1);
        assert_eq!(alg.heb.len(), tree.num_nodes() + 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_sp_order_matches_oracle(leaves in 2usize..120, p in 0.0f64..1.0, seed in 0u64..1_000_000) {
            let tree = random_sp_ast(leaves, p, seed).build();
            let oracle = SpOracle::new(&tree);
            let alg: SpOrder = run_serial(&tree);
            for a in tree.thread_ids() {
                for b in tree.thread_ids() {
                    proptest::prop_assert_eq!(alg.relation(a, b), oracle.relation(a, b));
                }
            }
        }
    }
}
