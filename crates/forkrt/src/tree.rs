//! A materialized parse tree as a [`LiveProgram`].
//!
//! The runtime never needs more of a computation than `unfold` reveals, so a
//! pre-built [`ParseTree`] is just the program whose cursor is a [`NodeId`]
//! and whose `unfold` reads the node's kind and children from the arena.
//! Every tree-driven maintainer and benchmark runs on [`crate::run_live`]
//! through this adapter; there is no second scheduler.

use sptree::tree::{NodeId, NodeKind, ParseTree};

use crate::live::{LiveNode, LiveProgram, SpKind};

/// `tree`, unfolded node by node.  The metadata of every node — leaf or
/// internal — is its [`NodeId`]; visitors look up whatever else they need
/// (thread, procedure, spawned child) in [`TreeProgram::tree`].
#[derive(Clone, Copy)]
pub struct TreeProgram<'t> {
    tree: &'t ParseTree,
}

impl<'t> TreeProgram<'t> {
    /// The program that unfolds `tree`.
    pub fn new(tree: &'t ParseTree) -> Self {
        TreeProgram { tree }
    }

    /// The tree being unfolded.
    pub fn tree(&self) -> &'t ParseTree {
        self.tree
    }
}

impl LiveProgram for TreeProgram<'_> {
    type Cursor = NodeId;
    type Meta = NodeId;

    fn root(&self) -> NodeId {
        self.tree.root()
    }

    fn unfold(&self, node: NodeId) -> LiveNode<NodeId, NodeId> {
        let kind = match self.tree.kind(node) {
            NodeKind::Leaf(_) => return LiveNode::Leaf(node),
            NodeKind::S => SpKind::Series,
            NodeKind::P => SpKind::Parallel,
        };
        LiveNode::Internal {
            kind,
            meta: node,
            left: self.tree.left(node),
            right: self.tree.right(node),
        }
    }
}
