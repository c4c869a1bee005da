//! Lowering a live [`Proc`] into an unfolding [`forkrt::LiveProgram`].
//!
//! The cursor grammar mirrors the canonical Cilk lowering of
//! [`sptree::cilk`] exactly, so a serial live execution visits threads in
//! the same order (and with the same implicit empty sync threads) as the
//! left-to-right walk of the tree that [`crate::record_program`] produces:
//!
//! * a procedure is the right-leaning series of its sync blocks;
//! * inside a block, a step is `S(step-leaf, rest-of-block)`, a spawn is
//!   `P(child-procedure, rest-of-block)` (the continuation is the right
//!   child — what a thief steals), and the end of the block is the implicit
//!   empty thread that reaches the sync;
//! * an empty procedure is a single empty thread.
//!
//! Procedure instances get fresh [`ProcId`]s when their spawn executes —
//! this is the information the live SP-hybrid's local tier keys its bags on,
//! arriving with the event stream instead of from a materialized tree.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use forkrt::{LiveNode, LiveProgram, SpKind};
use sptree::tree::ProcId;

use crate::determinacy::{child_paths, ROOT_PATH};
use crate::program::{Block, Proc, SpawnBody, Stmt};
use crate::StepFn;

/// One instantiated procedure: its fresh id plus its (shared) blocks.
pub(crate) struct ProcInst {
    pub(crate) id: ProcId,
    pub(crate) blocks: Arc<Vec<Block>>,
}

/// Position in the unfolding computation.  The trailing `u64` of every
/// variant is the node's structural *path* (see [`crate::determinacy`]):
/// derived purely from the position in the tree, identical on every
/// schedule, unlike the `fetch_add`-allocated [`ProcId`]s.
pub(crate) enum Cursor {
    /// The series of sync blocks `b..` of a procedure.
    Blocks(Arc<ProcInst>, usize, u64),
    /// The statements `s..` of block `b` (ending in the implicit empty
    /// thread that reaches the sync).
    Rest(Arc<ProcInst>, usize, usize, u64),
    /// The single step leaf at statement `(b, s)`.
    Step(Arc<ProcInst>, usize, usize, u64),
}

/// Node metadata handed to visitors.
pub struct Meta {
    /// The procedure this node belongs to (for a P-node: the *spawning*
    /// procedure, per the canonical convention).
    pub proc: ProcId,
    /// For a P-node: the procedure spawned into its left subtree.
    pub spawned: Option<ProcId>,
    /// For a step leaf: the user closure to run.  `None` for the implicit
    /// empty threads (block ends, empty procedures).
    pub step: Option<Arc<StepFn>>,
    /// Schedule-independent structural path of this node — what the
    /// determinacy enforcer hashes (see [`crate::determinacy`]).
    pub path: u64,
}

impl Meta {
    /// Metadata of a node of `proc` that neither spawns nor steps.
    fn plain(proc: ProcId, path: u64) -> Meta {
        Meta {
            proc,
            spawned: None,
            step: None,
            path,
        }
    }
}

/// A [`Proc`] wrapped for one live run: allocates procedure ids as spawns
/// unfold.  Create one per run — ids restart at the root for every run.
pub(crate) struct LiveCilk {
    root: Arc<Vec<Block>>,
    next_proc: AtomicU32,
}

impl LiveCilk {
    pub(crate) fn new(root: &Proc) -> Self {
        LiveCilk {
            root: Arc::clone(&root.blocks),
            next_proc: AtomicU32::new(1),
        }
    }

    /// Procedures spawned so far — every spawn takes exactly one fresh id.
    pub(crate) fn spawns(&self) -> u64 {
        u64::from(self.next_proc.load(Ordering::Relaxed)) - 1
    }

    fn instantiate(&self, body: &SpawnBody) -> Arc<ProcInst> {
        let blocks = body.instantiate();
        let id = ProcId(self.next_proc.fetch_add(1, Ordering::Relaxed));
        Arc::new(ProcInst { id, blocks })
    }
}

impl LiveProgram for LiveCilk {
    type Cursor = Cursor;
    type Meta = Meta;

    fn root(&self) -> Cursor {
        Cursor::Blocks(
            Arc::new(ProcInst {
                id: ProcId(0),
                blocks: Arc::clone(&self.root),
            }),
            0,
            ROOT_PATH,
        )
    }

    fn unfold(&self, cursor: Cursor) -> LiveNode<Cursor, Meta> {
        let mut cursor = cursor;
        loop {
            match cursor {
                Cursor::Blocks(p, b, path) => {
                    let n = p.blocks.len();
                    if n == 0 {
                        // Empty procedure: a single empty thread.
                        return LiveNode::Leaf(Meta::plain(p.id, path));
                    }
                    if b + 1 == n {
                        // Pass-through (no node emitted): the path rides on.
                        cursor = Cursor::Rest(p, b, 0, path);
                        continue;
                    }
                    let (lp, rp) = child_paths(path);
                    return LiveNode::Internal {
                        kind: SpKind::Series,
                        meta: Meta::plain(p.id, path),
                        left: Cursor::Rest(Arc::clone(&p), b, 0, lp),
                        right: Cursor::Blocks(p, b + 1, rp),
                    };
                }
                Cursor::Rest(p, b, s, path) => {
                    let block = &p.blocks[b];
                    if s == block.stmts.len() {
                        // The implicit empty thread that reaches the sync.
                        return LiveNode::Leaf(Meta::plain(p.id, path));
                    }
                    let (lp, rp) = child_paths(path);
                    return match &block.stmts[s] {
                        Stmt::Step(_) => LiveNode::Internal {
                            kind: SpKind::Series,
                            meta: Meta::plain(p.id, path),
                            left: Cursor::Step(Arc::clone(&p), b, s, lp),
                            right: Cursor::Rest(p, b, s + 1, rp),
                        },
                        Stmt::Spawn(body) => {
                            let child = self.instantiate(body);
                            let spawned = child.id;
                            LiveNode::Internal {
                                kind: SpKind::Parallel,
                                meta: Meta {
                                    proc: p.id,
                                    spawned: Some(spawned),
                                    step: None,
                                    path,
                                },
                                left: Cursor::Blocks(child, 0, lp),
                                right: Cursor::Rest(p, b, s + 1, rp),
                            }
                        }
                    };
                }
                Cursor::Step(p, b, s, path) => {
                    let Stmt::Step(f) = &p.blocks[b].stmts[s] else {
                        unreachable!("a Step cursor always points at a step statement");
                    };
                    return LiveNode::Leaf(Meta {
                        proc: p.id,
                        spawned: None,
                        step: Some(Arc::clone(f)),
                        path,
                    });
                }
            }
        }
    }
}
