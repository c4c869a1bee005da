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
//! A procedure body is one flat statement vector with a [`Stmt::Sync`]
//! closing each block (see [`crate::program`]), and every cursor is an index
//! into it:
//!
//! ```text
//! body         ::= ε | block+                  block ::= (Step | Spawn)* Sync
//! Blocks(p, s) ::= leaf                        if body = ε
//!                | Rest(p, s)                  if the block at s is the last
//!                | S(Rest(p, s), Blocks(p, e + 1))   e = the Sync closing it
//! Rest(p, s)   ::= leaf                        if body[s] = Sync
//!                | S(Step(p, s), Rest(p, s + 1))     if body[s] = Step
//!                | P(Blocks(child, 0), Rest(p, s + 1))   if body[s] = Spawn
//! Step(p, s)   ::= leaf running body[s]
//! ```
//!
//! `Blocks` finds `e` by one forward scan, made once per block.
//!
//! Procedure instances get fresh [`ProcId`]s when their spawn executes —
//! this is the information the live SP-hybrid's local tier keys its bags on,
//! arriving with the event stream instead of from a materialized tree.  An
//! instance is one allocation: the `Arc<ProcInst>` its cursors share, which
//! owns the body a lazy spawn built (or shares a pre-built [`Proc`]'s) and,
//! through it, the boxed closures of its statements.  A step leaf runs its
//! closure borrowed from the instance: the leaf's [`Meta`] takes over the
//! count its `Step` cursor held, so nothing is cloned to execute a step.
//! What is still reference-counted per thread: one `Arc<ProcInst>` clone per
//! step statement (the `Step` cursor beside the `Rest` one) and per
//! non-final sync block, the instance's final drop, and `next_proc`'s
//! `fetch_add` per spawn.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use forkrt::{LiveNode, LiveProgram, SpKind};
use sptree::tree::ProcId;

use crate::determinacy::{child_paths, ROOT_PATH};
use crate::program::{Body, Proc, SpawnBody, StepFn, Stmt};

/// One instantiated procedure: its fresh id plus its body.
pub(crate) struct ProcInst {
    pub(crate) id: ProcId,
    pub(crate) body: Body,
}

/// Position in the unfolding computation.  The trailing `u64` of every
/// variant is the node's structural *path* (see [`crate::determinacy`]):
/// derived purely from the position in the tree, identical on every
/// schedule, unlike the `fetch_add`-allocated [`ProcId`]s.
pub(crate) enum Cursor {
    /// The series of sync blocks of a procedure from the block that starts
    /// at statement `s` on.
    Blocks(Arc<ProcInst>, usize, u64),
    /// The statements from `s` to the end of their block (the implicit empty
    /// thread that reaches the sync).
    Rest(Arc<ProcInst>, usize, u64),
    /// The single step leaf at statement `s`.
    Step(Arc<ProcInst>, usize, u64),
}

/// Node metadata handed to visitors.
pub(crate) struct Meta {
    /// The procedure this node belongs to (for a P-node: the *spawning*
    /// procedure, per the canonical convention).
    pub(crate) proc: ProcId,
    /// For a P-node: the procedure spawned into its left subtree.
    pub(crate) spawned: Option<ProcId>,
    /// For a step leaf: the instance and the index of the step statement in
    /// its body — the count the leaf's `Step` cursor held, moved here.
    step: Option<(Arc<ProcInst>, usize)>,
    /// Schedule-independent structural path of this node — what the
    /// determinacy enforcer hashes (see [`crate::determinacy`]).
    pub(crate) path: u64,
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

    /// For a step leaf: the user closure to run, borrowed from the procedure
    /// instance this metadata keeps alive.  `None` for internal nodes and the
    /// implicit empty threads (block ends, empty procedures).
    #[inline]
    pub(crate) fn step(&self) -> Option<&StepFn> {
        let (inst, s) = self.step.as_ref()?;
        match &inst.body[*s] {
            Stmt::Step(f) => Some(&**f),
            _ => unreachable!("a Step cursor always points at a step statement"),
        }
    }
}

/// A [`Proc`] wrapped for one live run: allocates procedure ids as spawns
/// unfold.  Create one per run — ids restart at the root for every run.
pub(crate) struct LiveCilk {
    root: Arc<Vec<Stmt>>,
    next_proc: AtomicU32,
}

impl LiveCilk {
    pub(crate) fn new(root: &Proc) -> Self {
        LiveCilk {
            root: Arc::clone(&root.body),
            next_proc: AtomicU32::new(1),
        }
    }

    /// Procedures spawned so far — every spawn takes exactly one fresh id.
    pub(crate) fn spawns(&self) -> u64 {
        u64::from(self.next_proc.load(Ordering::Relaxed)) - 1
    }

    fn instantiate(&self, body: &SpawnBody) -> Arc<ProcInst> {
        let body = body.instantiate();
        let id = ProcId(self.next_proc.fetch_add(1, Ordering::Relaxed));
        Arc::new(ProcInst { id, body })
    }
}

impl LiveProgram for LiveCilk {
    type Cursor = Cursor;
    type Meta = Meta;

    fn root(&self) -> Cursor {
        Cursor::Blocks(
            Arc::new(ProcInst {
                id: ProcId(0),
                body: Body::Shared(Arc::clone(&self.root)),
            }),
            0,
            ROOT_PATH,
        )
    }

    // Forced inline: the walk loops of `forkrt::live` are monomorphic over
    // this program, and behind an opaque call the 112-byte node crosses
    // memory three times per fork (return slot, frame, argument slot).  Plain
    // `#[inline]` is ignored here (measured).
    #[inline(always)]
    fn unfold(&self, cursor: Cursor) -> LiveNode<Cursor, Meta> {
        let mut cursor = cursor;
        loop {
            match cursor {
                Cursor::Blocks(p, s, path) => {
                    if p.body.is_empty() {
                        // Empty procedure: a single empty thread.
                        return LiveNode::Leaf(Meta::plain(p.id, path));
                    }
                    let end = s + p.body[s..]
                        .iter()
                        .position(|stmt| matches!(stmt, Stmt::Sync))
                        .expect("a finished body ends in a sync");
                    if end + 1 == p.body.len() {
                        // Pass-through (no node emitted): the path rides on.
                        cursor = Cursor::Rest(p, s, path);
                        continue;
                    }
                    let (lp, rp) = child_paths(path);
                    return LiveNode::Internal {
                        kind: SpKind::Series,
                        meta: Meta::plain(p.id, path),
                        left: Cursor::Rest(Arc::clone(&p), s, lp),
                        right: Cursor::Blocks(p, end + 1, rp),
                    };
                }
                Cursor::Rest(p, s, path) => {
                    return match &p.body[s] {
                        // The implicit empty thread that reaches the sync.
                        Stmt::Sync => LiveNode::Leaf(Meta::plain(p.id, path)),
                        Stmt::Step(_) => {
                            let (lp, rp) = child_paths(path);
                            LiveNode::Internal {
                                kind: SpKind::Series,
                                meta: Meta::plain(p.id, path),
                                left: Cursor::Step(Arc::clone(&p), s, lp),
                                right: Cursor::Rest(p, s + 1, rp),
                            }
                        }
                        Stmt::Spawn(body) => {
                            let (lp, rp) = child_paths(path);
                            let child = self.instantiate(body);
                            LiveNode::Internal {
                                kind: SpKind::Parallel,
                                meta: Meta {
                                    proc: p.id,
                                    spawned: Some(child.id),
                                    step: None,
                                    path,
                                },
                                left: Cursor::Blocks(child, 0, lp),
                                right: Cursor::Rest(p, s + 1, rp),
                            }
                        }
                    };
                }
                Cursor::Step(p, s, path) => {
                    return LiveNode::Leaf(Meta {
                        proc: p.id,
                        spawned: None,
                        step: Some((p, s)),
                        path,
                    });
                }
            }
        }
    }
}
