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
//! instance is one allocation: the counted [`ProcInst`] its cursors share,
//! which owns the body a lazy spawn built (or shares a pre-built [`Proc`]'s)
//! and, through it, the boxed closures of its statements.  A step leaf runs
//! its closure borrowed from the instance: the leaf's [`Meta`] takes over the
//! count its `Step` cursor held, so nothing is cloned to execute a step.
//!
//! How the instance is counted is the one type parameter of the unfolding
//! ([`InstRef`]), and the grammar above is written once over it.  The serial
//! walk ([`SerialCilk`]) shares instances through `Rc`: `run_live_serial`
//! keeps every cursor on the calling thread, so the counts it still takes
//! per thread — one clone per step statement (the `Step` cursor beside the
//! `Rest` one) and per non-final sync block, the instance's final drop — are
//! plain adds.  The scheduler ([`SharedCilk`]) shares them through `Arc`,
//! because a thief takes a continuation's cursor to another worker, and pays
//! atomic counts for it.  `next_proc`'s `fetch_add` per spawn is atomic on
//! both.

use std::marker::PhantomData;
use std::ops::Deref;
use std::rc::Rc;
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

/// How the cursors of one walk share a procedure instance: `Rc` on the
/// calling thread, `Arc` on the scheduler (see the module documentation).
pub(crate) trait InstRef: Clone + Deref<Target = ProcInst> {
    fn new(inst: ProcInst) -> Self;
}

impl InstRef for Rc<ProcInst> {
    #[inline]
    fn new(inst: ProcInst) -> Self {
        Rc::new(inst)
    }
}

impl InstRef for Arc<ProcInst> {
    #[inline]
    fn new(inst: ProcInst) -> Self {
        Arc::new(inst)
    }
}

/// The unfolding [`forkrt::run_live_serial`] walks: plain counts.
pub(crate) type SerialCilk = LiveCilk<Rc<ProcInst>>;

/// The unfolding [`forkrt::run_live`] walks: atomic counts, so cursors and
/// metadata may cross workers.
pub(crate) type SharedCilk = LiveCilk<Arc<ProcInst>>;

/// A [`SerialCilk`] node's metadata.
pub(crate) type SerialMeta = Meta<Rc<ProcInst>>;

/// A [`SharedCilk`] node's metadata.
pub(crate) type SharedMeta = Meta<Arc<ProcInst>>;

/// Position in the unfolding computation.  The trailing `u64` of every
/// variant is the node's structural *path* (see [`crate::determinacy`]):
/// derived purely from the position in the tree, identical on every
/// schedule, unlike the `fetch_add`-allocated [`ProcId`]s.
pub(crate) enum Cursor<R> {
    /// The series of sync blocks of a procedure from the block that starts
    /// at statement `s` on.
    Blocks(R, usize, u64),
    /// The statements from `s` to the end of their block (the implicit empty
    /// thread that reaches the sync).
    Rest(R, usize, u64),
    /// The single step leaf at statement `s`.
    Step(R, usize, u64),
}

/// Node metadata handed to visitors.
pub(crate) struct Meta<R> {
    /// The procedure this node belongs to (for a P-node: the *spawning*
    /// procedure, per the canonical convention).
    pub(crate) proc: ProcId,
    /// For a P-node: the procedure spawned into its left subtree.
    pub(crate) spawned: Option<ProcId>,
    /// For a step leaf: the instance and the index of the step statement in
    /// its body — the count the leaf's `Step` cursor held, moved here.
    step: Option<(R, usize)>,
    /// Schedule-independent structural path of this node — what the
    /// determinacy enforcer hashes (see [`crate::determinacy`]).
    pub(crate) path: u64,
}

impl<R: InstRef> Meta<R> {
    /// Metadata of a node of `proc` that neither spawns nor steps.
    fn plain(proc: ProcId, path: u64) -> Self {
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
pub(crate) struct LiveCilk<R> {
    root: Arc<Vec<Stmt>>,
    next_proc: AtomicU32,
    inst: PhantomData<R>,
}

impl<R: InstRef> LiveCilk<R> {
    pub(crate) fn new(root: &Proc) -> Self {
        LiveCilk {
            root: Arc::clone(&root.body),
            next_proc: AtomicU32::new(1),
            inst: PhantomData,
        }
    }

    /// Procedures spawned so far — every spawn takes exactly one fresh id.
    pub(crate) fn spawns(&self) -> u64 {
        u64::from(self.next_proc.load(Ordering::Relaxed)) - 1
    }

    fn instantiate(&self, body: &SpawnBody) -> R {
        let body = body.instantiate();
        let id = ProcId(self.next_proc.fetch_add(1, Ordering::Relaxed));
        R::new(ProcInst { id, body })
    }
}

impl<R: InstRef> LiveProgram for LiveCilk<R> {
    type Cursor = Cursor<R>;
    type Meta = Meta<R>;

    fn root(&self) -> Cursor<R> {
        Cursor::Blocks(
            R::new(ProcInst {
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
    fn unfold(&self, cursor: Cursor<R>) -> LiveNode<Cursor<R>, Meta<R>> {
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
                        left: Cursor::Rest(p.clone(), s, lp),
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
                                left: Cursor::Step(p.clone(), s, lp),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{build_proc, ProcBuilder};
    use forkrt::{run_live_serial, SerialLiveVisitor};

    /// One unfolded node as a visitor sees it (`kind` is `None` at a leaf).
    #[derive(Debug, PartialEq)]
    struct Node {
        kind: Option<SpKind>,
        proc: ProcId,
        spawned: Option<ProcId>,
        path: u64,
        step: bool,
    }

    impl Node {
        fn of<R: InstRef>(kind: Option<SpKind>, meta: &Meta<R>) -> Node {
            Node {
                kind,
                proc: meta.proc,
                spawned: meta.spawned,
                path: meta.path,
                step: meta.step().is_some(),
            }
        }
    }

    #[derive(Default)]
    struct Nodes(Vec<Node>);

    impl<R: InstRef> SerialLiveVisitor<LiveCilk<R>> for Nodes {
        fn enter_internal(&mut self, kind: SpKind, meta: &Meta<R>) {
            self.0.push(Node::of(Some(kind), meta));
        }

        fn execute_leaf(&mut self, meta: &Meta<R>) {
            self.0.push(Node::of(None, meta));
        }
    }

    /// Every node of one serial walk of `prog` shared through `R`, in visit
    /// order.
    fn unfolded<R: InstRef>(prog: &Proc) -> Vec<Node> {
        let mut nodes = Nodes::default();
        let threads = run_live_serial(&LiveCilk::<R>::new(prog), &mut nodes);
        let leaves = nodes.0.iter().filter(|n| n.kind.is_none()).count();
        assert_eq!(threads as usize, leaves);
        nodes.0
    }

    /// `live_fib`'s recursion: lazy spawn bodies, unfolded at spawn time.
    fn fib(n: u32) -> impl Fn(&mut ProcBuilder) + Send + Sync {
        move |p: &mut ProcBuilder| {
            if n < 2 {
                p.step(|m| m.write(0, 1));
                return;
            }
            p.spawn(fib(n - 1));
            p.spawn(fib(n - 2));
            p.step(|_| {});
        }
    }

    /// The serial and the scheduler instantiation are one grammar: the same
    /// program unfolds the same nodes — kind, procedure, spawned child, path
    /// and step-or-not — in the same order under `Rc` and under `Arc`.
    #[test]
    fn serial_and_shared_instances_unfold_the_same_nodes() {
        let shared_child = build_proc(|c| {
            c.step(|m| m.write(1, 2)).spawn(|_| {});
        });
        let programs = [
            ("lazy fib", build_proc(|p| fib(6)(p))),
            ("empty procedure", build_proc(|_| {})),
            (
                "prebuilt child, empty spawn, multi-block body with an empty block",
                build_proc(|p| {
                    p.step(|m| m.write(0, 1))
                        .spawn_proc(shared_child.clone())
                        .sync();
                    p.sync();
                    p.spawn(|_| {})
                        .spawn_proc(shared_child.clone())
                        .step(|_| {});
                    p.sync();
                    p.step(|m| m.write(0, 3));
                }),
            ),
        ];
        for (name, prog) in &programs {
            let serial = unfolded::<Rc<ProcInst>>(prog);
            let shared = unfolded::<Arc<ProcInst>>(prog);
            assert!(!serial.is_empty(), "{name}");
            assert_eq!(serial, shared, "{name}");
        }
        // The walks really covered each case: leaves that step and leaves
        // that do not, fresh procedure ids per spawn, both node kinds.
        let mixed = unfolded::<Rc<ProcInst>>(&programs[2].1);
        assert!(mixed.iter().any(|n| n.kind.is_none() && n.step));
        assert!(mixed.iter().any(|n| n.kind.is_none() && !n.step));
        // Two instances of the pre-built child, each spawning one, plus one.
        let spawned: Vec<ProcId> = mixed.iter().filter_map(|n| n.spawned).collect();
        assert_eq!(spawned, (1..=5).map(ProcId).collect::<Vec<_>>());
        assert!(mixed.iter().any(|n| n.kind == Some(SpKind::Series)));
        let empty = unfolded::<Arc<ProcInst>>(&programs[1].1);
        assert_eq!(empty.len(), 1, "one empty thread");
    }
}
