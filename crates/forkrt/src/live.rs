//! The runtime: work-stealing over a **dynamically unfolding** SP
//! computation.
//!
//! A real instrumented Cilk program never hands the scheduler a whole parse
//! tree: the tree *unfolds* as the program runs — each spawn reveals a
//! P-node, each piece of serial work an S-node, and the scheduler never sees
//! more of it than the frames currently open.  This module executes exactly
//! that, generically:
//!
//! * a [`LiveProgram`] describes the computation as a *cursor* type plus an
//!   [`LiveProgram::unfold`] function that reveals, on demand, whether the
//!   position is a leaf or an internal S/P node with two child cursors (a
//!   materialized tree is the special case [`crate::TreeProgram`]);
//! * [`run_live`] executes it with the Cilk steal discipline described in
//!   the crate documentation — per-worker deques of open P-frames (oldest at
//!   the steal end), per-victim steal serialization, a two-flag join
//!   protocol where the last finisher continues above the stolen node, and a
//!   64-bit token traveling along the walk like the trace argument `U` of
//!   `SP-HYBRID` (paper Figure 8);
//! * [`run_live_serial`] is the single-threaded elision: the same unfolding,
//!   walked left-to-right on the calling thread with `&mut` callbacks —
//!   deterministic, steal-free, and the reference order for conformance.
//!
//! Besides the token, a second 64-bit *tag* flows **down** the walk: the
//! visitor assigns tags to the two children when an internal node is entered
//! and receives the tag back at each leaf.  Maintainers that keep per-node
//! handles (the streaming SP-order of `spmaint::stream`) thread their node
//! handles through tags; SP-hybrid ignores them and uses tokens as traces.
//!
//! Everything here *assumes* the unfolding is determinate — the same cursor
//! must reveal the same structure on every schedule.  The assumption is
//! checkable: `spprog`'s `RunConfig::enforced` folds every unfolded node
//! into a schedule-independent structural hash and rejects runs that
//! diverge from the program's serial reference (see the repository-root
//! `ARCHITECTURE.md#enforced-determinacy`).
//!
//! The `spprog` crate builds the user-facing fork-join API (`step` / `spawn`
//! / `sync` closures) on top of this module; see the repository-root
//! `ARCHITECTURE.md#live-execution-spprog`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam_deque::{Steal, Stealer, Worker as Deque};
use crossbeam_utils::Backoff;
use parking_lot::Mutex;
use spmetrics::{CounterId, EventKind, MetricsHandle};

use crate::metrics::RunStats;

/// Opaque 64-bit value threaded through the walk exactly like the trace
/// argument `U` of `SP-HYBRID(X, U)` (paper Figure 8): it is passed down into
/// subtrees, returned from completed subtrees, and replaced on steals by the
/// values the visitor chooses.
pub type Token = u64;

/// Tokens produced by a steal: the stolen right subtree runs under `right`
/// (the paper's U⁽⁴⁾) and the continuation after the join runs under `after`
/// (the paper's U⁽⁵⁾).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StealTokens {
    /// Token for the stolen right subtree (U⁽⁴⁾).
    pub right: Token,
    /// Token for everything after the corresponding join (U⁽⁵⁾).
    pub after: Token,
}

/// Kind of an internal node revealed by [`LiveProgram::unfold`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpKind {
    /// Series composition: left subtree executes before the right one.
    Series,
    /// Parallel composition: the right subtree (the continuation) may be
    /// stolen while the left subtree (the spawned child) executes.
    Parallel,
}

impl SpKind {
    /// Is this a P-node?
    #[inline]
    pub fn is_parallel(self) -> bool {
        matches!(self, SpKind::Parallel)
    }
}

/// What one cursor position turned out to be.
pub enum LiveNode<C, M> {
    /// A leaf: one thread of serial work, carrying its metadata.
    Leaf(M),
    /// An internal node with two child cursors.
    Internal {
        /// Series or parallel composition.
        kind: SpKind,
        /// Metadata of the node (e.g. the procedure it belongs to).
        meta: M,
        /// Cursor of the left subtree (walked first; the spawned procedure
        /// for a P-node under the canonical Cilk convention).
        left: C,
        /// Cursor of the right subtree (the continuation).
        right: C,
    },
}

/// A computation whose SP structure is revealed on demand.
///
/// `unfold` is called exactly once per node, by the walker about to visit
/// it, so it may allocate (procedure instances, fresh ids) as a real runtime
/// would.  The structure revealed must not depend on the schedule: two runs
/// of the same program must unfold the same tree (accesses to *data* may
/// race; the fork-join *shape* may not — the usual determinacy assumption).
///
/// The trait asks nothing about threads: the bounds belong to the walk.
/// [`run_live_serial`] keeps every cursor and every node's metadata on the
/// calling thread, so a program whose cursors share state through `Rc` runs
/// there as it is.  [`run_live`] hands continuations to thieves, so it alone
/// requires the program `Sync`, its cursors `Send` and its metadata
/// `Send + Sync` (both walks' documentation show the same `Rc` program
/// accepted by one and rejected by the other).
pub trait LiveProgram {
    /// Position in the unfolding computation.
    type Cursor;
    /// Per-node metadata handed to the visitor.
    type Meta;

    /// The root position.
    fn root(&self) -> Self::Cursor;

    /// Reveal the node at `cursor`.
    fn unfold(&self, cursor: Self::Cursor) -> LiveNode<Self::Cursor, Self::Meta>;
}

/// Callbacks of a parallel live run (shared-reference, `Sync`).
///
/// Events of one *serial stretch* (one worker walking without interruption)
/// arrive on that worker in exactly the order the serial left-to-right walk
/// would produce them; a stolen P-node gets `steal` on the thief instead of
/// `between_children`, and `join_stolen` on the last finisher instead of
/// `leave_internal`.
#[allow(unused_variables)]
pub trait LiveVisitor<P: LiveProgram>: Sync {
    /// An internal node was unfolded; assign the tags its children carry.
    fn enter_internal(
        &self,
        worker: usize,
        kind: SpKind,
        meta: &P::Meta,
        tag: u64,
        token: Token,
    ) -> (u64, u64) {
        (0, 0)
    }

    /// A leaf executes on `worker`, carrying the tag its parent assigned and
    /// the current token.  This is where the program's real work runs.
    fn execute_leaf(&self, worker: usize, meta: &P::Meta, tag: u64, token: Token);

    /// The left subtree finished on this worker and the right subtree is
    /// about to be walked serially by the same worker (no steal here).
    fn between_children(&self, worker: usize, kind: SpKind, meta: &P::Meta, token: Token) {}

    /// Both subtrees finished and the node completes unstolen.
    fn leave_internal(&self, worker: usize, kind: SpKind, meta: &P::Meta, token: Token) {}

    /// `thief` stole the continuation of the P-frame with metadata `meta`
    /// from `victim`; `token` is the token the victim entered the frame with
    /// (the trace being split).  Nothing of the stolen subtree executes
    /// before this returns.  The default suits a visitor with no trace
    /// machinery: the token passes through unchanged on both sides.
    fn steal(&self, thief: usize, victim: usize, meta: &P::Meta, token: Token) -> StealTokens {
        StealTokens {
            right: token,
            after: token,
        }
    }

    /// Both children of a previously stolen P-frame completed; `worker` (the
    /// last finisher) continues above it under `after`.
    fn join_stolen(&self, worker: usize, meta: &P::Meta, after: Token) {}

    /// The whole computation finished with `token` at the root.
    fn finished(&self, token: Token) {}
}

/// Callbacks of a serial live run (`&mut`, no tokens — a serial walk never
/// splits a trace).
#[allow(unused_variables)]
pub trait SerialLiveVisitor<P: LiveProgram> {
    /// An internal node was unfolded; assign the tags its children carry.
    fn enter_internal(&mut self, kind: SpKind, meta: &P::Meta, tag: u64) -> (u64, u64) {
        (0, 0)
    }
    /// A leaf executes, carrying the tag its parent assigned.
    fn execute_leaf(&mut self, meta: &P::Meta, tag: u64);
    /// The left subtree finished; the right subtree follows.  The node's
    /// metadata was handed over at `enter_internal` and is gone by now.
    fn between_children(&mut self, kind: SpKind) {}
    /// Both subtrees finished.
    fn leave_internal(&mut self, kind: SpKind) {}
}

/// Configuration of a live run.
#[derive(Clone, Copy, Debug)]
pub struct LiveConfig {
    /// Number of workers (P).  Clamped to ≥ 1 — a struct-literal
    /// `workers: 0` cannot reach the scheduler, where zero workers would
    /// mean zero spawned threads and a run that never starts.
    pub workers: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig { workers: 1 }
    }
}

impl LiveConfig {
    /// Convenience constructor (clamps to ≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        LiveConfig {
            workers: workers.max(1),
        }
    }
}

// Frame state bits (P-frames only).
const STOLEN: u8 = 1;
const LEFT_DONE: u8 = 1 << 1;
const RIGHT_DONE: u8 = 1 << 2;

/// One open internal node of the unfolding walk.
struct Frame<C, M> {
    /// The frame this one hangs under, if any.
    parent: Option<Arc<Frame<C, M>>>,
    /// Whether this frame is the left child of its parent.
    is_left: bool,
    kind: SpKind,
    meta: M,
    /// The pending right subtree `(cursor, tag)`; taken exactly once — by
    /// the owner (S-frame, or unstolen P-frame) or by the thief.
    right: Mutex<Option<(C, u64)>>,
    state: AtomicU8,
    /// Token the frame was entered with (the trace `U` of Figure 8).  Written
    /// once, before the deque hand-off publishes the frame to thieves.
    entry_token: Token,
    /// Token for the continuation after a stolen join (the paper's U⁽⁵⁾).
    after_token: AtomicU64,
}

/// Parent link of a walk position: the enclosing frame plus whether the
/// position is that frame's left child (`None` at the root).
type Link<C, M> = Option<(Arc<Frame<C, M>>, bool)>;

/// A shared handle to an open frame of program `P`.
type FrameRef<P> = Arc<Frame<<P as LiveProgram>::Cursor, <P as LiveProgram>::Meta>>;

struct Shared<'p, P: LiveProgram, V> {
    program: &'p P,
    visitor: &'p V,
    stealers: Vec<Stealer<FrameRef<P>>>,
    /// One lock per worker, held by a thief from the moment it takes an entry
    /// from that worker's deque until the corresponding split (the visitor's
    /// `steal` callback) has completed.  This serializes steals *per victim*,
    /// exactly like Cilk's steal protocol, so that when the same victim is
    /// robbed repeatedly the splits are applied outermost-first — the property
    /// Lemma 7 of the paper relies on ("steals occur from the top of the
    /// tree").  Without it, a thief that took the topmost P-node could be
    /// overtaken by a second thief taking the next one, and the two trace
    /// splits would be inserted into the global order in the wrong order.
    steal_locks: Vec<Mutex<()>>,
    done: AtomicBool,
    final_token: AtomicU64,
    steals: AtomicU64,
    failed_steals: AtomicU64,
    threads_per_worker: Vec<AtomicU64>,
    /// Observability sink; a detached handle makes every call a no-op.
    metrics: &'p MetricsHandle,
}

struct WorkerCtx<C, M> {
    index: usize,
    deque: Deque<Arc<Frame<C, M>>>,
    threads: u64,
    rng: u64,
}

impl<C, M> WorkerCtx<C, M> {
    fn next_victim(&mut self, workers: usize) -> usize {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % workers
    }
}

/// Run `program` on `config.workers` workers, reporting to `visitor`.  The
/// root is walked with `root_tag` and `initial_token`.
///
/// Successful steals, failed steal attempts, and idle park episodes land in
/// `metrics` as counters plus rate-limited trace events — all off the
/// work-execution hot loop (steals and idling only), so an attached registry
/// stays within the measured ≤5% overhead bar and a detached handle costs
/// nothing.
///
/// Workers share the program, a thief walks a cursor another worker
/// unfolded, and every open frame's metadata is reachable from the frames
/// below it on any worker — hence the bounds.  A program whose cursors count
/// through `Rc` is rejected here (it runs under [`run_live_serial`]):
///
/// ```compile_fail
/// use std::rc::Rc;
/// use forkrt::{run_live, LiveConfig, LiveNode, LiveProgram, LiveVisitor, Token};
/// use spmetrics::MetricsHandle;
///
/// /// `depth` levels of binary forks; a cursor is the depth left, counted.
/// struct Forks {
///     depth: u32,
/// }
///
/// impl LiveProgram for Forks {
///     type Cursor = Rc<u32>;
///     type Meta = ();
///
///     fn root(&self) -> Rc<u32> {
///         Rc::new(self.depth)
///     }
///
///     fn unfold(&self, cursor: Rc<u32>) -> LiveNode<Rc<u32>, ()> {
///         match *cursor {
///             0 => LiveNode::Leaf(()),
///             d => LiveNode::Internal {
///                 kind: forkrt::SpKind::Parallel,
///                 meta: (),
///                 left: Rc::new(d - 1),
///                 right: Rc::new(d - 1),
///             },
///         }
///     }
/// }
///
/// struct Nothing;
///
/// impl LiveVisitor<Forks> for Nothing {
///     fn execute_leaf(&self, _worker: usize, _meta: &(), _tag: u64, _token: Token) {}
/// }
///
/// let config = LiveConfig::with_workers(2);
/// run_live(&Forks { depth: 3 }, &Nothing, config, 0, 0, &MetricsHandle::detached());
/// ```
pub fn run_live<P, V>(
    program: &P,
    visitor: &V,
    config: LiveConfig,
    root_tag: u64,
    initial_token: Token,
    metrics: &MetricsHandle,
) -> RunStats
where
    P: LiveProgram + Sync,
    P::Cursor: Send,
    P::Meta: Send + Sync,
    V: LiveVisitor<P>,
{
    let workers = config.workers.max(1);
    let deques: Vec<Deque<FrameRef<P>>> = (0..workers).map(|_| Deque::new_lifo()).collect();
    let stealers = deques.iter().map(|d| d.stealer()).collect();
    let shared = Shared {
        program,
        visitor,
        stealers,
        steal_locks: (0..workers).map(|_| Mutex::new(())).collect(),
        done: AtomicBool::new(false),
        final_token: AtomicU64::new(initial_token),
        steals: AtomicU64::new(0),
        failed_steals: AtomicU64::new(0),
        threads_per_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        metrics,
    };

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (index, deque) in deques.into_iter().enumerate() {
            let shared = &shared;
            scope.spawn(move || {
                let mut ctx = WorkerCtx {
                    index,
                    deque,
                    threads: 0,
                    rng: 0x9E3779B97F4A7C15u64.wrapping_add(index as u64 * 0xABCD1234),
                };
                if index == 0 {
                    let root = shared.program.root();
                    walk_and_ascend(shared, &mut ctx, root, root_tag, initial_token, None);
                }
                steal_loop(shared, &mut ctx);
                shared.threads_per_worker[index].store(ctx.threads, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();

    RunStats {
        workers,
        steals: shared.steals.load(Ordering::Relaxed),
        failed_steal_attempts: shared.failed_steals.load(Ordering::Relaxed),
        threads_per_worker: shared
            .threads_per_worker
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        elapsed,
        final_token: shared.final_token.load(Ordering::Relaxed),
    }
}

fn steal_loop<P: LiveProgram, V: LiveVisitor<P>>(
    shared: &Shared<'_, P, V>,
    ctx: &mut WorkerCtx<P::Cursor, P::Meta>,
) {
    let workers = shared.stealers.len();
    let backoff = Backoff::new();
    // Idle/park bookkeeping stays in plain locals; the (detached-by-default)
    // metrics sink sees one counter bump per snooze and a rate-limited Park
    // event (1 per 64 snoozes per worker) so an attached trace ring is not
    // flooded by a long idle spell.
    let mut snoozes: u64 = 0;
    macro_rules! park {
        () => {
            backoff.snooze();
            snoozes += 1;
            shared.metrics.add(CounterId::Parks, 1);
            if snoozes % 64 == 1 {
                shared.metrics.event(EventKind::Park, ctx.index as u64, snoozes);
            }
        };
    }
    while !shared.done.load(Ordering::Acquire) {
        debug_assert!(ctx.deque.is_empty(), "idle worker must have an empty deque");
        if workers == 1 {
            park!();
            continue;
        }
        let victim = ctx.next_victim(workers);
        if victim == ctx.index {
            continue;
        }
        let Some(_guard) = shared.steal_locks[victim].try_lock() else {
            shared.failed_steals.fetch_add(1, Ordering::Relaxed);
            shared.metrics.add(CounterId::FailedSteals, 1);
            backoff.spin();
            continue;
        };
        match shared.stealers[victim].steal() {
            Steal::Success(frame) => {
                backoff.reset();
                // Thief side of the steal, under the victim's steal lock:
                // record it, let the visitor split the victim's trace, mark
                // the frame stolen (lines 19–24 of Figure 8).
                shared.steals.fetch_add(1, Ordering::Relaxed);
                shared.metrics.add(CounterId::Steals, 1);
                shared.metrics.event(EventKind::Steal, victim as u64, ctx.index as u64);
                let tokens = shared
                    .visitor
                    .steal(ctx.index, victim, &frame.meta, frame.entry_token);
                frame.after_token.store(tokens.after, Ordering::Release);
                frame.state.fetch_or(STOLEN, Ordering::SeqCst);
                drop(_guard);
                let (right, rtag) = frame
                    .right
                    .lock()
                    .take()
                    .expect("a stolen frame still owns its right subtree");
                let link = Some((frame, false));
                walk_and_ascend(shared, ctx, right, rtag, tokens.right, link);
            }
            Steal::Empty => {
                drop(_guard);
                shared.failed_steals.fetch_add(1, Ordering::Relaxed);
                shared.metrics.add(CounterId::FailedSteals, 1);
                park!();
            }
            Steal::Retry => {
                drop(_guard);
                shared.failed_steals.fetch_add(1, Ordering::Relaxed);
                shared.metrics.add(CounterId::FailedSteals, 1);
                backoff.spin();
            }
        }
    }
}

enum Mode<C, M> {
    /// Unfold and walk the subtree at the cursor, carrying tag and token.
    Down(C, u64, Token, Link<C, M>),
    /// The subtree under the link completed with the token; ascend.
    Up(Link<C, M>, Token),
}

fn walk_and_ascend<P: LiveProgram, V: LiveVisitor<P>>(
    shared: &Shared<'_, P, V>,
    ctx: &mut WorkerCtx<P::Cursor, P::Meta>,
    cursor: P::Cursor,
    tag: u64,
    token: Token,
    link: Link<P::Cursor, P::Meta>,
) {
    let mut mode = Mode::Down(cursor, tag, token, link);
    loop {
        match mode {
            Mode::Down(cursor, tag, token, link) => match shared.program.unfold(cursor) {
                LiveNode::Leaf(meta) => {
                    shared.visitor.execute_leaf(ctx.index, &meta, tag, token);
                    ctx.threads += 1;
                    mode = Mode::Up(link, token);
                }
                LiveNode::Internal {
                    kind,
                    meta,
                    left,
                    right,
                } => {
                    let (ltag, rtag) = shared
                        .visitor
                        .enter_internal(ctx.index, kind, &meta, tag, token);
                    // The link's reference to the enclosing frame moves
                    // into the new frame: one count fewer to take and drop.
                    let (parent, is_left) = match link {
                        Some((parent, is_left)) => (Some(parent), is_left),
                        None => (None, false),
                    };
                    let frame = Arc::new(Frame {
                        parent,
                        is_left,
                        kind,
                        meta,
                        right: Mutex::new(Some((right, rtag))),
                        state: AtomicU8::new(0),
                        entry_token: token,
                        after_token: AtomicU64::new(0),
                    });
                    if kind.is_parallel() {
                        // Publish the continuation for thieves, then walk the
                        // spawned left subtree.
                        ctx.deque.push(Arc::clone(&frame));
                    }
                    mode = Mode::Down(left, ltag, token, Some((frame, true)));
                }
            },
            Mode::Up(link, result) => {
                let Some((frame, was_left)) = link else {
                    // The root completed: the whole computation is done.
                    shared.final_token.store(result, Ordering::Release);
                    shared.visitor.finished(result);
                    shared.done.store(true, Ordering::Release);
                    return;
                };
                match frame.kind {
                    SpKind::Series => {
                        if was_left {
                            shared.visitor.between_children(
                                ctx.index,
                                frame.kind,
                                &frame.meta,
                                result,
                            );
                            let (right, rtag) = frame
                                .right
                                .lock()
                                .take()
                                .expect("an S-frame's right subtree is walked exactly once");
                            mode = Mode::Down(right, rtag, result, Some((frame, false)));
                        } else {
                            shared
                                .visitor
                                .leave_internal(ctx.index, frame.kind, &frame.meta, result);
                            mode = Mode::Up(above(&frame), result);
                        }
                    }
                    SpKind::Parallel => {
                        mode = if was_left {
                            match finish_left(shared, ctx, frame, result) {
                                Some(m) => m,
                                None => return, // abandoned: thief continues
                            }
                        } else {
                            match finish_right(shared, ctx, frame, result) {
                                Some(m) => m,
                                None => return, // abandoned: victim continues
                            }
                        };
                    }
                }
            }
        }
    }
}

/// The position above `frame`: its parent frame plus which child it is.
fn above<C, M>(frame: &Frame<C, M>) -> Link<C, M> {
    frame.parent.clone().map(|p| (p, frame.is_left))
}

/// The left subtree of P-frame `frame` completed on this worker: perform the
/// `SYNCHED()` check, continuing serially if the continuation was not stolen
/// and resolving the two-flag join otherwise.
fn finish_left<P: LiveProgram, V: LiveVisitor<P>>(
    shared: &Shared<'_, P, V>,
    ctx: &mut WorkerCtx<P::Cursor, P::Meta>,
    frame: FrameRef<P>,
    result: Token,
) -> Option<Mode<P::Cursor, P::Meta>> {
    let Some(popped) = ctx.deque.pop() else {
        return join_stolen(shared, ctx, frame, LEFT_DONE, RIGHT_DONE);
    };
    debug_assert!(
        Arc::ptr_eq(&popped, &frame),
        "deque bottom must be the P-frame whose left subtree just finished"
    );
    shared
        .visitor
        .between_children(ctx.index, frame.kind, &frame.meta, result);
    let (right, rtag) = frame
        .right
        .lock()
        .take()
        .expect("an unstolen P-frame still owns its right subtree");
    Some(Mode::Down(right, rtag, result, Some((frame, false))))
}

/// The right subtree of P-frame `frame` completed on this worker.
fn finish_right<P: LiveProgram, V: LiveVisitor<P>>(
    shared: &Shared<'_, P, V>,
    ctx: &mut WorkerCtx<P::Cursor, P::Meta>,
    frame: FrameRef<P>,
    result: Token,
) -> Option<Mode<P::Cursor, P::Meta>> {
    if frame.state.load(Ordering::Acquire) & STOLEN != 0 {
        return join_stolen(shared, ctx, frame, RIGHT_DONE, LEFT_DONE);
    }
    // Never stolen: ordinary serial completion by the owner.
    shared
        .visitor
        .leave_internal(ctx.index, frame.kind, &frame.meta, result);
    Some(Mode::Up(above(&frame), result))
}

/// The two-flag join of a stolen P-frame: this worker finished the side
/// flagged `mine`.  Whoever finishes second continues above the join with
/// the U⁽⁵⁾ token chosen at steal time; the first finisher abandons the walk
/// (`None`) and goes back to stealing.
fn join_stolen<P: LiveProgram, V: LiveVisitor<P>>(
    shared: &Shared<'_, P, V>,
    ctx: &mut WorkerCtx<P::Cursor, P::Meta>,
    frame: FrameRef<P>,
    mine: u8,
    other: u8,
) -> Option<Mode<P::Cursor, P::Meta>> {
    let prev = frame.state.fetch_or(mine, Ordering::SeqCst);
    debug_assert_eq!(prev & mine, 0, "one side of a join finished twice");
    if prev & other == 0 {
        return None;
    }
    let after = frame.after_token.load(Ordering::Acquire);
    shared.visitor.join_stolen(ctx.index, &frame.meta, after);
    Some(Mode::Up(above(&frame), after))
}

/// Walk `program` serially (left-to-right, on the calling thread), reporting
/// to `visitor`.  Returns the number of leaves executed.  This is the serial
/// elision of [`run_live`]: same unfolding, same event order as a one-worker
/// parallel run, but deterministic, steal-free, and allocation-light.
///
/// Nothing leaves the calling thread, so nothing here needs `Send` or
/// `Sync`: the `Rc`-cursor program [`run_live`] rejects runs as it is.  An
/// open frame keeps only the node's kind and its pending right subtree — a
/// node's metadata is dropped once `enter_internal` has seen it.
///
/// ```
/// use std::rc::Rc;
/// use forkrt::{run_live_serial, LiveNode, LiveProgram, SerialLiveVisitor};
///
/// /// `depth` levels of binary forks; a cursor is the depth left, counted.
/// struct Forks {
///     depth: u32,
/// }
///
/// impl LiveProgram for Forks {
///     type Cursor = Rc<u32>;
///     type Meta = ();
///
///     fn root(&self) -> Rc<u32> {
///         Rc::new(self.depth)
///     }
///
///     fn unfold(&self, cursor: Rc<u32>) -> LiveNode<Rc<u32>, ()> {
///         match *cursor {
///             0 => LiveNode::Leaf(()),
///             d => LiveNode::Internal {
///                 kind: forkrt::SpKind::Parallel,
///                 meta: (),
///                 left: Rc::new(d - 1),
///                 right: Rc::new(d - 1),
///             },
///         }
///     }
/// }
///
/// struct Nothing;
///
/// impl SerialLiveVisitor<Forks> for Nothing {
///     fn execute_leaf(&mut self, _meta: &(), _tag: u64) {}
/// }
///
/// assert_eq!(run_live_serial(&Forks { depth: 3 }, &mut Nothing, 0), 8);
/// ```
pub fn run_live_serial<P, V>(program: &P, visitor: &mut V, root_tag: u64) -> u64
where
    P: LiveProgram,
    V: SerialLiveVisitor<P>,
{
    struct SFrame<C> {
        kind: SpKind,
        right: Option<(C, u64)>,
    }
    let mut stack: Vec<SFrame<P::Cursor>> = Vec::new();
    let mut threads = 0u64;
    let mut down = Some((program.root(), root_tag));
    loop {
        // Descend along left children until a leaf completes...
        while let Some((cursor, tag)) = down.take() {
            match program.unfold(cursor) {
                LiveNode::Leaf(meta) => {
                    visitor.execute_leaf(&meta, tag);
                    threads += 1;
                }
                LiveNode::Internal {
                    kind,
                    meta,
                    left,
                    right,
                } => {
                    let (ltag, rtag) = visitor.enter_internal(kind, &meta, tag);
                    stack.push(SFrame {
                        kind,
                        right: Some((right, rtag)),
                    });
                    down = Some((left, ltag));
                }
            }
        }
        // ...then ascend: continue pending right subtrees, close finished
        // frames.
        loop {
            let Some(top) = stack.last_mut() else {
                return threads;
            };
            if let Some((right, rtag)) = top.right.take() {
                visitor.between_children(top.kind);
                down = Some((right, rtag));
                break;
            }
            let frame = stack.pop().expect("stack top exists");
            visitor.leave_internal(frame.kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A balanced fork-join computation described purely by ranges: the
    /// cursor is `(lo, hi)`; ranges of length 1 are leaves, longer ranges
    /// split in half under a P-node.  The meta is the range itself.
    struct Halver {
        leaves: usize,
    }

    impl LiveProgram for Halver {
        type Cursor = (usize, usize);
        type Meta = (usize, usize);

        fn root(&self) -> (usize, usize) {
            (0, self.leaves)
        }

        fn unfold(&self, (lo, hi): (usize, usize)) -> LiveNode<(usize, usize), (usize, usize)> {
            if hi - lo <= 1 {
                LiveNode::Leaf((lo, hi))
            } else {
                let mid = lo + (hi - lo) / 2;
                LiveNode::Internal {
                    kind: SpKind::Parallel,
                    meta: (lo, hi),
                    left: (lo, mid),
                    right: (mid, hi),
                }
            }
        }
    }

    struct Recorder {
        executed: Vec<AtomicUsize>,
        enters: AtomicUsize,
        closes: AtomicUsize,
        next_token: AtomicU64,
        spin: u64,
    }

    impl Recorder {
        fn new(leaves: usize, spin: u64) -> Self {
            Recorder {
                executed: (0..leaves).map(|_| AtomicUsize::new(0)).collect(),
                enters: AtomicUsize::new(0),
                closes: AtomicUsize::new(0),
                next_token: AtomicU64::new(1),
                spin,
            }
        }
    }

    impl LiveVisitor<Halver> for Recorder {
        fn enter_internal(
            &self,
            _w: usize,
            _k: SpKind,
            _m: &(usize, usize),
            tag: u64,
            _t: Token,
        ) -> (u64, u64) {
            self.enters.fetch_add(1, Ordering::Relaxed);
            (tag + 1, tag + 1)
        }
        fn execute_leaf(&self, _w: usize, &(lo, _): &(usize, usize), _tag: u64, _t: Token) {
            self.executed[lo].fetch_add(1, Ordering::Relaxed);
            let mut x = 1u64;
            for i in 0..self.spin {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        fn leave_internal(&self, _w: usize, _k: SpKind, _m: &(usize, usize), _t: Token) {
            self.closes.fetch_add(1, Ordering::Relaxed);
        }
        fn join_stolen(&self, _w: usize, _m: &(usize, usize), _t: Token) {
            self.closes.fetch_add(1, Ordering::Relaxed);
        }
        fn steal(&self, _thief: usize, _victim: usize, _m: &(usize, usize), _t: Token) -> StealTokens {
            let right = self.next_token.fetch_add(2, Ordering::Relaxed);
            StealTokens {
                right,
                after: right + 1,
            }
        }
    }

    fn check_parallel(leaves: usize, workers: usize, spin: u64) -> RunStats {
        let program = Halver { leaves };
        let recorder = Recorder::new(leaves, spin);
        let stats = run_live(&program, &recorder, LiveConfig::with_workers(workers), 0, 0, &MetricsHandle::detached());
        for (i, count) in recorder.executed.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "leaf {i} execution count");
        }
        assert_eq!(recorder.enters.load(Ordering::Relaxed), leaves - 1);
        assert_eq!(recorder.closes.load(Ordering::Relaxed), leaves - 1);
        assert_eq!(stats.total_threads() as usize, leaves);
        stats
    }

    #[test]
    fn single_worker_executes_every_leaf_without_steals() {
        let stats = check_parallel(256, 1, 0);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.final_token, 0, "token unchanged without steals");
    }

    #[test]
    fn many_workers_execute_every_leaf_exactly_once() {
        // Steals are schedule-dependent (this container may have few cores),
        // so assert they happen across the batch rather than per run; the
        // exactly-once and balance checks inside `check_parallel` are the
        // real assertions.
        let mut steals = 0;
        for _ in 0..5 {
            steals += check_parallel(1024, 4, 500).steals;
        }
        assert!(steals > 0, "expected at least one steal across 5 runs");
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let program = Halver { leaves: 32 };
        let recorder = Recorder::new(32, 0);
        let stats = run_live(&program, &recorder, LiveConfig { workers: 0 }, 0, 0, &MetricsHandle::detached());
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.total_threads(), 32);
    }

    #[test]
    fn serial_run_visits_leaves_left_to_right() {
        struct Ordered {
            seen: Vec<usize>,
        }
        impl SerialLiveVisitor<Halver> for Ordered {
            fn execute_leaf(&mut self, &(lo, _): &(usize, usize), _tag: u64) {
                self.seen.push(lo);
            }
        }
        let program = Halver { leaves: 64 };
        let mut v = Ordered { seen: Vec::new() };
        let threads = run_live_serial(&program, &mut v, 0);
        assert_eq!(threads, 64);
        assert_eq!(v.seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn serial_tags_flow_from_parent_to_children() {
        // Tags assigned as depth: every leaf's tag equals its depth in the
        // balanced split tree.
        struct Depths {
            max_leaf_tag: u64,
        }
        impl SerialLiveVisitor<Halver> for Depths {
            fn enter_internal(&mut self, _k: SpKind, _m: &(usize, usize), tag: u64) -> (u64, u64) {
                (tag + 1, tag + 1)
            }
            fn execute_leaf(&mut self, _m: &(usize, usize), tag: u64) {
                self.max_leaf_tag = self.max_leaf_tag.max(tag);
            }
        }
        let program = Halver { leaves: 8 };
        let mut v = Depths { max_leaf_tag: 0 };
        run_live_serial(&program, &mut v, 0);
        assert_eq!(v.max_leaf_tag, 3, "8 balanced leaves sit at depth 3");
    }
}
