//! Streaming SP maintenance: the event layer for computations that *unfold*
//! instead of arriving as a pre-built parse tree.
//!
//! A live execution (the `spprog` crate, over `forkrt`'s live mode) has no
//! tree to hand out, only events as the tree unfolds.
//! [`StreamingSpBackend`] is that event interface and [`StreamingSpOrder`]
//! the paper's SP-order (§2, Figure 5) behind it, with list elements for the
//! leaves only: right under *any* parent-before-child unfolding order.
//! [`SerialSpBags`] serves the one order a serial walk produces, in which a
//! thread id is the English label: it keeps Feng–Leiserson's P-bags as runs
//! of thread ids, in space proportional to the walk's depth.
//!
//! [`stream_tree`] replays a materialized tree through the streaming
//! interface, which is how the tests pin it against the tree-driven
//! algorithms.  See the repository-root
//! `ARCHITECTURE.md#live-execution-spprog`.

use om::{OmNode, OrderMaintenance, TwoLevelList};
use sptree::tree::{NodeKind, ParseTree, ThreadId};
use sptree::walk::{serial_walk, WalkEvent};

use crate::api::{CurrentSpQuery, SpQuery};

/// Handle of a not-yet-unfolded position in an incrementally unfolding SP
/// parse tree: the position's (English, Hebrew) list elements packed into one
/// word.  The caller keeps it until the position unfolds (the §3 strawman
/// keeps it in a node table).
///
/// The root is handed out by [`StreamingSpBackend::stream_new`]; children
/// come from [`StreamingSpBackend::expand`].  A handle is spent by the one
/// `expand` or `execute` call that reveals its position.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamNode(u64);

impl StreamNode {
    /// The word that is never a handle pair (no list holds 2³² − 1 elements):
    /// "this thread has not executed" in the per-thread table.
    const NONE: StreamNode = StreamNode(u64::MAX);

    #[inline]
    fn pack(eng: OmNode, heb: OmNode) -> Self {
        StreamNode((eng.index() as u64) << 32 | heb.index() as u64)
    }

    #[inline]
    fn unpack(self) -> (OmNode, OmNode) {
        (
            OmNode::from_index((self.0 >> 32) as u32),
            OmNode::from_index(self.0 as u32),
        )
    }
}

/// An SP maintainer driven by reveal events instead of a tree walk.
///
/// `expand` is called when a position is revealed to be internal (the parent
/// must have been expanded first — any unfolding order that respects that is
/// allowed, the serial left-to-right one being the common case), and
/// `execute` when a position is revealed to be a leaf whose thread starts
/// executing — that thread is *current* until the next `execute`.  Between
/// events, [`CurrentSpQuery`] relates any already-executed thread to the
/// current one.
pub trait StreamingSpBackend: CurrentSpQuery {
    /// Create an empty structure and the handle of the root position.
    fn stream_new() -> (Self, StreamNode)
    where
        Self: Sized;

    /// `node` is revealed to be an internal node (`parallel` selects P over
    /// S); returns the handles of its (left, right) children.
    fn expand(&mut self, node: StreamNode, parallel: bool) -> (StreamNode, StreamNode);

    /// `node` is revealed to be a leaf executing as `thread`; `thread`
    /// becomes the currently executing thread.  Threads are numbered by the
    /// caller (serial executions number them 0, 1, 2, … in execution order).
    fn execute(&mut self, node: StreamNode, thread: ThreadId);

    /// Human-readable name (for reports and benches).
    fn name(&self) -> &'static str;

    /// Approximate heap bytes used.
    fn space_bytes(&self) -> usize;
}

/// SP-order over an incrementally unfolding tree, with list elements for the
/// leaves only.
///
/// Figure 5 inserts both children of an unfolding node X right after X in the
/// English order (and after X, swapped under a P-node, in the Hebrew order).
/// Once X has unfolded nothing reads X's own elements again: queries take
/// [`ThreadId`]s, so only leaves are ever compared, and only X's own
/// unfolding ever inserts after X.  So here X's *first* child in each order
/// **takes over** X's element — the left child in English; the left child
/// under an S-node and the right child under a P-node in Hebrew — and only
/// the other child is inserted, immediately after it.  Nothing ever sat
/// between X and its first child, so every pair of leaves is ordered exactly
/// as by Figure 5, for **2** insertions per fork instead of 4 and one element
/// per *thread* in each list (plus the base) instead of one per node.  The
/// argument is about one insertion at a time, so it holds for any
/// parent-before-child unfolding order, not just the serial one — which is
/// what lets the §3 strawman share this structure among workers.
///
/// An unfolded position is just its [`StreamNode`] handle pair, carried by
/// the caller (the §3 strawman keeps it in a node table), and an executed
/// thread is the same word in a table indexed by [`ThreadId`]: 2·16 B of
/// list items + 8 B ≈ 48 B per thread with [`TwoLevelList`].  Generic over
/// the order-maintenance structure like its tree-driven sibling
/// [`crate::SpOrder`], which keeps Figure 5's per-node elements and stays the
/// reference this is tested against.
///
/// This is the two-list definition, right under *any* unfolding order: its
/// [`CurrentSpQuery`] impl is Figure 5's `SP-PRECEDES` as written, both
/// orders compared (the §3 strawman's workers unfold wherever they are).  A
/// **serial** walk needs neither list — see [`SerialSpBags`], which is tested
/// against this structure thread by thread.
///
/// ```
/// use spmaint::stream::{StreamingSpBackend, StreamingSpOrder};
/// use spmaint::{CurrentSpQuery, SpQuery};
/// use sptree::tree::ThreadId;
///
/// // Unfold S(u0, P(u1, u2)) event by event, querying as threads execute.
/// let (mut sp, root) = StreamingSpOrder::<om::TwoLevelList>::stream_new();
/// let (u0, rest) = sp.expand(root, false);   // root is an S-node
/// sp.execute(u0, ThreadId(0));               // u0 runs first
/// let (u1, u2) = sp.expand(rest, true);      // the rest is a P-node
/// sp.execute(u1, ThreadId(1));
/// assert!(sp.precedes_current(ThreadId(0))); // serial prefix precedes
/// sp.execute(u2, ThreadId(2));
/// assert!(sp.parallel_with_current(ThreadId(1))); // sibling branch is parallel
/// assert!(sp.precedes(ThreadId(0), ThreadId(2)));
/// assert_eq!(sp.num_nodes(), 5);             // 3 threads + 2 internal nodes
/// ```
pub struct StreamingSpOrder<L: OrderMaintenance = TwoLevelList> {
    eng: L,
    heb: L,
    /// Handle pair of every executed thread's leaf, indexed by [`ThreadId`];
    /// [`StreamNode::NONE`] until the thread executes.
    threads: Vec<StreamNode>,
    current: Option<ThreadId>,
}

impl<L: OrderMaintenance> StreamingSpOrder<L> {
    /// Number of positions revealed so far (unfolded internal nodes, their
    /// children, the root).  Every `expand` reveals two positions and adds
    /// one element to each list, which start out as base + root.
    pub fn num_nodes(&self) -> usize {
        2 * self.eng.len() - 3
    }

    /// Number of threads executed so far.
    pub fn num_executed(&self) -> usize {
        self.threads.iter().filter(|&&t| t != StreamNode::NONE).count()
    }

    #[inline]
    fn handles_of(&self, thread: ThreadId) -> (OmNode, OmNode) {
        match self.threads.get(thread.index()) {
            Some(&leaf) if leaf != StreamNode::NONE => leaf.unpack(),
            _ => panic!("thread u{} has not executed yet", thread.0),
        }
    }
}

impl<L: OrderMaintenance> StreamingSpBackend for StreamingSpOrder<L> {
    fn stream_new() -> (Self, StreamNode) {
        let (mut eng, eng_base) = L::new();
        let (mut heb, heb_base) = L::new();
        let root = StreamNode::pack(eng.insert_after(eng_base), heb.insert_after(heb_base));
        (
            StreamingSpOrder {
                eng,
                heb,
                threads: Vec::new(),
                current: None,
            },
            root,
        )
    }

    fn expand(&mut self, node: StreamNode, parallel: bool) -> (StreamNode, StreamNode) {
        let (node_eng, node_heb) = node.unpack();
        // English order ⟨left, right⟩ (line 4 of Figure 5): left takes over
        // X's element, right goes right behind it.
        let right_eng = self.eng.insert_after(node_eng);
        // Hebrew order: ⟨left, right⟩ under an S-node, ⟨right, left⟩ under a
        // P-node (lines 5–7) — the first of the two takes over X's element.
        let second_heb = self.heb.insert_after(node_heb);
        let (left_heb, right_heb) = if parallel {
            (second_heb, node_heb)
        } else {
            (node_heb, second_heb)
        };
        (
            StreamNode::pack(node_eng, left_heb),
            StreamNode::pack(right_eng, right_heb),
        )
    }

    fn execute(&mut self, node: StreamNode, thread: ThreadId) {
        if self.threads.len() <= thread.index() {
            self.threads.resize(thread.index() + 1, StreamNode::NONE);
        }
        debug_assert!(
            self.threads[thread.index()] == StreamNode::NONE,
            "thread u{} executed twice",
            thread.0
        );
        self.threads[thread.index()] = node;
        self.current = Some(thread);
    }

    fn name(&self) -> &'static str {
        "streaming-sp-order"
    }

    fn space_bytes(&self) -> usize {
        self.eng.space_bytes()
            + self.heb.space_bytes()
            + self.threads.capacity() * std::mem::size_of::<StreamNode>()
    }
}

/// SP maintenance on a **serial** left-to-right walk, in walk-depth space:
/// Feng–Leiserson's P-bags as runs of thread ids.
///
/// A serial walk numbers its threads in execution order.  An executed thread
/// is parallel to the current one iff it lies in the finished left subtree of
/// a P-node on the current path, and on this walk each such subtree is a
/// contiguous run of thread ids.  This keeps one entry `[lo, hi)` per open
/// P-node on a stack: `hi` is where its left subtree ended (its start while
/// that subtree runs), and `lo` is its start merged down with the entry
/// below when that one's run ends exactly there, so that a level of k spawns
/// reads as one run at the top instead of k.  Entering a P-node pushes its
/// entry, between its children `hi` moves to the next thread, and leaving
/// pops it; S-nodes and threads store nothing.  Both `lo` and `hi` ascend up
/// the stack, and the threads parallel to the current one are the union of
/// the entries.
///
/// So a fork and a join cost O(1), space is 8 B per open P-node, and a query
/// about `u` costs O(1) when `u` is at or above the top entry's `lo` or below
/// the bottom one's, and O(log r) over the r open entries otherwise.
///
/// **Precondition, asserted in every build:** threads execute in the order
/// they are numbered — [`SerialSpBags::execute`] panics unless `thread` is
/// the next index.  `forkrt::run_live_serial` walks that way; an unfolding
/// in any other order needs [`StreamingSpOrder`].
///
/// ```
/// use spmaint::stream::SerialSpBags;
/// use spmaint::CurrentSpQuery;
/// use sptree::tree::ThreadId;
///
/// // Walk S(u0, P(u1, u2)) left to right; the S-node needs no event.
/// let mut sp = SerialSpBags::default();
/// sp.execute(ThreadId(0));
/// sp.enter_p();
/// sp.execute(ThreadId(1));
/// assert!(sp.precedes_current(ThreadId(0))); // serial prefix precedes
/// sp.between_p();
/// sp.execute(ThreadId(2));
/// assert!(sp.parallel_with_current(ThreadId(1))); // sibling branch is parallel
/// sp.leave_p();
/// assert_eq!(sp.num_executed(), 3);
/// ```
#[derive(Default)]
pub struct SerialSpBags {
    /// The id the next thread must carry; the current thread is `next - 1`.
    next: u32,
    /// One `(lo, hi)` per open P-node, innermost last.
    runs: Vec<(u32, u32)>,
}

impl SerialSpBags {
    /// A P-node is entered: its left subtree starts at the next thread.
    #[inline]
    pub fn enter_p(&mut self) {
        let next = self.next;
        let lo = match self.runs.last() {
            Some(&(lo, hi)) if hi == next => lo,
            _ => next,
        };
        self.runs.push((lo, next));
    }

    /// The innermost open P-node's left subtree finished: its threads are
    /// parallel to everything in the right subtree.
    //
    // This and `leave_p` check their pairing in debug builds only: a panic
    // that can unwind out of the serial walk's ascend loop makes it keep the
    // pending right subtree ready to drop, which cost small programs ≈ 10 %.
    #[inline]
    pub fn between_p(&mut self) {
        debug_assert!(!self.runs.is_empty(), "between_p inside an entered P-node");
        if let Some(top) = self.runs.last_mut() {
            top.1 = self.next;
        }
    }

    /// The innermost open P-node is left.
    #[inline]
    pub fn leave_p(&mut self) {
        let left = self.runs.pop();
        debug_assert!(left.is_some(), "leave_p closes an entered P-node");
    }

    /// The id the next thread to execute must carry.
    #[inline]
    pub fn next_thread(&self) -> ThreadId {
        ThreadId(self.next)
    }

    /// `thread` starts executing and becomes the current thread.
    #[inline]
    pub fn execute(&mut self, thread: ThreadId) {
        assert!(
            thread.0 == self.next,
            "serial SP-bags need threads executed in English order and numbered by it, \
             but u{} executes after {} threads",
            thread.0,
            self.next
        );
        // `ThreadId(u32::MAX)` is the shadow cells' "no thread" word.
        self.next = self.next.checked_add(1).expect(
            "the serial walk executed u32::MAX threads, which exhausts the thread-id space",
        );
    }

    /// Number of threads executed so far.
    pub fn num_executed(&self) -> usize {
        self.next as usize
    }

    /// Human-readable name (for reports and benches).
    pub fn name(&self) -> &'static str {
        "serial-sp-bags"
    }

    /// Heap bytes used: the stack, nothing per thread.
    pub fn space_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

impl CurrentSpQuery for SerialSpBags {
    #[inline]
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        let u = earlier.0;
        assert!(u < self.next, "thread u{u} has not executed yet");
        if u + 1 == self.next {
            return false; // the current thread itself
        }
        match self.runs.last() {
            None => true,
            Some(&(lo, hi)) if u >= lo => u >= hi,
            Some(_) if u < self.runs[0].0 => true,
            Some(_) => {
                // The last entry with `lo ≤ u` has the highest `hi` of them.
                let i = self.runs.partition_point(|&(lo, _)| lo <= u);
                u >= self.runs[i - 1].1
            }
        }
    }
}

/// Arbitrary-pair queries over *executed* threads (valid at any point during
/// the unfolding — a leaf's position in both orders relative to every other
/// leaf is fixed as soon as it is revealed, exactly like in the tree-driven
/// SP-order).
impl<L: OrderMaintenance> SpQuery for StreamingSpOrder<L> {
    fn precedes(&self, a: ThreadId, b: ThreadId) -> bool {
        if a == b {
            return false;
        }
        let (ea, ha) = self.handles_of(a);
        let (eb, hb) = self.handles_of(b);
        self.eng.precedes(ea, eb) && self.heb.precedes(ha, hb)
    }
}

impl<L: OrderMaintenance> CurrentSpQuery for StreamingSpOrder<L> {
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        let current = self.current.expect("no thread is currently executing");
        self.precedes(earlier, current)
    }
}

/// Replay a materialized parse tree through a streaming backend, invoking
/// `on_thread(&backend, thread)` while each thread is current — the bridge
/// from the tree world to the event world, used by the equivalence tests to
/// pin streaming maintainers against their tree-driven siblings.
pub fn stream_tree<B, F>(tree: &ParseTree, mut on_thread: F) -> B
where
    B: StreamingSpBackend,
    F: FnMut(&B, ThreadId),
{
    let (mut backend, root) = B::stream_new();
    // Handles of the revealed positions the walk has not reached yet; the
    // left-to-right walk reaches them in stack order.
    let mut pending = vec![root];
    serial_walk(tree, |event| match event {
        WalkEvent::EnterInternal(n) => {
            let node = pending.pop().expect("the walk enters a revealed position");
            let (l, r) = backend.expand(node, tree.kind(n) == NodeKind::P);
            pending.push(r);
            pending.push(l);
        }
        WalkEvent::Thread(_, t) => {
            let node = pending.pop().expect("the walk enters a revealed position");
            backend.execute(node, t);
            on_thread(&backend, t);
        }
        WalkEvent::BetweenChildren(_) | WalkEvent::LeaveInternal(_) => {}
    });
    backend
}

#[cfg(test)]
mod tests {
    use super::*;
    use om::TagList;
    use sptree::generate::{random_sp_ast, serial_chain};
    use sptree::oracle::SpOracle;

    #[test]
    fn streamed_tree_matches_oracle_on_all_pairs() {
        for seed in 0..8u64 {
            let tree = random_sp_ast(80, 0.5, seed).build();
            let oracle = SpOracle::new(&tree);
            let sp: StreamingSpOrder = stream_tree(&tree, |_b, _t| {});
            for a in tree.thread_ids() {
                for b in tree.thread_ids() {
                    assert_eq!(
                        sp.relation(a, b),
                        oracle.relation(a, b),
                        "seed {seed}, threads {a:?}, {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn current_thread_queries_match_oracle_during_the_stream() {
        let tree = random_sp_ast(70, 0.6, 42).build();
        let oracle = SpOracle::new(&tree);
        let _sp: StreamingSpOrder = stream_tree(&tree, |sp: &StreamingSpOrder, current| {
            for earlier in 0..current.0 {
                let earlier = ThreadId(earlier);
                assert_eq!(
                    sp.precedes_current(earlier),
                    oracle.precedes(earlier, current),
                    "u{} vs current u{}",
                    earlier.0,
                    current.0
                );
            }
        });
    }

    #[test]
    fn streaming_agrees_with_tree_driven_sp_order() {
        use crate::api::{BackendConfig, SpBackend};
        use crate::SpOrder;
        use sptree::walk::walk_visitor;
        for seed in [3u64, 9, 27] {
            let tree = random_sp_ast(60, 0.45, seed).build();
            let streamed: StreamingSpOrder = stream_tree(&tree, |_b, _t| {});
            let mut driven: SpOrder = SpBackend::build(&tree, BackendConfig::serial());
            walk_visitor(&tree, &mut driven);
            for a in tree.thread_ids() {
                for b in tree.thread_ids() {
                    assert_eq!(streamed.relation(a, b), driven.relation(a, b));
                }
            }
        }
    }

    #[test]
    fn works_over_the_tag_list_substrate_too() {
        let tree = random_sp_ast(50, 0.5, 5).build();
        let oracle = SpOracle::new(&tree);
        let sp: StreamingSpOrder<TagList> = stream_tree(&tree, |_b, _t| {});
        for a in tree.thread_ids() {
            for b in tree.thread_ids() {
                assert_eq!(sp.relation(a, b), oracle.relation(a, b));
            }
        }
        assert_eq!(sp.name(), "streaming-sp-order");
        assert!(sp.space_bytes() > 0);
    }

    #[test]
    fn deep_chain_streams_without_recursion_issues() {
        let tree = serial_chain(5_000, 1).build();
        let sp: StreamingSpOrder = stream_tree(&tree, |_b, _t| {});
        assert_eq!(sp.num_executed(), 5_000);
        assert!(sp.precedes(ThreadId(0), ThreadId(4_999)));
        assert!(!sp.precedes(ThreadId(4_999), ThreadId(0)));
    }

    #[test]
    fn node_and_tag_round_trip() {
        let (mut sp, root) = StreamingSpOrder::<TwoLevelList>::stream_new();
        let (left, right) = sp.expand(root, true);
        for node in [root, left, right] {
            let (eng, heb) = node.unpack();
            assert_eq!(StreamNode::pack(eng, heb), node);
            assert_ne!(node, StreamNode::NONE);
        }
        // Under a P-node the left child keeps X's English element and the
        // right child X's Hebrew one.
        assert_eq!(left.unpack().0, root.unpack().0);
        assert_eq!(right.unpack().1, root.unpack().1);
        assert_eq!(sp.num_nodes(), 3);
    }

    /// The takeover rule's soundness argument, without threads: it is made
    /// one insertion at a time, so *any* parent-before-child unfolding order
    /// (what concurrent workers of the §3 strawman produce) must order every
    /// pair of leaves like Figure 5 on the whole tree does.
    fn check_random_unfolding_order<L: OrderMaintenance>(seed: u64) {
        use crate::api::{BackendConfig, SpBackend};
        use crate::SpOrder;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sptree::walk::walk_visitor;

        let tree = random_sp_ast(200, 0.5, seed).build();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let (mut sp, root) = StreamingSpOrder::<L>::stream_new();
        // Revealed positions not yet unfolded or executed; picking any of
        // them next keeps parents before children and nothing else.
        let mut frontier = vec![(tree.root(), root)];
        let mut left_to_right = true;
        let mut last_thread = None;
        while !frontier.is_empty() {
            let pick = rng.gen_range(0..frontier.len());
            let (n, node) = frontier.swap_remove(pick);
            match tree.thread_of(n) {
                Some(t) => {
                    left_to_right &= last_thread < Some(t);
                    last_thread = Some(t);
                    sp.execute(node, t);
                }
                None => {
                    let (l, r) = sp.expand(node, tree.kind(n) == NodeKind::P);
                    frontier.push((tree.left(n), l));
                    frontier.push((tree.right(n), r));
                }
            }
        }
        assert!(!left_to_right, "seed {seed}: the order was meant to be shuffled");
        assert_eq!(sp.num_executed(), tree.num_threads());
        assert_eq!(sp.num_nodes(), tree.num_nodes());
        assert_eq!(sp.eng.len(), tree.num_threads() + 1, "base + one element per thread");
        assert_eq!(sp.heb.len(), tree.num_threads() + 1);

        let oracle = SpOracle::new(&tree);
        let mut driven: SpOrder<L> = SpBackend::build(&tree, BackendConfig::serial());
        walk_visitor(&tree, &mut driven);
        for a in tree.thread_ids() {
            for b in tree.thread_ids() {
                let got = sp.relation(a, b);
                assert_eq!(got, oracle.relation(a, b), "seed {seed}, {a:?} vs {b:?}");
                assert_eq!(got, driven.relation(a, b), "seed {seed}, {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn any_parent_before_child_unfolding_orders_leaves_like_figure_5() {
        for seed in 0..6u64 {
            check_random_unfolding_order::<TwoLevelList>(seed);
            check_random_unfolding_order::<TagList>(seed);
        }
    }

    /// Walk `tree` left to right through serial SP-bags, calling
    /// `on_thread` while each thread is current.
    fn walk_bags(tree: &ParseTree, mut on_thread: impl FnMut(&SerialSpBags, ThreadId)) -> SerialSpBags {
        let mut sp = SerialSpBags::default();
        let is_p = |n| tree.kind(n) == NodeKind::P;
        serial_walk(tree, |event| match event {
            WalkEvent::EnterInternal(n) if is_p(n) => sp.enter_p(),
            WalkEvent::BetweenChildren(n) if is_p(n) => sp.between_p(),
            WalkEvent::LeaveInternal(n) if is_p(n) => sp.leave_p(),
            WalkEvent::Thread(_, t) => {
                sp.execute(t);
                on_thread(&sp, t);
            }
            _ => {}
        });
        sp
    }

    /// `spawn; step; spawn; step; …; sync` in one block: a step between
    /// every two spawns keeps their runs apart, so queries from the last
    /// spawned child take the binary-search path.
    fn alternating_spawns_and_steps(spawns: usize) -> ParseTree {
        use sptree::cilk::{CilkProgram, Procedure, SyncBlock};
        let block = (0..spawns).fold(SyncBlock::new(), |b, _| {
            b.spawn(Procedure::single(SyncBlock::new().work(1))).work(1)
        });
        CilkProgram::new(Procedure::single(block)).build_tree()
    }

    /// Serial SP-bags are Figure 5 on a serial walk: at every thread of a
    /// walked tree they answer, about **every** executed thread, what the
    /// two-list definition and the oracle answer, with `lo` and `hi`
    /// ascending up the stack.  Returns the most separate runs (distinct
    /// `lo`s) ever open.
    fn check_serial_order(tree: &ParseTree, what: &str) -> usize {
        let oracle = SpOracle::new(tree);
        let mut two_lists: Vec<Vec<bool>> = Vec::new();
        let _: StreamingSpOrder = stream_tree(tree, |sp: &StreamingSpOrder, current| {
            two_lists.push((0..=current.0).map(|u| sp.precedes_current(ThreadId(u))).collect());
        });
        let mut most_runs = 0;
        let bags = walk_bags(tree, |sp, current| {
            let ascending = sp.runs.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
            assert!(ascending, "{what}: {:?}", sp.runs);
            most_runs = most_runs.max(1 + sp.runs.windows(2).filter(|w| w[0].0 < w[1].0).count());
            for earlier in (0..=current.0).map(ThreadId) {
                let got = sp.precedes_current(earlier);
                assert_eq!(got, two_lists[current.index()][earlier.index()], "{what}: u{} vs u{}", earlier.0, current.0);
                assert_eq!(got, oracle.precedes(earlier, current), "{what}: u{} vs u{}", earlier.0, current.0);
            }
        });
        assert_eq!(bags.num_executed(), tree.num_threads(), "{what}");
        assert!(bags.runs.is_empty(), "{what}: every P-node closed");
        most_runs
    }

    #[test]
    fn the_serial_order_is_figure_5_on_a_serial_walk() {
        use sptree::generate::flat_parallel_loop;
        let mut trees: Vec<(String, ParseTree)> = (0..8u64)
            .map(|seed| (format!("random seed {seed}"), random_sp_ast(200, 0.5, seed).build()))
            .collect();
        trees.push(("serial chain".into(), serial_chain(150, 1).build()));
        for (what, tree) in &trees {
            check_serial_order(tree, what);
        }
        assert_eq!(check_serial_order(&flat_parallel_loop(150, 1).build(), "loop"), 1, "one level, one run");
        let most_runs = check_serial_order(&alternating_spawns_and_steps(40), "alternating");
        assert_eq!(most_runs, 40, "a step between every two spawns keeps 40 runs apart");
    }

    /// Adjacent runs merge and leaving undoes the merge: a level of spawns
    /// reads as one run at the top, a step between two spawns keeps their
    /// runs apart.
    #[test]
    fn adjacent_runs_merge_and_leaving_undoes_the_merge() {
        let mut sp = SerialSpBags::default();
        // P(u0, P(u1, P(u2, u3))): the loop `spawn u0; spawn u1; spawn u2`.
        for u in 0..3 {
            sp.enter_p();
            sp.execute(ThreadId(u));
            sp.between_p();
        }
        sp.execute(ThreadId(3));
        assert_eq!(sp.runs, [(0, 1), (0, 2), (0, 3)], "three spawns, one run [0, 3) at the top");
        assert!(sp.parallel_with_current(ThreadId(1)));
        sp.leave_p();
        assert_eq!(sp.runs.last(), Some(&(0, 2)));
        sp.leave_p();
        assert_eq!(sp.runs, [(0, 1)]);
        // S(u4, P(u5, u6)) in the last right subtree: u4 keeps the runs apart.
        sp.execute(ThreadId(4));
        sp.enter_p();
        sp.execute(ThreadId(5));
        sp.between_p();
        sp.execute(ThreadId(6));
        assert_eq!(sp.runs, [(0, 1), (5, 6)]);
        assert!(sp.precedes_current(ThreadId(4)) && !sp.precedes_current(ThreadId(0)));
        sp.leave_p();
        sp.leave_p();
        assert!(sp.runs.is_empty());
        assert_eq!(sp.name(), "serial-sp-bags");
        assert!(sp.precedes_current(ThreadId(0)));
    }

    /// The precondition is held, not assumed — in debug **and** release: a
    /// leaf executed under any thread id but the next one is refused.
    #[test]
    #[should_panic(expected = "executed in English order")]
    fn the_serial_order_rejects_a_thread_out_of_execution_order() {
        let mut sp = SerialSpBags::default();
        sp.enter_p();
        sp.execute(ThreadId(0));
        sp.between_p();
        sp.execute(ThreadId(2));
    }

    /// The thread count is checked, not wrapped, in release builds too: ids
    /// stop short of `u32::MAX`, the shadow cells' "no thread" word.
    #[test]
    #[should_panic(expected = "exhausts the thread-id space")]
    fn the_serial_bags_refuse_the_thread_id_reserved_for_no_thread() {
        let mut sp = SerialSpBags { next: u32::MAX - 1, runs: Vec::new() };
        sp.execute(sp.next_thread());
        assert_eq!(sp.next_thread(), ThreadId(u32::MAX));
        sp.execute(ThreadId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "has not executed yet")]
    fn serial_bags_refuse_a_query_about_an_unexecuted_thread() {
        let mut sp = SerialSpBags::default();
        sp.execute(ThreadId(0));
        let _ = sp.precedes_current(ThreadId(1));
    }

    #[test]
    #[should_panic(expected = "has not executed yet")]
    fn querying_an_unexecuted_thread_panics() {
        let (mut sp, root) = StreamingSpOrder::<TwoLevelList>::stream_new();
        sp.execute(root, ThreadId(0));
        let _ = sp.precedes(ThreadId(0), ThreadId(7));
    }
}
