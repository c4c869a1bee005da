//! Streaming SP maintenance: the event layer for computations that *unfold*
//! instead of arriving as a pre-built parse tree.
//!
//! Every serial algorithm in this crate consumes a materialized
//! [`sptree::tree::ParseTree`] through [`sptree::walk::TreeVisitor`].  A live
//! execution (the `spprog` crate, over `forkrt`'s live mode) has no tree to
//! hand out — only a stream of *reveal* events: "this position turned out to
//! be an S/P node", "this position is a leaf and its thread executes now".
//! [`StreamingSpBackend`] is that event interface — the live counterpart of
//! [`crate::SpBackend`], with the same `name` / `space_bytes` accessors — and
//! [`StreamingSpOrder`] implements the paper's SP-order algorithm (§2,
//! Figure 5) against it, keeping list elements for the *leaves* only: every
//! pair of threads is ordered exactly as by the tree-driven
//! [`crate::SpOrder`], at one element per thread per list instead of one per
//! node.  [`SerialSpOrder`] is the same algorithm for the one unfolding order
//! in which half of it is known in advance — the serial left-to-right walk,
//! whose execution index *is* the English order — and keeps the Hebrew list
//! alone.
//!
//! The adapter [`stream_tree`] replays a materialized tree through the
//! streaming interface — the bridge used by the equivalence tests: streaming
//! a tree must answer every query exactly like the tree-driven algorithm.
//!
//! See the repository-root `ARCHITECTURE.md#live-execution-spprog` for how
//! this layer slots into the live-execution subsystem.

use om::{OmNode, OrderMaintenance, TwoLevelList};
use sptree::tree::{NodeKind, ParseTree, ThreadId};
use sptree::walk::{serial_walk, WalkEvent};

use crate::api::{CurrentSpQuery, SpQuery};

/// Handle of a not-yet-unfolded position in an incrementally unfolding SP
/// parse tree: the position's (English, Hebrew) list elements packed into one
/// word, which is exactly the 64-bit tag `forkrt::run_live_serial` threads
/// down the walk — the serial maintainer keeps no per-node table behind it
/// (a caller without a tag to carry it in keeps the word itself, as the §3
/// strawman's node table does).  A maintainer that
/// keeps the Hebrew list alone ([`SerialSpOrder`]) leaves the English half
/// zero.
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

    /// The handle of a position known by its Hebrew element alone.
    #[inline]
    fn hebrew(heb: OmNode) -> Self {
        StreamNode(heb.index() as u64)
    }

    #[inline]
    fn heb(self) -> OmNode {
        self.unpack().1
    }

    /// Encode as a scheduler tag (the 64-bit value `forkrt::live` threads
    /// down the walk).
    #[inline]
    pub fn to_tag(self) -> u64 {
        self.0
    }

    /// Decode from a scheduler tag.
    #[inline]
    pub fn from_tag(tag: u64) -> Self {
        StreamNode(tag)
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
/// **serial** walk needs only half of it — see [`SerialSpOrder`], which is
/// tested against this structure thread by thread.
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

/// SP-order on a **serial** left-to-right walk: Figure 5 with the English
/// list replaced by what it equals there, so the Hebrew list alone.
///
/// Paper §2 defines the English order as the order in which the serial
/// execution visits the threads.  A serial walk numbers its threads in that
/// very order, so `eng(u) < eng(v)` *is* `u.index() < v.index()`: the
/// [`ThreadId`] is the English label, nothing has to be built to hold it, and
/// every executed thread precedes the current one in it.  Figure 5's
/// `eng(u) < eng(current) ∧ heb(u) < heb(current)` is then its Hebrew half —
/// the same fact SP-bags and the local tier of Figure 9 rest on.
///
/// So per fork this does **one** `insert_after` (into the Hebrew list, with
/// [`StreamingSpOrder`]'s takeover rule: X's first Hebrew child keeps X's
/// element), per thread it keeps one 16-byte list item and one 4-byte handle
/// in a table indexed by [`ThreadId`] (≈ 24 B with [`TwoLevelList`], half of
/// [`StreamingSpOrder`]), and per query it compares once.
///
/// **Precondition, asserted in every build:** threads execute in English
/// order and are numbered by it — [`StreamingSpBackend::execute`] panics
/// unless `thread` is the next index.  `forkrt::run_live_serial` and
/// [`stream_tree`] walk that way; an unfolding in any other order (the §3
/// strawman) needs both lists, i.e. [`StreamingSpOrder`].
///
/// ```
/// use spmaint::stream::{SerialSpOrder, StreamingSpBackend};
/// use spmaint::CurrentSpQuery;
/// use sptree::tree::ThreadId;
///
/// // Walk S(u0, P(u1, u2)) left to right.
/// let (mut sp, root) = SerialSpOrder::<om::TwoLevelList>::stream_new();
/// let (u0, rest) = sp.expand(root, false);
/// sp.execute(u0, ThreadId(0));
/// let (u1, u2) = sp.expand(rest, true);
/// sp.execute(u1, ThreadId(1));
/// assert!(sp.precedes_current(ThreadId(0))); // serial prefix precedes
/// sp.execute(u2, ThreadId(2));
/// assert!(sp.parallel_with_current(ThreadId(1))); // sibling branch is parallel
/// assert_eq!(sp.num_executed(), 3);
/// ```
pub struct SerialSpOrder<L: OrderMaintenance = TwoLevelList> {
    heb: L,
    /// Hebrew element of every executed thread's leaf.  The index is the
    /// [`ThreadId`] — the thread's place in the English order.
    threads: Vec<OmNode>,
}

impl<L: OrderMaintenance> SerialSpOrder<L> {
    /// Number of threads executed so far.
    pub fn num_executed(&self) -> usize {
        self.threads.len()
    }
}

impl<L: OrderMaintenance> StreamingSpBackend for SerialSpOrder<L> {
    fn stream_new() -> (Self, StreamNode) {
        let (mut heb, base) = L::new();
        let root = StreamNode::hebrew(heb.insert_after(base));
        (
            SerialSpOrder {
                heb,
                threads: Vec::new(),
            },
            root,
        )
    }

    fn expand(&mut self, node: StreamNode, parallel: bool) -> (StreamNode, StreamNode) {
        // Hebrew order ⟨left, right⟩ under an S-node, ⟨right, left⟩ under a
        // P-node (lines 5–7 of Figure 5): the first of the two takes over X's
        // element, the other goes right behind it.
        let first = node;
        let second = StreamNode::hebrew(self.heb.insert_after(node.heb()));
        if parallel {
            (second, first)
        } else {
            (first, second)
        }
    }

    fn execute(&mut self, node: StreamNode, thread: ThreadId) {
        assert!(
            thread.index() == self.threads.len(),
            "the serial SP-order needs threads executed in English order and numbered by it, \
             but u{} executes after {} threads",
            thread.0,
            self.threads.len()
        );
        self.threads.push(node.heb());
    }

    fn name(&self) -> &'static str {
        "serial-sp-order"
    }

    fn space_bytes(&self) -> usize {
        self.heb.space_bytes() + self.threads.capacity() * std::mem::size_of::<OmNode>()
    }
}

impl<L: OrderMaintenance> CurrentSpQuery for SerialSpOrder<L> {
    #[inline]
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        let (Some(&earlier_heb), Some(&current_heb)) =
            (self.threads.get(earlier.index()), self.threads.last())
        else {
            panic!("thread u{} has not executed yet", earlier.0);
        };
        self.heb.precedes(earlier_heb, current_heb)
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
            assert_eq!(StreamNode::from_tag(node.to_tag()), node);
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

    /// An order-maintenance list that counts its insertions and comparisons.
    struct Counting<L> {
        inner: L,
        inserted: usize,
        compared: std::cell::Cell<usize>,
    }

    impl<L: OrderMaintenance> OrderMaintenance for Counting<L> {
        fn new() -> (Self, OmNode) {
            let (inner, base) = L::new();
            (Counting { inner, inserted: 0, compared: Default::default() }, base)
        }
        fn insert_after(&mut self, x: OmNode) -> OmNode {
            self.inserted += 1;
            self.inner.insert_after(x)
        }
        fn precedes(&self, a: OmNode, b: OmNode) -> bool {
            self.compared.set(self.compared.get() + 1);
            self.inner.precedes(a, b)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn space_bytes(&self) -> usize {
            self.inner.space_bytes()
        }
    }

    /// The serial SP-order is Figure 5 on a serial walk: at every thread of a
    /// streamed tree it answers, about **every** executed thread, what the
    /// two-list definition and the oracle answer — for one insertion per
    /// fork and one comparison per query.
    fn check_serial_order<L: OrderMaintenance>(tree: &ParseTree, what: &str) {
        let oracle = SpOracle::new(tree);
        // `stream_tree` drives one backend at a time: the two-list answers
        // of every (current, earlier) pair first, then the walk under test.
        let mut two_lists: Vec<Vec<bool>> = Vec::new();
        let reference: StreamingSpOrder<L> = stream_tree(tree, |sp: &StreamingSpOrder<L>, current| {
            two_lists.push((0..=current.0).map(|u| sp.precedes_current(ThreadId(u))).collect());
        });
        let serial: SerialSpOrder<Counting<L>> = stream_tree(tree, |sp: &SerialSpOrder<Counting<L>>, current| {
            for earlier in (0..=current.0).map(ThreadId) {
                let compared = sp.heb.compared.get();
                let got = sp.precedes_current(earlier);
                assert_eq!(sp.heb.compared.get() - compared, 1, "{what}: one comparison per query");
                assert_eq!(got, two_lists[current.index()][earlier.index()], "{what}: u{} vs u{}", earlier.0, current.0);
                assert_eq!(got, oracle.precedes(earlier, current), "{what}: u{} vs u{}", earlier.0, current.0);
            }
        });
        assert_eq!(serial.num_executed(), tree.num_threads(), "{what}");
        // The root's element, then one insertion per unfolded internal node:
        // the same Hebrew list, element for element, as the two-list walk.
        let expands = tree.num_nodes() - tree.num_threads();
        assert_eq!(serial.heb.inserted, 1 + expands, "{what}: one insertion per expand");
        assert_eq!(serial.heb.len(), reference.heb.len(), "{what}");
    }

    #[test]
    fn the_serial_order_is_figure_5_on_a_serial_walk() {
        use sptree::generate::flat_parallel_loop;
        let mut trees: Vec<(String, ParseTree)> = (0..8u64)
            .map(|seed| (format!("random seed {seed}"), random_sp_ast(200, 0.5, seed).build()))
            .collect();
        trees.push(("flat parallel loop".into(), flat_parallel_loop(150, 1).build()));
        trees.push(("serial chain".into(), serial_chain(150, 1).build()));
        for (what, tree) in &trees {
            check_serial_order::<TwoLevelList>(tree, what);
            check_serial_order::<TagList>(tree, what);
        }
    }

    #[test]
    fn a_serial_expand_inserts_once_and_the_first_hebrew_child_takes_over() {
        let (mut sp, root) = SerialSpOrder::<Counting<TwoLevelList>>::stream_new();
        assert_eq!(sp.heb.inserted, 1);
        // Hebrew order ⟨right, left⟩ under a P-node, ⟨left, right⟩ under S.
        let (left, right) = sp.expand(root, true);
        assert_eq!((sp.heb.inserted, right), (2, root));
        assert!(sp.heb.precedes(right.heb(), left.heb()));
        let (first, second) = sp.expand(left, false);
        assert_eq!((sp.heb.inserted, first), (3, left));
        assert!(sp.heb.precedes(first.heb(), second.heb()));
        assert_eq!(sp.name(), "serial-sp-order");
        assert!(sp.space_bytes() > 0);
    }

    /// The precondition is held, not assumed — in debug **and** release: a
    /// leaf executed under any thread id but the next one is refused.
    #[test]
    #[should_panic(expected = "executed in English order")]
    fn the_serial_order_rejects_a_thread_out_of_execution_order() {
        let (mut sp, root) = SerialSpOrder::<TwoLevelList>::stream_new();
        let (left, right) = sp.expand(root, true);
        sp.execute(left, ThreadId(0));
        sp.execute(right, ThreadId(2));
    }

    #[test]
    #[should_panic(expected = "has not executed yet")]
    fn querying_an_unexecuted_thread_panics() {
        let (mut sp, root) = StreamingSpOrder::<TwoLevelList>::stream_new();
        sp.execute(root, ThreadId(0));
        let _ = sp.precedes(ThreadId(0), ThreadId(7));
    }
}
