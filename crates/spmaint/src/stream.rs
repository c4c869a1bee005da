//! Streaming SP maintenance: the event layer for computations that *unfold*
//! instead of arriving as a pre-built parse tree.
//!
//! Every serial algorithm in this crate consumes a materialized
//! [`sptree::tree::ParseTree`] through [`sptree::walk::TreeVisitor`].  A live
//! execution (the `spprog` crate, over `forkrt`'s live mode) has no tree to
//! hand out — only a stream of *reveal* events: "this position turned out to
//! be an S/P node", "this position is a leaf and its thread executes now".
//! [`StreamingSpBackend`] is that event interface, and
//! [`StreamingSpOrder`] implements the paper's SP-order algorithm (§2,
//! Figure 5) against it: the two order-maintenance lists are maintained
//! exactly as in the tree-driven [`crate::SpOrder`], but node handles are
//! allocated on the fly as the structure is revealed, one [`StreamNode`] per
//! unfolded position.
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

/// Handle of a node in an incrementally unfolding SP parse tree.
///
/// The root is handed out by [`StreamingSpBackend::stream_root`]; children
/// are allocated by [`StreamingSpBackend::expand`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamNode(pub u32);

impl StreamNode {
    /// Raw index of this handle.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Encode as a scheduler tag (the 64-bit value `forkrt::live` threads
    /// down the walk).
    #[inline]
    pub fn to_tag(self) -> u64 {
        self.0 as u64
    }

    /// Decode from a scheduler tag.
    #[inline]
    pub fn from_tag(tag: u64) -> Self {
        StreamNode(tag as u32)
    }
}

/// An SP maintainer driven by reveal events instead of a tree walk.
///
/// The event contract mirrors a left-to-right serial execution: `expand` is
/// called when a position is revealed to be internal (before anything inside
/// it executes; the parent must have been expanded first), and `execute`
/// when a position is revealed to be a leaf whose thread starts executing —
/// that thread is *current* until the next `execute`.  Between events,
/// [`CurrentSpQuery`] relates any already-executed thread to the current one.
pub trait StreamingSpBackend: CurrentSpQuery {
    /// Create an empty structure and the handle of the root position.
    fn stream_new() -> (Self, StreamNode)
    where
        Self: Sized;

    /// The handle of the root position.
    fn stream_root(&self) -> StreamNode;

    /// `node` is revealed to be an internal node (`parallel` selects P over
    /// S); returns the handles of its (left, right) children.
    fn expand(&mut self, node: StreamNode, parallel: bool) -> (StreamNode, StreamNode);

    /// `node` is revealed to be a leaf executing as `thread`; `thread`
    /// becomes the currently executing thread.  Threads are numbered by the
    /// caller (serial executions number them 0, 1, 2, … in execution order).
    fn execute(&mut self, node: StreamNode, thread: ThreadId);

    /// Human-readable name (for reports and benches).
    fn stream_name(&self) -> &'static str;

    /// Approximate heap bytes used.
    fn stream_space_bytes(&self) -> usize;
}

/// SP-order over an incrementally unfolding tree.
///
/// Same algorithm as the tree-driven [`crate::SpOrder`] — two
/// order-maintenance lists, children inserted after their parent in English
/// order and (for P-nodes) reversed in Hebrew order — but fed by
/// [`StreamingSpBackend`] events, so it never needs (or builds) a
/// [`ParseTree`].  Generic over the order-maintenance structure like its
/// tree-driven sibling.
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
/// ```
pub struct StreamingSpOrder<L: OrderMaintenance = TwoLevelList> {
    eng: L,
    heb: L,
    /// English/Hebrew handle of every stream node, indexed by [`StreamNode`].
    nodes: Vec<(OmNode, OmNode)>,
    /// Handles of every executed thread's leaf, indexed by [`ThreadId`].
    threads: Vec<Option<(OmNode, OmNode)>>,
    current: Option<ThreadId>,
}

impl<L: OrderMaintenance> StreamingSpOrder<L> {
    /// Number of stream nodes revealed so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of threads executed so far.
    pub fn num_executed(&self) -> usize {
        self.threads.iter().filter(|t| t.is_some()).count()
    }

    fn handles_of(&self, thread: ThreadId) -> (OmNode, OmNode) {
        self.threads
            .get(thread.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("thread u{} has not executed yet", thread.0))
    }
}

impl<L: OrderMaintenance> StreamingSpBackend for StreamingSpOrder<L> {
    fn stream_new() -> (Self, StreamNode) {
        let (mut eng, eng_base) = L::new();
        let (mut heb, heb_base) = L::new();
        let root = (eng.insert_after(eng_base), heb.insert_after(heb_base));
        (
            StreamingSpOrder {
                eng,
                heb,
                nodes: vec![root],
                threads: Vec::new(),
                current: None,
            },
            StreamNode(0),
        )
    }

    fn stream_root(&self) -> StreamNode {
        StreamNode(0)
    }

    fn expand(&mut self, node: StreamNode, parallel: bool) -> (StreamNode, StreamNode) {
        let (node_eng, node_heb) = self.nodes[node.index()];
        // English order: insert ⟨left, right⟩ after X (line 4 of Figure 5).
        // Two single inserts, not `insert_after_many(x, 2)`: same order and
        // handles, without a heap-allocated handle vector per internal node.
        let left_eng = self.eng.insert_after(node_eng);
        let right_eng = self.eng.insert_after(left_eng);
        // Hebrew order: ⟨left, right⟩ after an S-node, ⟨right, left⟩ after a
        // P-node (lines 5–7).
        let first_heb = self.heb.insert_after(node_heb);
        let second_heb = self.heb.insert_after(first_heb);
        let (left_heb, right_heb) = if parallel {
            (second_heb, first_heb)
        } else {
            (first_heb, second_heb)
        };
        let left = StreamNode(self.nodes.len() as u32);
        self.nodes.push((left_eng, left_heb));
        let right = StreamNode(self.nodes.len() as u32);
        self.nodes.push((right_eng, right_heb));
        (left, right)
    }

    fn execute(&mut self, node: StreamNode, thread: ThreadId) {
        let handles = self.nodes[node.index()];
        if self.threads.len() <= thread.index() {
            self.threads.resize(thread.index() + 1, None);
        }
        debug_assert!(
            self.threads[thread.index()].is_none(),
            "thread u{} executed twice",
            thread.0
        );
        self.threads[thread.index()] = Some(handles);
        self.current = Some(thread);
    }

    fn stream_name(&self) -> &'static str {
        "streaming-sp-order"
    }

    fn stream_space_bytes(&self) -> usize {
        self.eng.space_bytes()
            + self.heb.space_bytes()
            + self.nodes.capacity() * std::mem::size_of::<(OmNode, OmNode)>()
            + self.threads.capacity() * std::mem::size_of::<Option<(OmNode, OmNode)>>()
    }
}

/// Arbitrary-pair queries over *executed* threads (valid at any point during
/// the unfolding — a leaf's position in both orders is fixed as soon as it
/// is revealed, exactly like in the tree-driven SP-order).
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
    // Map tree nodes to stream handles as the walk reveals them.
    let mut handle = vec![StreamNode(u32::MAX); tree.num_nodes()];
    handle[tree.root().index()] = root;
    serial_walk(tree, |event| match event {
        WalkEvent::EnterInternal(n) => {
            let parallel = tree.kind(n) == NodeKind::P;
            let (l, r) = backend.expand(handle[n.index()], parallel);
            handle[tree.left(n).index()] = l;
            handle[tree.right(n).index()] = r;
        }
        WalkEvent::Thread(n, t) => {
            backend.execute(handle[n.index()], t);
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
        use crate::api::run_serial;
        use crate::SpOrder;
        for seed in [3u64, 9, 27] {
            let tree = random_sp_ast(60, 0.45, seed).build();
            let streamed: StreamingSpOrder = stream_tree(&tree, |_b, _t| {});
            let driven: SpOrder = run_serial(&tree);
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
        assert_eq!(sp.stream_name(), "streaming-sp-order");
        assert!(sp.stream_space_bytes() > 0);
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
        let n = StreamNode(1234);
        assert_eq!(StreamNode::from_tag(n.to_tag()), n);
        assert_eq!(n.index(), 1234);
    }

    #[test]
    #[should_panic(expected = "has not executed yet")]
    fn querying_an_unexecuted_thread_panics() {
        let (mut sp, root) = StreamingSpOrder::<TwoLevelList>::stream_new();
        sp.execute(root, ThreadId(0));
        let _ = sp.precedes(ThreadId(0), ThreadId(7));
    }
}
