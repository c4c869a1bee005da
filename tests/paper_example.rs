//! The paper's running example (Figures 1, 2 and 4) and Lemma 1 / Corollary 2,
//! checked end to end across crates.

use sp_maintenance::prelude::*;
use sp_maintenance::sptree::dag::ComputationDag;
use sp_maintenance::sptree::walk::{english_index, hebrew_index};

/// A nine-thread parse tree with the relationships the paper discusses for its
/// Figure 1/2 example: u1 ≺ u4 (their LCA is an S-node) and u1 ∥ u6 (their LCA
/// is a P-node).
fn paper_style_tree() -> ParseTree {
    Ast::seq(vec![
        Ast::leaf(1), // u0
        Ast::par(vec![
            Ast::seq(vec![
                Ast::leaf(1),                               // u1
                Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]), // u2, u3
                Ast::leaf(1),                               // u4
            ]),
            Ast::seq(vec![
                Ast::leaf(1),                               // u5
                Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]), // u6, u7
            ]),
        ]),
        Ast::leaf(1), // u8
    ])
    .build()
}

#[test]
fn figure_1_and_2_structure() {
    let tree = paper_style_tree();
    tree.check_invariants();
    assert_eq!(tree.num_threads(), 9);
    // Full binary: n leaves -> n - 1 internal nodes.
    assert_eq!(tree.num_nodes(), 17);

    // The corresponding computation dag has one fork per P-node and one thread
    // edge per leaf (Figure 1 <-> Figure 2 correspondence).
    let dag = ComputationDag::from_tree(&tree);
    assert_eq!(dag.num_forks(), tree.num_pnodes());
    assert_eq!(dag.num_thread_edges(), 9);
}

#[test]
fn stated_relations_hold_in_the_oracle_and_in_sp_order() {
    let tree = paper_style_tree();
    let oracle = SpOracle::new(&tree);
    let sp: SpOrder = run_serial(&tree);

    // u1 ≺ u4 because S1 = lca(u1, u4) is an S-node with u1 on the left.
    assert_eq!(oracle.relation(ThreadId(1), ThreadId(4)), Relation::Precedes);
    assert!(sp.precedes(ThreadId(1), ThreadId(4)));

    // u1 ∥ u6 because P1 = lca(u1, u6) is a P-node.
    assert_eq!(oracle.relation(ThreadId(1), ThreadId(6)), Relation::Parallel);
    assert!(sp.parallel(ThreadId(1), ThreadId(6)));

    // u0 precedes everything; u8 follows everything.
    for t in 1..9u32 {
        assert!(sp.precedes(ThreadId(0), ThreadId(t)));
    }
    for t in 1..8u32 {
        assert!(sp.precedes(ThreadId(t), ThreadId(8)));
    }

    // The full relation matrix of every algorithm matches the oracle.
    let bags_check = |a: ThreadId, b: ThreadId| oracle.relation(a, b);
    for i in 0..9u32 {
        for j in 0..9u32 {
            assert_eq!(sp.relation(ThreadId(i), ThreadId(j)), bags_check(ThreadId(i), ThreadId(j)));
        }
    }
}

#[test]
fn figure_4_english_hebrew_orderings_characterize_sp_relations() {
    // Lemma 1: ui ≺ uj iff E[ui] < E[uj] and H[ui] < H[uj];
    // Corollary 2: given E[ui] < E[uj], ui ∥ uj iff H[ui] > H[uj].
    let tree = paper_style_tree();
    let oracle = SpOracle::new(&tree);
    let e = english_index(&tree);
    let h = hebrew_index(&tree);

    // Spot-check the two relations called out in the text.
    assert!(e[1] < e[4] && h[1] < h[4]); // u1 ≺ u4
    assert!(e[1] < e[6] && h[1] > h[6]); // u1 ∥ u6

    for i in 0..9usize {
        for j in 0..9usize {
            if i == j {
                continue;
            }
            let both = e[i] < e[j] && h[i] < h[j];
            assert_eq!(
                oracle.precedes(ThreadId(i as u32), ThreadId(j as u32)),
                both,
                "Lemma 1 violated for (u{i}, u{j})"
            );
            if e[i] < e[j] {
                assert_eq!(
                    oracle.parallel(ThreadId(i as u32), ThreadId(j as u32)),
                    h[i] > h[j],
                    "Corollary 2 violated for (u{i}, u{j})"
                );
            }
        }
    }
}

#[test]
fn all_serial_algorithms_agree_on_the_example() {
    let tree = paper_style_tree();
    let oracle = SpOracle::new(&tree);
    let order: SpOrder = run_serial(&tree);
    let eh: EnglishHebrewLabels = run_serial(&tree);
    let os: OffsetSpanLabels = run_serial(&tree);
    for i in 0..9u32 {
        for j in 0..9u32 {
            let expect = oracle.relation(ThreadId(i), ThreadId(j));
            assert_eq!(order.relation(ThreadId(i), ThreadId(j)), expect);
            assert_eq!(eh.relation(ThreadId(i), ThreadId(j)), expect);
            assert_eq!(os.relation(ThreadId(i), ThreadId(j)), expect);
        }
    }
}

/// Thread counts the Theorem-5 counts are taken at.
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// Largest over smallest: 1.0 is perfectly flat.
fn spread(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::MIN, f64::max);
    let min = xs.iter().copied().fold(f64::MAX, f64::min);
    max / min
}

/// Theorem 5 as counts (no clocks): SP-order's relabelling work and space
/// per parse-tree node stay flat from 10³ to 10⁵ threads — on random SP
/// trees and on the spawn-loop chain, whose insertions all land in one gap
/// of the Hebrew order — while the same algorithm over the single-level
/// `om::TagList` (O(lg² n) amortised) breaks the bound on the chain and the
/// static English-Hebrew labels of Figure 3 grow with the nesting depth.
/// (Random trees cannot tell the two lists apart at these sizes: 64-bit
/// tags almost never collide under scattered insertions, so `TagList`
/// relabels 0.03 times per node there.)
#[test]
fn theorem_5_sp_order_cost_per_node_is_flat() {
    use sp_maintenance::sptree::generate::{flat_parallel_loop, left_deep_parallel, random_sp_ast};

    /// (relabels per node, bytes per node) of one SP-order construction.
    fn per_node<L: OrderMaintenance>(tree: &ParseTree) -> (f64, f64) {
        let sp: SpOrder<L> = run_serial(tree);
        let nodes = tree.num_nodes() as f64;
        (sp.relabel_count() as f64 / nodes, sp.space_bytes() as f64 / nodes)
    }
    const MAX_RELABELS_PER_NODE: f64 = 6.0;
    fn assert_flat(shape: &str, ast: impl Fn(usize) -> Ast) {
        let (relabels, bytes): (Vec<f64>, Vec<f64>) =
            SIZES.iter().map(|&n| per_node::<TwoLevelList>(&ast(n).build())).unzip();
        println!("{shape}: relabels/node {relabels:.2?}, bytes/node {bytes:.1?}");
        assert!(relabels.iter().all(|&r| r <= MAX_RELABELS_PER_NODE), "{shape}: {relabels:?}");
        assert!(spread(&relabels) <= 1.5, "{shape}: relabels/node grow with n: {relabels:?}");
        assert!(spread(&bytes) <= 2.0, "{shape}: bytes/node grow with n: {bytes:?}");
    }
    assert_flat("random", |n| random_sp_ast(n, 0.5, 42));
    assert_flat("spawn-loop", |n| flat_parallel_loop(n, 1));
    // The same constant rejects the single-level list at the largest size.
    let (tag_list, _) = per_node::<TagList>(&flat_parallel_loop(SIZES[2], 1).build());
    println!("spawn-loop over TagList: relabels/node {tag_list:.2}");
    assert!(tag_list > MAX_RELABELS_PER_NODE, "TagList: {tag_list} relabels/node");

    let label_len: Vec<f64> = [16usize, 64, 256]
        .iter()
        .map(|&depth| {
            let tree = left_deep_parallel(depth, 1).build();
            let eh: EnglishHebrewLabels = run_serial(&tree);
            eh.total_label_len() as f64 / tree.num_threads() as f64
        })
        .collect();
    assert!(label_len.windows(2).all(|w| w[1] >= 3.0 * w[0]), "label entries/thread: {label_len:?}");
}

/// The same count for the streaming SP-orders, which keep list elements for
/// the leaves only, so their space per *thread* is small and flat from 10³
/// to 10⁵ threads: the two-list `StreamingSpOrder` (two 16-byte items and one
/// 8-byte handle pair per thread, before vector slack) and, at half of it,
/// the `SerialSpOrder` a live serial run maintains (one item and one 4-byte
/// handle: 24 B measured, the English order being the thread ids).
#[test]
fn theorem_5_streaming_sp_order_space_per_thread_is_small_and_flat() {
    use sp_maintenance::spmaint::stream::{
        stream_tree, SerialSpOrder, StreamingSpBackend, StreamingSpOrder,
    };
    use sp_maintenance::sptree::generate::{flat_parallel_loop, random_sp_ast};

    fn assert_small_and_flat<B: StreamingSpBackend>(
        shape: &str,
        max_bytes_per_thread: f64,
        ast: impl Fn(usize) -> Ast,
    ) {
        let bytes: Vec<f64> = SIZES
            .iter()
            .map(|&n| {
                let tree = ast(n).build();
                let sp: B = stream_tree(&tree, |_, _| {});
                sp.stream_space_bytes() as f64 / tree.num_threads() as f64
            })
            .collect();
        println!("{shape}: bytes/thread {bytes:.1?}");
        assert!(bytes.iter().all(|&b| b <= max_bytes_per_thread), "{shape}: {bytes:?}");
        assert!(spread(&bytes) <= 2.0, "{shape}: bytes/thread grow with n: {bytes:?}");
    }
    assert_small_and_flat::<StreamingSpOrder>("streaming, random", 96.0, |n| random_sp_ast(n, 0.5, 42));
    assert_small_and_flat::<StreamingSpOrder>("streaming, spawn-loop", 96.0, |n| flat_parallel_loop(n, 1));
    assert_small_and_flat::<SerialSpOrder>("serial, random", 48.0, |n| random_sp_ast(n, 0.5, 42));
    assert_small_and_flat::<SerialSpOrder>("serial, spawn-loop", 48.0, |n| flat_parallel_loop(n, 1));
}
