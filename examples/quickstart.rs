//! Quickstart: build a fork-join program, maintain SP relationships on the
//! fly with SP-order, and query them.
//!
//! Run with: `cargo run --release --example quickstart`

use sp_maintenance::prelude::*;
use sp_maintenance::sptree::walk::walk_visitor;

fn main() {
    // The paper's running example (Figures 1 and 2): nine threads u0..u8 with
    // nested series and parallel composition.  We encode a parse tree with the
    // same relationships discussed in the text: u1 ≺ u4 and u1 ∥ u6.
    let program = Ast::seq(vec![
        Ast::leaf(1), // u0
        Ast::par(vec![
            // left branch of the outer fork
            Ast::seq(vec![
                Ast::leaf(1), // u1
                Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]), // u2 ∥ u3
                Ast::leaf(1), // u4
            ]),
            // right branch of the outer fork
            Ast::seq(vec![
                Ast::leaf(1), // u5
                Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]), // u6 ∥ u7
            ]),
        ]),
        Ast::leaf(1), // u8
    ]);
    let tree = program.build();
    println!(
        "parse tree: {} threads, {} internal nodes ({} P-nodes)",
        tree.num_threads(),
        tree.num_nodes() - tree.num_threads(),
        tree.num_pnodes()
    );
    let ws = WorkSpan::of(&tree);
    println!(
        "work T1 = {}, span T∞ = {}, parallelism = {:.2}",
        ws.work,
        ws.span,
        ws.parallelism()
    );

    // Maintain the English/Hebrew orders on the fly (SP-order, §2 of the paper).
    let mut sp: SpOrder = SpBackend::build(&tree, BackendConfig::serial());
    walk_visitor(&tree, &mut sp);

    let pairs = [(1u32, 4u32), (1, 6), (0, 8), (2, 3), (5, 1)];
    for (a, b) in pairs {
        let (a, b) = (ThreadId(a), ThreadId(b));
        println!("relation(u{}, u{}) = {:?}", a.0, b.0, sp.relation(a, b));
    }

    // The same queries answered by the structural LCA oracle must agree.
    let oracle = SpOracle::new(&tree);
    for (a, b) in pairs {
        let (a, b) = (ThreadId(a), ThreadId(b));
        assert_eq!(sp.relation(a, b), oracle.relation(a, b));
    }
    println!("all SP-order answers agree with the LCA oracle ✓");
}
