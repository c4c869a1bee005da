//! Graph workloads: seeded digraph generators and a fair parallel BFS on the
//! `spprog` fork-join API.
//!
//! The paper's SP-hybrid detector earns its keep under irregular, read-heavy
//! parallelism — web-graph traversals, not balanced recursions.  This module
//! supplies that workload class: seeded generators for uniform and power-law
//! (skewed-outdegree) digraphs, and a level-synchronous BFS that splits each
//! frontier into ~equal chunks of a configurable granularity `G` and spawns
//! one task per chunk, Cilk-style.  Every visited-bit probe goes through the
//! instrumented [`StepCtx::read`](spprog::StepCtx::read)/`write`, so the
//! sharded shadow memory's hot-read path sees the same cell from many
//! parallel tasks at once — far harder than any of the [`live`](crate::live)
//! kernels hit it.
//!
//! # Determinism and the BFS plan
//!
//! The live runtime (and [`spprog::record_program`]) requires programs whose
//! spawn structure and access sequences are schedule-independent.  Frontiers
//! are data-dependent, so the generator precomputes the whole traversal
//! host-side — the [`BfsPlan`]: levels, fair chunks, each chunk's scan list
//! and designated discoveries — and bakes that structure into the program.
//! The program then *re-performs* the traversal through instrumented shared
//! memory and asserts the outcome matches the plan, so a scheduling or
//! detection bug that corrupts values panics the run (the
//! [`live_matmul`](crate::live::live_matmul) pattern).
//!
//! Three variants ship ([`BfsVariant`]):
//!
//! * **`RaceFree`** — chunk tasks only *read* the shared visited bits and
//!   write discoveries into private candidate cells; a serial merge step
//!   after each level's sync publishes the new frontier.  Expected report:
//!   empty.
//! * **`RacyVisited`** — chunk tasks additionally mark `visited[w] = 1`
//!   directly, unconditionally, for every scanned target: the classic
//!   "benign" lost-update pattern.  Two chunks of the same level touching
//!   the same target race (write–write); the exact racy-location set is
//!   computed from the plan.
//! * **`RacyAggregate`** — every chunk task bumps one shared per-run counter
//!   (read + write), so the counter cell races whenever any level has two or
//!   more chunks.
//!
//! Planted races are write–write between same-level chunk tasks, so any
//! sound detector must flag every planted location on every schedule — the
//! conformance sweeps assert report *equality*, not just soundness.
//!
//! See `ARCHITECTURE.md#graph-workloads` for the paper-to-crate map.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use spprog::build_proc;
use sptree::cilk::{Procedure, SyncBlock};

use crate::live::LiveWorkload;

/// Compressed-sparse-row directed graph.
///
/// Node ids are `0..n`; out-edges of `v` are `targets[offsets[v]..offsets[v+1]]`
/// in generation order.  Duplicate edges are allowed (they model multigraph
/// traffic and extra scan pressure); self-loops are not generated.
pub struct Digraph {
    n: u32,
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Digraph {
    /// Build from an adjacency list.
    fn from_adj(adj: Vec<Vec<u32>>) -> Digraph {
        let n = u32::try_from(adj.len()).expect("node count exceeds u32 addressing");
        let total: usize = adj.iter().map(Vec::len).sum();
        u32::try_from(total).expect("edge count exceeds u32 addressing");
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut targets = Vec::with_capacity(total);
        offsets.push(0);
        for out in &adj {
            targets.extend_from_slice(out);
            offsets.push(u32::try_from(targets.len()).expect("edge count exceeds u32 addressing"));
        }
        Digraph { n, offsets, targets }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `v`, in generation order.
    pub fn out_neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }
}

/// Uniform digraph: every node gets one *spine* edge `v → v+1` (so the whole
/// graph is reachable from node 0 and BFS depth is bounded) plus
/// `extra_degree` uniformly random out-edges.  Deterministic per seed.
pub fn uniform_digraph(n: u32, extra_degree: u32, seed: u64) -> Digraph {
    assert!(n >= 1, "graph needs at least one node");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD16E_4A6F_9E37_u64);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    for v in 0..n {
        if v + 1 < n {
            adj[v as usize].push(v + 1);
        }
        for _ in 0..extra_degree {
            let w = pick_non_self(&mut rng, n, v, false);
            adj[v as usize].push(w);
        }
    }
    Digraph::from_adj(adj)
}

/// Power-law digraph: the spine plus a budget of `n · avg_extra_degree`
/// edges whose *sources* are Zipf-skewed (a few hubs own most of the
/// out-edges — the skewed-outdegree stress for fair chunking) and whose
/// targets are hub-biased half the time (a handful of visited cells are read
/// white-hot).  Deterministic per seed.
pub fn power_law_digraph(n: u32, avg_extra_degree: u32, seed: u64) -> Digraph {
    assert!(n >= 1, "graph needs at least one node");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1_AB1E_F00D_u64);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    for v in 0..n {
        if v + 1 < n {
            adj[v as usize].push(v + 1);
        }
    }
    let budget = u64::from(n) * u64::from(avg_extra_degree);
    for _ in 0..budget {
        let src = skewed_index(&mut rng, n);
        let hub_biased = rng.gen_bool(0.5);
        let dst = pick_non_self(&mut rng, n, src, hub_biased);
        adj[src as usize].push(dst);
    }
    Digraph::from_adj(adj)
}

/// Sample a node ≠ `not`, either uniformly or biased toward the hub prefix.
fn pick_non_self(rng: &mut StdRng, n: u32, not: u32, hub_biased: bool) -> u32 {
    if n == 1 {
        return 0; // degenerate single-node graph: allow the self-loop
    }
    loop {
        let w = if hub_biased { skewed_index(rng, n) } else { rng.gen_range(0..n) };
        if w != not {
            return w;
        }
    }
}

/// Zipf-ish skewed index in `0..n`: cube of a uniform variate concentrates
/// mass near 0, so low-numbered nodes are the hubs.
fn skewed_index(rng: &mut StdRng, n: u32) -> u32 {
    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let idx = (unit * unit * unit * f64::from(n)) as u32;
    idx.min(n - 1)
}

/// One fair chunk of one BFS level: the frontier slice a single spawned task
/// owns, its precomputed scan list, and its designated discoveries.
pub struct BfsChunk {
    /// Frontier nodes this task scans (a contiguous fair slice).
    pub nodes: Vec<u32>,
    /// Every out-edge target this task probes, in scan order, with the
    /// visited value the probe must observe on a race-free run.
    pub scans: Vec<(u32, bool)>,
    /// Targets this task is the *first* to discover (in global scan order);
    /// it writes them to its private candidate cells.
    pub discoveries: Vec<u32>,
    /// Absolute shared-memory location of this task's first candidate cell.
    pub cand_base: u32,
}

/// The precomputed traversal: levels, distances, fair chunks, and the exact
/// racy-location sets of the planted variants.  See the module docs for why
/// the plan exists (schedule-independence).
pub struct BfsPlan {
    /// Nodes-per-chunk granularity `G` the plan was built with.
    pub granularity: u32,
    /// Frontier of each level, ascending; `levels[0] == [0]`.
    pub levels: Vec<Vec<u32>>,
    /// Distance from node 0 per node; `u32::MAX` for unreachable nodes.
    pub dist: Vec<u32>,
    /// Fair chunks of each level, in frontier order.
    pub chunks: Vec<Vec<BfsChunk>>,
    /// Number of reached nodes (including the source).
    pub reached: u32,
    /// Locations that race when chunk tasks blind-write visited bits
    /// ([`BfsVariant::RacyVisited`]): targets scanned by ≥ 2 distinct chunks
    /// of the same level.  Sorted.
    pub racy_visited: Vec<u32>,
    /// Whether some level has ≥ 2 chunks — exactly when the shared counter
    /// of [`BfsVariant::RacyAggregate`] races.
    pub aggregate_races: bool,
    n: u32,
}

impl BfsPlan {
    /// Shared-memory size the BFS program runs with: visited bits `[0, n)`,
    /// distance cells `[n, 2n)`, the aggregate counter at `2n`, then one
    /// candidate cell per non-source reached node.
    pub fn locations(&self) -> u32 {
        2 * self.n + 1 + (self.reached - 1)
    }

    /// Location of the shared aggregate counter.
    pub fn aggregate_location(&self) -> u32 {
        2 * self.n
    }
}

/// Compute the BFS plan for `g` from source node 0 with `granularity` nodes
/// per chunk (the fair-chunking knob `G`).
pub fn bfs_plan(g: &Digraph, granularity: u32) -> BfsPlan {
    assert!(granularity >= 1, "granularity must be at least 1");
    let n = g.num_nodes();

    // Pass 1: plain BFS for levels and distances.
    let mut dist = vec![u32::MAX; n as usize];
    dist[0] = 0;
    let mut levels: Vec<Vec<u32>> = vec![vec![0]];
    loop {
        let frontier = levels.last().unwrap();
        let depth = u32::try_from(levels.len()).expect("BFS depth exceeds u32") - 1;
        let mut next: Vec<u32> = Vec::new();
        for &v in frontier {
            for &w in g.out_neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = depth + 1;
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        next.sort_unstable();
        levels.push(next);
    }
    let reached = u32::try_from(dist.iter().filter(|&&d| d != u32::MAX).count())
        .expect("reached count exceeds u32");

    // Pass 2: fair chunks, scan lists, designated discoverers, racy sets.
    let cand0 = 2 * n + 1;
    let mut next_cand = cand0;
    let mut claimed = vec![false; n as usize];
    claimed[0] = true;
    let mut chunks: Vec<Vec<BfsChunk>> = Vec::with_capacity(levels.len());
    let mut racy_visited: Vec<u32> = Vec::new();
    let mut aggregate_races = false;
    for (depth, frontier) in levels.iter().enumerate() {
        let depth = u32::try_from(depth).expect("BFS depth exceeds u32");
        let num_chunks = frontier.len().div_ceil(granularity as usize);
        aggregate_races |= num_chunks >= 2;
        // Distinct chunks of *this level* that scan each target.
        let mut scanned_by: HashMap<u32, (usize, bool)> = HashMap::new();
        let mut level_chunks = Vec::with_capacity(num_chunks);
        let base = frontier.len() / num_chunks;
        let extra = frontier.len() % num_chunks;
        let mut lo = 0usize;
        for c in 0..num_chunks {
            let len = base + usize::from(c < extra);
            let nodes = frontier[lo..lo + len].to_vec();
            lo += len;
            let mut scans = Vec::new();
            let mut discoveries = Vec::new();
            for &v in &nodes {
                for &w in g.out_neighbors(v) {
                    scans.push((w, dist[w as usize] <= depth));
                    match scanned_by.entry(w).or_insert((c, false)) {
                        (first, multi) if *first != c && !*multi => {
                            *multi = true;
                            racy_visited.push(w);
                        }
                        _ => {}
                    }
                    if dist[w as usize] == depth + 1 && !claimed[w as usize] {
                        claimed[w as usize] = true;
                        discoveries.push(w);
                    }
                }
            }
            let cand_base = next_cand;
            next_cand += u32::try_from(discoveries.len()).expect("candidate count exceeds u32");
            level_chunks.push(BfsChunk { nodes, scans, discoveries, cand_base });
        }
        assert_eq!(lo, frontier.len(), "fair chunks must cover the frontier");
        chunks.push(level_chunks);
    }
    assert_eq!(next_cand - cand0, reached - 1, "one candidate cell per discovery");
    racy_visited.sort_unstable();
    racy_visited.dedup();

    BfsPlan {
        granularity,
        levels,
        dist,
        chunks,
        reached,
        racy_visited,
        aggregate_races,
        n,
    }
}

/// Which shared-memory behaviour the BFS program exhibits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BfsVariant {
    /// Chunk tasks read visited bits and write private candidates only; the
    /// serial merge publishes frontiers.  No races.
    RaceFree,
    /// Chunk tasks also blind-write `visited[w] = 1` for every scanned
    /// target — same-level chunks sharing a target race write–write.
    RacyVisited,
    /// Every chunk task bumps one shared counter (read + write).
    RacyAggregate,
}

/// Build the live fair-BFS program for `g` with `granularity` nodes per
/// chunk.  See the module docs for the three variants and the plan-replay
/// design.
pub fn live_graph_bfs(g: &Digraph, granularity: u32, variant: BfsVariant) -> LiveWorkload {
    live_bfs_from_plan(&bfs_plan(g, granularity), variant)
}

/// Build the live fair-BFS program from an already-computed plan.
pub fn live_bfs_from_plan(plan: &BfsPlan, variant: BfsVariant) -> LiveWorkload {
    let n = plan.n;
    let dist_base = n;
    let agg = plan.aggregate_location();
    let locations = plan.locations();
    let depth = plan.levels.len();
    // Encoded distances the merge steps write and the final step checks:
    // dist + 1, with 0 meaning unreached.
    let encoded: Arc<Vec<u64>> = Arc::new(
        plan.dist
            .iter()
            .map(|&d| if d == u32::MAX { 0 } else { u64::from(d) + 1 })
            .collect(),
    );

    let expected_racy = match variant {
        BfsVariant::RaceFree => Vec::new(),
        BfsVariant::RacyVisited => plan.racy_visited.clone(),
        BfsVariant::RacyAggregate => {
            if plan.aggregate_races {
                vec![agg]
            } else {
                Vec::new()
            }
        }
    };

    // Per-level merge inputs: each level-L chunk's (cand_base, discoveries).
    type MergeData = Arc<Vec<(u32, Vec<u32>)>>;
    let merges: Vec<MergeData> = plan
        .chunks
        .iter()
        .map(|level| {
            Arc::new(
                level
                    .iter()
                    .map(|c| (c.cand_base, c.discoveries.clone()))
                    .collect(),
            )
        })
        .collect();
    // Per-level spawn inputs: each chunk's (scans, discoveries, cand_base).
    type TaskData = (Arc<Vec<(u32, bool)>>, Arc<Vec<u32>>, u32);
    let tasks: Vec<Vec<TaskData>> = plan
        .chunks
        .iter()
        .map(|level| {
            level
                .iter()
                .map(|c| (Arc::new(c.scans.clone()), Arc::new(c.discoveries.clone()), c.cand_base))
                .collect()
        })
        .collect();

    let prog = build_proc(move |p| {
        for level in 0..depth {
            if level == 0 {
                // Source is visited at distance 0.
                p.step(move |m| {
                    m.write(0, 1);
                    m.write(dist_base, 1);
                });
            } else {
                // Merge the previous level's discoveries: read each task's
                // private candidates, publish visited bit + distance.
                let merge = Arc::clone(&merges[level - 1]);
                let encoded = Arc::clone(&encoded);
                p.step(move |m| {
                    for &(cand_base, ref discs) in merge.iter() {
                        for (i, &w) in discs.iter().enumerate() {
                            let got = m.read(cand_base + i as u32);
                            assert_eq!(got, u64::from(w) + 1, "candidate cell must hold w + 1");
                            m.write(w, 1);
                            m.write(dist_base + w, encoded[w as usize]);
                        }
                    }
                });
            }
            for (scans, discs, cand_base) in &tasks[level] {
                let scans = Arc::clone(scans);
                let discs = Arc::clone(discs);
                let cand_base = *cand_base;
                p.spawn(move |c| {
                    let scans = Arc::clone(&scans);
                    let discs = Arc::clone(&discs);
                    c.step(move |m| {
                        for &(w, expected) in scans.iter() {
                            let v = m.read(w);
                            match variant {
                                BfsVariant::RaceFree => {
                                    assert_eq!(v, u64::from(expected), "visited[{w}] on race-free run")
                                }
                                // The read value is schedule-dependent here;
                                // control flow must not depend on it.
                                BfsVariant::RacyVisited => m.write(w, 1),
                                BfsVariant::RacyAggregate => {}
                            }
                        }
                        for (i, &w) in discs.iter().enumerate() {
                            m.write(cand_base + i as u32, u64::from(w) + 1);
                        }
                        if variant == BfsVariant::RacyAggregate {
                            let done = m.read(agg);
                            m.write(agg, done + 1);
                        }
                    });
                });
            }
            p.sync();
        }
        // Final check: the traversal written through shared memory must
        // reproduce the plan on every schedule, in every variant.
        let encoded = Arc::clone(&encoded);
        p.step(move |m| {
            for v in 0..n {
                assert_eq!(m.read(dist_base + v), encoded[v as usize], "dist[{v}]");
                assert_eq!(m.read(v), u64::from(encoded[v as usize] != 0), "visited[{v}]");
            }
        });
    });

    LiveWorkload {
        name: match variant {
            BfsVariant::RaceFree => "graph-bfs",
            BfsVariant::RacyVisited => "graph-bfs-racy-visited",
            BfsVariant::RacyAggregate => "graph-bfs-racy-agg",
        },
        prog,
        locations,
        expected_racy,
    }
}

/// The canonical Cilk [`Procedure`] with the exact spawn structure of the
/// live BFS program: per level one serial statement (init or merge) followed
/// by one spawn per fair chunk, then a final serial check block.
/// `CilkProgram::new(bfs_procedure(&plan)).build_tree()` and
/// `spprog::record_program` on [`live_bfs_from_plan`]'s program produce the
/// same parse tree — this is how the shape rides the offline conformance
/// sweep.
pub fn bfs_procedure(plan: &BfsPlan) -> Procedure {
    let mut procedure = Procedure::new();
    for level_chunks in &plan.chunks {
        let mut block = SyncBlock::new().work(1);
        for _ in level_chunks {
            block = block.spawn(Procedure::single(SyncBlock::new().work(1)));
        }
        procedure = procedure.block(block);
    }
    procedure.block(SyncBlock::new().work(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spprog::{record_program, run_program, RunConfig};
    use sptree::cilk::CilkProgram;

    fn graphs() -> Vec<(&'static str, Digraph)> {
        vec![
            ("uniform", uniform_digraph(40, 2, 7)),
            ("power-law", power_law_digraph(40, 2, 7)),
            ("line", uniform_digraph(12, 0, 1)),
            ("single", uniform_digraph(1, 0, 0)),
        ]
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for (mk, label) in [
            (uniform_digraph as fn(u32, u32, u64) -> Digraph, "uniform"),
            (power_law_digraph as fn(u32, u32, u64) -> Digraph, "power-law"),
        ] {
            let a = mk(50, 3, 11);
            let b = mk(50, 3, 11);
            let c = mk(50, 3, 12);
            assert_eq!(a.offsets, b.offsets, "{label}");
            assert_eq!(a.targets, b.targets, "{label}");
            assert_ne!(
                (&a.offsets, &a.targets),
                (&c.offsets, &c.targets),
                "{label}: different seeds must differ"
            );
        }
    }

    #[test]
    fn power_law_outdegrees_are_skewed() {
        let g = power_law_digraph(200, 4, 3);
        let max_deg = (0..200).map(|v| g.out_neighbors(v).len()).max().unwrap();
        let avg = g.num_edges() as f64 / 200.0;
        assert!(
            max_deg as f64 > 8.0 * avg,
            "hubs should dominate: max {max_deg}, avg {avg:.1}"
        );
    }

    #[test]
    fn plan_invariants_hold_on_all_graphs() {
        for (label, g) in graphs() {
            for granularity in [1u32, 3, 64] {
                let plan = bfs_plan(&g, granularity);
                // The spine makes every node reachable; levels partition them.
                assert_eq!(plan.reached, g.num_nodes(), "{label}/g{granularity}");
                let mut seen = vec![false; g.num_nodes() as usize];
                for (depth, frontier) in plan.levels.iter().enumerate() {
                    assert!(!frontier.is_empty());
                    for &v in frontier {
                        assert_eq!(plan.dist[v as usize] as usize, depth, "{label}");
                        assert!(!seen[v as usize], "{label}: levels must not overlap");
                        seen[v as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "{label}: levels cover the graph");
                // Fair chunks: sizes within 1 of each other, ≤ granularity,
                // covering the frontier in order; discoveries partition the
                // non-source nodes with contiguous candidate cells.
                let mut next_cand = 2 * g.num_nodes() + 1;
                let mut discovered = vec![false; g.num_nodes() as usize];
                discovered[0] = true;
                for (frontier, chunks) in plan.levels.iter().zip(&plan.chunks) {
                    let sizes: Vec<usize> = chunks.iter().map(|c| c.nodes.len()).collect();
                    let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(hi - lo <= 1, "{label}: unfair chunk split {sizes:?}");
                    assert!(*hi <= granularity as usize, "{label}");
                    let concat: Vec<u32> =
                        chunks.iter().flat_map(|c| c.nodes.iter().copied()).collect();
                    assert_eq!(&concat, frontier, "{label}");
                    for c in chunks {
                        assert_eq!(c.cand_base, next_cand, "{label}: candidate cells contiguous");
                        next_cand += c.discoveries.len() as u32;
                        for &w in &c.discoveries {
                            assert!(!discovered[w as usize], "{label}: single discoverer");
                            discovered[w as usize] = true;
                        }
                    }
                }
                assert!(discovered.iter().all(|&d| d), "{label}: all nodes discovered");
            }
        }
    }

    fn check_workload(w: &LiveWorkload, label: &str) {
        let serial = run_program(&w.prog, &RunConfig::serial(w.locations));
        assert_eq!(serial.report.racy_locations(), w.expected_racy, "{label} serial");
        for workers in [2usize, 3] {
            let live = run_program(&w.prog, &RunConfig::with_workers(workers, w.locations));
            assert_eq!(live.report.racy_locations(), w.expected_racy, "{label} w{workers}");
        }
    }

    #[test]
    fn bfs_variants_report_exactly_their_planted_races() {
        for (label, g) in graphs() {
            for granularity in [1u32, 4] {
                for variant in
                    [BfsVariant::RaceFree, BfsVariant::RacyVisited, BfsVariant::RacyAggregate]
                {
                    let w = live_graph_bfs(&g, granularity, variant);
                    check_workload(&w, &format!("{label}/g{granularity}/{:?}", variant));
                }
            }
        }
    }

    #[test]
    fn planted_variants_do_plant_races_on_interesting_graphs() {
        // Deterministic seeds, so these are fixed facts about the plan; a
        // planted variant with an empty expected set would test nothing.
        for (label, g) in
            [("uniform", uniform_digraph(40, 2, 7)), ("power-law", power_law_digraph(40, 2, 7))]
        {
            let plan = bfs_plan(&g, 2);
            assert!(!plan.racy_visited.is_empty(), "{label}: shared targets exist");
            assert!(plan.aggregate_races, "{label}: some level has ≥ 2 chunks");
        }
        // One chunk per level (granularity ≥ frontier) ⇒ nothing races.
        let line = uniform_digraph(12, 0, 1);
        let plan = bfs_plan(&line, 4);
        assert!(plan.racy_visited.is_empty());
        assert!(!plan.aggregate_races);
        for variant in [BfsVariant::RacyVisited, BfsVariant::RacyAggregate] {
            assert!(live_bfs_from_plan(&plan, variant).expected_racy.is_empty());
        }
    }

    #[test]
    fn recorded_live_bfs_matches_the_cilk_procedure_tree() {
        for (label, g) in graphs() {
            let plan = bfs_plan(&g, 3);
            let w = live_bfs_from_plan(&plan, BfsVariant::RaceFree);
            let recorded = record_program(&w.prog, w.locations);
            let tree = CilkProgram::new(bfs_procedure(&plan)).build_tree();
            tree.check_invariants();
            assert_eq!(recorded.tree.num_threads(), tree.num_threads(), "{label}");
            assert_eq!(recorded.tree.num_pnodes(), tree.num_pnodes(), "{label}");
        }
    }

    #[test]
    fn granularity_controls_task_count() {
        let g = uniform_digraph(60, 2, 5);
        let fine = bfs_plan(&g, 1);
        let coarse = bfs_plan(&g, 16);
        let tasks = |p: &BfsPlan| p.chunks.iter().map(Vec::len).sum::<usize>();
        assert_eq!(tasks(&fine), 60, "granularity 1 is one task per node");
        assert!(tasks(&coarse) < tasks(&fine) / 4, "coarse chunks collapse tasks");
    }
}
