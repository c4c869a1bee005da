//! Access-script generators: race-free and racy shared-memory behaviours.

use racedet::{Access, AccessScript};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sptree::oracle::SpOracle;
use sptree::tree::{ParseTree, ThreadId};

/// Race-free script: every thread writes and reads only its own private
/// location, `accesses_per_thread` times.
pub fn disjoint_writes(tree: &ParseTree, accesses_per_thread: usize) -> AccessScript {
    let n = tree.num_threads();
    let mut script = AccessScript::new(n, n as u32);
    for t in tree.thread_ids() {
        for i in 0..accesses_per_thread {
            let access = if i % 2 == 0 {
                Access::write(t.0)
            } else {
                Access::read(t.0)
            };
            script.push(t, access);
        }
    }
    script
}

/// Race-free script with sharing: thread 0 initializes a block of shared
/// locations which every other thread then only reads; each thread also
/// writes its own private location.
///
/// This models the common "read-only shared input, private output" pattern
/// and exercises the reader-tracking path of the detector heavily.
pub fn shared_read_private_write(
    tree: &ParseTree,
    shared_locations: u32,
    accesses_per_thread: usize,
) -> AccessScript {
    let n = tree.num_threads();
    let shared = shared_locations.max(1);
    let mut script = AccessScript::new(n, shared + n as u32);
    // The first thread in serial order initializes the shared block.  It
    // precedes every other thread only if it is the first thread of a serial
    // prefix; for arbitrary trees the reads below may legitimately race, so
    // callers who need a guaranteed race-free script should pass a tree whose
    // first thread precedes all others (true for all Cilk-style workloads,
    // whose main procedure starts with serial work).
    for loc in 0..shared {
        script.push(ThreadId(0), Access::write(loc));
    }
    for t in tree.thread_ids().skip(1) {
        for i in 0..accesses_per_thread {
            if i % 3 == 2 {
                script.push(t, Access::write(shared + t.0));
            } else {
                script.push(t, Access::read(i as u32 % shared));
            }
        }
    }
    script
}

/// Start from a race-free script and inject `races` write-write races between
/// randomly chosen pairs of logically parallel threads, each on its own fresh
/// location.  Returns the script and the locations that must be reported racy.
pub fn inject_races(
    tree: &ParseTree,
    base: &AccessScript,
    races: usize,
    seed: u64,
) -> (AccessScript, Vec<u32>) {
    let mut script = base.clone();
    let oracle = SpOracle::new(tree);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = tree.num_threads() as u32;
    let mut racy_locs = Vec::new();
    let mut next_loc = base.num_locations();
    let mut attempts = 0;
    while racy_locs.len() < races && attempts < 10_000 {
        attempts += 1;
        let a = ThreadId(rng.gen_range(0..n));
        let b = ThreadId(rng.gen_range(0..n));
        if a == b || !oracle.parallel(a, b) {
            continue;
        }
        let loc = next_loc;
        next_loc += 1;
        script.push(a, Access::write(loc));
        script.push(b, Access::write(loc));
        racy_locs.push(loc);
    }
    racy_locs.sort_unstable();
    (script, racy_locs)
}

/// Fully random read/write mix: every thread performs `accesses_per_thread`
/// accesses, each against either one of `shared_locations` *hot* shared
/// locations or the thread's own private location, with kind and target
/// drawn from `seed`.  Unlike [`inject_races`], races are *emergent* — no
/// ground truth is planted, so callers cross-check against
/// [`racy_locations_oracle`].  This is the script family that exercises the
/// detector's reader-replacement rule differentially: hot locations collect
/// long read chains interrupted by writes from all over the tree.
pub fn random_mixed_script(
    tree: &ParseTree,
    shared_locations: u32,
    accesses_per_thread: usize,
    seed: u64,
) -> AccessScript {
    let n = tree.num_threads();
    let shared = shared_locations.max(1);
    let mut script = AccessScript::new(n, shared + n as u32);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAC_CE55);
    for t in tree.thread_ids() {
        for _ in 0..accesses_per_thread {
            let loc = if rng.gen_bool(0.65) {
                rng.gen_range(0..shared)
            } else {
                shared + t.0
            };
            let access = if rng.gen_bool(0.4) {
                Access::write(loc)
            } else {
                Access::read(loc)
            };
            script.push(t, access);
        }
    }
    script
}

/// Ground-truth racy locations of an arbitrary script, by brute force: a
/// location races iff two distinct logically parallel threads access it and
/// at least one of the two accesses is a write.  Quadratic in the number of
/// accessing threads per location — fine for conformance-sized scripts, and
/// deliberately *independent* of the shadow-memory algorithm so it can judge
/// the detector's reader-replacement rule rather than mirror it.
pub fn racy_locations_oracle(tree: &ParseTree, script: &AccessScript) -> Vec<u32> {
    let oracle = SpOracle::new(tree);
    // (readers, writers) thread sets per location, deduplicated.
    let mut by_loc: Vec<(Vec<ThreadId>, Vec<ThreadId>)> =
        vec![(Vec::new(), Vec::new()); script.num_locations() as usize];
    for t in tree.thread_ids() {
        for access in script.of(t) {
            let (readers, writers) = &mut by_loc[access.loc as usize];
            let set = match access.kind {
                racedet::AccessKind::Read => readers,
                racedet::AccessKind::Write => writers,
            };
            if !set.contains(&t) {
                set.push(t);
            }
        }
    }
    let mut racy = Vec::new();
    for (loc, (readers, writers)) in by_loc.iter().enumerate() {
        let write_pair = writers
            .iter()
            .enumerate()
            .any(|(i, &a)| writers[i + 1..].iter().any(|&b| oracle.parallel(a, b)));
        let read_write_pair = || {
            writers
                .iter()
                .any(|&w| readers.iter().any(|&r| r != w && oracle.parallel(w, r)))
        };
        if write_pair || read_write_pair() {
            racy.push(loc as u32);
        }
    }
    racy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{Workload, WorkloadKind};
    use racedet::detect_races;
    use spmaint::BackendConfig;

    #[test]
    fn disjoint_writes_are_race_free() {
        let w = Workload::build(WorkloadKind::Fib, 200, 1, 0);
        let script = disjoint_writes(&w.tree, 4);
        let (report, _) = detect_races::<spmaint::SpOrder>(&w.tree, &script, BackendConfig::serial());
        assert!(report.is_empty());
        assert_eq!(script.total_accesses(), w.tree.num_threads() * 4);
    }

    #[test]
    fn shared_read_script_is_race_free_on_cilk_programs() {
        let w = Workload::build(WorkloadKind::Fib, 150, 1, 0);
        let script = shared_read_private_write(&w.tree, 8, 6);
        let (report, _) = detect_races::<spmaint::SpOrder>(&w.tree, &script, BackendConfig::serial());
        assert!(report.is_empty(), "races: {:?}", report.races());
    }

    #[test]
    fn injected_races_are_found_exactly() {
        let w = Workload::build(WorkloadKind::RandomSp, 300, 1, 5);
        let base = disjoint_writes(&w.tree, 2);
        let (script, expected) = inject_races(&w.tree, &base, 10, 99);
        assert_eq!(expected.len(), 10);
        let (report, _) = detect_races::<spmaint::SpOrder>(&w.tree, &script, BackendConfig::serial());
        assert_eq!(report.racy_locations(), expected);
    }

    #[test]
    fn random_mixed_script_is_deterministic_and_mixed() {
        let w = Workload::build(WorkloadKind::RandomSp, 120, 1, 3);
        let a = random_mixed_script(&w.tree, 4, 5, 11);
        let b = random_mixed_script(&w.tree, 4, 5, 11);
        assert_eq!(a.total_accesses(), w.tree.num_threads() * 5);
        for t in w.tree.thread_ids() {
            assert_eq!(a.of(t), b.of(t), "determinism");
        }
        let all = w.tree.thread_ids().flat_map(|t| a.of(t)).collect::<Vec<_>>();
        assert!(all.iter().any(|x| x.kind == racedet::AccessKind::Read));
        assert!(all.iter().any(|x| x.kind == racedet::AccessKind::Write));
    }

    #[test]
    fn oracle_racy_locations_match_serial_detector_on_random_mixes() {
        // The serial Feng–Leiserson detector is exact per location (the
        // one-reader replacement rule never discards a still-racing reader
        // in left-to-right order); the brute-force oracle must agree.
        for seed in 0..12u64 {
            let w = Workload::build(WorkloadKind::RandomSp, 80, 1, seed);
            let script = random_mixed_script(&w.tree, 3, 4, seed);
            let truth = racy_locations_oracle(&w.tree, &script);
            let (report, _) = detect_races::<spmaint::SpOrder>(&w.tree, &script, BackendConfig::serial());
            assert_eq!(report.racy_locations(), truth, "seed {seed}");
        }
    }

    #[test]
    fn oracle_flags_only_genuinely_parallel_conflicts() {
        use sptree::builder::Ast;
        // S(u0, P(u1, u2)): u0 precedes both, u1 ∥ u2.
        let tree = Ast::seq(vec![Ast::leaf(1), Ast::par(vec![Ast::leaf(1), Ast::leaf(1)])]).build();
        let mut script = AccessScript::new(3, 3);
        script.push(ThreadId(0), Access::write(0)); // serial init: not a race
        script.push(ThreadId(1), Access::read(0));
        script.push(ThreadId(1), Access::write(1)); // u1 ∥ u2 write-write on 1
        script.push(ThreadId(2), Access::write(1));
        script.push(ThreadId(1), Access::read(2)); // read-read on 2: no race
        script.push(ThreadId(2), Access::read(2));
        assert_eq!(racy_locations_oracle(&tree, &script), vec![1]);
    }

    #[test]
    fn inject_races_is_deterministic() {
        let w = Workload::build(WorkloadKind::RandomSp, 100, 1, 1);
        let base = disjoint_writes(&w.tree, 1);
        let (s1, l1) = inject_races(&w.tree, &base, 5, 7);
        let (s2, l2) = inject_races(&w.tree, &base, 5, 7);
        assert_eq!(l1, l2);
        assert_eq!(s1.total_accesses(), s2.total_accesses());
    }
}
