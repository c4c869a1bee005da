//! Stress test of the parallel SP-hybrid path against the LCA oracle, with
//! rich diagnostics on any disagreement.

use parking_lot::Mutex;
use sphybrid::HybridBackend;
use spmaint::api::{BackendConfig, SpBackend};
use sptree::cilk::CilkProgram;
use sptree::generate::{random_cilk_program, CilkGenParams};
use sptree::oracle::SpOracle;
use sptree::tree::ThreadId;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

#[test]
fn stress_parallel_hybrid_against_oracle() {
    let rounds: usize = std::env::var("SPHYBRID_STRESS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    for round in 0..rounds {
        let seed = round as u64;
        let params = CilkGenParams {
            max_depth: 6,
            max_blocks: 2,
            max_stmts: 4,
            spawn_prob: 0.6,
            work: 2,
        };
        let tree = CilkProgram::new(random_cilk_program(params, seed)).build_tree();
        let oracle = SpOracle::new(&tree);
        let executed: Vec<AtomicBool> =
            (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect();
        let exec_trace: Vec<AtomicU32> =
            (0..tree.num_threads()).map(|_| AtomicU32::new(u32::MAX)).collect();
        // (earlier, current, current_trace, answer, earlier_trace_now, earlier_is_sbag)
        type Mismatch = (u32, u32, u32, bool, u32, bool);
        let mismatches: Mutex<Vec<Mismatch>> = Mutex::new(Vec::new());

        let mut hybrid = HybridBackend::build(&tree, BackendConfig::with_workers(8));
        hybrid.run(|h, current, trace| {
            let mut x = 1u64;
            for i in 0..80u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            exec_trace[current.index()].store(trace.0, Ordering::Relaxed);
            for earlier in 0..tree.num_threads() as u32 {
                let earlier = ThreadId(earlier);
                if earlier == current || !executed[earlier.index()].load(Ordering::Acquire) {
                    continue;
                }
                let answer = h.precedes_current(earlier, trace);
                let truth = oracle.precedes(earlier, current);
                if answer != truth {
                    let (et, is_s) = h.find_trace(earlier);
                    mismatches.lock().push((earlier.0, current.0, trace.0, answer, et.0, is_s));
                }
            }
            executed[current.index()].store(true, Ordering::Release);
        });
        let mismatches = mismatches.into_inner();
        if !mismatches.is_empty() {
            let stats = hybrid.stats().expect("the run completed");
            // Split `seq = s` created traces 4s − 3 ..= 4s (U⁽¹⁾, U⁽²⁾, U⁽⁴⁾,
            // U⁽⁵⁾); the log is in push order, so look records up by `seq`.
            let log = hybrid.split_log();
            let split_of = |trace: u32| {
                let seq = u64::from((trace - 1) / 4 + 1);
                log.iter()
                    .find(|r| r.seq == seq)
                    .expect("every split is logged")
            };
            eprintln!(
                "round {round}: {} mismatches, steals={}, traces={}",
                mismatches.len(),
                stats.run.steals,
                stats.traces
            );
            let ancestry = |mut trace: u32| -> String {
                let mut out = String::new();
                for _ in 0..8 {
                    if trace == 0 {
                        out.push_str("U0");
                        break;
                    }
                    let role = match (trace - 1) % 4 {
                        0 => "U1",
                        1 => "U2",
                        2 => "U4",
                        _ => "U5",
                    };
                    let rec = split_of(trace);
                    out.push_str(&format!(
                        "{trace}={role}(split seq{} @node{} proc{} victim{}) <- ",
                        rec.seq, rec.pnode.0, rec.proc.0, rec.victim.0
                    ));
                    trace = rec.victim.0;
                }
                out
            };
            for &(e, c, ct, ans, et, is_s) in mismatches.iter().take(6) {
                eprintln!(
                    "  earlier t{e} (exec trace {}, now {et}, sbag={is_s}) vs current t{c} (trace {ct}): answered {ans}, oracle {:?}",
                    exec_trace[e as usize].load(Ordering::Relaxed),
                    oracle.relation(ThreadId(e), ThreadId(c))
                );
                eprintln!("    earlier leaf node {}  current leaf node {}",
                    tree.leaf_of(ThreadId(e)).0, tree.leaf_of(ThreadId(c)).0);
                eprintln!("    earlier trace ancestry: {}", ancestry(et));
                eprintln!("    current trace ancestry: {}", ancestry(ct));
                if et > 0 && ct > 0 {
                    let a = split_of(et).pnode;
                    let b = split_of(ct).pnode;
                    eprintln!(
                        "    stolen nodes: earlier-split node {} vs current-split node {}: a_anc_b={} b_anc_a={}",
                        a.0, b.0, tree.is_ancestor(a, b), tree.is_ancestor(b, a)
                    );
                }
            }
            panic!("parallel SP-hybrid disagreed with the oracle");
        }
    }
}
