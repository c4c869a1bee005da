//! The five workloads, built from a seed.  A workload is a *job stream*:
//! one or more live programs plus the order in which they are submitted.
//! The four program workloads have one program and a one-job pass; the
//! service workload has four small programs and a seeded-shuffled order.

use sp_maintenance::racedet::RaceReport;
use sp_maintenance::spprog::{run_program, Proc, RunConfig};
use sp_maintenance::workloads::{
    bfs_plan, live_bfs_from_plan, live_fib, live_growth, live_matmul, uniform_digraph, BfsVariant,
    LiveWorkload,
};

/// Input sizes.  `FULL` is what the benchmark measures; `SMOKE` exists so
/// the whole harness can be exercised in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub fib: u32,
    pub matmul: u32,
    pub graph_nodes: u32,
    pub granularity: u32,
    pub mix_fib: u32,
    pub mix_growth: u32,
    pub mix_graph_nodes: u32,
    /// Jobs in one direct pass over the service mix.
    pub mix_pass: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        fib: 22,
        matmul: 64,
        graph_nodes: 100_000,
        granularity: 64,
        mix_fib: 10,
        mix_growth: 9,
        mix_graph_nodes: 96,
        mix_pass: 256,
    };

    pub const SMOKE: Sizes = Sizes {
        fib: 12,
        matmul: 8,
        graph_nodes: 2_000,
        granularity: 16,
        mix_fib: 6,
        mix_growth: 5,
        mix_graph_nodes: 24,
        mix_pass: 32,
    };
}

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// input without depending on a crate the program does not export.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant at these n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A shuffled deck of `size` jobs that holds every one of `programs`
/// programs equally often (to within one): a seed changes the order of the
/// jobs, never the amount of work in a pass or a block.
fn deal(stream: &mut SplitMix64, programs: usize, size: usize) -> Vec<usize> {
    let mut deck: Vec<usize> = (0..size).map(|i| i % programs).collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, stream.below(i + 1));
    }
    deck
}

/// One live program of a workload and what a correct detector reports on it.
pub struct Program {
    pub name: &'static str,
    pub prog: Proc,
    pub locations: u32,
    /// Locations a correct run reports racy, sorted.
    pub expected_racy: Vec<u32>,
}

impl From<LiveWorkload> for Program {
    fn from(w: LiveWorkload) -> Self {
        Program {
            name: w.name,
            prog: w.prog,
            locations: w.locations,
            expected_racy: w.expected_racy,
        }
    }
}

/// A built workload.
pub struct Workload {
    pub programs: Vec<Program>,
    /// One direct pass: indices into `programs`, in submission order.
    pub pass: Vec<usize>,
    /// Continues the job stream past `pass` for the closed loop.
    stream: SplitMix64,
    /// Whether the closed loop, not the direct pass, is what this workload
    /// is about (bigger blocks, more rounds kept).
    pub service_bound: bool,
}

impl Workload {
    /// Build `name` from `seed`; `None` for an unknown name.  Only the
    /// graphs and the session order depend on the seed — `spawn-fib` and
    /// `read-matmul` have no random input.
    pub fn build(name: &str, sizes: &Sizes, seed: u64) -> Option<Workload> {
        let single = |program: Program| Workload {
            programs: vec![program],
            pass: vec![0],
            stream: SplitMix64(seed),
            service_bound: false,
        };
        let bfs = |variant: BfsVariant| {
            let graph = uniform_digraph(sizes.graph_nodes, 3, seed);
            let plan = bfs_plan(&graph, sizes.granularity);
            let mut program = Program::from(live_bfs_from_plan(&plan, variant));
            if variant == BfsVariant::RacyVisited {
                // The plan, not the program generator, is the oracle here.
                program.expected_racy = plan.racy_visited.clone();
            }
            single(program)
        };
        Some(match name {
            "spawn-fib" => single(live_fib(sizes.fib, false).into()),
            "read-matmul" => single(live_matmul(sizes.matmul, false).into()),
            "bfs-100k" => bfs(BfsVariant::RaceFree),
            "bfs-100k-racy" => bfs(BfsVariant::RacyVisited),
            "service-mix" => {
                let graph = uniform_digraph(sizes.mix_graph_nodes, 3, seed);
                let plan = bfs_plan(&graph, 4);
                let programs: Vec<Program> = vec![
                    live_fib(sizes.mix_fib, false).into(),
                    live_fib(sizes.mix_fib, true).into(),
                    live_growth(sizes.mix_growth, false).into(),
                    live_bfs_from_plan(&plan, BfsVariant::RaceFree).into(),
                ];
                let mut stream = SplitMix64(seed ^ 0x5E55_1015);
                let pass = deal(&mut stream, programs.len(), sizes.mix_pass);
                Workload {
                    programs,
                    pass,
                    stream,
                    service_bound: true,
                }
            }
            _ => return None,
        })
    }

    /// The service-phase job stream, continuing where `pass` stopped: deck
    /// after deck of `pass.len()` jobs.  Every call starts the same stream
    /// again.
    pub fn job_stream(&self) -> impl FnMut() -> usize {
        let (mut stream, programs) = (self.stream.clone(), self.programs.len());
        let (size, mut deck) = (self.pass.len(), Vec::new());
        move || {
            if deck.is_empty() {
                deck = deal(&mut stream, programs, size);
            }
            deck.pop().expect("a deck is never empty")
        }
    }

    /// Serial standalone `run_program` report of every program: what each
    /// 1-worker run and each service session must reproduce bit for bit.
    pub fn references(&self) -> Vec<RaceReport> {
        self.programs
            .iter()
            .map(|p| run_program(&p.prog, &RunConfig::serial(p.locations)).report)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_declared_workload_builds_and_unknown_names_do_not() {
        for w in WORKLOADS {
            let built = Workload::build(w.name, &Sizes::SMOKE, 1).expect(w.name);
            assert!(!built.pass.is_empty());
            assert!(built.pass.iter().all(|&i| i < built.programs.len()));
        }
        assert!(Workload::build("no-such-workload", &Sizes::SMOKE, 1).is_none());
    }

    #[test]
    fn seed_changes_graphs_and_session_order_only() {
        let s = &Sizes::SMOKE;
        let racy = |seed| {
            Workload::build("bfs-100k-racy", s, seed).unwrap().programs[0]
                .expected_racy
                .clone()
        };
        assert_eq!(racy(1), racy(1), "same seed, same graph");
        assert_ne!(racy(1), racy(2), "another seed, another graph");

        let pass = |seed| Workload::build("service-mix", s, seed).unwrap().pass;
        assert_eq!(pass(1), pass(1));
        assert_ne!(pass(1), pass(2));
        // ... but the same jobs: every program equally often.
        let counts = |seed| {
            let mut pass = pass(seed);
            pass.sort_unstable();
            pass
        };
        assert_eq!(counts(1), counts(2));

        // No random input: the recorded access streams are identical.
        for name in ["spawn-fib", "read-matmul"] {
            let hash = |seed| {
                let w = Workload::build(name, s, seed).unwrap();
                let p = &w.programs[0];
                sp_maintenance::spprog::record_program(&p.prog, p.locations).structural_hash
            };
            assert_eq!(hash(1), hash(2), "{name} must not depend on the seed");
        }
    }

    #[test]
    fn references_report_exactly_the_expected_locations() {
        for w in WORKLOADS {
            let built = Workload::build(w.name, &Sizes::SMOKE, 3).unwrap();
            for (p, r) in built.programs.iter().zip(built.references()) {
                assert_eq!(
                    r.racy_locations(),
                    p.expected_racy,
                    "{} / {}",
                    w.name,
                    p.name
                );
            }
        }
    }
}
