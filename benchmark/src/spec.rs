//! The names this benchmark reports, declared once.  `BENCHMARK.json` at the
//! repository root repeats the workloads and metrics for the driver; the
//! `benchmark_json_matches_spec` test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: every workload reports every one of them from its
/// untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric (traced run; reported, never gated).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "spawn-fib",
        why: "live_fib(22): 114,627 threads, 1 access; forkrt scheduling and SP maintenance do all the work, racedet almost none",
    },
    WorkloadSpec {
        name: "read-matmul",
        why: "live_matmul(64): 132 threads, 540,673 accesses, 98% shared reads, shadow fits L2; access recording and the racedet read path dominate",
    },
    WorkloadSpec {
        name: "bfs-100k",
        why: "race-free fair BFS on a seeded 100,000-node digraph (G=64): irregular fan-out, real steals, 300,000 locations beyond L2; every layer carries weight",
    },
    WorkloadSpec {
        name: "bfs-100k-racy",
        why: "same BFS plan with blind visited writes: ~448k reported races drive the striped-lock tier and the report path instead of the silent-read path",
    },
    WorkloadSpec {
        name: "service-mix",
        why: "closed loop, window 8, seeded mix of four ~100-600 us programs: spservice admission, P2 scoring, arena recycling and wake-ups dominate",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("run_ms_w1", "ms", Better::Lower, 0.25),
    e2e("sessions_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // forkrt: the scheduler alone (`run_uninstrumented`).
    low("forkrt.bare_ms_w1", "ms"),
    low("forkrt.bare_ms_w2", "ms"),
    low("forkrt.bare_ns_per_thread_w1", "ns"),
    high("forkrt.steals_w2", "count"),
    // spprog: scheduler + unfold + SP maintenance + access recording over a
    // sink whose `check_thread` does nothing; and the full run.
    low("spprog.nullsink_ms_w1", "ms"),
    low("spprog.nullsink_ms_w2", "ms"),
    low("spprog.run_ms_w1", "ms"),
    low("spprog.run_ms_w2", "ms"),
    // spmaint: serial SP maintenance (+ access recording), and tree replay.
    low("spmaint.self_ms_w1", "ms"),
    low("spmaint.replay_ms", "ms"),
    low("spmaint.replay_ns_per_node", "ns"),
    low("spmaint.sp_space_bytes_w1", "bytes"),
    // sphybrid: the two-tier parallel maintainer.
    low("sphybrid.self_ms_w2", "ms"),
    low("sphybrid.hybrid1_ms", "ms"),
    low("sphybrid.tier_cost_x", "x"),
    high("sphybrid.steals_w2", "count"),
    high("sphybrid.traces_w2", "count"),
    low("sphybrid.grow_events_w2", "count"),
    // om / dsu: the substrates, driven with as many operations as the
    // recorded tree has nodes.
    low("om.two_level_insert_ns", "ns"),
    low("om.two_level_precedes_ns", "ns"),
    low("om.concurrent_insert_ns", "ns"),
    low("om.concurrent_precedes_ns", "ns"),
    low("dsu.concurrent_union_find_ns", "ns"),
    // racedet: shadow checking, timed per `check_thread` call from outside.
    low("racedet.check_ms_w1", "ms"),
    low("racedet.check_ms_w2", "ms"),
    low("racedet.check_ns_per_access_w1", "ns"),
    low("racedet.check_contention_x", "x"),
    low("racedet.batches", "count"),
    low("racedet.accesses", "count"),
    low("racedet.races_w1", "count"),
    high("racedet.owner_hint", "count"),
    high("racedet.lock_free", "count"),
    low("racedet.locked", "count"),
    low("racedet.detector_new_ms", "ms"),
    low("racedet.offline_ms", "ms"),
    // spservice: the session layer.
    low("spservice.submit_p50_ns", "ns"),
    low("spservice.queue_wait_p50_us", "us"),
    low("spservice.queue_wait_p99_us", "us"),
    low("spservice.run_time_p50_us", "us"),
    low("spservice.latency_p99_us", "us"),
    low("spservice.scheduled_admissions", "count"),
    high("spservice.epoch_resets", "count"),
    low("spservice.arenas_created", "count"),
    low("spservice.standalone_ms", "ms"),
    low("spservice.overhead_x", "x"),
    low("spservice.seq_latency_p50_us", "us"),
    // tracing cost and derived ratios: reported, not gated.
    low("trace.overhead_x_w1", "x"),
    low("trace.overhead_x_w2", "x"),
    low("spmetrics.events_dropped", "count"),
    low("derived.overhead_x_w1", "x"),
    low("derived.overhead_x_w2", "x"),
    high("derived.speedup_w2", "x"),
    low("derived.ns_per_access_w1", "ns"),
];

/// Names are letters, digits, `_`, `.`, `-`; start with a letter or digit;
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Units are at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "workload name {:?}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END {
            assert!(
                valid_name(m.name) && valid_unit(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(
                valid_name(m.name) && valid_unit(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(
                (field(j, "name"), field(j, "why")),
                (w.name.into(), w.why.into())
            );
        }
        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let paths = doc.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths, [Json::Str("benchmark".into())]);
    }
}
