//! `compare A.json B.json [BENCHMARK.json]`: judge set B against set A (two
//! files written by `spbench --set`) with the bounds of `BENCHMARK.json`.
//!
//! Per workload and end-to-end metric it prints both medians and quartiles
//! and one verdict:
//!
//! * `unresolved` — the run-to-run spread (interquartile distance over the
//!   median) of either set exceeds the metric's bound, and B does not beat A
//!   in every run (`setup_s` is exempt from the spread rule, as in the
//!   driver's acceptance check);
//! * `regressed`  — B's median is worse than A's by more than the bound;
//! * `improved`   — B's median is better by more than A's interquartile
//!   distance and B wins at least nine tenths of the paired runs;
//! * `unchanged`  — anything else.
//!
//! Exit code 1 if any row is `regressed` or `unresolved`, 2 on bad input.

use std::process::ExitCode;

use spbench_e2e::json::Json;
use spbench_e2e::stats::{quartiles, spread};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds_of(doc: &Json) -> Result<Vec<Bound>, String> {
    let text = |j: &Json, k: &str| {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("end_to_end entry lacks {k}"))
    };
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|j| {
            Ok(Bound {
                name: text(j, "name")?,
                unit: text(j, "unit")?,
                lower_is_better: text(j, "better")? == "lower",
                bound: j
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// Workload names in first-seen order, and the values of one metric of one
/// workload in run order.
fn workloads_of(set: &Json) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = Vec::new();
    for run in set
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no runs list")?
    {
        let name = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run lacks workload")?;
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    }
    Ok(names)
}

fn values_of(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

fn judge(a: &[f64], b: &[f64], m: &Bound) -> Verdict {
    let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (_, b_med, _) = quartiles(b);
    // Relative change of the median, positive when B is worse.
    let worse_by = if m.lower_is_better {
        (b_med - a_med) / a_med
    } else {
        (a_med - b_med) / a_med
    };
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let spread_gated = m.name != "setup_s";
    if spread_gated && (spread(a) > m.bound || spread(b) > m.bound) && !every_b_beats_every_a {
        return Verdict::Unresolved;
    }
    if worse_by > m.bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    if (a_med - b_med).abs() > a_q3 - a_q1 && better(b_med, a_med) && wins * 10 >= pairs * 9 {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (a_path, b_path, bounds_path) = match args.as_slice() {
        [a, b] => (a, b, "BENCHMARK.json"),
        [a, b, bounds] => (a, b, bounds.as_str()),
        _ => return Err("usage: compare <a.json> <b.json> [BENCHMARK.json]".into()),
    };
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bounds = bounds_of(&read_json(bounds_path)?)?;
    let mut clean = true;
    println!(
        "{:<14} {:<15} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1..q3] (spread)",
        "B median [q1..q3] (spread)",
        "change",
        "bound"
    );
    for workload in workloads_of(&a)? {
        for m in &bounds {
            let (va, vb) = (
                values_of(&a, &workload, &m.name),
                values_of(&b, &workload, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload} / {}: missing from one of the sets",
                    m.name
                ));
            }
            let cell = |v: &[f64]| {
                let (q1, med, q3) = quartiles(v);
                format!("{med:.4} [{q1:.4}..{q3:.4}] ({:.1}%)", spread(v) * 100.0)
            };
            let (_, a_med, _) = quartiles(&va);
            let (_, b_med, _) = quartiles(&vb);
            let verdict = judge(&va, &vb, m);
            clean &= !matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            println!(
                "{workload:<14} {:<15} {:>38} {:>38} {:>+7.1}% {:>5.0}%  {}",
                format!("{} [{}]", m.name, m.unit),
                cell(&va),
                cell(&vb),
                (b_med - a_med) / a_med * 100.0,
                m.bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("compare: at least one row is regressed or unresolved");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("compare: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "run_ms_w1".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn around(center: f64, wiggle: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + wiggle * (f64::from(i) - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn the_four_verdicts() {
        let m = lower(0.10);
        let base = around(100.0, 1.0);
        assert_eq!(judge(&base, &around(100.5, 1.0), &m), Verdict::Unchanged);
        assert_eq!(judge(&base, &around(115.0, 1.0), &m), Verdict::Regressed);
        assert_eq!(judge(&base, &around(90.0, 1.0), &m), Verdict::Improved);
        // Spread beyond the bound: no verdict either way ...
        assert_eq!(
            judge(&around(100.0, 30.0), &around(104.0, 30.0), &m),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&around(100.0, 30.0), &around(40.0, 20.0), &m),
            Verdict::Improved
        );
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let m = Bound {
            name: "sessions_per_s".into(),
            unit: "1/s".into(),
            lower_is_better: false,
            bound: 0.10,
        };
        let base = around(4000.0, 20.0);
        assert_eq!(judge(&base, &around(3400.0, 20.0), &m), Verdict::Regressed);
        assert_eq!(judge(&base, &around(4400.0, 20.0), &m), Verdict::Improved);
    }

    #[test]
    fn setup_spread_is_not_gated() {
        let m = Bound {
            name: "setup_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: 0.25,
        };
        assert_eq!(
            judge(&around(1.0, 0.6), &around(1.05, 0.6), &m),
            Verdict::Unchanged
        );
    }

    #[test]
    fn reads_values_per_workload_in_run_order() {
        let set = Json::parse(
            r#"{"runs": [
                {"workload": "a", "seed": 1, "metrics": {"x": 1.5}},
                {"workload": "b", "seed": 1, "metrics": {"x": 9}},
                {"workload": "a", "seed": 2, "metrics": {"x": 2.5}}]}"#,
        )
        .unwrap();
        assert_eq!(workloads_of(&set).unwrap(), ["a", "b"]);
        assert_eq!(values_of(&set, "a", "x"), [1.5, 2.5]);
        assert!(values_of(&set, "a", "y").is_empty());
    }
}
