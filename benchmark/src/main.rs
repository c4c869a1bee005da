//! `spbench`: run one workload once (the form the driver calls), or — with
//! no `--trace` — run workloads in child processes and collect them: every
//! workload untraced then traced (the default), or a *set* of untraced runs
//! over consecutive seeds (`--set FILE`) for `compare`.
//!
//! One process measures one workload once, so peak memory and warm-up
//! state never leak from one measurement into the next.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use spbench_e2e::env::Stamp;
use spbench_e2e::json::{quote, Json};
use spbench_e2e::measure::{run_traced, run_untraced, Outcome, RunOptions};
use spbench_e2e::spec::{END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: spbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--smoke] [--out-dir DIR] [--set FILE [--runs R]]

  --workload NAME  one of: spawn-fib read-matmul bfs-100k bfs-100k-racy service-mix
                   (default: all five)
  --seed N         input seed (default 1); a set uses N, N+1, ...
  --seconds S      how long one run measures (default 24; 0.3 with --smoke)
  --trace 0|1      run once in this process: 0 = end-to-end metrics,
                   1 = per-layer metrics and a span file; the last line of
                   standard output is the result object
  --smoke          tiny inputs, to exercise the harness in seconds
  --out-dir DIR    where span files and the summary go (default target/benchmark)
  --set FILE       write R untraced runs per workload to FILE for `compare`
  --runs R         runs per workload in a set (default 10)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out_dir: PathBuf,
    set: Option<PathBuf>,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out_dir: PathBuf::from("target/benchmark"),
        set: None,
        runs: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--set" => args.set = Some(PathBuf::from(value()?)),
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

impl Args {
    fn options(&self) -> RunOptions {
        RunOptions {
            seconds: self.seconds.unwrap_or(if self.smoke { 0.3 } else { 24.0 }),
            seed: self.seed,
            smoke: self.smoke,
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

// ---------------------------------------------------------------------------
// One run in this process
// ---------------------------------------------------------------------------

/// The contract's result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit_of(name))
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

fn run_once(args: &Args, name: &str, traced: bool) -> ExitCode {
    let opts = args.options();
    let stamp = Stamp::capture();
    println!(
        "spbench workload={name} seed={} seconds={} trace={} smoke={}",
        opts.seed,
        opts.seconds,
        u8::from(traced),
        opts.smoke
    );
    let outcome = if traced {
        run_traced(name, &opts)
    } else {
        run_untraced(name, &opts)
    };
    let mut outcome = outcome.expect("workload names were checked while parsing");

    let declared: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let reported: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        reported, declared,
        "a run reports exactly the declared metrics, in order"
    );
    for (name, value) in &mut outcome.metrics {
        let usable = value.is_finite() && (traced || *value > 0.0);
        if !usable && !traced {
            outcome
                .notes
                .push(format!("FAILED {name} is not a positive number ({value})"));
            outcome.failed += 1;
            *value = 0.0;
        } else if !usable {
            // A per-layer ratio over a zero base (one access on `spawn-fib`).
            outcome
                .notes
                .push(format!("{name} is undefined here ({value}); reported as 0"));
            *value = 0.0;
        }
    }

    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value) in &outcome.metrics {
        println!("  {name} = {value} {}", unit_of(name));
    }
    if !outcome.w2_valid {
        println!(
            "  WARNING: rows that need 2 CPUs are INVALID here (fewer than 2 CPUs, or no steal happened)"
        );
    }
    if let Some(tracer) = &outcome.tracer {
        let path = args.out_dir.join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => println!(
                "  {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("spbench: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "stamp {}",
        stamp.to_json(&format!(
            "\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"w2_valid\": {}",
            opts.seed, opts.seconds, opts.smoke, outcome.w2_valid
        ))
    );
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Collecting child runs
// ---------------------------------------------------------------------------

/// What a child run printed on its last line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `"name": value, ...` ready to be wrapped in braces.
    metrics: String,
}

/// Run one workload once in a child process, echo its output, parse its
/// result line.
fn child_run(args: &Args, name: &str, seed: u64, traced: bool) -> Result<ChildResult, String> {
    let opts = args.options();
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last)
        .map_err(|e| format!("{name}: no result line ({e}); exit {}", output.status))?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("{name}: result lacks {k}"))
    };
    let mut metrics = String::new();
    for (i, (metric, entry)) in doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or(format!("{name}: result lacks metrics"))?
        .iter()
        .enumerate()
    {
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("{metric}: no value"))?;
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(metrics, "{sep}{}: {value}", quote(metric));
    }
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: field("attempted")? as u64,
        failed: field("failed")? as u64,
        metrics,
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().map_or(true, |only| only == *n))
        .collect()
}

fn header(args: &Args, stamp: &Stamp) -> String {
    let opts = args.options();
    format!(
        "\"stamp\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}",
        stamp.to_json(""),
        opts.seed,
        opts.seconds,
        opts.smoke
    )
}

/// Every selected workload untraced, then traced; one summary at the end.
fn run_all(args: &Args) -> Result<bool, String> {
    let stamp = Stamp::capture();
    let mut all_correct = true;
    let mut rows = Vec::new();
    for name in selected(args) {
        let untraced = child_run(args, name, args.seed, false)?;
        let traced = child_run(args, name, args.seed, true)?;
        all_correct &= untraced.correct && traced.correct;
        rows.push(format!(
            "{{\"name\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            quote(name),
            untraced.correct && traced.correct,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            untraced.metrics,
            traced.metrics
        ));
    }
    // This benchmark defines the baseline; it claims no gain.
    let summary = format!(
        "{{{}, \"workloads\": [\n  {}\n], \"claim\": null}}\n",
        header(args, &stamp),
        rows.join(",\n  ")
    );
    let path = args.out_dir.join("summary.json");
    write_file(&path, &summary)?;
    println!("summary ({}):", path.display());
    print!("{summary}");
    Ok(all_correct)
}

/// `runs` untraced runs per selected workload over consecutive seeds,
/// workloads interleaved so drift on the box spreads over all of them.
fn run_set(args: &Args, file: &Path) -> Result<bool, String> {
    let stamp = Stamp::capture();
    let mut all_correct = true;
    let mut rows = Vec::new();
    for run in 0..args.runs as u64 {
        for name in selected(args) {
            let seed = args.seed + run;
            let result = child_run(args, name, seed, false)?;
            all_correct &= result.correct;
            rows.push(format!(
                "{{\"workload\": {}, \"seed\": {seed}, \"correct\": {}, \"metrics\": {{{}}}}}",
                quote(name),
                result.correct,
                result.metrics
            ));
        }
    }
    let set = format!(
        "{{{}, \"runs\": [\n  {}\n], \"claim\": null}}\n",
        header(args, &stamp),
        rows.join(",\n  ")
    );
    write_file(file, &set)?;
    println!(
        "set of {} runs per workload written to {}",
        args.runs,
        file.display()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("spbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let (Some(traced), Some(name)) = (args.trace, &args.workload) {
        return run_once(&args, name, traced);
    }
    let collected = match &args.set {
        Some(file) => run_set(&args, file),
        None => run_all(&args),
    };
    match collected {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("spbench: at least one run failed its output checks");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("spbench: {message}");
            ExitCode::FAILURE
        }
    }
}
