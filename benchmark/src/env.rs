//! Environment stamp: what a reader needs to know about the box before
//! trusting a number, and the process-level readings (`VmHWM`, load
//! average) the benchmark reports.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::json::quote;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// 1-minute load average, or -1 when `/proc/loadavg` is unreadable.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(-1.0)
}

/// Peak resident set of this process (`VmHWM`) in MB; `None` where
/// `/proc/self/status` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What [`speed_probe_ms`] reads at the CPU speed every end-to-end time is
/// scaled to.  About what it reads on the box this was built on when the
/// neighbours are quiet; any constant would do, since a benchmark is only
/// ever compared with itself.
pub const PROBE_REFERENCE_MS: f64 = 3.0;

/// The speed probe: four independent multiply-add chains, two million steps
/// each, so the multiplier's throughput and nothing else sets its time.  On a
/// shared host that throughput drifts by tens of percent over minutes (a
/// neighbour on the sibling hyperthread, the core's clock) and everything
/// the benchmark times drifts with it; `README.md` has the measurements.
pub fn speed_probe_ms() -> f64 {
    let start = Instant::now();
    let mut chains = [1u64, 2, 3, 4];
    for step in 0..2_000_000u64 {
        chains[0] = chains[0]
            .wrapping_mul(6364136223846793005)
            .wrapping_add(step);
        chains[1] = chains[1]
            .wrapping_mul(2862933555777941757)
            .wrapping_add(step);
        chains[2] = chains[2]
            .wrapping_mul(3202034522624059733)
            .wrapping_add(step);
        chains[3] = chains[3].wrapping_mul(4294967291).wrapping_add(step);
    }
    black_box(chains);
    start.elapsed().as_secs_f64() * 1e3
}

/// The stamp printed with every run and stored in every set/summary file.
pub struct Stamp {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub cpu: String,
    pub load_before: f64,
}

impl Stamp {
    /// Capture at the start of a run.  `rustc -V` and `git rev-parse` are
    /// asked once; outside a git checkout the commit reads `unknown`.
    pub fn capture() -> Stamp {
        Stamp {
            nproc: nproc(),
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            cpu: cpu_model(),
            load_before: load_average(),
        }
    }

    /// JSON object; `extra` is appended verbatim as further members
    /// (`"key": value, ...`) when non-empty.
    pub fn to_json(&self, extra: &str) -> String {
        let sep = if extra.is_empty() { "" } else { ", " };
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"cpu\": {}, \"load_before\": {}, \"load_after\": {}{sep}{extra}}}",
            self.nproc,
            quote(&self.rustc),
            quote(&self.commit),
            quote(&self.cpu),
            self.load_before,
            load_average(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn stamp_is_valid_json_with_every_field() {
        let stamp = Stamp::capture();
        let doc = Json::parse(&stamp.to_json("\"seed\": 7")).unwrap();
        for key in [
            "nproc",
            "rustc",
            "commit",
            "cpu",
            "load_before",
            "load_after",
            "seed",
        ] {
            assert!(doc.get(key).is_some(), "stamp lacks {key}");
        }
        assert!(doc.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
