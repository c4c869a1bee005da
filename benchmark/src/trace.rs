//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written once, at exit, in Chrome trace format
//! (`chrome://tracing`, Perfetto).  Nothing here is compiled into the
//! program under test.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::quote;

/// Nanoseconds on the process-wide monotonic clock all spans share.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Identifier of a recorded span; spans of one repetition or one session
/// share a `group`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(pub u32);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Repetition number or session id shared by related spans.
    pub group: u64,
    /// Display lane (0 = benchmark thread, 1.. = workers / session stages).
    pub lane: u32,
}

/// In-memory span store of a traced run.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        group: u64,
        lane: u32,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            group,
            lane,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Extend a parent span opened before its children were known.
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(name, spans, total ns, self ns)`, where a span's self
    /// time is its duration minus the part its direct children cover
    /// (children of one parent never overlap on one lane; two workers'
    /// children may, so the subtraction saturates at zero).
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                let slot = &mut own[parent.0 as usize];
                *slot = slot.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            let total = s.end_ns - s.start_ns;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Chrome trace JSON: one complete (`"ph": "X"`) event per span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"group\": {}}}}}",
                quote(s.name),
                quote(s.name.split('.').next().unwrap_or(s.name)),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.lane,
                s.group,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let rep = t.record("rep", 0, 1_000, None, 0, 0);
        let run = t.record("spprog.run", 100, 900, Some(rep), 0, 0);
        t.record("racedet.check_thread", 200, 500, Some(run), 0, 1);
        assert_eq!(
            t.self_times(),
            [
                ("rep", 1, 1_000, 200),
                ("spprog.run", 1, 800, 500),
                ("racedet.check_thread", 1, 300, 300)
            ]
        );
        t.close(rep, 1_200);
        assert_eq!(t.self_times()[0], ("rep", 1, 1_200, 400));
    }

    #[test]
    fn chrome_json_parses_and_keeps_the_causal_links() {
        let mut t = Tracer::default();
        let submit = t.record("spservice.submit", 10, 20, None, 42, 0);
        t.record("spservice.queue_wait", 20, 50, Some(submit), 42, 1);
        let doc = Json::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("group").and_then(Json::as_f64), Some(42.0));
        assert_eq!(
            events[1].get("cat").and_then(Json::as_str),
            Some("spservice")
        );
    }
}
