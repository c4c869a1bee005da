//! Unified low-overhead metrics and event tracing for the SP-maintenance
//! stack.
//!
//! The paper's central claim (Bender–Fineman–Gilbert–Leiserson, SPAA 2004)
//! is that on-the-fly SP maintenance adds only *bounded* overhead to a
//! work-stealing execution.  This crate is the layer that lets the rest of
//! the workspace **show** that overhead live instead of inferring it after
//! the fact from siloed per-crate totals:
//!
//! * a [`MetricsRegistry`] of lock-free, cache-padded per-worker **counter
//!   slots** ([`CounterId`]) and fixed-bucket **log2 histograms**
//!   ([`HistId`]) — no locks and no allocation on the hot path, aggregation
//!   happens only at [`MetricsRegistry::snapshot`] time;
//! * a bounded, per-slot **ring-buffered structured event trace**
//!   ([`EventKind`]) with monotonic nanosecond timestamps, drained into the
//!   same snapshot and exportable as Chrome `chrome://tracing` JSON via
//!   [`MetricsSnapshot::chrome_trace_json`].
//!
//! Instrumented crates never talk to the registry directly: they hold a
//! [`MetricsHandle`], which is a cloneable `Option<Arc<MetricsRegistry>>`.
//! A **detached** handle (the default) makes every `add`/`record`/`event`
//! call an inlined no-op on a `None` — compile-time zero-cost on release
//! builds — while an **attached** handle routes to the registry.  Hot loops
//! additionally batch into plain local integers and fold once per batch,
//! which is how the measured attached overhead stays within the ≤5% bar
//! (read from `trace.overhead_x_w1/w2` of the repository's benchmark).
//!
//! The event ring is a fixed-capacity seqlock ring per slot: writers claim a
//! sequence number with one `fetch_add` and publish the record with a
//! release store of `seq + 1` into the record's tag; readers accept a record
//! only if the tag reads the *same expected value* before and after copying
//! the payload.  Tags are strictly increasing per cell, so a torn read
//! (writer wrapped the ring mid-copy) is always detected and the record is
//! counted as dropped — overflow **loses events gracefully, never corrupts**.
//! The ring capacity is sized by the `SP_TRACE_BUF` environment knob,
//! validated by [`EnvKnob`] exactly like `om`'s `SP_OM_CHUNK`.
//!
//! ```
//! use spmetrics::{CounterId, EventKind, MetricsHandle, MetricsRegistry};
//!
//! let registry = MetricsRegistry::with_options(4, 64);
//! let handle = MetricsHandle::attached(&registry);
//!
//! // Hot path: counter bumps and trace events, lock- and allocation-free.
//! handle.add(CounterId::Steals, 2);
//! handle.event(EventKind::Steal, /*a=*/ 7, /*b=*/ 1);
//!
//! // Detached handles compile to no-ops and report nothing.
//! let detached = MetricsHandle::detached();
//! detached.add(CounterId::Steals, 1_000);
//! assert!(!detached.is_attached());
//!
//! // Aggregation happens only here.
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter(CounterId::Steals), 2);
//! assert_eq!(snap.events.len(), 1);
//! assert_eq!(snap.events[0].kind, EventKind::Steal);
//! let json = snap.chrome_trace_json();
//! assert_eq!(spmetrics::validate_chrome_trace(&json).unwrap(), 1);
//! ```
//!
//! See `ARCHITECTURE.md#observability-spmetrics`.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam_utils::CachePadded;

/// Environment variable overriding the per-slot trace ring capacity.
pub const TRACE_BUF_ENV: &str = "SP_TRACE_BUF";

/// Default per-slot trace ring capacity (records).
pub const DEFAULT_TRACE_BUF: usize = 1 << 12;

/// Default number of cache-padded metric slots (worker threads hash into
/// these; collisions are safe, merely shared).
pub const DEFAULT_SLOTS: usize = 16;

/// Number of log2 buckets per histogram (one per `u64` bit position).
pub const HIST_BUCKETS: usize = 64;

/// An integer environment knob under the workspace's one validation
/// contract: unset or empty/whitespace keeps the caller's default (CI matrix
/// legs pass `KNOB: ""` for the default configuration); anything else must
/// parse as a positive integer — a power of two if the knob demands one — or
/// the process panics naming the knob, because a knob exists to *force* a
/// value and a typo must fail loudly rather than silently fall back.  The
/// result (default included) is rounded up to a power of two where required
/// and clamped to the supported range.
#[derive(Clone, Copy, Debug)]
pub struct EnvKnob {
    /// The environment variable.
    pub name: &'static str,
    /// What the value counts, for the panic messages ("chunk size").
    pub what: &'static str,
    /// Whether the value must be a power of two.
    pub power_of_two: bool,
    /// Smallest supported value.
    pub min: usize,
    /// Largest supported value.
    pub max: usize,
}

impl EnvKnob {
    /// Validate a raw value of the knob against `default`.
    pub fn parse(&self, value: Option<&str>, default: usize) -> usize {
        let EnvKnob { name, what, .. } = *self;
        let chosen = match value.map(str::trim) {
            None | Some("") => default,
            Some(raw) => {
                let expected = if self.power_of_two { "power-of-two integer" } else { what };
                let n: usize = raw.parse().unwrap_or_else(|_| {
                    panic!("{name}: unparseable value {raw:?} (expected a positive {expected})")
                });
                assert!(n > 0, "{name}: {what} must be positive, got 0");
                assert!(
                    !self.power_of_two || n.is_power_of_two(),
                    "{name}: {what} must be a power of two, got {n}"
                );
                n
            }
        };
        let chosen = if self.power_of_two {
            chosen.next_power_of_two()
        } else {
            chosen
        };
        chosen.clamp(self.min, self.max)
    }

    /// The knob's validated value from the process environment.
    pub fn from_env(&self, default: usize) -> usize {
        self.parse(std::env::var(self.name).ok().as_deref(), default)
    }
}

/// The `SP_TRACE_BUF` knob: a power-of-two record count in `[8, 1 << 20]`.
pub const TRACE_BUF_KNOB: EnvKnob = EnvKnob {
    name: TRACE_BUF_ENV,
    what: "ring capacity",
    power_of_two: true,
    min: 8,
    max: 1 << 20,
};

/// Validate an `SP_TRACE_BUF` override ([`EnvKnob::parse`]).
pub fn parse_trace_buf_env(value: Option<&str>, default: usize) -> usize {
    TRACE_BUF_KNOB.parse(value, default)
}

macro_rules! id_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order (= index order).
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];
            /// Number of variants (array dimensions in the registry).
            pub const COUNT: usize = $name::ALL.len();

            /// Stable snake-case label (snapshot rendering, Chrome export).
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

id_enum! {
    /// Monotonic counters aggregated across all slots at snapshot time.
    pub enum CounterId {
        /// Successful steals in the live runtime.
        Steals => "steals",
        /// Steal attempts that lost the per-victim lock or raced empty.
        FailedSteals => "failed_steals",
        /// Idle snooze/park episodes in the steal loop (rate-limited).
        Parks => "parks",
        /// Spawned procedures (live runs).
        Spawns => "spawns",
        /// SP threads executed (live runs).
        Threads => "threads",
        /// Order-maintenance slab chunks published past the initial one.
        OmGrowth => "om_growth",
        /// Union-find slab chunks published past the initial one.
        DsuGrowth => "dsu_growth",
        /// Shadow accesses resolved by the lock-free silent-read tier.
        ShadowLockFree => "shadow_lock_free",
        /// Shadow accesses resolved by the owner-hint tier.
        ShadowOwnerHint => "shadow_owner_hint",
        /// Shadow access groups that took a striped shard lock.
        ShadowLocked => "shadow_locked",
        /// Races recorded into reports.
        RacesFound => "races_found",
        /// Sessions submitted to the detection service.
        SessionsSubmitted => "sessions_submitted",
        /// Sessions admitted (leased an arena, left the queue).
        SessionsAdmitted => "sessions_admitted",
        /// Sessions completed with a report.
        SessionsCompleted => "sessions_completed",
        /// Sessions quarantined after a panicking user closure.
        SessionsQuarantined => "sessions_quarantined",
        /// Epoch-arena generation bumps (session recycles).
        ArenaResets => "arena_resets",
        /// Epoch-arena full purges (generation wraparound or quarantine).
        ArenaPurges => "arena_purges",
        /// Determinacy-enforcement hash mismatches.
        EnforcementMismatches => "enforcement_mismatches",
    }
}

id_enum! {
    /// Fixed-bucket log2 histograms: `record(v)` bumps bucket
    /// `floor(log2(v))` (bucket 0 also holds `v == 0`).
    pub enum HistId {
        /// Session queue wait, nanoseconds.
        QueueWaitNs => "queue_wait_ns",
        /// Session run time (inside a service worker), nanoseconds.
        SessionRunNs => "session_run_ns",
        /// Whole-run elapsed time (`run_program`), nanoseconds.
        RunElapsedNs => "run_elapsed_ns",
    }
}

id_enum! {
    /// Structured trace-event kinds.  The two payload words `a`/`b` are
    /// kind-specific (session id + mode, victim + worker, new capacity, …).
    pub enum EventKind {
        /// Session submitted; `a` = session sequence id.
        SessionSubmitted => "session_submitted",
        /// Session admitted; `a` = session id, `b` = queue wait (ns).
        SessionAdmitted => "session_admitted",
        /// Session started running; `a` = session id, `b` = arena generation.
        SessionStarted => "session_started",
        /// Session finished; `a` = session id, `b` = races found.
        SessionFinished => "session_finished",
        /// Successful steal; `a` = victim worker, `b` = thief worker.
        Steal => "steal",
        /// Idle park/snooze episode; `a` = worker, `b` = snoozes so far.
        Park => "park",
        /// Epoch arena recycled; `a` = new generation, `b` = arena locations.
        ArenaRecycle => "arena_recycle",
        /// Epoch arena purged; `a` = generation at purge, `b` = locations.
        ArenaPurge => "arena_purge",
        /// OM slab grew; `a` = new capacity (slots).
        OmGrow => "om_grow",
        /// Union-find slab grew; `a` = new capacity (elements).
        DsuGrow => "dsu_grow",
        /// Race recorded; `a` = location, `b` = batch index.
        RaceFound => "race_found",
        /// Determinacy-enforcement mismatch; `a` = workers.
        EnforcementMismatch => "enforcement_mismatch",
        /// Instrumented run started; `a` = workers (0 = serial).
        RunStarted => "run_started",
        /// Instrumented run finished; `a` = threads, `b` = steals.
        RunFinished => "run_finished",
    }
}

/// One published trace record: 5 words, written lock-free under a seqlock
/// tag.
struct RingCell {
    /// `0` while a writer owns the cell, `seq + 1` once record `seq` is
    /// fully published.  Strictly increasing over the cell's lifetime.
    tag: AtomicU64,
    kind: AtomicU64,
    ts_ns: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl RingCell {
    fn empty() -> Self {
        RingCell {
            tag: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            ts_ns: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Per-slot storage: counters, histogram buckets, and the bounded event
/// ring.  One cache-padded slot per (hashed) worker thread.
struct Slot {
    counters: [AtomicU64; CounterId::COUNT],
    hists: [[AtomicU64; HIST_BUCKETS]; HistId::COUNT],
    /// Next ring sequence number; `fetch_add` claims a cell, so concurrent
    /// writers that collide on one slot still never write the same cell for
    /// the same sequence number.
    ring_head: AtomicU64,
    ring: Box<[RingCell]>,
}

impl Slot {
    fn new(ring_cap: usize) -> Self {
        Slot {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            ring_head: AtomicU64::new(0),
            ring: (0..ring_cap).map(|_| RingCell::empty()).collect(),
        }
    }
}

/// Registry of per-worker counter/histogram slots plus bounded event rings.
///
/// Construction is the only allocation; everything on the write path is a
/// relaxed atomic bump or a seqlock ring publish.  Aggregation across slots
/// happens only in [`MetricsRegistry::snapshot`], which can run at any time
/// while writers keep writing (torn ring records are dropped, never
/// surfaced).
pub struct MetricsRegistry {
    epoch: Instant,
    slots: Vec<CachePadded<Slot>>,
    ring_cap: usize,
}

/// Process-wide thread sequence used to assign threads to slots.
static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_INDEX: u64 = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
}

impl MetricsRegistry {
    /// Registry with default slot count and the `SP_TRACE_BUF`-validated
    /// default ring capacity.
    pub fn new() -> Arc<Self> {
        Self::with_options(DEFAULT_SLOTS, TRACE_BUF_KNOB.from_env(DEFAULT_TRACE_BUF))
    }

    /// Registry with explicit slot count and per-slot ring capacity (both
    /// rounded up to powers of two; tests use tiny rings to exercise
    /// wraparound deterministically).
    pub fn with_options(slots: usize, ring_cap: usize) -> Arc<Self> {
        let slots = slots.max(1).next_power_of_two();
        let ring_cap = ring_cap.max(2).next_power_of_two();
        Arc::new(MetricsRegistry {
            epoch: Instant::now(),
            slots: (0..slots).map(|_| CachePadded::new(Slot::new(ring_cap))).collect(),
            ring_cap,
        })
    }

    /// Per-slot ring capacity in records.
    pub fn ring_capacity(&self) -> usize {
        self.ring_cap
    }

    /// Number of cache-padded slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since this registry was created (monotonic).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    #[inline]
    fn slot(&self) -> &Slot {
        let idx = THREAD_INDEX.with(|i| *i) as usize;
        &self.slots[idx & (self.slots.len() - 1)]
    }

    /// Bump a counter by `n` in the calling thread's slot.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if n != 0 {
            self.slot().counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one sample into a log2 histogram.
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        let bucket = if v == 0 { 0 } else { 63 - v.leading_zeros() as usize };
        self.slot().hists[id as usize][bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Publish a trace event into the calling thread's slot ring.  Bounded:
    /// once the ring wraps, the oldest records are overwritten (and counted
    /// as dropped at snapshot time).
    #[inline]
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        let ts = self.now_ns();
        let slot = self.slot();
        let seq = slot.ring_head.fetch_add(1, Ordering::Relaxed);
        let cell = &slot.ring[(seq as usize) & (self.ring_cap - 1)];
        // Seqlock publish: invalidate, write payload, publish `seq + 1`.
        cell.tag.store(0, Ordering::Release);
        cell.kind.store(kind as u64, Ordering::Relaxed);
        cell.ts_ns.store(ts, Ordering::Relaxed);
        cell.a.store(a, Ordering::Relaxed);
        cell.b.store(b, Ordering::Relaxed);
        cell.tag.store(seq + 1, Ordering::Release);
    }

    /// Aggregate counters, histograms, and the drainable tail of every
    /// event ring into an owned [`MetricsSnapshot`].  Safe to call at any
    /// time — concurrent writers only cost the snapshot torn records, which
    /// land in [`MetricsSnapshot::events_dropped`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; CounterId::COUNT];
        let mut hists = [[0u64; HIST_BUCKETS]; HistId::COUNT];
        let mut events = Vec::new();
        let mut published: u64 = 0;
        for (slot_idx, slot) in self.slots.iter().enumerate() {
            for (acc, c) in counters.iter_mut().zip(slot.counters.iter()) {
                *acc += c.load(Ordering::Relaxed);
            }
            for (hacc, h) in hists.iter_mut().zip(slot.hists.iter()) {
                for (bacc, b) in hacc.iter_mut().zip(h.iter()) {
                    *bacc += b.load(Ordering::Relaxed);
                }
            }
            let head = slot.ring_head.load(Ordering::Acquire);
            published += head;
            let start = head.saturating_sub(self.ring_cap as u64);
            for seq in start..head {
                let cell = &slot.ring[(seq as usize) & (self.ring_cap - 1)];
                let expect = seq + 1;
                if cell.tag.load(Ordering::Acquire) != expect {
                    continue;
                }
                let kind = cell.kind.load(Ordering::Relaxed);
                let ts_ns = cell.ts_ns.load(Ordering::Relaxed);
                let a = cell.a.load(Ordering::Relaxed);
                let b = cell.b.load(Ordering::Relaxed);
                // Order the payload loads before the tag re-check: if a
                // writer invalidated the cell mid-copy the tag can no longer
                // read `seq + 1` (tags strictly increase), so a torn record
                // is always rejected.
                fence(Ordering::Acquire);
                if cell.tag.load(Ordering::Acquire) != expect {
                    continue;
                }
                let Some(kind) = EventKind::ALL.get(kind as usize).copied() else {
                    continue;
                };
                events.push(TraceEvent { seq, slot: slot_idx as u32, kind, ts_ns, a, b });
            }
        }
        events.sort_by_key(|e| (e.ts_ns, e.slot, e.seq));
        let events_dropped = published - events.len() as u64;
        MetricsSnapshot { counters, hists, events, events_dropped }
    }
}

/// Cloneable, optionally-attached entry point held by instrumented crates.
///
/// Detached (the default) every method is an inlined no-op; attached it
/// forwards to the shared [`MetricsRegistry`].  Hot paths should batch into
/// locals and fold once per batch, gated on [`MetricsHandle::is_attached`].
#[derive(Clone, Default)]
pub struct MetricsHandle(Option<Arc<MetricsRegistry>>);

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MetricsHandle")
            .field(&if self.0.is_some() { "attached" } else { "detached" })
            .finish()
    }
}

impl MetricsHandle {
    /// The no-op handle: every call vanishes.
    #[inline]
    pub const fn detached() -> Self {
        MetricsHandle(None)
    }

    /// Handle routing to `registry`.
    pub fn attached(registry: &Arc<MetricsRegistry>) -> Self {
        MetricsHandle(Some(Arc::clone(registry)))
    }

    /// Is a registry attached?  Use to gate batching work that would
    /// otherwise be wasted.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.0.as_ref()
    }

    /// Bump a counter (no-op when detached).
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(r) = &self.0 {
            r.add(id, n);
        }
    }

    /// Record a histogram sample (no-op when detached).
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        if let Some(r) = &self.0 {
            r.record(id, v);
        }
    }

    /// Publish a trace event (no-op when detached).
    #[inline]
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.0 {
            r.event(kind, a, b);
        }
    }

    /// Monotonic nanoseconds since the attached registry's epoch (0 when
    /// detached — only meaningful for deltas, and only when attached).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.as_ref().map_or(0, |r| r.now_ns())
    }
}

/// One drained trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-slot sequence number (dense per slot, gaps = overwritten).
    pub seq: u64,
    /// Slot index the publishing thread hashed into.
    pub slot: u32,
    /// What happened.
    pub kind: EventKind,
    /// Monotonic nanoseconds since the registry epoch.
    pub ts_ns: u64,
    /// Kind-specific payload word.
    pub a: u64,
    /// Kind-specific payload word.
    pub b: u64,
}

/// Owned aggregation of a registry at one instant: summed counters, summed
/// histogram buckets, and the surviving tail of every event ring (sorted by
/// timestamp).
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    counters: [u64; CounterId::COUNT],
    hists: [[u64; HIST_BUCKETS]; HistId::COUNT],
    /// Drained events, sorted by `(ts_ns, slot, seq)`.
    pub events: Vec<TraceEvent>,
    /// Records published but not drained: overwritten by ring wraparound or
    /// torn by a concurrent writer during the snapshot.
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    /// Aggregated value of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// Aggregated log2 buckets of one histogram; bucket `i` counts samples
    /// in `[2^i, 2^(i+1))` (bucket 0 also holds zero samples).
    pub fn histogram(&self, id: HistId) -> &[u64; HIST_BUCKETS] {
        &self.hists[id as usize]
    }

    /// Total samples recorded into one histogram.
    pub fn histogram_count(&self, id: HistId) -> u64 {
        self.hists[id as usize].iter().sum()
    }

    /// Events of one kind, in timestamp order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Render the drained events as Chrome `chrome://tracing` JSON (the
    /// "JSON Array Format" wrapped in an object): one instant event per
    /// record, `tid` = slot, timestamps in microseconds.  Load the emitted
    /// file via `chrome://tracing` or Perfetto.  Round-trip-checked by
    /// [`validate_chrome_trace`].
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let us_whole = e.ts_ns / 1_000;
            let us_frac = e.ts_ns % 1_000;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\
                 \"ts\":{us_whole}.{us_frac:03},\"args\":{{\"a\":{},\"b\":{},\"seq\":{}}}}}",
                e.kind.name(),
                e.slot,
                e.a,
                e.b,
                e.seq,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Structurally validate a [`MetricsSnapshot::chrome_trace_json`] document
/// and return the number of trace events it carries.  Checks the envelope,
/// splits the top-level array, and requires every record to carry the
/// `name`/`ph`/`tid`/`ts` keys with a known [`EventKind`] name — enough to
/// prove the export round-trips without a JSON parser dependency.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    const PREFIX: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    const SUFFIX: &str = "]}";
    let body = json
        .strip_prefix(PREFIX)
        .ok_or_else(|| "missing traceEvents envelope".to_string())?
        .strip_suffix(SUFFIX)
        .ok_or_else(|| "unterminated traceEvents array".to_string())?;
    if body.is_empty() {
        return Ok(0);
    }
    let mut count = 0usize;
    // Records contain no nested-object commas except inside `args`, so split
    // on the `},{` record boundary.
    for record in body.split("}},{") {
        let record = record.trim_start_matches('{');
        for key in ["\"name\":\"", "\"ph\":\"i\"", "\"tid\":", "\"ts\":", "\"args\":{"] {
            if !record.contains(key) {
                return Err(format!("record {count} missing {key}: {record:?}"));
            }
        }
        let name_at = record.find("\"name\":\"").expect("checked") + "\"name\":\"".len();
        let name_end = record[name_at..]
            .find('"')
            .ok_or_else(|| format!("record {count} has an unterminated name"))?;
        let name = &record[name_at..name_at + name_end];
        if !EventKind::ALL.iter().any(|k| k.name() == name) {
            return Err(format!("record {count} has unknown event kind {name:?}"));
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_is_a_no_op() {
        let h = MetricsHandle::detached();
        assert!(!h.is_attached());
        h.add(CounterId::Steals, 5);
        h.record(HistId::RunElapsedNs, 123);
        h.event(EventKind::Steal, 0, 0);
        assert_eq!(h.now_ns(), 0);
        assert!(h.registry().is_none());
    }

    #[test]
    fn counters_aggregate_across_slots() {
        let r = MetricsRegistry::with_options(4, 16);
        let h = MetricsHandle::attached(&r);
        h.add(CounterId::Steals, 3);
        h.add(CounterId::Steals, 4);
        h.add(CounterId::RacesFound, 1);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || h.add(CounterId::Steals, 10))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter(CounterId::Steals), 47);
        assert_eq!(snap.counter(CounterId::RacesFound), 1);
        assert_eq!(snap.counter(CounterId::Parks), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let r = MetricsRegistry::with_options(1, 8);
        let h = MetricsHandle::attached(&r);
        h.record(HistId::QueueWaitNs, 0); // bucket 0
        h.record(HistId::QueueWaitNs, 1); // bucket 0
        h.record(HistId::QueueWaitNs, 2); // bucket 1
        h.record(HistId::QueueWaitNs, 3); // bucket 1
        h.record(HistId::QueueWaitNs, 1024); // bucket 10
        h.record(HistId::QueueWaitNs, u64::MAX); // bucket 63
        let snap = r.snapshot();
        let buckets = snap.histogram(HistId::QueueWaitNs);
        assert_eq!(buckets[0], 2);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[10], 1);
        assert_eq!(buckets[63], 1);
        assert_eq!(snap.histogram_count(HistId::QueueWaitNs), 6);
        assert_eq!(snap.histogram_count(HistId::SessionRunNs), 0);
    }

    #[test]
    fn events_drain_in_order_with_monotonic_timestamps() {
        let r = MetricsRegistry::with_options(1, 64);
        let h = MetricsHandle::attached(&r);
        for i in 0..10u64 {
            h.event(EventKind::RaceFound, i, 100 + i);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 10);
        assert_eq!(snap.events_dropped, 0);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.kind, EventKind::RaceFound);
            assert_eq!(e.a, i as u64);
            assert_eq!(e.seq, i as u64);
        }
        for pair in snap.events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns, "timestamps must be monotonic");
        }
    }

    /// Wraparound loses the oldest events and reports them as dropped; the
    /// surviving tail is contiguous and uncorrupted.
    #[test]
    fn ring_wraparound_loses_events_gracefully() {
        let r = MetricsRegistry::with_options(1, 8);
        let h = MetricsHandle::attached(&r);
        for i in 0..100u64 {
            h.event(EventKind::Steal, i, 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 8, "ring keeps exactly its capacity");
        assert_eq!(snap.events_dropped, 92);
        let tail: Vec<u64> = snap.events.iter().map(|e| e.a).collect();
        assert_eq!(tail, (92..100).collect::<Vec<_>>(), "tail is the newest events");
    }

    /// Concurrent writers hammering one tiny ring never corrupt a drained
    /// record: every accepted record must be one that some writer published.
    #[test]
    fn concurrent_ring_writers_never_corrupt() {
        let r = MetricsRegistry::with_options(1, 8);
        let stop = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let h = MetricsHandle::attached(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        // Self-consistent payload: b must equal a ^ w-salt.
                        let a = w * 1_000_000 + i;
                        h.event(EventKind::Park, a, a ^ 0xdead_beef);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let snap = r.snapshot();
            for e in &snap.events {
                assert_eq!(e.kind, EventKind::Park);
                assert_eq!(e.b, e.a ^ 0xdead_beef, "torn record survived the seqlock");
            }
        }
        stop.store(1, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn chrome_trace_round_trips() {
        let r = MetricsRegistry::with_options(2, 16);
        let h = MetricsHandle::attached(&r);
        h.event(EventKind::SessionSubmitted, 1, 0);
        h.event(EventKind::Steal, 0, 1);
        h.event(EventKind::RaceFound, 42, 7);
        let snap = r.snapshot();
        let json = snap.chrome_trace_json();
        assert_eq!(validate_chrome_trace(&json).unwrap(), snap.events.len());
        assert!(json.contains("\"name\":\"race_found\""));

        let empty = MetricsRegistry::with_options(1, 8).snapshot();
        assert_eq!(validate_chrome_trace(&empty.chrome_trace_json()).unwrap(), 0);

        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace(
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{\"name\":\"bogus\",\"ph\":\"i\",\
             \"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"args\":{\"a\":0,\"b\":0,\"seq\":0}}]}"
        )
        .is_err());
    }

    // ---- SP_TRACE_BUF validation, one test per accepted/rejected class. ----

    #[test]
    fn trace_buf_env_unset_or_empty_keeps_default() {
        assert_eq!(parse_trace_buf_env(None, 4096), 4096);
        assert_eq!(parse_trace_buf_env(Some(""), 4096), 4096);
        assert_eq!(parse_trace_buf_env(Some("  \t"), 4096), 4096);
    }

    #[test]
    fn trace_buf_env_accepts_powers_of_two_and_clamps() {
        assert_eq!(parse_trace_buf_env(Some("64"), 4096), 64);
        assert_eq!(parse_trace_buf_env(Some(" 1024 "), 4096), 1024);
        // Below the floor: clamped up.
        assert_eq!(parse_trace_buf_env(Some("2"), 4096), 8);
        // Above the ceiling: clamped down.
        assert_eq!(parse_trace_buf_env(Some("2097152"), 4096), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "SP_TRACE_BUF: unparseable value")]
    fn trace_buf_env_rejects_garbage() {
        parse_trace_buf_env(Some("lots"), 4096);
    }

    #[test]
    #[should_panic(expected = "SP_TRACE_BUF: unparseable value")]
    fn trace_buf_env_rejects_negative() {
        parse_trace_buf_env(Some("-8"), 4096);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive, got 0")]
    fn trace_buf_env_rejects_zero() {
        parse_trace_buf_env(Some("0"), 4096);
    }

    #[test]
    #[should_panic(expected = "must be a power of two, got 48")]
    fn trace_buf_env_rejects_non_power_of_two() {
        parse_trace_buf_env(Some("48"), 4096);
    }

    #[test]
    fn id_enums_have_stable_names_and_indices() {
        assert_eq!(CounterId::ALL.len(), CounterId::COUNT);
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        assert_eq!(EventKind::Steal.name(), "steal");
        assert_eq!(HistId::QueueWaitNs.name(), "queue_wait_ns");
    }
}
