//! The two-tier structure of §4–§7, driven by maintenance *events* rather
//! than by any particular source of them.
//!
//! Everything SP-hybrid needs to know arrives with the event stream — which
//! procedure a thread belongs to, which procedure spawns which, which trace
//! a steal splits — so the structure holds no program representation:
//!
//! * the **global tier** is [`GlobalTier`]'s concurrent English / Hebrew
//!   order-maintenance lists over traces, insertions only at steals;
//! * the **local tier** is per-trace SP-bags over the concurrent union-find,
//!   keyed by *procedure ids*;
//! * a steal consumes the scheduler's steal token: the victim's trace
//!   (carried in the token) splits five ways (Figure 8, lines 19–24), the
//!   stolen continuation runs under U⁽⁴⁾ and the post-join code under U⁽⁵⁾.
//!
//! A live `spprog` run feeds it procedure ids the runtime allocates as
//! procedures are instantiated; the tree-driven [`crate::SpHybrid`] feeds it
//! `proc_of` / `spawned_proc` of a materialized parse tree.  Both run on the
//! same `forkrt` runtime.
//!
//! The two substrates grow on demand (chunked slabs published with release
//! stores, addressed by readers with acquire loads — see
//! `ARCHITECTURE.md#growable-epoch-published-substrates`), so a live run
//! needs **no budgets**: [`LiveHybridConfig`] only carries initial-capacity
//! hints, and a program may execute any number of threads and suffer any
//! number of steals without a capacity panic anywhere on the live path.
//!
//! Like the paper's SP-hybrid, all of this is correct only for *determinate*
//! programs — the driving runtime can check that assumption per run via
//! `spprog`'s `RunConfig::enforced`, which compares a schedule-independent
//! structural hash of the unfolding against the program's serial reference
//! (`ARCHITECTURE.md#enforced-determinacy`).
//!
//! See `ARCHITECTURE.md#live-execution-spprog`.

use forkrt::StealTokens;
use spmaint::api::CurrentSpQuery;
use sptree::tree::{ProcId, ThreadId};

use crate::global_tier::GlobalTier;
use crate::local_tier::{BagKind, LocalTier};
use crate::trace::{TraceArena, TraceId};

/// Initial-capacity hints of a live SP-hybrid run.
///
/// Both fields are **hints only** (kept under their historical names for
/// source compatibility): they size the first chunk of each growable
/// substrate, and the structures grow on demand past them.  Exceeding a hint
/// costs one chunk publication, never a panic.
#[derive(Clone, Copy, Debug)]
pub struct LiveHybridConfig {
    /// Expected number of threads (initial size of the shared union-find's
    /// first chunk; the slab grows past it on demand).
    pub max_threads: usize,
    /// Expected number of steals (each creates 4 traces; sizes the first
    /// chunk of the global tier's order-maintenance slabs, which grow past
    /// it on demand).
    pub max_steals: usize,
}

impl Default for LiveHybridConfig {
    fn default() -> Self {
        LiveHybridConfig {
            max_threads: 1 << 10,
            max_steals: 1 << 7,
        }
    }
}

/// What one steal did to the trace structure.
#[derive(Clone, Copy, Debug)]
pub struct TraceSplit {
    /// The four traces created: U⁽¹⁾, U⁽²⁾, U⁽⁴⁾, U⁽⁵⁾ (U⁽³⁾ is the victim).
    pub created: [TraceId; 4],
    /// Position of this split in global-tier insertion order (1-based).
    pub seq: u64,
}

impl TraceSplit {
    /// U⁽⁴⁾, the trace of the stolen continuation.
    pub fn stolen(&self) -> TraceId {
        self.created[2]
    }

    /// U⁽⁵⁾, the trace of the code after the join.
    pub fn after(&self) -> TraceId {
        self.created[3]
    }

    /// The scheduler tokens of this steal: U⁽⁴⁾ for the stolen right
    /// subtree, U⁽⁵⁾ for everything after the join.
    pub fn tokens(&self) -> StealTokens {
        StealTokens {
            right: self.stolen().to_token(),
            after: self.after().to_token(),
        }
    }
}

/// Current-thread queries of one executing thread: the structure plus the
/// trace that thread runs in ([`LiveSpHybrid::view`]).
pub struct TraceView<'a> {
    hybrid: &'a LiveSpHybrid,
    trace: TraceId,
}

impl CurrentSpQuery for TraceView<'_> {
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        self.hybrid.precedes_current(earlier, self.trace)
    }
}

/// The two-tier parallel SP-maintenance structure.
///
/// Query semantics follow the paper (Figure 9):
/// [`LiveSpHybrid::precedes_current`] relates an already-executed thread to
/// the **currently executing** thread of a given trace.  The structure
/// expects events in canonical Cilk form (procedures and sync blocks);
/// arbitrary fork-join programs can be brought into that form by adding
/// empty threads (paper footnote 6).
pub struct LiveSpHybrid {
    global: GlobalTier,
    local: LocalTier,
    traces: TraceArena,
    root_trace: TraceId,
}

impl LiveSpHybrid {
    /// Build an empty structure; `config` only seeds the initial chunk sizes
    /// of the growable substrates.
    pub fn new(config: LiveHybridConfig) -> Self {
        let initial_traces = 4 * config.max_steals + 16;
        let (global, eng_base, heb_base) = GlobalTier::new(initial_traces.max(4));
        let (traces, root_trace) = TraceArena::new(eng_base, heb_base);
        LiveSpHybrid {
            global,
            local: LocalTier::new(config.max_threads.max(1)),
            traces,
            root_trace,
        }
    }

    /// The trace the computation starts in (encode it as the scheduler's
    /// initial token).
    pub fn root_trace(&self) -> TraceId {
        self.root_trace
    }

    /// Number of traces created so far (4·steals + 1).
    pub fn num_traces(&self) -> usize {
        self.traces.len()
    }

    /// Global-tier insertions performed so far (one per steal).
    pub fn global_insertions(&self) -> u64 {
        self.global.insertions()
    }

    /// Lock-free query attempts that had to be retried.
    pub fn query_retries(&self) -> u64 {
        self.global.query_retries()
    }

    /// Approximate heap bytes used by the two tiers.
    pub fn space_bytes(&self) -> usize {
        self.global.space_bytes() + self.local.space_bytes()
    }

    /// Substrate chunks published after construction (order-maintenance
    /// lists + union-find) — how often the run outgrew its initial hints.
    pub fn grow_events(&self) -> u64 {
        self.global.grow_events() + self.local.grow_events()
    }

    /// Route substrate growth events (order-maintenance slabs + union-find)
    /// to `metrics`.  Only the rare chunk-publication paths consult the
    /// handle, so an attached registry costs nothing per query or per
    /// maintenance event.
    pub fn attach_metrics(&self, metrics: &spmetrics::MetricsHandle) {
        self.global.attach_metrics(metrics);
        self.local.attach_metrics(metrics);
    }

    /// Which trace does an already-executed thread currently belong to, and
    /// is its bag an S-bag?  (`FIND-TRACE`; diagnostics and tests.)
    pub fn find_trace(&self, thread: ThreadId) -> (TraceId, bool) {
        let (trace, kind) = self.local.find_trace(thread);
        (trace, kind == BagKind::S)
    }

    /// `SP-PRECEDES(earlier, current)` (Figure 9): does the already-executed
    /// thread `earlier` logically precede the currently executing thread,
    /// which runs as part of `current_trace`?
    pub fn precedes_current(&self, earlier: ThreadId, current_trace: TraceId) -> bool {
        let (trace, kind) = self.local.find_trace(earlier);
        if trace == current_trace {
            kind == BagKind::S
        } else {
            let a = self.traces.get(trace);
            let b = self.traces.get(current_trace);
            self.global.precedes((a.eng, a.heb), (b.eng, b.heb))
        }
    }

    /// The [`CurrentSpQuery`] view of the thread currently executing in
    /// `trace` — what a detector checks that thread's accesses under.
    pub fn view(&self, trace: TraceId) -> TraceView<'_> {
        TraceView {
            hybrid: self,
            trace,
        }
    }

    // ------------------------------------------------------------------
    // Maintenance events, invoked by the runtime's visitor.
    // ------------------------------------------------------------------

    /// Line 3 of Figure 8: `thread` (of procedure `proc`, running as part of
    /// `trace`) starts executing — insert it into the procedure's S-bag.
    pub fn thread_executed(&self, proc: ProcId, thread: ThreadId, trace: TraceId) {
        let state = self.traces.get(trace);
        let mut local = state.local.lock();
        self.local.thread_executed(&mut local, trace, proc, thread);
    }

    /// The child procedure `child` spawned by `proc` returned without its
    /// continuation having been stolen: fold the child's S-bag into `proc`'s
    /// P-bag.
    pub fn child_returned(&self, proc: ProcId, child: ProcId, trace: TraceId) {
        let state = self.traces.get(trace);
        let mut local = state.local.lock();
        self.local.child_returned(&mut local, trace, proc, child);
    }

    /// A spawn of `proc` completed unstolen through its join point: fold the
    /// P-bag into the S-bag (the `sync` of the canonical form).
    pub fn synced(&self, proc: ProcId, trace: TraceId) {
        let state = self.traces.get(trace);
        let mut local = state.local.lock();
        self.local.sync(&mut local, trace, proc);
    }

    /// Lines 19–24 of Figure 8: the continuation of a spawn in procedure
    /// `proc` was stolen from `victim_trace`.  Creates the four new traces
    /// in the global orders and splits the victim's local tier in O(1).
    pub fn split(&self, proc: ProcId, victim_trace: TraceId) -> TraceSplit {
        let u_state = self.traces.get(victim_trace);
        let handles = self.global.insert_split(u_state.eng, u_state.heb);
        let u1 = self.traces.push(handles.u1.0, handles.u1.1);
        let u2 = self.traces.push(handles.u2.0, handles.u2.1);
        let u4 = self.traces.push(handles.u4.0, handles.u4.1);
        let u5 = self.traces.push(handles.u5.0, handles.u5.1);
        {
            let mut local = u_state.local.lock();
            self.local.split(&mut local, proc, u1, u2);
        }
        TraceSplit {
            created: [u1, u2, u4, u5],
            seq: handles.seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay the serial event stream of `main { u0; spawn child {u1; u2};
    /// u3; sync; u4 }` and check Figure-9 answers at every step.
    #[test]
    fn serial_event_stream_answers_like_sp_bags() {
        let h = LiveSpHybrid::new(LiveHybridConfig { max_threads: 16, max_steals: 4 });
        let u = h.root_trace();
        let (main, child) = (ProcId(0), ProcId(1));

        h.thread_executed(main, ThreadId(0), u);
        h.thread_executed(child, ThreadId(1), u);
        assert!(h.precedes_current(ThreadId(1), u), "same procedure, serial");
        h.thread_executed(child, ThreadId(2), u);
        h.child_returned(main, child, u);
        h.thread_executed(main, ThreadId(3), u);
        // The child's threads are parallel to the continuation...
        assert!(!h.precedes_current(ThreadId(1), u));
        assert!(!h.precedes_current(ThreadId(2), u));
        // ...but the spawn-preceding thread of main still precedes.
        assert!(h.precedes_current(ThreadId(0), u));
        h.synced(main, u);
        h.thread_executed(main, ThreadId(4), u);
        for t in 0..4 {
            assert!(h.precedes_current(ThreadId(t), u), "after sync, u{t} precedes");
        }
        assert_eq!(h.num_traces(), 1);
        assert_eq!(h.global_insertions(), 0);
    }

    /// A split moves the stolen procedure's bags into U⁽¹⁾/U⁽²⁾ and orders
    /// the new traces per Figure 12.
    #[test]
    fn split_consumes_steal_and_orders_traces() {
        let h = LiveSpHybrid::new(LiveHybridConfig { max_threads: 16, max_steals: 4 });
        let u = h.root_trace();
        let (main, child) = (ProcId(0), ProcId(1));
        // main runs u0, spawns child; the victim descends into the child
        // while a thief steals the continuation.
        h.thread_executed(main, ThreadId(0), u);
        let split = h.split(main, u);
        let (u4, u5) = (split.stolen(), split.after());
        assert_eq!((split.seq, split.tokens().right), (1, u4.to_token()));
        assert_eq!(h.num_traces(), 5);
        assert_eq!(h.global_insertions(), 1);
        // The victim keeps executing the child's body in U (= U3).
        h.thread_executed(child, ThreadId(1), u);
        // The thief executes the continuation thread in U4.
        h.thread_executed(main, ThreadId(2), u4);
        // u0 moved to U1: precedes both sides.
        assert!(h.precedes_current(ThreadId(0), u));
        assert!(h.precedes_current(ThreadId(0), u4));
        // Child body (U3) and stolen continuation (U4) are parallel.
        assert!(!h.precedes_current(ThreadId(1), u4));
        assert!(!h.precedes_current(ThreadId(2), u));
        // Everything precedes the post-join trace U5.
        for t in 0..3 {
            assert!(h.precedes_current(ThreadId(t), u5), "u{t} precedes the join");
        }
    }

    /// Regression for the old budget behavior: exceeding `max_threads` used
    /// to panic with guidance; the hint is now just an initial chunk size
    /// and both tiers grow through it without disturbing query answers.
    #[test]
    fn exceeding_the_hints_grows_instead_of_panicking() {
        let h = LiveSpHybrid::new(LiveHybridConfig { max_threads: 2, max_steals: 1 });
        let u = h.root_trace();
        let main = ProcId(0);
        // Thread ids far past the hint: the union-find grows on demand.
        for t in 0..200 {
            h.thread_executed(main, ThreadId(t), u);
        }
        // Steals far past the hint: the order-maintenance slabs grow.
        let mut victim = u;
        let mut splits = vec![u];
        for _ in 0..40 {
            victim = h.split(main, victim).stolen();
            splits.push(victim);
        }
        assert_eq!(h.num_traces(), 1 + 4 * 40);
        assert!(h.grow_events() > 0, "tiny hints must have forced growth");
        // Serial threads executed before every split still precede the
        // deepest stolen continuation.
        for t in 0..200 {
            assert!(h.precedes_current(ThreadId(t), victim));
        }
    }
}
