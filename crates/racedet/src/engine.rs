//! The generic race-detection engine: one detector, six SP backends.
//!
//! Every maintainer in this repository — the four serial Figure-3 algorithms,
//! the naive locked SP-order, and SP-hybrid — implements
//! [`spmaint::SpBackend`].  This module contains the single
//! Nondeterminator-style detection loop that drives any of them: the backend
//! executes the program (serially or on the work-stealing scheduler) and, at
//! every thread, the engine replays that thread's scripted shared-memory
//! accesses against the shadow memory, issuing `SP-PRECEDES` queries through
//! the backend's [`CurrentSpQuery`] view.
//!
//! ## Batched shadow access
//!
//! The shadow store is the sharded [`ShardedShadowMemory`], and
//! `check_thread_accesses` checks one thread's accesses a *batch* at a time:
//!
//! 1. **one rule** — `rule` applies the Feng–Leiserson update to a cell's
//!    packed `(writer, reader)` word and returns the next word plus which
//!    recorded thread races; every path below runs it and nothing else;
//! 2. **each SP question once** — the backend's [`CurrentSpQuery`] view is
//!    wrapped in a `BatchMemo`, a 16-slot table of `precedes_current`
//!    answers on the batch's stack.  Sound on every maintainer: the relation
//!    between an executed thread and the current one is a fixed fact of the
//!    dag.  The memo dies with the batch;
//! 3. **one stripe, one pass** — a store with one stripe (every one-worker
//!    run) takes its lock once and walks the batch in script order: load the
//!    word, apply `rule`, store it only if it changed;
//! 4. **several stripes** — the accesses are stably grouped by shard (one
//!    counting pass), and each group runs lock-free while `rule` leaves the
//!    word as it is and reports nothing; the first access that must mutate
//!    or report takes the shard's lock for the rest of the group.  The
//!    unlocked load is a linearization point: the locked path given the same
//!    word would also have done nothing.
//!
//! A race is kept only if it is the first on its location (the run's
//! `RaceCollector` holds one claim bit per location), through one `#[cold]`
//! call.  Kept races are put back in script order before they reach the
//! report, so a serial run reports exactly the unbatched per-cell engine's
//! races compacted to the first per location.  The report sits behind a
//! mutex and a claim is one atomic `fetch_or`, so the same code is correct
//! for concurrent backends.

use std::cell::Cell;

use spmaint::api::{BackendConfig, CurrentSpQuery, SpBackend};
use spmetrics::{CounterId, EventKind, MetricsHandle};
use sptree::tree::{ParseTree, ThreadId};

use crate::access::{Access, AccessKind, AccessScript};
use crate::report::{Race, RaceCollector, RaceKind, RaceReport};
use crate::shadow::{ShardedShadowMemory, NONE};

/// Run race detection over `tree` with backend `B` built under `config`.
/// Returns the race report and the fully built backend (useful for space
/// accounting, statistics, and post-run pair queries on backends that implement `SpQuery`).
///
/// ```
/// use racedet::{detect_races, Access, AccessScript};
/// use spmaint::{BackendConfig, SpOrder};
/// use sptree::{builder::Ast, tree::ThreadId};
///
/// let tree = Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]).build(); // u0 ∥ u1
/// let mut script = AccessScript::new(2, 1);
/// script.push(ThreadId(0), Access::write(0));
/// script.push(ThreadId(1), Access::write(0));
/// let (report, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
/// assert_eq!(report.racy_locations(), vec![0]);
/// ```
pub fn detect_races<'t, B: SpBackend<'t>>(
    tree: &'t ParseTree,
    script: &AccessScript,
    config: BackendConfig,
) -> (RaceReport, B) {
    assert_eq!(
        script.num_threads(),
        tree.num_threads(),
        "access script must cover every thread of the program"
    );
    let shadow = ShardedShadowMemory::new(script.num_locations(), config.workers);
    let races = RaceCollector::new(script.num_locations());
    let mut backend = B::build(tree, config);
    let metrics = MetricsHandle::detached();
    backend.run_with_queries(tree, |queries, current| {
        check_thread_accesses(queries, &shadow, &races, current, script.of(current), &metrics);
    });
    (races.into_report(), backend)
}

/// What one access does to its cell: the next packed word, and whether the
/// recorded writer and the recorded reader race with it.
#[derive(Clone, Copy)]
struct Outcome {
    next: u64,
    writer_races: bool,
    reader_races: bool,
}

impl Outcome {
    fn races(self) -> bool {
        self.writer_races | self.reader_races
    }

    /// Neither writes the cell, which holds `word`, nor reports.
    fn silent(self, word: u64) -> bool {
        !self.races() && self.next == word
    }
}

/// The Feng–Leiserson rules on a packed `(writer, reader)` word (see
/// [`crate::shadow`]): a write races with a parallel writer or reader and
/// records itself as the writer; a read races with a parallel writer and
/// replaces the reader only if that reader precedes it.  [`NONE`] and the
/// current thread fail the parallel test before any query is made.
#[inline(always)]
fn rule<Q: CurrentSpQuery + ?Sized>(queries: &Q, current: ThreadId, kind: AccessKind, word: u64) -> Outcome {
    let (writer, reader, me) = ((word >> 32) as u32, word as u32, current.0);
    let parallel = |t: u32| t != me && t != NONE && queries.parallel_with_current(ThreadId(t));
    let writer_races = parallel(writer);
    match kind {
        AccessKind::Write => Outcome {
            next: u64::from(me) << 32 | u64::from(reader),
            writer_races,
            reader_races: parallel(reader),
        },
        AccessKind::Read => {
            let replace = reader == NONE || reader == me || queries.precedes_current(ThreadId(reader));
            let next = if replace { word & !u64::from(u32::MAX) | u64::from(me) } else { word };
            Outcome { next, writer_races, reader_races: false }
        }
    }
}

/// Slots of the per-batch query memo, sized by measurement on the
/// repository's benchmark.  The table is initialised for every non-empty
/// batch, so the ~2.6-access batches of `service-mix` pay for every slot: at
/// 64 slots its `run_ms_w1` read +3.8 % and `sessions_per_s` −3.0 % (worse
/// in 5 of 6 alternating pairs), while `read-matmul`, whose batches meet a
/// handful of recorded threads, keeps its whole `run_ms_w1` gain at 16.
const MEMO_SLOTS: usize = 16;

/// One batch's memo of `precedes_current` answers: direct-mapped on the
/// earlier thread's id, living on the batch's stack.
///
/// Sound on every maintainer: the relation between an already-executed
/// thread and the current one is a fixed fact of the dag, so an answer
/// obtained at any point of the batch is the answer at every later point.
/// It must not outlive the batch — the next may have another current thread.
struct BatchMemo<'q> {
    inner: &'q dyn CurrentSpQuery,
    /// `(earlier thread id, answer)`; an empty slot holds `u32::MAX`, which
    /// the shadow cells reserve as "no thread" and so never ask about.
    slots: [Cell<(u32, bool)>; MEMO_SLOTS],
}

impl<'q> BatchMemo<'q> {
    fn new(inner: &'q dyn CurrentSpQuery) -> Self {
        BatchMemo { inner, slots: std::array::from_fn(|_| Cell::new((u32::MAX, false))) }
    }
}

impl CurrentSpQuery for BatchMemo<'_> {
    #[inline]
    fn precedes_current(&self, earlier: ThreadId) -> bool {
        let slot = &self.slots[earlier.0 as usize % MEMO_SLOTS];
        let (key, answer) = slot.get();
        if key == earlier.0 {
            return answer;
        }
        let answer = self.inner.precedes_current(earlier);
        slot.set((earlier.0, answer));
        answer
    }
}

/// One batch's access indices, stably grouped by ascending shard — exactly
/// the order a stable sort of `0..n` by shard yields, built in O(n + shards).
enum ShardGroups {
    /// The whole batch lies in this shard: script order is the one group, and
    /// no index vector is built.
    Single(usize),
    /// The batch spans several shards.
    Many(ShardRuns),
}

/// The access indices of a multi-shard batch, grouped by shard.
struct ShardRuns {
    /// The batch spans shards `lo..lo + span`.
    lo: usize,
    span: usize,
    /// `span` run-end offsets, then the grouped access indices they cut into
    /// runs — one allocation for both.
    buf: Vec<u32>,
}

impl ShardRuns {
    /// Each spanned shard, ascending, with its (possibly empty) run of access
    /// indices in script order.
    fn runs(&self) -> impl Iterator<Item = (usize, &[u32])> {
        let (ends, order) = self.buf.split_at(self.span);
        let mut start = 0;
        ends.iter().enumerate().map(move |(s, &end)| {
            let run = &order[start..end as usize];
            start = end as usize;
            (self.lo + s, run)
        })
    }
}

impl ShardGroups {
    /// Group the (non-empty) batch `accesses` under `shard_of`.
    fn new(accesses: &[Access], shard_of: impl Fn(u32) -> usize) -> Self {
        // Indices are stored as `u32` below.
        batch_index_count(accesses.len());
        let (mut lo, mut hi) = (usize::MAX, 0);
        for access in accesses {
            let shard = shard_of(access.loc);
            lo = lo.min(shard);
            hi = hi.max(shard);
        }
        if lo == hi {
            return ShardGroups::Single(lo);
        }
        // Counting sort: per-shard counts, then running group starts, then a
        // scatter in script order (which is what makes the grouping stable
        // and leaves each start advanced to its group's end).
        let span = hi - lo + 1;
        let mut buf = vec![0u32; span + accesses.len()];
        let (next, order) = buf.split_at_mut(span);
        for access in accesses {
            next[shard_of(access.loc) - lo] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            start += std::mem::replace(slot, start);
        }
        for (idx, access) in accesses.iter().enumerate() {
            let slot = &mut next[shard_of(access.loc) - lo];
            order[*slot as usize] = idx as u32;
            *slot += 1;
        }
        ShardGroups::Many(ShardRuns { lo, span, buf })
    }
}

/// The running state of one thread batch: what every access reads, and the
/// per-batch tallies it adds to.
struct Batch<'a> {
    queries: BatchMemo<'a>,
    shadow: &'a ShardedShadowMemory,
    races: &'a RaceCollector,
    current: ThreadId,
    accesses: &'a [Access],
    owner_hits: u64,
    silent_hits: u64,
    /// First races on their locations, with the script index of the access
    /// that found them.
    found: Vec<(u32, Race)>,
}

impl Batch<'_> {
    /// Apply `rule` to the access at script index `idx`, whose cell holds
    /// `word`, with its shard's lock held.
    #[inline(always)]
    fn apply_locked(&mut self, idx: u32, access: Access, word: u64) {
        let out = rule(&self.queries, self.current, access.kind, word);
        if out.races() {
            keep_if_first(self.races, &mut self.found, idx, self.current, access, word, out);
        }
        if out.next != word {
            self.shadow.store_word(access.loc, out.next);
        }
    }

    /// The one-stripe pass: the whole batch in script order, under one
    /// acquisition of the only lock.
    fn check_one_stripe(&mut self) {
        let _stripe = self.shadow.lock_shard(0);
        for (idx, &access) in (0..batch_index_count(self.accesses.len())).zip(self.accesses) {
            self.apply_locked(idx, access, self.shadow.load_word(access.loc));
        }
    }

    /// Check the accesses `indices` (script order, all guarded by `shard`):
    /// lock-free while they stay silent, under one acquisition of the shard
    /// lock from the first access that must mutate or report.
    fn check_group(&mut self, shard: usize, indices: impl Iterator<Item = u32>) {
        let mut guard = None;
        for idx in indices {
            let access = self.accesses[idx as usize];
            let word = self.shadow.load_word(access.loc);
            if guard.is_none() {
                let out = rule(&self.queries, self.current, access.kind, word);
                if out.silent(word) {
                    // Owner hint: the cell is the current thread's alone, so
                    // the rule asked the maintainer nothing.
                    let (writer, reader, me) = ((word >> 32) as u32, word as u32, self.current.0);
                    if writer == me && (reader == me || reader == NONE) {
                        self.owner_hits += 1;
                    } else {
                        self.silent_hits += 1;
                    }
                    continue;
                }
                guard = Some(self.shadow.lock_shard(shard));
            }
            // Re-read under the lock: another worker may have written since.
            self.apply_locked(idx, access, self.shadow.load_word(access.loc));
        }
    }
}

/// Keep the race `out` reports for `access` (script index `idx`, cell word
/// `word`) if it is the first on its location.  Out of line, so that a
/// race-free pass pays nothing for it and a racy one a call per racy access.
/// A location keeps only its first race, so when a write races with both
/// recorded threads only the writer's race can be kept.
#[cold]
#[inline(never)]
fn keep_if_first(
    races: &RaceCollector,
    found: &mut Vec<(u32, Race)>,
    idx: u32,
    current: ThreadId,
    access: Access,
    word: u64,
    out: Outcome,
) {
    let (earlier, kind) = match access.kind {
        AccessKind::Read => (word >> 32, RaceKind::WriteRead),
        AccessKind::Write if out.writer_races => (word >> 32, RaceKind::WriteWrite),
        AccessKind::Write => (word & u64::from(u32::MAX), RaceKind::ReadWrite),
    };
    if races.claim(access.loc) {
        found.push((idx, Race { loc: access.loc, earlier: ThreadId(earlier as u32), later: current, kind }));
    }
}

/// Check a batch of one thread's accesses against the sharded shadow memory:
/// SP queries memoised for the batch, one locked pass on a one-stripe
/// store, shard groups with a lock-free silent prefix on a striped one, the
/// first race of each location reported to `races` in program order.
///
/// This is the per-thread body of [`detect_races`] and of
/// [`LiveDetector::check_thread`](crate::live::LiveDetector::check_thread),
/// so script replays, live runs and service sessions all run the very same
/// loop over the same store — which is what makes service-session reports
/// bit-identical to standalone runs by construction.
///
/// Per-access tiers (owner hint and lock-free silent access, both on a
/// striped store only, and locked — every access of a one-stripe batch) and
/// found races are tallied in plain locals and folded into `metrics` once
/// per batch; a detached handle costs nothing.  Race events are published in
/// script order, matching the report.
///
/// `#[inline]`: it runs once per executed thread, mostly on an empty batch,
/// and a copy in each calling codegen unit makes that a direct call (or
/// none) instead of a call through the global offset table.
#[inline]
pub(crate) fn check_thread_accesses(
    queries: &dyn CurrentSpQuery,
    shadow: &ShardedShadowMemory,
    races: &RaceCollector,
    current: ThreadId,
    accesses: &[Access],
    metrics: &MetricsHandle,
) {
    // Ahead of the memo: an empty batch (most threads of a spawn-dense
    // program) must cost nothing.
    if accesses.is_empty() {
        return;
    }
    let mut batch = Batch {
        queries: BatchMemo::new(queries),
        shadow,
        races,
        current,
        accesses,
        owner_hits: 0,
        silent_hits: 0,
        found: Vec::new(),
    };
    // Stability preserves program order within a shard, and same-location
    // accesses always share a shard, so every cell still sees its updates in
    // program order.
    let regrouped = if shadow.num_shards() == 1 {
        batch.check_one_stripe();
        false
    } else {
        match ShardGroups::new(accesses, |loc| shadow.shard_of(loc)) {
            ShardGroups::Single(shard) => {
                batch.check_group(shard, 0..batch_index_count(accesses.len()));
                false
            }
            ShardGroups::Many(grouped) => {
                for (shard, run) in grouped.runs() {
                    batch.check_group(shard, run.iter().copied());
                }
                true
            }
        }
    };
    let Batch { owner_hits, silent_hits, mut found, .. } = batch;

    if metrics.is_attached() {
        metrics.add(CounterId::ShadowOwnerHint, owner_hits);
        metrics.add(CounterId::ShadowLockFree, silent_hits);
        metrics.add(CounterId::ShadowLocked, accesses.len() as u64 - owner_hits - silent_hits);
        metrics.add(CounterId::RacesFound, found.len() as u64);
    }

    if !found.is_empty() {
        // Shard grouping visited accesses out of script order; restore it so
        // the report lists this thread's races exactly as the unbatched
        // engine did.  A single group was walked in script order.
        if regrouped {
            found.sort_by_key(|&(idx, _)| idx);
        }
        let mut report = races.lock();
        if metrics.is_attached() {
            for &(idx, race) in &found {
                metrics.event(EventKind::RaceFound, u64::from(race.loc), u64::from(idx));
            }
        }
        report.extend(found.into_iter().map(|(_, race)| race));
    }
}

/// Checked size of one access batch: batch indices are `u32` (they ride in
/// the shard-grouped order vector and the race re-sort keys), so a batch
/// beyond `u32::MAX` accesses must fail loudly, not wrap.  Only a script
/// thread can be that long; a live run checks in bounded batches.
fn batch_index_count(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("one thread recorded {len} accesses, which exceeds the engine's u32 batch-index space")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::shadow::{pack, unpack, ShadowCell};
    use parking_lot::Mutex;
    use sphybrid::{HybridBackend, NaiveBackend};
    use std::cell::RefCell;

    /// The Feng–Leiserson rules on an unpacked cell, written independently
    /// of `rule` as its reference.  Races are handed to `found` in the fixed
    /// writer-conflict-then-reader-conflict order.
    fn apply_access<Q: CurrentSpQuery + ?Sized>(
        queries: &Q,
        current: ThreadId,
        loc: u32,
        kind: AccessKind,
        cell: &mut ShadowCell,
        found: &mut impl FnMut(Race),
    ) {
        let parallel_with =
            |earlier: ThreadId| earlier != current && queries.parallel_with_current(earlier);
        let mut race = |earlier, kind| found(Race { loc, earlier, later: current, kind });
        match kind {
            AccessKind::Write => {
                if let Some(w) = cell.writer.filter(|&w| parallel_with(w)) {
                    race(w, RaceKind::WriteWrite);
                }
                if let Some(r) = cell.reader.filter(|&r| parallel_with(r)) {
                    race(r, RaceKind::ReadWrite);
                }
                cell.writer = Some(current);
            }
            AccessKind::Read => {
                if let Some(w) = cell.writer.filter(|&w| parallel_with(w)) {
                    race(w, RaceKind::WriteRead);
                }
                // Keep the "deepest" reader: replace only one that serially
                // precedes the current thread.
                let replace = match cell.reader {
                    None => true,
                    Some(r) => r == current || queries.precedes_current(r),
                };
                if replace {
                    cell.reader = Some(current);
                }
            }
        }
    }

    /// Would `access` complete on the lock-free prefix of a striped group?
    fn silent_fast_path(
        queries: &dyn CurrentSpQuery,
        shadow: &ShardedShadowMemory,
        current: ThreadId,
        access: Access,
    ) -> bool {
        let word = shadow.load_word(access.loc);
        rule(queries, current, access.kind, word).silent(word)
    }

    /// The races `out` stands for, in the reference's order.
    fn races_of(out: Outcome, word: u64, current: ThreadId, access: Access) -> Vec<Race> {
        let cell = unpack(word);
        let race = |earlier: Option<ThreadId>, kind| Race {
            loc: access.loc,
            earlier: earlier.expect("a race has a recorded thread"),
            later: current,
            kind,
        };
        let writer_kind = match access.kind {
            AccessKind::Write => RaceKind::WriteWrite,
            AccessKind::Read => RaceKind::WriteRead,
        };
        let mut races = Vec::new();
        if out.writer_races {
            races.push(race(cell.writer, writer_kind));
        }
        if out.reader_races {
            races.push(race(cell.reader, RaceKind::ReadWrite));
        }
        races
    }

    /// Threads `A` and `B` each precede the current thread or run parallel
    /// with it; every question is logged, and one about any other thread
    /// fails the test.
    struct TwoThreads {
        a_precedes: bool,
        b_precedes: bool,
        asked: RefCell<Vec<u32>>,
    }

    const A: ThreadId = ThreadId(1);
    const B: ThreadId = ThreadId(2);
    const CURRENT: ThreadId = ThreadId(3);

    impl CurrentSpQuery for TwoThreads {
        fn precedes_current(&self, earlier: ThreadId) -> bool {
            self.asked.borrow_mut().push(earlier.0);
            match earlier {
                A => self.a_precedes,
                B => self.b_precedes,
                other => panic!("asked about {other:?}"),
            }
        }
    }

    /// `rule` against the reference on every cell over {none, current, A, B}
    /// for writer and reader, both kinds, and A and B each preceding or
    /// parallel: the same next cell, the same races in order, and the same
    /// questions in order.
    #[test]
    fn the_packed_rule_matches_the_reference_exhaustively() {
        let slots = [None, Some(CURRENT), Some(A), Some(B)];
        let mut cases = 0;
        for (a_precedes, b_precedes) in [(false, false), (false, true), (true, false), (true, true)] {
            for writer in slots {
                for reader in slots {
                    for access in [Access::read(5), Access::write(5)] {
                        let before = ShadowCell { writer, reader };
                        let ask = || TwoThreads { a_precedes, b_precedes, asked: RefCell::default() };
                        let (reference, packed) = (ask(), ask());
                        let mut cell = before;
                        let mut expected = Vec::new();
                        apply_access(&reference, CURRENT, access.loc, access.kind, &mut cell, &mut |r| {
                            expected.push(r)
                        });
                        let out = rule(&packed, CURRENT, access.kind, pack(before));
                        let case = format!("{before:?} {access:?} A<{a_precedes} B<{b_precedes}");
                        assert_eq!(unpack(out.next), cell, "{case}");
                        assert_eq!(races_of(out, pack(before), CURRENT, access), expected, "{case}");
                        assert_eq!(packed.asked.take(), reference.asked.take(), "{case}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 4 * 4 * 2);
    }

    #[test]
    fn batch_index_count_is_checked() {
        assert_eq!(batch_index_count(0), 0);
        assert_eq!(batch_index_count(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "u32 batch-index space")]
    fn oversized_access_batches_panic_instead_of_wrapping() {
        batch_index_count(u32::MAX as usize + 1);
    }
    use spmaint::{EnglishHebrewLabels, OffsetSpanLabels, SpBags, SpOrder};
    use sptree::cilk::{CilkProgram, Procedure, SyncBlock};

    /// main spawns two children that both write location 0 — a definite race,
    /// in canonical Cilk form so every backend (including SP-hybrid) runs it.
    fn racy_cilk_program() -> (ParseTree, AccessScript) {
        let child = |work| Procedure::single(SyncBlock::new().work(work));
        let main = Procedure::single(SyncBlock::new().spawn(child(3)).spawn(child(5)).work(1));
        let tree = CilkProgram::new(main).build_tree();
        let mut script = AccessScript::new(tree.num_threads(), 1);
        let a = tree.thread_ids().find(|&t| tree.work_of(t) == 3).unwrap();
        let b = tree.thread_ids().find(|&t| tree.work_of(t) == 5).unwrap();
        script.push(a, Access::write(0));
        script.push(b, Access::write(0));
        (tree, script)
    }

    #[test]
    fn one_engine_finds_the_race_through_all_six_backends() {
        let (tree, script) = racy_cilk_program();
        let cfg = BackendConfig::serial();
        let reports = [
            detect_races::<SpOrder>(&tree, &script, cfg).0,
            detect_races::<SpBags>(&tree, &script, cfg).0,
            detect_races::<EnglishHebrewLabels>(&tree, &script, cfg).0,
            detect_races::<OffsetSpanLabels>(&tree, &script, cfg).0,
            detect_races::<NaiveBackend>(&tree, &script, cfg).0,
            detect_races::<HybridBackend>(&tree, &script, cfg).0,
        ];
        for report in &reports {
            assert_eq!(report.racy_locations(), vec![0]);
            assert_eq!(report.races(), reports[0].races(), "serial runs are deterministic");
        }
    }

    #[test]
    fn engine_returns_the_built_backend() {
        let (tree, script) = racy_cilk_program();
        let (_, backend) =
            detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        use spmaint::api::SpBackend as _;
        assert_eq!(backend.name(), "sp-order");
        assert!(backend.space_bytes() > 0);
    }

    #[test]
    fn parallel_backends_find_the_race_with_many_workers() {
        let (tree, script) = racy_cilk_program();
        for workers in [2usize, 4] {
            let cfg = BackendConfig::with_workers(workers);
            let (r, _b) = detect_races::<HybridBackend>(&tree, &script, cfg);
            assert_eq!(r.racy_locations(), vec![0], "hybrid, workers={workers}");
            let (r, _b) = detect_races::<NaiveBackend>(&tree, &script, cfg);
            assert_eq!(r.racy_locations(), vec![0], "naive, workers={workers}");
        }
    }

    /// main spawns `children` children that each write and read every one of
    /// `locations` locations, so every location races many times over.
    fn contended_cilk_program(children: u64, locations: u32) -> (ParseTree, AccessScript) {
        let spawns = (1..=children).fold(SyncBlock::new(), |block, id| {
            block.spawn(Procedure::single(SyncBlock::new().work(id)))
        });
        let tree = CilkProgram::new(Procedure::single(spawns.work(children + 1))).build_tree();
        let mut script = AccessScript::new(tree.num_threads(), locations);
        let children = tree
            .thread_ids()
            .filter(|&t| (1..=children).contains(&tree.work_of(t)));
        for t in children {
            for loc in 0..locations {
                script.push(t, Access::write(loc));
                script.push(t, Access::read(loc));
            }
        }
        (tree, script)
    }

    /// Many writers racing on every location, checked concurrently by 2 and
    /// 4 workers: the claim lets exactly one race per location into the
    /// report, whichever worker finds it first.
    #[test]
    fn concurrent_racing_writers_report_each_location_once() {
        let (tree, script) = contended_cilk_program(16, 8);
        for workers in [2usize, 4] {
            let cfg = BackendConfig::with_workers(workers);
            for (name, report) in [
                ("hybrid", detect_races::<HybridBackend>(&tree, &script, cfg).0),
                ("naive", detect_races::<NaiveBackend>(&tree, &script, cfg).0),
            ] {
                let locations = report.racy_locations();
                assert_eq!(
                    locations,
                    (0..8).collect::<Vec<u32>>(),
                    "{name}, workers={workers}"
                );
                assert_eq!(report.len(), locations.len(), "{name}, workers={workers}");
            }
        }
    }

    /// The first race of every location, in report order.
    fn compact(report: &RaceReport) -> Vec<Race> {
        let mut seen = std::collections::HashSet::new();
        report
            .races()
            .iter()
            .copied()
            .filter(|race| seen.insert(race.loc))
            .collect()
    }

    /// Reference engine: the pre-sharding loop — one access at a time, one
    /// lock per cell, no batching, no fast path, every race kept — used to
    /// pin down the serial behaviour of the batched path.
    fn detect_per_cell<'t, B: SpBackend<'t>>(
        tree: &'t ParseTree,
        script: &AccessScript,
        config: BackendConfig,
    ) -> RaceReport {
        let cells: Vec<Mutex<ShadowCell>> =
            (0..script.num_locations()).map(|_| Mutex::new(ShadowCell::default())).collect();
        let report = Mutex::new(RaceReport::new());
        let mut backend = B::build(tree, config);
        backend.run_with_queries(tree, |queries, current| {
            for access in script.of(current) {
                let mut cell = cells[access.loc as usize].lock();
                apply_access(queries, current, access.loc, access.kind, &mut cell, &mut |race| {
                    report.lock().extend([race])
                });
            }
        });
        report.into_inner()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// A serial program whose accesses hit many locations in a scrambled
        /// order, with read-write and write-write conflicts: on a one-stripe
        /// store and on a striped one (a serial backend ignores the worker
        /// count, so only the store's layout changes), batching must report
        /// the exact per-cell race list compacted to the first per location.
        #[test]
        fn batched_sharded_reports_are_bit_identical_to_per_cell_on_serial_runs(seed in 0u64..1 << 32) {
            use sptree::generate::random_sp_ast;
            let tree = random_sp_ast(120, 0.5, seed).build();
            let mut script = AccessScript::new(tree.num_threads(), 64);
            let mix = (seed as u32) | 1;
            for t in tree.thread_ids() {
                for k in 0..6u32 {
                    let loc = (t.0.wrapping_mul(2654435761).wrapping_add(k * 97).wrapping_mul(mix)) % 64;
                    let access = if (t.0 + k) % 3 == 0 { Access::write(loc) } else { Access::read(loc) };
                    script.push(t, access);
                }
            }
            let reference = detect_per_cell::<SpOrder>(&tree, &script, BackendConfig::serial());
            proptest::prop_assert!(
                reference.len() > reference.racy_locations().len(),
                "workload must race more than once on some location"
            );
            for workers in [1, 2] {
                let (batched, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::with_workers(workers));
                proptest::prop_assert_eq!(batched.races(), &compact(&reference)[..], "{} workers", workers);
            }
        }
    }

    /// The tier counters, `[owner hint, lock-free, locked]`, of four race-free
    /// batches on `shadow`: thread 0 writes cells 0..16; thread 1, after it,
    /// reads 8..16; thread 2, after thread 0 and parallel with thread 1,
    /// reads 0..16 and then writes and reads cell 16, twice over.
    fn tier_batches(shadow: &ShardedShadowMemory) -> [[u64; 3]; 4] {
        use spmetrics::MetricsRegistry;
        let report = RaceCollector::new(shadow.len() as u32);
        let own = [Access::write(16), Access::read(16)];
        let batches: [(u32, Vec<Access>); 4] = [
            (0, (0..16).map(Access::write).collect()),
            (1, (8..16).map(Access::read).collect()),
            (2, (0..16).map(Access::read).chain(own).collect()),
            (2, own.into_iter().chain([Access::read(8)]).collect()),
        ];
        let tiers = batches.map(|(thread, accesses)| {
            let registry = MetricsRegistry::new();
            let queries = CountingQueries::preceded_by_ids_below(1);
            let metrics = MetricsHandle::attached(&registry);
            check_thread_accesses(&queries, shadow, &report, ThreadId(thread), &accesses, &metrics);
            let snap = registry.snapshot();
            [CounterId::ShadowOwnerHint, CounterId::ShadowLockFree, CounterId::ShadowLocked].map(|id| snap.counter(id))
        });
        assert!(report.into_report().is_empty());
        tiers
    }

    /// On one stripe every access of a batch is checked under the lock.
    #[test]
    fn a_one_stripe_batch_counts_every_access_as_locked() {
        let shadow = ShardedShadowMemory::new(17, 1);
        assert_eq!(shadow.num_shards(), 1);
        assert_eq!(tier_batches(&shadow), [[0, 0, 16], [0, 0, 8], [0, 0, 18], [0, 0, 3]]);
    }

    /// The striped twin, one stripe each for cells 0..8, 8..16 and 16: thread
    /// 2's reads of 8..16 keep reader 1 and are silent, its reads of 0..8
    /// fill the reader slot and lock their group, and once it owns cell 16
    /// its accesses there are owner-silent.
    #[test]
    fn a_striped_batch_attributes_owner_hint_and_silent_read_tiers() {
        let shadow = ShardedShadowMemory::new(17, 8);
        assert_eq!((shadow.num_shards(), shadow.shard_of(8), shadow.shard_of(16)), (3, 1, 2));
        assert_eq!(tier_batches(&shadow), [[0, 0, 16], [0, 0, 8], [0, 8, 10], [2, 1, 0]]);
    }

    #[test]
    fn fast_path_skips_only_silent_reads() {
        use sptree::builder::Ast;
        // S(u0, P(u1, u2)): u0 precedes both; u1 ∥ u2.
        let tree = Ast::seq(vec![Ast::leaf(1), Ast::par(vec![Ast::leaf(1), Ast::leaf(1)])]).build();
        let shadow = ShardedShadowMemory::new(4, 1);
        let report = RaceCollector::new(4);
        struct Oracle<'t>(sptree::oracle::SpOracle<'t>, ThreadId);
        impl CurrentSpQuery for Oracle<'_> {
            fn precedes_current(&self, earlier: ThreadId) -> bool {
                self.0.precedes(earlier, self.1)
            }
        }
        // u0 writes loc 0 and reads it back; then u1 reads it (writer
        // precedes, reader u0 precedes → slow path replaces reader), and u2
        // reads it (reader u1 is parallel → pure fast path, no mutation).
        let q0 = Oracle(sptree::oracle::SpOracle::new(&tree), ThreadId(0));
        check_thread_accesses(&q0, &shadow, &report, ThreadId(0), &[Access::write(0), Access::read(0)], &MetricsHandle::detached());
        assert_eq!(shadow.load(0).reader, Some(ThreadId(0)));
        let q1 = Oracle(sptree::oracle::SpOracle::new(&tree), ThreadId(1));
        assert!(!silent_fast_path(&q1, &shadow, ThreadId(1), Access::read(0)), "reader must be replaced");
        check_thread_accesses(&q1, &shadow, &report, ThreadId(1), &[Access::read(0)], &MetricsHandle::detached());
        assert_eq!(shadow.load(0).reader, Some(ThreadId(1)));
        let q2 = Oracle(sptree::oracle::SpOracle::new(&tree), ThreadId(2));
        assert!(silent_fast_path(&q2, &shadow, ThreadId(2), Access::read(0)), "parallel reader stays");
        check_thread_accesses(&q2, &shadow, &report, ThreadId(2), &[Access::read(0)], &MetricsHandle::detached());
        assert_eq!(shadow.load(0).reader, Some(ThreadId(1)), "fast path left the cell untouched");
        assert!(report.into_report().is_empty(), "read-shared data after a preceding write is race-free");
    }

    /// The owner-hint tier: a thread re-writing (and re-reading) its own
    /// location takes the lock-free path for every access after the first
    /// two, without issuing a single SP query.
    #[test]
    fn owner_hint_covers_private_write_runs() {
        let shadow = ShardedShadowMemory::new(2, 2);
        let report = RaceCollector::new(2);

        /// Queries that panic if consulted: the owner hint must answer alone.
        struct NoQueries;
        impl CurrentSpQuery for NoQueries {
            fn precedes_current(&self, _earlier: ThreadId) -> bool {
                panic!("the owner-hint fast path must not issue SP queries");
            }
        }

        let t = ThreadId(0);
        // First write records the owner (slow path: mutates the cell)...
        assert!(!silent_fast_path(&NoQueries, &shadow, t, Access::write(0)));
        check_thread_accesses(&NoQueries, &shadow, &report, t, &[Access::write(0)], &MetricsHandle::detached());
        assert_eq!(shadow.load(0).writer, Some(t));
        // ...every re-write afterwards is owner-silent (queries would panic).
        assert!(silent_fast_path(&NoQueries, &shadow, t, Access::write(0)));
        check_thread_accesses(&NoQueries, &shadow, &report, t, &[Access::write(0); 8], &MetricsHandle::detached());
        // A re-read first fills the reader slot (a mutation, so it takes the
        // slow path — but still queryless, since the only recorded thread is
        // the current one and every rule short-circuits on it)...
        assert!(!silent_fast_path(&NoQueries, &shadow, t, Access::read(0)));
        check_thread_accesses(&NoQueries, &shadow, &report, t, &[Access::read(0)], &MetricsHandle::detached());
        assert_eq!(shadow.load(0).reader, Some(t));
        // ...and once writer and reader are both the owner, reads and writes
        // alike are owner-silent.
        assert!(silent_fast_path(&NoQueries, &shadow, t, Access::read(0)));
        assert!(silent_fast_path(&NoQueries, &shadow, t, Access::write(0)));
        check_thread_accesses(
            &NoQueries,
            &shadow,
            &report,
            t,
            &[Access::read(0), Access::write(0), Access::read(0), Access::write(0)], &MetricsHandle::detached());
        assert_eq!(shadow.load(0), ShadowCell { writer: Some(t), reader: Some(t) });
        assert!(report.into_report().is_empty());
        // A *different* thread's write must not be owner-silent.
        assert!(!silent_fast_path(&NoQueries, &shadow, ThreadId(1), Access::write(1)));
    }

    /// Queries that count how often the maintainer is actually reached.
    /// Threads with an id below `precedes_below` precede the current one, the
    /// rest are parallel with it; the bound can be moved between batches.
    struct CountingQueries {
        precedes_below: Cell<u32>,
        asked: Cell<usize>,
    }

    impl CountingQueries {
        fn preceded_by_ids_below(bound: u32) -> Self {
            CountingQueries { precedes_below: Cell::new(bound), asked: Cell::new(0) }
        }
    }

    impl CurrentSpQuery for CountingQueries {
        fn precedes_current(&self, earlier: ThreadId) -> bool {
            self.asked.set(self.asked.get() + 1);
            earlier.0 < self.precedes_below.get()
        }
    }

    /// The memo asks each SP question once per batch: 4,096 reads of cells
    /// recorded by 3 earlier threads reach the maintainer at most 3 times —
    /// through the locked tier and through the silent-read tier alike.
    fn check_one_question_per_recorded_thread(shadow: &ShardedShadowMemory) {
        const CELLS: u32 = 4096;
        assert_eq!(shadow.len(), CELLS as usize);
        let report = RaceCollector::new(CELLS);
        let detached = MetricsHandle::detached();
        let all_precede = CountingQueries::preceded_by_ids_below(u32::MAX);
        for writer in 0..3u32 {
            let writes: Vec<Access> =
                (0..CELLS).filter(|loc| loc % 3 == writer).map(Access::write).collect();
            check_thread_accesses(&all_precede, shadow, &report, ThreadId(writer), &writes, &detached);
        }
        let reads: Vec<Access> = (0..CELLS).map(Access::read).collect();

        // Locked tier: every read fills the empty reader slot.
        let queries = CountingQueries::preceded_by_ids_below(3);
        check_thread_accesses(&queries, shadow, &report, ThreadId(3), &reads, &detached);
        assert!(queries.asked.get() <= 3, "asked {} times", queries.asked.get());
        assert_eq!(shadow.load(CELLS - 1).reader, Some(ThreadId(3)));

        // Silent-read tier: thread 4 is after the writers and parallel with
        // reader 3, so nothing is written — one more recorded thread to ask
        // about, one more question.
        let queries = CountingQueries::preceded_by_ids_below(3);
        check_thread_accesses(&queries, shadow, &report, ThreadId(4), &reads, &detached);
        assert!(queries.asked.get() <= 4, "asked {} times", queries.asked.get());
        assert_eq!(shadow.load(CELLS - 1).reader, Some(ThreadId(3)));
        assert!(report.into_report().is_empty());
    }

    /// Across all 16 stripes of a 2-worker store: one memo serves every
    /// shard group of the batch.
    #[test]
    fn a_batch_asks_the_maintainer_once_per_recorded_thread() {
        let shadow = ShardedShadowMemory::new(4096, 2);
        assert!(shadow.num_shards() >= 2, "the batch must span shards");
        check_one_question_per_recorded_thread(&shadow);
    }

    /// The one-stripe twin: a one-worker store walks the batch as a single
    /// group, and the memo still asks once per recorded thread.
    #[test]
    fn a_one_stripe_batch_asks_the_maintainer_once_per_recorded_thread() {
        let shadow = ShardedShadowMemory::new(4096, 1);
        assert_eq!(shadow.num_shards(), 1);
        check_one_question_per_recorded_thread(&shadow);
    }

    /// The memo dies with its batch: the same query object, flipped between
    /// two `check_thread` calls on one detector, is believed afresh — thread
    /// 2's reads race, and the location's one entry is the first of them.
    #[test]
    fn the_memo_does_not_outlive_a_batch() {
        use crate::live::LiveDetector;
        let det = LiveDetector::new(1, 1);
        let queries = CountingQueries::preceded_by_ids_below(u32::MAX);
        det.check_thread(&queries, ThreadId(0), &[Access::write(0)]);
        det.check_thread(&queries, ThreadId(1), &[Access::read(0), Access::read(0)]);
        assert!(det.report().is_empty(), "thread 0 precedes thread 1");
        queries.precedes_below.set(0);
        det.check_thread(&queries, ThreadId(2), &[Access::read(0), Access::read(0)]);
        let report = det.into_report();
        let race = Race {
            loc: 0,
            earlier: ThreadId(0),
            later: ThreadId(2),
            kind: RaceKind::WriteRead,
        };
        assert_eq!(report.races(), &[race]);
    }

    /// `(shard, script index)` in the order `check_thread_accesses` visits a
    /// batch grouped as `groups`.
    fn visit_order(groups: &ShardGroups, n: usize) -> Vec<(usize, u32)> {
        match groups {
            ShardGroups::Single(shard) => (0..n as u32).map(|idx| (*shard, idx)).collect(),
            ShardGroups::Many(grouped) => grouped
                .runs()
                .flat_map(|(shard, run)| run.iter().map(move |&idx| (shard, idx)))
                .collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The linear grouping is the old `order.sort_by_key(shard_of)`:
        /// same index order, every index labelled with its own shard — for
        /// 1-access batches, single-shard layouts (`shift` beyond every
        /// location) and many-shard layouts alike.
        #[test]
        fn linear_grouping_matches_the_stable_sort(
            locs in proptest::collection::vec(0u32..4096, 1..200),
            shift in 0u32..14,
        ) {
            let accesses: Vec<Access> = locs.iter().map(|&loc| Access::read(loc)).collect();
            let shard_of = |loc: u32| (loc >> shift) as usize;
            let mut sorted: Vec<u32> = (0..accesses.len() as u32).collect();
            sorted.sort_by_key(|&i| shard_of(accesses[i as usize].loc));
            let expected: Vec<(usize, u32)> =
                sorted.iter().map(|&i| (shard_of(accesses[i as usize].loc), i)).collect();
            let groups = ShardGroups::new(&accesses, shard_of);
            let one_shard = expected.iter().all(|&(shard, _)| shard == expected[0].0);
            proptest::prop_assert_eq!(matches!(groups, ShardGroups::Single(_)), one_shard);
            proptest::prop_assert_eq!(visit_order(&groups, accesses.len()), expected);
        }
    }

    /// The racy batch of the two script-order tests below, handed to `check`:
    /// thread 0 writes every cell, then thread 1 (parallel with it) writes a
    /// scramble of them, location 5 twice.
    const RACY_CELLS: u32 = 1024;
    const RACY_SCRIPT: [u32; 9] = [900, 5, 400, 6, 901, 130, 5, 1023, 0];

    fn racy_batch(mut check: impl FnMut(&dyn CurrentSpQuery, ThreadId, &[Access])) {
        let script: Vec<Access> = RACY_SCRIPT.into_iter().map(Access::write).collect();
        let init: Vec<Access> = (0..RACY_CELLS).map(Access::write).collect();
        let parallel = CountingQueries::preceded_by_ids_below(0);
        check(&parallel, ThreadId(0), &init);
        check(&parallel, ThreadId(1), &script);
    }

    /// The racy batch through a fresh store.
    fn run_racy_batch(shadow: &ShardedShadowMemory) -> RaceReport {
        let report = RaceCollector::new(RACY_CELLS);
        let detached = MetricsHandle::detached();
        racy_batch(|queries, thread, accesses| {
            check_thread_accesses(queries, shadow, &report, thread, accesses, &detached)
        });
        report.into_report()
    }

    /// The racy batch through a detector reset for it: the previous lease
    /// was four times larger, striped for the other worker count, and left
    /// a race and a written cell everywhere.
    fn run_racy_batch_on_a_reset_detector(workers: usize) -> RaceReport {
        use crate::live::LiveDetector;
        let mut det = LiveDetector::new(4 * RACY_CELLS, 3 - workers);
        let everywhere: Vec<Access> = (0..4 * RACY_CELLS).map(Access::write).collect();
        let parallel = CountingQueries::preceded_by_ids_below(0);
        det.check_thread(&parallel, ThreadId(7), &everywhere);
        det.check_thread(&parallel, ThreadId(8), &everywhere);
        assert_eq!(det.take_report().len(), everywhere.len());
        det.reset(RACY_CELLS, workers, MetricsHandle::detached());
        racy_batch(|queries, thread, accesses| det.check_thread(queries, thread, accesses));
        det.take_report()
    }

    fn shards_hopped(shadow: &ShardedShadowMemory) -> usize {
        let shards: std::collections::BTreeSet<usize> =
            RACY_SCRIPT.iter().map(|&loc| shadow.shard_of(loc)).collect();
        shards.len()
    }

    /// A racy batch that hops between shards is visited shard by shard but
    /// reported in script order — through a fresh store and through a
    /// detector reset from a larger lease alike.
    #[test]
    fn multi_shard_racy_batches_report_in_script_order_through_both_stores() {
        let store = ShardedShadowMemory::new(RACY_CELLS, 2);
        assert!(shards_hopped(&store) >= 3, "the batch must hop between shards");
        let sharded = run_racy_batch(&store);
        let reset = run_racy_batch_on_a_reset_detector(2);
        let reported: Vec<u32> = sharded.races().iter().map(|r| r.loc).collect();
        // The second write of location 5 finds thread 1 itself recorded.
        assert_eq!(reported, vec![900, 5, 400, 6, 901, 130, 1023, 0]);
        assert!(sharded.races().iter().all(|r| r.earlier == ThreadId(0) && r.later == ThreadId(1)));
        assert_eq!(reset.races(), sharded.races());
    }

    /// The one-stripe twin: on a one-worker store and a detector reset for
    /// one worker the same batch is a single group walked in script order,
    /// and reports bit-identically to the 2-worker stores.
    #[test]
    fn one_stripe_racy_batches_report_in_script_order_through_both_stores() {
        let striped = run_racy_batch(&ShardedShadowMemory::new(RACY_CELLS, 2));
        let store = ShardedShadowMemory::new(RACY_CELLS, 1);
        assert_eq!(shards_hopped(&store), 1);
        let reset = run_racy_batch_on_a_reset_detector(1);
        assert_eq!(run_racy_batch(&store).races(), striped.races());
        assert_eq!(reset.races(), striped.races());
        assert_eq!(striped.len(), RACY_SCRIPT.len() - 1);
    }
}
