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
//! ## Batched, mostly lock-free shadow access
//!
//! The shadow store is the sharded [`ShardedShadowMemory`]; per-thread
//! accesses are processed in *batches* by [`check_thread_accesses`]:
//!
//! 1. the thread's scripted accesses are stably grouped by shard (stable, so
//!    same-location accesses keep their program order — all that the
//!    Feng–Leiserson rules depend on);
//! 2. within a shard group, each access first tries a **lock-free fast
//!    path**: one atomic snapshot of the packed cell; if the snapshot shows
//!    the cell is wholly owned by the current thread (the *owner hint* —
//!    private-write runs, same thread re-writing its own location) or the
//!    recorded writer/reader already precede the current thread and no cell
//!    update is needed (the overwhelmingly common case on read-shared
//!    data), the access completes without any lock or even any SP query;
//! 3. the first access that must mutate (or report) acquires the shard's
//!    striped lock **once**, and the rest of the group is processed under
//!    that single acquisition;
//! 4. detected races are re-sorted by the access's original script index
//!    before being pushed, so the report lists each thread's races in
//!    program order — serial backend runs therefore stay **bit-identical**
//!    to the unbatched per-cell engine, which is what lets the conformance
//!    harness demand identical reports across serial backends.
//!
//! The fast path is sound because a packed cell is one atomic word: the
//! snapshot is a linearization point, and the locked path given the same
//! snapshot would have reported nothing and written nothing.  The report is
//! behind a mutex so the *same* engine code is correct for concurrent
//! backends; for serial backends all locks are uncontended.

use parking_lot::Mutex;
use spmaint::api::{BackendConfig, CurrentSpQuery, SpBackend};
use spmetrics::{CounterId, EventKind, MetricsHandle};
use sptree::tree::{ParseTree, ThreadId};

use crate::access::{Access, AccessKind, AccessScript};
use crate::report::{Race, RaceKind, RaceReport};
use crate::shadow::{ShadowCell, ShadowStore, ShardedShadowMemory};

/// Run race detection over `tree` with backend `B` built under `config`.
/// Returns the race report and the fully built backend (useful for space
/// accounting, statistics, and post-run pair queries on full backends).
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
    let report = Mutex::new(RaceReport::new());
    let mut backend = B::build(tree, config);
    let metrics = MetricsHandle::detached();
    backend.run_with_queries(tree, |queries, current| {
        check_thread_accesses(queries, &shadow, &report, current, script.of(current), &metrics);
    });
    (report.into_inner(), backend)
}

/// Shadow-memory update for one access (the Feng–Leiserson rules).  Races
/// are handed to `found` in the fixed writer-conflict-then-reader-conflict
/// order.  Public so a benchmark can run the same rules over a different
/// store (the `shadow_contention` bench's per-cell-lock baseline).
pub fn apply_access(
    queries: &dyn CurrentSpQuery,
    current: ThreadId,
    loc: u32,
    kind: AccessKind,
    cell: &mut ShadowCell,
    found: &mut impl FnMut(Race),
) {
    let parallel_with =
        |earlier: ThreadId| earlier != current && queries.parallel_with_current(earlier);
    match kind {
        AccessKind::Write => {
            if let Some(w) = cell.writer {
                if parallel_with(w) {
                    found(Race {
                        loc,
                        earlier: w,
                        later: current,
                        kind: RaceKind::WriteWrite,
                    });
                }
            }
            if let Some(r) = cell.reader {
                if parallel_with(r) {
                    found(Race {
                        loc,
                        earlier: r,
                        later: current,
                        kind: RaceKind::ReadWrite,
                    });
                }
            }
            cell.writer = Some(current);
        }
        AccessKind::Read => {
            if let Some(w) = cell.writer {
                if parallel_with(w) {
                    found(Race {
                        loc,
                        earlier: w,
                        later: current,
                        kind: RaceKind::WriteRead,
                    });
                }
            }
            // Keep the reader that is "deepest": replace only a reader that
            // serially precedes the current thread (Feng–Leiserson rule).
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

/// Can this access complete without the shard lock?  True only for accesses
/// that, per [`apply_access`] run against a consistent snapshot of the cell,
/// would neither report a race nor mutate the cell.
///
/// Two tiers:
///
/// 1. **Owner hint** — the packed cell word itself doubles as an ownership
///    hint: if the snapshot says the current thread is the recorded writer
///    and there is no foreign recorded reader, the access is silent whatever
///    the SP structure says, so it completes with zero queries and zero
///    locks.  This is the *private-write run* pattern (the same thread
///    re-writing or re-reading its own location), which the old read-only
///    fast path always sent to the slow path because a write was assumed to
///    mutate.  A write by the recorded writer re-records the same writer —
///    no mutation; a read by it can only mutate when the recorded reader is
///    absent (the reader slot would be filled).
/// 2. **Silent-read check** — otherwise, reads run the update rules on a
///    scratch copy (so the predicate can never drift from the locked path)
///    and qualify when nothing would be reported or written.  Writes by any
///    *other* thread than the recorded writer always mutate the writer slot,
///    so they never qualify.
///
/// Both tiers are sound for the same reason: a packed cell is one atomic
/// word, the snapshot is a linearization point, and the locked path given
/// the same snapshot would have reported nothing and written nothing.
#[cfg(test)]
fn silent_fast_path<S: ShadowStore + ?Sized>(
    queries: &dyn CurrentSpQuery,
    shadow: &S,
    current: ThreadId,
    access: Access,
) -> bool {
    fast_path_tier(queries, shadow, current, access).is_some()
}

/// Which lock-free tier resolved an access — the per-access attribution
/// behind the `shadow_owner_hint` / `shadow_lock_free` counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FastTier {
    /// Tier 1: the cell's own ownership hint answered with zero SP queries.
    OwnerHint,
    /// Tier 2: the silent-read scratch-copy check answered lock-free.
    SilentRead,
}

/// Tier-attributing body of [`silent_fast_path`]; `None` means the access
/// needs the shard lock.
fn fast_path_tier<S: ShadowStore + ?Sized>(
    queries: &dyn CurrentSpQuery,
    shadow: &S,
    current: ThreadId,
    access: Access,
) -> Option<FastTier> {
    let before = shadow.load(access.loc);
    // Owner hint: writer is the current thread, reader absent (writes only —
    // a read would fill it) or the current thread itself.
    if before.writer == Some(current) {
        let reader_silent = match before.reader {
            Some(r) => r == current,
            None => access.kind == AccessKind::Write,
        };
        if reader_silent {
            return Some(FastTier::OwnerHint);
        }
    }
    if access.kind != AccessKind::Read {
        // A write by a thread that is not the recorded writer always mutates
        // the writer slot.
        return None;
    }
    let mut scratch = before;
    let mut raced = false;
    apply_access(queries, current, access.loc, access.kind, &mut scratch, &mut |_| {
        raced = true
    });
    if !raced && scratch == before {
        Some(FastTier::SilentRead)
    } else {
        None
    }
}

/// Check one thread's scripted accesses against the sharded shadow memory:
/// stable-grouped by shard, lock-free fast path first, at most one striped
/// lock acquisition per shard group, races reported in program order.
///
/// This is the per-thread body of [`detect_races`], public so benchmarks and
/// stress tests can drive the exact engine path against hand-built queries.
/// Generic over the shadow store: the standalone [`ShardedShadowMemory`] and
/// the multi-session epoch view ([`crate::epoch::EpochShadowView`]) run the
/// very same loop, which is what makes service-session reports bit-identical
/// to standalone runs by construction.
///
/// Per-access tier attribution (owner-hint / lock-free silent read /
/// striped-lock) and found races are tallied in plain locals during the
/// batch and folded into `metrics` **once** at the end — an attached
/// registry costs one `is_attached` check plus a handful of relaxed adds per
/// batch, never per-access atomics, which is what keeps the measured
/// overhead within the ≤5% bar; a detached handle costs nothing.  Race
/// events are published in script order, matching the report.
pub fn check_thread_accesses<S: ShadowStore + ?Sized>(
    queries: &dyn CurrentSpQuery,
    shadow: &S,
    report: &Mutex<RaceReport>,
    current: ThreadId,
    accesses: &[Access],
    metrics: &MetricsHandle,
) {
    if accesses.is_empty() {
        return;
    }
    // Stable order of access indices grouped by shard.  Stability preserves
    // program order within a shard, and same-location accesses always share
    // a shard, so every cell still sees its updates in program order.
    let mut order: Vec<u32> = (0..batch_index_count(accesses.len())).collect();
    order.sort_by_key(|&i| shadow.shard_of(accesses[i as usize].loc));

    let (mut owner_hits, mut silent_hits, mut locked) = (0u64, 0u64, 0u64);
    let mut found: Vec<(u32, Race)> = Vec::new();
    let mut start = 0;
    while start < order.len() {
        let shard = shadow.shard_of(accesses[order[start] as usize].loc);
        let mut end = start + 1;
        while end < order.len() && shadow.shard_of(accesses[order[end] as usize].loc) == shard {
            end += 1;
        }
        let mut guard = None;
        for &idx in &order[start..end] {
            let access = accesses[idx as usize];
            if guard.is_none() {
                match fast_path_tier(queries, shadow, current, access) {
                    Some(FastTier::OwnerHint) => {
                        owner_hits += 1;
                        continue;
                    }
                    Some(FastTier::SilentRead) => {
                        silent_hits += 1;
                        continue;
                    }
                    None => {}
                }
                // First access of the group that needs exclusivity: one lock
                // acquisition covers the rest of the group.
                guard = Some(shadow.lock_shard(shard));
            }
            locked += 1;
            let mut cell = shadow.load(access.loc);
            let before = cell;
            apply_access(queries, current, access.loc, access.kind, &mut cell, &mut |race| {
                found.push((idx, race))
            });
            if cell != before {
                shadow.store(access.loc, cell);
            }
        }
        drop(guard);
        start = end;
    }

    if metrics.is_attached() {
        metrics.add(CounterId::ShadowOwnerHint, owner_hits);
        metrics.add(CounterId::ShadowLockFree, silent_hits);
        metrics.add(CounterId::ShadowLocked, locked);
        metrics.add(CounterId::RacesFound, found.len() as u64);
    }

    if !found.is_empty() {
        // Shard grouping visited accesses out of script order; restore it so
        // the report lists this thread's races exactly as the unbatched
        // engine did (sort is stable: ties keep writer-before-reader order).
        found.sort_by_key(|&(idx, _)| idx);
        let mut report = report.lock();
        for (idx, race) in found {
            metrics.event(EventKind::RaceFound, u64::from(race.loc), u64::from(idx));
            report.push(race);
        }
    }
}

/// Checked size of one thread's access batch: batch indices are `u32` (they
/// ride in the shard-grouped order vector and the race re-sort keys), so a
/// batch beyond `u32::MAX` accesses must fail loudly, not wrap.
fn batch_index_count(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("one thread recorded {len} accesses, which exceeds the engine's u32 batch-index space")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use sphybrid::{HybridBackend, NaiveBackend};

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
        assert_eq!(backend.backend_name(), "sp-order");
        assert!(backend.backend_space_bytes() > 0);
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

    /// Reference engine: the pre-sharding loop — one access at a time, one
    /// lock per cell, no batching, no fast path — used to pin down
    /// bit-identical serial behaviour of the batched path.
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
                    report.lock().push(race)
                });
            }
        });
        report.into_inner()
    }

    /// A serial program whose accesses hit many locations in a scrambled
    /// order, with read-write and write-write conflicts across several
    /// shards — batching must still report the exact per-cell race list.
    #[test]
    fn batched_sharded_reports_are_bit_identical_to_per_cell_on_serial_runs() {
        use sptree::generate::random_sp_ast;
        let tree = random_sp_ast(120, 0.5, 99).build();
        let n = tree.num_threads();
        let mut script = AccessScript::new(n, 64);
        // Scrambled multi-shard access pattern: every thread touches a
        // pseudo-random sequence of the 64 locations, mixing reads/writes.
        for t in tree.thread_ids() {
            for k in 0..6u32 {
                let loc = (t.0.wrapping_mul(2654435761).wrapping_add(k * 97)) % 64;
                let access = if (t.0 + k) % 3 == 0 {
                    Access::write(loc)
                } else {
                    Access::read(loc)
                };
                script.push(t, access);
            }
        }
        let cfg = BackendConfig::serial();
        let (batched, _) = detect_races::<SpOrder>(&tree, &script, cfg);
        let reference = detect_per_cell::<SpOrder>(&tree, &script, cfg);
        assert!(!reference.is_empty(), "workload must actually race");
        assert_eq!(batched.races(), reference.races(), "bit-identical serial reports");
    }

    #[test]
    fn fast_path_skips_only_silent_reads() {
        use sptree::builder::Ast;
        // S(u0, P(u1, u2)): u0 precedes both; u1 ∥ u2.
        let tree = Ast::seq(vec![Ast::leaf(1), Ast::par(vec![Ast::leaf(1), Ast::leaf(1)])]).build();
        let shadow = ShardedShadowMemory::new(4, 1);
        let report = Mutex::new(RaceReport::new());
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
        assert!(report.lock().is_empty(), "read-shared data after a preceding write is race-free");
    }

    /// The owner-hint tier: a thread re-writing (and re-reading) its own
    /// location takes the lock-free path for every access after the first
    /// two, without issuing a single SP query.
    #[test]
    fn owner_hint_covers_private_write_runs() {
        let shadow = ShardedShadowMemory::new(2, 2);
        let report = Mutex::new(RaceReport::new());

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
        assert!(report.lock().is_empty());
        // A *different* thread's write must not be owner-silent.
        assert!(!silent_fast_path(&NoQueries, &shadow, ThreadId(1), Access::write(1)));
    }
}
