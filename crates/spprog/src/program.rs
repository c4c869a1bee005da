//! The programmatic fork-join language: procedures built from `step`,
//! `spawn`, and `sync`.
//!
//! A [`Proc`] is a Cilk procedure: a series of *sync blocks*, each a list of
//! statements (stored end to end in one vector, a sync marker closing each).
//! A statement is either a **step** — one thread of serial work, a user
//! closure that reads and writes shared memory through [`StepCtx`] — or a
//! **spawn** of a child procedure that runs logically in parallel with the
//! rest of the block.
//! [`ProcBuilder::sync`] ends the block, joining every procedure spawned in
//! it.  This is exactly the canonical Cilk form of paper Figure 10
//! ([`sptree::cilk`]), with closures in place of abstract work counters.
//!
//! Spawned children can be given two ways:
//!
//! * [`ProcBuilder::spawn_proc`] — an already-built [`Proc`];
//! * [`ProcBuilder::spawn`] — a *builder closure*, evaluated lazily by the
//!   executing worker when the spawn statement is reached.  This is what
//!   makes recursion natural (a function returning a builder closure) and
//!   what keeps the program an *unfolding* computation: nothing below a
//!   spawn exists until the spawn executes.
//!
//! A `Proc` is inert data; [`run_program`](crate::run_program) executes it
//! (serially or on the work-stealing scheduler) with on-the-fly SP
//! maintenance and online race detection, and
//! [`record_program`](crate::record_program) lowers one serial execution
//! into the equivalent parse tree + access script for the offline engines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use racedet::{Access, DetectionSink};

use crate::determinacy::SerialReference;

// ---------------------------------------------------------------------------
// Step context
// ---------------------------------------------------------------------------

/// Where a step's reads and writes land: a detection sink's value memory
/// (instrumented runs) or a bare word array (`run_uninstrumented`).
pub(crate) enum MemRef<'a> {
    Sink(&'a dyn DetectionSink),
    Raw(&'a [AtomicU64]),
}

/// Accesses a step records before they are checked: a thread's accesses
/// reach the detector in batches of at most this many, so recording holds
/// 32 KiB however long the thread runs.
pub(crate) const BATCH: usize = 4096;

/// Where an instrumented step's accesses go: into `buf`, which is handed to
/// `flush` whenever it holds [`BATCH`] accesses and once more, with what is
/// left, when the step ends.
pub(crate) struct Recording<'a> {
    pub(crate) buf: &'a mut Vec<Access>,
    pub(crate) flush: &'a mut dyn FnMut(&[Access]),
}

impl Recording<'_> {
    #[inline]
    fn push(&mut self, access: Access) {
        if self.buf.len() == BATCH {
            self.flush();
        }
        self.buf.push(access);
    }

    #[cold]
    #[inline(never)]
    fn flush(&mut self) {
        (self.flush)(self.buf);
        self.buf.clear();
    }

    /// The step ended: flush the last, partial batch, if any.
    pub(crate) fn finish(&mut self) {
        if !self.buf.is_empty() {
            self.flush();
        }
    }
}

/// The view a step closure gets of shared memory.
///
/// Reads and writes go to the program's *value* memory immediately (racy
/// programs really race on it — it is atomic word storage); in instrumented
/// runs each access is also recorded, and checked against the shadow memory
/// in program-order batches of a few thousand while the step runs.
pub struct StepCtx<'a> {
    pub(crate) mem: MemRef<'a>,
    /// Where the step's accesses are recorded, in instrumented runs.
    pub(crate) trace: Option<Recording<'a>>,
}

impl StepCtx<'_> {
    /// Read a shared location, returning its current value.
    //
    // Inlined into the step closures: on a long thread the batch-full test
    // otherwise adds a compare to a call made for every access.
    #[inline]
    pub fn read(&mut self, loc: u32) -> u64 {
        if let Some(t) = self.trace.as_mut() {
            t.push(Access::read(loc));
        }
        match &self.mem {
            MemRef::Sink(d) => d.read(loc),
            MemRef::Raw(v) => raw_cell(v, loc).load(Ordering::Relaxed),
        }
    }

    /// Write a value to a shared location.
    #[inline]
    pub fn write(&mut self, loc: u32, value: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.push(Access::write(loc));
        }
        match &self.mem {
            MemRef::Sink(d) => d.write(loc, value),
            MemRef::Raw(v) => raw_cell(v, loc).store(value, Ordering::Relaxed),
        }
    }

    /// Replay a pre-recorded access (scripted workloads); reads discard the
    /// value, writes store a marker.
    pub fn access(&mut self, access: Access) {
        match access.kind {
            racedet::AccessKind::Read => {
                self.read(access.loc);
            }
            racedet::AccessKind::Write => self.write(access.loc, 1),
        }
    }
}

fn raw_cell(values: &[AtomicU64], loc: u32) -> &AtomicU64 {
    values.get(loc as usize).unwrap_or_else(|| {
        panic!(
            "location {loc} is outside the configured shared memory (0..{}); \
             raise `locations` in the run config",
            values.len()
        )
    })
}

// ---------------------------------------------------------------------------
// Procedures
// ---------------------------------------------------------------------------

/// A step closure: one thread of serial work.
pub type StepFn = dyn Fn(&mut StepCtx<'_>) + Send + Sync;

/// A spawn-body closure, evaluated when the spawn statement executes.
pub type SpawnFn = dyn Fn(&mut ProcBuilder) + Send + Sync;

/// How a spawned child procedure is obtained.
pub(crate) enum SpawnBody {
    /// Pre-built procedure (every instantiation shares its body).
    Built(Proc),
    /// Builder closure run by the executing worker at spawn time.
    Lazy(Box<SpawnFn>),
}

impl SpawnBody {
    /// Materialize the child procedure's body for one spawn execution.
    /// A spawned instance is only its body: the determinacy cache of a
    /// [`Proc`] belongs to the root a run starts from.
    pub(crate) fn instantiate(&self) -> Body {
        match self {
            SpawnBody::Built(p) => Body::Shared(Arc::clone(&p.body)),
            SpawnBody::Lazy(f) => {
                let mut b = ProcBuilder::default();
                f(&mut b);
                Body::Own(b.into_body())
            }
        }
    }
}

/// One statement of a procedure body.  A statement owns its closure: nothing
/// clones one (bodies are shared whole, through `Arc<Vec<Stmt>>` or the
/// instance that owns them), so a closure is boxed, not counted — and a
/// zero-sized one (`|_| {}`) allocates nothing.
pub(crate) enum Stmt {
    /// Serial work: one thread running the closure.
    Step(Box<StepFn>),
    /// Spawn of a child procedure.
    Spawn(SpawnBody),
    /// End of a sync block: joins every procedure spawned since the previous
    /// `Sync` (or the start of the body).
    Sync,
}

/// The statements of one procedure instance: its sync blocks laid end to end
/// in one vector, a [`Stmt::Sync`] closing each — so a finished body is empty
/// or ends in `Sync`.  A lazily spawned instance owns the vector its builder
/// closure filled; an instance of a pre-built [`Proc`] shares the `Proc`'s.
pub(crate) enum Body {
    Own(Vec<Stmt>),
    Shared(Arc<Vec<Stmt>>),
}

impl std::ops::Deref for Body {
    type Target = [Stmt];

    #[inline]
    fn deref(&self) -> &[Stmt] {
        match self {
            Body::Own(stmts) => stmts,
            Body::Shared(stmts) => stmts,
        }
    }
}

/// A live fork-join procedure: a series of sync blocks of steps and spawns.
///
/// Build one with [`build_proc`]; run it with
/// [`run_program`](crate::run_program).  Cloning is cheap (shared body)
/// and runs are independent: the same `Proc` can be recorded, executed
/// serially, and executed on many workers, each run unfolding its own
/// parse-tree structure.
#[derive(Clone)]
pub struct Proc {
    pub(crate) body: Arc<Vec<Stmt>>,
    /// Cached serial reference for determinacy enforcement, seeded by the
    /// first enforced run (see [`crate::try_run_program`]).  Shared across
    /// clones — the same program has the same reference — so repeated
    /// enforced runs pay only the per-node hash fold, never a second
    /// reference execution.
    pub(crate) reference: Arc<OnceLock<SerialReference>>,
}

impl Proc {
    /// Number of sync blocks (an empty procedure — zero blocks — executes as
    /// a single empty thread).
    pub fn num_blocks(&self) -> usize {
        self.body.iter().filter(|s| matches!(s, Stmt::Sync)).count()
    }

    /// Number of statements across all blocks of *this* procedure (children
    /// of spawns are not counted — lazily spawned ones do not exist yet).
    pub fn num_statements(&self) -> usize {
        self.body.len() - self.num_blocks()
    }
}

/// Builder of a [`Proc`]; handed to [`build_proc`] and to
/// [`ProcBuilder::spawn`] bodies.
#[derive(Default)]
pub struct ProcBuilder {
    stmts: Vec<Stmt>,
}

impl ProcBuilder {
    /// Append one thread of serial work.  The closure runs when the step
    /// executes, with a [`StepCtx`] for shared-memory reads
    /// and writes.
    pub fn step(&mut self, f: impl Fn(&mut StepCtx<'_>) + Send + Sync + 'static) -> &mut Self {
        self.stmts.push(Stmt::Step(Box::new(f)));
        self
    }

    /// Spawn a child procedure described by a builder closure.  The closure
    /// is evaluated *when the spawn executes*, on the executing worker — the
    /// program unfolds lazily, which is what recursive programs rely on.
    pub fn spawn(&mut self, body: impl Fn(&mut ProcBuilder) + Send + Sync + 'static) -> &mut Self {
        self.stmts.push(Stmt::Spawn(SpawnBody::Lazy(Box::new(body))));
        self
    }

    /// Spawn an already-built child procedure.
    pub fn spawn_proc(&mut self, child: Proc) -> &mut Self {
        self.stmts.push(Stmt::Spawn(SpawnBody::Built(child)));
        self
    }

    /// End the current sync block: join every procedure spawned in it.  A
    /// trailing `sync` before the procedure ends is implicit (as in Cilk),
    /// so `step(a); sync()` and `step(a)` describe the same procedure.  A
    /// `sync` with nothing since the previous one still closes an (empty)
    /// block, which executes as one empty thread.
    pub fn sync(&mut self) -> &mut Self {
        self.stmts.push(Stmt::Sync);
        self
    }

    /// The finished body (a trailing open block is closed).
    fn into_body(mut self) -> Vec<Stmt> {
        if !matches!(self.stmts.last(), None | Some(Stmt::Sync)) {
            self.sync();
        }
        self.stmts
    }
}

/// Build a procedure with a builder closure (the eager, top-level
/// counterpart of [`ProcBuilder::spawn`]).
///
/// See the crate-level documentation for a complete racy example.
pub fn build_proc(body: impl FnOnce(&mut ProcBuilder)) -> Proc {
    let mut b = ProcBuilder::default();
    body(&mut b);
    Proc {
        body: Arc::new(b.into_body()),
        reference: Arc::new(OnceLock::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_sync_is_implicit() {
        let explicit = build_proc(|p| {
            p.step(|_| {}).sync();
        });
        let implicit = build_proc(|p| {
            p.step(|_| {});
        });
        assert_eq!(explicit.num_blocks(), 1);
        assert_eq!(implicit.num_blocks(), 1);
        assert_eq!(explicit.num_statements(), 1);
    }

    #[test]
    fn sync_splits_blocks() {
        let p = build_proc(|p| {
            p.step(|_| {}).spawn(|_| {}).sync();
            p.step(|_| {});
        });
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.num_statements(), 3);
    }

    #[test]
    fn empty_procedure_has_no_blocks() {
        let p = build_proc(|_| {});
        assert_eq!(p.num_blocks(), 0);
        assert_eq!(p.num_statements(), 0);
    }

    #[test]
    fn a_sync_on_an_empty_open_block_still_closes_a_block() {
        let p = build_proc(|p| {
            p.sync();
            p.step(|_| {}).sync().sync();
        });
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.num_statements(), 1);
    }

    #[test]
    fn lazy_spawn_bodies_instantiate_fresh_procedures() {
        let body = SpawnBody::Lazy(Box::new(|b: &mut ProcBuilder| {
            b.step(|_| {});
        }));
        let a = body.instantiate();
        let b = body.instantiate();
        for inst in [&a, &b] {
            assert!(matches!(inst, Body::Own(_)), "each spawn unfolds fresh");
            assert!(matches!(inst[..], [Stmt::Step(_), Stmt::Sync]));
        }
        // A pre-built child shares its body with every instantiation.
        let child = build_proc(|p| {
            p.step(|_| {});
        });
        let built = SpawnBody::Built(child.clone());
        let Body::Shared(shared) = built.instantiate() else {
            panic!("a pre-built child is shared, not copied");
        };
        assert!(Arc::ptr_eq(&shared, &child.body));
    }
}
