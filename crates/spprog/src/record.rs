//! Recording a live program into offline artifacts.
//!
//! [`record_program`] executes a [`Proc`] once, serially, and materializes
//! what the offline engines need: the equivalent [`ParseTree`] (canonical
//! Cilk form, thread ids in serial order — the exact tree
//! [`sptree::cilk::CilkProgram`] would have built for the same program) and
//! the [`AccessScript`] of every access its steps performed.
//!
//! This is the *offline bridge* of the live subsystem: the live detection
//! path never materializes a tree, but the differential conformance harness
//! (`spconform`) records each random program and cross-checks the live
//! reports against every tree-driven backend on the recorded artifacts.
//! Recording assumes the program is deterministic under serial execution
//! (step closures may only depend on shared values their serial
//! predecessors wrote), which is the usual determinacy-race-freedom
//! assumption — planted races on *data* are fine as long as control flow
//! and access sequences do not depend on them.

use forkrt::{run_live_serial, SerialLiveVisitor, SpKind};
use racedet::{Access, AccessScript, LiveDetector};
use sptree::builder::Ast;
use sptree::tree::{ParseTree, ThreadId};

use crate::determinacy::{internal_record, SerialCapture, SerialFold};
use crate::program::Proc;
use crate::runtime::run_leaf;
use crate::unfold::{SerialCilk, SerialMeta};

/// The offline artifacts of one recorded serial execution.
pub struct Recorded {
    /// The unfolded SP parse tree (canonical Cilk form; step threads carry
    /// work 1, implicit sync threads work 0).
    pub tree: ParseTree,
    /// Every access each thread performed, in program order.
    pub script: AccessScript,
    /// Schedule-independent structural hash of the recorded execution —
    /// equal to the `structural_hash` of any enforced
    /// [`run_program`](crate::run_program) of the same program (see
    /// [`crate::determinacy`]), which is how the serial bridge is held to
    /// the same structure the live runs executed.
    pub structural_hash: u64,
}

struct Recorder<'a> {
    detector: &'a LiveDetector,
    /// One open internal node per stack entry: its kind and the children
    /// lowered so far.
    stack: Vec<(SpKind, Vec<Ast>)>,
    root: Option<Ast>,
    /// Every executed thread's accesses, in program order.
    accesses: Vec<Vec<Access>>,
    buf: Vec<Access>,
    capture: SerialCapture,
}

impl Recorder<'_> {
    fn attach(&mut self, node: Ast) {
        match self.stack.last_mut() {
            Some((_, children)) => children.push(node),
            None => {
                debug_assert!(self.root.is_none(), "only the root completes last");
                self.root = Some(node);
            }
        }
    }
}

impl SerialLiveVisitor<SerialCilk> for Recorder<'_> {
    fn enter_internal(&mut self, kind: SpKind, meta: &SerialMeta) {
        self.capture.fold(internal_record(meta.path, kind));
        self.stack.push((kind, Vec::with_capacity(2)));
    }

    fn execute_leaf(&mut self, meta: &SerialMeta) {
        let capture = &mut self.capture;
        let mut own = Vec::new();
        let check = |batch: &[Access]| own.extend_from_slice(batch);
        run_leaf(meta, self.detector, &mut self.buf, check, Some(|rec| capture.fold(rec)));
        self.accesses.push(own);
        self.attach(Ast::leaf(u64::from(meta.step().is_some())));
    }

    fn leave_internal(&mut self, _kind: SpKind) {
        let (kind, children) = self.stack.pop().expect("leave matches an enter");
        debug_assert_eq!(children.len(), 2, "internal nodes are binary");
        let node = match kind {
            SpKind::Series => Ast::seq(children),
            SpKind::Parallel => Ast::par(children),
        };
        self.attach(node);
    }
}

/// Execute `prog` serially once and return the equivalent parse tree and
/// access script (see the module documentation).  `locations` sizes the
/// shared value memory the steps run against.
pub fn record_program(prog: &Proc, locations: u32) -> Recorded {
    let program = SerialCilk::new(prog);
    // Value memory only — the recorder performs no shadow checks, so the
    // detector is used purely as the atomic value store.
    let detector = LiveDetector::new(locations, 1);
    let mut recorder = Recorder {
        detector: &detector,
        stack: Vec::new(),
        root: None,
        accesses: Vec::new(),
        buf: Vec::new(),
        capture: SerialCapture::default(),
    };
    let threads = run_live_serial(&program, &mut recorder);
    let ast = recorder.root.expect("the program unfolds at least one thread");
    let tree = ast.build();
    debug_assert_eq!(tree.num_threads() as u64, threads);
    let mut script = AccessScript::new(tree.num_threads(), locations);
    for (t, accesses) in recorder.accesses.iter().enumerate() {
        let thread = recorded_thread_id(t);
        for &access in accesses {
            script.push(thread, access);
        }
    }
    Recorded {
        tree,
        script,
        structural_hash: recorder.capture.hash,
    }
}

/// Checked conversion of a recorder slot index into a dense [`ThreadId`]:
/// thread ids are `u32` everywhere downstream, so a recording that somehow
/// executed more threads must fail loudly, not wrap into a colliding id.
fn recorded_thread_id(t: usize) -> ThreadId {
    ThreadId(u32::try_from(t).unwrap_or_else(|_| {
        panic!("recorded program executed more than {} threads, which exceeds the u32 thread-id space", u32::MAX)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::build_proc;

    #[test]
    fn recorded_thread_ids_are_checked() {
        assert_eq!(recorded_thread_id(0), ThreadId(0));
        assert_eq!(recorded_thread_id(u32::MAX as usize), ThreadId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "u32 thread-id space")]
    fn oversized_recordings_panic_instead_of_wrapping_thread_ids() {
        recorded_thread_id(u32::MAX as usize + 1);
    }

    #[test]
    fn recorded_tree_matches_the_cilk_lowering_shape() {
        // main: u0; spawn child { u_c }; u1; sync  — five threads in the
        // canonical form: step, child's step, child's sync thread, step,
        // main's sync thread.
        let prog = build_proc(|p| {
            p.step(|m| m.write(0, 1));
            p.spawn(|c| {
                c.step(|m| m.write(1, 2));
            });
            p.step(|m| m.write(2, 3));
        });
        let rec = record_program(&prog, 4);
        rec.tree.check_invariants();
        assert_eq!(rec.tree.num_threads(), 5);
        // Work marks steps (1) vs implicit sync threads (0), in serial order.
        let works: Vec<u64> = rec.tree.thread_ids().map(|t| rec.tree.work_of(t)).collect();
        assert_eq!(works, vec![1, 1, 0, 1, 0]);
        // The script holds exactly the steps' accesses, in serial order.
        assert_eq!(rec.script.of(ThreadId(0)), &[Access::write(0)]);
        assert_eq!(rec.script.of(ThreadId(1)), &[Access::write(1)]);
        assert_eq!(rec.script.of(ThreadId(2)), &[]);
        assert_eq!(rec.script.of(ThreadId(3)), &[Access::write(2)]);
        assert_eq!(rec.script.total_accesses(), 3);
    }

    #[test]
    fn recording_serves_serially_written_values() {
        let prog = build_proc(|p| {
            p.step(|m| m.write(0, 40));
            p.step(|m| {
                let v = m.read(0);
                m.write(1, v + 2);
            });
            p.step(|m| assert_eq!(m.read(1), 42));
        });
        let rec = record_program(&prog, 2);
        assert_eq!(rec.tree.num_threads(), 4);
        assert_eq!(rec.script.total_accesses(), 4);
    }

    #[test]
    fn empty_program_records_one_empty_thread() {
        let rec = record_program(&build_proc(|_| {}), 1);
        assert_eq!(rec.tree.num_threads(), 1);
        assert_eq!(rec.tree.work_of(ThreadId(0)), 0);
        assert_eq!(rec.script.total_accesses(), 0);
    }
}
