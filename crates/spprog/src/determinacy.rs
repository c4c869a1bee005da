//! Enforced fork-join determinacy: a schedule-independent structural hash
//! of the unfolding SP dag.
//!
//! The paper's on-the-fly guarantees hold only for *determinate* programs —
//! ones whose fork-join structure (and each step's access sequence) is a
//! function of the program, not of the schedule.  The offline bridge
//! ([`crate::record_program`]) and the conformance sweeps *assume* this;
//! this module lets the runtime *check* it.
//!
//! Every node of the unfolding computation carries a **path**: a 64-bit
//! label derived purely from its position in the SP parse tree (root
//! constant, children mixed from the parent's path plus a left/right salt).
//! Paths are allocated at unfold time but depend only on structure — unlike
//! [`ProcId`](sptree::tree::ProcId)s or [`ThreadId`](sptree::tree::ThreadId)s,
//! which are handed out in schedule-dependent `fetch_add` order and must
//! never enter the hash.  Each node folds to a **fingerprint** (path ⊕ node
//! kind; for step leaves also the access *sequence* — kinds and locations,
//! not values), and the run's **structural hash** is the XOR of all
//! fingerprints: commutative, so work-stealing arrival order cannot affect
//! it, while the paths keep it position-sensitive.
//!
//! [`try_run_program`](crate::try_run_program) with
//! [`RunConfig::enforced`](crate::RunConfig::enforced) compares a run's hash
//! against a cached serial reference of the same [`Proc`](crate::Proc) and
//! returns a typed [`DeterminacyViolation`] — naming the first divergent
//! node in serial visit order — instead of a (necessarily bogus) race
//! report.  See `ARCHITECTURE.md#enforced-determinacy` at the repository
//! root for the full design.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use forkrt::SpKind;
use parking_lot::Mutex;
use racedet::{Access, AccessKind};

// ---------------------------------------------------------------------------
// Paths and fingerprints
// ---------------------------------------------------------------------------

/// The root of every unfolding gets the same path.
pub(crate) const ROOT_PATH: u64 = 0x9AE1_6A3B_2F90_404F;

const LEFT_SALT: u64 = 0xD1B5_4A32_D192_ED03;
const RIGHT_SALT: u64 = 0x8CB9_2BA7_2F3D_8DD7;
const SERIES_SALT: u64 = 0x2545_F491_4F6C_DD1D;
const PARALLEL_SALT: u64 = 0x9E6C_63D0_873D_93F5;
const STEP_LEAF_SALT: u64 = 0x6C62_272E_07BB_0142;
const EMPTY_LEAF_SALT: u64 = 0xAF63_BD4C_8601_B7DF;
const ACCESS_SEED: u64 = 0x100_0000_01B3;

/// The splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Paths of an internal node's two children — a pure function of the
/// parent's path, so every schedule assigns identical paths.
#[inline]
pub(crate) fn child_paths(path: u64) -> (u64, u64) {
    (mix(path ^ LEFT_SALT), mix(path ^ RIGHT_SALT))
}

/// A step's access *sequence* (kind + location per access, never the values
/// — racy programs may legitimately read schedule-dependent values) folded
/// into one word, batch by batch as the step records them.
///
/// Zobrist-style: each access hashes its packed (position, location, kind)
/// word independently and the terms combine with XOR.  Position rides in
/// the high bits (a location is a `u32`, so `loc << 1 | kind` never reaches
/// bit 33), which keeps the fold sequence-sensitive while letting the `mix`
/// terms compute with instruction-level parallelism — a chained
/// mix-per-access fold costs its full latency on every access, and steps
/// with large access lists (the BFS chunk tasks) pay that on the
/// enforcement hot path.  Because the terms are independent, folding a
/// sequence in batches (positions offset by the accesses folded before)
/// gives the word folding it whole gives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccessFold {
    hash: u64,
    count: u64,
}

impl Default for AccessFold {
    fn default() -> Self {
        AccessFold { hash: ACCESS_SEED, count: 0 }
    }
}

impl AccessFold {
    /// Fold the step's next `batch` of accesses.
    #[inline]
    pub(crate) fn add(&mut self, batch: &[Access]) {
        for (i, a) in batch.iter().enumerate() {
            let w = u64::from(a.kind == AccessKind::Write);
            self.hash ^= mix((self.count + i as u64) << 33 | u64::from(a.loc) << 1 | w);
        }
        self.count += batch.len() as u64;
    }
}

// ---------------------------------------------------------------------------
// Per-node records
// ---------------------------------------------------------------------------

/// Compact description of a node, packed for cheap capture:
/// bits 0–1 kind (1 = S, 2 = P, 3 = leaf), bit 2 step-vs-empty leaf,
/// bits 8.. access count.
fn pack_desc(kind: Option<SpKind>, has_step: bool, accesses: u64) -> u64 {
    match kind {
        Some(SpKind::Series) => 1,
        Some(SpKind::Parallel) => 2,
        None => 3 | (u64::from(has_step) << 2) | (accesses << 8),
    }
}

fn describe(desc: u64) -> String {
    match desc & 0b11 {
        1 => "S-node".to_owned(),
        2 => "P-node (spawn)".to_owned(),
        _ if desc & 0b100 != 0 => format!("step leaf ({} accesses)", desc >> 8),
        _ => "empty sync leaf".to_owned(),
    }
}

/// One captured node: its structural path, its fingerprint, and a packed
/// description used only when a violation is diagnosed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeRecord {
    pub(crate) path: u64,
    pub(crate) fp: u64,
    pub(crate) desc: u64,
}

/// Record for an internal (S or P) node.
#[inline]
pub(crate) fn internal_record(path: u64, kind: SpKind) -> NodeRecord {
    let salt = match kind {
        SpKind::Series => SERIES_SALT,
        SpKind::Parallel => PARALLEL_SALT,
    };
    NodeRecord {
        path,
        fp: mix(path ^ salt),
        desc: pack_desc(Some(kind), false, 0),
    }
}

/// Record for a leaf; step leaves also fold their access sequence.
#[inline]
pub(crate) fn leaf_record(path: u64, has_step: bool, accesses: AccessFold) -> NodeRecord {
    let salt = if has_step { STEP_LEAF_SALT } else { EMPTY_LEAF_SALT };
    NodeRecord {
        path,
        fp: mix(path ^ salt ^ accesses.hash),
        desc: pack_desc(None, has_step, accesses.count),
    }
}

// ---------------------------------------------------------------------------
// Captures
// ---------------------------------------------------------------------------

/// Sink for the node records of a deterministic serial walk: either a full
/// ordered capture (seeding a reference) or a streaming check against an
/// already-cached one.
pub(crate) trait SerialFold {
    fn fold(&mut self, rec: NodeRecord);
}

/// Ordered capture of a serial (single-threaded) walk: the structural hash
/// plus the per-node records in serial visit order.
#[derive(Default)]
pub(crate) struct SerialCapture {
    pub(crate) hash: u64,
    pub(crate) nodes: Vec<NodeRecord>,
}

/// The cached serial reference of one [`Proc`](crate::Proc) *is* the capture
/// of one serial walk; its node records are what lets a violation *name* a
/// divergent node.  Computed once per program — the first enforced run
/// seeds it, every later enforced run of the same `Proc` (or a clone)
/// reuses it, which is what keeps enforcement overhead to the per-node
/// fold.
pub(crate) type SerialReference = SerialCapture;

impl SerialFold for SerialCapture {
    #[inline]
    fn fold(&mut self, rec: NodeRecord) {
        self.hash ^= rec.fp;
        self.nodes.push(rec);
    }
}

/// Streaming check of a serial walk against the cached reference.  Serial
/// visit order is deterministic, so each folded record can be compared with
/// the reference node at the same position on the fly: the steady-state
/// enforced serial run stores nothing — only the first divergence, if any —
/// instead of re-capturing the whole walk.
pub(crate) struct SerialCheck<'a> {
    reference: &'a SerialReference,
    pub(crate) hash: u64,
    index: usize,
    divergence: Option<Divergence>,
}

impl<'a> SerialCheck<'a> {
    pub(crate) fn new(reference: &'a SerialReference) -> Self {
        SerialCheck {
            reference,
            hash: 0,
            index: 0,
            divergence: None,
        }
    }

    /// The first divergence, if the walk produced one — including a walk
    /// that stopped short of the reference.
    pub(crate) fn into_divergence(self) -> Option<Divergence> {
        if self.divergence.is_some() {
            return self.divergence;
        }
        let missing = self.reference.nodes.get(self.index)?;
        Some(Divergence::at(missing.path, Some((self.index, missing)), None))
    }
}

impl SerialFold for SerialCheck<'_> {
    #[inline]
    fn fold(&mut self, rec: NodeRecord) {
        self.hash ^= rec.fp;
        if self.divergence.is_none() {
            self.divergence = match self.reference.nodes.get(self.index) {
                Some(r) if r.path == rec.path && r.fp == rec.fp => None,
                Some(r) => Some(Divergence::at(r.path, Some((self.index, r)), Some(&rec))),
                None => Some(Divergence::at(rec.path, None, Some(&rec))),
            };
        }
        self.index += 1;
    }
}

/// Capture shared by the workers of a multi-worker run.
///
/// The hot path ([`SharedCapture::new`]) is **hash-only**: each worker XORs
/// its fingerprints into its own cache-line padded slot.  A slot has
/// exactly one writer for the whole run (the worker that owns the index),
/// so a plain relaxed load/store pair suffices — no RMW, no lock, no shared
/// cache line — and the scheduler's join publishes the final values to the
/// thread that combines them.  Node records exist only to *name* a
/// divergence after a hash mismatch, so only the diagnostic re-run
/// ([`SharedCapture::recording`]) pays for collecting them: per-worker
/// vectors behind locks that are only ever taken by their own worker (the
/// same pattern as the runtime's per-worker access buffers).
pub(crate) struct SharedCapture {
    hashes: Vec<CachePadded<AtomicU64>>,
    records: Option<Vec<Mutex<Vec<NodeRecord>>>>,
}

impl SharedCapture {
    /// Hash-only capture: what every enforced multi-worker run pays.
    pub(crate) fn new(workers: usize) -> Self {
        SharedCapture {
            hashes: (0..workers).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            records: None,
        }
    }

    /// Recording capture for the diagnostic re-run after a mismatch.
    /// `expected_nodes` (from the cached serial reference of the same
    /// program) pre-sizes the per-worker vectors; the extra quarter absorbs
    /// steal imbalance without a mid-run realloc on typical runs.
    pub(crate) fn recording(workers: usize, expected_nodes: usize) -> Self {
        let per_worker = expected_nodes / workers.max(1) + expected_nodes / 4 + 16;
        let records = (0..workers).map(|_| Mutex::new(Vec::with_capacity(per_worker)));
        SharedCapture {
            records: Some(records.collect()),
            ..SharedCapture::new(workers)
        }
    }

    #[inline]
    pub(crate) fn fold(&self, worker: usize, rec: NodeRecord) {
        let slot = &self.hashes[worker];
        // Single writer per slot: a load/store pair is not a lost-update
        // hazard here.
        slot.store(slot.load(Ordering::Relaxed) ^ rec.fp, Ordering::Relaxed);
        if let Some(records) = &self.records {
            records[worker].lock().push(rec);
        }
    }

    pub(crate) fn hash(&self) -> u64 {
        self.hashes
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .fold(0, |h, w| h ^ w)
    }

    pub(crate) fn into_records(self) -> Vec<NodeRecord> {
        self.records
            .unwrap_or_default()
            .into_iter()
            .flat_map(parking_lot::Mutex::into_inner)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------------

/// The first node (in serial visit order) where an enforced run's structure
/// diverged from the serial reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Schedule-independent structural path of the divergent node.
    pub path: u64,
    /// Position of the node in the serial reference walk (`None` if the
    /// node exists only in the checked run — the reference matched
    /// everywhere but the run unfolded extra structure).
    pub serial_index: Option<usize>,
    /// What the serial reference has at this path, rendered for humans.
    pub serial_node: Option<String>,
    /// What the checked run has at this path, rendered for humans.
    pub parallel_node: Option<String>,
}

impl Divergence {
    /// The divergence at `path`: what the serial reference has there (with
    /// its visit index) against what the checked run has.
    fn at(path: u64, serial: Option<(usize, &NodeRecord)>, checked: Option<&NodeRecord>) -> Self {
        Divergence {
            path,
            serial_index: serial.map(|(i, _)| i),
            serial_node: serial.map(|(_, r)| describe(r.desc)),
            parallel_node: checked.map(|r| describe(r.desc)),
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node at path {:#018x}", self.path)?;
        if let Some(i) = self.serial_index {
            write!(f, " (serial visit index {i})")?;
        }
        let serial = self.serial_node.as_deref().unwrap_or("absent");
        let parallel = self.parallel_node.as_deref().unwrap_or("absent");
        write!(f, ": serial reference has {serial}, checked run has {parallel}")
    }
}

/// An enforced run unfolded a different fork-join structure than the serial
/// reference of the same program: the program is *not* determinate, so the
/// run's race report would be meaningless and is discarded.
///
/// Returned by [`try_run_program`](crate::try_run_program) when
/// [`RunConfig::enforced`](crate::RunConfig::enforced) is set.  The
/// [`Divergence`] names the first divergent node in serial visit order.
/// It is `None` only when the divergence cannot be pinned to a node: an
/// XOR-hash collision masking every per-node difference, or — on
/// multi-worker runs, whose hot path keeps per-worker hashes only — a
/// diagnostic re-run that happened not to diverge (a schedule-dependent
/// program diverges again with overwhelming likelihood, so this is rare).
#[derive(Clone, Debug)]
pub struct DeterminacyViolation {
    /// Structural hash of the serial reference run.
    pub serial_hash: u64,
    /// Structural hash of the checked run.
    pub parallel_hash: u64,
    /// Workers the checked run used.
    pub workers: usize,
    /// First divergent node, in serial visit order.
    pub divergence: Option<Divergence>,
}

impl fmt::Display for DeterminacyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "determinacy violation: the {}-worker run unfolded structural hash {:#018x} \
             but the serial reference is {:#018x}",
            self.workers, self.parallel_hash, self.serial_hash
        )?;
        if let Some(d) = &self.divergence {
            write!(f, "; first divergent {d}")?;
        }
        write!(
            f,
            " — the program's fork-join structure depends on the schedule, \
             so no race report was produced"
        )
    }
}

impl std::error::Error for DeterminacyViolation {}

/// Diagnose a hash mismatch: find the first node in serial visit order
/// whose fingerprint is missing or different on the checked side.
///
/// If every serial node matches (possible only when the checked run
/// unfolded a strict superset), name the extra node with the smallest path.
pub(crate) fn diagnose(reference: &SerialReference, checked: &[NodeRecord]) -> Option<Divergence> {
    let by_path: HashMap<u64, NodeRecord> = checked.iter().map(|r| (r.path, *r)).collect();
    for (i, r) in reference.nodes.iter().enumerate() {
        let other = by_path.get(&r.path);
        if other.map(|p| p.fp) != Some(r.fp) {
            return Some(Divergence::at(r.path, Some((i, r)), other));
        }
    }
    let serial_paths: HashSet<u64> = reference.nodes.iter().map(|r| r.path).collect();
    checked
        .iter()
        .filter(|r| !serial_paths.contains(&r.path))
        .min_by_key(|r| r.path)
        .map(|r| Divergence::at(r.path, None, Some(r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fold of a whole access sequence at once, straight from the
    /// formula: the reference [`AccessFold`]'s batches must reproduce.
    fn access_fold(accesses: &[Access]) -> u64 {
        let mut h = ACCESS_SEED;
        for (i, a) in accesses.iter().enumerate() {
            let w = u64::from(a.kind == AccessKind::Write);
            h ^= mix((i as u64) << 33 | u64::from(a.loc) << 1 | w);
        }
        h
    }

    fn folded(accesses: &[Access]) -> AccessFold {
        let mut fold = AccessFold::default();
        fold.add(accesses);
        fold
    }

    #[test]
    fn child_paths_are_distinct_and_deterministic() {
        let (l, r) = child_paths(ROOT_PATH);
        assert_ne!(l, r);
        assert_ne!(l, ROOT_PATH);
        assert_eq!(child_paths(ROOT_PATH), (l, r));
        // Grandchildren of distinct children stay distinct.
        let (ll, lr) = child_paths(l);
        let (rl, rr) = child_paths(r);
        let all = [l, r, ll, lr, rl, rr];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn fingerprints_separate_node_kinds_at_the_same_path() {
        let p = ROOT_PATH;
        let fps = [
            internal_record(p, SpKind::Series).fp,
            internal_record(p, SpKind::Parallel).fp,
            leaf_record(p, true, folded(&[])).fp,
            leaf_record(p, false, folded(&[])).fp,
            leaf_record(p, true, folded(&[Access::write(0)])).fp,
            leaf_record(p, true, folded(&[Access::read(0)])).fp,
        ];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn access_fold_is_sequence_sensitive_but_value_blind() {
        let wr = [Access::write(3), Access::read(3)];
        let rw = [Access::read(3), Access::write(3)];
        assert_ne!(access_fold(&wr), access_fold(&rw), "order matters");
        assert_ne!(
            access_fold(&[Access::write(1)]),
            access_fold(&[Access::write(2)]),
            "locations matter"
        );
        assert_eq!(access_fold(&wr), access_fold(&wr), "values are not folded");
    }

    /// A step's accesses arrive in batches; folded batch by batch they give
    /// the word and the count of the whole sequence, wherever it is cut.
    #[test]
    fn a_fold_across_batches_equals_the_fold_of_the_whole_sequence() {
        let accesses: Vec<Access> = (0..1_000u32)
            .map(|i| if i % 3 == 0 { Access::write(i % 61) } else { Access::read(i % 61) })
            .collect();
        let whole = folded(&accesses);
        assert_eq!(whole.hash, access_fold(&accesses));
        assert_eq!(whole.count, 1_000);
        for cut in [1, 7, 64, 999, 1_000] {
            let mut batched = AccessFold::default();
            for batch in accesses.chunks(cut) {
                batched.add(batch);
            }
            assert_eq!(batched, whole, "batches of {cut}");
        }
        assert_eq!(AccessFold::default().hash, access_fold(&[]), "an empty step folds nothing");
    }

    #[test]
    fn diagnose_names_the_first_serial_order_mismatch() {
        let a = internal_record(1, SpKind::Series);
        let b = internal_record(2, SpKind::Parallel);
        let c = leaf_record(3, true, folded(&[]));
        let reference = SerialReference {
            hash: a.fp ^ b.fp ^ c.fp,
            nodes: vec![a, b, c],
        };
        // Same paths but node 2 flipped kind: the divergence names path 2.
        let flipped = internal_record(2, SpKind::Series);
        let d = diagnose(&reference, &[c, flipped, a]).expect("diverges");
        assert_eq!(d.path, 2);
        assert_eq!(d.serial_index, Some(1));
        assert_eq!(d.serial_node.as_deref(), Some("P-node (spawn)"));
        assert_eq!(d.parallel_node.as_deref(), Some("S-node"));
        // Node 2 missing entirely: still named, parallel side absent.
        let d = diagnose(&reference, &[a, c]).expect("diverges");
        assert_eq!(d.path, 2);
        assert_eq!(d.parallel_node, None);
        // Superset: every serial node matches, the extra node is named.
        let extra = leaf_record(0, false, folded(&[]));
        let d = diagnose(&reference, &[a, b, c, extra]).expect("diverges");
        assert_eq!(d.path, 0);
        assert_eq!(d.serial_index, None);
        assert_eq!(d.parallel_node.as_deref(), Some("empty sync leaf"));
    }

    #[test]
    fn serial_check_streams_the_first_divergence() {
        let a = internal_record(1, SpKind::Series);
        let b = internal_record(2, SpKind::Parallel);
        let c = leaf_record(3, true, folded(&[]));
        let reference = SerialReference {
            hash: a.fp ^ b.fp ^ c.fp,
            nodes: vec![a, b, c],
        };
        // A matching walk: same hash, no divergence.
        let mut check = SerialCheck::new(&reference);
        for r in [a, b, c] {
            check.fold(r);
        }
        assert_eq!(check.hash, reference.hash);
        assert_eq!(check.into_divergence(), None);
        // Node 2 flipped kind mid-walk: named with both sides rendered.
        let mut check = SerialCheck::new(&reference);
        check.fold(a);
        check.fold(internal_record(2, SpKind::Series));
        check.fold(c);
        assert_ne!(check.hash, reference.hash);
        let d = check.into_divergence().expect("diverges");
        assert_eq!((d.path, d.serial_index), (2, Some(1)));
        assert_eq!(d.serial_node.as_deref(), Some("P-node (spawn)"));
        assert_eq!(d.parallel_node.as_deref(), Some("S-node"));
        // Walk stops short: the missing reference node is named.
        let mut check = SerialCheck::new(&reference);
        check.fold(a);
        check.fold(b);
        let d = check.into_divergence().expect("diverges");
        assert_eq!((d.path, d.serial_index), (3, Some(2)));
        assert_eq!(d.parallel_node, None);
        // Walk runs long: the extra node is named, serial side absent.
        let extra = leaf_record(9, false, folded(&[]));
        let mut check = SerialCheck::new(&reference);
        for r in [a, b, c, extra] {
            check.fold(r);
        }
        let d = check.into_divergence().expect("diverges");
        assert_eq!((d.path, d.serial_index), (9, None));
        assert_eq!(d.parallel_node.as_deref(), Some("empty sync leaf"));
    }

    #[test]
    fn shared_capture_hash_matches_serial_regardless_of_worker() {
        let recs = [
            internal_record(1, SpKind::Parallel),
            leaf_record(2, true, folded(&[Access::write(0)])),
            leaf_record(3, true, folded(&[Access::read(0)])),
        ];
        let serial = recs.iter().fold(0, |h, r| h ^ r.fp);
        // The hash-only hot path carries no records.
        let shared = SharedCapture::new(4);
        for (i, r) in recs.iter().enumerate() {
            shared.fold(i % 4, *r);
        }
        assert_eq!(shared.hash(), serial);
        assert_eq!(shared.into_records(), []);
        // The diagnostic recording capture carries them all.
        let shared = SharedCapture::recording(4, recs.len());
        for (i, r) in recs.iter().enumerate() {
            shared.fold(i % 4, *r);
        }
        assert_eq!(shared.hash(), serial);
        let mut collected = shared.into_records();
        collected.sort_by_key(|r| r.path);
        assert_eq!(collected, recs);
    }

    #[test]
    fn violation_display_names_the_node() {
        let v = DeterminacyViolation {
            serial_hash: 0x1111,
            parallel_hash: 0x2222,
            workers: 4,
            divergence: Some(Divergence {
                path: 0xABCD,
                serial_index: Some(7),
                serial_node: Some("S-node".into()),
                parallel_node: Some("P-node (spawn)".into()),
            }),
        };
        let msg = v.to_string();
        assert!(msg.contains("determinacy violation"), "{msg}");
        assert!(msg.contains("4-worker"), "{msg}");
        assert!(msg.contains("0x000000000000abcd"), "{msg}");
        assert!(msg.contains("serial visit index 7"), "{msg}");
        assert!(msg.contains("no race report"), "{msg}");
    }
}
