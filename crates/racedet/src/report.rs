//! Race reports, and the collector the engine fills them through.
//!
//! A report holds **one entry per racy location**: the first race found
//! there, in report order.  That is the guarantee the detector inherits from
//! Feng–Leiserson's SP-bags Nondeterminator, which is stated per location —
//! a race is reported on a location iff the program has one there on this
//! input — and it is decided where the race is found, by one claim bit per
//! location in the run's [`RaceCollector`]: later races on a claimed
//! location cost one bit test and are never stored.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};
use sptree::tree::ThreadId;

/// The kind of conflicting access pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RaceKind {
    /// A write racing with an earlier write.
    WriteWrite,
    /// A write racing with an earlier read.
    ReadWrite,
    /// A read racing with an earlier write.
    WriteRead,
}

/// One detected determinacy race.  In a [`RaceReport`] it stands for its
/// location: it is the first race found there, and any later one on the
/// same location is not reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Race {
    /// The shared location involved.
    pub loc: u32,
    /// The previously recorded thread.
    pub earlier: ThreadId,
    /// The thread whose access triggered the report.
    pub later: ThreadId,
    /// Which kind of conflict.
    pub kind: RaceKind,
}

/// The races found during one run: one entry per racy location, the first
/// race found there, in the order the entries were reported.  On a serial
/// run that is program order — the first race of every location in the
/// order a left-to-right walk meets it.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    races: Vec<Race>,
}

impl RaceReport {
    /// Empty report.
    pub fn new() -> Self {
        RaceReport::default()
    }

    /// Record races in iteration order (the caller keeps locations
    /// distinct).
    pub(crate) fn extend(&mut self, races: impl IntoIterator<Item = Race>) {
        self.races.extend(races);
    }

    /// One race per racy location — the first found there — in report
    /// order.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Number of entries, which is the number of racy locations.
    pub fn len(&self) -> usize {
        self.races.len()
    }

    /// True if no race was found.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// The set of locations on which a race was reported, sorted.
    pub fn racy_locations(&self) -> Vec<u32> {
        let mut locs: Vec<u32> = self.races.iter().map(|r| r.loc).collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }
}

/// Where one run's races go: the report behind its mutex, and one claim bit
/// per location that lets only the first race found on a location into it.
///
/// The claim plane is `AtomicU64` words, allocated on the first race, so a
/// race-free run never touches it.  One collector serves one run (or one
/// service session): a fresh collector has every location unclaimed.
pub struct RaceCollector {
    report: Mutex<RaceReport>,
    claimed: OnceLock<Box<[AtomicU64]>>,
    locations: u32,
}

impl RaceCollector {
    /// A collector for a run over `locations` shared locations.
    pub fn new(locations: u32) -> Self {
        RaceCollector {
            report: Mutex::new(RaceReport::new()),
            claimed: OnceLock::new(),
            locations,
        }
    }

    /// Claim `loc` for the report: true for exactly one caller per
    /// location, the one that found the first race there.  A location
    /// already claimed costs one relaxed load; the atomic `fetch_or` decides
    /// between finders that race for the same bit.  `Relaxed` suffices: the
    /// bit publishes nothing, the race itself reaches the report through its
    /// mutex.
    #[inline]
    pub(crate) fn claim(&self, loc: u32) -> bool {
        let words = self.claimed.get_or_init(|| {
            (0..self.locations.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect()
        });
        let (word, bit) = (&words[(loc / 64) as usize], 1u64 << (loc % 64));
        word.load(Ordering::Relaxed) & bit == 0 && word.fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    /// The report, locked for appending claimed races.
    pub(crate) fn lock(&self) -> MutexGuard<'_, RaceReport> {
        self.report.lock()
    }

    /// Snapshot of the races reported so far.
    pub fn report(&self) -> RaceReport {
        self.report.lock().clone()
    }

    /// Consume the collector and return the final report.
    pub fn into_report(self) -> RaceReport {
        self.report.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_locations_are_deduplicated_and_sorted() {
        let mut report = RaceReport::new();
        report.extend([5u32, 1, 5, 3, 1].map(|loc| Race {
            loc,
            earlier: ThreadId(0),
            later: ThreadId(1),
            kind: RaceKind::WriteWrite,
        }));
        assert_eq!(report.len(), 5);
        assert_eq!(report.racy_locations(), vec![1, 3, 5]);
        assert!(!report.is_empty());
    }

    #[test]
    fn each_location_is_claimed_once() {
        let races = RaceCollector::new(130);
        assert!(
            races.claimed.get().is_none(),
            "no plane before the first race"
        );
        for loc in [0u32, 63, 64, 129] {
            assert!(races.claim(loc), "first claim of {loc}");
            assert!(!races.claim(loc), "second claim of {loc}");
        }
        assert!(
            races.claim(1),
            "a neighbour in the same word is its own location"
        );
        assert_eq!(races.claimed.get().map(|words| words.len()), Some(3));
    }
}
