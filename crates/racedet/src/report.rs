//! Race reports.

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

/// One detected determinacy race.
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

/// Collection of races found during one run.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    races: Vec<Race>,
}

impl RaceReport {
    /// Empty report.
    pub fn new() -> Self {
        RaceReport::default()
    }

    /// Record a race.
    pub fn push(&mut self, race: Race) {
        self.races.push(race);
    }

    /// All recorded races.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Number of recorded races.
    pub fn len(&self) -> usize {
        self.races.len()
    }

    /// True if no race was found.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// The set of locations on which at least one race was reported, sorted.
    pub fn racy_locations(&self) -> Vec<u32> {
        let mut locs: Vec<u32> = self.races.iter().map(|r| r.loc).collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: RaceReport) {
        self.races.extend(other.races);
    }
}

impl Extend<Race> for RaceReport {
    /// Record races in iteration order.
    fn extend<I: IntoIterator<Item = Race>>(&mut self, races: I) {
        self.races.extend(races);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_locations_are_deduplicated_and_sorted() {
        let mut report = RaceReport::new();
        for loc in [5u32, 1, 5, 3, 1] {
            report.push(Race {
                loc,
                earlier: ThreadId(0),
                later: ThreadId(1),
                kind: RaceKind::WriteWrite,
            });
        }
        assert_eq!(report.len(), 5);
        assert_eq!(report.racy_locations(), vec![1, 3, 5]);
        assert!(!report.is_empty());
    }
}
