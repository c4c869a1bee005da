//! Per-thread shared-memory access scripts.
//!
//! The paper's race detectors instrument every load and store of the program
//! under test.  Our programs are synthetic parse trees, so the "program
//! memory behaviour" is described by an access script: for every thread, the
//! ordered list of shared locations it reads and writes.  This preserves the
//! code path a real instrumented execution exercises — one shadow-memory
//! lookup plus O(1) SP queries per access — while keeping workloads
//! reproducible and parameterizable.

use sptree::tree::ThreadId;

/// Kind of a shared-memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One access to a shared-memory location.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Location identifier (an index into the shadow memory).
    pub loc: u32,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// A read of `loc`.
    pub fn read(loc: u32) -> Self {
        Access {
            loc,
            kind: AccessKind::Read,
        }
    }

    /// A write of `loc`.
    pub fn write(loc: u32) -> Self {
        Access {
            loc,
            kind: AccessKind::Write,
        }
    }
}

/// The accesses of every thread of a program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessScript {
    /// `accesses[t]` = ordered accesses of thread `t`.
    accesses: Vec<Vec<Access>>,
    /// Number of distinct shared locations (shadow-memory size).
    num_locations: u32,
}

impl AccessScript {
    /// An empty script for `num_threads` threads and `num_locations` shared
    /// locations.
    pub fn new(num_threads: usize, num_locations: u32) -> Self {
        AccessScript {
            accesses: vec![Vec::new(); num_threads],
            num_locations,
        }
    }

    /// The script whose thread `t` makes the accesses `threads[t]`, taken as
    /// they are, over at least `num_locations` locations: the location space
    /// grows to cover every access, as [`Self::push`] grows it.
    pub fn from_threads(threads: Vec<Vec<Access>>, num_locations: u32) -> Self {
        let mut script = AccessScript {
            accesses: Vec::new(),
            num_locations,
        };
        for access in threads.iter().flatten() {
            script.ensure_location(access.loc);
        }
        script.accesses = threads;
        script
    }

    /// Number of shared locations.
    pub fn num_locations(&self) -> u32 {
        self.num_locations
    }

    /// Grow the location space if `loc` is outside it.
    fn ensure_location(&mut self, loc: u32) {
        if loc >= self.num_locations {
            self.num_locations = loc + 1;
        }
    }

    /// Append an access to a thread's script.
    pub fn push(&mut self, thread: ThreadId, access: Access) {
        self.ensure_location(access.loc);
        self.accesses[thread.index()].push(access);
    }

    /// Accesses of one thread.
    pub fn of(&self, thread: ThreadId) -> &[Access] {
        &self.accesses[thread.index()]
    }

    /// Total number of accesses in the script.
    pub fn total_accesses(&self) -> usize {
        self.accesses.iter().map(Vec::len).sum()
    }

    /// Number of threads covered by the script.
    pub fn num_threads(&self) -> usize {
        self.accesses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_bookkeeping() {
        let mut script = AccessScript::new(3, 4);
        script.push(ThreadId(0), Access::write(1));
        script.push(ThreadId(0), Access::read(2));
        script.push(ThreadId(2), Access::write(7));
        assert_eq!(script.of(ThreadId(0)).len(), 2);
        assert_eq!(script.of(ThreadId(1)).len(), 0);
        assert_eq!(script.of(ThreadId(2)), &[Access::write(7)]);
        assert_eq!(script.total_accesses(), 3);
        // Location space grew to cover loc 7.
        assert_eq!(script.num_locations(), 8);
        let threads = vec![
            vec![Access::write(1), Access::read(2)],
            vec![],
            vec![Access::write(7)],
        ];
        assert_eq!(AccessScript::from_threads(threads, 4), script);
        assert_eq!(
            AccessScript::from_threads(vec![vec![Access::read(1)]], 9).num_locations(),
            9
        );
    }
}
