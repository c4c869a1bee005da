//! A pooled detector recycled per lease, leased the way the service leases
//! one: created empty on a pool miss, then [`LiveDetector::reset`] for each
//! session's locations and [`SessionMode::workers`] before it runs and
//! [`LiveDetector::take_report`] after.  Test-only: the entry point is the
//! service's lease in `service::admit` / `service::run_one`; the module keeps
//! its name so these tests keep the ids (`arena::tests::*`) the suite's
//! floor list knows them by.
//!
//! [`LiveDetector::reset`]: racedet::LiveDetector::reset
//! [`LiveDetector::take_report`]: racedet::LiveDetector::take_report
//! [`SessionMode::workers`]: spprog::SessionMode::workers

mod tests {
    use racedet::{Access, LiveDetector};
    use spmaint::api::CurrentSpQuery;
    use spmetrics::MetricsHandle;
    use spprog::SessionMode;
    use sptree::tree::ThreadId;

    struct AllParallel;
    impl CurrentSpQuery for AllParallel {
        fn precedes_current(&self, _earlier: ThreadId) -> bool {
            false
        }
    }

    /// A pool miss: the empty detector the service creates.
    fn pooled() -> LiveDetector {
        LiveDetector::new(0, 1)
    }

    fn lease(detector: &mut LiveDetector, locations: u32, mode: SessionMode) {
        detector.reset(locations, mode.workers(), MetricsHandle::detached());
    }

    #[test]
    fn values_are_fresh_after_recycle() {
        let mut detector = pooled();
        lease(&mut detector, 4, SessionMode::Serial);
        detector.write(2, 99);
        assert_eq!(detector.read(2), 99);
        assert!(detector.take_report().is_empty());
        lease(&mut detector, 4, SessionMode::Serial);
        assert_eq!(detector.read(2), 0, "the last lease's value reads as fresh memory");
    }

    #[test]
    fn shadow_state_is_fresh_after_recycle() {
        let mut detector = pooled();
        for round in 0..3 {
            lease(&mut detector, 2, SessionMode::Serial);
            detector.check_thread(&AllParallel, ThreadId(0), &[Access::write(0)]);
            detector.check_thread(&AllParallel, ThreadId(1), &[Access::write(0)]);
            let report = detector.take_report();
            assert_eq!(report.len(), 1, "round {round}: exactly the fresh detector's race");
        }
    }

    #[test]
    fn growth_between_leases_preserves_recycling() {
        let mut detector = pooled();
        lease(&mut detector, 2, SessionMode::Serial);
        detector.write(1, 3);
        lease(&mut detector, 16, SessionMode::Hybrid { workers: 2 });
        assert_eq!(detector.num_locations(), 16);
        assert_eq!(detector.read(1), 0);
        detector.write(15, 7);
        assert_eq!(detector.read(15), 7);
        lease(&mut detector, 16, SessionMode::Hybrid { workers: 2 });
        assert_eq!(detector.read(15), 0);
        assert!(detector.space_bytes() >= 16 * 16, "the grown memory is kept");
    }

    /// Stripes per lease, from the session's own mode: the same recycled
    /// detector is one stripe under a `Serial` session and the 4-worker
    /// layout under a `Hybrid { workers: 4 }` one, and the first lease's
    /// cells read as empty through the second.
    #[test]
    fn a_recycled_arena_is_striped_for_each_lease() {
        const CELLS: u32 = 4096;
        let mut detector = pooled();
        lease(&mut detector, CELLS, SessionMode::Serial);
        assert_eq!(detector.num_shards(), 1);
        let everywhere: Vec<Access> = (0..CELLS).step_by(97).map(Access::write).collect();
        detector.check_thread(&AllParallel, ThreadId(0), &everywhere);
        assert!(detector.take_report().is_empty());

        lease(&mut detector, CELLS, SessionMode::Hybrid { workers: 4 });
        assert_eq!(detector.num_shards(), 32, "8 · 4 stripes over 4,096 cells");
        // Stale cells of the serial lease are empty here: writing the same
        // locations from a thread parallel with everything reports nothing.
        detector.check_thread(&AllParallel, ThreadId(1), &everywhere);
        assert!(detector.take_report().is_empty());

        lease(&mut detector, CELLS, SessionMode::Serial);
        assert_eq!(detector.num_shards(), 1, "and back");
    }
}
