//! One shadow store across lease epochs: a [`ShardedShadowMemory`] emptied
//! and re-striped by its reset between runs, the way a pooled
//! [`crate::LiveDetector`] is between detection-service sessions.  There is
//! no generation tag any more — a reset refills the leased cells in place.
//! Test-only: the entry point is [`crate::LiveDetector::reset`]; the module
//! keeps its name so these tests keep the ids (`epoch::tests::*`) the
//! suite's floor list knows them by.

mod tests {
    use crate::access::Access;
    use crate::engine::check_thread_accesses;
    use crate::report::RaceCollector;
    use crate::shadow::{ShadowCell, ShardedShadowMemory};
    use spmaint::api::CurrentSpQuery;
    use spmetrics::MetricsHandle;
    use sptree::tree::ThreadId;

    struct AllParallel;
    impl CurrentSpQuery for AllParallel {
        fn precedes_current(&self, _earlier: ThreadId) -> bool {
            false
        }
    }

    #[test]
    fn reset_makes_old_cells_read_as_empty() {
        let mut shadow = ShardedShadowMemory::new(8, 1);
        {
            let _g = shadow.lock_shard(shadow.shard_of(3));
            shadow.store(3, ShadowCell { writer: Some(ThreadId(5)), reader: None });
        }
        assert_eq!(shadow.load(3).writer, Some(ThreadId(5)));
        shadow.reset(8, 1);
        assert_eq!(shadow.load(3), ShadowCell::default(), "the last epoch's cell reads as empty");
    }

    #[test]
    fn engine_runs_identically_over_an_epoch_view() {
        // The same parallel write-write race detected through a fresh store
        // and through the same store after each reset.
        let mut shadow = ShardedShadowMemory::new(4, 2);
        for round in 0..3 {
            let races = RaceCollector::new(4);
            for writer in 0..2 {
                check_thread_accesses(
                    &AllParallel,
                    &shadow,
                    &races,
                    ThreadId(writer),
                    &[Access::write(1)],
                    &MetricsHandle::detached(),
                );
            }
            let report = races.into_report();
            assert_eq!(report.racy_locations(), vec![1], "round {round}");
            assert_eq!(report.len(), 1, "round {round}: no stale state leaked in");
            shadow.reset(4, 2);
        }
    }

    /// A reset to a larger size keeps what the store held and reads empty
    /// over the grown range, striped for the grown size.
    #[test]
    fn grow_preserves_generation_and_reads_empty() {
        let mut shadow = ShardedShadowMemory::new(4, 2);
        {
            let _g = shadow.lock_shard(shadow.shard_of(2));
            shadow.store(2, ShadowCell { writer: Some(ThreadId(4)), reader: None });
        }
        shadow.reset(64, 2);
        assert_eq!(shadow.len(), 64);
        assert!(!shadow.is_empty());
        for loc in [2, 4, 63] {
            assert_eq!(shadow.load(loc), ShadowCell::default(), "cell {loc}");
        }
        assert_eq!(shadow.num_shards(), 8, "striped over the grown size");
        assert_eq!(shadow.num_shards(), ShardedShadowMemory::new(64, 2).num_shards());
    }

    /// Stripes belong to the epoch: one store reset for one worker has one
    /// stripe, reset next for four workers the 4-worker layout of a fresh
    /// store of its size, and then one again — and each reset leaves the
    /// cells written under the previous striping empty.
    #[test]
    fn each_view_is_striped_for_its_own_worker_count() {
        const CELLS: u32 = 4096;
        let four = ShardedShadowMemory::new(CELLS, 4);
        let mark = ShadowCell { writer: Some(ThreadId(1)), reader: None };

        let mut shadow = ShardedShadowMemory::new(CELLS, 1);
        assert_eq!(shadow.num_shards(), 1);
        assert_eq!(shadow.shard_of(CELLS - 1), 0);
        {
            let _g = shadow.lock_shard(0);
            shadow.store(CELLS - 1, mark);
        }

        shadow.reset(CELLS, 4);
        assert_eq!(shadow.num_shards(), four.num_shards());
        for loc in [0, 127, 128, CELLS - 1] {
            assert_eq!(shadow.shard_of(loc), four.shard_of(loc));
        }
        assert_eq!(shadow.load(CELLS - 1), ShadowCell::default());
        {
            let _g = shadow.lock_shard(shadow.shard_of(CELLS - 1));
            shadow.store(CELLS - 1, mark);
        }

        shadow.reset(CELLS, 1);
        assert_eq!(shadow.num_shards(), 1, "the wider epoch left nothing behind");
        assert_eq!(shadow.shard_of(CELLS - 1), 0);
        assert_eq!(shadow.load(CELLS - 1), ShadowCell::default());
    }
}
