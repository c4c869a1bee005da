//! The engine pinned to one worker under the serial Figure-3 algorithms —
//! the classic left-to-right simulating detector of the paper's §1 ("a
//! typical serial, on-the-fly data-race detector simulates the execution of
//! the program as a left-to-right walk of the parse tree").  Test-only: the
//! entry point is [`crate::detect_races`] with `BackendConfig::serial()`;
//! the module keeps its name so these tests keep the ids (`serial::tests::*`)
//! the suite's floor list knows them by.

mod tests {
    use crate::access::{Access, AccessScript};
    use crate::engine::detect_races;
    use crate::report::RaceKind;
    use spmaint::api::BackendConfig;
    use spmaint::{EnglishHebrewLabels, OffsetSpanLabels, SpBags, SpOrder};
    use sptree::builder::Ast;
    use sptree::tree::{ParseTree, ThreadId};

    /// P(write x, write x): a definite write-write race.
    fn racy_parallel_writes() -> (ParseTree, AccessScript) {
        let tree = Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]).build();
        let mut script = AccessScript::new(2, 1);
        script.push(ThreadId(0), Access::write(0));
        script.push(ThreadId(1), Access::write(0));
        (tree, script)
    }

    /// S(write x, write x): same accesses but serialized — no race.
    fn serialized_writes() -> (ParseTree, AccessScript) {
        let tree = Ast::seq(vec![Ast::leaf(1), Ast::leaf(1)]).build();
        let mut script = AccessScript::new(2, 1);
        script.push(ThreadId(0), Access::write(0));
        script.push(ThreadId(1), Access::write(0));
        (tree, script)
    }

    #[test]
    fn detects_parallel_write_write_race_with_every_algorithm() {
        let (tree, script) = racy_parallel_writes();
        let (r1, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        let (r2, _) = detect_races::<SpBags>(&tree, &script, BackendConfig::serial());
        let (r3, _) = detect_races::<EnglishHebrewLabels>(&tree, &script, BackendConfig::serial());
        let (r4, _) = detect_races::<OffsetSpanLabels>(&tree, &script, BackendConfig::serial());
        for r in [&r1, &r2, &r3, &r4] {
            assert_eq!(r.len(), 1);
            assert_eq!(r.races()[0].kind, RaceKind::WriteWrite);
            assert_eq!(r.races()[0].loc, 0);
        }
    }

    #[test]
    fn serialized_accesses_do_not_race() {
        let (tree, script) = serialized_writes();
        let (report, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        assert!(report.is_empty());
    }

    #[test]
    fn read_read_never_races() {
        let tree = Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]).build();
        let mut script = AccessScript::new(2, 1);
        script.push(ThreadId(0), Access::read(0));
        script.push(ThreadId(1), Access::read(0));
        let (report, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        assert!(report.is_empty());
    }

    #[test]
    fn read_then_parallel_write_races() {
        // P(read x, write x) — a read-write race.
        let tree = Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]).build();
        let mut script = AccessScript::new(2, 1);
        script.push(ThreadId(0), Access::read(0));
        script.push(ThreadId(1), Access::write(0));
        let (report, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        assert_eq!(report.len(), 1);
        assert_eq!(report.races()[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn write_then_serial_read_then_parallel_read_is_clean() {
        // S(write x, P(read x, read x)): the write precedes both reads.
        let tree = Ast::seq(vec![
            Ast::leaf(1),
            Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]),
        ])
        .build();
        let mut script = AccessScript::new(3, 1);
        script.push(ThreadId(0), Access::write(0));
        script.push(ThreadId(1), Access::read(0));
        script.push(ThreadId(2), Access::read(0));
        let (report, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        assert!(report.is_empty());
    }

    #[test]
    fn reader_update_rule_keeps_racy_reader() {
        // S(P(read x, read x), write x): the write races with at least one of
        // the two parallel readers even though only one reader is recorded.
        // (Here both readers are parallel to each other but both precede the
        // final write, so no race; flip it: S(read x, P(read x, write x)).)
        let tree = Ast::seq(vec![
            Ast::leaf(1),
            Ast::par(vec![Ast::leaf(1), Ast::leaf(1)]),
        ])
        .build();
        let mut script = AccessScript::new(3, 1);
        script.push(ThreadId(0), Access::read(0));
        script.push(ThreadId(1), Access::read(0));
        script.push(ThreadId(2), Access::write(0));
        let (report, _) = detect_races::<SpOrder>(&tree, &script, BackendConfig::serial());
        // Thread 1 reads in parallel with thread 2's write.
        assert_eq!(report.len(), 1);
        assert_eq!(report.races()[0].earlier, ThreadId(1));
        assert_eq!(report.races()[0].later, ThreadId(2));
    }
}
