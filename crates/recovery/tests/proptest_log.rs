//! Property-based testing of the §5 log layer: codec round-trips, byte
//! accounting, in-order device completion, and lock-manager dependency
//! bookkeeping.

use mmdb_recovery::device::LogDevice;
use mmdb_recovery::lock::LockManager;
use mmdb_recovery::log::LogRecord;
use mmdb_types::TxnId;
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| LogRecord::Begin { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::Abort { txn: TxnId(t) }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<Option<i64>>(),
            any::<i64>(),
            0u32..10_000
        )
            .prop_map(|(t, key, old, new, padding)| LogRecord::Update {
                txn: TxnId(t),
                key,
                old,
                new,
                padding,
            }),
    ]
}

proptest! {
    #[test]
    fn log_records_roundtrip(records in prop::collection::vec(record_strategy(), 0..50)) {
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut view = buf.as_slice();
        let mut decoded = Vec::new();
        while !view.is_empty() {
            decoded.push(LogRecord::decode(&mut view).unwrap());
        }
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn compressed_size_never_exceeds_full_size(r in record_strategy()) {
        prop_assert!(r.compressed_size() <= r.byte_size());
    }

    #[test]
    fn device_completes_pages_in_submission_order(
        submit_gaps in prop::collection::vec(0u64..30_000, 1..40),
    ) {
        // Pages submitted in order to one device complete in order, each a
        // full write time after the later of its submission and the
        // previous completion — so the durable set at any crash time is a
        // prefix of submissions.
        let mut d = LogDevice::paper();
        let mut now = 0u64;
        let mut last_done = 0u64;
        for gap in &submit_gaps {
            now += gap;
            let done = d.write_page(now);
            prop_assert_eq!(done, now.max(last_done) + 10_000);
            last_done = done;
        }
        prop_assert_eq!(d.pages_written(), submit_gaps.len());
    }

    #[test]
    fn lock_dependencies_only_on_precommitted_holders(
        object_picks in prop::collection::vec(0u64..6, 1..30),
    ) {
        // A chain of transactions each taking one lock after the previous
        // holder pre-commits: the dependency list of each equals the set
        // of pre-committed (not yet finalized) prior holders of its locks.
        let mut lm = LockManager::new();
        let mut precommitted_holders: std::collections::HashMap<u64, Vec<TxnId>> =
            Default::default();
        for (i, obj) in object_picks.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            lm.begin(txn);
            lm.acquire(txn, *obj).unwrap();
            let deps = lm.precommit(txn).unwrap();
            let expected: std::collections::HashSet<TxnId> = precommitted_holders
                .get(obj)
                .map(|v| v.iter().copied().collect())
                .unwrap_or_default();
            prop_assert_eq!(deps, expected, "txn {} on object {}", i + 1, obj);
            precommitted_holders.entry(*obj).or_default().push(txn);
        }
    }
}
