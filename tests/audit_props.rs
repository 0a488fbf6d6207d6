//! Property-based audits: random mutation workloads against every
//! [`Auditable`] engine structure, with `audit()` (and the index trees'
//! `check_invariants`) run after each mutation batch.
//!
//! The index workloads deliberately lean delete-heavy: B+-tree
//! borrow/merge and AVL rebalance paths only fire when deletions shrink
//! nodes below their minimums, so uniform insert/delete mixes would leave
//! the most intricate code paths mostly cold.

use mmdb::VersionedStore;
use mmdb_index::{AvlTree, BPlusTree};
use mmdb_recovery::LockManager;
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_storage::{BufferPool, CostMeter, HeapFile, IoKind, ReplacementPolicy, SimDisk};
use mmdb_types::{Auditable, TxnId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the property tests in this binary. The sharded-engine
/// workload runs a real-time engine whose daemon threads rely on short
/// sleeps (flush interval, lock-wait deadlines); with the harness
/// running tests in parallel, the pure-CPU tree/storage workloads here
/// starve those threads on small CI runners and the engine test turns
/// load-flaky. One test at a time costs nothing on the 1–2 cores CI
/// gives us and removes the only source of cross-test scheduling
/// pressure.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A poisoned lock only means an earlier test failed; the guard is
    // pure scheduling, so later tests still run (and report their own
    // results) rather than cascading the first panic.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16),
    Remove(u16),
    Range(u16, u16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    // Deletions outweigh insertions 2:1 so trees repeatedly shrink through
    // the underflow/rebalance paths; the narrow key space forces overlap.
    prop_oneof![
        (0u16..512).prop_map(TreeOp::Insert),
        (0u16..512).prop_map(TreeOp::Remove),
        (0u16..512).prop_map(TreeOp::Remove),
        (0u16..512, 0u16..512).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #[test]
    fn bptree_invariants_hold_under_random_workloads(
        ops in proptest::collection::vec(tree_op(), 1..400),
        branching in 3usize..8,
        leaf_capacity in 2usize..8,
    ) {
        let _serial = serial();
        let mut tree: BPlusTree<u16, u32> = BPlusTree::new(branching, leaf_capacity);
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                TreeOp::Insert(k) => {
                    prop_assert_eq!(tree.insert(*k, i as u32), model.insert(*k, i as u32));
                }
                TreeOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(k));
                }
                TreeOp::Range(lo, hi) => {
                    let got: Vec<u16> = tree.range(lo, hi).iter().map(|(k, _)| **k).collect();
                    let want: Vec<u16> = model.range(lo..=hi).map(|(k, _)| *k).collect();
                    prop_assert_eq!(got, want);
                }
            }
            if let Err(v) = tree.audit() {
                return Err(TestCaseError::fail(format!("after op {i} ({op:?}): {v}")));
            }
        }
        prop_assert_eq!(tree.len(), model.len());
    }

    #[test]
    fn bptree_survives_draining_to_empty(
        keys in proptest::collection::btree_set(0u16..2_000, 1..300),
        branching in 3usize..8,
    ) {
        let _serial = serial();
        // Insert everything, then delete everything in an unrelated order:
        // the pure-shrink direction drives root collapse and every
        // merge/borrow combination.
        let mut tree: BPlusTree<u16, u16> = BPlusTree::new(branching, branching);
        for &k in &keys {
            tree.insert(k, k);
        }
        tree.audit().map_err(|v| TestCaseError::fail(v.to_string()))?;
        let mut doomed: Vec<u16> = keys.iter().copied().collect();
        // Deterministic but order-scrambling shuffle.
        doomed.sort_by_key(|k| (k.wrapping_mul(2_654_435_761u32 as u16), *k));
        for (i, k) in doomed.iter().enumerate() {
            prop_assert_eq!(tree.remove(k), Some(*k));
            if let Err(v) = tree.audit() {
                return Err(TestCaseError::fail(format!("after delete {i} of key {k}: {v}")));
            }
        }
        prop_assert!(tree.is_empty());
    }

    #[test]
    fn avl_invariants_hold_under_random_workloads(
        ops in proptest::collection::vec(tree_op(), 1..400),
    ) {
        let _serial = serial();
        let mut tree: AvlTree<u16, u32> = AvlTree::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                TreeOp::Insert(k) => {
                    prop_assert_eq!(tree.insert(*k, i as u32), model.insert(*k, i as u32));
                }
                TreeOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(k));
                }
                TreeOp::Range(lo, hi) => {
                    let got: Vec<u16> = tree.range(lo, hi).iter().map(|(k, _)| **k).collect();
                    let want: Vec<u16> = model.range(lo..=hi).map(|(k, _)| *k).collect();
                    prop_assert_eq!(got, want);
                }
            }
            if let Err(v) = tree.audit() {
                return Err(TestCaseError::fail(format!("after op {i} ({op:?}): {v}")));
            }
        }
        prop_assert_eq!(tree.len(), model.len());
    }

    #[test]
    fn buffer_pool_accounting_survives_pressure(
        accesses in proptest::collection::vec((0usize..24, 0u8..4), 1..200),
        capacity in 2usize..8,
        policy_pick in 0u8..3,
    ) {
        let _serial = serial();
        let policy = match policy_pick {
            0 => ReplacementPolicy::Lru,
            1 => ReplacementPolicy::Clock,
            _ => ReplacementPolicy::Random { seed: 42 },
        };
        let meter = Arc::new(CostMeter::new());
        let mut disk = SimDisk::new(meter);
        let ids: Vec<_> = (0..24).map(|_| disk.allocate()).collect();
        for &id in &ids {
            disk.write(id, IoKind::Sequential, &vec![0u8; mmdb_types::PAGE_SIZE]).unwrap();
        }
        let mut pool = BufferPool::new(capacity, policy);
        let mut pinned: Vec<mmdb_types::PageId> = Vec::new();
        for (i, &(page, kind)) in accesses.iter().enumerate() {
            let id = ids[page];
            match kind {
                0 => { pool.get(&mut disk, id, IoKind::Random).unwrap(); }
                1 => { pool.get_mut(&mut disk, id, IoKind::Random).unwrap()[0] = i as u8; }
                2 => {
                    // Pin at most one page so the pool can always evict.
                    if pinned.is_empty() {
                        pool.get(&mut disk, id, IoKind::Random).unwrap();
                        pool.pin(id).unwrap();
                        pinned.push(id);
                    }
                }
                _ => {
                    if let Some(id) = pinned.pop() {
                        pool.unpin(id).unwrap();
                    } else {
                        pool.flush_all(&mut disk).unwrap();
                    }
                }
            }
            if let Err(v) = pool.audit() {
                return Err(TestCaseError::fail(format!("after access {i}: {v}")));
            }
        }
    }

    #[test]
    fn heap_file_bookkeeping_matches_pages(
        ops in proptest::collection::vec((0u8..4, 0u16..200), 1..150),
    ) {
        let _serial = serial();
        let meter = Arc::new(CostMeter::new());
        let mut disk = SimDisk::new(meter);
        let mut pool = BufferPool::new(16, ReplacementPolicy::Lru);
        let mut hf = HeapFile::new();
        let mut tids = Vec::new();
        for (i, &(kind, key)) in ops.iter().enumerate() {
            let tuple = mmdb_types::Tuple::new(vec![
                mmdb_types::Value::Int(key as i64),
                mmdb_types::Value::Str(format!("row-{key}-{}", "x".repeat(key as usize % 64))),
            ]);
            match kind {
                0 | 1 => {
                    tids.push(hf.insert(&mut disk, &mut pool, &tuple).unwrap());
                }
                2 => {
                    if !tids.is_empty() {
                        let tid = tids.swap_remove(key as usize % tids.len());
                        hf.delete(&mut disk, &mut pool, tid).unwrap();
                    }
                }
                _ => {
                    if !tids.is_empty() {
                        let slot = key as usize % tids.len();
                        let tid = tids[slot];
                        tids[slot] = hf.update(&mut disk, &mut pool, tid, &tuple).unwrap();
                    }
                }
            }
            if let Err(v) = hf.audit_with(&mut disk, &mut pool) {
                return Err(TestCaseError::fail(format!("after op {i}: {v}")));
            }
        }
        assert_eq!(hf.tuple_count(), tids.len());
    }

    #[test]
    fn versioned_store_chains_stay_ordered(
        ops in proptest::collection::vec((0u8..5, 0u64..16, -100i64..100), 1..200),
    ) {
        let _serial = serial();
        let mut store = VersionedStore::new();
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for (i, &(kind, key, value)) in ops.iter().enumerate() {
            match kind {
                0 => writers.push(store.begin_write()),
                1 => {
                    if let Some(w) = writers.last() {
                        // Lock conflicts with another live writer are a
                        // legal outcome, not a test failure.
                        let _ = store.write(w, key, value);
                    }
                }
                2 => {
                    if !writers.is_empty() {
                        let w = writers.swap_remove(key as usize % writers.len());
                        if value < 0 {
                            store.abort(w).unwrap();
                        } else {
                            store.commit(w).unwrap();
                        }
                    }
                }
                3 => readers.push(store.begin_read()),
                _ => {
                    if !readers.is_empty() {
                        let r = readers.swap_remove(key as usize % readers.len());
                        store.end_read(r);
                    } else {
                        store.gc();
                    }
                }
            }
            if let Err(v) = store.audit() {
                return Err(TestCaseError::fail(format!("after op {i}: {v}")));
            }
        }
    }

    #[test]
    fn lock_manager_sets_stay_consistent(
        ops in proptest::collection::vec((0u8..5, 1u64..8, 0u64..12), 1..250),
    ) {
        let _serial = serial();
        let mut lm = LockManager::new();
        let mut precommitted: Vec<TxnId> = Vec::new();
        for (i, &(kind, txn, object)) in ops.iter().enumerate() {
            let txn = TxnId(txn);
            match kind {
                0 => lm.begin(txn),
                1 => {
                    if lm.is_active(txn) && !precommitted.contains(&txn) {
                        let _ = lm.acquire(txn, object);
                    }
                }
                2 => {
                    if lm.is_active(txn) && !precommitted.contains(&txn) {
                        let _ = lm.acquire_shared(txn, object);
                    }
                }
                3 => {
                    if lm.is_active(txn) && !precommitted.contains(&txn) {
                        lm.precommit(txn).unwrap();
                        precommitted.push(txn);
                    } else if let Some(p) = precommitted.pop() {
                        lm.finalize_commit(p);
                    }
                }
                _ => {
                    if lm.is_active(txn) && !precommitted.contains(&txn) {
                        lm.abort(txn);
                    }
                }
            }
            if let Err(v) = lm.audit() {
                return Err(TestCaseError::fail(format!("after op {i} ({kind}, txn {}, obj {object}): {v}", txn.0)));
            }
            let _ = lm.detect_deadlocks();
        }
    }

    /// The sharded session engine under a random single-driver workload,
    /// audited after every operation: no key owned by a foreign shard,
    /// undo entries only for live transactions on shards they touched,
    /// empty lock tables once the transaction table quiesces — plus the
    /// queue/durability invariants the daemon always checked.
    #[test]
    fn sharded_engine_invariants_hold_under_random_workloads(
        ops in proptest::collection::vec((0u8..5, 0u64..24, -500i64..500), 1..60),
        shards in 1usize..9,
        case in 0u64..u64::MAX,
    ) {
        let _serial = serial();
        let dir = std::env::temp_dir().join(
            format!("mmdb-audit-shard-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = EngineOptions::new(CommitPolicy::Group, &dir)
            .with_page_write_latency(Duration::from_micros(100))
            .with_flush_interval(Duration::from_micros(300))
            .with_lock_wait_timeout(Duration::from_millis(50))
            .with_shards(shards);
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let mut open = Vec::new();
        for (i, &(kind, key, value)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    if let Ok(t) = s.begin() {
                        open.push(t);
                    }
                }
                1 | 2 => {
                    if let Some(t) = open.last() {
                        // A conflict or induced abort is a legal outcome,
                        // but the handle must not leak held locks.
                        if s.write(t, key, value).is_err() {
                            if let Some(t) = open.pop() {
                                let _ = s.abort(t);
                            }
                        }
                    }
                }
                3 => {
                    if !open.is_empty() {
                        let t = open.swap_remove(key as usize % open.len());
                        let _ = s.commit(t);
                    }
                }
                _ => {
                    if !open.is_empty() {
                        let t = open.swap_remove(key as usize % open.len());
                        let _ = s.abort(t);
                    }
                }
            }
            if let Err(v) = engine.audit() {
                return Err(TestCaseError::fail(format!(
                    "after op {i} under {shards} shard(s): {v}")));
            }
        }
        // Quiesce: finish every open transaction, then the audit's
        // lock-table-empty-after-quiesce check must hold.
        for t in open.drain(..) {
            let _ = s.abort(t);
        }
        engine.flush().unwrap();
        if let Err(v) = engine.audit() {
            return Err(TestCaseError::fail(format!(
                "after quiesce under {shards} shard(s): {v}")));
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
