//! End-to-end tests of the wall-clock session layer (§5.2): group-commit
//! crash semantics, pre-commit dependency ordering across partitioned
//! log devices, and a property test checking concurrent sessions against
//! a single-threaded serial oracle.

use mmdb_recovery::wal::{read_log_file, WalDevice};
use mmdb_recovery::{LogRecord, Lsn};
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_types::{Auditable, Error, TxnId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-session-e2e-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Crash while the group-commit daemon is parked with a non-empty batch:
/// recovery restores exactly the durably-committed prefix, and the
/// commits the daemon never flushed are gone — they were never reported
/// durable, so no promise is broken.
#[test]
fn crash_with_parked_daemon_recovers_durable_prefix_only() {
    let dir = tmp_dir("parked");
    // A huge flush interval parks the daemon unless a flush forces a
    // page out; commits queue behind it exactly as §5.2 describes.
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_secs(30));
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();

    let t1 = s.begin().unwrap();
    s.write(&t1, 1, 10).unwrap();
    let ticket1 = s.commit(t1).unwrap();
    let t2 = s.begin().unwrap();
    s.write(&t2, 2, 20).unwrap();
    let ticket2 = s.commit(t2).unwrap();
    engine.flush().unwrap();
    assert!(engine.is_durable(&ticket1).unwrap());
    assert!(engine.is_durable(&ticket2).unwrap());

    // These commit records sit in the parked daemon's queue: the
    // sessions are pre-committed (locks gone) but not durable.
    let t3 = s.begin().unwrap();
    s.write(&t3, 1, 111).unwrap();
    s.write(&t3, 3, 30).unwrap();
    let ticket3 = s.commit(t3).unwrap();
    let t4 = s.begin().unwrap();
    s.write(&t4, 4, 40).unwrap();
    assert!(!engine.is_durable(&ticket3).unwrap());
    assert_eq!(
        engine.read(1).unwrap(),
        Some(111),
        "volatile image moved on"
    );

    engine.crash().unwrap();
    let (engine, info) = Engine::recover(opts).unwrap();
    assert_eq!(
        info.committed,
        vec![ticket1.txn, ticket2.txn],
        "exactly the durable prefix survives"
    );
    // t3 and t4 died in the parked daemon's queue: their records never
    // reached any device, so recovery does not even see them.
    assert!(!info.committed.contains(&ticket3.txn));
    assert!(!info.committed.contains(&t4.id()));
    assert_eq!(engine.read(1).unwrap(), Some(10), "t3's update rolled away");
    assert_eq!(engine.read(2).unwrap(), Some(20));
    assert_eq!(engine.read(3).unwrap(), None);
    assert_eq!(engine.read(4).unwrap(), None);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// §5.2 dependency write ordering, observed at the device level: with a
/// partitioned log whose device 0 is slow and device 1 fast, a dependent
/// transaction's commit page (bound for the fast device) is *held back*
/// until its dependency's page (stuck on the slow device) is written. A
/// crash in that window leaves neither on disk.
#[test]
fn dependent_commit_is_never_written_before_its_dependency() {
    let dir = tmp_dir("dep-order");
    let opts = EngineOptions::new(CommitPolicy::Partitioned { devices: 2 }, &dir)
        .with_device_latencies(vec![Duration::from_millis(600), Duration::from_millis(1)])
        .with_flush_interval(Duration::from_millis(15));
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();

    // Transaction A writes key 7 and pre-commits; its page (seqno 0)
    // goes to slow device 0.
    let a = s.begin().unwrap();
    s.write_typical(&a, 7, 1).unwrap();
    let ticket_a = s.commit(a).unwrap();
    // Let the daemon's timeout cut A's page and dispatch it before B's
    // records enter the queue, so B's page is a separate, later one.
    std::thread::sleep(Duration::from_millis(40));

    // B takes A's released lock (pre-commit!), inheriting a commit
    // dependency on A, and pre-commits too; its page (seqno 1) goes to
    // fast device 1 — which must wait for device 0.
    let b = s.begin().unwrap();
    s.write_typical(&b, 7, 2).unwrap();
    let ticket_b = s.commit(b).unwrap();
    std::thread::sleep(Duration::from_millis(80));

    assert!(
        !engine.is_durable(&ticket_a).unwrap(),
        "A's page is still inside the slow device's write"
    );
    assert!(
        !engine.is_durable(&ticket_b).unwrap(),
        "B durable before A would break the dependency order"
    );

    // Crash while device 0 is mid-write: A's page is lost, and the
    // writer for device 1 was still holding B's page back.
    engine.crash().unwrap();
    let fast_records = read_log_file(&dir.join("wal-d1.log")).unwrap();
    assert!(
        !fast_records
            .iter()
            .any(|(_, r)| matches!(r, LogRecord::Commit { .. })),
        "no commit record ever reached the fast device ahead of its dependency"
    );
    let (engine, info) = Engine::recover(opts).unwrap();
    assert!(
        !info.committed.contains(&ticket_b.txn),
        "dependent B must not be recovered when dependency A is lost"
    );
    assert!(!info.committed.contains(&ticket_a.txn));
    assert_eq!(engine.read(7).unwrap(), None);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The same dependency chain without a crash: when the dependent is
/// reported durable, its dependency must already be durable.
#[test]
fn dependency_becomes_durable_no_later_than_dependent() {
    let dir = tmp_dir("dep-wait");
    let opts = EngineOptions::new(CommitPolicy::Partitioned { devices: 2 }, &dir)
        .with_device_latencies(vec![Duration::from_millis(60), Duration::from_millis(1)])
        .with_flush_interval(Duration::from_millis(5));
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();
    let a = s.begin().unwrap();
    s.write_typical(&a, 7, 1).unwrap();
    let ticket_a = s.commit(a).unwrap();
    std::thread::sleep(Duration::from_millis(15));
    let b = s.begin().unwrap();
    // B reads A's pre-committed value — durable or not — and takes the
    // §5.2 commit dependency on A with the lock.
    assert_eq!(s.read_for_update(&b, 7).unwrap(), Some(1));
    s.write_typical(&b, 7, 2).unwrap();
    let ticket_b = s.commit(b).unwrap();
    s.wait_durable(&ticket_b).unwrap();
    assert!(
        engine.is_durable(&ticket_a).unwrap(),
        "B durable implies A durable"
    );
    engine.shutdown().unwrap();
    // Both survive a restart.
    let (engine, info) = Engine::recover(opts).unwrap();
    assert!(info.committed.contains(&ticket_a.txn));
    assert!(info.committed.contains(&ticket_b.txn));
    assert_eq!(engine.read(7).unwrap(), Some(2));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: the compaction snapshot must survive the engine restart
/// that follows recovery. Recovery writes the snapshot and hands the
/// *same* open devices to the new engine — an earlier version reopened
/// (and truncated) the files, so the very next restart recovered an
/// empty store.
#[test]
fn repeated_recovery_preserves_committed_state() {
    let dir = tmp_dir("recover-twice");
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500));
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 1, 10).unwrap();
    s.commit_durable(t).unwrap();
    engine.shutdown().unwrap();

    // First recovery compacts into a snapshot generation…
    let (engine, info) = Engine::recover(opts.clone()).unwrap();
    assert_eq!(info.committed.len(), 1);
    assert_eq!(engine.read(1).unwrap(), Some(10));
    // …and the recovered engine keeps committing on top of it.
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 2, 20).unwrap();
    s.commit_durable(t).unwrap();
    engine.shutdown().unwrap();

    // Crash/recover again: both the snapshotted and the post-recovery
    // commits must still be there (the original bug lost everything).
    let (engine, _) = Engine::recover(opts.clone()).unwrap();
    assert_eq!(engine.read(1).unwrap(), Some(10), "snapshot survived");
    assert_eq!(
        engine.read(2).unwrap(),
        Some(20),
        "post-recovery commit survived"
    );
    engine.crash().unwrap();
    let (engine, _) = Engine::recover(opts).unwrap();
    assert_eq!(engine.read(1).unwrap(), Some(10));
    assert_eq!(engine.read(2).unwrap(), Some(20));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash *during* compaction — the new generation's snapshot never
/// finished (no transaction-0 commit record) — must fall back to the
/// intact previous generation instead of trusting the torn snapshot.
#[test]
fn torn_snapshot_generation_falls_back_to_previous() {
    let dir = tmp_dir("torn-snapshot");
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500));
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 1, 10).unwrap();
    s.commit_durable(t).unwrap();
    engine.shutdown().unwrap();

    // Hand-craft what a recovery that died mid-snapshot leaves behind:
    // a generation-1 device file whose synthetic transaction 0 began
    // rewriting the image but never committed.
    let mut dev = WalDevice::create(dir.join("wal-gen1-d0.log"), 4096, Duration::ZERO).unwrap();
    dev.append_page(&[
        (Lsn(1), LogRecord::Begin { txn: TxnId(0) }),
        (
            Lsn(2),
            LogRecord::Update {
                txn: TxnId(0),
                key: 1,
                old: None,
                new: 999, // a value the real image never held
                padding: 0,
            },
        ),
    ])
    .unwrap();
    drop(dev);

    let (engine, info) = Engine::recover(opts.clone()).unwrap();
    assert_eq!(
        engine.read(1).unwrap(),
        Some(10),
        "recovery used the intact generation, not the torn snapshot"
    );
    assert_eq!(info.committed.len(), 1);
    engine.shutdown().unwrap();
    // The rewritten directory holds exactly one complete generation now.
    let (engine, _) = Engine::recover(opts).unwrap();
    assert_eq!(engine.read(1).unwrap(), Some(10));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cross-shard transfers from 16 threads must always terminate: every
/// conflict either waits its turn or is broken by the merged-edge
/// deadlock detector ([`mmdb_recovery::detect_deadlocks_in`] over the
/// per-shard waits-for graphs), never left to hang. The key pairs are
/// chosen from a small hot set spread over 8 shards so most transfers
/// cross shards and many collide head-on in both lock orders.
#[test]
fn cross_shard_transfers_from_16_threads_never_deadlock() {
    let dir = tmp_dir("deadlock-hammer");
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(100))
        .with_flush_interval(Duration::from_micros(300))
        .with_lock_wait_timeout(Duration::from_secs(5))
        .with_shards(8);
    let engine = Engine::start(opts).unwrap();
    const KEYS: u64 = 12;
    let s = engine.session();
    let t = s.begin().unwrap();
    for k in 0..KEYS {
        s.write(&t, k, 1_000).unwrap();
    }
    s.commit_durable(t).unwrap();

    let mut handles = Vec::new();
    for c in 0..16u64 {
        let s = engine.session();
        handles.push(std::thread::spawn(move || {
            let mut state = 0x9E37_79B9u64.wrapping_mul(c + 1);
            let mut committed = 0u64;
            for _ in 0..40 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let from = (state >> 33) % KEYS;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let to = (state >> 33) % KEYS;
                if from == to {
                    continue;
                }
                match s.transfer(from, to, 1) {
                    Ok(_) => committed += 1,
                    Err(Error::TransactionAborted(_)) | Err(Error::LockConflict { .. }) => {}
                    Err(e) => panic!("unexpected transfer error: {e}"),
                }
            }
            committed
        }));
    }
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 0, "the hammer must make forward progress");
    engine.flush().unwrap();
    let total: i64 = (0..KEYS)
        .map(|k| engine.read(k).unwrap().unwrap_or(0))
        .sum();
    assert_eq!(total, (KEYS as i64) * 1_000, "transfers conserve money");

    // The obs counters must agree with what the hammer saw: the seed
    // commit plus every successful transfer, and deadlock-victim aborts
    // (summed over the per-shard family) never exceeding total aborts.
    let stats = engine.stats();
    assert_eq!(
        stats.counter("mmdb_session_commits_total"),
        Some(committed + 1),
        "commit counter diverged from the driver's count"
    );
    let aborts = stats.counter("mmdb_session_aborts_total").unwrap();
    let deadlock_aborts = stats.counter_sum("mmdb_session_deadlock_aborts_total");
    assert!(
        deadlock_aborts <= aborts,
        "deadlock victims ({deadlock_aborts}) exceed total aborts ({aborts})"
    );
    engine.audit().unwrap();
    // Latency recording happens in the writers' finalize loop *after*
    // the durable watermark advances, so flush() alone doesn't order a
    // snapshot after the last batch's recordings — shutdown (which
    // joins the writer threads) does. The registry outlives the engine.
    let registry = engine.registry();
    engine.shutdown().unwrap();
    let stats = registry.snapshot();
    let latency = stats
        .histogram("mmdb_session_commit_latency_us")
        .expect("commit latency histogram");
    assert_eq!(
        latency.count,
        committed + 1,
        "every durable commit records exactly one begin-to-durable sample"
    );
    assert_eq!(stats.gauge("mmdb_session_durable_lag_lsn"), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// The log is shard-agnostic: state committed under one shard count must
/// recover bit-for-bit under a different one (the snapshot merges every
/// shard's slice of the image, and recovery redistributes by the *new*
/// hash layout).
#[test]
fn recovery_merges_all_shards_and_survives_a_shard_count_change() {
    let dir = tmp_dir("shard-change");
    let opts5 = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500))
        .with_shards(5);
    let engine = Engine::start(opts5.clone()).unwrap();
    let s = engine.session();
    // 64 keys land on every one of the 5 shards.
    for k in 0..64u64 {
        let t = s.begin().unwrap();
        s.write(&t, k, (k as i64) * 7 - 3).unwrap();
        s.commit_durable(t).unwrap();
    }
    engine.crash().unwrap();

    // Recover under 3 shards: every key must come back regardless of
    // which shard owned it before the crash.
    let opts3 = opts5.clone().with_shards(3);
    let (engine, info) = Engine::recover(opts3).unwrap();
    assert_eq!(info.committed.len(), 64);
    for k in 0..64u64 {
        assert_eq!(engine.read(k).unwrap(), Some((k as i64) * 7 - 3));
    }
    // The re-sharded engine keeps working and still passes its audit.
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 999, 1).unwrap();
    s.commit_durable(t).unwrap();
    engine.audit().unwrap();
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// One client's worth of generated transactions: each is a list of
/// `key := value` writes.
type ClientScript = Vec<Vec<(u64, i64)>>;

fn client_strategy() -> impl Strategy<Value = ClientScript> {
    prop::collection::vec(prop::collection::vec((0u64..6, -100i64..100), 1..4), 1..5)
}

/// Like [`client_strategy`] but over 16 keys, so transactions span
/// several lock-manager shards.
fn sharded_client_strategy() -> impl Strategy<Value = ClientScript> {
    prop::collection::vec(prop::collection::vec((0u64..16, -100i64..100), 1..5), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent sessions against the serial oracle: whatever the
    /// interleaving, the final store equals the committed transactions'
    /// writes replayed in commit-LSN order (2PL with pre-commit
    /// serializes in precommit order, and commit LSNs are assigned at
    /// precommit under the state lock).
    #[test]
    fn concurrent_sessions_match_serial_oracle(
        scripts in prop::collection::vec(client_strategy(), 2..4),
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir(&format!("oracle-{case}"));
        let opts = EngineOptions::new(CommitPolicy::Group, &dir)
            .with_page_write_latency(Duration::from_micros(100))
            .with_flush_interval(Duration::from_micros(300))
            .with_lock_wait_timeout(Duration::from_millis(500));
        let engine = Engine::start(opts).unwrap();
        let mut handles = Vec::new();
        for script in scripts {
            let s = engine.session();
            handles.push(std::thread::spawn(move || {
                let mut committed: Vec<(u64, Vec<(u64, i64)>)> = Vec::new();
                for writes in script {
                    let txn = match s.begin() {
                        Ok(t) => t,
                        Err(_) => continue,
                    };
                    let mut ok = true;
                    for (key, value) in &writes {
                        match s.write(&txn, *key, *value) {
                            Ok(()) => {}
                            Err(Error::TransactionAborted(_)) => {
                                ok = false;
                                break;
                            }
                            Err(_) => {
                                let _ = s.abort(txn);
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    if let Ok(ticket) = s.commit(txn) {
                        committed.push((ticket.lsn.0, writes));
                    }
                }
                committed
            }));
        }
        let mut committed: Vec<(u64, Vec<(u64, i64)>)> = Vec::new();
        for h in handles {
            committed.extend(h.join().expect("client thread panicked"));
        }
        engine.flush().unwrap();

        // Serial oracle: replay committed transactions in commit order.
        committed.sort_by_key(|(lsn, _)| *lsn);
        let mut model = std::collections::HashMap::new();
        for (_, writes) in &committed {
            for (key, value) in writes {
                model.insert(*key, *value);
            }
        }
        for key in 0u64..6 {
            prop_assert_eq!(
                engine.read(key).unwrap(),
                model.get(&key).copied(),
                "key {} diverged from the serial oracle", key
            );
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sharded engine against the same serial oracle, for *any*
    /// shard count from the degenerate single shard up to 8: sharding
    /// changes which mutex guards a key and in what order a multi-key
    /// transaction locks its shards, but never the committed history.
    /// Keys range over 0..16 so multi-key transactions routinely span
    /// shards and exercise the ascending-index lock discipline.
    #[test]
    fn sharded_sessions_match_serial_oracle_for_any_shard_count(
        scripts in prop::collection::vec(sharded_client_strategy(), 2..4),
        shards in 1usize..9,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir(&format!("shard-oracle-{case}"));
        let opts = EngineOptions::new(CommitPolicy::Group, &dir)
            .with_page_write_latency(Duration::from_micros(100))
            .with_flush_interval(Duration::from_micros(300))
            .with_lock_wait_timeout(Duration::from_millis(500))
            .with_shards(shards);
        let engine = Engine::start(opts).unwrap();
        let mut handles = Vec::new();
        for script in scripts {
            let s = engine.session();
            handles.push(std::thread::spawn(move || {
                let mut committed: Vec<(u64, Vec<(u64, i64)>)> = Vec::new();
                for writes in script {
                    let txn = match s.begin() {
                        Ok(t) => t,
                        Err(_) => continue,
                    };
                    let mut ok = true;
                    for (key, value) in &writes {
                        match s.write(&txn, *key, *value) {
                            Ok(()) => {}
                            Err(Error::TransactionAborted(_)) => {
                                ok = false;
                                break;
                            }
                            Err(_) => {
                                let _ = s.abort(txn);
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    if let Ok(ticket) = s.commit(txn) {
                        committed.push((ticket.lsn.0, writes));
                    }
                }
                committed
            }));
        }
        let mut committed: Vec<(u64, Vec<(u64, i64)>)> = Vec::new();
        for h in handles {
            committed.extend(h.join().expect("client thread panicked"));
        }
        engine.flush().unwrap();

        committed.sort_by_key(|(lsn, _)| *lsn);
        let mut model = std::collections::HashMap::new();
        for (_, writes) in &committed {
            for (key, value) in writes {
                model.insert(*key, *value);
            }
        }
        for key in 0u64..16 {
            prop_assert_eq!(
                engine.read(key).unwrap(),
                model.get(&key).copied(),
                "key {} diverged from the serial oracle under {} shard(s)", key, shards
            );
        }
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
