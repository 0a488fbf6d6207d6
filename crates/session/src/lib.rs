#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `mmdb-session` — a real multi-threaded session layer with wall-clock
//! group commit (§5.2 of *Implementation Techniques for Main Memory
//! Database Systems*, DeWitt et al., SIGMOD 1984).
//!
//! The workspace's [`mmdb_recovery`] crate models the §5.2 arithmetic in
//! *virtual* time: a discrete-event simulator shows synchronous commit
//! stuck at ~100 tps and group commit reaching ~1000. This crate is the
//! workspace's one implementation of the §5 design — commit, fuzzy
//! checkpoints and restart recovery — on *real* OS threads and a wall
//! clock:
//!
//! * An [`Engine`] owns the shared volatile store, the §5.2 lock manager
//!   (with pre-commit and commit-dependency tracking), a log queue, and
//!   a background **group-commit daemon** that batches commit records
//!   from every session into page-sized log writes.
//! * [`Session`] handles are cheap, cloneable, and `Send` — one per
//!   client OS thread, the paper's "terminals".
//! * Commit is **pre-commit** (§5.2): locks are released before the
//!   commit record is durable; dependents run immediately and inherit a
//!   commit dependency the log writers honor — a dependent's page is
//!   never written before its dependency's, and no transaction is
//!   reported durable until its entire LSN prefix is on disk.
//! * [`CommitPolicy`] mirrors the simulator's policies: synchronous
//!   (one page write per commit), group commit, and a partitioned log
//!   striped over `k` devices.
//! * [`Engine::checkpoint_now`] (or a background sweeper, see
//!   [`EngineOptions::checkpoint_interval`]) writes a §5.3 fuzzy
//!   checkpoint whose replay floor bounds the log a restart reads.
//! * [`Engine::crash`] drops every volatile structure, and
//!   [`Engine::recover`] rebuilds the store from the surviving log
//!   pages under the contiguous-LSN-prefix rule ([`RecoveryInfo`] says
//!   what survived).
//!
//! # Quickstart
//!
//! ```
//! use mmdb_session::{CommitPolicy, Engine, EngineOptions};
//! use std::time::Duration;
//!
//! let dir = std::env::temp_dir().join(format!("mmdb-doc-{}", std::process::id()));
//! std::fs::remove_dir_all(&dir).ok();
//! let options = EngineOptions::new(CommitPolicy::Group, &dir)
//!     .with_page_write_latency(Duration::from_micros(100));
//! let engine = Engine::start(options).unwrap();
//!
//! // Sessions are Send: move them to client threads.
//! let session = engine.session();
//! let handle = std::thread::spawn(move || {
//!     let ticket = session.transfer(1, 2, 50).unwrap();
//!     session.wait_durable(&ticket).unwrap();
//! });
//! handle.join().unwrap();
//!
//! assert_eq!(engine.read(1).unwrap(), Some(-50));
//! assert_eq!(engine.read(2).unwrap(), Some(50));
//! engine.shutdown().unwrap();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

/// §5.3 online fuzzy checkpointing: the background sweeper, dirty-shard
/// table, and generation truncation that bound recovery by the
/// checkpoint interval.
mod checkpoint;
/// §5.2 the group-commit daemon, log-writer threads, and shared state.
mod daemon;
/// §5.2 the engine front-end, sessions, and the pre-commit protocol.
mod engine;
/// Metric handles and the commit-pipeline trace (obs wiring).
mod metrics;
/// §5.2 commit policies and engine options.
mod policy;
/// §5.2 restart recovery under the contiguous-LSN-prefix rule.
mod recover;
/// §5.2 lock-table shards, the transaction table, and the lock-ordering
/// discipline that keeps multi-shard operations cycle-free.
mod shard;
/// §5 seeded crash-torture harness: fault-injected runs, crash,
/// recover, verify against the serial oracle.
pub mod torture;

pub use checkpoint::CheckpointStats;
pub use engine::{CommitTicket, Engine, Session, Txn};
pub use policy::{CommitPolicy, EngineOptions};
pub use recover::RecoveryInfo;
pub use torture::TortureReport;

// Re-export the observability surface engine callers consume through
// [`Engine::stats`] / [`Engine::trace_events`], so depending on
// `mmdb-obs` directly is optional.
pub use mmdb_obs::{HistogramSnapshot, Registry, StatsSnapshot, TraceEvent, TraceStage};

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{Auditable, Error};
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmdb-session-lib-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn fast(policy: CommitPolicy, name: &str) -> EngineOptions {
        EngineOptions::new(policy, tmp_dir(name))
            .with_page_write_latency(Duration::from_micros(200))
            .with_flush_interval(Duration::from_micros(500))
    }

    #[test]
    fn single_session_commit_and_read_back() {
        let opts = fast(CommitPolicy::Group, "single");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 7, 42).unwrap();
        let ticket = s.commit(t).unwrap();
        s.wait_durable(&ticket).unwrap();
        assert!(engine.is_durable(&ticket).unwrap());
        assert_eq!(engine.read(7).unwrap(), Some(42));
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abort_undoes_writes_in_reverse() {
        let opts = fast(CommitPolicy::Group, "abort");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t0 = s.begin().unwrap();
        s.write(&t0, 1, 10).unwrap();
        s.commit_durable(t0).unwrap();
        let t = s.begin().unwrap();
        s.write(&t, 1, 99).unwrap();
        s.write(&t, 2, 99).unwrap();
        s.write(&t, 1, 100).unwrap();
        assert_eq!(s.read(1).unwrap(), Some(100), "dirty value visible");
        s.abort(t).unwrap();
        assert_eq!(s.read(1).unwrap(), Some(10), "pre-image restored");
        assert_eq!(s.read(2).unwrap(), None, "insert undone");
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abort_of_stale_txn_copy_after_commit_is_rejected() {
        let opts = fast(CommitPolicy::Group, "stale-abort");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 1, 1).unwrap();
        let ticket = s.commit(t).unwrap();
        // `Txn` is Copy: a stale copy of the committed handle must not
        // reach the lock manager and strip the pre-committed state the
        // §5.2 dependency tracking relies on.
        assert!(matches!(s.abort(t), Err(Error::InvalidTransaction(_))));
        // Nor may the dead handle write or commit again.
        assert!(matches!(
            s.write(&t, 1, 2),
            Err(Error::InvalidTransaction(_))
        ));
        assert!(matches!(s.commit(t), Err(Error::InvalidTransaction(_))));
        s.wait_durable(&ticket).unwrap();
        assert!(engine.is_durable(&ticket).unwrap());
        assert_eq!(engine.read(1).unwrap(), Some(1), "commit unaffected");
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_conflict_times_out_then_proceeds_after_precommit() {
        let opts =
            fast(CommitPolicy::Group, "conflict").with_lock_wait_timeout(Duration::from_millis(20));
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t1 = s.begin().unwrap();
        let t2 = s.begin().unwrap();
        s.write(&t1, 9, 1).unwrap();
        assert!(matches!(
            s.write(&t2, 9, 2),
            Err(Error::LockConflict { .. })
        ));
        // Pre-commit hands t1's lock to t2, which inherits a commit
        // dependency: t2 durable implies t1 durable.
        let ticket1 = s.commit(t1).unwrap();
        s.write(&t2, 9, 2).unwrap();
        let ticket2 = s.commit(t2).unwrap();
        s.wait_durable(&ticket2).unwrap();
        assert!(engine.is_durable(&ticket1).unwrap());
        assert_eq!(engine.read(9).unwrap(), Some(2));
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn many_threads_transfer_and_conserve_money() {
        let opts = fast(CommitPolicy::Group, "threads");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        // Seed 8 accounts with 1000 each.
        let s = engine.session();
        let t = s.begin().unwrap();
        for k in 0..8 {
            s.write(&t, k, 1_000).unwrap();
        }
        s.commit_durable(t).unwrap();
        let mut handles = Vec::new();
        for c in 0..4u64 {
            let s = engine.session();
            handles.push(std::thread::spawn(move || {
                let mut committed = 0;
                for i in 0..25u64 {
                    let from = (c * 25 + i) % 8;
                    let to = (from + 1 + c) % 8;
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
        let committed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(committed > 0, "some transfers must get through");
        engine.flush().unwrap();
        let total: i64 = (0..8).map(|k| engine.read(k).unwrap().unwrap_or(0)).sum();
        assert_eq!(total, 8_000, "transfers conserve total balance");
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_many_commits_per_page() {
        let opts = fast(CommitPolicy::Group, "batching");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let mut handles = Vec::new();
        for c in 0..8u64 {
            let s = engine.session();
            handles.push(std::thread::spawn(move || {
                for i in 0..5u64 {
                    let ticket = s.transfer(100 + c, 200 + c, i as i64).unwrap();
                    s.wait_durable(&ticket).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let pages = engine.pages_written().unwrap();
        assert!(
            pages < 40,
            "40 typical transactions shared pages (got {pages})"
        );
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_then_recover_restores_committed_state() {
        let opts = fast(CommitPolicy::Partitioned { devices: 2 }, "restart");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        for k in 0..5 {
            let t = s.begin().unwrap();
            s.write(&t, k, (k as i64) * 3).unwrap();
            s.commit_durable(t).unwrap();
        }
        engine.shutdown().unwrap();
        let (engine, info) = Engine::recover(opts).unwrap();
        assert_eq!(info.committed.len(), 5);
        assert!(info.losers.is_empty());
        for k in 0..5 {
            assert_eq!(engine.read(k).unwrap(), Some((k as i64) * 3));
        }
        // The recovered engine keeps working, and never reissues a
        // transaction id the log already holds.
        let s = engine.session();
        let t = s.begin().unwrap();
        assert!(info.committed.iter().all(|c| c.0 < t.id().0));
        s.write(&t, 99, 1).unwrap();
        s.commit_durable(t).unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_start_refuses_a_dirty_log_dir() {
        let opts = fast(CommitPolicy::Group, "dirty");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 1, 1).unwrap();
        s.commit_durable(t).unwrap();
        engine.shutdown().unwrap();
        assert!(matches!(Engine::start(opts), Err(Error::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policy_waits_for_durability_inside_commit() {
        let opts = fast(CommitPolicy::Synchronous, "sync");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 5, 5).unwrap();
        let ticket = s.commit(t).unwrap();
        assert!(
            engine.is_durable(&ticket).unwrap(),
            "synchronous commit returns only after durability"
        );
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
