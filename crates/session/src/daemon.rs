//! The group-commit daemon and log-writer threads (§5.2 on OS threads).
//!
//! One *daemon* thread owns page formation: it drains the shared log
//! queue, cuts page-sized batches, and stripes them round-robin over one
//! *writer* thread per log device. Each writer sleeps the device's
//! modeled page-write latency, then appends-and-syncs the page through
//! [`WalDevice`]. The §5.2 invariants live here:
//!
//! * **Pre-commit** — committers release locks at precommit (in
//!   [`crate::engine`]) and only *wait* here, so a log page in flight
//!   never blocks lock traffic.
//! * **Dependency write ordering** — a commit record's page is not
//!   written until every page carrying a dependency's commit record is on
//!   disk (the paper's rule for partitioned logs). Commit records enter
//!   the queue in precommit order: a committer appends while still
//!   holding every shard lock its transaction touched, and dependencies
//!   only arise through shared keys — shared shards — so a dependency's
//!   commit is queued before its dependent's and the wait can never
//!   cycle.
//! * **Durable watermark** — a transaction is *reported* durable only
//!   once every page up to and including its own is on disk, matching
//!   restart recovery's contiguous-LSN-prefix rule: nothing is promised
//!   that a crash could take back.
//!
//! Lock order (a thread may only acquire downward): shard state locks in
//! ascending shard index → one txn-table slot → `queue` → `durable` (see
//! [`crate::shard`] for the shard half of the discipline). The writers
//! take `durable` and the shard locks one group at a time, never nested
//! across groups.

use crate::metrics::{us_since, SessionMetrics};
use crate::policy::{CommitPolicy, EngineOptions};
use crate::shard::{shard_of, Shard, TxnTable};
use mmdb_obs::TraceStage;
use mmdb_recovery::wal::WalDevice;
use mmdb_recovery::{LogRecord, Lsn};
use mmdb_types::{AuditViolation, Auditable, Error, Result, TxnId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// What a committer hands [`Shared::append`] alongside its commit
/// record: the §5.2 dependency list its precommit produced and the
/// shard mask its trace events carry.
#[derive(Debug, Clone)]
pub(crate) struct CommitInfo {
    /// Transactions whose commit records must be durable first.
    pub deps: Vec<TxnId>,
    /// Lock-table shards the transaction touched (trace metadata).
    pub mask: u64,
}

/// A commit record waiting to become durable: the transaction, the
/// §5.2 dependency list its precommit produced, and the identity its
/// trace events carry (commit LSN + shard mask).
#[derive(Debug, Clone)]
pub(crate) struct PendingCommit {
    /// The committing transaction.
    pub txn: TxnId,
    /// Transactions whose commit records must be durable first.
    pub deps: Vec<TxnId>,
    /// LSN of the commit record itself.
    pub lsn: Lsn,
    /// Lock-table shards the transaction touched.
    pub mask: u64,
}

/// One record in the shared log queue.
#[derive(Debug)]
pub(crate) struct QueuedRecord {
    pub lsn: Lsn,
    pub record: LogRecord,
    pub commit: Option<PendingCommit>,
}

/// The shared log queue sessions append to and the daemon drains.
#[derive(Debug, Default)]
pub(crate) struct LogQueue {
    pub records: VecDeque<QueuedRecord>,
    /// Paper-accounted bytes queued (decides when a page is full).
    pub bytes: usize,
    pub next_lsn: u64,
    /// A committer (or `flush`) asked for an immediate partial flush.
    pub force: bool,
    /// Graceful shutdown: drain everything, then stop.
    pub shutdown: bool,
    /// Simulated crash: drop everything volatile on the floor.
    pub crashed: bool,
    /// A log device exhausted its retries: the engine is in its
    /// fail-stop degraded state and appends are refused with
    /// [`Error::LogDeviceFailed`] instead of the generic shutdown error.
    pub failed: bool,
}

/// A cut page travelling from the daemon to one writer.
#[derive(Debug)]
pub(crate) struct Page {
    /// Dense page sequence number (0, 1, 2, …) across all devices.
    pub seqno: u64,
    pub records: Vec<(Lsn, LogRecord)>,
    pub commits: Vec<PendingCommit>,
}

/// Durability bookkeeping shared by writers and waiting committers.
///
/// Every field here is bounded by the number of *in-flight* pages and
/// commits, not by engine lifetime: durability itself is one LSN
/// (`durable_lsn`), and the per-commit entries are pruned the moment
/// their page retires below the watermark.
#[derive(Debug, Default)]
pub(crate) struct DurableTable {
    /// Every record with LSN ≤ `durable_lsn` is on disk, and recovery's
    /// contiguous-prefix rule keeps it. A commit is durable exactly when
    /// its ticket's LSN is at or below this — O(1) state instead of a
    /// forever-growing set of transaction ids.
    pub durable_lsn: u64,
    /// Which page each dispatched, not-yet-durable commit record rides
    /// on. Pruned when the page retires; a missing entry means the
    /// commit is already durable (or predates this log generation).
    pub commit_page: HashMap<TxnId, u64>,
    /// Pages written out of order, ahead of the watermark: seqno → last
    /// LSN on the page. Drained as the watermark advances.
    pub written: BTreeMap<u64, u64>,
    /// Every page with seqno < watermark is on disk.
    pub watermark: u64,
    /// Dispatched commits per page, waiting for the watermark.
    pub waiting: BTreeMap<u64, Vec<PendingCommit>>,
    /// Commits appended but not yet durable (`flush` waits for zero).
    pub outstanding: usize,
    pub pages_written: usize,
    pub crashed: bool,
    /// A log device failed; the engine is dead.
    pub failure: Option<Error>,
}

/// Everything the engine, its sessions, the daemon, and the writers
/// share. Lock order: shards (ascending index) → one txn-table slot →
/// `queue` → `durable`.
#[derive(Debug)]
pub(crate) struct Shared {
    pub options: EngineOptions,
    /// The volatile image, lock table, and undo lists, split by key hash
    /// (§5.2 sharded lock manager). Index with [`Shared::shard_of`].
    pub shards: Vec<Shard>,
    /// Per-transaction shard masks and lifecycle phases.
    pub txns: TxnTable,
    /// Transaction id allocator — atomic, so `begin` takes no global
    /// lock (§5.2: nothing global sits on the transaction hot path).
    pub next_txn: AtomicU64,
    pub queue: Mutex<LogQueue>,
    /// Signalled when the queue gains records or flags change.
    pub queue_cv: Condvar,
    pub durable: Mutex<DurableTable>,
    /// Signalled on every durability transition (page written, crash).
    pub durable_cv: Condvar,
    /// Metric handles and the commit-pipeline trace ring. Recording is
    /// all relaxed atomics, so it is safe anywhere in the lock order.
    pub metrics: SessionMetrics,
}

impl Shared {
    /// Fresh shared state around an initial image (§5 restart or cold
    /// start), with transaction and LSN counters continuing from the
    /// given values. The image is distributed over the configured number
    /// of shards by key hash.
    pub fn new(
        options: EngineOptions,
        db: HashMap<u64, i64>,
        next_txn: u64,
        next_lsn: u64,
    ) -> Self {
        let n = options.shard_count();
        // Partition the image before any mutex exists: constructing each
        // shard around its slice avoids taking (and possibly swallowing
        // a poisoned) state lock during startup.
        let mut images: Vec<HashMap<u64, i64>> = (0..n).map(|_| HashMap::new()).collect();
        for (key, value) in db {
            if let Some(image) = images.get_mut(shard_of(key, n)) {
                image.insert(key, value);
            }
        }
        let shards: Vec<Shard> = images.into_iter().map(Shard::with_db).collect();
        let metrics = SessionMetrics::new(n, options.trace_capacity);
        metrics.note_appended_lsn(next_lsn.max(1).saturating_sub(1));
        Shared {
            options,
            shards,
            txns: TxnTable::new(),
            next_txn: AtomicU64::new(next_txn.max(1)),
            queue: Mutex::new(LogQueue {
                next_lsn: next_lsn.max(1),
                ..LogQueue::default()
            }),
            queue_cv: Condvar::new(),
            durable: Mutex::new(DurableTable::default()),
            durable_cv: Condvar::new(),
            metrics,
        }
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.shards.len())
    }

    /// The shard owning `key` (the hash is in range by construction).
    pub fn shard(&self, key: u64) -> Result<&Shard> {
        self.shards
            .get(self.shard_of(key))
            .ok_or_else(|| Error::Poisoned("shard table".into()))
    }

    /// Allocates the next transaction id (no lock taken).
    pub fn alloc_txn(&self) -> TxnId {
        // ordering: ids only need to be unique; every structure they
        // index is guarded by its own lock.
        TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Wakes lock waiters on every shard in `mask` (call after releasing
    /// the shard guards).
    pub fn notify_shards(&self, mask: u64) {
        for (i, shard) in self.shards.iter().enumerate() {
            if mask & (1 << i) != 0 {
                shard.lock_cv.notify_all();
            }
        }
    }

    /// Locks every shard in `mask` in ascending index order — the
    /// multi-shard discipline that makes lock-order cycles impossible —
    /// and returns the guards with their shard indexes.
    pub fn lock_mask(
        &self,
        mask: u64,
    ) -> Result<Vec<(usize, MutexGuard<'_, crate::shard::ShardState>)>> {
        let mut guards = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if mask & (1 << i) != 0 {
                guards.push((i, shard.guard()?));
            }
        }
        Ok(guards)
    }

    /// Locks the log queue (below the shard and txn-table locks).
    pub fn queue_guard(&self) -> Result<MutexGuard<'_, LogQueue>> {
        self.queue
            .lock()
            .map_err(|_| Error::Poisoned("log queue".into()))
    }

    /// Locks the durability table (bottom of the lock order).
    pub fn durable_guard(&self) -> Result<MutexGuard<'_, DurableTable>> {
        self.durable
            .lock()
            .map_err(|_| Error::Poisoned("durable table".into()))
    }

    /// Appends records to the log queue, assigning LSNs. Update records
    /// MUST be appended while holding the owning shard's lock (per-key
    /// LSN order); a commit record MUST be appended while holding *every*
    /// shard lock its transaction touched — dependencies only arise
    /// through shared keys, hence shared shards, so this queues commit
    /// records in precommit order and keeps every dependency's commit
    /// LSN (and page) ahead of its dependent's. `force` requests an
    /// immediate flush (synchronous commit).
    pub fn append(&self, items: Vec<(LogRecord, Option<CommitInfo>)>, force: bool) -> Result<Lsn> {
        let mut q = self.queue_guard()?;
        if q.failed {
            // Degraded: surface the device failure, not a bland
            // shutdown — callers can tell "operator stopped us" from
            // "the log device died under us" (§5.2 fail-stop).
            let failure = self.durable_guard()?.failure.clone();
            return Err(
                failure.unwrap_or_else(|| Error::LogDeviceFailed("log device failed".into()))
            );
        }
        if q.shutdown || q.crashed {
            return Err(Error::Shutdown);
        }
        let mut last = Lsn(q.next_lsn);
        let mut commits = 0usize;
        for (record, info) in items {
            let lsn = Lsn(q.next_lsn);
            q.next_lsn += 1;
            q.bytes += record.byte_size();
            let commit = match (&record, info) {
                (LogRecord::Commit { txn }, Some(info)) => {
                    commits += 1;
                    self.metrics
                        .trace(TraceStage::Queued, *txn, lsn.0, info.mask);
                    Some(PendingCommit {
                        txn: *txn,
                        deps: info.deps,
                        lsn,
                        mask: info.mask,
                    })
                }
                _ => None,
            };
            q.records.push_back(QueuedRecord {
                lsn,
                record,
                commit,
            });
            last = lsn;
        }
        self.metrics.note_appended_lsn(last.0);
        if force {
            q.force = true;
        }
        if commits > 0 {
            // Nested queue → durable follows the lock order.
            self.durable_guard()?.outstanding += commits;
        }
        self.queue_cv.notify_all();
        Ok(last)
    }

    /// True once a crash (simulated or device failure) was declared.
    /// A poisoned durable table is itself a crash: some thread died
    /// mid-update, so the engine escalates to fail-stop rather than
    /// guessing at the table's state.
    pub fn is_crashed(&self) -> bool {
        match self.durable.lock() {
            Ok(d) => d.crashed,
            Err(poisoned) => {
                // Release the recovered guard before fail_stop re-locks
                // the tables in order (holding it would self-deadlock).
                drop(poisoned);
                self.fail_stop(Error::LogDeviceFailed(
                    "durable table poisoned mid-update".into(),
                ));
                true
            }
        }
    }

    /// Enters the fail-stop degraded state after device `device`
    /// exhausted its retry budget on `err` (§5.2 failure semantics):
    /// every in-flight commit's waiter and every future append gets a
    /// distinct [`Error::LogDeviceFailed`] instead of a hang, the
    /// degraded gauge rises, and the trace ring records the transition
    /// (shard-mask field carries the failed device's bit).
    pub fn degrade(&self, device: usize, err: &Error) {
        self.metrics.trace(
            TraceStage::Degraded,
            TxnId(0),
            0,
            1u64.checked_shl(device as u32).unwrap_or(0),
        );
        self.fail_stop(Error::LogDeviceFailed(format!("device {device}: {err}")));
    }

    /// Escalates a poisoned lock on a commit-critical path to the same
    /// fail-stop state as a dead log device: the panicking thread may
    /// have left `what` half-updated, so no further commit may trust it.
    pub fn poison_fail_stop(&self, what: &str) {
        self.metrics.trace(TraceStage::Degraded, TxnId(0), 0, 0);
        self.fail_stop(Error::LogDeviceFailed(format!(
            "{what} mutex poisoned mid-update"
        )));
    }

    /// Marks the engine failed and wakes every waiter. Poisoning here
    /// must not stop the degradation itself — a half-degraded engine
    /// would strand committers in their condvar loops — so the state
    /// flags are written through `PoisonError::into_inner`.
    fn fail_stop(&self, failure: Error) {
        self.metrics.degraded.add(1);
        {
            let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.failed = true;
            q.crashed = true; // the daemon and sibling writers stand down
        }
        {
            let mut d = self.durable.lock().unwrap_or_else(|p| p.into_inner());
            d.crashed = true;
            if d.failure.is_none() {
                d.failure = Some(failure);
            }
        }
        self.queue_cv.notify_all();
        self.durable_cv.notify_all();
        for shard in &self.shards {
            shard.lock_cv.notify_all();
        }
    }

    /// Cross-structure invariant check, used by [`crate::Engine::audit`].
    ///
    /// Stop-the-world within the lock order: every shard lock is taken
    /// in ascending index (freezing lock traffic), then the txn-table
    /// slots, the queue, and the durable table. Shard invariants: every
    /// key lives on the shard its hash names (no key owned by two shards
    /// — ownership is a function of the hash), undo entries sit only on
    /// the owning shard and only for transactions the shard's lock
    /// manager still knows, each shard's [`mmdb_recovery::LockManager`]
    /// passes its own audit, and a quiesced engine (no live
    /// transactions) holds no locks anywhere.
    pub fn audit_now(&self) -> std::result::Result<(), AuditViolation> {
        const C: &str = "SessionShared";
        let n = self.shards.len();
        let mut guards = Vec::with_capacity(n);
        for shard in &self.shards {
            guards.push(shard.state.lock().map_err(|_| {
                AuditViolation::new(C, "poison", "shard mutex poisoned".to_string())
            })?);
        }
        // Slot locks are leaves: taking them under the shard locks
        // follows the order, and with every shard frozen the snapshot is
        // consistent with the shard states.
        let live = self
            .txns
            .snapshot()
            .map_err(|_| AuditViolation::new(C, "poison", "txn table poisoned".to_string()))?;
        let meta: HashMap<TxnId, crate::shard::TxnMeta> = live.into_iter().collect();
        for (i, state) in guards.iter().enumerate() {
            for key in state.db.keys() {
                AuditViolation::ensure(shard_of(*key, n) == i, C, "key-owned-once", || {
                    format!(
                        "key {key} stored on shard {i} but hashes to shard {}",
                        shard_of(*key, n)
                    )
                })?;
            }
            for (txn, list) in &state.undo {
                AuditViolation::ensure(state.locks.is_active(*txn), C, "undo-active", || {
                    format!("undo list for inactive transaction {txn:?} on shard {i}")
                })?;
                AuditViolation::ensure(
                    meta.get(txn).is_some_and(|m| m.mask & (1 << i) != 0),
                    C,
                    "undo-owning-shard",
                    || format!("undo for {txn:?} on shard {i} missing from its shard mask"),
                )?;
                for entry in list {
                    let key = entry.key;
                    AuditViolation::ensure(shard_of(key, n) == i, C, "undo-owned-key", || {
                        format!(
                            "undo entry for key {key} on shard {i} but it hashes to shard {}",
                            shard_of(key, n)
                        )
                    })?;
                }
            }
            if meta.is_empty() {
                // Table removal happens only after lock finalization (both
                // under this shard's lock), so an empty table means every
                // commit/abort fully released its locks: quiesced ⇒ empty
                // lock tables.
                AuditViolation::ensure(state.locks.lock_count() == 0, C, "quiesced-empty", || {
                    format!(
                        "no live transactions but shard {i} still holds {} locks",
                        state.locks.lock_count()
                    )
                })?;
            }
            state.locks.audit()?;
        }
        drop(guards);
        let q = self
            .queue
            .lock()
            .map_err(|_| AuditViolation::new(C, "poison", "queue mutex poisoned".to_string()))?;
        let mut expect = q.next_lsn;
        for r in q.records.iter().rev() {
            expect = expect.saturating_sub(1);
            AuditViolation::ensure(r.lsn.0 == expect, C, "lsn-dense", || {
                format!("queued LSN {} where {expect} expected", r.lsn.0)
            })?;
        }
        let bytes: usize = q.records.iter().map(|r| r.record.byte_size()).sum();
        AuditViolation::ensure(bytes == q.bytes, C, "byte-accounting", || {
            format!("queue says {} bytes, records sum to {bytes}", q.bytes)
        })?;
        let queued_commits = q.records.iter().filter(|r| r.commit.is_some()).count();
        // Nested queue → durable, as the daemon hands commits over: the
        // outstanding-commit count below sees the queue and the durable
        // table at one instant.
        let d = self
            .durable
            .lock()
            .map_err(|_| AuditViolation::new(C, "poison", "durable mutex poisoned".to_string()))?;
        drop(q);
        for seqno in d.written.keys() {
            AuditViolation::ensure(*seqno >= d.watermark, C, "watermark", || {
                format!(
                    "page {seqno} marked written below watermark {}",
                    d.watermark
                )
            })?;
        }
        let dispatched: usize = d.waiting.values().map(Vec::len).sum();
        // Boundedness: commit tracking is pruned as pages retire, so the
        // table only ever holds the dispatched, not-yet-durable commits.
        AuditViolation::ensure(
            d.commit_page.len() == dispatched,
            C,
            "commit-page-pruned",
            || {
                format!(
                    "{} commit-page entries for {dispatched} in-flight commits",
                    d.commit_page.len()
                )
            },
        )?;
        for (txn, seqno) in &d.commit_page {
            AuditViolation::ensure(*seqno >= d.watermark, C, "commit-page-retired", || {
                format!(
                    "commit-page entry for {txn:?} on retired page {seqno} (watermark {})",
                    d.watermark
                )
            })?;
        }
        AuditViolation::ensure(
            d.outstanding == queued_commits + dispatched,
            C,
            "outstanding-accounting",
            || {
                format!(
                    "outstanding {} != queued {queued_commits} + dispatched {dispatched}",
                    d.outstanding
                )
            },
        )?;
        // The counter and the table field are incremented together under
        // the durable lock this audit holds.
        let pages_counter = self.metrics.pages_written.get();
        AuditViolation::ensure(
            pages_counter as usize == d.pages_written,
            C,
            "pages-counter",
            || {
                format!(
                    "pages_written counter {pages_counter} != durable table {}",
                    d.pages_written
                )
            },
        )?;
        drop(d);
        // Every deadlock-victim abort rode the ordinary abort path, and
        // its per-shard counter is bumped strictly after the abort
        // counter — so the family sum can never exceed total aborts.
        let deadlocks: u64 = self.metrics.deadlock_aborts.iter().map(|c| c.get()).sum();
        let aborts = self.metrics.aborts.get();
        AuditViolation::ensure(deadlocks <= aborts, C, "deadlock-abort-accounting", || {
            format!("{deadlocks} deadlock-victim aborts but only {aborts} aborts total")
        })
    }
}

/// Cuts as many pages as the queue currently justifies. Full pages are
/// always cut; a trailing partial page is cut only when `flush_partial`
/// (force, timeout, or shutdown). Under the synchronous policy every
/// commit record ends its page, making each commit pay its own page
/// write — the paper's 100 tps baseline.
pub(crate) fn cut_pages(
    q: &mut LogQueue,
    page_bytes: usize,
    sync_cut: bool,
    flush_partial: bool,
    next_seqno: &mut u64,
) -> Vec<Page> {
    let mut pages = Vec::new();
    loop {
        let mut taken = 0usize;
        let mut bytes = 0usize;
        let mut cut = false;
        for rec in q.records.iter() {
            let size = rec.record.byte_size();
            if taken > 0 && bytes + size > page_bytes {
                cut = true;
                break;
            }
            taken += 1;
            bytes += size;
            if sync_cut && rec.commit.is_some() {
                cut = true;
                break;
            }
        }
        if taken == 0 || (!cut && !flush_partial) {
            break;
        }
        let mut records = Vec::with_capacity(taken);
        let mut commits = Vec::new();
        for _ in 0..taken {
            let Some(mut r) = q.records.pop_front() else {
                break;
            };
            q.bytes = q.bytes.saturating_sub(r.record.byte_size());
            if let Some(c) = r.commit.take() {
                commits.push(c);
            }
            records.push((r.lsn, r.record));
        }
        pages.push(Page {
            seqno: *next_seqno,
            records,
            commits,
        });
        *next_seqno += 1;
    }
    pages
}

/// The group-commit daemon: drains the queue, cuts pages, stripes them
/// over the writers. Exits on shutdown (after draining), crash, or a
/// poisoned lock.
pub(crate) fn run_daemon(shared: Arc<Shared>, senders: Vec<Sender<Page>>) {
    let sync_cut = matches!(shared.options.policy, CommitPolicy::Synchronous);
    let mut next_seqno = 0u64;
    let mut rr = 0usize;
    loop {
        let (pages, finished) = {
            let Ok(mut q) = shared.queue.lock() else {
                // A writer panicked holding the queue: nothing can be
                // flushed any more, so fail the engine before standing
                // down (waiters would otherwise hang on a live condvar).
                shared.poison_fail_stop("log queue");
                return;
            };
            let mut flush_partial;
            loop {
                if q.crashed {
                    return;
                }
                flush_partial = q.force || q.shutdown;
                let ready = flush_partial
                    || q.bytes >= shared.options.page_bytes
                    || (sync_cut && q.records.iter().any(|r| r.commit.is_some()));
                if ready {
                    break;
                }
                // An empty queue has no group timeout to run: sleep until
                // an append, flush, shutdown or crash notifies the condvar
                // (each sets its flag under this lock first), so an idle
                // engine costs no wakeups even at a zero flush interval.
                if q.records.is_empty() {
                    let Ok(guard) = shared.queue_cv.wait(q) else {
                        shared.poison_fail_stop("log queue");
                        return;
                    };
                    q = guard;
                    continue;
                }
                let Ok((guard, timeout)) = shared
                    .queue_cv
                    .wait_timeout(q, shared.options.flush_interval)
                else {
                    shared.poison_fail_stop("log queue");
                    return;
                };
                q = guard;
                if timeout.timed_out() && !q.records.is_empty() {
                    flush_partial = true;
                    break;
                }
            }
            q.force = false;
            let pages = cut_pages(
                &mut q,
                shared.options.page_bytes,
                sync_cut,
                flush_partial,
                &mut next_seqno,
            );
            if !pages.is_empty() {
                // Register commit → page before dispatch so writers can
                // resolve dependency pages and waiters can be found. The
                // queue lock is still held (queue → durable nesting), so
                // a commit moves from the queue to the durable table in
                // one step and the audit never counts it in both or
                // neither.
                let Ok(mut d) = shared.durable.lock() else {
                    drop(q);
                    shared.poison_fail_stop("durable table");
                    return;
                };
                if d.crashed {
                    return;
                }
                for page in &pages {
                    for c in &page.commits {
                        d.commit_page.insert(c.txn, page.seqno);
                    }
                    if !page.commits.is_empty() {
                        d.waiting.insert(page.seqno, page.commits.clone());
                    }
                }
            }
            (pages, q.shutdown && q.records.is_empty())
        };
        if !pages.is_empty() {
            for page in &pages {
                if !page.commits.is_empty() {
                    shared.metrics.batch_txns.record(page.commits.len() as u64);
                }
            }
            for page in pages {
                let Some(tx) = senders.get(rr) else {
                    return;
                };
                rr = (rr + 1) % senders.len().max(1);
                if tx.send(page).is_err() {
                    return; // a writer died; fail() already ran
                }
            }
        }
        if finished {
            return;
        }
    }
}

/// One log-writer thread: sleeps the device's modeled latency, writes
/// and syncs the page, then advances durability. A crash flag set during
/// the modeled write loses the page — exactly the §5.2 failure the
/// recovery test exercises. A failed append is retried within the
/// configured budget (the device rewinds to the last good frame before
/// each retry); exhausting it degrades the whole engine fail-stop
/// rather than leaving committers hung on a page that will never land.
pub(crate) fn run_writer(
    shared: Arc<Shared>,
    rx: Receiver<Page>,
    mut device: WalDevice,
    index: usize,
) {
    while let Ok(page) = rx.recv() {
        if !wait_for_dependencies(&shared, &page) {
            continue; // crashed: the page is abandoned, never written
        }
        // The fsync histogram covers the page write itself — modeled
        // device latency plus the real append-and-sync — but not the
        // dependency wait above, which measures the §5.2 ordering rule
        // rather than the device.
        let write_started = Instant::now();
        let latency = device.write_latency();
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        if shared.is_crashed() {
            continue; // crash mid-write: the page is lost
        }
        if let Err(e) = append_with_retry(&shared, &mut device, &page) {
            shared.degrade(index, &e);
            return;
        }
        shared.metrics.fsync_us.record(us_since(write_started));
        for c in &page.commits {
            shared
                .metrics
                .trace(TraceStage::Flushed, c.txn, c.lsn.0, c.mask);
        }
        if !complete_page(&shared, page) {
            return;
        }
    }
}

/// Appends one page, retrying transient failures within the configured
/// budget with doubling backoff. Every failed attempt bumps the I/O
/// error counter; every retry bumps the retry counter. The device
/// rewound itself to the last good frame on each failure, so a retry
/// rewrites the full page at a clean boundary. Returns the last error
/// once the budget is spent (the caller degrades the engine), or early
/// if a crash was declared while backing off (no point hammering a
/// device whose engine is already down).
fn append_with_retry(shared: &Shared, device: &mut WalDevice, page: &Page) -> Result<()> {
    let mut backoff = shared.options.io_retry_backoff;
    let mut attempts = 0u32;
    loop {
        match device.append_page(&page.records) {
            Ok(()) => return Ok(()),
            Err(e) => {
                shared.metrics.io_errors.inc();
                if attempts >= shared.options.io_retries {
                    return Err(e);
                }
                attempts += 1;
                shared.metrics.io_retries.inc();
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                backoff = backoff.saturating_mul(2);
                if shared.is_crashed() {
                    return Err(e);
                }
            }
        }
    }
}

/// §5.2 dependency write ordering: block until every dependency's commit
/// record is on disk (or rides this very page). Returns `false` on crash.
fn wait_for_dependencies(shared: &Shared, page: &Page) -> bool {
    let Ok(mut d) = shared.durable.lock() else {
        shared.poison_fail_stop("durable table");
        return false;
    };
    loop {
        if d.crashed {
            return false;
        }
        let ready = page.commits.iter().all(|c| {
            c.deps.iter().all(|dep| match d.commit_page.get(dep) {
                Some(&s) => s == page.seqno || s < d.watermark || d.written.contains_key(&s),
                // Unknown dependency: its page already retired (the
                // entry is pruned once durable) or its commit predates
                // this log generation — durable either way.
                None => true,
            })
        });
        if ready {
            return true;
        }
        let Ok(guard) = shared.durable_cv.wait(d) else {
            shared.poison_fail_stop("durable table");
            return false;
        };
        d = guard;
    }
}

/// Marks a page written, advances the durable watermark (and with it
/// `durable_lsn`), reports every commit the watermark now covers,
/// prunes their tracking entries, and finalizes their lock state.
fn complete_page(shared: &Shared, page: Page) -> bool {
    let newly = {
        let Ok(mut guard) = shared.durable.lock() else {
            shared.poison_fail_stop("durable table");
            return false;
        };
        let d = &mut *guard;
        let last_lsn = page.records.last().map(|(l, _)| l.0).unwrap_or(0);
        d.written.insert(page.seqno, last_lsn);
        d.pages_written += 1;
        // Counter and table field move together under this lock; the
        // audit's pages-counter invariant holds them equal.
        shared.metrics.pages_written.inc();
        let mut newly: Vec<PendingCommit> = Vec::new();
        while let Some(lsn) = d.written.remove(&d.watermark) {
            // Pages are cut in LSN order, so retiring the next seqno
            // extends the durable LSN prefix to that page's last record.
            d.durable_lsn = d.durable_lsn.max(lsn);
            if let Some(cs) = d.waiting.remove(&d.watermark) {
                newly.extend(cs);
            }
            d.watermark += 1;
        }
        for c in &newly {
            d.commit_page.remove(&c.txn);
            d.outstanding = d.outstanding.saturating_sub(1);
        }
        shared.metrics.update_durable_lag(d.durable_lsn);
        shared.durable_cv.notify_all();
        newly
    };
    if newly.is_empty() {
        return true;
    }
    // Finalize each commit's pre-committed lock state on every shard its
    // transaction touched (ascending order via `lock_mask`), then retire
    // its txn-table entry. `finalize_commit` is a no-op on shards the
    // mask overestimates.
    for c in &newly {
        shared
            .metrics
            .trace(TraceStage::Durable, c.txn, c.lsn.0, c.mask);
        let meta = match shared.txns.get(c.txn) {
            Ok(Some(meta)) => meta,
            Ok(None) => continue, // already finalized, or tearing down
            Err(_) => {
                shared.poison_fail_stop("txn table");
                return false;
            }
        };
        shared
            .metrics
            .commit_latency_us
            .record(us_since(meta.begun_at));
        let Ok(mut guards) = shared.lock_mask(meta.mask) else {
            shared.poison_fail_stop("shard state");
            return false;
        };
        for (_, state) in guards.iter_mut() {
            state.locks.finalize_commit(c.txn);
            // The commit record is on disk: the pre-images kept for this
            // transaction can never be needed again. Dropping them here —
            // not at pre-commit — keeps the sweeper's invariant that a
            // shard with an empty undo map holds only durable data.
            state.undo.remove(&c.txn);
        }
        drop(guards);
        if shared.txns.remove(c.txn).is_err() {
            shared.poison_fail_stop("txn table");
            return false;
        }
        shared.notify_shards(meta.mask);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(lsn: u64, record: LogRecord) -> QueuedRecord {
        let commit = match &record {
            LogRecord::Commit { txn } => Some(PendingCommit {
                txn: *txn,
                deps: Vec::new(),
                lsn: Lsn(lsn),
                mask: 0,
            }),
            _ => None,
        };
        QueuedRecord {
            lsn: Lsn(lsn),
            record,
            commit,
        }
    }

    fn queue_of(records: Vec<QueuedRecord>) -> LogQueue {
        let bytes = records.iter().map(|r| r.record.byte_size()).sum();
        let next_lsn = records.last().map(|r| r.lsn.0 + 1).unwrap_or(1);
        LogQueue {
            records: records.into(),
            bytes,
            next_lsn,
            ..LogQueue::default()
        }
    }

    fn typical(txn: u64, first_lsn: u64) -> Vec<QueuedRecord> {
        mmdb_recovery::log::typical_transaction(TxnId(txn), txn, 0, 1)
            .into_iter()
            .enumerate()
            .map(|(i, r)| rec(first_lsn + i as u64, r))
            .collect()
    }

    #[test]
    fn full_pages_cut_partial_held_back() {
        // 11 typical transactions = 4400 bytes: one full 4096-byte page
        // (10 txns) cut, the 11th held until a flush is forced.
        let mut q = queue_of((0..11).flat_map(|t| typical(t + 1, 1 + t * 3)).collect());
        let mut seq = 0;
        let pages = cut_pages(&mut q, 4096, false, false, &mut seq);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].commits.len(), 10, "ten commits share the page");
        // The 11th transaction's 20-byte begin record still fits in the
        // page (4020 ≤ 4096); its update and commit stay queued.
        assert_eq!(q.records.len(), 2);
        let more = cut_pages(&mut q, 4096, false, true, &mut seq);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].seqno, 1);
        assert!(q.records.is_empty());
        assert_eq!(q.bytes, 0);
    }

    #[test]
    fn sync_cut_ends_every_page_at_a_commit() {
        let mut q = queue_of((0..3).flat_map(|t| typical(t + 1, 1 + t * 3)).collect());
        let mut seq = 0;
        let pages = cut_pages(&mut q, 4096, true, true, &mut seq);
        assert_eq!(pages.len(), 3, "one page per commit under sync policy");
        for p in &pages {
            assert_eq!(p.commits.len(), 1);
            assert!(matches!(
                p.records.last(),
                Some((_, LogRecord::Commit { .. }))
            ));
        }
    }

    #[test]
    fn lsn_order_is_preserved_across_pages() {
        let mut q = queue_of((0..25).flat_map(|t| typical(t + 1, 1 + t * 3)).collect());
        let mut seq = 0;
        let pages = cut_pages(&mut q, 4096, false, true, &mut seq);
        let flat: Vec<u64> = pages
            .iter()
            .flat_map(|p| p.records.iter().map(|(l, _)| l.0))
            .collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(flat, sorted);
        assert_eq!(flat.len(), 75);
    }
}
