//! Commit policies and engine options (§5.2 of the paper).
//!
//! This engine is the workspace's one implementation of the §5.2 commit
//! policies — synchronous, group commit, partitioned log — on real OS
//! threads and a wall clock. The discrete-event simulator
//! ([`mmdb_recovery::SimConfig`]) is a *model* of the same policies, not
//! a second engine: it computes the paper's throughput arithmetic in
//! virtual time. [`CommitPolicy`] names the policy; [`EngineOptions`]
//! carries its knobs (page size, per-page write latency, group timeout,
//! shards, checkpoint interval, fault plans).

use crate::shard::MAX_SHARDS;
use mmdb_recovery::FaultPlan;
use std::path::PathBuf;
use std::time::Duration;

/// How a commit becomes durable (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Every commit forces its own log page and the committer waits for
    /// the write — the paper's 100 tps baseline, one page write per
    /// transaction.
    Synchronous,
    /// Commit records accumulate until a page fills (or the group timeout
    /// fires); one page write commits the whole group and the committer
    /// is *pre-committed* in between, holding no locks.
    Group,
    /// Group commit striped round-robin over `devices` log devices, the
    /// §5.2 recipe for pushing past one device's page rate.
    Partitioned {
        /// Number of log devices the daemon stripes pages across.
        devices: usize,
    },
}

impl CommitPolicy {
    /// Number of log devices this policy writes.
    pub fn devices(&self) -> usize {
        match self {
            CommitPolicy::Synchronous | CommitPolicy::Group => 1,
            CommitPolicy::Partitioned { devices } => (*devices).max(1),
        }
    }

    /// Short lowercase name, for reports and file names.
    pub fn name(&self) -> &'static str {
        match self {
            CommitPolicy::Synchronous => "sync",
            CommitPolicy::Group => "group",
            CommitPolicy::Partitioned { .. } => "partitioned",
        }
    }
}

/// Configuration for a wall-clock [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// The commit policy (§5.2).
    pub policy: CommitPolicy,
    /// Log page capacity in paper-accounted bytes (the paper's 4096).
    pub page_bytes: usize,
    /// Modeled time for one log-page write. The daemon sleeps this long
    /// before each real write, scaling the paper's 10 ms disk down to
    /// something a test can afford while keeping the §5.2 ratios.
    pub page_write_latency: Duration,
    /// Per-device latency overrides (tests use a slow device 0 and a fast
    /// device 1 to force out-of-order page completion). Devices beyond
    /// the vector's length fall back to `page_write_latency`.
    pub device_latencies: Vec<Duration>,
    /// Directory the log device files live in.
    pub log_dir: PathBuf,
    /// Group-commit timeout (§5.2's answer to "what if the page never
    /// fills?"). A full page is cut at once; a partial page is cut once
    /// the queue has gone this long with no new append — every append
    /// wakes the daemon and restarts the wait, so under steady traffic
    /// the bound is on the gap between appends, not on the age of the
    /// oldest queued record. An idle engine (empty queue) does not wake
    /// at all.
    pub flush_interval: Duration,
    /// How long a writer waits on a lock before giving up with a
    /// conflict error (deadlock victims abort much sooner).
    pub lock_wait_timeout: Duration,
    /// Number of lock-table shards the volatile state is split over by
    /// key hash (§5.2 scaling: per-shard mutexes replace the global
    /// state lock). Defaults to the machine's available parallelism;
    /// clamped to `1..=64`.
    pub shards: usize,
    /// Modeled CPU cost of one lock-table operation, spent *inside* the
    /// owning shard's critical section. Defaults to zero (no modeling).
    /// The shard-scaling benchmark sets it to emulate the paper's
    /// ~1-MIPS lock-manager cost the same way the engine's devices
    /// emulate its 10 ms disks (§5.1): with real service times, a single
    /// shard is a single-server queue and N shards are N servers, so the
    /// benchmark measures the architecture's blocking structure even on
    /// a one-core host.
    pub lock_op_latency: Duration,
    /// Slots in the commit-pipeline trace ring (overwrite-oldest);
    /// recording is lock-free regardless of size. Defaults to 1024.
    pub trace_capacity: usize,
    /// Deterministic fault plans, one per log device (device `i` takes
    /// entry `i`; missing or empty entries mean the real, un-faulted
    /// backend). Empty by default — production engines never inject.
    pub fault_plans: Vec<FaultPlan>,
    /// How many times a writer thread retries a failed page append
    /// before declaring the device dead and degrading the engine
    /// (§5.2 fail-stop). Defaults to 3.
    pub io_retries: u32,
    /// Backoff before the first retry; doubles per attempt. Defaults
    /// to 1 ms — long enough to ride out a transient EIO, short enough
    /// that tests and the torture harness stay fast.
    pub io_retry_backoff: Duration,
    /// §5.3 online-checkpoint interval: when set, a background sweeper
    /// thread writes a fuzzy checkpoint this often during live traffic,
    /// bounding recovery's replay work by the interval instead of total
    /// history. `None` (the default) disables the sweeper — recovery
    /// replays the whole live generation, as before.
    pub checkpoint_interval: Option<Duration>,
}

impl EngineOptions {
    /// Options for `policy` logging under `log_dir`, with the paper's
    /// 4096-byte pages, a 2 ms modeled page write (the paper's 10 ms
    /// scaled 5× for test budgets), a 1 ms group timeout, and a 1 s lock
    /// wait.
    pub fn new(policy: CommitPolicy, log_dir: impl Into<PathBuf>) -> Self {
        EngineOptions {
            policy,
            page_bytes: 4096,
            page_write_latency: Duration::from_millis(2),
            device_latencies: Vec::new(),
            log_dir: log_dir.into(),
            flush_interval: Duration::from_millis(1),
            lock_wait_timeout: Duration::from_secs(1),
            shards: default_shards(),
            lock_op_latency: Duration::ZERO,
            trace_capacity: 1024,
            fault_plans: Vec::new(),
            io_retries: 3,
            io_retry_backoff: Duration::from_millis(1),
            checkpoint_interval: None,
        }
    }

    /// Enables the §5.3 background checkpoint sweeper at the given
    /// interval (see [`EngineOptions::checkpoint_interval`]).
    pub fn with_checkpoint_interval(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Installs deterministic per-device fault plans (testing and the
    /// torture harness only; see [`EngineOptions::fault_plans`]).
    pub fn with_fault_plans(mut self, plans: Vec<FaultPlan>) -> Self {
        self.fault_plans = plans;
        self
    }

    /// Sets the bounded per-page retry budget for writer threads.
    pub fn with_io_retries(mut self, retries: u32) -> Self {
        self.io_retries = retries;
        self
    }

    /// Sets the initial retry backoff (doubles per attempt).
    pub fn with_io_retry_backoff(mut self, backoff: Duration) -> Self {
        self.io_retry_backoff = backoff;
        self
    }

    /// The fault plan for device `index` (empty when none configured).
    pub fn fault_plan(&self, index: usize) -> FaultPlan {
        self.fault_plans.get(index).cloned().unwrap_or_default()
    }

    /// Sets the modeled page-write latency.
    pub fn with_page_write_latency(mut self, latency: Duration) -> Self {
        self.page_write_latency = latency;
        self
    }

    /// Sets the group-commit flush timeout.
    pub fn with_flush_interval(mut self, interval: Duration) -> Self {
        self.flush_interval = interval;
        self
    }

    /// Sets per-device latency overrides (device `i` uses entry `i`).
    pub fn with_device_latencies(mut self, latencies: Vec<Duration>) -> Self {
        self.device_latencies = latencies;
        self
    }

    /// Sets the lock-wait timeout.
    pub fn with_lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = timeout;
        self
    }

    /// Sets the lock-table shard count (clamped to `1..=64`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the modeled per-lock-operation CPU cost (see
    /// [`EngineOptions::lock_op_latency`]).
    pub fn with_lock_op_latency(mut self, latency: Duration) -> Self {
        self.lock_op_latency = latency;
        self
    }

    /// Sets the commit-pipeline trace ring capacity (slots; clamped to
    /// at least 1 by the ring itself).
    pub fn with_trace_capacity(mut self, slots: usize) -> Self {
        self.trace_capacity = slots;
        self
    }

    /// The effective shard count: the configured value clamped to the
    /// `1..=64` range the shard bit mask supports.
    pub fn shard_count(&self) -> usize {
        self.shards.clamp(1, MAX_SHARDS)
    }

    /// The latency of device `index`, honoring any override.
    pub fn device_latency(&self, index: usize) -> Duration {
        self.device_latencies
            .get(index)
            .copied()
            .unwrap_or(self.page_write_latency)
    }
}

/// Default shard count: the machine's available parallelism — the §5.2
/// lock table should scale with the cores driving it — clamped to the
/// supported range.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_is_clamped() {
        let opts = EngineOptions::new(CommitPolicy::Group, "/tmp/x").with_shards(0);
        assert_eq!(opts.shard_count(), 1);
        let opts = EngineOptions::new(CommitPolicy::Group, "/tmp/x").with_shards(1000);
        assert_eq!(opts.shard_count(), MAX_SHARDS);
        let opts = EngineOptions::new(CommitPolicy::Group, "/tmp/x").with_shards(8);
        assert_eq!(opts.shard_count(), 8);
    }

    #[test]
    fn policy_device_counts() {
        assert_eq!(CommitPolicy::Synchronous.devices(), 1);
        assert_eq!(CommitPolicy::Group.devices(), 1);
        assert_eq!(CommitPolicy::Partitioned { devices: 4 }.devices(), 4);
        assert_eq!(CommitPolicy::Partitioned { devices: 0 }.devices(), 1);
    }

    #[test]
    fn device_latency_overrides() {
        let opts = EngineOptions::new(CommitPolicy::Partitioned { devices: 2 }, "/tmp/x")
            .with_device_latencies(vec![Duration::from_millis(50)]);
        assert_eq!(opts.device_latency(0), Duration::from_millis(50));
        assert_eq!(opts.device_latency(1), Duration::from_millis(2));
    }
}
