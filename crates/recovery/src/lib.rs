#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Log-level building blocks for recovery in memory-resident databases
//! (§5 of the paper).
//!
//! The §5 setting: the whole database fits in volatile main memory, so the
//! recovery subsystem only ever writes *log* pages during normal
//! processing — and the log write becomes the throughput bottleneck. This
//! crate holds the pieces that setting needs; the one engine that
//! assembles them into commit, checkpoint and restart recovery is
//! `mmdb-session`.
//!
//! * [`log`] — log records and their byte-accounted encoding (a "typical"
//!   transaction writes 400 bytes: 40 of begin/commit, 360 of old/new
//!   values, per Gray's banking example), plus the §5.4 compressed size
//!   with old values stripped.
//! * [`wal`] and [`backend`] — page-framed, checksummed log files with
//!   per-page fsync, and deterministic fault injection for torture tests.
//! * [`lock`] — a lock manager whose lock table carries the paper's three
//!   sets (holders / waiters / **pre-committed**) and maintains the
//!   transaction dependency lists group commit needs.
//! * [`device`] and [`sim`] — virtual-time log devices (one 4096-byte
//!   page per 10 ms) and a discrete-event throughput simulator
//!   reproducing the §5.2 numbers (100 tps synchronous, ~1000 tps with
//!   group commit, ~k× with k log devices, and the §5.4 stable-memory
//!   arm).

/// §5 log storage backends: real files plus deterministic fault
/// injection (torn writes, bit flips, failed syncs) for torture tests.
pub mod backend;
/// §5.2 simulated log devices (one 4096-byte page per 10 ms).
pub mod device;
/// §5.2 lock manager with pre-commit and commit dependencies.
pub mod lock;
/// §5.1 log records and log sequence numbers.
pub mod log;
/// §5.2 discrete-event throughput simulator for the commit policies.
pub mod sim;
/// §5.2 wall-clock log devices: page-framed append-only files with
/// per-page fsync, for the real-thread session layer.
pub mod wal;

pub use backend::{Fault, FaultKind, FaultPlan, FaultyBackend, FileBackend, LogBackend};
pub use device::LogDevice;
pub use lock::{detect_deadlocks_in, LockManager, LockMode};
pub use log::{LogRecord, Lsn};
pub use sim::{SimConfig, ThroughputSim};
pub use wal::{LogFileReport, WalDevice};
