//! An idle engine must not burn CPU: the group-commit daemon sleeps on
//! the queue condvar while nothing is queued, even when the flush
//! interval is zero. A timed wait of zero returns after the kernel's
//! timer slack (50 µs by default), so a daemon looping on it wakes about
//! 20 000 times a second and uses roughly a tenth of a core; the test
//! idles for a full second so that cost stands well clear of the 10 ms
//! granularity of the process CPU clock. This file holds a single test
//! so the clock it reads measures this engine and nothing else.

#![cfg(target_os = "linux")]

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use std::time::Duration;

/// User + system CPU time of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 10 ms on Linux).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // The command name (field 2) may contain spaces; fields after it
    // start past the closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    Duration::from_millis(ticks * 10)
}

#[test]
fn idle_engine_at_zero_flush_interval_does_not_spin() {
    let dir = std::env::temp_dir().join(format!("mmdb-idle-daemon-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::ZERO)
        .with_flush_interval(Duration::ZERO);
    let engine = Engine::start(options).unwrap();

    let before = process_cpu();
    std::thread::sleep(Duration::from_secs(1));
    let used = process_cpu() - before;
    assert!(
        used < Duration::from_millis(40),
        "idle engine used {used:?} of CPU in one second"
    );

    // The zero interval still flushes: a commit becomes durable without
    // any explicit flush.
    let session = engine.session();
    let txn = session.begin().unwrap();
    session.write(&txn, 1, 42).unwrap();
    let ticket = session.commit(txn).unwrap();
    session.wait_durable(&ticket).unwrap();
    assert!(engine.is_durable(&ticket).unwrap());
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
