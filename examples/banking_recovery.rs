//! The §5 story end-to-end: Gray-style banking transactions against the
//! memory-resident session engine, under every commit policy, with a
//! crash mid-stream and full recovery — money is conserved, uncommitted
//! work vanishes.
//!
//! ```text
//! cargo run --example banking_recovery
//! ```

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use std::time::Duration;

const ACCOUNTS: u64 = 50;

fn total(engine: &Engine) -> i64 {
    (0..ACCOUNTS)
        .map(|a| engine.read(a).unwrap().unwrap_or(0))
        .sum()
}

fn run(policy: CommitPolicy, label: &str) {
    println!("-- {label} --");
    let dir = std::env::temp_dir().join(format!(
        "mmdb-banking-{}-{}",
        policy.name(),
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let options = EngineOptions::new(policy, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500));
    let bank = Engine::start(options.clone()).unwrap();
    let session = bank.session();

    // Open 50 accounts with $1 000 each.
    let seed = session.begin().unwrap();
    for acct in 0..ACCOUNTS {
        session.write(&seed, acct, 1_000).unwrap();
    }
    session.commit(seed).unwrap();

    // 500 committed transfers (the paper's "typical" banking txns).
    for i in 0..500u64 {
        session
            .transfer(i % ACCOUNTS, (i * 7 + 3) % ACCOUNTS, 10)
            .unwrap();
    }
    bank.flush().unwrap();
    let committed_pages = bank.pages_written().unwrap();

    // Two transactions in flight when the lights go out: one aborted
    // cleanly, one simply unfinished.
    let doomed = session.begin().unwrap();
    session.write(&doomed, 0, 1_000_000).unwrap();
    session.abort(doomed).unwrap();
    let unfinished = session.begin().unwrap();
    session.write(&unfinished, 1, -777).unwrap();

    println!(
        "  before crash: balance(0) = {:?}, balance(1) = {:?} (dirty!), {} log pages",
        bank.read(0).unwrap(),
        bank.read(1).unwrap(),
        committed_pages,
    );

    // Power failure.
    bank.crash().unwrap();
    let (recovered, report) = Engine::recover(options).unwrap();
    let total = total(&recovered);
    println!(
        "  recovered: {} committed txns, {} losers rolled back, {} log records scanned",
        report.committed.len(),
        report.losers.len(),
        report.records_scanned
    );
    println!(
        "  balance(1) = {:?} (dirty write gone), total money = ${total} (conserved: {})\n",
        recovered.read(1).unwrap(),
        total == 50_000
    );
    assert_eq!(total, 50_000);
    assert_eq!(report.committed.len(), 501);
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    println!("§5 of DeWitt et al. 1984 — recovery for memory-resident databases\n");
    run(CommitPolicy::Synchronous, "synchronous commit (≤100 tps)");
    run(CommitPolicy::Group, "group commit (≈1000 tps)");
    run(
        CommitPolicy::Partitioned { devices: 4 },
        "partitioned log, 4 devices (≈4000 tps)",
    );
    println!("all three §5.2 commit policies recover correctly.");
}
