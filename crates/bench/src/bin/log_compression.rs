//! Experiment R2 — §5.4: buffering the log in stable memory lets the
//! system strip old values of committed transactions before the log
//! reaches disk, roughly halving disk-log volume.
//!
//! A banking workload runs through the session engine's
//! `Session::transfer` under group commit. The harness then reads the
//! engine's own log back and repacks it in place into full pages, so
//! the page count does not depend on when the daemon cut partial pages.
//! It also strips every update's old value (`old: None` and half the
//! padding — exactly `LogRecord::compressed_size`) and packs those
//! records by the same rule into a second log directory. That is the
//! log a stable-memory drain would have written. Both logs are
//! recovered by `Engine::recover`, which must conserve every balance and
//! find every transaction committed.

use mmdb_analytic::recovery::ThroughputModel;
use mmdb_bench::{banking_options, open_bank, pct, print_table, total_balance, OPENING_BALANCE};
use mmdb_recovery::wal::{read_log_file_report, WalDevice};
use mmdb_recovery::{LogRecord, Lsn};
use mmdb_session::{Engine, EngineOptions};
use std::time::Duration;

const ACCOUNTS: u64 = 100;
const TRANSFERS: u64 = 2_000;
const LOG_FILE: &str = "wal-d0.log";

/// §5.4 compression of one record: an update loses its pre-image and
/// the half of its padding that models old-value bytes.
fn strip_old_value(mut record: LogRecord) -> LogRecord {
    if let LogRecord::Update { old, padding, .. } = &mut record {
        *old = None;
        *padding /= 2;
    }
    record
}

/// Writes `records` into a fresh device file, greedily packing each
/// page up to `page_bytes` of accounted record bytes, the same rule the
/// commit daemon cuts full pages by. Both arms are packed here, so the
/// ratio compares record volume alone. Returns the page count.
fn write_packed(
    options: &EngineOptions,
    records: &[(Lsn, LogRecord)],
) -> mmdb_types::Result<usize> {
    std::fs::create_dir_all(&options.log_dir)
        .map_err(|e| mmdb_types::Error::Io(format!("create log dir: {e}")))?;
    let mut device = WalDevice::create(
        options.log_dir.join(LOG_FILE),
        options.page_bytes,
        Duration::ZERO,
    )?;
    let mut start = 0;
    let mut page_fill = 0;
    for (i, (_, record)) in records.iter().enumerate() {
        let size = record.byte_size();
        if i > start && page_fill + size > options.page_bytes {
            device.append_page(&records[start..i])?;
            start = i;
            page_fill = 0;
        }
        page_fill += size;
    }
    if start < records.len() {
        device.append_page(&records[start..])?;
    }
    Ok(device.pages_written())
}

/// Recovers the log under `options` and checks it: every balance
/// conserved and every transaction (the account-opening one plus each
/// transfer) committed.
fn recovers_whole(options: EngineOptions) -> mmdb_types::Result<bool> {
    let (engine, info) = Engine::recover(options)?;
    let ok = total_balance(&engine, ACCOUNTS)? == ACCOUNTS as i64 * OPENING_BALANCE
        && info.committed.len() as u64 == TRANSFERS + 1
        && info.losers.is_empty();
    engine.shutdown()?;
    Ok(ok)
}

fn main() -> mmdb_types::Result<()> {
    println!("Experiment R2 — §5.4 log compression in stable memory");
    let full = banking_options("r2-full");
    let compressed = banking_options("r2-compressed");

    let engine = open_bank(full.clone(), ACCOUNTS)?;
    let session = engine.session();
    for i in 0..TRANSFERS {
        session.transfer(i % ACCOUNTS, (i + 7) % ACCOUNTS, 1)?;
    }
    engine.flush()?;
    engine.crash()?;

    let records = read_log_file_report(&full.log_dir.join(LOG_FILE))?.records;
    let full_bytes: usize = records.iter().map(|(_, r)| r.byte_size()).sum();
    let full_pages = write_packed(&full, &records)?;
    let stripped: Vec<(Lsn, LogRecord)> = records
        .into_iter()
        .map(|(lsn, r)| (lsn, strip_old_value(r)))
        .collect();
    let compressed_bytes: usize = stripped.iter().map(|(_, r)| r.byte_size()).sum();
    let compressed_pages = write_packed(&compressed, &stripped)?;

    let full_ok = recovers_whole(full.clone())?;
    let compressed_ok = recovers_whole(compressed.clone())?;
    std::fs::remove_dir_all(&full.log_dir).ok();
    std::fs::remove_dir_all(&compressed.log_dir).ok();

    let ratio = compressed_pages as f64 / full_pages as f64;
    let rows = vec![
        vec![
            "group commit (full log)".to_string(),
            full_pages.to_string(),
            full_bytes.to_string(),
            "100%".to_string(),
            full_ok.to_string(),
        ],
        vec![
            "stable memory (new values only)".to_string(),
            compressed_pages.to_string(),
            compressed_bytes.to_string(),
            pct(ratio),
            compressed_ok.to_string(),
        ],
    ];
    print_table(
        &format!("{TRANSFERS} banking transfers: disk-log volume"),
        &["log", "log pages", "log bytes", "relative", "recovery ok"],
        &rows,
    );
    let model = ThroughputModel::default();
    println!(
        "\nmodel predicts a compression ratio of {} (old values are ~half of\n\
         the update volume); measured {}.",
        pct(model.compression_ratio()),
        pct(ratio)
    );
    assert!(
        full_ok && compressed_ok,
        "both logs must recover with balances conserved and every transaction committed"
    );
    assert!(
        (ratio - model.compression_ratio()).abs() <= 0.05,
        "compressed/full page ratio {} is more than 5 points from the model's {}",
        pct(ratio),
        pct(model.compression_ratio())
    );
    Ok(())
}
