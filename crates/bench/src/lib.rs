//! Shared helpers for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). The helpers here keep their output
//! formats consistent: fixed-width text tables that can be diffed across
//! runs and pasted into EXPERIMENTS.md.

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use std::fmt::Display;
use std::time::Duration;

/// Opening balance of every account in the §5 banking experiments.
pub const OPENING_BALANCE: i64 = 1_000;

/// Engine options for the §5 log experiments (R2, R3): group commit in
/// a fresh scratch directory named after `name`, no modeled page-write
/// latency, and a group timeout long enough never to fire. The daemon
/// then cuts a page only when it fills, when a commit has no sibling
/// transaction left to wait for (a lone `Session::transfer` gets a page
/// of its own), or on an explicit [`Engine::flush`].
pub fn banking_options(name: &str) -> EngineOptions {
    let dir = std::env::temp_dir().join(format!("mmdb-bench-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    EngineOptions::new(CommitPolicy::Group, dir)
        .with_page_write_latency(Duration::ZERO)
        .with_flush_interval(Duration::from_secs(3600))
}

/// Starts an engine on `options` and opens `accounts` accounts at
/// [`OPENING_BALANCE`] in one committed transaction.
pub fn open_bank(options: EngineOptions, accounts: u64) -> mmdb_types::Result<Engine> {
    let engine = Engine::start(options)?;
    let session = engine.session();
    let txn = session.begin()?;
    for account in 0..accounts {
        session.write(&txn, account, OPENING_BALANCE)?;
    }
    session.commit(txn)?;
    Ok(engine)
}

/// Sum of the first `accounts` balances (missing accounts count as 0).
pub fn total_balance(engine: &Engine, accounts: u64) -> mmdb_types::Result<i64> {
    let mut total = 0;
    for account in 0..accounts {
        total += engine.read(account)?.unwrap_or(0);
    }
    Ok(total)
}

/// Prints a fixed-width table: header row then data rows.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let header_strs: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let row_strs: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = header_strs.iter().map(|h| h.len()).collect();
    for r in &row_strs {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&header_strs);
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for r in &row_strs {
        line(r);
    }
}

/// Formats seconds with sensible precision.
pub fn secs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The standard Figure 1 x-axis sample points.
pub fn figure1_ratios() -> Vec<f64> {
    let mut v = vec![0.025];
    let mut r = 0.05f64;
    while r <= 1.001 {
        v.push((r * 1000.0).round() / 1000.0);
        r += 0.05;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_cover_the_axis() {
        let r = figure1_ratios();
        assert_eq!(r[0], 0.025);
        assert_eq!(*r.last().unwrap(), 1.0);
        assert!(r.len() >= 20);
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(1234.5), "1234");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(secs(0.1234), "0.123");
        assert_eq!(pct(0.695), "69.5%");
    }
}
