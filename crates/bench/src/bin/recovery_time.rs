//! Experiment R3 — §5.3/§5.5: checkpointing bounds recovery time.
//!
//! The same committed banking workload runs through the session engine
//! with a fuzzy checkpoint (`Engine::checkpoint_now`) every
//! {never, 2000, 500, 100} transactions; then the engine crashes and
//! `Engine::recover` rebuilds it. The harness reports how many log
//! records recovery read and replayed, the log bytes it decoded, and the
//! measured wall-clock recovery time.
//!
//! §5.5 keeps, per dirty page, the LSN of its first update since the
//! last checkpoint; "the oldest entry in the table determines the point
//! in the log from which recovery should commence". The session
//! checkpoint records exactly that point as its replay floor `start`:
//! the minimum LSN over the undo entries still live when the sweep
//! begins (the first updates not yet durably committed into the image),
//! bounded above by the queue's next LSN. Recovery loads the checkpoint
//! image and replays only live-log records at or past `start`, skipping
//! older pages without decoding them.
//!
//! The harness flushes the log before each checkpoint. Undo entries live
//! until their commit is durable, so without the flush the floor would
//! trail the checkpoint by however far the log writer's fsyncs happened
//! to lag, and the table would vary from run to run.

use mmdb_bench::{banking_options, open_bank, print_table, total_balance, OPENING_BALANCE};
use mmdb_session::Engine;
use std::time::Instant;

const ACCOUNTS: u64 = 200;
const TRANSFERS: u64 = 5_000;

fn main() -> mmdb_types::Result<()> {
    println!("Experiment R3 — §5.5 recovery time vs checkpoint interval");
    let mut rows = Vec::new();
    let mut previous: Option<(usize, u64)> = None;
    for checkpoint_every in [0u64, 2_000, 500, 100] {
        let options = banking_options(&format!("r3-{checkpoint_every}"));
        let engine = open_bank(options.clone(), ACCOUNTS)?;
        let session = engine.session();
        for i in 0..TRANSFERS {
            if checkpoint_every > 0 && i > 0 && i % checkpoint_every == 0 {
                engine.flush()?;
                engine.checkpoint_now()?;
            }
            session.transfer(i % ACCOUNTS, (i + 3) % ACCOUNTS, 1)?;
        }
        engine.flush()?;
        engine.crash()?;

        let started = Instant::now();
        let (recovered, info) = Engine::recover(options.clone())?;
        let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            total_balance(&recovered, ACCOUNTS)?,
            ACCOUNTS as i64 * OPENING_BALANCE,
            "balances conserved (checkpoint every {checkpoint_every})"
        );
        recovered.shutdown()?;
        std::fs::remove_dir_all(&options.log_dir).ok();

        // §5.5's claim: a tighter checkpoint interval never makes
        // recovery do more work.
        if let Some((replayed, bytes)) = previous {
            assert!(
                info.records_replayed <= replayed && info.log_bytes_replayed <= bytes,
                "recovery work grew as the checkpoint interval tightened to {checkpoint_every}"
            );
        }
        previous = Some((info.records_replayed, info.log_bytes_replayed));
        rows.push(vec![
            if checkpoint_every == 0 {
                "never".to_string()
            } else {
                format!("every {checkpoint_every}")
            },
            info.checkpoint_start
                .map_or_else(|| "-".to_string(), |lsn| lsn.0.to_string()),
            info.records_scanned.to_string(),
            info.records_replayed.to_string(),
            info.log_bytes_replayed.to_string(),
            format!("{recovery_ms:.1}"),
        ]);
    }
    print_table(
        &format!("{TRANSFERS} committed transfers, crash, recover"),
        &[
            "checkpoint",
            "replay from LSN",
            "records scanned",
            "replayed",
            "log bytes replayed",
            "recovery ms",
        ],
        &rows,
    );
    println!(
        "\n§5.5 reproduced: each checkpoint moves the redo start point (the\n\
         oldest first-update LSN not yet in the image) forward, so recovery\n\
         work shrinks as the checkpoint interval tightens."
    );
    Ok(())
}
