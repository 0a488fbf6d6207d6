//! Property-based crash testing of the §5 session engine: whatever the
//! workload, the commit policy, and the crash point, recovery restores
//! exactly the committed prefix.

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[derive(Debug, Clone)]
enum Op {
    /// Transfer between two of 16 accounts and commit.
    Transfer { from: u8, to: u8, amount: i16 },
    /// Start a transaction, write, and abort it.
    AbortedWrite { key: u8, value: i16 },
    /// Force the log out.
    Flush,
    /// Sweep a fuzzy checkpoint.
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, 0u8..16, any::<i16>()).prop_map(|(from, to, amount)| Op::Transfer {
            from,
            to,
            amount
        }),
        (0u8..16, any::<i16>()).prop_map(|(key, value)| Op::AbortedWrite { key, value }),
        Just(Op::Flush),
        Just(Op::Checkpoint),
    ]
}

fn policy_strategy() -> impl Strategy<Value = CommitPolicy> {
    prop_oneof![
        Just(CommitPolicy::Synchronous),
        Just(CommitPolicy::Group),
        Just(CommitPolicy::Partitioned { devices: 3 }),
    ]
}

/// A fresh log directory per case (cases of one test run in sequence,
/// but the two tests run in parallel).
fn case_dir(test: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mmdb-recovery-props-{}-{test}-{n}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// No modeled write latency, and a group timeout long enough that a
/// queued partial page reaches the log only through an explicit flush
/// (or a synchronous commit): what the crash takes is decided by the
/// operations, not by timing.
fn options(policy: CommitPolicy, dir: PathBuf) -> EngineOptions {
    EngineOptions::new(policy, dir)
        .with_page_write_latency(Duration::ZERO)
        .with_flush_interval(Duration::from_secs(3600))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_restores_exactly_the_committed_state(
        policy in policy_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..60),
        final_flush in any::<bool>(),
    ) {
        let dir = case_dir("oracle");
        let opts = options(policy, dir.clone());
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        // Oracle of committed state only.
        let mut oracle: HashMap<u64, i64> = (0..16).map(|a| (a, 1_000)).collect();
        let seed = s.begin().unwrap();
        for a in 0..16u64 {
            s.write(&seed, a, 1_000).unwrap();
        }
        s.commit(seed).unwrap();
        engine.flush().unwrap();
        let mut committed_txns = 1usize;

        for op in &ops {
            match op {
                Op::Transfer { from, to, amount } => {
                    let (from, to, amount) = (*from as u64, *to as u64, *amount as i64);
                    s.transfer(from, to, amount).unwrap();
                    *oracle.get_mut(&from).unwrap() -= amount;
                    *oracle.get_mut(&to).unwrap() += amount;
                    committed_txns += 1;
                }
                Op::AbortedWrite { key, value } => {
                    let t = s.begin().unwrap();
                    s.write(&t, *key as u64, *value as i64).unwrap();
                    s.abort(t).unwrap();
                }
                Op::Flush => engine.flush().unwrap(),
                Op::Checkpoint => {
                    engine.checkpoint_now().unwrap();
                }
            }
        }
        if final_flush {
            engine.flush().unwrap();
        }
        engine.crash().unwrap();

        let (recovered, report) = Engine::recover(opts).unwrap();
        let balances: Vec<Option<i64>> = (0..16).map(|a| recovered.read(a).unwrap()).collect();
        recovered.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // Invariant 1: no phantom commits.
        prop_assert!(report.committed.len() <= committed_txns);
        if final_flush || policy == CommitPolicy::Synchronous {
            // Invariant 2: with everything durable, the recovered state
            // equals the committed oracle exactly. (A checkpoint folds
            // older commits into its image, so only the state — not the
            // replayed commit list — is complete after one.)
            for a in 0..16u64 {
                prop_assert_eq!(balances[a as usize], Some(oracle[&a]), "account {}", a);
            }
            if !ops.iter().any(|op| matches!(op, Op::Checkpoint)) {
                prop_assert_eq!(report.committed.len(), committed_txns);
            }
        }

        // Invariant 3: money is conserved whatever survived — transfers
        // are zero-sum, aborts are undone, and the durable prefix holds
        // whole transactions only.
        let total: i64 = balances.iter().map(|b| b.unwrap_or(0)).sum();
        prop_assert_eq!(total, 16_000);
    }

    #[test]
    fn crash_mid_stream_never_resurrects_uncommitted_data(
        policy in policy_strategy(),
        committed in 1u64..30,
    ) {
        let dir = case_dir("sentinel");
        let opts = options(policy, dir.clone());
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        let seed = s.begin().unwrap();
        s.write(&seed, 0, 0).unwrap();
        s.commit(seed).unwrap();
        for i in 0..committed {
            let t = s.begin().unwrap();
            s.write(&t, 1, i as i64).unwrap();
            s.commit(t).unwrap();
        }
        engine.flush().unwrap();
        // The doomed transaction writes a sentinel nothing else writes,
        // and reaches the log: its update record is durable.
        let doomed = s.begin().unwrap();
        s.write(&doomed, 2, 424_242).unwrap();
        engine.flush().unwrap();
        // Fuzzy: the sweep sees the dirty value and must back it out.
        engine.checkpoint_now().unwrap();
        engine.crash().unwrap();
        let (recovered, report) = Engine::recover(opts).unwrap();
        let sentinel = recovered.read(2).unwrap();
        let last = recovered.read(1).unwrap();
        recovered.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_ne!(sentinel, Some(424_242));
        prop_assert_eq!(last, Some(committed as i64 - 1));
        prop_assert!(!report.committed.contains(&doomed.id()));
    }
}
