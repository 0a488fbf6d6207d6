//! Larger combined-load scenarios: the engine under sustained mixed DML +
//! query traffic, and the session engine under long crash/recover
//! cycles. These are the "does it hold up" tests a downstream adopter
//! would run first.

use mmdb::{Database, IndexKind};
use mmdb_planner::{JoinEdge, QuerySpec, TableRef};
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_types::{CmpOp, DataType, Predicate, Schema, Tuple, Value, WorkloadRng};
use std::time::Duration;

#[test]
fn sustained_dml_with_index_maintenance() {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::of(&[("id", DataType::Int), ("grp", DataType::Int)]),
    )
    .unwrap();
    db.create_index("t", 0, IndexKind::BPlusTree).unwrap();
    db.create_index("t", 1, IndexKind::Hash).unwrap();
    let mut rng = WorkloadRng::seeded(60);
    let mut live: std::collections::BTreeMap<i64, i64> = Default::default();
    let mut next_id = 0i64;
    for round in 0..2_000 {
        match rng.index(10) {
            0..=5 => {
                let grp = rng.int_in(0, 16);
                db.insert("t", Tuple::new(vec![Value::Int(next_id), Value::Int(grp)]))
                    .unwrap();
                live.insert(next_id, grp);
                next_id += 1;
            }
            6..=7 => {
                if next_id > 0 {
                    let victim = rng.int_in(0, next_id);
                    let removed = db
                        .table_mut("t")
                        .unwrap()
                        .delete_where(&Predicate::eq(0, victim));
                    assert_eq!(removed, usize::from(live.remove(&victim).is_some()));
                }
            }
            _ => {
                if next_id > 0 {
                    let probe = rng.int_in(0, next_id);
                    let got = db.lookup_eq("t", 0, &Value::Int(probe)).unwrap();
                    match live.get(&probe) {
                        Some(grp) => {
                            assert_eq!(got.len(), 1, "round {round}");
                            assert_eq!(got[0].get(1), &Value::Int(*grp));
                        }
                        None => assert!(got.is_empty(), "round {round}"),
                    }
                }
            }
        }
    }
    // Final cross-checks: group index, range scan, and full count agree
    // with the oracle.
    assert_eq!(db.table("t").unwrap().len(), live.len());
    for grp in 0..16i64 {
        let via_index = db.lookup_eq("t", 1, &Value::Int(grp)).unwrap().len();
        let oracle = live.values().filter(|g| **g == grp).count();
        assert_eq!(via_index, oracle, "group {grp}");
    }
    let lo = next_id / 4;
    let hi = next_id / 2;
    let ranged = db
        .range_scan("t", 0, &Value::Int(lo), &Value::Int(hi))
        .unwrap();
    assert_eq!(
        ranged.len(),
        live.range(lo..=hi).count(),
        "range [{lo}, {hi}]"
    );
}

#[test]
fn repeated_crash_recover_cycles_accumulate_correctly() {
    for policy in [
        CommitPolicy::Synchronous,
        CommitPolicy::Group,
        CommitPolicy::Partitioned { devices: 3 },
    ] {
        let dir = std::env::temp_dir().join(format!(
            "mmdb-stress-cycles-{}-{}",
            policy.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let options = EngineOptions::new(policy, &dir)
            .with_page_write_latency(Duration::ZERO)
            .with_flush_interval(Duration::from_micros(500));
        let mut engine = Engine::start(options.clone()).unwrap();
        let s = engine.session();
        let seed = s.begin().unwrap();
        for a in 0..20u64 {
            s.write(&seed, a, 0).unwrap();
        }
        s.commit(seed).unwrap();
        engine.flush().unwrap();
        let mut expected: Vec<i64> = vec![0; 20];
        for cycle in 0..6 {
            // Commit a batch, leave one transaction in flight, crash, recover.
            let s = engine.session();
            for i in 0..30u64 {
                let key = (cycle * 7 + i) % 20;
                let t = s.begin().unwrap();
                s.write(&t, key, expected[key as usize] + 1).unwrap();
                s.commit(t).unwrap();
                expected[key as usize] += 1;
            }
            engine.flush().unwrap();
            // A durable commit after the in-flight write carries that
            // write's log records to disk too (LSN prefix), so recovery
            // must see them and discard them.
            let doomed = s.begin().unwrap();
            s.write(&doomed, 0, -1).unwrap();
            let t = s.begin().unwrap();
            s.write(&t, 19, expected[19] + 1).unwrap();
            s.commit_durable(t).unwrap();
            expected[19] += 1;
            engine.crash().unwrap();
            let (recovered, report) = Engine::recover(options.clone()).unwrap();
            engine = recovered;
            assert_eq!(report.losers, vec![doomed.id()], "{policy:?} cycle {cycle}");
            for (k, v) in expected.iter().enumerate() {
                assert_eq!(
                    engine.read(k as u64).unwrap(),
                    Some(*v),
                    "{policy:?} cycle {cycle}, key {k}"
                );
            }
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn query_results_survive_table_mutation_between_queries() {
    let mut db = Database::new();
    db.create_table(
        "orders",
        Schema::of(&[("id", DataType::Int), ("cust", DataType::Int)]),
    )
    .unwrap();
    db.create_table(
        "cust",
        Schema::of(&[("id", DataType::Int), ("tier", DataType::Int)]),
    )
    .unwrap();
    let mut rng = WorkloadRng::seeded(61);
    for c in 0..50i64 {
        db.insert("cust", Tuple::new(vec![Value::Int(c), Value::Int(c % 3)]))
            .unwrap();
    }
    let spec = QuerySpec {
        tables: vec![
            TableRef::plain("orders"),
            TableRef::filtered("cust", Predicate::cmp(1, CmpOp::Eq, 1i64)),
        ],
        joins: vec![JoinEdge {
            left_table: 0,
            left_column: 1,
            right_table: 1,
            right_column: 0,
        }],
    };
    let mut last = 0usize;
    for wave in 0..5 {
        for i in 0..200i64 {
            db.insert(
                "orders",
                Tuple::new(vec![
                    Value::Int(wave * 200 + i),
                    Value::Int(rng.int_in(0, 50)),
                ]),
            )
            .unwrap();
        }
        let outcome = db.query(&spec).unwrap();
        let oracle = db
            .table("orders")
            .unwrap()
            .scan()
            .filter(|t| t.get(1).as_int().unwrap() % 3 == 1)
            .count();
        assert_eq!(outcome.rows.tuple_count(), oracle, "wave {wave}");
        assert!(outcome.rows.tuple_count() >= last);
        last = outcome.rows.tuple_count();
    }
}
