//! Equivalence of the equality-index access path with a full scan.
//!
//! Random statement sequences run against one table with INT, FLOAT
//! and TEXT columns, small value domains (heavy duplicates) and NULLs:
//! inserts, point updates (including ones that move the indexed key),
//! point deletes, point and two-conjunct selects, explicit transactions
//! that commit or abort, and statements that fail part way and abort
//! their transaction. A plain model of the table — a row list filtered
//! by full scans — predicts every answer. After every step:
//!
//! * each `WHERE col = literal` statement has affected or returned
//!   exactly the rows the model's full scan names, in row-id order;
//! * `SELECT *` returns the model's rows, so the mirror is right;
//! * the catalog audit passes: every index equals its rebuild from the
//!   rows and names no absent row.

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::{SqlDb, SqlSession};
use mmdb_types::value::Value;
use proptest::prelude::*;

/// `(a INT, b FLOAT, c TEXT)`.
type Row = [Value; 3];

/// A literal of column `column`'s small domain (NULL included): its SQL
/// text and the value it binds to.
fn lit(column: usize, pick: u8) -> (String, Value) {
    let pick = pick % 5;
    if pick == 4 {
        return ("NULL".to_string(), Value::Null);
    }
    match column {
        0 => {
            let v = i64::from(pick);
            (v.to_string(), Value::Int(v))
        }
        // An integer literal against the FLOAT column is coerced.
        1 => match pick {
            0 => ("0".to_string(), Value::Float(0.0)),
            1 => ("1.5".to_string(), Value::Float(1.5)),
            2 => ("2".to_string(), Value::Float(2.0)),
            _ => ("-1.5".to_string(), Value::Float(-1.5)),
        },
        _ => {
            let s = ["x", "y", "z", "x"][usize::from(pick)];
            (format!("'{s}'"), Value::Str(s.to_string()))
        }
    }
}

const COLS: [&str; 3] = ["a", "b", "c"];

/// The model: committed rows plus the open transaction's copy.
#[derive(Default)]
struct Model {
    rows: Vec<Row>,
    /// Rows as of `BEGIN`, while a transaction is open.
    saved: Option<Vec<Row>>,
}

impl Model {
    fn matching(&self, column: usize, key: &Value) -> Vec<Row> {
        self.rows
            .iter()
            .filter(|r| r[column] == *key)
            .cloned()
            .collect()
    }

    /// A statement failed: inside a transaction that aborts it.
    fn fail(&mut self) {
        if let Some(saved) = self.saved.take() {
            self.rows = saved;
        }
    }
}

/// `value + k` as the SQL layer computes it; `None` when it errors.
fn add(value: &Value, k: i64) -> Option<Value> {
    match value {
        Value::Null => Some(Value::Null),
        Value::Int(i) => i.checked_add(k).map(Value::Int),
        Value::Float(x) => Some(Value::Float(x + k as f64)),
        Value::Str(_) => None,
    }
}

fn rows_of(result: &mmdb_sql::QueryResult) -> Vec<Row> {
    result
        .rows
        .iter()
        .map(|r| [r[0].clone(), r[1].clone(), r[2].clone()])
        .collect()
}

fn temp_dir(case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mmdb-sql-index-equivalence-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one step; returns an error message on divergence.
fn step(s: &mut SqlSession, m: &mut Model, (op, x, y, z): (u8, u8, u8, u8)) -> Result<(), String> {
    let wcol = usize::from(x % 3);
    let (wlit, wkey) = lit(wcol, y);
    let expect_rows = m.matching(wcol, &wkey);
    let expect = expect_rows.len() as u64;
    let check_affected = |sql: &str, got: Result<mmdb_sql::QueryResult, _>| match got {
        Ok(r) if r.affected == expect => Ok(()),
        Ok(r) => Err(format!(
            "{sql}: affected {} rows, full scan says {expect}",
            r.affected
        )),
        Err(e) => Err(format!("{sql}: unexpected error {e}")),
    };
    match op % 12 {
        // INSERT one to three rows; one time in eight with a short row,
        // which fails the statement.
        0 | 1 => {
            let n = 1 + usize::from(z % 3);
            let bad = x % 8 == 0;
            let mut values = Vec::new();
            let mut rows = Vec::new();
            for i in 0..n {
                let seed = y.wrapping_add(i as u8 * 7);
                let cells: Vec<(String, Value)> = (0..3)
                    .map(|c| lit(c, seed.wrapping_mul(c as u8 + 3)))
                    .collect();
                let take = if bad && i == n - 1 { 2 } else { 3 };
                let text: Vec<&str> = cells[..take].iter().map(|(t, _)| t.as_str()).collect();
                values.push(format!("({})", text.join(", ")));
                rows.push([cells[0].1.clone(), cells[1].1.clone(), cells[2].1.clone()]);
            }
            let sql = format!("INSERT INTO t VALUES {}", values.join(", "));
            match (s.execute(&sql), bad) {
                (Ok(r), false) if r.affected == n as u64 => m.rows.extend(rows),
                (Err(_), true) => m.fail(),
                (got, _) => return Err(format!("{sql}: {got:?}")),
            }
        }
        // UPDATE … SET col = literal WHERE col = literal.
        2 | 3 => {
            let scol = usize::from(z % 3);
            let (slit, sval) = lit(scol, z / 3);
            let sql = format!(
                "UPDATE t SET {} = {slit} WHERE {} = {wlit}",
                COLS[scol], COLS[wcol]
            );
            check_affected(&sql, s.execute(&sql))?;
            for r in m.rows.iter_mut().filter(|r| r[wcol] == wkey) {
                r[scol] = sval.clone();
            }
        }
        // UPDATE … SET col = col + k: moves the key when the SET column
        // is the WHERE column (`SET a = a + 1 WHERE a = 3`); overflows
        // and arithmetic on TEXT fail the statement.
        4 | 5 => {
            let scol = if z % 2 == 0 { wcol } else { usize::from(z % 3) };
            let k: i64 = match z % 5 {
                0 => i64::MAX,
                1 => -1,
                _ => 1,
            };
            let sql = format!(
                "UPDATE t SET {c} = {c} + {k} WHERE {} = {wlit}",
                COLS[wcol],
                c = COLS[scol]
            );
            let mut next = m.rows.clone();
            let mut ok = true;
            for r in next.iter_mut().filter(|r| r[wcol] == wkey) {
                match add(&r[scol], k) {
                    Some(v) => r[scol] = v,
                    None => ok = false,
                }
            }
            if ok {
                check_affected(&sql, s.execute(&sql))?;
                m.rows = next;
            } else {
                if s.execute(&sql).is_ok() {
                    return Err(format!("{sql}: succeeded, the model says it fails"));
                }
                m.fail();
            }
        }
        // DELETE … WHERE col = literal.
        6 => {
            let sql = format!("DELETE FROM t WHERE {} = {wlit}", COLS[wcol]);
            check_affected(&sql, s.execute(&sql))?;
            m.rows.retain(|r| r[wcol] != wkey);
        }
        // SELECT * … WHERE col = literal [AND col2 = literal2].
        7 | 8 => {
            let mut sql = format!("SELECT * FROM t WHERE {} = {wlit}", COLS[wcol]);
            let mut want = expect_rows;
            if op % 12 == 8 {
                let col2 = usize::from(z % 3);
                let (lit2, key2) = lit(col2, z / 3);
                sql.push_str(&format!(" AND {} = {lit2}", COLS[col2]));
                want.retain(|r| r[col2] == key2);
            }
            let got = s.execute(&sql).map_err(|e| format!("{sql}: {e}"))?;
            if rows_of(&got) != want {
                return Err(format!("{sql}: {:?}, full scan says {want:?}", got.rows));
            }
        }
        // Transaction control.
        9 | 10 => match (&m.saved, z % 2) {
            (None, _) => {
                s.execute("BEGIN").map_err(|e| format!("BEGIN: {e}"))?;
                m.saved = Some(m.rows.clone());
            }
            (Some(_), 0) => {
                s.execute("COMMIT").map_err(|e| format!("COMMIT: {e}"))?;
                m.saved = None;
            }
            (Some(_), _) => {
                s.execute("ABORT").map_err(|e| format!("ABORT: {e}"))?;
                m.fail();
            }
        },
        // A statement that fails before touching `t`.
        _ => {
            if s.execute("UPDATE nope SET a = 1 WHERE a = 1").is_ok() {
                return Err("update of a missing table succeeded".to_string());
            }
            m.fail();
        }
    }
    if s.in_transaction() != m.saved.is_some() {
        return Err(format!(
            "session in_transaction {} but the model says {}",
            s.in_transaction(),
            m.saved.is_some()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn point_statements_match_a_full_scan(
        case in 0u64..u64::MAX,
        steps in collection::vec((0u8..12, any::<u8>(), any::<u8>(), any::<u8>()), 1..60),
    ) {
        let dir = temp_dir(case);
        let engine = Engine::start(EngineOptions::new(CommitPolicy::Group, &dir)).unwrap();
        let db = SqlDb::open(&engine).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (a INT, b FLOAT, c TEXT)").unwrap();
        let mut m = Model::default();
        for (i, st) in steps.iter().enumerate() {
            let outcome = step(&mut s, &mut m, *st);
            prop_assert!(outcome.is_ok(), "step {i} {st:?}: {}", outcome.unwrap_err());
            let all = s.execute("SELECT * FROM t").unwrap();
            prop_assert_eq!(rows_of(&all), m.rows.clone());
            let audit = db.audit_catalog();
            prop_assert!(audit.is_ok(), "step {i} {st:?}: {}", audit.unwrap_err());
        }
        drop(s);
        engine.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
