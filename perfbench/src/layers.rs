//! The traced run's in-process layer harnesses. Each calls one layer's
//! public functions directly, on the same seeded inputs the SQL
//! clients send, and times every call.

use crate::gen::{
    join_query, point_read, JoinData, Rng, Transfer, ACCOUNTS, FLOORS, OPENING_BALANCE,
};
use crate::oracle::{Fingerprint, Ledger};
use crate::trace::{Span, Tracer};
use mmdb_exec::join::{run_join, Algo};
use mmdb_exec::{select, ExecContext, JoinSpec};
use mmdb_planner::optimizer::PlanEnv;
use mmdb_planner::{
    optimize, AccessPath, ColumnStats, JoinEdge, JoinMethod, PhysicalPlan, QuerySpec, TableRef,
    TableStats,
};
use mmdb_session::{Engine, EngineOptions};
use mmdb_sql::{parse, SqlDb, Statement};
use mmdb_storage::MemRelation;
use mmdb_types::{CmpOp, DataType, Predicate, Schema, Tuple, Value};
use std::collections::HashSet;
use std::time::Instant;

/// Transfers run through the in-process SQL harness.
const SQL_TRANSFERS: u64 = 300;
/// Point reads run through the in-process SQL harness (`mixed`).
const SQL_READS: u64 = 300;
/// Join queries run through the in-process SQL and planner/exec
/// harnesses (`join`): two per floor.
const SQL_QUERIES: u64 = 2 * FLOORS;
/// Transfers per thread in the raw-engine harness.
const RAW_TRANSFERS: u64 = 500;
/// Threads in the raw-engine harness, one per SQL connection.
const RAW_THREADS: u64 = 2;
/// Rows per logical page, as the SQL layer groups them for the planner.
const TUPLES_PER_PAGE: usize = 40;

/// Count and total wall time of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    pub count: u64,
    pub total_ns: u64,
}

impl Mean {
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
    }

    fn merge(&mut self, o: Mean) {
        self.count += o.count;
        self.total_ns += o.total_ns;
    }

    /// Mean microseconds per call; 0 when nothing was timed.
    pub fn us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// What the in-process SQL harness measured.
#[derive(Debug, Default)]
pub struct SqlLayer {
    pub open_us: f64,
    pub parse: Mean,
    pub update: Mean,
    pub commit: Mean,
    pub select: Mean,
    pub spans: Vec<Span>,
}

/// Opens a fresh [`SqlDb`] over `engine` and runs the workload's
/// statements through `parse` and `SqlSession::run`, one call at a
/// time. Committed transfers go into `ledger`.
pub fn sql_layer(
    engine: &Engine,
    transfers: bool,
    reads: bool,
    joins: Option<&[Fingerprint]>,
    seed: u64,
    ledger: &mut Ledger,
    epoch: Instant,
) -> Result<SqlLayer, String> {
    let mut out = SqlLayer::default();
    let t0 = Instant::now();
    let db = SqlDb::open(engine).map_err(|e| format!("SqlDb::open: {e}"))?;
    out.open_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut session = db.session();
    let mut tracer = Tracer::new(epoch, 100, true);
    let mut rng = Rng::new(seed, 0x5017);
    let mut run = |tracer: &mut Tracer, out: &mut SqlLayer, root: &'static str, sqls: &[String]| {
        let op = tracer.id();
        let (res, _) = tracer.span(root, 0, op, |tr, id| {
            let mut last = None;
            for sql in sqls {
                let (stmt, ns) = tr.span("sql.parse", id, op, |_, _| parse(sql));
                out.parse.add(ns);
                let stmt = stmt.map_err(|e| format!("parse {sql}: {e}"))?;
                let (res, ns) = tr.span("sql.run", id, op, |_, _| session.run(&stmt));
                match stmt {
                    Statement::Update { .. } => out.update.add(ns),
                    Statement::Commit => out.commit.add(ns),
                    Statement::Select(_) => out.select.add(ns),
                    _ => {}
                }
                last = Some(res.map_err(|e| format!("run {sql}: {e}"))?);
            }
            Ok::<_, String>(last)
        });
        res
    };
    for i in 0..SQL_TRANSFERS.max(SQL_READS) {
        if transfers && i < SQL_TRANSFERS {
            let t = Transfer::draw(&mut rng);
            run(&mut tracer, &mut out, "sql.txn", &t.statements())?;
            ledger.apply(t);
        }
        if reads && i < SQL_READS {
            let (id, sql) = point_read(&mut rng);
            let r = run(&mut tracer, &mut out, "sql.read", &[sql])?;
            if r.map_or(true, |r| r.rows.len() != 1) {
                return Err(format!(
                    "in-process point read of {id} did not return one row"
                ));
            }
        }
    }
    if let Some(reference) = joins {
        for i in 0..SQL_QUERIES {
            let floor = i % FLOORS;
            let r = run(&mut tracer, &mut out, "sql.query", &[join_query(floor)])?;
            let got = r.and_then(|r| crate::drive::fingerprint_rows(&r.rows));
            if got != Some(reference[floor as usize]) {
                return Err(format!(
                    "in-process join on floor {floor} differs from the reference"
                ));
            }
        }
    }
    out.spans = tracer.spans;
    Ok(out)
}

/// What the planner/exec harness measured, per query.
#[derive(Debug, Default)]
pub struct PlanExec {
    pub optimize: Mean,
    pub join: Mean,
    pub comparisons: u64,
    pub hashes: u64,
    pub moves: u64,
    pub queries: u64,
    pub spans: Vec<Span>,
}

impl PlanExec {
    pub fn per_query(&self, n: u64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            n as f64 / self.queries as f64
        }
    }
}

/// A named relation and the statistics the SQL layer would compute for
/// it (exact distinct counts, min and max; no indexes).
struct Table {
    name: &'static str,
    rel: MemRelation,
    stats: TableStats,
}

fn table(
    name: &'static str,
    cols: &[(&str, DataType)],
    rows: Vec<Vec<i64>>,
) -> Result<Table, String> {
    let tuples: Vec<Tuple> = rows
        .into_iter()
        .map(|r| Tuple::new(r.into_iter().map(Value::Int).collect()))
        .collect();
    let columns = (0..cols.len())
        .map(|c| {
            let vals: Vec<&Value> = tuples.iter().map(|t| t.get(c)).collect();
            ColumnStats {
                distinct: vals.iter().collect::<HashSet<_>>().len().max(1) as u64,
                min: vals.iter().min().map(|v| (*v).clone()),
                max: vals.iter().max().map(|v| (*v).clone()),
            }
        })
        .collect();
    let n = tuples.len() as u64;
    let stats = TableStats {
        name: name.to_string(),
        tuples: n,
        pages: n.div_ceil(TUPLES_PER_PAGE as u64),
        tuples_per_page: TUPLES_PER_PAGE as u64,
        columns,
        indexed_columns: Vec::new(),
        ordered_indexed_columns: Vec::new(),
    };
    let rel = MemRelation::from_tuples(Schema::of(cols), TUPLES_PER_PAGE, tuples)
        .map_err(|e| format!("relation {name}: {e}"))?;
    Ok(Table { name, rel, stats })
}

/// Executes a plan with the §3 operators, timing each `run_join`.
fn execute(
    plan: &PhysicalPlan,
    tables: &[Table],
    ctx: &ExecContext,
    tracer: &mut Tracer,
    parent: u64,
    op: u64,
    join: &mut Mean,
) -> Result<MemRelation, String> {
    match plan {
        PhysicalPlan::Access(AccessPath::SeqScan { table, predicate }) => {
            let t = tables
                .iter()
                .find(|t| t.name == table)
                .ok_or_else(|| format!("no relation {table}"))?;
            select::select(&t.rel, predicate, ctx).map_err(|e| format!("select: {e}"))
        }
        PhysicalPlan::Access(other) => Err(format!("unexpected access path {other:?}")),
        PhysicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            method,
            ..
        } => {
            let l = execute(left, tables, ctx, tracer, parent, op, join)?;
            let r = execute(right, tables, ctx, tracer, parent, op, join)?;
            let algo = match method {
                JoinMethod::HybridHash => Algo::HybridHash,
                JoinMethod::SimpleHash => Algo::SimpleHash,
                JoinMethod::GraceHash => Algo::GraceHash,
                JoinMethod::SortMerge => Algo::SortMerge,
            };
            let spec = JoinSpec::new(*left_key, *right_key);
            let (res, ns) = tracer.span("exec.run_join", parent, op, |_, _| {
                run_join(algo, &l, &r, spec, ctx)
            });
            join.add(ns);
            res.map_err(|e| format!("run_join: {e}"))
        }
    }
}

/// Plans and runs the `join` workload's queries on relations built from
/// the generated rows, checking each result against the reference.
pub fn plan_exec_join(
    data: &JoinData,
    reference: &[Fingerprint],
    epoch: Instant,
) -> Result<PlanExec, String> {
    let emp = table(
        "emp",
        &[
            ("id", DataType::Int),
            ("dept", DataType::Int),
            ("sal", DataType::Int),
        ],
        data.emp.iter().map(|&(a, b, c)| vec![a, b, c]).collect(),
    )?;
    let dept = table(
        "dept",
        &[("did", DataType::Int), ("floor", DataType::Int)],
        data.dept.iter().map(|&(a, b)| vec![a, b]).collect(),
    )?;
    let tables = [emp, dept];
    let stats: Vec<TableStats> = tables.iter().map(|t| t.stats.clone()).collect();
    let env = PlanEnv::default();
    let mut out = PlanExec::default();
    let mut tracer = Tracer::new(epoch, 101, true);
    for i in 0..SQL_QUERIES {
        let floor = (i % FLOORS) as i64;
        let spec = QuerySpec {
            tables: vec![
                TableRef::filtered("emp", Predicate::True),
                TableRef::filtered("dept", Predicate::cmp(1, CmpOp::Eq, floor)),
            ],
            joins: vec![JoinEdge {
                left_table: 0,
                left_column: 1,
                right_table: 1,
                right_column: 0,
            }],
        };
        let op = tracer.id();
        let ctx = ExecContext::new(env.mem_pages, 1.2);
        let mut join = Mean::default();
        let (res, _) = tracer.span("plan.query", 0, op, |tr, id| {
            let (planned, ns) = tr.span("planner.optimize", id, op, |_, _| {
                optimize(&spec, &stats, &env)
            });
            out.optimize.add(ns);
            let planned = planned.map_err(|e| format!("optimize: {e}"))?;
            let rel = execute(&planned.plan, &tables, &ctx, tr, id, op, &mut join)?;
            Ok::<_, String>((
                planned
                    .plan
                    .tables()
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>(),
                rel,
            ))
        });
        let (order, rel) = res?;
        out.join.merge(join);
        let cost = ctx.meter.snapshot();
        out.comparisons += cost.comparisons;
        out.hashes += cost.hashes;
        out.moves += cost.moves;
        out.queries += 1;
        // Output columns follow the plan's table order.
        let emp_off = if order.first().map(String::as_str) == Some("emp") {
            0
        } else {
            2
        };
        let got = Fingerprint::of(rel.tuples().iter().map(|t| {
            let int = |v: &Value| if let Value::Int(x) = v { *x } else { i64::MIN };
            (int(t.get(emp_off)), int(t.get(emp_off + 2)))
        }));
        if got != reference[floor as usize] {
            return Err(format!(
                "planned join on floor {floor} differs from the reference"
            ));
        }
    }
    out.spans = tracer.spans;
    Ok(out)
}

/// Plans the `mixed` workload's point reads (a filtered scan; no join).
pub fn plan_exec_point(seed: u64, epoch: Instant) -> Result<PlanExec, String> {
    let acct = table(
        "acct",
        &[("id", DataType::Int), ("bal", DataType::Int)],
        (1..=ACCOUNTS as i64)
            .map(|id| vec![id, OPENING_BALANCE])
            .collect(),
    )?;
    let tables = [acct];
    let stats = vec![tables[0].stats.clone()];
    let env = PlanEnv::default();
    let mut out = PlanExec::default();
    let mut tracer = Tracer::new(epoch, 102, true);
    let mut rng = Rng::new(seed, 0x9017);
    for _ in 0..SQL_READS {
        let (id, _) = point_read(&mut rng);
        let spec = QuerySpec {
            tables: vec![TableRef::filtered(
                "acct",
                Predicate::cmp(0, CmpOp::Eq, id as i64),
            )],
            joins: Vec::new(),
        };
        let op = tracer.id();
        let ctx = ExecContext::new(env.mem_pages, 1.2);
        let mut join = Mean::default();
        let (res, _) = tracer.span("plan.query", 0, op, |tr, sid| {
            let (planned, ns) = tr.span("planner.optimize", sid, op, |_, _| {
                optimize(&spec, &stats, &env)
            });
            out.optimize.add(ns);
            let planned = planned.map_err(|e| format!("optimize: {e}"))?;
            execute(&planned.plan, &tables, &ctx, tr, sid, op, &mut join)
        });
        if res?.tuples().len() != 1 {
            return Err(format!("planned point read of {id} did not return one row"));
        }
        let cost = ctx.meter.snapshot();
        out.comparisons += cost.comparisons;
        out.hashes += cost.hashes;
        out.moves += cost.moves;
        out.queries += 1;
    }
    out.spans = tracer.spans;
    Ok(out)
}

/// What the raw-engine harness measured.
#[derive(Debug, Default)]
pub struct RawEngine {
    pub lock: Mean,
    pub write: Mean,
    pub commit: Mean,
    pub durable_wait: Mean,
    pub spans: Vec<Span>,
}

/// Runs the seeded transfer mix straight against a fresh [`Engine`]
/// (keys are account ids), two threads, then checks that every balance
/// matches the transfers committed and the total is conserved.
pub fn raw_engine(options: EngineOptions, seed: u64, epoch: Instant) -> Result<RawEngine, String> {
    let engine = Engine::start(options).map_err(|e| format!("raw engine start: {e}"))?;
    let load = engine.session();
    let keys: Vec<u64> = (1..=ACCOUNTS).collect();
    for chunk in keys.chunks(500) {
        let txn = load.begin().map_err(|e| e.to_string())?;
        for &k in chunk {
            load.write(&txn, k, OPENING_BALANCE)
                .map_err(|e| e.to_string())?;
        }
        load.commit_durable(txn).map_err(|e| e.to_string())?;
    }
    let handles: Vec<_> = (0..RAW_THREADS)
        .map(|lane| {
            let session = engine.session();
            std::thread::spawn(move || -> Result<(RawEngine, Ledger), String> {
                let mut out = RawEngine::default();
                let mut ledger = Ledger::default();
                let mut tracer = Tracer::new(epoch, 110 + lane, true);
                let mut rng = Rng::new(seed, 0x7A00 + lane);
                for _ in 0..RAW_TRANSFERS {
                    let t = Transfer::draw(&mut rng);
                    let op = tracer.id();
                    let (res, _) = tracer.span("raw.txn", 0, op, |tr, id| {
                        let txn = session.begin()?;
                        let mut keys = [(t.from, -1i64), (t.to, 1i64)];
                        keys.sort_unstable();
                        for (key, delta) in keys {
                            let (bal, ns) = tr.span("session.read_for_update", id, op, |_, _| {
                                session.read_for_update(&txn, key)
                            });
                            out.lock.add(ns);
                            let bal = bal?.unwrap_or(0);
                            let (w, ns) = tr.span("session.write", id, op, |_, _| {
                                session.write(&txn, key, bal + delta)
                            });
                            out.write.add(ns);
                            w?;
                        }
                        let (ticket, ns) =
                            tr.span("session.commit", id, op, |_, _| session.commit(txn));
                        out.commit.add(ns);
                        let ticket = ticket?;
                        let (d, ns) = tr.span("session.wait_durable", id, op, |_, _| {
                            session.wait_durable(&ticket)
                        });
                        out.durable_wait.add(ns);
                        d
                    });
                    res.map_err(|e| format!("raw transfer: {e}"))?;
                    ledger.apply(t);
                }
                out.spans = tracer.spans;
                Ok((out, ledger))
            })
        })
        .collect();
    let mut total = RawEngine::default();
    let mut ledger = Ledger::default();
    for h in handles {
        let (out, l) = h
            .join()
            .map_err(|_| "raw-engine thread panicked".to_string())??;
        total.lock.merge(out.lock);
        total.write.merge(out.write);
        total.commit.merge(out.commit);
        total.durable_wait.merge(out.durable_wait);
        total.spans.extend(out.spans);
        ledger.merge(&l);
    }
    let rows: Result<Vec<(i64, i64)>, String> = keys
        .iter()
        .map(|&k| match engine.read(k) {
            Ok(Some(v)) => Ok((k as i64, v)),
            other => Err(format!("raw engine key {k}: {other:?}")),
        })
        .collect();
    ledger
        .check(&rows?)
        .map_err(|e| format!("raw engine oracle: {e}"))?;
    engine
        .shutdown()
        .map_err(|e| format!("raw engine shutdown: {e}"))?;
    Ok(total)
}
