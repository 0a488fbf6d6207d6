//! Closed-loop SQL clients over TCP: each connection sends its next
//! statement only after the previous one is answered.

use crate::gen::{join_query, point_read, Rng, Transfer, FLOORS};
use crate::oracle::{Fingerprint, Ledger};
use crate::trace::{Span, Tracer};
use mmdb_server::{Client, ClientConfig, ClientError};
use mmdb_types::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a connection runs in its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Transfer,
    PointRead,
    Join,
}

/// One connection and everything it has seen so far.
pub struct Conn {
    pub client: Client,
    pub role: Role,
    pub lane: u64,
    pub rng: Rng,
    pub ledger: Ledger,
}

/// A plain TCP client: no chaos transport and no automatic retries, so
/// every error surfaces and counts as a failure.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let config = ClientConfig {
        auto_retry: false,
        max_retries: 0,
        ..ClientConfig::default()
    };
    Client::connect_with(addr, config).map_err(|e| format!("connect {addr}: {e}"))
}

impl Conn {
    pub fn open(addr: SocketAddr, role: Role, lane: u64, seed: u64) -> Result<Conn, String> {
        Ok(Conn {
            client: connect(addr)?,
            role,
            lane,
            rng: Rng::new(seed, 0x100 + lane),
            ledger: Ledger::default(),
        })
    }
}

/// What one phase of the closed loop measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub elapsed_s: f64,
    /// Transaction or join-query latencies, ms.
    pub op_ms: Vec<f64>,
    /// When each of `op_ms` completed, ns since the run's epoch.
    pub op_at: Vec<u64>,
    /// Point-read latencies, ms.
    pub read_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Results the oracle rejected (wrong rows); any makes the run
    /// incorrect.
    pub wrong: Vec<String>,
    /// `Client::execute` calls and their total wall time.
    pub executes: u64,
    pub execute_ns: u64,
    pub spans: Vec<Span>,
}

impl PhaseOut {
    fn merge(&mut self, o: PhaseOut) {
        self.op_ms.extend(o.op_ms);
        self.op_at.extend(o.op_at);
        self.read_ms.extend(o.read_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong.extend(o.wrong);
        self.executes += o.executes;
        self.execute_ns += o.execute_ns;
        self.spans.extend(o.spans);
    }
}

/// Runs every connection's loop on its own thread until `dur` has
/// passed (or `count` operations per connection, when given); returns
/// the connections for the next phase.
pub fn run_phase(
    conns: Vec<Conn>,
    dur: Duration,
    count: Option<u64>,
    tracing: bool,
    epoch: Instant,
    reference: &Arc<Vec<Fingerprint>>,
) -> (Vec<Conn>, PhaseOut) {
    let start = Instant::now();
    let deadline = start + dur;
    let handles: Vec<_> = conns
        .into_iter()
        .map(|mut conn| {
            let reference = Arc::clone(reference);
            std::thread::spawn(move || {
                let mut out = PhaseOut::default();
                let mut tracer = Tracer::new(epoch, conn.lane, tracing);
                let mut done = 0u64;
                while count.map_or(Instant::now() < deadline, |c| done < c) {
                    one_op(&mut conn, &mut tracer, &mut out, &reference);
                    done += 1;
                }
                out.spans = tracer.spans;
                (conn, out)
            })
        })
        .collect();
    let mut conns = Vec::new();
    let mut total = PhaseOut::default();
    for h in handles {
        match h.join() {
            Ok((conn, out)) => {
                conns.push(conn);
                total.merge(out);
            }
            Err(_) => total.wrong.push("a client thread panicked".to_string()),
        }
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    (conns, total)
}

fn execute(
    conn: &mut Conn,
    tracer: &mut Tracer,
    out: &mut PhaseOut,
    parent: u64,
    op: u64,
    sql: &str,
) -> Result<mmdb_sql::QueryResult, ClientError> {
    let client = &mut conn.client;
    let (res, ns) = tracer.span("server.execute", parent, op, |_, _| client.execute(sql));
    out.executes += 1;
    out.execute_ns += ns;
    res
}

fn one_op(conn: &mut Conn, tracer: &mut Tracer, out: &mut PhaseOut, reference: &[Fingerprint]) {
    out.attempted += 1;
    let op = tracer.id();
    match conn.role {
        Role::Transfer => {
            let t = Transfer::draw(&mut conn.rng);
            let stmts = t.statements();
            let (outcome, ns) = tracer.span("client.txn", 0, op, |tr, id| {
                for (i, sql) in stmts.iter().enumerate() {
                    if let Err(e) = execute(conn, tr, out, id, op, sql) {
                        return Err((i == stmts.len() - 1, e));
                    }
                }
                Ok(())
            });
            match outcome {
                Ok(()) => {
                    conn.ledger.apply(t);
                    out.op_ms.push(ns as f64 / 1e6);
                    out.op_at.push(tracer.now_ns());
                }
                Err((at_commit, e)) => {
                    out.failed += 1;
                    if at_commit {
                        // A failed COMMIT leaves the outcome unknown to
                        // the client; the oracle cannot vouch for it.
                        conn.ledger.ambiguous += 1;
                    } else if conn.client.in_transaction() {
                        let _ = conn.client.execute("ABORT");
                    }
                    eprintln!("transfer failed: {e}");
                }
            }
        }
        Role::PointRead => {
            let (id, sql) = point_read(&mut conn.rng);
            let (res, ns) = tracer.span("client.read", 0, op, |tr, sid| {
                execute(conn, tr, out, sid, op, &sql)
            });
            match res {
                Ok(r) => {
                    out.read_ms.push(ns as f64 / 1e6);
                    let one_int = r.rows.len() == 1
                        && r.rows[0].len() == 1
                        && matches!(r.rows[0][0], Value::Int(_));
                    if !one_int {
                        out.wrong
                            .push(format!("point read of {id} returned {:?}", r.rows));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("point read failed: {e}");
                }
            }
        }
        Role::Join => {
            let floor = conn.rng.below(FLOORS);
            let sql = join_query(floor);
            let (res, ns) = tracer.span("client.query", 0, op, |tr, sid| {
                execute(conn, tr, out, sid, op, &sql)
            });
            match res {
                Ok(r) => {
                    out.op_ms.push(ns as f64 / 1e6);
                    out.op_at.push(tracer.now_ns());
                    let got = fingerprint_rows(&r.rows);
                    if got != Some(reference[floor as usize]) {
                        out.wrong.push(format!(
                            "join on floor {floor}: {} rows differ from the reference join",
                            r.rows.len()
                        ));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("join query failed: {e}");
                }
            }
        }
    }
}

/// Fingerprints `(Int, Int)` rows; `None` if any row has another shape.
pub fn fingerprint_rows(rows: &[Vec<Value>]) -> Option<Fingerprint> {
    let mut f = Fingerprint::default();
    for row in rows {
        match row.as_slice() {
            [Value::Int(a), Value::Int(b)] => f.add(*a, *b),
            _ => return None,
        }
    }
    Some(f)
}

/// Reads every `(id, bal)` row of `acct`.
pub fn read_balances(client: &mut Client) -> Result<Vec<(i64, i64)>, String> {
    let rows = client
        .query("SELECT id, bal FROM acct")
        .map_err(|e| format!("balance scan: {e}"))?;
    rows.iter()
        .map(|r| match r.as_slice() {
            [Value::Int(id), Value::Int(bal)] => Ok((*id, *bal)),
            other => Err(format!("balance row of unexpected shape {other:?}")),
        })
        .collect()
}

/// Runs every floor's join query once and compares it to the reference.
pub fn check_all_floors(client: &mut Client, reference: &[Fingerprint]) -> Result<(), String> {
    for floor in 0..FLOORS {
        let rows = client
            .query(&join_query(floor))
            .map_err(|e| format!("join on floor {floor}: {e}"))?;
        if fingerprint_rows(&rows) != Some(reference[floor as usize]) {
            return Err(format!(
                "join on floor {floor} differs from the reference join"
            ));
        }
    }
    Ok(())
}
