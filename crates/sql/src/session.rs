//! Statement execution against the session engine.
//!
//! [`SqlDb`] pairs one engine [`Session`] handle with the shared
//! volatile [`Catalog`]; [`SqlSession`] adds per-connection transaction
//! state. Durability rides the engine's ordinary write path: every
//! schema and row is chunked into the `u64 → i64` store (see
//! [`crate::codec`]), so SQL state gets WAL framing, group commit, and
//! crash/recover without any code of its own.
//!
//! # Visibility and rollback
//!
//! The catalog mirror is updated as statements execute, *before*
//! commit — row reads are read-uncommitted, matching the engine's own
//! `read()`. DDL is stricter: a table created inside an open
//! transaction stays private to that transaction (the entry carries a
//! `pending_owner` tag filtered out of every other session's lookups)
//! until commit publishes it. Otherwise another session could durably
//! commit rows into a table whose catalog entry never commits, leaving
//! orphan row keys in the log. Write-write conflicts are real
//! conflicts: every
//! `INSERT`/`UPDATE`/`DELETE` locks its row's header key through the
//! engine's per-shard lock manager, so two transactions mutating the
//! same row serialize (or deadlock, and the victim aborts). Each
//! catalog mutation pushes a volatile undo record; `ABORT` (or any
//! failed statement, which aborts the whole transaction) replays the
//! undo log in reverse and then aborts the engine transaction, which
//! rolls the durable side back.
//!
//! Statements outside an explicit `BEGIN` autocommit: they run in a
//! fresh transaction committed durably (`commit_durable`) before the
//! result returns.
//!
//! # Access paths
//!
//! `UPDATE`/`DELETE` find their rows in `scan_matching`: with a
//! `col = literal` conjunct the candidates are the rids the column's
//! equality index holds for that literal (the index is built on first
//! use, see [`crate::catalog`]), otherwise every row; either way they
//! are filtered by the whole predicate and visited in ascending rid
//! order, each locked and rechecked against the engine's copy. Every
//! mirror change — the statements' and both undo arms' — goes through
//! `TableEntry::put_row` / `remove_row`, which keep the indexes in
//! step.

use crate::ast::{Condition, Literal, SetExpr, Statement};
use crate::catalog::{Probe, SharedCatalog, TableEntry};
use crate::codec;
use crate::parser::{parse, ParseError};
use crate::query::{self, QueryResult};
use mmdb_session::{Engine, Session, Txn};
use mmdb_types::audit::Auditable;
use mmdb_types::error::{Error, Result};
use mmdb_types::expr::Predicate;
use mmdb_types::ids::TxnId;
use mmdb_types::schema::{Column, DataType, Schema};
use mmdb_types::tuple::Tuple;
use std::collections::BTreeMap;

/// Any error a SQL statement can produce.
#[derive(Debug)]
pub enum SqlError {
    /// The text did not parse.
    Parse(ParseError),
    /// Front-end semantic error (transaction state, unsupported shape).
    Sql(String),
    /// Engine, planner, or executor error.
    Exec(Error),
    /// A statement failed inside an explicit transaction, which the
    /// session then aborted. Wraps the original failure; classification
    /// follows the inner error.
    TxnAborted(Box<SqlError>),
}

/// How a failed statement should be treated by the caller: worth
/// retrying from the top (a fresh attempt may succeed — deadlock
/// victims, capacity refusals, shutdown races) or fatal as written
/// (parse errors, unknown tables, constraint-shaped failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Transient: the same statement may succeed if resubmitted.
    Retryable,
    /// Deterministic: resubmitting the same statement will fail again.
    Fatal,
}

impl SqlError {
    /// Classifies this error as [`ErrorClass::Retryable`] or
    /// [`ErrorClass::Fatal`]. The server forwards this in-band so
    /// clients can auto-retry safely.
    pub fn class(&self) -> ErrorClass {
        match self {
            SqlError::Parse(_) | SqlError::Sql(_) => ErrorClass::Fatal,
            SqlError::TxnAborted(inner) => inner.class(),
            SqlError::Exec(e) => match e {
                Error::LockConflict { .. } | Error::TransactionAborted(_) | Error::Shutdown => {
                    ErrorClass::Retryable
                }
                _ => ErrorClass::Fatal,
            },
        }
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::Sql(msg) => write!(f, "{msg}"),
            SqlError::Exec(e) => write!(f, "{e}"),
            SqlError::TxnAborted(inner) => write!(f, "{inner}; transaction aborted"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}

impl From<Error> for SqlError {
    fn from(e: Error) -> Self {
        SqlError::Exec(e)
    }
}

/// One reversible catalog mutation, recorded as the statement applies
/// so `ABORT` can restore the mirror (the engine's own abort restores
/// the durable side).
#[derive(Debug)]
enum UndoOp {
    /// Undo an `INSERT`: drop the row from the mirror.
    RemoveRow { table: String, rid: u32 },
    /// Undo an `UPDATE` or `DELETE`: put the old tuple back — but only
    /// if the mirror still shows what this transaction wrote. A
    /// deadlock victim's engine locks are released (and its engine
    /// writes rolled back) *inside* the engine, before this volatile
    /// undo runs; a successor may have legitimately overwritten the row
    /// in that window, and restoring over its value would clobber
    /// committed state.
    RestoreRow {
        table: String,
        rid: u32,
        tuple: Tuple,
        /// What this transaction left in the mirror: `Some(new)` for an
        /// `UPDATE`, `None` for a `DELETE` (row absent).
        wrote: Option<Tuple>,
    },
    /// Undo a `CREATE TABLE`.
    DropTable { name: String },
}

/// A SQL database bound to one engine: the shared catalog plus a
/// session handle. Cheap to clone — make one [`SqlSession`] per
/// connection via [`SqlDb::session`].
#[derive(Clone)]
pub struct SqlDb {
    session: Session,
    catalog: SharedCatalog,
}

impl SqlDb {
    /// Opens the SQL layer over an engine, rebuilding the volatile
    /// catalog from the store's SQL-owned keys. After
    /// [`Engine::recover`] this is exactly the committed image: the
    /// log replayed into memory (§5.2), decoded back into schemas and
    /// rows.
    pub fn open(engine: &Engine) -> Result<SqlDb> {
        let session = engine.session();
        let catalog = SharedCatalog::default();
        let snapshot = session.snapshot_kv()?;

        // Regroup the flat key space per table / per row.
        let mut schema_chunks: BTreeMap<u32, BTreeMap<u64, i64>> = BTreeMap::new();
        let mut row_chunks: BTreeMap<(u32, u32), BTreeMap<u64, i64>> = BTreeMap::new();
        for (key, value) in snapshot {
            match codec::parse_key(key) {
                Some(codec::SqlKey::Catalog { table_id, chunk }) => {
                    schema_chunks
                        .entry(table_id)
                        .or_default()
                        .insert(chunk, value);
                }
                Some(codec::SqlKey::Row {
                    table_id,
                    rid,
                    chunk,
                }) => {
                    row_chunks
                        .entry((table_id, rid))
                        .or_default()
                        .insert(chunk, value);
                }
                None => {}
            }
        }

        let assemble = |chunks: &BTreeMap<u64, i64>, what: &str| -> Result<Option<Vec<u8>>> {
            let header = match chunks.get(&0) {
                Some(h) => *h,
                None => {
                    return Err(Error::CorruptLog(format!("{what} has no header chunk")));
                }
            };
            if header == codec::TOMBSTONE {
                return Ok(None);
            }
            if header < 0 {
                return Err(Error::CorruptLog(format!(
                    "{what} header {header} is not a length"
                )));
            }
            let len = header as usize;
            let need = len.div_ceil(8) as u64;
            let mut words = Vec::with_capacity(need as usize);
            for chunk in 1..=need {
                match chunks.get(&chunk) {
                    Some(w) => words.push(*w),
                    None => {
                        return Err(Error::CorruptLog(format!(
                            "{what} is missing chunk {chunk}"
                        )))
                    }
                }
            }
            codec::words_to_blob(&words, len).map(Some)
        };

        // Schemas first (rows need arities), then rows.
        let mut by_id: BTreeMap<u32, (String, Schema)> = BTreeMap::new();
        for (table_id, chunks) in &schema_chunks {
            let blob = match assemble(chunks, &format!("catalog entry {table_id}"))? {
                Some(b) => b,
                None => continue,
            };
            let (name, schema) = codec::decode_schema(&blob)?;
            by_id.insert(*table_id, (name, schema));
        }
        let mut rows: BTreeMap<u32, BTreeMap<u32, Tuple>> = BTreeMap::new();
        let mut next_rid: BTreeMap<u32, u32> = BTreeMap::new();
        for ((table_id, rid), chunks) in &row_chunks {
            // Tombstoned rows still advance the rid watermark.
            let bound = next_rid.entry(*table_id).or_insert(0);
            *bound = (*bound).max(rid.saturating_add(1));
            let blob = match assemble(chunks, &format!("row {rid} of table {table_id}"))? {
                Some(b) => b,
                None => continue,
            };
            // An orphan row (no catalog entry) is quarantined — skipped,
            // with its rid watermark kept — rather than failing the whole
            // open and leaving the database permanently unopenable.
            let (_, schema) = match by_id.get(table_id) {
                Some(entry) => entry,
                None => continue,
            };
            let tuple = codec::decode_row(&blob, schema.arity())?;
            rows.entry(*table_id).or_default().insert(*rid, tuple);
        }

        catalog.with_catalog_write(|cat| {
            for (table_id, (name, schema)) in &by_id {
                cat.install(
                    name,
                    TableEntry::new(
                        *table_id,
                        schema.clone(),
                        rows.remove(table_id).unwrap_or_default(),
                        next_rid.get(table_id).copied().unwrap_or(0),
                        None,
                    ),
                );
            }
            Ok(())
        })?;
        Ok(SqlDb { session, catalog })
    }

    /// A new statement session (one per connection or client thread).
    pub fn session(&self) -> SqlSession {
        SqlSession {
            db: self.clone(),
            txn: None,
            undo: Vec::new(),
        }
    }

    /// Audits the catalog mirror ([`Catalog`]'s [`Auditable`] impl):
    /// every equality index equals its rebuild from the rows.
    ///
    /// [`Catalog`]: crate::catalog::Catalog
    pub fn audit_catalog(&self) -> Result<()> {
        self.catalog
            .with_catalog_read(|c| c.audit().map_err(Error::from))
    }

    /// Committed table names currently in the catalog, sorted; tables
    /// pending inside an open transaction are not listed.
    pub fn table_names(&self) -> Result<Vec<String>> {
        self.catalog.with_catalog_read(|c| {
            Ok(c.iter()
                .filter(|(_, e)| e.visible_to(None))
                .map(|(n, _)| n.clone())
                .collect())
        })
    }
}

/// Per-connection statement execution state: an optional open
/// transaction and its volatile undo log.
pub struct SqlSession {
    db: SqlDb,
    txn: Option<Txn>,
    undo: Vec<UndoOp>,
}

impl SqlSession {
    /// Parses and runs one statement.
    pub fn execute(&mut self, sql: &str) -> std::result::Result<QueryResult, SqlError> {
        let stmt = parse(sql)?;
        self.run(&stmt)
    }

    /// True while an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Runs one parsed statement.
    pub fn run(&mut self, stmt: &Statement) -> std::result::Result<QueryResult, SqlError> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(SqlError::Sql("a transaction is already open".to_string()));
                }
                self.txn = Some(self.db.session.begin()?);
                Ok(QueryResult::ack())
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| SqlError::Sql("COMMIT outside a transaction".to_string()))?;
                match self.db.session.commit_durable(txn) {
                    Ok(_) => {
                        self.publish_and_clear_undo();
                        Ok(QueryResult::ack())
                    }
                    Err(e) => {
                        self.rollback_volatile();
                        Err(SqlError::Exec(e))
                    }
                }
            }
            Statement::Abort => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| SqlError::Sql("ABORT outside a transaction".to_string()))?;
                self.rollback_volatile();
                // The engine may have already aborted us as a deadlock
                // victim; either way the durable side is rolled back.
                let _ = self.db.session.abort(txn);
                Ok(QueryResult::ack())
            }
            Statement::Select(sel) => {
                // Snapshot under the catalog read lock, then plan and
                // execute with the lock released — a long analytic join
                // must not stall every writer on the outermost lock.
                let viewer = self.txn.as_ref().map(Txn::id);
                let tables = self
                    .db
                    .catalog
                    .with_indexes(|c| query::snapshot_tables(sel, c, viewer))
                    .map_err(SqlError::Exec)?;
                query::run_select_on(sel, tables).map_err(SqlError::Exec)
            }
            mutation => self.run_mutation(mutation),
        }
    }

    /// Runs a DDL/DML statement, autocommitting when no transaction is
    /// open. Any failure aborts the whole transaction (volatile undo
    /// replayed, engine transaction aborted) — the error message tells
    /// the client so.
    fn run_mutation(&mut self, stmt: &Statement) -> std::result::Result<QueryResult, SqlError> {
        let auto = self.txn.is_none();
        if auto {
            self.txn = Some(self.db.session.begin()?);
        }
        let outcome = match self.txn.as_ref() {
            Some(txn) => {
                // `txn` borrows self.txn, so split the borrows by hand.
                let txn_ref = txn;
                match stmt {
                    Statement::CreateTable { name, columns } => {
                        create_table(&self.db, txn_ref, &mut self.undo, name, columns)
                    }
                    Statement::Insert {
                        table,
                        columns,
                        rows,
                    } => insert(&self.db, txn_ref, &mut self.undo, table, columns, rows),
                    Statement::Update {
                        table,
                        sets,
                        conditions,
                    } => update(&self.db, txn_ref, &mut self.undo, table, sets, conditions),
                    Statement::Delete { table, conditions } => {
                        delete(&self.db, txn_ref, &mut self.undo, table, conditions)
                    }
                    _ => Err(Error::Internal("not a mutation statement".to_string())),
                }
            }
            None => Err(Error::Internal(
                "mutation without a transaction".to_string(),
            )),
        };
        match outcome {
            Ok(result) => {
                if auto {
                    match self.txn.take() {
                        Some(txn) => match self.db.session.commit_durable(txn) {
                            Ok(_) => {
                                self.publish_and_clear_undo();
                                Ok(result)
                            }
                            Err(e) => {
                                self.rollback_volatile();
                                Err(SqlError::Exec(e))
                            }
                        },
                        None => Err(SqlError::Exec(Error::Internal(
                            "autocommit transaction vanished".to_string(),
                        ))),
                    }
                } else {
                    Ok(result)
                }
            }
            Err(e) => {
                self.rollback_volatile();
                if let Some(txn) = self.txn.take() {
                    let _ = self.db.session.abort(txn);
                }
                if auto {
                    Err(SqlError::Exec(e))
                } else {
                    Err(SqlError::TxnAborted(Box::new(SqlError::Exec(e))))
                }
            }
        }
    }

    /// After a successful commit: clears the pending markers of tables
    /// this transaction created — making them visible to every other
    /// session — and drops the undo log (the changes are durable now).
    fn publish_and_clear_undo(&mut self) {
        let created: Vec<String> = self
            .undo
            .iter()
            .filter_map(|op| match op {
                UndoOp::DropTable { name } => Some(name.clone()),
                _ => None,
            })
            .collect();
        if !created.is_empty() {
            let _ = self.db.catalog.with_catalog_write(|cat| {
                for name in &created {
                    cat.publish(name);
                }
                Ok(())
            });
        }
        self.undo.clear();
    }

    /// Replays the volatile undo log in reverse, restoring the catalog
    /// mirror. Engine-side rollback is the caller's job. Lookups skip
    /// the visibility filter: every record describes state this
    /// transaction itself produced.
    fn rollback_volatile(&mut self) {
        while let Some(op) = self.undo.pop() {
            let _ = self.db.catalog.with_catalog_write(|cat| {
                match op {
                    UndoOp::RemoveRow { ref table, rid } => {
                        if let Ok(entry) = cat.table_mut_any(table) {
                            entry.remove_row(rid);
                        }
                    }
                    UndoOp::RestoreRow {
                        ref table,
                        rid,
                        ref tuple,
                        ref wrote,
                    } => {
                        if let Ok(entry) = cat.table_mut_any(table) {
                            // Restore only when the mirror still shows
                            // this transaction's own write; anything
                            // else means a successor overwrote the row
                            // after the engine released our locks, and
                            // its value is the correct one.
                            if entry.rows().get(&rid) == wrote.as_ref() {
                                entry.put_row(rid, tuple.clone());
                            }
                        }
                    }
                    UndoOp::DropTable { ref name } => cat.remove(name),
                }
                Ok(())
            });
        }
    }
}

impl Drop for SqlSession {
    /// A dropped session with an open transaction aborts it — a
    /// disconnecting client must not leave row locks behind.
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.rollback_volatile();
            let _ = self.db.session.abort(txn);
        }
    }
}

// ---------------------------------------------------------------------
// Mutation statements
// ---------------------------------------------------------------------

/// Writes `blob` as a chunked entry under `key_of(chunk)`: header
/// (chunk 0) carries the byte length, chunks `1..=n` the payload. The
/// header is written first — it is the row's lock point, so conflicts
/// surface before any payload writes.
fn write_blob(
    session: &Session,
    txn: &Txn,
    blob: &[u8],
    key_of: impl Fn(u64) -> Result<u64>,
) -> Result<()> {
    session.write(txn, key_of(0)?, blob.len() as i64)?;
    for (i, word) in codec::blob_to_words(blob).into_iter().enumerate() {
        session.write(txn, key_of(i as u64 + 1)?, word)?;
    }
    Ok(())
}

fn create_table(
    db: &SqlDb,
    txn: &Txn,
    undo: &mut Vec<UndoOp>,
    name: &str,
    columns: &[(String, DataType)],
) -> Result<QueryResult> {
    let schema = Schema::new(
        columns
            .iter()
            .map(|(n, ty)| Column::new(n.clone(), *ty))
            .collect(),
    )?;
    // Install in the mirror first, tagged as pending: only this
    // transaction sees the table until commit publishes it, so no other
    // session can durably commit rows into a table whose catalog entry
    // might never commit. The name itself is claimed immediately —
    // concurrent CREATEs of the same name race on the catalog lock
    // instead of silently colliding on a table id.
    let (table_id, blob) = db.catalog.with_catalog_write(|cat| {
        if cat.contains(name) {
            return Err(Error::Planning(format!("table '{name}' already exists")));
        }
        let id = cat.alloc_table_id()?;
        let blob = codec::encode_schema(name, &schema)?;
        cat.install(
            name,
            TableEntry::new(id, schema.clone(), BTreeMap::new(), 0, Some(txn.id())),
        );
        Ok((id, blob))
    })?;
    undo.push(UndoOp::DropTable {
        name: name.to_string(),
    });
    write_blob(&db.session, txn, &blob, |chunk| {
        codec::catalog_key(table_id, chunk)
    })?;
    Ok(QueryResult::ack())
}

fn insert(
    db: &SqlDb,
    txn: &Txn,
    undo: &mut Vec<UndoOp>,
    table: &str,
    columns: &Option<Vec<String>>,
    rows: &[Vec<Literal>],
) -> Result<QueryResult> {
    // Bind every row and reserve rids under one catalog lock.
    let viewer = Some(txn.id());
    let (table_id, bound) = db.catalog.with_catalog_write(|cat| {
        let entry = cat.table_mut(table, viewer)?;
        let mut bound = Vec::with_capacity(rows.len());
        for row in rows {
            let tuple = query::bind_insert_row(&entry.schema, columns, row)?;
            let blob = codec::encode_row(&tuple)?;
            if entry.next_rid == codec::MAX_RID {
                return Err(Error::OutOfMemory {
                    needed: entry.next_rid as usize,
                    available: codec::MAX_RID as usize,
                });
            }
            let rid = entry.next_rid;
            entry.next_rid += 1;
            bound.push((rid, tuple, blob));
        }
        Ok((entry.id, bound))
    })?;
    // Per row: durable write, then mirror + undo — so a failure part
    // way through leaves only undo-covered state behind.
    let count = bound.len() as u64;
    for (rid, tuple, blob) in bound {
        write_blob(&db.session, txn, &blob, |chunk| {
            codec::row_key(table_id, rid, chunk)
        })?;
        db.catalog.with_catalog_write(|cat| {
            cat.table_mut(table, viewer)?.put_row(rid, tuple);
            Ok(())
        })?;
        undo.push(UndoOp::RemoveRow {
            table: table.to_string(),
            rid,
        });
    }
    Ok(QueryResult::affected(count))
}

/// What an `UPDATE`/`DELETE` will touch: the ids of the rows that
/// matched, ascending (the row-lock order), plus the bound predicate
/// each is rechecked against once locked.
struct MutationScan {
    table_id: u32,
    schema: Schema,
    pred: Predicate,
    rids: Vec<u32>,
}

/// Finds the rows an `UPDATE`/`DELETE` matches. With a `col = literal`
/// conjunct the candidates come from that column's equality index
/// (built here on first use); otherwise every row is scanned. Either
/// way each candidate is filtered by the whole predicate.
fn scan_matching(
    db: &SqlDb,
    viewer: Option<TxnId>,
    table: &str,
    conditions: &[Condition],
) -> Result<MutationScan> {
    db.catalog.with_indexes(|cat| {
        let entry = cat.table(table, viewer)?;
        let filter = query::bind_table_predicate(table, &entry.schema, conditions)?;
        let matches = |(rid, t): (&u32, &Tuple)| filter.pred.eval(t).then_some(*rid);
        let rids = match &filter.point {
            Some((column, key)) => match entry.lookup(*column, key) {
                Some(candidates) => candidates
                    .iter()
                    .filter_map(|rid| entry.rows().get_key_value(rid))
                    .filter_map(matches)
                    .collect(),
                None => return Ok(Probe::Unindexed(vec![(table.to_string(), *column)])),
            },
            None => entry.rows().iter().filter_map(matches).collect(),
        };
        Ok(Probe::Done(MutationScan {
            table_id: entry.id,
            schema: entry.schema.clone(),
            pred: filter.pred,
            rids,
        }))
    })
}

/// Locks one row's header through the engine and re-reads its current
/// tuple *from the engine* under that lock. Returns `None` when the
/// row vanished (or was tombstoned) between the scan and the lock —
/// the statement skips it, exactly as if the scan had never seen it.
///
/// The engine, not the catalog mirror, is the authority here: an
/// engine-side abort (deadlock victim) rolls the store back and
/// releases the victim's locks atomically under the shard lock, while
/// the victim's *mirror* writes linger until its session observes the
/// abort. Re-reading the mirror in that window reads uncommitted data
/// — a read-modify-write built on it silently drops the concurrent
/// committed update.
fn lock_and_refetch(
    db: &SqlDb,
    txn: &Txn,
    table_id: u32,
    rid: u32,
    arity: usize,
) -> Result<Option<Tuple>> {
    let header = db
        .session
        .read_for_update(txn, codec::row_key(table_id, rid, 0)?)?;
    let len = match header {
        None => return Ok(None),
        Some(h) if h == codec::TOMBSTONE => return Ok(None),
        Some(h) if h < 0 => {
            return Err(Error::Internal(format!(
                "row {rid} of table {table_id}: header {h} is not a length"
            )))
        }
        Some(h) => h as usize,
    };
    // The header's exclusive lock is the row's lock point (every writer
    // takes it first), so the payload chunks cannot change under us;
    // shared locks suffice and pick up §5.2 commit dependencies from a
    // pre-committed writer.
    let need = len.div_ceil(8) as u64;
    let mut words = Vec::with_capacity(need as usize);
    for chunk in 1..=need {
        match db
            .session
            .read_shared(txn, codec::row_key(table_id, rid, chunk)?)?
        {
            Some(w) => words.push(w),
            None => {
                return Err(Error::Internal(format!(
                    "row {rid} of table {table_id} is missing chunk {chunk}"
                )))
            }
        }
    }
    let blob = codec::words_to_blob(&words, len)?;
    codec::decode_row(&blob, arity).map(Some)
}

fn update(
    db: &SqlDb,
    txn: &Txn,
    undo: &mut Vec<UndoOp>,
    table: &str,
    sets: &[(String, SetExpr)],
    conditions: &[Condition],
) -> Result<QueryResult> {
    let scan = scan_matching(db, Some(txn.id()), table, conditions)?;
    let bound_sets = query::bind_sets(&scan.schema, sets)?;
    let mut affected = 0u64;
    for rid in scan.rids {
        // The scan ran unlocked; lock the row, then recheck against its
        // current value (it may have changed or stopped matching).
        let current = match lock_and_refetch(db, txn, scan.table_id, rid, scan.schema.arity())? {
            Some(t) if scan.pred.eval(&t) => t,
            _ => continue,
        };
        let new = query::apply_sets(&scan.schema, &current, &bound_sets)?;
        let blob = codec::encode_row(&new)?;
        write_blob(&db.session, txn, &blob, |chunk| {
            codec::row_key(scan.table_id, rid, chunk)
        })?;
        db.catalog.with_catalog_write(|cat| {
            cat.table_mut(table, Some(txn.id()))?
                .put_row(rid, new.clone());
            Ok(())
        })?;
        undo.push(UndoOp::RestoreRow {
            table: table.to_string(),
            rid,
            tuple: current,
            wrote: Some(new),
        });
        affected += 1;
    }
    Ok(QueryResult::affected(affected))
}

fn delete(
    db: &SqlDb,
    txn: &Txn,
    undo: &mut Vec<UndoOp>,
    table: &str,
    conditions: &[Condition],
) -> Result<QueryResult> {
    let scan = scan_matching(db, Some(txn.id()), table, conditions)?;
    let mut affected = 0u64;
    for rid in scan.rids {
        let current = match lock_and_refetch(db, txn, scan.table_id, rid, scan.schema.arity())? {
            Some(t) if scan.pred.eval(&t) => t,
            _ => continue,
        };
        // A tombstone header is all deletion takes: stale payload
        // chunks are never read (the header bounds every decode), and
        // recovery skips tombstoned rows while keeping their rid
        // watermark.
        db.session.write(
            txn,
            codec::row_key(scan.table_id, rid, 0)?,
            codec::TOMBSTONE,
        )?;
        db.catalog.with_catalog_write(|cat| {
            cat.table_mut(table, Some(txn.id()))?.remove_row(rid);
            Ok(())
        })?;
        undo.push(UndoOp::RestoreRow {
            table: table.to_string(),
            rid,
            tuple: current,
            wrote: None,
        });
        affected += 1;
    }
    Ok(QueryResult::affected(affected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_session::EngineOptions;
    use mmdb_types::value::Value;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmdb-sql-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn engine(dir: &std::path::Path) -> Engine {
        let opts = EngineOptions::new(mmdb_session::CommitPolicy::Group, dir);
        Engine::start(opts).unwrap()
    }

    #[test]
    fn autocommit_crud_roundtrip() {
        let dir = temp_dir("crud");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE acct (id INT, owner TEXT, bal INT)")
            .unwrap();
        let r = s
            .execute("INSERT INTO acct VALUES (1, 'ann', 100), (2, 'bob', 50)")
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = s
            .execute("UPDATE acct SET bal = bal + 10 WHERE id = 2")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = s
            .execute("SELECT owner, bal FROM acct WHERE bal >= 60")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = s.execute("DELETE FROM acct WHERE id = 1").unwrap();
        assert_eq!(r.affected, 1);
        let r = s.execute("SELECT * FROM acct").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Value::Str("bob".to_string()));
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_rolls_back_catalog_and_rows() {
        let dir = temp_dir("abort");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        s.execute("UPDATE t SET id = 9 WHERE id = 1").unwrap();
        s.execute("CREATE TABLE u (x INT)").unwrap();
        s.execute("ABORT").unwrap();
        let r = s.execute("SELECT id FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        assert!(s.execute("SELECT * FROM u").is_err());
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_statement_aborts_open_transaction() {
        let dir = temp_dir("stmt-abort");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(s.execute("INSERT INTO nope VALUES (1)").is_err());
        assert!(!s.in_transaction());
        let r = s.execute("SELECT * FROM t").unwrap();
        assert!(r.rows.is_empty());
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_survives_crash_and_recover() {
        let dir = temp_dir("recover");
        let eng = engine(&dir);
        {
            let db = SqlDb::open(&eng).unwrap();
            let mut s = db.session();
            s.execute("CREATE TABLE kv (k INT, v TEXT)").unwrap();
            s.execute("INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')")
                .unwrap();
            s.execute("DELETE FROM kv WHERE k = 2").unwrap();
            s.execute("UPDATE kv SET v = 'THREE' WHERE k = 3").unwrap();
            // An uncommitted transaction must not survive.
            s.execute("BEGIN").unwrap();
            s.execute("INSERT INTO kv VALUES (4, 'four')").unwrap();
        }
        eng.crash().unwrap();
        let opts = EngineOptions::new(mmdb_session::CommitPolicy::Group, &dir);
        let (eng, _info) = Engine::recover(opts).unwrap();
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        let r = s.execute("SELECT k, v FROM kv WHERE k >= 1").unwrap();
        let mut rows = r.rows.clone();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Str("one".to_string())],
                vec![Value::Int(3), Value::Str("THREE".to_string())],
            ]
        );
        // New inserts allocate past the recovered watermark.
        s.execute("INSERT INTO kv VALUES (5, 'five')").unwrap();
        let r = s.execute("SELECT k FROM kv").unwrap();
        assert_eq!(r.rows.len(), 3);
        // The reopened catalog indexes `k` on first use.
        let r = s.execute("SELECT v FROM kv WHERE k = 3").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Str("THREE".to_string())]]);
        db.audit_catalog().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_create_table_is_private_to_its_transaction() {
        let dir = temp_dir("ddl-private");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("BEGIN").unwrap();
        a.execute("CREATE TABLE t (id INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        // The creator sees its own pending table...
        let r = a.execute("SELECT id FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        // ...but no other session can read it, write into it (and
        // durably commit orphan rows), or list it; the name itself is
        // already claimed.
        assert!(b.execute("SELECT * FROM t").is_err());
        assert!(b.execute("INSERT INTO t VALUES (2)").is_err());
        assert!(b.execute("CREATE TABLE t (x INT)").is_err());
        assert_eq!(db.table_names().unwrap(), Vec::<String>::new());
        a.execute("COMMIT").unwrap();
        // Commit publishes: now everyone sees it.
        assert_eq!(db.table_names().unwrap(), vec!["t".to_string()]);
        let r = b.execute("SELECT id FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        b.execute("INSERT INTO t VALUES (2)").unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_create_table_frees_the_name() {
        let dir = temp_dir("ddl-abort");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("BEGIN").unwrap();
        a.execute("CREATE TABLE t (id INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        a.execute("ABORT").unwrap();
        // Nothing leaked, and the name is free for anyone again.
        assert!(a.execute("SELECT * FROM t").is_err());
        b.execute("CREATE TABLE t (x INT)").unwrap();
        let r = b.execute("SELECT * FROM t").unwrap();
        assert!(r.rows.is_empty());
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_write_conflicts_serialize() {
        let dir = temp_dir("conflict");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("CREATE TABLE t (id INT, n INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        a.execute("BEGIN").unwrap();
        a.execute("UPDATE t SET n = n + 1 WHERE id = 1").unwrap();
        // B cannot touch the same row while A holds its lock.
        assert!(b.execute("UPDATE t SET n = n + 5 WHERE id = 1").is_err());
        a.execute("COMMIT").unwrap();
        let r = b.execute("SELECT n FROM t WHERE id = 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
