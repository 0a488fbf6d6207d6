//! The volatile catalog: an in-memory mirror of the durable SQL image.
//!
//! The durable truth lives in the session engine's store (see
//! [`crate::codec`] for the key layout); this module holds the decoded
//! mirror — table schemas plus rows — that statements bind and scan
//! against. The mirror is rebuilt from a store snapshot after
//! crash/recover, and mutated in lockstep with engine writes by
//! [`crate::session`].
//!
//! # Equality indexes
//!
//! Each table may carry volatile equality indexes, one per column:
//! the §2 chained [`HashIndex`] from column value to row ids, so a
//! `col = literal` statement visits the matching rows instead of the
//! whole table. None exists at open; an index is built, in one pass
//! over the rows, the first time a statement filters its table by
//! `col = literal` (`SharedCatalog::with_indexes`). Row changes go
//! through `TableEntry::put_row` / `remove_row`, which keep every
//! index of the table in step — `rows` is private so nothing can
//! bypass them. An index names rows by row id and is never logged;
//! after recovery the first statement that needs it builds it again.
//! [`Catalog`]'s [`Auditable`] impl checks each index against a rebuild
//! from the rows.
//!
//! Lock discipline: the catalog sits behind one `RwLock` accessed only
//! through the short closure helpers on [`SharedCatalog`]
//! (`with_catalog_read` / `with_catalog_write`). The catalog lock is
//! the *outermost* class in the engine's documented lock order — no
//! engine lock may be taken while it is held, which the helpers make
//! structural: closures receive the catalog by reference and nothing
//! else, so an engine call inside one would need the session handle
//! smuggled in, and the audit's lock-order pass watches these helper
//! names for exactly that.

use mmdb_index::HashIndex;
use mmdb_types::audit::{AuditViolation, Auditable};
use mmdb_types::error::{Error, Result};
use mmdb_types::ids::TxnId;
use mmdb_types::schema::Schema;
use mmdb_types::tuple::Tuple;
use mmdb_types::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};

/// One table's volatile state.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Stable id used in store keys.
    pub id: u32,
    /// The table's schema.
    pub schema: Schema,
    /// Decoded rows by row id. Private: every change goes through
    /// `put_row` / `remove_row`,
    /// which maintain `indexes`.
    rows: BTreeMap<u32, Tuple>,
    /// Equality indexes by column: value → row ids.
    indexes: BTreeMap<usize, HashIndex<Value, u32>>,
    /// Next row id to allocate.
    pub next_rid: u32,
    /// When `Some`, the table was created by this still-open
    /// transaction: only that transaction may see or touch it until
    /// commit publishes it (abort removes it). Keeping uncommitted DDL
    /// private stops another session from durably committing rows into
    /// a table whose catalog entry may never commit — which would
    /// orphan those rows in the log.
    pub pending_owner: Option<TxnId>,
}

impl TableEntry {
    /// A table holding `rows`, with no indexes.
    pub fn new(
        id: u32,
        schema: Schema,
        rows: BTreeMap<u32, Tuple>,
        next_rid: u32,
        pending_owner: Option<TxnId>,
    ) -> TableEntry {
        TableEntry {
            id,
            schema,
            rows,
            indexes: BTreeMap::new(),
            next_rid,
            pending_owner,
        }
    }

    /// True when `viewer` may see this table: committed tables are
    /// visible to everyone, a pending table only to its creator.
    pub fn visible_to(&self, viewer: Option<TxnId>) -> bool {
        match self.pending_owner {
            None => true,
            Some(owner) => viewer == Some(owner),
        }
    }

    /// The rows by row id.
    pub fn rows(&self) -> &BTreeMap<u32, Tuple> {
        &self.rows
    }

    /// Stores `tuple` as row `rid`, replacing any previous version, and
    /// moves the row's entry in every index whose key changed.
    pub(crate) fn put_row(&mut self, rid: u32, tuple: Tuple) {
        let old = self.rows.get(&rid);
        for (&column, index) in &mut self.indexes {
            let new_key = key_of(&tuple, column);
            if let Some(old_key) = old.map(|t| key_of(t, column)) {
                if old_key == new_key {
                    continue;
                }
                index.remove_one(old_key, |r| *r == rid);
            }
            index.insert(new_key.clone(), rid);
        }
        self.rows.insert(rid, tuple);
    }

    /// Removes row `rid`, if present, and its index entries.
    pub(crate) fn remove_row(&mut self, rid: u32) {
        if let Some(old) = self.rows.remove(&rid) {
            for (&column, index) in &mut self.indexes {
                index.remove_one(key_of(&old, column), |r| *r == rid);
            }
        }
    }

    /// Builds the equality index on `column` from the current rows, in
    /// one pass. No-op when it already exists.
    pub(crate) fn build_index(&mut self, column: usize) {
        let rows = &self.rows;
        self.indexes.entry(column).or_insert_with(|| {
            let mut index = HashIndex::with_buckets(rows.len().max(16));
            for (&rid, tuple) in rows {
                index.insert(key_of(tuple, column).clone(), rid);
            }
            index
        });
    }

    /// The row ids whose `column` equals `key`, ascending — or `None`
    /// when `column` has no index yet.
    pub fn lookup(&self, column: usize, key: &Value) -> Option<Vec<u32>> {
        let index = self.indexes.get(&column)?;
        let mut rids: Vec<u32> = index.get_all(key).copied().collect();
        rids.sort_unstable();
        Some(rids)
    }
}

/// A row's key in the index on `column`. Rows are schema-checked, so
/// the column exists; a short row would index as `NULL`.
fn key_of(tuple: &Tuple, column: usize) -> &Value {
    tuple.values().get(column).unwrap_or(&Value::Null)
}

/// The outcome of a catalog read that answers `col = literal` through
/// equality indexes: its result, or the `(table, column)` indexes it
/// found missing. `Catalog::read_indexed` builds those and reads
/// again.
pub enum Probe<T> {
    /// Every index the read needed was there.
    Done(T),
    /// Build these indexes, then rerun the read.
    Unindexed(Vec<(String, usize)>),
}

/// The catalog proper: tables by (case-insensitive) name.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableEntry>,
    next_table_id: u32,
}

impl Catalog {
    /// Looks up a table as seen by `viewer`; a table another
    /// transaction created but has not committed yet reads as missing,
    /// and the error names the relation either way.
    pub fn table(&self, name: &str, viewer: Option<TxnId>) -> Result<&TableEntry> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .filter(|e| e.visible_to(viewer))
            .ok_or_else(|| Error::RelationNotFound(name.to_string()))
    }

    /// Mutable lookup with the same visibility rule as
    /// [`table`](Self::table).
    pub fn table_mut(&mut self, name: &str, viewer: Option<TxnId>) -> Result<&mut TableEntry> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .filter(|e| e.visible_to(viewer))
            .ok_or_else(|| Error::RelationNotFound(name.to_string()))
    }

    /// Mutable lookup ignoring visibility. Only for the undo path,
    /// whose records always describe state the undoing transaction
    /// itself produced.
    pub fn table_mut_any(&mut self, name: &str) -> Result<&mut TableEntry> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::RelationNotFound(name.to_string()))
    }

    /// Clears a pending marker: the creating transaction committed, so
    /// `name` is now visible to every session. No-op for unknown names.
    pub fn publish(&mut self, name: &str) {
        if let Some(entry) = self.tables.get_mut(&name.to_ascii_lowercase()) {
            entry.pending_owner = None;
        }
    }

    /// True when `name` exists — pending entries included, so a second
    /// `CREATE TABLE` of the same name conflicts instead of colliding
    /// on a table id (if the creator aborts, a retry succeeds).
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Allocates the next table id (bounded by the key layout).
    pub fn alloc_table_id(&mut self) -> Result<u32> {
        if self.next_table_id > crate::codec::MAX_TABLE_ID {
            return Err(Error::OutOfMemory {
                needed: self.next_table_id as usize + 1,
                available: crate::codec::MAX_TABLE_ID as usize + 1,
            });
        }
        let id = self.next_table_id;
        self.next_table_id += 1;
        Ok(id)
    }

    /// Installs a table entry under `name` (lowercased).
    pub fn install(&mut self, name: &str, entry: TableEntry) {
        self.next_table_id = self.next_table_id.max(entry.id.saturating_add(1));
        self.tables.insert(name.to_ascii_lowercase(), entry);
    }

    /// Removes a table (the `CREATE TABLE` undo path).
    pub fn remove(&mut self, name: &str) {
        self.tables.remove(&name.to_ascii_lowercase());
    }

    /// Iterates tables as `(name, entry)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TableEntry)> {
        self.tables.iter()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables exist.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Runs `read`; when it reports equality indexes missing, builds
    /// them (one pass over each table's rows) and runs it again. A
    /// table that vanished in between is skipped — the rerun reports
    /// it.
    pub(crate) fn read_indexed<T>(
        &mut self,
        read: impl Fn(&Catalog) -> Result<Probe<T>>,
    ) -> Result<T> {
        if let Probe::Unindexed(missing) = read(self)? {
            for (name, column) in missing {
                if let Ok(entry) = self.table_mut_any(&name) {
                    entry.build_index(column);
                }
            }
        }
        match read(self)? {
            Probe::Done(out) => Ok(out),
            Probe::Unindexed(missing) => Err(Error::Internal(format!(
                "equality indexes {missing:?} still missing after their build"
            ))),
        }
    }
}

impl Auditable for Catalog {
    /// Every equality index equals its rebuild from the table's rows:
    /// one entry per row, each naming a present row under that row's
    /// value, reachable by a probe for that value.
    fn audit(&self) -> std::result::Result<(), AuditViolation> {
        for (name, entry) in &self.tables {
            for (&column, index) in &entry.indexes {
                AuditViolation::ensure(
                    index.len() == entry.rows.len(),
                    "Catalog",
                    "index-size",
                    || {
                        format!(
                            "table {name} column {column}: index holds {} entries for {} rows",
                            index.len(),
                            entry.rows.len()
                        )
                    },
                )?;
                let mut seen = BTreeSet::new();
                for (key, &rid) in index.iter() {
                    AuditViolation::ensure(
                        seen.insert(rid),
                        "Catalog",
                        "index-unique-rid",
                        || format!("table {name} column {column}: rid {rid} indexed twice"),
                    )?;
                    let row = entry.rows.get(&rid).ok_or_else(|| {
                        AuditViolation::new(
                            "Catalog",
                            "index-rid-present",
                            format!("table {name} column {column}: rid {rid} is not a row"),
                        )
                    })?;
                    AuditViolation::ensure(
                        key_of(row, column) == key,
                        "Catalog",
                        "index-key",
                        || {
                            let held = key_of(row, column);
                            format!("table {name} column {column}: rid {rid} under {key}, row holds {held}")
                        },
                    )?;
                    AuditViolation::ensure(
                        index.get_all(key).any(|r| *r == rid),
                        "Catalog",
                        "index-probe",
                        || {
                            format!(
                                "table {name} column {column}: probe for {key} misses rid {rid}"
                            )
                        },
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// The catalog behind its lock, shared by every session of one
/// database.
#[derive(Debug, Clone, Default)]
pub struct SharedCatalog {
    inner: Arc<RwLock<Catalog>>,
}

impl SharedCatalog {
    /// Runs `f` with shared (read) access to the catalog. The guard
    /// lives only for the closure — the catalog lock is the outermost
    /// lock class, so no engine call may happen inside `f`.
    pub fn with_catalog_read<T>(&self, f: impl FnOnce(&Catalog) -> Result<T>) -> Result<T> {
        let guard = self
            .inner
            .read()
            .map_err(|_| Error::Poisoned("sql catalog".to_string()))?;
        f(&guard)
    }

    /// Runs `f` with exclusive (write) access to the catalog. Same
    /// scoping rule as [`with_catalog_read`](Self::with_catalog_read).
    pub fn with_catalog_write<T>(&self, f: impl FnOnce(&mut Catalog) -> Result<T>) -> Result<T> {
        let mut guard = self
            .inner
            .write()
            .map_err(|_| Error::Poisoned("sql catalog".to_string()))?;
        f(&mut guard)
    }

    /// Runs `read` under the read lock. Only when it reports an
    /// equality index missing does it take the write lock, build the
    /// index there (no engine call) and read again
    /// (`Catalog::read_indexed`).
    pub(crate) fn with_indexes<T>(&self, read: impl Fn(&Catalog) -> Result<Probe<T>>) -> Result<T> {
        match self.with_catalog_read(&read)? {
            Probe::Done(out) => Ok(out),
            Probe::Unindexed(_) => self.with_catalog_write(|cat| cat.read_indexed(&read)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::schema::DataType;

    fn entry(id: u32) -> TableEntry {
        TableEntry::new(
            id,
            Schema::of(&[("id", DataType::Int)]),
            BTreeMap::new(),
            0,
            None,
        )
    }

    #[test]
    fn names_are_case_insensitive() {
        let mut c = Catalog::default();
        c.install("Emp", entry(0));
        assert!(c.contains("EMP"));
        assert!(c.table("emp", None).is_ok());
        c.remove("eMp");
        assert!(c.table("emp", None).is_err());
    }

    #[test]
    fn pending_tables_are_private_until_published() {
        let mut c = Catalog::default();
        let mut e = entry(0);
        e.pending_owner = Some(TxnId(7));
        c.install("t", e);
        // Only the owning transaction sees it; the name still conflicts.
        assert!(c.table("t", None).is_err());
        assert!(c.table("t", Some(TxnId(8))).is_err());
        assert!(c.table("t", Some(TxnId(7))).is_ok());
        assert!(c.table_mut("t", None).is_err());
        assert!(c.table_mut("t", Some(TxnId(7))).is_ok());
        assert!(c.table_mut_any("t").is_ok());
        assert!(c.contains("t"));
        c.publish("t");
        assert!(c.table("t", None).is_ok());
        assert!(c.table("t", Some(TxnId(8))).is_ok());
    }

    #[test]
    fn table_ids_allocate_past_installed() {
        let mut c = Catalog::default();
        c.install("a", entry(5));
        assert_eq!(c.alloc_table_id().unwrap(), 6);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    fn row(id: i64) -> Tuple {
        Tuple::new(vec![Value::Int(id)])
    }

    #[test]
    fn indexes_follow_every_row_change() {
        let mut e = entry(0);
        e.put_row(0, row(5));
        e.put_row(1, row(7));
        assert_eq!(e.lookup(0, &Value::Int(5)), None, "no index until built");
        e.build_index(0);
        e.put_row(2, row(5));
        assert_eq!(e.lookup(0, &Value::Int(5)), Some(vec![0, 2]));
        // An update that moves the key moves the entry.
        e.put_row(0, row(7));
        assert_eq!(e.lookup(0, &Value::Int(5)), Some(vec![2]));
        assert_eq!(e.lookup(0, &Value::Int(7)), Some(vec![0, 1]));
        e.remove_row(1);
        e.remove_row(1);
        assert_eq!(e.lookup(0, &Value::Int(7)), Some(vec![0]));
        // Probes compare as the predicate does: 7.0 = 7.
        assert_eq!(e.lookup(0, &Value::Float(7.0)), Some(vec![0]));
        let mut c = Catalog::default();
        c.install("t", e);
        assert!(c.audit().is_ok());
    }

    #[test]
    fn audit_catches_an_index_that_drifts_from_the_rows() {
        let mut e = entry(0);
        e.put_row(0, row(1));
        e.put_row(1, row(2));
        e.build_index(0);
        let mut c = Catalog::default();
        c.install("t", e.clone());
        assert!(c.audit().is_ok());

        // A row changed behind the index's back.
        let mut stale = e.clone();
        stale.rows.insert(1, row(3));
        c.install("t", stale);
        let v = c.audit().unwrap_err();
        assert_eq!(v.invariant, "index-key", "{v}");

        // An entry for a rid that is not a row.
        let mut ghost = e.clone();
        ghost.rows.remove(&1);
        if let Some(index) = ghost.indexes.get_mut(&0) {
            index.remove_one(&Value::Int(1), |r| *r == 0);
        }
        c.install("t", ghost);
        let v = c.audit().unwrap_err();
        assert_eq!(v.invariant, "index-rid-present", "{v}");

        // A row the index does not know.
        let mut missing = e;
        missing.rows.insert(2, row(9));
        c.install("t", missing);
        let v = c.audit().unwrap_err();
        assert_eq!(v.invariant, "index-size", "{v}");
    }

    #[test]
    fn read_indexed_builds_what_the_read_reports_missing() {
        let mut c = Catalog::default();
        let mut e = entry(0);
        e.put_row(0, row(4));
        c.install("T", e);
        let read = |cat: &Catalog| -> Result<Probe<Vec<u32>>> {
            let t = cat.table("t", None)?;
            match t.lookup(0, &Value::Int(4)) {
                Some(rids) => Ok(Probe::Done(rids)),
                None => Ok(Probe::Unindexed(vec![("t".to_string(), 0)])),
            }
        };
        assert_eq!(c.read_indexed(read).unwrap(), vec![0]);
        assert!(c
            .table("t", None)
            .unwrap()
            .lookup(0, &Value::Null)
            .is_some());
        let shared = SharedCatalog::default();
        shared
            .with_catalog_write(|cat| {
                let mut e = entry(0);
                e.put_row(3, row(4));
                cat.install("t", e);
                Ok(())
            })
            .unwrap();
        assert_eq!(shared.with_indexes(read).unwrap(), vec![3]);
    }

    #[test]
    fn shared_catalog_closures() {
        let shared = SharedCatalog::default();
        shared
            .with_catalog_write(|c| {
                c.install("t", entry(0));
                Ok(())
            })
            .unwrap();
        let n = shared.with_catalog_read(|c| Ok(c.len())).unwrap();
        assert_eq!(n, 1);
    }
}
