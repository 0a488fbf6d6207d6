#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! A minimal SQL front end over the §5.2 session engine.
//!
//! The crate turns the key/value store of `mmdb-session` into a small
//! relational server substrate:
//!
//! * [`lexer`] + [`parser`] — a hand-rolled tokenizer and
//!   recursive-descent parser (no dependencies) for `CREATE TABLE`,
//!   `INSERT`, `SELECT` (with `WHERE` conjunctions and equi-joins),
//!   `UPDATE`, `DELETE`, and `BEGIN`/`COMMIT`/`ABORT`.
//! * [`codec`] — encodes table schemas and rows into the engine's
//!   `u64 → i64` store so the catalog and all rows ride the same WAL,
//!   group commit, and crash/recover machinery as raw key/value
//!   transactions.
//! * [`catalog`] — the volatile in-memory mirror of that durable
//!   image: schemas plus decoded rows, rebuilt from a store snapshot
//!   after recovery, with lazily built per-column equality indexes
//!   (the §2 hash index) that `col = literal` statements probe.
//! * [`query`] — the binder/planner bridge: resolves names, splits
//!   `WHERE` conjunctions into per-table predicates and join edges,
//!   feeds them to the §4 selectivity planner, and executes the chosen
//!   physical plan with the §3 `mmdb-exec` operators.
//! * [`session`] — [`SqlDb`]/[`SqlSession`]: per-connection statement
//!   execution with explicit transactions, engine row locks for
//!   write/write conflicts, and a volatile undo log so `ABORT` (or a
//!   deadlock victim) rolls the catalog mirror back in lockstep with
//!   the engine's own undo.
//!
//! Error surface: parse errors are [`ParseError`] (with a byte
//! offset); everything downstream is [`SqlError`].

pub mod ast;
pub mod catalog;
pub mod codec;
pub mod lexer;
pub mod parser;
pub mod query;
pub mod session;

pub use ast::{Statement, StatementKind};
pub use parser::{parse, ParseError};
pub use query::QueryResult;
pub use session::{ErrorClass, SqlDb, SqlError, SqlSession};
