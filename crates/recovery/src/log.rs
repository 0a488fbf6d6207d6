//! Log records.
//!
//! Records carry explicit byte sizes matching the paper's §5.1 accounting:
//! a "typical" transaction writes ~400 bytes — 40 for begin/end and 360
//! for old/new values. Update records store both old and new values so
//! the §5.4 compression (dropping old values of committed transactions)
//! is measurable byte-for-byte.

use bytes::{Buf, BufMut};
use mmdb_types::{Error, Result, TxnId};

/// A log sequence number: position of a record in the (merged) log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// A write-ahead-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start (20 bytes in the paper's accounting).
    Begin {
        /// Transaction.
        txn: TxnId,
    },
    /// An update: old value for undo, new value for redo.
    Update {
        /// Transaction.
        txn: TxnId,
        /// Updated key.
        key: u64,
        /// Pre-image (`None` for an insert).
        old: Option<i64>,
        /// Post-image.
        new: i64,
        /// Extra payload bytes charged to this record, so workloads can
        /// match the paper's 360-byte old/new-value volume exactly.
        padding: u32,
    },
    /// Commit record (20 bytes).
    Commit {
        /// Transaction.
        txn: TxnId,
    },
    /// Abort record.
    Abort {
        /// Transaction.
        txn: TxnId,
    },
    /// §5.3 online-checkpoint marker, written inside the synthetic
    /// snapshot transaction (id 0) of a checkpoint log generation. It
    /// frames what the snapshot covers: replay may start at `start`
    /// (every committed update below it is baked into the snapshot's
    /// update records), and `next_txn` is a floor for transaction-id
    /// allocation so ids used only before `start` are never reissued.
    Checkpoint {
        /// First LSN of the live-log suffix recovery must still replay.
        start: Lsn,
        /// Transaction-id allocator value captured when the sweep began.
        next_txn: u64,
    },
}

const TAG_BEGIN: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;

impl LogRecord {
    /// Bytes this record occupies in a log page, matching §5.1: begin and
    /// commit are 20 bytes each; an update is a 24-byte header plus 8
    /// bytes of old value, 8 of new, and its padding.
    pub fn byte_size(&self) -> usize {
        match self {
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => 20,
            LogRecord::Update { old, padding, .. } => {
                24 + 8 + if old.is_some() { 8 } else { 0 } + *padding as usize
            }
            // Tag byte rounded into the same 20-byte frame as begin/commit
            // plus the two u64 fields it actually carries.
            LogRecord::Checkpoint { .. } => 20 + 16,
        }
    }

    /// Byte size after §5.4 compression: old values stripped (the 8-byte
    /// pre-image plus half of the padding, which models old-value bytes).
    pub fn compressed_size(&self) -> usize {
        match self {
            LogRecord::Update { padding, .. } => 24 + 8 + (*padding as usize) / 2,
            other => other.byte_size(),
        }
    }

    /// Serializes the record.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Begin { txn } => {
                out.put_u8(TAG_BEGIN);
                out.put_u64_le(txn.0);
            }
            LogRecord::Update {
                txn,
                key,
                old,
                new,
                padding,
            } => {
                out.put_u8(TAG_UPDATE);
                out.put_u64_le(txn.0);
                out.put_u64_le(*key);
                match old {
                    Some(v) => {
                        out.put_u8(1);
                        out.put_i64_le(*v);
                    }
                    None => out.put_u8(0),
                }
                out.put_i64_le(*new);
                out.put_u32_le(*padding);
            }
            LogRecord::Commit { txn } => {
                out.put_u8(TAG_COMMIT);
                out.put_u64_le(txn.0);
            }
            LogRecord::Abort { txn } => {
                out.put_u8(TAG_ABORT);
                out.put_u64_le(txn.0);
            }
            LogRecord::Checkpoint { start, next_txn } => {
                out.put_u8(TAG_CHECKPOINT);
                out.put_u64_le(start.0);
                out.put_u64_le(*next_txn);
            }
        }
    }

    /// Deserializes one record from the front of `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<LogRecord> {
        if buf.remaining() < 9 {
            return Err(Error::CorruptLog("truncated record header".into()));
        }
        let tag = buf.get_u8();
        if tag == TAG_CHECKPOINT {
            if buf.remaining() < 16 {
                return Err(Error::CorruptLog("truncated checkpoint marker".into()));
            }
            let start = Lsn(buf.get_u64_le());
            let next_txn = buf.get_u64_le();
            return Ok(LogRecord::Checkpoint { start, next_txn });
        }
        let txn = TxnId(buf.get_u64_le());
        match tag {
            TAG_BEGIN => Ok(LogRecord::Begin { txn }),
            TAG_COMMIT => Ok(LogRecord::Commit { txn }),
            TAG_ABORT => Ok(LogRecord::Abort { txn }),
            TAG_UPDATE => {
                if buf.remaining() < 8 + 1 {
                    return Err(Error::CorruptLog("truncated update".into()));
                }
                let key = buf.get_u64_le();
                let has_old = buf.get_u8() == 1;
                let old = if has_old {
                    if buf.remaining() < 8 {
                        return Err(Error::CorruptLog("truncated old value".into()));
                    }
                    Some(buf.get_i64_le())
                } else {
                    None
                };
                if buf.remaining() < 12 {
                    return Err(Error::CorruptLog("truncated new value".into()));
                }
                let new = buf.get_i64_le();
                let padding = buf.get_u32_le();
                Ok(LogRecord::Update {
                    txn,
                    key,
                    old,
                    new,
                    padding,
                })
            }
            other => Err(Error::CorruptLog(format!("unknown record tag {other}"))),
        }
    }
}

/// Builds the paper's "typical" banking transaction log: begin + one
/// update padded so the whole transaction occupies exactly 400 bytes +
/// commit.
pub fn typical_transaction(txn: TxnId, key: u64, old: i64, new: i64) -> Vec<LogRecord> {
    let update = LogRecord::Update {
        txn,
        key,
        old: Some(old),
        new,
        // begin(20) + commit(20) + header(24) + old(8) + new(8) + padding
        // = 400  =>  padding = 320.
        padding: 320,
    };
    vec![LogRecord::Begin { txn }, update, LogRecord::Commit { txn }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_transaction_is_400_bytes() {
        let recs = typical_transaction(TxnId(1), 7, 100, 200);
        let total: usize = recs.iter().map(|r| r.byte_size()).sum();
        assert_eq!(total, 400, "§5.1's typical transaction");
    }

    #[test]
    fn compression_roughly_halves_update_volume() {
        let recs = typical_transaction(TxnId(1), 7, 100, 200);
        let full: usize = recs.iter().map(|r| r.byte_size()).sum();
        let compressed: usize = recs.iter().map(|r| r.compressed_size()).sum();
        let ratio = compressed as f64 / full as f64;
        assert!(
            (0.5..0.65).contains(&ratio),
            "§5.4: about half the log stores old values; ratio {ratio}"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let records = vec![
            LogRecord::Begin { txn: TxnId(9) },
            LogRecord::Update {
                txn: TxnId(9),
                key: 123,
                old: Some(-5),
                new: 6,
                padding: 17,
            },
            LogRecord::Update {
                txn: TxnId(9),
                key: 4,
                old: None,
                new: 0,
                padding: 0,
            },
            LogRecord::Commit { txn: TxnId(9) },
            LogRecord::Abort { txn: TxnId(10) },
            LogRecord::Checkpoint {
                start: Lsn(77),
                next_txn: 42,
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut view = buf.as_slice();
        for r in &records {
            assert_eq!(&LogRecord::decode(&mut view).unwrap(), r);
        }
        assert!(view.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut empty: &[u8] = &[];
        assert!(LogRecord::decode(&mut empty).is_err());
        let bad = [99u8, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut view = &bad[..];
        assert!(LogRecord::decode(&mut view).is_err());
    }
}
