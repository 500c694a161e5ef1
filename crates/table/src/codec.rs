//! Compact binary column codec — the `put` transport of `fairsel serve`.
//!
//! CSV text is a fine interchange format but a poor wire format: every
//! request re-ships and re-parses the full dataset, floats lose their
//! exact bits, and a megabyte of digits decodes slower than it transfers.
//! This codec serializes a [`Table`] as length-prefixed typed columns so
//! a client can upload a dataset **once** and address it by fingerprint
//! afterwards.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic    4  b"FSB1"
//! version  1  0x01
//! n_rows   8  u64
//! n_cols   4  u32
//! column * n_cols:
//!   len    4  u32   byte length of the column block that follows
//!   block:
//!     name_len 4  u32, then name_len bytes of UTF-8
//!     role     1  u8   0=sensitive 1=admissible 2=feature 3=target 4=key
//!     kind     1  u8   0=categorical 1=numeric
//!     cat:  arity u32, then n_rows codes of `Codes::width_for(arity)`
//!           bytes each (1 when arity ≤ 2⁸, 2 when ≤ 2¹⁶, else 4 — the
//!           width is a function of the arity, so it costs no header field)
//!     num:  n_rows * f64 (IEEE-754 bits — exact round trip)
//! ```
//!
//! The per-column length prefix lets a reader skip columns without
//! understanding their kind — room for future column types without a
//! version bump. Decoding validates everything (magic, version, UTF-8,
//! role/kind bytes, code range, duplicate names) and returns a
//! [`CodecError`] with a byte offset instead of panicking: the bytes come
//! off the network.

use crate::table::{Column, ColumnData, Role, Table};
use crate::Codes;
use std::fmt;

/// Magic bytes opening every encoded table.
pub const CODEC_MAGIC: [u8; 4] = *b"FSB1";

/// Magic bytes opening an append row-batch frame. The payload layout is
/// identical to a full table frame — a batch *is* a table whose schema
/// must match the parent's — but the distinct magic keeps a `put` payload
/// from ever being replayed as an `append` (or vice versa).
pub const APPEND_MAGIC: [u8; 4] = *b"FSA1";

/// Codec version this module reads and writes.
pub const CODEC_VERSION: u8 = 1;

/// Decode failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    pub offset: usize,
    pub msg: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table codec error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for CodecError {}

fn role_byte(role: Role) -> u8 {
    match role {
        Role::Sensitive => 0,
        Role::Admissible => 1,
        Role::Feature => 2,
        Role::Target => 3,
        Role::Key => 4,
    }
}

fn byte_role(b: u8) -> Option<Role> {
    match b {
        0 => Some(Role::Sensitive),
        1 => Some(Role::Admissible),
        2 => Some(Role::Feature),
        3 => Some(Role::Target),
        4 => Some(Role::Key),
        _ => None,
    }
}

/// Serialize a table to the binary column format.
pub fn encode_table(table: &Table) -> Vec<u8> {
    encode_frame(table, &CODEC_MAGIC)
}

/// Serialize a row batch (a table whose schema matches the parent it will
/// extend) as an `FSA1` append frame.
pub fn encode_row_batch(batch: &Table) -> Vec<u8> {
    encode_frame(batch, &APPEND_MAGIC)
}

fn encode_frame(table: &Table, magic: &[u8; 4]) -> Vec<u8> {
    let n_rows = table.n_rows();
    // Worst-case estimate: 8 bytes per numeric cell dominates.
    let mut out = Vec::with_capacity(32 + table.n_cols() * (32 + n_rows * 8));
    out.extend_from_slice(magic);
    out.push(CODEC_VERSION);
    out.extend_from_slice(&(n_rows as u64).to_le_bytes());
    out.extend_from_slice(&(table.n_cols() as u32).to_le_bytes());
    for col in table.columns() {
        let mut block = Vec::with_capacity(16 + col.name.len() + n_rows * 8);
        block.extend_from_slice(&(col.name.len() as u32).to_le_bytes());
        block.extend_from_slice(col.name.as_bytes());
        block.push(role_byte(col.role));
        match &col.data {
            ColumnData::Cat { codes, arity } => {
                block.push(0);
                block.extend_from_slice(&arity.to_le_bytes());
                let width = Codes::width_for(*arity);
                for &c in codes {
                    block.extend_from_slice(&c.to_le_bytes()[..width]);
                }
            }
            ColumnData::Num(values) => {
                block.push(1);
                for &v in values {
                    block.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&block);
    }
    out
}

/// Cursor over the encoded bytes with offset-carrying errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, msg: impl Into<String>) -> CodecError {
        CodecError {
            offset: self.pos,
            msg: msg.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.err(format!("truncated {what}")))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Decode a table from the binary column format, validating every field.
pub fn decode_table(bytes: &[u8]) -> Result<Table, CodecError> {
    decode_frame(bytes, &CODEC_MAGIC, "an encoded table")
}

/// Decode an `FSA1` append row batch, validating every field exactly like
/// [`decode_table`] — truncation, forged counts, out-of-range codes and
/// bad role/kind bytes all error cleanly with a byte offset.
pub fn decode_row_batch(bytes: &[u8]) -> Result<Table, CodecError> {
    decode_frame(bytes, &APPEND_MAGIC, "an append row batch")
}

fn decode_frame(bytes: &[u8], magic: &[u8; 4], what: &str) -> Result<Table, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4, "magic")? != magic {
        return Err(CodecError {
            offset: 0,
            msg: format!("bad magic (not {what})"),
        });
    }
    let version = r.u8("version")?;
    if version != CODEC_VERSION {
        return Err(r.err(format!("unsupported codec version {version}")));
    }
    let n_rows = r.u64("row count")?;
    let n_rows = usize::try_from(n_rows).map_err(|_| r.err("row count overflows usize"))?;
    // Every row costs at least one code byte in any categorical column
    // (and 8 in a numeric one), so counts beyond the payload length are
    // corrupt and rejected before any per-row allocation.
    if n_rows > bytes.len() {
        return Err(r.err(format!("row count {n_rows} exceeds payload size")));
    }
    let n_cols = r.u32("column count")? as usize;
    if n_cols > bytes.len() {
        return Err(r.err(format!("column count {n_cols} exceeds payload size")));
    }
    // The counts come off the network: never pre-reserve from them (a
    // forged frame could claim millions of columns and reserve gigabytes
    // before the first block fails validation); amortized push growth on
    // a vector of at most a few dozen real columns costs nothing.
    let mut columns = Vec::new();
    for i in 0..n_cols {
        let block_len = r.u32("column length")? as usize;
        let block_end = r
            .pos
            .checked_add(block_len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| r.err(format!("truncated column {i}")))?;
        let name_len = r.u32("name length")? as usize;
        let name = std::str::from_utf8(r.take(name_len, "column name")?)
            .map_err(|_| r.err(format!("column {i} name is not UTF-8")))?
            .to_owned();
        let role = {
            let b = r.u8("role")?;
            byte_role(b).ok_or_else(|| r.err(format!("column {name:?}: bad role byte {b}")))?
        };
        let data = match r.u8("kind")? {
            0 => {
                let arity = r.u32("arity")?;
                if arity == 0 {
                    return Err(r.err(format!("column {name:?}: zero arity")));
                }
                let raw = r.take(n_rows * Codes::width_for(arity), "categorical codes")?;
                // One branch-free loop per width; the range check runs after.
                let codes: Vec<u32> = match Codes::width_for(arity) {
                    1 => raw.iter().map(|&b| u32::from(b)).collect(),
                    2 => raw
                        .chunks_exact(2)
                        .map(|c| u32::from(u16::from_le_bytes([c[0], c[1]])))
                        .collect(),
                    _ => raw
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                };
                if let Some(row) = codes.iter().position(|&c| c >= arity) {
                    return Err(r.err(format!(
                        "column {name:?} row {row}: code {} >= arity {arity}",
                        codes[row]
                    )));
                }
                ColumnData::Cat { codes, arity }
            }
            1 => {
                let raw = r.take(n_rows * 8, "numeric values")?;
                ColumnData::Num(
                    raw.chunks_exact(8)
                        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))))
                        .collect(),
                )
            }
            other => return Err(r.err(format!("column {name:?}: bad kind byte {other}"))),
        };
        if r.pos != block_end {
            return Err(r.err(format!(
                "column {name:?}: length prefix disagrees with content ({} != {})",
                r.pos, block_end
            )));
        }
        columns.push(Column { name, role, data });
    }
    if r.pos != bytes.len() {
        return Err(r.err("trailing bytes after last column"));
    }
    Table::new(columns).map_err(|e| CodecError {
        offset: bytes.len(),
        msg: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(vec![
            Column::cat("gender", Role::Sensitive, vec![0, 1, 0, 1], 2),
            Column::cat("plan", Role::Admissible, vec![0, 0, 1, 2], 3),
            Column::num(
                "income",
                Role::Feature,
                vec![30.25, -0.0, f64::MAX, 1.0e-300],
            ),
            Column::cat("approved", Role::Target, vec![1, 0, 1, 0], 2),
            Column::cat("id", Role::Key, vec![0, 1, 2, 3], 4),
        ])
        .unwrap()
    }

    #[test]
    fn round_trips_exactly() {
        let t = sample();
        let bytes = encode_table(&t);
        let back = decode_table(&bytes).unwrap();
        assert_eq!(back.n_rows(), t.n_rows());
        assert_eq!(back.columns(), t.columns());
    }

    #[test]
    fn round_trips_float_bits_exactly() {
        // Values CSV text would mangle: negative zero, subnormals, full
        // 17-significant-digit mantissas.
        let t = Table::new(vec![Column::num(
            "v",
            Role::Feature,
            vec![-0.0, f64::MIN_POSITIVE / 2.0, 0.1 + 0.2, f64::NEG_INFINITY],
        )])
        .unwrap();
        let back = decode_table(&encode_table(&t)).unwrap();
        let orig = match &t.columns()[0].data {
            ColumnData::Num(v) => v,
            _ => unreachable!(),
        };
        let got = match &back.columns()[0].data {
            ColumnData::Num(v) => v,
            _ => unreachable!(),
        };
        for (a, b) in orig.iter().zip(got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new(vec![]).unwrap();
        let back = decode_table(&encode_table(&t)).unwrap();
        assert_eq!(back.n_cols(), 0);
        assert_eq!(back.n_rows(), 0);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode_table(&sample());
        bytes[0] = b'X';
        assert!(decode_table(&bytes).unwrap_err().msg.contains("magic"));
        let mut bytes = encode_table(&sample());
        bytes[4] = 9;
        assert!(decode_table(&bytes).unwrap_err().msg.contains("version"));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = encode_table(&sample());
        // Every strict prefix must fail loudly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                decode_table(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn forged_huge_counts_fail_cleanly_without_reserving() {
        // A tiny frame claiming u32::MAX columns (or a huge row count)
        // must error on validation, not reserve gigabytes first.
        let mut bytes = encode_table(&sample());
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_table(&bytes).unwrap_err().msg.contains("column"));
        let mut bytes = encode_table(&sample());
        bytes[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_table(&bytes).unwrap_err().msg.contains("row count"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode_table(&sample());
        bytes.push(0);
        assert!(decode_table(&bytes).unwrap_err().msg.contains("trailing"));
    }

    #[test]
    fn rejects_out_of_range_codes() {
        // At each code width, forge rows 2 and 3 of five past the arity.
        // The error names the first of them, and its offset is the end of
        // the column's codes, which close this one-column frame.
        for (arity, width) in [(2u32, 1usize), (300, 2), (70_000, 4)] {
            let codes = vec![0, 1, 1, 0, arity - 1];
            let t = Table::new(vec![Column::cat("c", Role::Feature, codes, arity)]).unwrap();
            let mut bytes = encode_table(&t);
            for (row, code) in [(2usize, arity + 5), (3, arity)] {
                let at = bytes.len() - (5 - row) * width;
                bytes[at..at + width].copy_from_slice(&code.to_le_bytes()[..width]);
            }
            let err = decode_table(&bytes).unwrap_err();
            let expected = format!("column \"c\" row 2: code {} >= arity {arity}", arity + 5);
            assert_eq!(err.msg, expected, "width {width}");
            assert_eq!(err.offset, bytes.len(), "width {width}");
        }
    }

    #[test]
    fn wide_arities_round_trip_through_wider_code_widths() {
        // Arities straddling the 1-/2-/4-byte width boundaries, with
        // codes at the extremes of each range.
        for arity in [2u32, 256, 257, 65536, 65537, u32::MAX] {
            let codes = vec![0, 1, arity - 1, arity / 2];
            let t = Table::new(vec![Column::cat("c", Role::Feature, codes, arity)]).unwrap();
            let back = decode_table(&encode_table(&t)).unwrap();
            assert_eq!(back.columns(), t.columns(), "arity {arity}");
        }
    }

    #[test]
    fn binary_is_smaller_than_csv_for_categorical_data() {
        // The serving workloads are overwhelmingly low-arity categorical;
        // one byte per code must beat the CSV digits-plus-commas text.
        let t = Table::new(
            (0..8)
                .map(|c| {
                    Column::cat(
                        format!("c{c}"),
                        Role::Feature,
                        (0..2000).map(|i| ((i + c) % 4) as u32).collect(),
                        4,
                    )
                })
                .collect(),
        )
        .unwrap();
        let bin = encode_table(&t).len();
        let csv = crate::csv::to_csv_string(&t).len();
        assert!(bin < csv, "binary {bin} !< csv {csv}");
    }

    #[test]
    fn rejects_bad_role_and_kind_bytes() {
        let t = Table::new(vec![Column::cat("c", Role::Feature, vec![0], 1)]).unwrap();
        let bytes = encode_table(&t);
        // Block starts after magic(4)+version(1)+rows(8)+cols(4)+len(4);
        // name_len(4)+name(1) precede the role byte.
        let role_at = 4 + 1 + 8 + 4 + 4 + 4 + 1;
        let mut forged = bytes.clone();
        forged[role_at] = 9;
        assert!(decode_table(&forged).unwrap_err().msg.contains("role"));
        let mut forged = bytes;
        forged[role_at + 1] = 7;
        assert!(decode_table(&forged).unwrap_err().msg.contains("kind"));
    }

    #[test]
    fn rejects_duplicate_names() {
        let a = Table::new(vec![Column::cat("c", Role::Feature, vec![0], 1)]).unwrap();
        let one = encode_table(&a);
        // Splice the single column block in twice and bump the count.
        let header = 4 + 1 + 8;
        let mut forged = one[..header].to_vec();
        forged.extend_from_slice(&2u32.to_le_bytes());
        forged.extend_from_slice(&one[header + 4..]);
        forged.extend_from_slice(&one[header + 4..]);
        let err = decode_table(&forged).unwrap_err();
        assert!(err.msg.contains("duplicate"), "{err}");
    }

    #[test]
    fn append_frame_round_trips_and_magics_do_not_cross() {
        let t = sample();
        let bytes = encode_row_batch(&t);
        assert_eq!(&bytes[..4], b"FSA1");
        let back = decode_row_batch(&bytes).unwrap();
        assert_eq!(back.columns(), t.columns());
        // A put payload is not an append payload and vice versa.
        assert!(decode_row_batch(&encode_table(&t))
            .unwrap_err()
            .msg
            .contains("magic"));
        assert!(decode_table(&bytes).unwrap_err().msg.contains("magic"));
    }

    /// A zero-row batch is a legal frame: the schema still round-trips
    /// (names, roles, arities) with no row payload, so a streaming client
    /// can send an empty append (e.g. a heartbeat flush) and the server
    /// treats it as a schema-checked no-op rather than an error.
    #[test]
    fn append_frame_round_trips_zero_rows() {
        let t = sample();
        let empty = t.take_rows(&[]);
        assert_eq!(empty.n_rows(), 0);
        let bytes = encode_row_batch(&empty);
        let back = decode_row_batch(&bytes).unwrap();
        assert_eq!(back.n_rows(), 0);
        assert_eq!(back.columns(), empty.columns());
        // The parent accepts it: concat is the identity on rows.
        let grown = t.concat(&back).unwrap();
        assert_eq!(grown.n_rows(), t.n_rows());
        assert_eq!(grown.columns(), t.columns());
    }

    /// A single-row batch is the smallest real append and must round-trip
    /// exactly — categorical codes and f64 bit patterns alike.
    #[test]
    fn append_frame_round_trips_single_row() {
        let t = sample();
        let one = t.take_rows(&[1]);
        assert_eq!(one.n_rows(), 1);
        let back = decode_row_batch(&encode_row_batch(&one)).unwrap();
        assert_eq!(back.columns(), one.columns());
    }

    #[test]
    fn append_frame_rejects_truncation_anywhere() {
        let bytes = encode_row_batch(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_row_batch(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn append_frame_rejects_lying_row_count() {
        // A row count larger than the payload can hold must fail on the
        // size check (huge counts) or on the per-column reads (small lies),
        // never panic or over-allocate.
        let bytes = encode_row_batch(&sample());
        let mut huge = bytes.clone();
        huge[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_row_batch(&huge)
            .unwrap_err()
            .msg
            .contains("row count"));
        let mut off_by_some = bytes;
        off_by_some[5..13].copy_from_slice(&16u64.to_le_bytes());
        assert!(decode_row_batch(&off_by_some).is_err());
    }

    #[test]
    fn append_frame_rejects_out_of_range_codes() {
        let t = Table::new(vec![Column::cat("c", Role::Feature, vec![0, 1], 2)]).unwrap();
        let mut bytes = encode_row_batch(&t);
        let n = bytes.len();
        bytes[n - 1] = 9;
        let err = decode_row_batch(&bytes).unwrap_err();
        assert!(err.msg.contains("arity"), "{err}");
    }

    #[test]
    fn binary_is_smaller_than_csv_for_numeric_data() {
        let values: Vec<f64> = (0..2000).map(|i| (i as f64) * 0.123456789).collect();
        let t = Table::new(vec![Column::num("v", Role::Feature, values)]).unwrap();
        let bin = encode_table(&t).len();
        let csv = crate::csv::to_csv_string(&t).len();
        assert!(bin < csv, "binary {bin} !< csv {csv}");
    }
}
