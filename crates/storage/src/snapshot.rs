//! Sectioned, checksummed on-disk snapshots of prepared artifacts.
//!
//! A replica that cold-starts from a snapshot skips the prepare-path
//! work the artifacts embody: column transposition and dictionary
//! interning, `HashIndex` builds, histogram scans. The format is built
//! for that read path:
//!
//! * **Sectioned** — a flat list of `(kind, payload)` sections behind
//!   one magic/version header. Readers skip or reject unknown kinds
//!   without parsing them; writers append new kinds without breaking
//!   old payloads.
//! * **Checksummed** — every section carries a CRC-32 of its payload,
//!   verified before any decoding. Corruption surfaces as a named
//!   [`SnapshotError`], never as a panic or a garbage artifact.
//! * **Little-endian, aligned slabs** — fixed-width payloads (`i64` /
//!   `f64` values, `u32` codes and CSR arrays, validity words) are
//!   written as raw slabs at 8-byte-aligned offsets, so a later PR can
//!   mmap a snapshot and point columns straight into the mapping
//!   instead of copying.
//!
//! The composition root is [`Snapshot`]: a bag of relations, hash
//! indexes, and frequency histograms with `write`/`read` round-trips.
//! The engine-level snapshot (catalog + prepared-query cache) in
//! `suj-core` reuses the same primitives via [`ByteWriter`] /
//! [`ByteReader`] / [`write_sections`] / [`read_sections`].

use crate::column::{Column, StrPool, Validity};
use crate::histogram::FrequencyHistogram;
use crate::index::HashIndex;
use crate::predicate::{CompareOp, Predicate};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::sorted::SortedIndex;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Snapshot file magic: identifies the container, not any section.
pub const MAGIC: [u8; 8] = *b"SUJSNAP\0";

/// Container format version. Readers reject anything newer.
pub const VERSION: u32 = 1;

/// Section kind: one serialized [`Relation`].
pub const SECTION_RELATION: u32 = 1;
/// Section kind: one serialized [`HashIndex`] (prefixed by the name of
/// the relation it indexes).
pub const SECTION_INDEX: u32 = 2;
/// Section kind: one serialized [`FrequencyHistogram`] (prefixed by
/// relation and attribute names).
pub const SECTION_HISTOGRAM: u32 = 3;
/// Section kind: one serialized [`SortedIndex`] (prefixed by the name
/// of the relation it sorts).
pub const SECTION_SORTED_INDEX: u32 = 4;

/// Hard cap on any single length prefix (rows, strings, sections).
/// Corrupt files can claim absurd lengths; decoding validates every
/// claimed length against the bytes actually present, and this cap
/// additionally bounds any up-front allocation.
const MAX_LEN: u64 = 1 << 40;

/// Errors raised while writing or reading snapshots. Corrupt input
/// always lands in one of the named variants — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The container version is newer than this reader supports.
    UnsupportedVersion(u32),
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Kind of the damaged section.
        kind: u32,
    },
    /// The input ended before a declared length was satisfied.
    Truncated,
    /// Structurally invalid content (bad tags, inconsistent lengths,
    /// out-of-range references) with context.
    Corrupt(String),
    /// An underlying I/O failure (message of the `std::io::Error`).
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (reader supports {VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { kind } => {
                write!(f, "checksum mismatch in section kind {kind}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Io(msg) => write!(f, "snapshot i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// Slice-by-8 tables for the reflected IEEE polynomial: `table[0]` is
/// the classic bytewise table, and `table[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight input bytes fold in with eight
/// independent lookups.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes` — the per-section
/// checksum and the wire frames' payload checksum. Slice-by-8: eight
/// bytes per step through eight lookup tables, then the tail bytewise;
/// the output is the standard CRC-32. Implemented locally; no external
/// crates.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Little-endian byte sink with 8-byte alignment control. All snapshot
/// encoders write through this, so alignment invariants live in one
/// place.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Pads with zero bytes to the next 8-byte boundary — slabs written
    /// after this sit at aligned offsets (relative to the payload
    /// start, which the section container also keeps 8-aligned).
    pub fn align8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Appends a `u32` slab (aligned, raw little-endian values).
    pub fn put_u32_slab(&mut self, values: &[u32]) {
        self.align8();
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_u32(v);
        }
    }

    /// Appends a `u64` slab (aligned, raw little-endian values).
    pub fn put_u64_slab(&mut self, values: &[u64]) {
        self.align8();
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_u64(v);
        }
    }

    /// Appends an `i64` slab (aligned, raw little-endian values).
    pub fn put_i64_slab(&mut self, values: &[i64]) {
        self.align8();
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_i64(v);
        }
    }

    /// Appends an `f64` slab (aligned, raw bit patterns).
    pub fn put_f64_slab(&mut self, values: &[f64]) {
        self.align8();
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_f64(v);
        }
    }
}

/// Bounds-checked little-endian reader over a snapshot payload. Every
/// read returns [`SnapshotError::Truncated`] instead of running off the
/// end; length prefixes are validated against the bytes remaining
/// before any allocation sized by them.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length prefix, validating it against `bytes_per_item`
    /// still available.
    fn get_len(&mut self, bytes_per_item: usize) -> Result<usize, SnapshotError> {
        let n = self.get_u64()?;
        if n > MAX_LEN || (n as usize).saturating_mul(bytes_per_item) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.get_len(1)?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| SnapshotError::Corrupt("invalid utf-8 in string".into()))
    }

    /// Skips padding to the next 8-byte boundary (mirrors
    /// [`ByteWriter::align8`]).
    pub fn align8(&mut self) -> Result<(), SnapshotError> {
        while !self.pos.is_multiple_of(8) {
            self.take(1)?;
        }
        Ok(())
    }

    /// Reads a `u32` slab written by [`ByteWriter::put_u32_slab`].
    pub fn get_u32_slab(&mut self) -> Result<Vec<u32>, SnapshotError> {
        self.align8()?;
        let n = self.get_len(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a `u64` slab written by [`ByteWriter::put_u64_slab`].
    pub fn get_u64_slab(&mut self) -> Result<Vec<u64>, SnapshotError> {
        self.align8()?;
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads an `i64` slab written by [`ByteWriter::put_i64_slab`].
    pub fn get_i64_slab(&mut self) -> Result<Vec<i64>, SnapshotError> {
        self.align8()?;
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads an `f64` slab written by [`ByteWriter::put_f64_slab`].
    pub fn get_f64_slab(&mut self) -> Result<Vec<f64>, SnapshotError> {
        self.align8()?;
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

/// Assembles a snapshot container from `(kind, payload)` sections:
/// magic, version, section count, then per section a 16-byte header
/// (`kind: u32`, `len: u64`, `crc: u32`) followed by the payload padded
/// to 8 bytes. Headers are 16 bytes and the preamble is 16 bytes, so
/// every payload starts 8-aligned in the file.
pub fn write_sections(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (kind, payload) in sections {
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        while out.len() % 8 != 0 {
            out.push(0);
        }
    }
    out
}

/// Parses a snapshot container, validating magic, version, bounds, and
/// every section checksum. Returns `(kind, payload)` views in file
/// order.
pub fn read_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8).map_err(|_| SnapshotError::BadMagic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let n_sections = r.get_u32()?;
    let mut sections = Vec::new();
    for _ in 0..n_sections {
        let kind = r.get_u32()?;
        let len = r.get_u64()?;
        let crc = r.get_u32()?;
        if len > MAX_LEN || len as usize > r.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let payload = r.take(len as usize)?;
        if crc32(payload) != crc {
            return Err(SnapshotError::ChecksumMismatch { kind });
        }
        r.align8()?;
        sections.push((kind, payload));
    }
    if r.remaining() != 0 {
        // A corrupted section count can otherwise decode "successfully"
        // with sections silently dropped; the writer never leaves
        // trailing bytes, so any remainder is corruption.
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last section",
            r.remaining()
        )));
    }
    Ok(sections)
}

/// Serializes one [`Value`] (tag byte + payload).
pub fn encode_value(v: &Value, w: &mut ByteWriter) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Int(i) => {
            w.put_u8(1);
            w.put_i64(*i);
        }
        Value::Float(x) => {
            w.put_u8(2);
            w.put_f64(*x);
        }
        Value::Str(s) => {
            w.put_u8(3);
            w.put_str(s);
        }
    }
}

/// Deserializes one [`Value`].
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.get_i64()?)),
        2 => Ok(Value::Float(r.get_f64()?)),
        3 => Ok(Value::str(r.get_str()?)),
        tag => Err(SnapshotError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

/// Serializes a validity bitmap: a has-nulls flag, then (only when any
/// row is NULL) the packed `u64` words as an aligned slab.
fn encode_validity(validity: &Validity, w: &mut ByteWriter) {
    if !validity.has_nulls() {
        w.put_u8(0);
        return;
    }
    w.put_u8(1);
    let len = validity.len();
    let mut words = vec![0u64; len.div_ceil(64)];
    for i in 0..len {
        if validity.is_valid(i) {
            words[i >> 6] |= 1u64 << (i & 63);
        }
    }
    w.put_u64_slab(&words);
}

/// Deserializes a validity bitmap for `len` rows.
fn decode_validity(r: &mut ByteReader<'_>, len: usize) -> Result<Validity, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(Validity::all_valid(len)),
        1 => {
            let words = r.get_u64_slab()?;
            if words.len() != len.div_ceil(64) {
                return Err(SnapshotError::Corrupt(format!(
                    "validity bitmap has {} words for {len} rows",
                    words.len()
                )));
            }
            let mut validity = Validity::all_valid(0);
            for i in 0..len {
                validity.push(words[i >> 6] & (1u64 << (i & 63)) != 0);
            }
            Ok(validity)
        }
        tag => Err(SnapshotError::Corrupt(format!(
            "unknown validity tag {tag}"
        ))),
    }
}

/// Serializes one [`Column`]. Fixed-width payloads (`i64`/`f64` values,
/// `u32` dictionary codes, validity words) land as aligned raw slabs.
pub fn encode_column(col: &Column, w: &mut ByteWriter) {
    match col {
        Column::Int64 { values, validity } => {
            w.put_u8(0);
            encode_validity(validity, w);
            w.put_i64_slab(values);
        }
        Column::Float64 { values, validity } => {
            w.put_u8(1);
            encode_validity(validity, w);
            w.put_f64_slab(values);
        }
        Column::Str {
            codes,
            pool,
            validity,
        } => {
            w.put_u8(2);
            encode_validity(validity, w);
            w.put_u64(pool.len() as u64);
            for s in pool.strings() {
                w.put_str(s);
            }
            w.put_u32_slab(codes);
        }
        Column::Mixed { values } => {
            w.put_u8(3);
            w.put_u64(values.len() as u64);
            for v in values {
                encode_value(v, w);
            }
        }
    }
}

/// Deserializes one [`Column`] of `len` rows.
pub fn decode_column(r: &mut ByteReader<'_>, len: usize) -> Result<Column, SnapshotError> {
    let tag = r.get_u8()?;
    match tag {
        0 => {
            let validity = decode_validity(r, len)?;
            let values = r.get_i64_slab()?;
            if values.len() != len {
                return Err(SnapshotError::Corrupt("int column length mismatch".into()));
            }
            Ok(Column::Int64 { values, validity })
        }
        1 => {
            let validity = decode_validity(r, len)?;
            let values = r.get_f64_slab()?;
            if values.len() != len {
                return Err(SnapshotError::Corrupt(
                    "float column length mismatch".into(),
                ));
            }
            Ok(Column::Float64 { values, validity })
        }
        2 => {
            let validity = decode_validity(r, len)?;
            let n_strings = r.get_u64()?;
            if n_strings > MAX_LEN || n_strings as usize > r.remaining() {
                return Err(SnapshotError::Truncated);
            }
            let mut pool = StrPool::new();
            for _ in 0..n_strings {
                let s = r.get_str()?;
                let code = pool.intern(s);
                if code as u64 + 1 != pool.len() as u64 {
                    return Err(SnapshotError::Corrupt(
                        "duplicate string in dictionary pool".into(),
                    ));
                }
            }
            let codes = r.get_u32_slab()?;
            if codes.len() != len {
                return Err(SnapshotError::Corrupt("str column length mismatch".into()));
            }
            for (i, &c) in codes.iter().enumerate() {
                if validity.is_valid(i) && c as usize >= pool.len() {
                    return Err(SnapshotError::Corrupt(format!(
                        "dictionary code {c} out of range (pool has {})",
                        pool.len()
                    )));
                }
            }
            Ok(Column::Str {
                codes,
                pool: Arc::new(pool),
                validity,
            })
        }
        3 => {
            let n = r.get_len(1)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(decode_value(r)?);
            }
            if values.len() != len {
                return Err(SnapshotError::Corrupt(
                    "mixed column length mismatch".into(),
                ));
            }
            Ok(Column::Mixed { values })
        }
        tag => Err(SnapshotError::Corrupt(format!("unknown column tag {tag}"))),
    }
}

/// Serializes one [`Relation`]: name, schema, original size, row count,
/// then each column.
pub fn encode_relation(rel: &Relation, w: &mut ByteWriter) {
    w.put_str(rel.name());
    w.put_u32(rel.schema().arity() as u32);
    for attr in rel.schema().attrs() {
        w.put_str(attr);
    }
    w.put_u64(rel.original_size() as u64);
    w.put_u64(rel.len() as u64);
    for p in 0..rel.schema().arity() {
        encode_column(rel.column(p), w);
    }
}

/// Deserializes one [`Relation`].
pub fn decode_relation(r: &mut ByteReader<'_>) -> Result<Relation, SnapshotError> {
    let name = r.get_str()?.to_string();
    let arity = r.get_u32()? as usize;
    if arity > r.remaining() {
        return Err(SnapshotError::Truncated);
    }
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        attrs.push(r.get_str()?.to_string());
    }
    let schema =
        Schema::new(attrs).map_err(|e| SnapshotError::Corrupt(format!("invalid schema: {e}")))?;
    let original_size = r.get_u64()?;
    let len = r.get_len(1)?;
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        columns.push(decode_column(r, len)?);
    }
    let rel = Relation::from_columns(&name, schema, columns)
        .map_err(|e| SnapshotError::Corrupt(format!("invalid relation: {e}")))?;
    if original_size > MAX_LEN {
        return Err(SnapshotError::Corrupt("original size out of range".into()));
    }
    Ok(rel.with_original_size(original_size as usize))
}

/// Serializes one [`Predicate`] (tag byte per node, recursive).
pub fn encode_predicate(p: &Predicate, w: &mut ByteWriter) {
    match p {
        Predicate::True => w.put_u8(0),
        Predicate::Compare { attr, op, value } => {
            w.put_u8(1);
            w.put_str(attr);
            w.put_u8(match op {
                CompareOp::Eq => 0,
                CompareOp::Ne => 1,
                CompareOp::Lt => 2,
                CompareOp::Le => 3,
                CompareOp::Gt => 4,
                CompareOp::Ge => 5,
            });
            encode_value(value, w);
        }
        Predicate::And(ps) => {
            w.put_u8(2);
            w.put_u64(ps.len() as u64);
            for q in ps {
                encode_predicate(q, w);
            }
        }
        Predicate::Or(ps) => {
            w.put_u8(3);
            w.put_u64(ps.len() as u64);
            for q in ps {
                encode_predicate(q, w);
            }
        }
        Predicate::Not(q) => {
            w.put_u8(4);
            encode_predicate(q, w);
        }
    }
}

/// Deepest `And` / `Or` / `Not` nesting [`decode_predicate`] accepts:
/// far above any predicate the planner or a caller builds, and low
/// enough that a hostile payload cannot recurse the decoder off the
/// end of its thread's stack.
const MAX_PREDICATE_DEPTH: usize = 256;

/// Deserializes one [`Predicate`]; nesting deeper than 256 levels is
/// rejected as corrupt.
pub fn decode_predicate(r: &mut ByteReader<'_>) -> Result<Predicate, SnapshotError> {
    decode_predicate_at(r, 0)
}

fn decode_predicate_at(r: &mut ByteReader<'_>, depth: usize) -> Result<Predicate, SnapshotError> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(SnapshotError::Corrupt(format!(
            "predicate nested deeper than {MAX_PREDICATE_DEPTH} levels"
        )));
    }
    match r.get_u8()? {
        0 => Ok(Predicate::True),
        1 => {
            let attr: Arc<str> = Arc::from(r.get_str()?);
            let op = match r.get_u8()? {
                0 => CompareOp::Eq,
                1 => CompareOp::Ne,
                2 => CompareOp::Lt,
                3 => CompareOp::Le,
                4 => CompareOp::Gt,
                5 => CompareOp::Ge,
                tag => {
                    return Err(SnapshotError::Corrupt(format!("unknown compare op {tag}")));
                }
            };
            let value = decode_value(r)?;
            Ok(Predicate::Compare { attr, op, value })
        }
        2 => {
            let n = r.get_len(1)?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(decode_predicate_at(r, depth + 1)?);
            }
            Ok(Predicate::And(ps))
        }
        3 => {
            let n = r.get_len(1)?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(decode_predicate_at(r, depth + 1)?);
            }
            Ok(Predicate::Or(ps))
        }
        4 => Ok(Predicate::Not(Box::new(decode_predicate_at(r, depth + 1)?))),
        tag => Err(SnapshotError::Corrupt(format!(
            "unknown predicate tag {tag}"
        ))),
    }
}

/// Serializes one [`HashIndex`] (dictionary, probe structure, CSR
/// postings). The open-addressing table itself is *not* stored — it is
/// rebuilt deterministically on read (see
/// [`decode_index`]), which keeps the section compact and the rebuild
/// bit-identical.
pub fn encode_index(idx: &HashIndex, w: &mut ByteWriter) {
    idx.snapshot_write(w);
}

/// Deserializes one [`HashIndex`] against the relation it indexes
/// (dictionary-code probes share the relation's columns, so the
/// relation must be restored first).
pub fn decode_index(
    r: &mut ByteReader<'_>,
    relation: &Relation,
) -> Result<HashIndex, SnapshotError> {
    HashIndex::snapshot_read(r, relation)
}

/// Serializes one [`SortedIndex`] (sort attributes, permutation, block
/// prefix sums). The columns are not stored — on read the index is
/// rewired to the restored relation (see [`decode_sorted_index`]).
pub fn encode_sorted_index(idx: &SortedIndex, w: &mut ByteWriter) {
    idx.snapshot_write(w);
}

/// Deserializes one [`SortedIndex`] against the relation it sorts,
/// re-validating the permutation and block sums against the restored
/// cells.
pub fn decode_sorted_index(
    r: &mut ByteReader<'_>,
    relation: &Relation,
) -> Result<SortedIndex, SnapshotError> {
    SortedIndex::snapshot_read(r, relation)
}

/// Serializes one [`FrequencyHistogram`]. Entries are sorted by value
/// so the encoding is deterministic (the in-memory map iterates in
/// arbitrary order).
pub fn encode_histogram(h: &FrequencyHistogram, w: &mut ByteWriter) {
    let mut entries: Vec<(&Value, u64)> = h.entries().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.put_u64(h.total());
    w.put_u64(entries.len() as u64);
    for (v, c) in entries {
        encode_value(v, w);
        w.put_u64(c);
    }
}

/// Deserializes one [`FrequencyHistogram`].
pub fn decode_histogram(r: &mut ByteReader<'_>) -> Result<FrequencyHistogram, SnapshotError> {
    let total = r.get_u64()?;
    let n = r.get_len(1)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let v = decode_value(r)?;
        let c = r.get_u64()?;
        entries.push((v, c));
    }
    FrequencyHistogram::from_entries(entries, total)
        .map_err(|msg| SnapshotError::Corrupt(msg.to_string()))
}

/// A bag of prepared artifacts with a sectioned on-disk round-trip:
/// relations, hash indexes (named by the relation they index), and
/// frequency histograms (named by relation and attribute).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Restored or to-be-written relations, in file order.
    pub relations: Vec<Relation>,
    /// `(relation name, index)` pairs. On read, each index is rewired
    /// to the relation of that name restored from the same file.
    pub indexes: Vec<(String, HashIndex)>,
    /// `(relation name, attribute, histogram)` triples.
    pub histograms: Vec<(String, String, FrequencyHistogram)>,
    /// `(relation name, sorted index)` pairs. On read, each index is
    /// rewired to the relation of that name restored from the same
    /// file and re-validated against its cells.
    pub sorted: Vec<(String, SortedIndex)>,
}

impl Snapshot {
    /// Serializes the snapshot to bytes (one section per artifact).
    pub fn write_bytes(&self) -> Vec<u8> {
        let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();
        for rel in &self.relations {
            let mut w = ByteWriter::new();
            encode_relation(rel, &mut w);
            sections.push((SECTION_RELATION, w.into_bytes()));
        }
        for (rel_name, idx) in &self.indexes {
            let mut w = ByteWriter::new();
            w.put_str(rel_name);
            encode_index(idx, &mut w);
            sections.push((SECTION_INDEX, w.into_bytes()));
        }
        for (rel_name, attr, hist) in &self.histograms {
            let mut w = ByteWriter::new();
            w.put_str(rel_name);
            w.put_str(attr);
            encode_histogram(hist, &mut w);
            sections.push((SECTION_HISTOGRAM, w.into_bytes()));
        }
        for (rel_name, idx) in &self.sorted {
            let mut w = ByteWriter::new();
            w.put_str(rel_name);
            encode_sorted_index(idx, &mut w);
            sections.push((SECTION_SORTED_INDEX, w.into_bytes()));
        }
        write_sections(&sections)
    }

    /// Deserializes a snapshot from bytes, verifying every checksum.
    /// Index sections are resolved against relations restored from the
    /// same file; a dangling relation name is [`SnapshotError::Corrupt`].
    pub fn read_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let sections = read_sections(bytes)?;
        let mut snapshot = Snapshot::default();
        // Relations first: index sections reference them by name.
        for (kind, payload) in &sections {
            if *kind == SECTION_RELATION {
                let mut r = ByteReader::new(payload);
                snapshot.relations.push(decode_relation(&mut r)?);
            }
        }
        for (kind, payload) in &sections {
            match *kind {
                SECTION_RELATION => {}
                SECTION_INDEX => {
                    let mut r = ByteReader::new(payload);
                    let rel_name = r.get_str()?.to_string();
                    let relation = snapshot
                        .relations
                        .iter()
                        .find(|rel| rel.name() == rel_name)
                        .ok_or_else(|| {
                            SnapshotError::Corrupt(format!(
                                "index references unknown relation `{rel_name}`"
                            ))
                        })?;
                    let idx = decode_index(&mut r, relation)?;
                    snapshot.indexes.push((rel_name, idx));
                }
                SECTION_HISTOGRAM => {
                    let mut r = ByteReader::new(payload);
                    let rel_name = r.get_str()?.to_string();
                    let attr = r.get_str()?.to_string();
                    let hist = decode_histogram(&mut r)?;
                    snapshot.histograms.push((rel_name, attr, hist));
                }
                SECTION_SORTED_INDEX => {
                    let mut r = ByteReader::new(payload);
                    let rel_name = r.get_str()?.to_string();
                    let relation = snapshot
                        .relations
                        .iter()
                        .find(|rel| rel.name() == rel_name)
                        .ok_or_else(|| {
                            SnapshotError::Corrupt(format!(
                                "sorted index references unknown relation `{rel_name}`"
                            ))
                        })?;
                    let idx = decode_sorted_index(&mut r, relation)?;
                    snapshot.sorted.push((rel_name, idx));
                }
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "unknown section kind {other}"
                    )));
                }
            }
        }
        Ok(snapshot)
    }

    /// Writes the snapshot to a file via the crash-safe
    /// [`atomic_replace`] protocol: the previous good file survives as
    /// [`snapshot_prev_path`] and a crash at any point leaves either
    /// the old or the new snapshot fully intact, never a torn one.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> Result<u64, SnapshotError> {
        atomic_replace(path, &self.write_bytes())
    }

    /// Reads a snapshot from a file, falling back to the previous good
    /// snapshot ([`snapshot_prev_path`]) when the newest one is
    /// missing, truncated, or corrupt (see [`fallback_eligible`]).
    pub fn read(path: impl AsRef<std::path::Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let primary = std::fs::read(path)
            .map_err(SnapshotError::from)
            .and_then(|b| Self::read_bytes(&b));
        match primary {
            Ok(snapshot) => Ok(snapshot),
            Err(e) if fallback_eligible(&e) => {
                match std::fs::read(snapshot_prev_path(path))
                    .ok()
                    .and_then(|b| Self::read_bytes(&b).ok())
                {
                    Some(snapshot) => Ok(snapshot),
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// Crash-safe file replacement
// ---------------------------------------------------------------------

fn sibling(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    std::path::PathBuf::from(name)
}

/// The staging file [`atomic_replace`] writes before the final rename.
/// A crash mid-write leaves (at most) a torn file *here*, never at the
/// destination path.
pub fn snapshot_tmp_path(path: impl AsRef<std::path::Path>) -> std::path::PathBuf {
    sibling(path.as_ref(), ".tmp")
}

/// Where [`atomic_replace`] preserves the previous good file, and
/// where the readers ([`Snapshot::read`], `Engine::load_snapshot`)
/// look when the newest snapshot fails to decode.
pub fn snapshot_prev_path(path: impl AsRef<std::path::Path>) -> std::path::PathBuf {
    sibling(path.as_ref(), ".prev")
}

/// Whether a decode failure warrants falling back to the previous
/// snapshot: everything a crash or bit-rot can produce (i/o errors,
/// truncation, corruption, a garbage magic) — but *not*
/// [`SnapshotError::UnsupportedVersion`], which is a deployment
/// mismatch that silently serving stale data would only mask.
pub fn fallback_eligible(e: &SnapshotError) -> bool {
    !matches!(e, SnapshotError::UnsupportedVersion(_))
}

/// Crash-safe file replacement: stages `bytes` at
/// [`snapshot_tmp_path`], fsyncs, then atomically renames over `path`,
/// first preserving the existing file (if any) at
/// [`snapshot_prev_path`]. Returns the bytes written.
///
/// The invariant: whatever instant the process dies, `path` holds a
/// complete snapshot (old or new), and at least one of
/// `path`/`path.prev` decodes — a torn write can only ever land in the
/// staging file.
pub fn atomic_replace(
    path: impl AsRef<std::path::Path>,
    bytes: &[u8],
) -> Result<u64, SnapshotError> {
    use std::io::Write as _;
    let path = path.as_ref();
    let tmp = snapshot_tmp_path(path);
    if path.exists() {
        let prev = snapshot_prev_path(path);
        let _ = std::fs::remove_file(&prev);
        // Hard link keeps `path` valid at every instant; fall back to
        // a copy on filesystems without link support.
        std::fs::hard_link(path, &prev).or_else(|_| std::fs::copy(path, &prev).map(|_| ()))?;
    }
    {
        let mut staged = std::fs::File::create(&tmp)?;
        staged.write_all(bytes)?;
        staged.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample_relation() -> Relation {
        let schema = Schema::new(["k", "name", "score"]).unwrap();
        Relation::new(
            "users",
            schema,
            vec![
                tuple![1i64, "ada", 3.5f64],
                tuple![2i64, "grace", 4.0f64],
                Tuple::new(vec![Value::int(3), Value::Null, Value::Null]),
                tuple![1i64, "ada", 2.25f64],
            ],
        )
        .unwrap()
    }

    use crate::tuple::Tuple;

    fn assert_relations_equal(a: &Relation, b: &Relation) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.schema().attrs(), b.schema().attrs());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.original_size(), b.original_size());
        for i in 0..a.len() {
            for p in 0..a.schema().arity() {
                assert_eq!(a.column(p).value(i), b.column(p).value(i), "cell ({i},{p})");
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slice-by-8 must agree with the plain bytewise CRC on every
    /// length (both sides of each 8-byte chunk boundary) and at every
    /// alignment of the input slice.
    #[test]
    fn crc32_matches_bytewise_reference() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = u32::MAX;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..1024 + 8u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn relation_round_trip() {
        let rel = sample_relation().with_original_size(100);
        let mut w = ByteWriter::new();
        encode_relation(&rel, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_relation(&mut r).unwrap();
        assert!(r.is_empty());
        assert_relations_equal(&rel, &back);
        assert_eq!(back.original_size(), 100);
    }

    #[test]
    fn mixed_column_round_trip() {
        let schema = Schema::new(["x"]).unwrap();
        let rel = Relation::new(
            "m",
            schema,
            vec![
                Tuple::new(vec![Value::int(1)]),
                Tuple::new(vec![Value::str("two")]),
                Tuple::new(vec![Value::float(3.0)]),
                Tuple::new(vec![Value::Null]),
            ],
        )
        .unwrap();
        assert_eq!(rel.column(0).kind(), "mixed");
        let mut w = ByteWriter::new();
        encode_relation(&rel, &mut w);
        let bytes = w.into_bytes();
        let back = decode_relation(&mut ByteReader::new(&bytes)).unwrap();
        assert_relations_equal(&rel, &back);
    }

    #[test]
    fn index_round_trip_behaves_identically() {
        let rel = sample_relation();
        for attrs in [vec!["k"], vec!["name"], vec!["score"], vec!["k", "name"]] {
            let attrs: Vec<Arc<str>> = attrs.into_iter().map(Arc::from).collect();
            let idx = HashIndex::build(&rel, &attrs);
            let mut w = ByteWriter::new();
            encode_index(&idx, &mut w);
            let bytes = w.into_bytes();
            let back = decode_index(&mut ByteReader::new(&bytes), &rel).unwrap();
            assert_eq!(idx.n_keys(), back.n_keys());
            assert_eq!(idx.max_degree(), back.max_degree());
            for kid in 0..idx.n_keys() as u32 {
                assert_eq!(idx.key_values(kid), back.key_values(kid));
                assert_eq!(idx.postings(kid), back.postings(kid));
                assert_eq!(back.key_id(idx.key_values(kid)), Some(kid));
            }
            for rid in 0..rel.len() as u32 {
                assert_eq!(idx.key_id_of_row(rid), back.key_id_of_row(rid));
            }
        }
    }

    #[test]
    fn histogram_round_trip() {
        let rel = sample_relation();
        let h = FrequencyHistogram::build(&rel, "k");
        let mut w = ByteWriter::new();
        encode_histogram(&h, &mut w);
        let bytes = w.into_bytes();
        let back = decode_histogram(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(h.total(), back.total());
        assert_eq!(h.max_degree(), back.max_degree());
        assert_eq!(h.distinct(), back.distinct());
        for (v, c) in h.entries() {
            assert_eq!(back.degree(v), c);
        }
    }

    #[test]
    fn predicate_round_trip() {
        let p = Predicate::And(vec![
            Predicate::cmp("a", CompareOp::Ge, Value::int(3)),
            Predicate::Or(vec![
                Predicate::eq("b", Value::str("x")),
                Predicate::Not(Box::new(Predicate::True)),
            ]),
        ]);
        let mut w = ByteWriter::new();
        encode_predicate(&p, &mut w);
        let bytes = w.into_bytes();
        let back = decode_predicate(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn predicate_nesting_is_bounded() {
        // `levels` nested `Not`s around `True`, in the encoded form.
        let nested = |levels: usize| {
            let mut bytes = vec![4u8; levels];
            bytes.push(0);
            bytes
        };
        let mut p = Predicate::True;
        for _ in 0..MAX_PREDICATE_DEPTH {
            p = Predicate::Not(Box::new(p));
        }
        let at_limit = nested(MAX_PREDICATE_DEPTH);
        let back = decode_predicate(&mut ByteReader::new(&at_limit)).unwrap();
        assert_eq!(back, p);
        // One level deeper, or a hostile 20,000-level chain, is corrupt
        // input rather than a stack overflow.
        for levels in [MAX_PREDICATE_DEPTH + 1, 20_000] {
            let deep = nested(levels);
            assert!(matches!(
                decode_predicate(&mut ByteReader::new(&deep)),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn snapshot_file_round_trip() {
        let rel = sample_relation();
        let idx = HashIndex::build_single(&rel, "k");
        let hist = FrequencyHistogram::build(&rel, "name");
        let sorted = SortedIndex::build_single(&rel, "k");
        let snap = Snapshot {
            relations: vec![rel.clone()],
            indexes: vec![("users".into(), idx)],
            histograms: vec![("users".into(), "name".into(), hist)],
            sorted: vec![("users".into(), sorted)],
        };
        let bytes = snap.write_bytes();
        let back = Snapshot::read_bytes(&bytes).unwrap();
        assert_eq!(back.relations.len(), 1);
        assert_relations_equal(&rel, &back.relations[0]);
        assert_eq!(back.indexes.len(), 1);
        assert_eq!(back.indexes[0].0, "users");
        assert_eq!(
            back.indexes[0].1.rows_matching(&[Value::int(1)]),
            &[0u32, 3]
        );
        assert_eq!(back.histograms.len(), 1);
        assert_eq!(back.histograms[0].2.degree(&Value::str("ada")), 2);
        assert_eq!(back.sorted.len(), 1);
        assert_eq!(back.sorted[0].0, "users");
        assert_eq!(
            back.sorted[0]
                .1
                .count_in_range(&Value::int(1), &Value::int(2)),
            3
        );
    }

    #[test]
    fn named_failures_bad_magic_version_checksum_truncation() {
        let snap = Snapshot {
            relations: vec![sample_relation()],
            ..Snapshot::default()
        };
        let bytes = snap.write_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::read_bytes(&bad).unwrap_err(),
            SnapshotError::BadMagic
        ));

        // Wrong version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            Snapshot::read_bytes(&bad).unwrap_err(),
            SnapshotError::UnsupportedVersion(_)
        ));

        // Flipped payload byte → checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last - 8] ^= 0xFF;
        assert!(matches!(
            Snapshot::read_bytes(&bad).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated
        ));

        // Truncation at every prefix never panics.
        for cut in 0..bytes.len() {
            let _ = Snapshot::read_bytes(&bytes[..cut]);
        }
    }

    #[test]
    fn empty_relation_and_empty_snapshot() {
        let rel = Relation::new("empty", Schema::new(["a"]).unwrap(), vec![]).unwrap();
        let idx = HashIndex::build_single(&rel, "a");
        let snap = Snapshot {
            relations: vec![rel],
            indexes: vec![("empty".into(), idx)],
            ..Snapshot::default()
        };
        let back = Snapshot::read_bytes(&snap.write_bytes()).unwrap();
        assert_eq!(back.relations[0].len(), 0);
        assert_eq!(back.indexes[0].1.n_keys(), 0);

        let nothing = Snapshot::default();
        let back = Snapshot::read_bytes(&nothing.write_bytes()).unwrap();
        assert!(back.relations.is_empty());
    }

    #[test]
    fn dangling_index_relation_is_corrupt() {
        let rel = sample_relation();
        let idx = HashIndex::build_single(&rel, "k");
        let snap = Snapshot {
            relations: vec![],
            indexes: vec![("ghost".into(), idx)],
            ..Snapshot::default()
        };
        assert!(matches!(
            Snapshot::read_bytes(&snap.write_bytes()).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn slabs_are_eight_byte_aligned() {
        // The alignment invariant future mmap support depends on: after
        // align8, offsets are multiples of 8 from the payload start, and
        // the section container keeps payload starts 8-aligned in-file.
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_i64_slab(&[1, 2, 3]);
        assert_eq!(w.len() % 8, 0);
        let bytes = write_sections(&[(1, w.into_bytes())]);
        // Preamble (16) + header (16) → payload starts at 32.
        assert_eq!(32 % 8, 0);
        let sections = read_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 1);
    }
}
