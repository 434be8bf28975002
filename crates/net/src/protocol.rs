//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! # Frame layout
//!
//! Every message — request or response — is one frame with a fixed
//! 24-byte little-endian header followed by an opcode-specific
//! payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "SUJN" (0x4e4a5553 LE)
//!      4     2  version      protocol version, currently 2
//!      6     2  opcode       see below
//!      8     8  request id   echoed verbatim in the response
//!     16     4  payload len  bytes following the header (≤ 1 GiB)
//!     20     4  payload crc  CRC-32 of the payload bytes
//! ```
//!
//! Version 2 added the payload checksum (a flipped bit on the wire is
//! a typed [`NetError::Checksum`], never silently corrupt samples) and
//! an optional per-request deadline budget in the `Sample` payload.
//!
//! # Opcodes
//!
//! | opcode | direction | payload |
//! |--------|-----------|---------|
//! | 1 `Prepare` | request | serialized [`UnionQuery`] ([`suj_core::snapshot::encode_query`]) |
//! | 2 `Sample` | request | `prepared_id: u64`, `n: u64`, `seed: u64`, `budget_ns: u64` (0 = none) |
//! | 3 `Stats` | request | empty |
//! | 4 `Shutdown` | request | empty |
//! | 0x81 `Prepared` | response | `prepared_id: u64`, `estimations: u64`, summary string |
//! | 0x82 `Batch` | response | columnar tuple batch (below) |
//! | 0x83 `Stats` | response | counters, see [`WireStats`] |
//! | 0x84 `ShutdownAck` | response | empty |
//! | 0x85 `Busy` | response | `retry_after_ns: u64` |
//! | 0x86 `Error` | response | `code: u16`, message string |
//!
//! # Batch encoding
//!
//! Samples travel as a columnar batch, not tuple-at-a-time: arity
//! `u32`, the attribute names, `n_rows: u64`, then each column in the
//! storage layer's snapshot column codec ([`encode_column`]) — typed
//! slabs with validity bitmaps, dictionary-coded strings. The decoder
//! transposes back to row [`Tuple`]s.
//!
//! # Backpressure
//!
//! A server whose worker queue is full answers `Sample` with `Busy`
//! carrying the service's retry hint — the queue-full condition is a
//! first-class wire citizen, distinct from `Error`, so clients can
//! back off and retry instead of failing.

use std::fmt;
use std::io::{Read, Write};
use suj_core::query::UnionQuery;
use suj_core::rows::{DrawnBatch, RowBatch};
use suj_core::snapshot::{decode_query, encode_query};
use suj_storage::snapshot::{crc32, decode_column, encode_column, ByteReader, ByteWriter};
use suj_storage::{ColumnBuilder, SnapshotError, Tuple};

/// Frame magic: `b"SUJN"` little-endian.
pub const NET_MAGIC: u32 = u32::from_le_bytes(*b"SUJN");
/// Protocol version spoken by this implementation.
pub const NET_VERSION: u16 = 2;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Upper bound on a frame payload (1 GiB) — a malformed or malicious
/// length prefix must not drive allocation.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Request opcode: prepare a query, returning a `prepared_id`.
pub const OP_PREPARE: u16 = 1;
/// Request opcode: draw `n` samples from a prepared query.
pub const OP_SAMPLE: u16 = 2;
/// Request opcode: fetch service counters.
pub const OP_STATS: u16 = 3;
/// Request opcode: shut the server down gracefully.
pub const OP_SHUTDOWN: u16 = 4;
/// Response opcode: a query was prepared.
pub const OP_PREPARED: u16 = 0x81;
/// Response opcode: a columnar batch of sampled tuples.
pub const OP_BATCH: u16 = 0x82;
/// Response opcode: service counters.
pub const OP_STATS_REPLY: u16 = 0x83;
/// Response opcode: shutdown acknowledged.
pub const OP_SHUTDOWN_ACK: u16 = 0x84;
/// Response opcode: worker queue full, retry after the carried hint.
pub const OP_BUSY: u16 = 0x85;
/// Response opcode: the request failed; payload carries code+message.
pub const OP_ERROR: u16 = 0x86;

/// Error code inside an `Error` frame: malformed request payload.
pub const ERR_BAD_REQUEST: u16 = 1;
/// Error code inside an `Error` frame: unknown `prepared_id`.
pub const ERR_UNKNOWN_PREPARED: u16 = 2;
/// Error code inside an `Error` frame: sampling/planning failed.
pub const ERR_ENGINE: u16 = 3;
/// Error code inside an `Error` frame: server is shutting down.
pub const ERR_SHUTTING_DOWN: u16 = 4;
/// Error code inside an `Error` frame: the request's deadline expired
/// before it finished.
pub const ERR_DEADLINE: u16 = 5;

/// Client- and server-side protocol errors.
#[derive(Debug)]
pub enum NetError {
    /// A socket read/write failed.
    Io(std::io::Error),
    /// A frame arrived with the wrong magic.
    BadMagic(u32),
    /// A frame arrived with an unsupported protocol version.
    UnsupportedVersion(u16),
    /// A frame declared a payload larger than [`MAX_PAYLOAD`].
    FrameTooLarge(u32),
    /// A payload failed to decode, or an unexpected opcode arrived.
    Protocol(String),
    /// The server reported its queue full and the client exhausted its
    /// retries; the duration is the last retry hint received.
    Busy(std::time::Duration),
    /// The peer answered with an `Error` frame.
    Remote {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The request's deadline expired before it finished
    /// ([`ERR_DEADLINE`] on the wire).
    DeadlineExceeded,
    /// The server refused the request because it is draining
    /// ([`ERR_SHUTTING_DOWN`] on the wire).
    ShuttingDown,
    /// The connection dropped mid-exchange (reset, aborted, broken
    /// pipe, or unexpected EOF). Retryable on a fresh connection.
    ConnectionReset,
    /// A frame's payload failed its CRC — corrupted on the wire.
    Checksum {
        /// CRC declared in the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::BadMagic(got) => write!(f, "bad frame magic {got:#010x}"),
            NetError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            NetError::FrameTooLarge(n) => write!(f, "frame payload {n} exceeds limit"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Busy(hint) => {
                write!(f, "server busy, retries exhausted (last hint {hint:?})")
            }
            NetError::Remote { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
            NetError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request finished")
            }
            NetError::ShuttingDown => write!(f, "server is shutting down"),
            NetError::ConnectionReset => write!(f, "connection reset by peer"),
            NetError::Checksum { expected, got } => write!(
                f,
                "payload checksum mismatch (header {expected:#010x}, computed {got:#010x})"
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof => NetError::ConnectionReset,
            _ => NetError::Io(e),
        }
    }
}

impl From<SnapshotError> for NetError {
    fn from(e: SnapshotError) -> Self {
        NetError::Protocol(e.to_string())
    }
}

/// One wire frame: opcode, request id, and raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `OP_*` opcodes.
    pub opcode: u16,
    /// Caller-chosen id, echoed by the server — also the default RNG
    /// stream of a `Sample` request.
    pub request_id: u64,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with an empty payload.
    pub fn empty(opcode: u16, request_id: u64) -> Self {
        Self {
            opcode,
            request_id,
            payload: Vec::new(),
        }
    }

    /// Writes header + payload to `w` (one `write_all` per part; the
    /// caller flushes).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let len = u32::try_from(self.payload.len())
            .ok()
            .filter(|&n| n <= MAX_PAYLOAD)
            .ok_or(NetError::FrameTooLarge(u32::MAX))?;
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&NET_MAGIC.to_le_bytes());
        header[4..6].copy_from_slice(&NET_VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&self.opcode.to_le_bytes());
        header[8..16].copy_from_slice(&self.request_id.to_le_bytes());
        header[16..20].copy_from_slice(&len.to_le_bytes());
        header[20..24].copy_from_slice(&crc32(&self.payload).to_le_bytes());
        w.write_all(&header)?;
        w.write_all(&self.payload)?;
        Ok(())
    }

    /// Reads one frame from `r`, validating magic, version, payload
    /// bound, and payload checksum before returning.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, NetError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let (opcode, request_id, len, expected_crc) = parse_header(&header)?;
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        verify_payload(&payload, expected_crc)?;
        Ok(Frame {
            opcode,
            request_id,
            payload,
        })
    }
}

/// Validates a raw frame header and extracts
/// `(opcode, request_id, payload_len, payload_crc)`. Used by readers
/// that assemble the header incrementally (e.g. the server's
/// timeout-polling loop); such readers must call [`verify_payload`]
/// once the payload bytes arrive.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u16, u64, u32, u32), NetError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != NET_MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != NET_VERSION {
        return Err(NetError::UnsupportedVersion(version));
    }
    let opcode = u16::from_le_bytes(header[6..8].try_into().unwrap());
    let request_id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(header[16..20].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(NetError::FrameTooLarge(len));
    }
    let crc = u32::from_le_bytes(header[20..24].try_into().unwrap());
    Ok((opcode, request_id, len, crc))
}

/// Checks payload bytes against the CRC carried in the frame header.
pub fn verify_payload(payload: &[u8], expected: u32) -> Result<(), NetError> {
    let got = crc32(payload);
    if got != expected {
        return Err(NetError::Checksum { expected, got });
    }
    Ok(())
}

/// Encodes a `Prepare` request payload.
pub fn encode_prepare(query: &UnionQuery) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_query(query, &mut w);
    w.into_bytes()
}

/// Decodes a `Prepare` request payload.
pub fn decode_prepare(payload: &[u8]) -> Result<UnionQuery, NetError> {
    let mut r = ByteReader::new(payload);
    let q = decode_query(&mut r)?;
    Ok(q)
}

/// Encodes a `Sample` request payload. `budget_ns` is the per-request
/// deadline budget in nanoseconds; 0 means no deadline.
pub fn encode_sample(prepared_id: u64, n: u64, seed: u64, budget_ns: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(prepared_id);
    w.put_u64(n);
    w.put_u64(seed);
    if budget_ns != 0 {
        w.put_u64(budget_ns);
    }
    w.into_bytes()
}

/// Decodes a `Sample` request payload into
/// `(prepared_id, n, seed, budget_ns)`. The trailing budget word is
/// optional on the wire (version-1 peers sent three words); absence
/// decodes as 0, meaning no deadline.
pub fn decode_sample(payload: &[u8]) -> Result<(u64, u64, u64, u64), NetError> {
    let mut r = ByteReader::new(payload);
    let (prepared_id, n, seed) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
    let budget_ns = if r.is_empty() { 0 } else { r.get_u64()? };
    Ok((prepared_id, n, seed, budget_ns))
}

/// Encodes a `Prepared` response payload.
pub fn encode_prepared(prepared_id: u64, estimations: u64, summary: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(prepared_id);
    w.put_u64(estimations);
    w.put_str(summary);
    w.into_bytes()
}

/// Decodes a `Prepared` response payload into
/// `(prepared_id, estimations, summary)`.
pub fn decode_prepared(payload: &[u8]) -> Result<(u64, u64, String), NetError> {
    let mut r = ByteReader::new(payload);
    Ok((r.get_u64()?, r.get_u64()?, r.get_str()?.to_string()))
}

/// The `Batch` payload header: arity, attribute names, row count.
fn batch_header(attrs: &[std::sync::Arc<str>], n_rows: usize) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.put_u32(attrs.len() as u32);
    for a in attrs {
        w.put_str(a);
    }
    w.put_u64(n_rows as u64);
    w
}

/// Encodes a tuple batch as columns: arity, attribute names, row
/// count, then one storage-codec column per attribute.
pub fn encode_batch(attrs: &[std::sync::Arc<str>], tuples: &[Tuple]) -> Vec<u8> {
    let mut w = batch_header(attrs, tuples.len());
    for (pos, _) in attrs.iter().enumerate() {
        let mut builder = ColumnBuilder::new();
        for t in tuples {
            builder.push_ref(t.get(pos));
        }
        encode_column(&builder.finish(), &mut w);
    }
    w.into_bytes()
}

/// Encodes a row-id batch (`attrs` = its workload's canonical schema)
/// straight from the base columns, without building a tuple: byte for
/// byte the payload [`encode_batch`] writes for `rows.to_tuples()`.
pub fn encode_rows(attrs: &[std::sync::Arc<str>], rows: &RowBatch) -> Vec<u8> {
    let mut w = batch_header(attrs, rows.len());
    rows.encode_columns(&mut w);
    w.into_bytes()
}

/// Encodes a served batch in whichever form it arrived.
pub fn encode_drawn(attrs: &[std::sync::Arc<str>], batch: &DrawnBatch) -> Vec<u8> {
    match batch {
        DrawnBatch::Rows(rows) => encode_rows(attrs, rows),
        DrawnBatch::Tuples(tuples) => encode_batch(attrs, tuples),
    }
}

/// Decodes a tuple batch back into attribute names and row tuples.
pub fn decode_batch(payload: &[u8]) -> Result<(Vec<String>, Vec<Tuple>), NetError> {
    let mut r = ByteReader::new(payload);
    let arity = r.get_u32()? as usize;
    let mut attrs = Vec::with_capacity(arity.min(1024));
    for _ in 0..arity {
        attrs.push(r.get_str()?.to_string());
    }
    // Schemas are never empty and every column spends at least one
    // byte per row, so the payload left bounds the row count; a larger
    // claim is corrupt, not an allocation to attempt.
    let n_rows = r.get_u64()?;
    let max_rows = if arity == 0 { 0 } else { r.remaining() as u64 };
    if n_rows > max_rows {
        return Err(NetError::Protocol(format!(
            "batch claims {n_rows} rows but its payload encodes at most {max_rows}"
        )));
    }
    let n_rows = n_rows as usize;
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        columns.push(decode_column(&mut r, n_rows)?);
    }
    let mut tuples = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        tuples.push(Tuple::new(columns.iter().map(|c| c.value(i)).collect()));
    }
    Ok((attrs, tuples))
}

/// A compact snapshot of server-side service counters carried by a
/// `Stats` response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Worker threads in the server's pool.
    pub workers: u64,
    /// Requests accepted into the queue so far.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests that errored.
    pub failed: u64,
    /// Total tuples across all completed responses.
    pub tuples_served: u64,
    /// Resident bytes of the largest prepared artifact served.
    pub prepared_bytes: u64,
    /// Snapshot size behind the served artifacts (0 when frozen
    /// in-process).
    pub snapshot_bytes: u64,
    /// Snapshot restore wall time, in nanoseconds.
    pub restore_time_ns: u64,
}

/// Encodes a `Stats` response payload.
pub fn encode_stats(stats: &WireStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(stats.workers);
    w.put_u64(stats.submitted);
    w.put_u64(stats.completed);
    w.put_u64(stats.failed);
    w.put_u64(stats.tuples_served);
    w.put_u64(stats.prepared_bytes);
    w.put_u64(stats.snapshot_bytes);
    w.put_u64(stats.restore_time_ns);
    w.into_bytes()
}

/// Decodes a `Stats` response payload.
pub fn decode_stats(payload: &[u8]) -> Result<WireStats, NetError> {
    let mut r = ByteReader::new(payload);
    Ok(WireStats {
        workers: r.get_u64()?,
        submitted: r.get_u64()?,
        completed: r.get_u64()?,
        failed: r.get_u64()?,
        tuples_served: r.get_u64()?,
        prepared_bytes: r.get_u64()?,
        snapshot_bytes: r.get_u64()?,
        restore_time_ns: r.get_u64()?,
    })
}

/// Encodes a `Busy` response payload.
pub fn encode_busy(retry_after: std::time::Duration) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(u64::try_from(retry_after.as_nanos()).unwrap_or(u64::MAX));
    w.into_bytes()
}

/// Decodes a `Busy` response payload into the retry hint.
pub fn decode_busy(payload: &[u8]) -> Result<std::time::Duration, NetError> {
    let mut r = ByteReader::new(payload);
    Ok(std::time::Duration::from_nanos(r.get_u64()?))
}

/// Encodes an `Error` response payload.
pub fn encode_error(code: u16, message: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(u32::from(code));
    w.put_str(message);
    w.into_bytes()
}

/// Decodes an `Error` response payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Result<(u16, String), NetError> {
    let mut r = ByteReader::new(payload);
    let code = u16::try_from(r.get_u32()?)
        .map_err(|_| NetError::Protocol("error code out of range".into()))?;
    Ok((code, r.get_str()?.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_storage::Value;

    #[test]
    fn frame_round_trip() {
        let frame = Frame {
            opcode: OP_SAMPLE,
            request_id: 42,
            payload: encode_sample(7, 100, 9, 0),
        };
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + frame.payload.len());
        let read = Frame::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(read, frame);
        assert_eq!(decode_sample(&read.payload).unwrap(), (7, 100, 9, 0));
    }

    #[test]
    fn sample_budget_word_is_optional_on_the_wire() {
        let with_budget = encode_sample(7, 100, 9, 2_000_000);
        assert_eq!(decode_sample(&with_budget).unwrap(), (7, 100, 9, 2_000_000));
        // A version-1 peer sends exactly three words; budget decodes
        // as 0 (no deadline).
        let legacy = encode_sample(7, 100, 9, 0);
        assert_eq!(legacy.len(), 24);
        assert_eq!(decode_sample(&legacy).unwrap(), (7, 100, 9, 0));
    }

    #[test]
    fn bad_magic_version_and_length_are_rejected() {
        let frame = Frame::empty(OP_STATS, 1);
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(NetError::BadMagic(_))
        ));

        let mut bad = buf.clone();
        bad[4] = 0xff;
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(NetError::UnsupportedVersion(_))
        ));

        let mut bad = buf.clone();
        bad[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(NetError::FrameTooLarge(_))
        ));

        // Truncated stream: a typed connection error, not a panic.
        assert!(matches!(
            Frame::read_from(&mut buf[..HEADER_LEN - 3].as_ref()),
            Err(NetError::ConnectionReset)
        ));
    }

    #[test]
    fn flipped_payload_bits_fail_the_checksum() {
        let frame = Frame {
            opcode: OP_SAMPLE,
            request_id: 9,
            payload: encode_sample(1, 64, 3, 0),
        };
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        for bit in 0..8 {
            for byte in HEADER_LEN..buf.len() {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        Frame::read_from(&mut bad.as_slice()),
                        Err(NetError::Checksum { .. })
                    ),
                    "flip of payload byte {byte} bit {bit} must be caught"
                );
            }
        }
        // A flipped CRC byte itself is also a checksum error.
        let mut bad = buf.clone();
        bad[20] ^= 0x01;
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(NetError::Checksum { .. })
        ));
    }

    #[test]
    fn batch_round_trip_preserves_tuples() {
        let attrs: Vec<std::sync::Arc<str>> = vec!["a".into(), "b".into(), "c".into()];
        let tuples = vec![
            Tuple::new(vec![Value::int(1), Value::str("x"), Value::Null]),
            Tuple::new(vec![Value::int(2), Value::str("y"), Value::float(1.5)]),
            Tuple::new(vec![Value::int(3), Value::str("x"), Value::Null]),
        ];
        let payload = encode_batch(&attrs, &tuples);
        let (names, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(decoded, tuples);
    }

    #[test]
    fn empty_batch_round_trips() {
        let attrs: Vec<std::sync::Arc<str>> = vec!["a".into()];
        let payload = encode_batch(&attrs, &[]);
        let (names, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(names, vec!["a"]);
        assert!(decoded.is_empty());
    }

    #[test]
    fn auxiliary_payload_round_trips() {
        let stats = WireStats {
            workers: 4,
            submitted: 10,
            completed: 9,
            failed: 1,
            tuples_served: 90,
            prepared_bytes: 4096,
            snapshot_bytes: 2048,
            restore_time_ns: 1_000_000,
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);
        let d = std::time::Duration::from_micros(250);
        assert_eq!(decode_busy(&encode_busy(d)).unwrap(), d);
        assert_eq!(
            decode_error(&encode_error(ERR_ENGINE, "boom")).unwrap(),
            (ERR_ENGINE, "boom".to_string())
        );
        let (id, est, summary) = decode_prepared(&encode_prepared(3, 1, "plan")).unwrap();
        assert_eq!((id, est, summary.as_str()), (3, 1, "plan"));
    }

    #[test]
    fn truncated_payloads_error_never_panic() {
        let payload = encode_sample(1, 2, 3, 0);
        for cut in 0..payload.len() {
            assert!(decode_sample(&payload[..cut]).is_err());
        }
        let attrs: Vec<std::sync::Arc<str>> = vec!["a".into()];
        let batch = encode_batch(&attrs, &[Tuple::new(vec![Value::int(5)])]);
        for cut in 0..batch.len() {
            assert!(decode_batch(&batch[..cut]).is_err(), "cut at {cut}");
        }
        // A column-free batch claiming 2^40 rows is refused before
        // anything is allocated for them.
        let mut w = ByteWriter::new();
        w.put_u32(0);
        w.put_u64(1 << 40);
        let hostile = w.into_bytes();
        assert_eq!(hostile.len(), 12);
        assert!(matches!(decode_batch(&hostile), Err(NetError::Protocol(_))));
        // A `Prepare` whose predicate nests 20,000 `Not`s is refused
        // before the decoder's recursion can exhaust the stack.
        let query = UnionQuery::set_union().chain("q", ["a", "b"]).unwrap();
        let mut deep = encode_prepare(&query);
        deep.truncate(deep.len() - 2); // no predicate, no mode
        deep.push(1); // Some(predicate)
        deep.extend(std::iter::repeat_n(4u8, 20_000)); // Not, Not, …
        deep.extend([0, 0]); // True; no predicate mode
        assert!(matches!(decode_prepare(&deep), Err(NetError::Protocol(_))));
    }
}
