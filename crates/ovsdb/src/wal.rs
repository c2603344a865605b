//! The write-ahead log: per-transaction durability for the management
//! plane.
//!
//! Real OVSDB persists every committed transaction to an append-only
//! file log so configuration survives daemon restarts; this module is
//! that layer for [`crate::db::Database`]. One record is appended per
//! committed transaction, *before* the transaction's changes are applied
//! (write-ahead semantics: a transaction whose record cannot be made
//! durable is aborted, never half-committed).
//!
//! ## Record format
//!
//! ```text
//! [u32 payload_len][u64 commit_index][u32 crc32][payload bytes]
//! ```
//!
//! All integers little-endian. The CRC covers the commit index and the
//! payload, so a record is self-validating. The payload is the JSON
//! `{"updates": <table-updates>, "uuid_counter": <post-commit value>}`.
//! This module only frames records: it checks length, index and CRC and
//! hands the payload back. What `updates` holds is [`crate::db`]'s
//! business: the commit's row changes in the monitor wire format, which
//! replay decodes with [`crate::monitor::decode_table_updates_into`] and
//! applies.
//!
//! ## Recovery rules
//!
//! * A record whose bytes end at EOF but do not parse (short header,
//!   payload past EOF, or CRC mismatch on the final record) is a **torn
//!   tail** — the write was interrupted mid-record. The tail is cleanly
//!   truncated and recovery proceeds; at most that single record (whose
//!   transaction was never acknowledged) is lost.
//! * A record that fails its CRC *with valid data after it*, carries a
//!   non-contiguous commit index, or holds a payload that is not the
//!   JSON object above is a **corrupt interior** — recovery refuses with
//!   a typed [`WalError::CorruptRecord`] rather than silently dropping
//!   acknowledged transactions. So does a record whose changes do not
//!   apply to the state before it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde_json::Value as Json;

/// Size of the fixed per-record header: length + commit index + CRC.
pub const RECORD_HEADER_LEN: usize = 4 + 8 + 4;

/// Name of the log file inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// When the log is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record (safest, slowest).
    Always,
    /// fsync after every N appended records (bounded loss window).
    EveryN(u32),
    /// Never fsync explicitly; rely on the OS flushing dirty pages
    /// (fastest; a host crash may lose the tail of the log).
    Never,
}

/// Configuration of the durability layer.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// fsync policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Once the log exceeds this many bytes, the next commit triggers
    /// snapshot compaction: the full state is written atomically and the
    /// replayed prefix truncated.
    pub snapshot_after_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncPolicy::EveryN(64),
            snapshot_after_bytes: 1 << 20,
        }
    }
}

/// Typed durability-layer errors.
#[derive(Debug)]
pub enum WalError {
    /// An I/O failure against the log, snapshot, or directory.
    Io(std::io::Error),
    /// A record in the *interior* of the log failed validation. Opening
    /// refuses rather than dropping acknowledged transactions.
    CorruptRecord {
        /// Byte offset of the offending record.
        offset: u64,
        /// What failed.
        reason: String,
    },
    /// The snapshot file exists but cannot be decoded.
    CorruptSnapshot(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::CorruptRecord { offset, reason } => {
                write!(f, "corrupt WAL record at offset {offset}: {reason}")
            }
            WalError::CorruptSnapshot(reason) => write!(f, "corrupt snapshot: {reason}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

// ------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

fn crc_of(commit_index: u64, payload: &[u8]) -> u32 {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&commit_index.to_le_bytes());
    buf.extend_from_slice(payload);
    crc32(&buf)
}

// ----------------------------------------------------------- metrics

fn fsyncs() -> &'static telemetry::Counter {
    static M: std::sync::OnceLock<telemetry::Counter> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        telemetry::global().registry.counter(
            "ovsdb_wal_fsyncs_total",
            "fsync calls issued by the OVSDB write-ahead log",
        )
    })
}

// ------------------------------------------------------------ writer

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonic commit index (1-based; equals the database's
    /// transaction counter after this commit).
    pub commit_index: u64,
    /// The database's UUID counter after the transaction, restored by
    /// replay so the next insert mints the UUID it would have minted
    /// had the process not stopped.
    pub uuid_counter: u64,
    /// The payload's `updates`: what the commit changed, as the
    /// `table-updates` object of a monitor on every table and column
    /// (`{}` for a commit that changed no row). Logging the result
    /// rather than the request means replay applies rows: it never
    /// re-runs a `where` clause and never depends on minting the same
    /// UUIDs again. The name predates that and is kept for callers that
    /// build records. This module does not look inside it.
    pub ops: Json,
}

impl WalRecord {
    /// Encode to on-disk bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        // Written by hand so the (possibly large) updates object is
        // serialized in place rather than copied into a wrapper value.
        let payload = format!(
            "{{\"updates\":{},\"uuid_counter\":{}}}",
            self.ops, self.uuid_counter
        )
        .into_bytes();
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.commit_index.to_le_bytes());
        out.extend_from_slice(&crc_of(self.commit_index, &payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// What happened while scanning a log file.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Fully-valid records decoded, each with the byte offset it
    /// starts at.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset of a torn tail, if one was found (everything from
    /// here on should be truncated).
    pub torn_at: Option<u64>,
    /// Total valid bytes (== `torn_at` when a tail was torn).
    pub valid_bytes: u64,
}

/// Decode a log image. Returns the valid prefix and where (if anywhere)
/// a torn tail begins; refuses corrupt interiors.
pub fn scan(data: &[u8]) -> Result<ScanReport, WalError> {
    let mut report = ScanReport::default();
    let mut off = 0usize;
    while off < data.len() {
        let remaining = &data[off..];
        if remaining.len() < RECORD_HEADER_LEN {
            report.torn_at = Some(off as u64);
            break;
        }
        let len = u32::from_le_bytes(remaining[0..4].try_into().unwrap()) as usize;
        let commit_index = u64::from_le_bytes(remaining[4..12].try_into().unwrap());
        let crc = u32::from_le_bytes(remaining[12..16].try_into().unwrap());
        if remaining.len() < RECORD_HEADER_LEN + len {
            // Payload (or a garbage length field) extends past EOF: the
            // record was being written when the crash hit.
            report.torn_at = Some(off as u64);
            break;
        }
        let payload = &remaining[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        let end = off + RECORD_HEADER_LEN + len;
        let fail = |reason: String| -> Result<ScanReport, WalError> {
            Err(WalError::CorruptRecord {
                offset: off as u64,
                reason,
            })
        };
        if crc_of(commit_index, payload) != crc {
            if end == data.len() {
                // The final record's bytes are all present but the
                // checksum fails: a partially-overwritten tail.
                report.torn_at = Some(off as u64);
                break;
            }
            return fail("crc mismatch".to_string());
        }
        let mut doc = match serde_json::from_slice(payload) {
            Ok(Json::Object(doc)) => doc,
            Ok(_) => return fail("payload is not an object".to_string()),
            Err(e) => return fail(format!("bad payload json: {e}")),
        };
        let Some(uuid_counter) = doc.get("uuid_counter").and_then(Json::as_u64) else {
            return fail("payload missing uuid_counter".to_string());
        };
        let Some(ops) = doc.remove("updates") else {
            return fail("payload missing updates".to_string());
        };
        if let Some((_, prev)) = report.records.last() {
            if prev.commit_index.checked_add(1) != Some(commit_index) {
                return fail(format!(
                    "non-contiguous commit index {commit_index} after {}",
                    prev.commit_index
                ));
            }
        }
        report.records.push((
            off as u64,
            WalRecord {
                commit_index,
                uuid_counter,
                ops,
            },
        ));
        off = end;
        report.valid_bytes = off as u64;
    }
    if report.torn_at.is_none() {
        report.valid_bytes = data.len() as u64;
    }
    Ok(report)
}

/// The append side of the log: an open file plus fsync bookkeeping.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Current log length in bytes.
    pub bytes: u64,
    appends_since_fsync: u32,
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending,
    /// positioned after `valid_bytes` (anything beyond is truncated —
    /// the torn-tail cleanup).
    pub fn open(path: &Path, policy: FsyncPolicy, valid_bytes: u64) -> Result<Wal, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len > valid_bytes {
            file.set_len(valid_bytes)?;
            file.sync_all()?;
            fsyncs().inc();
        }
        file.seek(SeekFrom::Start(valid_bytes))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            policy,
            bytes: valid_bytes,
            appends_since_fsync: 0,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record, honoring the fsync policy. Returns the bytes
    /// written.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        let bytes = record.encode();
        self.file.write_all(&bytes)?;
        self.bytes += bytes.len() as u64;
        self.appends_since_fsync += 1;
        telemetry::catalogue::WAL_APPEND.record(
            0,
            &[
                ("commit_index", record.commit_index),
                ("bytes", bytes.len() as u64),
            ],
        );
        let syncing = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_fsync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if syncing {
            self.file.sync_data()?;
            self.appends_since_fsync = 0;
            fsyncs().inc();
        }
        Ok(bytes.len() as u64)
    }

    /// Truncate the log to empty (after a snapshot made its contents
    /// redundant) and fsync the truncation.
    pub fn reset(&mut self) -> Result<(), WalError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        fsyncs().inc();
        self.bytes = 0;
        self.appends_since_fsync = 0;
        Ok(())
    }

    /// Force an fsync regardless of policy.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        self.appends_since_fsync = 0;
        fsyncs().inc();
        Ok(())
    }
}

// -------------------------------------------------- chaos/test hooks

/// The byte span `[start, end)` of the final record in a log image
/// (`None` for an empty or headerless log). Used by crash-fault
/// injection to tear exactly (and only) the final record.
pub fn final_record_span(data: &[u8]) -> Option<(u64, u64)> {
    let report = scan(data).ok()?;
    let (start, _) = report.records.last()?;
    Some((*start, report.valid_bytes))
}

/// Simulate a crash mid-write of the log's final record: chop up to
/// `chop_request` bytes off the tail, clamped so only the final record
/// is damaged. Returns the number of bytes actually removed (0 when the
/// log has no complete record to tear, or `chop_request` is 0).
///
/// Deterministic: for a given log image and `chop_request` the resulting
/// file is byte-identical run after run — this is the hook
/// `chaos::FaultKind::CrashServer` drives.
pub fn tear_tail(path: &Path, chop_request: u64) -> Result<u64, WalError> {
    if chop_request == 0 {
        return Ok(0);
    }
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let Some((start, end)) = final_record_span(&data) else {
        return Ok(0);
    };
    let chop = chop_request.min(end - start);
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(end - chop)?;
    file.sync_all()?;
    Ok(chop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn rec(i: u64) -> WalRecord {
        WalRecord {
            commit_index: i,
            uuid_counter: 10 * i,
            ops: json!({"Port": {}}),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_scan_roundtrip() {
        let mut image = Vec::new();
        for i in 1..=3 {
            image.extend_from_slice(&rec(i).encode());
        }
        let report = scan(&image).unwrap();
        let records: Vec<WalRecord> = report.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(records, vec![rec(1), rec(2), rec(3)]);
        assert_eq!(report.torn_at, None);
        assert_eq!(report.valid_bytes, image.len() as u64);
    }

    #[test]
    fn torn_tail_is_detected_not_fatal() {
        let mut image = rec(1).encode();
        let full = rec(2).encode();
        let boundary = image.len();
        image.extend_from_slice(&full[..full.len() - 3]);
        let report = scan(&image).unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.torn_at, Some(boundary as u64));
        assert_eq!(report.valid_bytes, boundary as u64);
    }

    #[test]
    fn corrupt_interior_is_refused() {
        let mut image = rec(1).encode();
        let boundary = image.len();
        image.extend_from_slice(&rec(2).encode());
        // Flip a payload byte of record 1 (interior).
        image[RECORD_HEADER_LEN + 2] ^= 0xFF;
        match scan(&image) {
            Err(WalError::CorruptRecord { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        // Flip a byte of the *final* record instead: that is a torn
        // tail, not corruption.
        let mut image2 = rec(1).encode();
        image2.extend_from_slice(&rec(2).encode());
        let last = image2.len() - 1;
        image2[last] ^= 0xFF;
        let report = scan(&image2).unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.torn_at, Some(boundary as u64));
    }

    #[test]
    fn non_contiguous_index_is_refused() {
        let mut image = rec(1).encode();
        image.extend_from_slice(&rec(3).encode());
        assert!(matches!(scan(&image), Err(WalError::CorruptRecord { .. })));
    }

    #[test]
    fn final_record_span_and_tear() {
        let r1 = rec(1).encode();
        let r2 = rec(2).encode();
        let mut image = r1.clone();
        image.extend_from_slice(&r2);
        let (start, end) = final_record_span(&image).unwrap();
        assert_eq!(start, r1.len() as u64);
        assert_eq!(end, image.len() as u64);

        let dir = std::env::temp_dir().join(format!("nerpa-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tear.log");
        std::fs::write(&path, &image).unwrap();
        // Chop request larger than the final record is clamped to it.
        let chopped = tear_tail(&path, 1 << 20).unwrap();
        assert_eq!(chopped, r2.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), r1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
