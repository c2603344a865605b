//! Snapshot compaction: atomic full-state snapshots that bound WAL
//! replay time.
//!
//! Once the log exceeds its configured threshold the database writes its
//! entire state — every table's rows plus the UUID/transaction counters
//! — as a single JSON document, using the classic write-temp + fsync +
//! rename dance so a crash at any instant leaves either the old snapshot
//! or the new one, never a half-written file. The WAL prefix the
//! snapshot covers is then truncated; recovery loads the snapshot and
//! replays only the suffix, which is byte-equivalent to replaying the
//! full log from genesis.
//!
//! The rows are stored in the one format the log also uses: the initial
//! `table-updates` of a monitor on every table and column (every row an
//! insert). Recovery decodes and applies them exactly as it does a WAL
//! record, so this module only frames the document.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use serde_json::{json, Value as Json};

use crate::db::Database;
use crate::monitor::Monitor;
use crate::schema::Schema;
use crate::wal::WalError;

/// Name of the snapshot file inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Format tag embedded in (and required of) every snapshot document.
pub const SNAPSHOT_FORMAT: &str = "nerpa-ovsdb-snapshot-v2";

/// A snapshot document, checked for its framing and ready to apply to a
/// fresh [`Database`].
#[derive(Debug, Clone, Default)]
pub struct SnapshotState {
    /// Commit index (== transaction counter) at snapshot time.
    pub commit_index: u64,
    /// UUID counter at snapshot time.
    pub uuid_counter: u64,
    /// Every row, as the `table-updates` object [`encode`] wrote.
    pub tables: Json,
}

/// Encode the full state of `db` as a snapshot document; `log` is the
/// monitor on every table and column ([`Monitor::all`]).
pub fn encode(db: &Database, log: &Monitor) -> Json {
    let mut doc = json!({
        "format": SNAPSHOT_FORMAT,
        "schema": db.schema().name,
        "commit_index": db.commit_index(),
        "uuid_counter": db.uuid_counter(),
    });
    if let Some(obj) = doc.as_object_mut() {
        obj.insert("tables".to_string(), log.initial_state(db));
    }
    doc
}

/// Atomically write `db`'s state as `dir/snapshot.json`:
/// write `snapshot.json.tmp`, fsync it, rename over the live name, fsync
/// the directory. A crash at any point leaves a complete snapshot (old
/// or new) on disk.
pub fn write_atomic(dir: &Path, db: &Database, log: &Monitor) -> Result<(), WalError> {
    let doc = encode(db, log);
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let live = dir.join(SNAPSHOT_FILE);
    let bytes = serde_json::to_vec(&doc).expect("snapshot serializes");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &live)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all(); // directory fsync: best-effort off Linux
    }
    Ok(())
}

/// Load `dir/snapshot.json` if present, checking its format tag, schema
/// name and counters; the rows are checked when they are applied.
/// Returns `Ok(None)` when no snapshot exists.
pub fn load(dir: &Path, schema: &Schema) -> Result<Option<SnapshotState>, WalError> {
    let path = dir.join(SNAPSHOT_FILE);
    let raw = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(WalError::Io(e)),
    };
    let doc: Json = serde_json::from_slice(&raw)
        .map_err(|e| WalError::CorruptSnapshot(format!("bad json: {e}")))?;
    let fail = |reason: String| Err(WalError::CorruptSnapshot(reason));
    let Json::Object(mut doc) = doc else {
        return fail("not an object".to_string());
    };
    if doc.get("format").and_then(Json::as_str) != Some(SNAPSHOT_FORMAT) {
        return fail(format!("missing format tag {SNAPSHOT_FORMAT:?}"));
    }
    if doc.get("schema").and_then(Json::as_str) != Some(schema.name.as_str()) {
        return fail(format!(
            "snapshot is for database {:?}, expected {:?}",
            doc.get("schema"),
            schema.name
        ));
    }
    let Some(commit_index) = doc.get("commit_index").and_then(Json::as_u64) else {
        return fail("missing commit_index".to_string());
    };
    let Some(uuid_counter) = doc.get("uuid_counter").and_then(Json::as_u64) else {
        return fail("missing uuid_counter".to_string());
    };
    let Some(tables) = doc.remove("tables") else {
        return fail("missing tables".to_string());
    };
    Ok(Some(SnapshotState {
        commit_index,
        uuid_counter,
        tables,
    }))
}
