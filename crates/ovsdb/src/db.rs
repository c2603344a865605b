//! The transactional database: tables, operations, atomicity, referential
//! integrity, and garbage collection (RFC 7047 §4–§5).
//!
//! Transactions execute against a copy-on-write overlay; an error in any
//! operation discards the overlay, giving all-or-nothing semantics.
//! Committed changes are reported as [`RowChange`]s, the feed for
//! [`crate::monitor`] streams — the property Nerpa's controller relies on
//! ("OVSDB ... can stream a database's ongoing series of changes, grouped
//! into transactions, to a subscriber", §4.1 of the paper). A durable
//! database logs that same stream: each WAL record is a commit's changes
//! in the monitor format, and one apply path serves a live commit, a
//! replayed record and a restored snapshot.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde_json::{json, Map, Value as Json};

use crate::datum::{Atom, Datum, Uuid};
use crate::monitor::{decode_table_updates, Monitor};
use crate::schema::{ColumnType, Schema, TableSchema};
use crate::snapshot;
use crate::wal::{self, DurabilityConfig, Wal, WalError, WalRecord, WAL_FILE};

/// The column values of one row (without its UUID).
pub type RowData = BTreeMap<String, Datum>;

/// One row's change in a committed transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChange {
    /// Table name.
    pub table: String,
    /// Row UUID.
    pub uuid: Uuid,
    /// Contents before the transaction (`None` = row inserted).
    pub old: Option<Arc<RowData>>,
    /// Contents after the transaction (`None` = row deleted).
    pub new: Option<Arc<RowData>>,
}

/// One table's storage, with maintained uniqueness indexes.
#[derive(Debug, Clone, Default)]
struct Table {
    rows: HashMap<Uuid, Arc<RowData>>,
    /// index columns → projection → row uuid.
    unique: HashMap<Vec<String>, HashMap<Vec<Datum>, Uuid>>,
}

impl Table {
    fn project(cols: &[String], row: &RowData) -> Vec<Datum> {
        cols.iter()
            .map(|c| row.get(c).cloned().unwrap_or_else(Datum::empty))
            .collect()
    }
}

/// The attached durability layer: an open WAL plus its directory and
/// policy. Present only on databases created with [`Database::open`].
struct Durability {
    dir: PathBuf,
    wal: Wal,
    cfg: DurabilityConfig,
    /// The monitor on every table and column: formats each commit's
    /// record and the snapshot's rows.
    log: Monitor,
}

/// What [`Database::open`] found and did while recovering.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Commit index restored from the snapshot (0 = no snapshot).
    pub snapshot_commit_index: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Whether a torn tail was detected and truncated.
    pub truncated_tail: bool,
    /// Valid log bytes retained after recovery.
    pub wal_bytes: u64,
    /// Wall time spent loading + replaying.
    pub replay_duration: std::time::Duration,
    /// The part of `replay_duration` spent loading and applying the
    /// snapshot (zero without one).
    pub snapshot_duration: std::time::Duration,
}

/// An OVSDB-style transactional database.
pub struct Database {
    schema: Schema,
    tables: BTreeMap<String, Table>,
    uuid_counter: u64,
    /// True when the schema uses references or non-root tables, requiring
    /// the integrity/GC pass after each transaction.
    needs_gc: bool,
    /// Monotonic transaction counter.
    pub txn_counter: u64,
    /// Rows transactions have read so far (see [`Database::rows_examined`]).
    rows_examined: u64,
    /// Write-ahead log, when this database is durable.
    durability: Option<Durability>,
}

impl Database {
    /// Create an empty database for `schema`.
    pub fn new(schema: Schema) -> Database {
        let tables = schema
            .tables
            .keys()
            .map(|n| {
                let mut t = Table::default();
                for ix in &schema.tables[n].indexes {
                    t.unique.insert(ix.clone(), HashMap::new());
                }
                (n.clone(), t)
            })
            .collect();
        let needs_gc = schema.tables.values().any(|t| {
            !t.is_root
                || t.columns.values().any(|c| {
                    c.ty.key.ref_table.is_some()
                        || c.ty.value.as_ref().is_some_and(|v| v.ref_table.is_some())
                })
        });
        Database {
            schema,
            tables,
            uuid_counter: 0,
            needs_gc,
            txn_counter: 0,
            rows_examined: 0,
            durability: None,
        }
    }

    /// Open (or create) a **durable** database in directory `dir`:
    /// load the snapshot if one exists, replay the write-ahead log on
    /// top of it (truncating a torn tail, refusing corrupt interiors),
    /// and arm WAL appends for every future committed transaction.
    ///
    /// Replay happens before this returns, so a server built on the
    /// recovered database serves monitors from crash-consistent state
    /// from its first accepted connection. While replaying, the
    /// `ovsdb_wal` health component reports `replaying(...)` (degraded);
    /// it flips to `ok(...)` on success.
    pub fn open(
        dir: &Path,
        schema: Schema,
        cfg: DurabilityConfig,
    ) -> Result<(Database, RecoveryReport), WalError> {
        std::fs::create_dir_all(dir)?;
        let health = &telemetry::global().health;
        health.set("ovsdb_wal", format!("replaying({})", dir.display()));
        let result = Database::recover(dir, schema, cfg);
        match &result {
            Ok((_, report)) => {
                telemetry::catalogue::OVSDB_RECOVER.record(
                    0,
                    &[
                        ("snapshot_commit_index", report.snapshot_commit_index),
                        ("replayed_records", report.replayed_records),
                        ("truncated_tail", report.truncated_tail as u64),
                        ("replay_us", report.replay_duration.as_micros() as u64),
                    ],
                );
                if report.truncated_tail {
                    // Crash recovery that lost a tail is a failure
                    // signal: snapshot the black box if armed.
                    telemetry::failure_signal(
                        "crash-recovery",
                        &format!("torn WAL tail truncated in {}", dir.display()),
                    );
                }
                health.set(
                    "ovsdb_wal",
                    format!(
                        "ok(replayed {} records in {} us{})",
                        report.replayed_records,
                        report.replay_duration.as_micros(),
                        if report.truncated_tail {
                            ", torn tail truncated"
                        } else {
                            ""
                        }
                    ),
                );
            }
            Err(e) => health.set("ovsdb_wal", format!("degraded({e})")),
        }
        result
    }

    fn recover(
        dir: &Path,
        schema: Schema,
        cfg: DurabilityConfig,
    ) -> Result<(Database, RecoveryReport), WalError> {
        let started = std::time::Instant::now();
        let mut report = RecoveryReport::default();
        // The log's framing first: a damaged log is refused before the
        // snapshot is read.
        let wal_path = dir.join(WAL_FILE);
        let image = match std::fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(WalError::Io(e)),
        };
        let scan = wal::scan(&image)?;
        drop(image);

        let mut db = Database::new(schema);
        let snapshot_started = std::time::Instant::now();
        if let Some(snap) = snapshot::load(dir, db.schema())? {
            db.replay(&snap.tables).map_err(WalError::CorruptSnapshot)?;
            db.uuid_counter = snap.uuid_counter;
            db.txn_counter = snap.commit_index;
            report.snapshot_commit_index = snap.commit_index;
        }
        report.snapshot_duration = snapshot_started.elapsed();

        report.truncated_tail = scan.torn_at.is_some();
        for (offset, record) in &scan.records {
            if record.commit_index <= report.snapshot_commit_index {
                // The snapshot already covers this record (a crash
                // between snapshot rename and log truncation leaves an
                // overlapping prefix).
                continue;
            }
            let corrupt = |reason: String| WalError::CorruptRecord {
                offset: *offset,
                reason,
            };
            if db.txn_counter.checked_add(1) != Some(record.commit_index) {
                return Err(corrupt(format!(
                    "gap between snapshot (commit {}) and WAL record {}",
                    db.txn_counter, record.commit_index
                )));
            }
            db.replay(&record.ops)
                .map_err(|e| corrupt(format!("commit {}: {e}", record.commit_index)))?;
            db.uuid_counter = record.uuid_counter;
            db.txn_counter = record.commit_index;
            report.replayed_records += 1;
        }
        let wal = Wal::open(&wal_path, cfg.fsync, scan.valid_bytes)?;
        report.wal_bytes = wal.bytes;
        report.replay_duration = started.elapsed();
        db.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal,
            cfg,
            log: Monitor::all(db.schema()),
        });
        Ok((db, report))
    }

    /// Apply a logged `table-updates` object — a WAL record's or the
    /// snapshot's rows. The monitor decoder skips tables and columns the
    /// schema lacks, so names are checked here first: a log naming one
    /// was written against another schema.
    fn replay(&mut self, updates: &Json) -> Result<(), String> {
        for (tname, rows) in updates.as_object().into_iter().flatten() {
            let ts = self
                .schema
                .table(tname)
                .ok_or_else(|| format!("unknown table {tname:?}"))?;
            for update in rows.as_object().into_iter().flat_map(|r| r.values()) {
                for half in ["old", "new"] {
                    let row = update.get(half).and_then(Json::as_object);
                    for cname in row.into_iter().flat_map(|r| r.keys()) {
                        if !ts.columns.contains_key(cname) {
                            return Err(format!("unknown column {tname}.{cname}"));
                        }
                    }
                }
            }
        }
        let changes = decode_table_updates(updates, &self.schema)?.changes;
        self.apply(&changes)
    }

    /// Apply committed row changes. This is the one writer of
    /// `Table::rows` and `Table::unique` after [`Database::new`]: a live
    /// commit, a replayed WAL record and a restored snapshot all come
    /// through here. Each change must start from the row the table
    /// holds — none for an insert, otherwise one equal to `change.old`;
    /// a change that does not was computed against another state (a
    /// corrupt log), and is refused before it is applied. So is a commit
    /// that leaves two rows with one index value: an insert that takes
    /// over another row's entry is checked once the whole commit is in,
    /// since the order of changes within a commit does not matter (two
    /// rows may swap values).
    fn apply(&mut self, changes: &[RowChange]) -> Result<(), String> {
        let mut displaced = Vec::new();
        for change in changes {
            let (tname, uuid) = (&change.table, change.uuid);
            let table = self
                .tables
                .get_mut(tname)
                .ok_or_else(|| format!("unknown table {tname:?}"))?;
            match (table.rows.get(&uuid), &change.old) {
                (None, None) => {}
                (Some(cur), Some(old)) if Arc::ptr_eq(cur, old) || cur == old => {}
                (Some(_), None) => return Err(format!("insert of existing {tname} row {uuid}")),
                (None, Some(_)) => return Err(format!("change of absent {tname} row {uuid}")),
                (Some(_), Some(_)) => {
                    return Err(format!(
                        "{tname} row {uuid} does not hold the change's old row"
                    ))
                }
            }
            for (cols, index) in table.unique.iter_mut() {
                if let Some(old) = &change.old {
                    // Only this row's own entry: another row of the same
                    // commit may already have taken the projection over.
                    let proj = Table::project(cols, old);
                    if index.get(&proj) == Some(&uuid) {
                        index.remove(&proj);
                    }
                }
                if let Some(new) = &change.new {
                    match index.insert(Table::project(cols, new), uuid) {
                        Some(other) if other != uuid => displaced.push((
                            tname,
                            cols.clone(),
                            Table::project(cols, new),
                            other,
                            uuid,
                        )),
                        _ => {}
                    }
                }
            }
            match &change.new {
                Some(row) => table.rows.insert(uuid, row.clone()),
                None => table.rows.remove(&uuid),
            };
        }
        for (tname, cols, proj, other, uuid) in displaced {
            let table = &self.tables[tname];
            if let Some(row) = table.rows.get(&other) {
                if Table::project(&cols, row) == proj {
                    return Err(format!(
                        "{tname} rows {other} and {uuid} share index {cols:?} value"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The monotonic commit index: the number of transactions ever
    /// committed (durable or not). A restarted server that lost state
    /// reports a *lower* index than its predecessor — the signal
    /// supervisors use to detect an epoch reset.
    pub fn commit_index(&self) -> u64 {
        self.txn_counter
    }

    /// The rows transactions have examined, cumulative over every
    /// transaction (aborted ones too): each candidate a `where` tested
    /// plus each row the integrity pass visited. A transaction's work is
    /// the difference across it; a one-row `where` over a declared index
    /// examines that row and the rows the transaction already touched,
    /// whatever the table's size.
    pub fn rows_examined(&self) -> u64 {
        self.rows_examined
    }

    /// The UUID counter (exposed for snapshot encoding).
    pub(crate) fn uuid_counter(&self) -> u64 {
        self.uuid_counter
    }

    /// Path of the write-ahead log, when durable.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.durability.as_ref().map(|d| d.dir.join(WAL_FILE))
    }

    /// Current WAL length in bytes (0 when not durable).
    pub fn wal_bytes(&self) -> u64 {
        self.durability.as_ref().map(|d| d.wal.bytes).unwrap_or(0)
    }

    /// Force a snapshot compaction now: atomically write the full state
    /// and truncate the log. No-op on a non-durable database.
    pub fn compact(&mut self) -> Result<(), WalError> {
        let Some(d) = self.durability.take() else {
            return Ok(());
        };
        // Detach while encoding so `encode` sees a plain database; the
        // layer is restored no matter how the write goes.
        let result = snapshot::write_atomic(&d.dir, self, &d.log);
        self.durability = Some(d);
        result?;
        self.durability.as_mut().unwrap().wal.reset()?;
        telemetry::catalogue::WAL_COMPACT.record(
            0,
            &[
                ("commit_index", self.txn_counter),
                ("tables", self.tables.len() as u64),
            ],
        );
        Ok(())
    }

    /// The database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows in a table (0 for unknown tables).
    pub fn table_len(&self, table: &str) -> usize {
        self.tables.get(table).map(|t| t.rows.len()).unwrap_or(0)
    }

    /// Get a row.
    pub fn get_row(&self, table: &str, uuid: Uuid) -> Option<&Arc<RowData>> {
        self.tables.get(table)?.rows.get(&uuid)
    }

    /// Iterate over the rows of a table.
    pub fn rows(&self, table: &str) -> impl Iterator<Item = (&Uuid, &Arc<RowData>)> {
        self.tables
            .get(table)
            .into_iter()
            .flat_map(|t| t.rows.iter())
    }

    /// Export the current contents of `tables` as a monitor-style
    /// initial `table-updates` object — byte-for-byte what a fresh
    /// `monitor` call on this database would return. This is the
    /// in-process snapshot hook the differential oracle resyncs against.
    pub fn monitor_snapshot(&self, tables: &[&str]) -> Result<Json, String> {
        let mut requests = Map::new();
        for t in tables {
            requests.insert((*t).to_string(), Json::Object(Map::new()));
        }
        let mon = crate::monitor::Monitor::parse(&Json::Object(requests), self)?;
        Ok(mon.initial_state(self))
    }

    /// Execute a transaction: a JSON array of operations. Returns the
    /// per-operation results plus the committed row changes (empty when
    /// the transaction aborted — the results array then contains the
    /// error).
    pub fn transact(&mut self, ops: &Json) -> (Json, Vec<RowChange>) {
        let ops = match ops.as_array() {
            Some(a) => a,
            None => {
                return (
                    json!([{"error": "syntax error", "details": "params must be an array"}]),
                    vec![],
                )
            }
        };
        let mut txn = Txn {
            db: self,
            overlay: HashMap::new(),
            named: HashMap::new(),
            results: Vec::new(),
        };
        let mut failed = false;
        for op in ops {
            match txn.execute(op) {
                Ok(result) => txn.results.push(result),
                Err(e) => {
                    txn.results.push(json!({"error": "aborted", "details": e}));
                    failed = true;
                    break;
                }
            }
        }
        if !failed {
            if let Err(e) = txn.integrity_and_gc() {
                txn.results
                    .push(json!({"error": "constraint violation", "details": e}));
                failed = true;
            }
        }
        if !failed {
            if let Err(e) = txn.check_unique() {
                txn.results
                    .push(json!({"error": "constraint violation", "details": e}));
                failed = true;
            }
        }
        let results = std::mem::take(&mut txn.results);
        if failed {
            return (Json::Array(results), vec![]);
        }
        let overlay = std::mem::take(&mut txn.overlay);
        let changes = self.changes_of(overlay);
        // Write-ahead: the record must be durable before the state
        // mutates, so a crash at any instant leaves either (a) no
        // record and no state change — the client never got a reply —
        // or (b) a full record that recovery replays. A torn tail is
        // case (a) by construction. A commit that changed no row still
        // logs `{}`, so commit indices stay contiguous.
        if let Some(d) = self.durability.as_mut() {
            let record = WalRecord {
                commit_index: self.txn_counter + 1,
                uuid_counter: self.uuid_counter,
                ops: d.log.format_changes(&changes).unwrap_or_else(|| json!({})),
            };
            if let Err(e) = d.wal.append(&record) {
                telemetry::catalogue::WAL_APPEND_ERROR.record_note(
                    0,
                    &[("commit_index", record.commit_index)],
                    e.to_string(),
                );
                return (
                    json!([{"error": "io error", "details": e.to_string()}]),
                    vec![],
                );
            }
        }
        self.apply(&changes)
            .expect("a commit's changes are read from the state they apply to");
        self.txn_counter += 1;
        self.maybe_compact();
        (Json::Array(results), changes)
    }

    /// Compact when the WAL has outgrown its configured threshold. A
    /// compaction failure is recorded but does not fail the (already
    /// durable) transaction.
    fn maybe_compact(&mut self) {
        let due = self
            .durability
            .as_ref()
            .is_some_and(|d| d.wal.bytes > d.cfg.snapshot_after_bytes);
        if due {
            if let Err(e) = self.compact() {
                telemetry::catalogue::WAL_COMPACT_ERROR.record_note(
                    0,
                    &[("commit_index", self.txn_counter)],
                    e.to_string(),
                );
            }
        }
    }

    /// The row changes a transaction's overlay commits, each `old` read
    /// from the table; the database itself is not touched. An overlay
    /// entry that leaves its row as it was is no change.
    fn changes_of(&self, overlay: HashMap<(String, Uuid), Option<Arc<RowData>>>) -> Vec<RowChange> {
        let mut changes: Vec<RowChange> = overlay
            .into_iter()
            .filter_map(|((table, uuid), new)| {
                let old = self.tables[&table].rows.get(&uuid).cloned();
                (old != new).then_some(RowChange {
                    table,
                    uuid,
                    old,
                    new,
                })
            })
            .collect();
        // Deterministic order for downstream consumers.
        changes.sort_by(|a, b| (&a.table, a.uuid).cmp(&(&b.table, b.uuid)));
        changes
    }
}

/// An in-flight transaction: overlay over the database.
struct Txn<'a> {
    db: &'a mut Database,
    /// (table, uuid) → new contents (`None` = deleted). Only touched rows
    /// appear here.
    overlay: HashMap<(String, Uuid), Option<Arc<RowData>>>,
    named: HashMap<String, Uuid>,
    results: Vec<Json>,
}

impl<'a> Txn<'a> {
    fn table_schema(&self, name: &str) -> Result<&TableSchema, String> {
        self.db
            .schema
            .tables
            .get(name)
            .ok_or_else(|| format!("no table {name:?}"))
    }

    /// Current contents of a row, overlay-aware.
    fn get(&self, table: &str, uuid: Uuid) -> Option<Arc<RowData>> {
        match self.overlay.get(&(table.to_string(), uuid)) {
            Some(v) => v.clone(),
            None => self.db.tables.get(table)?.rows.get(&uuid).cloned(),
        }
    }

    /// All visible row uuids of a table, overlay-aware.
    fn all_uuids(&self, table: &str) -> Vec<Uuid> {
        let mut set: HashSet<Uuid> = self
            .db
            .tables
            .get(table)
            .map(|t| t.rows.keys().copied().collect())
            .unwrap_or_default();
        for ((t, u), v) in &self.overlay {
            if t == table {
                if v.is_some() {
                    set.insert(*u);
                } else {
                    set.remove(u);
                }
            }
        }
        let mut v: Vec<Uuid> = set.into_iter().collect();
        v.sort();
        v
    }

    /// Visible row count of a table, overlay-aware, without scanning the
    /// base table (O(|overlay|)).
    fn visible_count(&self, table: &str) -> usize {
        let base = self.db.tables.get(table).map(|t| t.rows.len()).unwrap_or(0);
        let mut n = base as isize;
        for ((t, u), v) in &self.overlay {
            if t == table {
                let in_base = self
                    .db
                    .tables
                    .get(table)
                    .is_some_and(|tb| tb.rows.contains_key(u));
                match (in_base, v.is_some()) {
                    (false, true) => n += 1,
                    (true, false) => n -= 1,
                    _ => {}
                }
            }
        }
        n.max(0) as usize
    }

    fn put(&mut self, table: &str, uuid: Uuid, row: Option<Arc<RowData>>) {
        self.overlay.insert((table.to_string(), uuid), row);
    }

    fn execute(&mut self, op: &Json) -> Result<Json, String> {
        let o = op.as_object().ok_or("operation must be an object")?;
        let opname = o
            .get("op")
            .and_then(Json::as_str)
            .ok_or("operation needs \"op\"")?;
        match opname {
            "insert" => self.op_insert(o),
            "select" => self.op_select(o),
            "update" => self.op_update(o),
            "mutate" => self.op_mutate(o),
            "delete" => self.op_delete(o),
            "wait" => self.op_wait(o),
            "comment" => Ok(json!({})),
            "abort" => Err("aborted by request".to_string()),
            other => Err(format!("unknown operation {other:?}")),
        }
    }

    fn parse_row(
        &self,
        ts: &TableSchema,
        row_json: &Json,
        defaults: bool,
    ) -> Result<RowData, String> {
        let obj = row_json.as_object().ok_or("\"row\" must be an object")?;
        let mut row = RowData::new();
        for (cname, cval) in obj {
            let cs = ts
                .columns
                .get(cname)
                .ok_or_else(|| format!("no column {cname:?} in table {:?}", ts.name))?;
            let named = |n: &str| self.named.get(n).copied();
            let datum = datum_from_json(cval, &cs.ty, &named)?;
            cs.ty
                .validate(&datum)
                .map_err(|e| format!("column {cname}: {e}"))?;
            row.insert(cname.clone(), datum);
        }
        if defaults {
            for (cname, cs) in &ts.columns {
                if !row.contains_key(cname) {
                    let d = cs.ty.default_datum();
                    cs.ty.validate(&d).map_err(|e| {
                        format!("column {cname} missing and has no valid default: {e}")
                    })?;
                    row.insert(cname.clone(), d);
                }
            }
        }
        Ok(row)
    }

    fn op_insert(&mut self, o: &Map<String, Json>) -> Result<Json, String> {
        let tname = o
            .get("table")
            .and_then(Json::as_str)
            .ok_or("insert needs \"table\"")?;
        let ts = self.table_schema(tname)?.clone();
        let empty = json!({});
        let row_json = o.get("row").unwrap_or(&empty);
        let row = self.parse_row(&ts, row_json, true)?;
        self.db.uuid_counter += 1;
        let uuid = Uuid::from_counter(self.db.uuid_counter, self.db.txn_counter);
        if let Some(name) = o.get("uuid-name").and_then(Json::as_str) {
            if self.named.contains_key(name) {
                return Err(format!("duplicate uuid-name {name:?}"));
            }
            self.named.insert(name.to_string(), uuid);
        }
        if ts.max_rows != usize::MAX && self.visible_count(tname) + 1 > ts.max_rows {
            return Err(format!("table {tname:?} is full (maxRows)"));
        }
        self.put(tname, uuid, Some(Arc::new(row)));
        Ok(json!({"uuid": ["uuid", uuid.to_string()]}))
    }

    /// Evaluate a `where` clause, returning the matching row uuids in
    /// ascending order.
    fn eval_where(&mut self, ts: &TableSchema, where_json: &Json) -> Result<Vec<Uuid>, String> {
        let conds = where_json.as_array().ok_or("\"where\" must be an array")?;
        // Validate every condition's shape against the column type, then
        // parse every argument, once and before any row is read — so
        // whether a `where` fails never depends on the rows it reaches,
        // and testing a row only compares datums.
        let mut shapes = Vec::with_capacity(conds.len());
        for cond in conds {
            let c = cond
                .as_array()
                .ok_or("condition must be [column, function, value]")?;
            if c.len() != 3 {
                return Err("condition must have 3 elements".to_string());
            }
            let col = c[0].as_str().ok_or("condition column must be a string")?;
            let cty = match ts.columns.get(col) {
                _ if col == "_uuid" => ColumnType::scalar(crate::datum::AtomType::Uuid),
                Some(cs) => cs.ty.clone(),
                None => return Err(format!("no column {col:?}")),
            };
            let func = c[1].as_str().ok_or("condition function must be a string")?;
            if !matches!(
                func,
                "==" | "!=" | "<" | "<=" | ">" | ">=" | "includes" | "excludes"
            ) {
                return Err(format!("unknown condition function {func:?}"));
            }
            shapes.push((col, func, cty, &c[2]));
        }
        let named = |n: &str| self.named.get(n).copied();
        let parsed = shapes
            .into_iter()
            .map(|(col, func, cty, arg)| {
                let arg = datum_from_json(arg, &cty, &named)?;
                match func {
                    "<" | "<=" | ">" | ">=" if !cty.is_scalar() || arg.as_scalar().is_none() => {
                        Err(format!("{func} requires a scalar column and argument"))
                    }
                    "includes" | "excludes" if cty.is_map() != matches!(arg, Datum::Map(_)) => Err(
                        format!("{func} requires an argument of column {col}'s kind"),
                    ),
                    _ => Ok((col, func, arg)),
                }
            })
            .collect::<Result<Vec<(&str, &str, Datum)>, String>>()?;
        let mut examined = 0;
        let mut out: Vec<Uuid> = self
            .candidates(ts, &parsed)
            .inspect(|_| examined += 1)
            .filter(|(uuid, row)| {
                parsed.iter().all(|(col, func, arg)| {
                    let datum = match row.get(*col) {
                        _ if *col == "_uuid" => Cow::Owned(Datum::scalar(Atom::Uuid(*uuid))),
                        Some(d) => Cow::Borrowed(d),
                        None => Cow::Owned(Datum::empty()),
                    };
                    eval_condition(&datum, func, arg)
                })
            })
            .map(|(uuid, _)| uuid)
            .collect();
        out.sort_unstable();
        self.db.rows_examined += examined;
        Ok(out)
    }

    /// The visible rows a `where` must test. When its `==` conditions
    /// cover `_uuid` or every column of a declared index, the base table
    /// holds at most one matching row — the one `Table::unique` maps the
    /// projection to — else every base row is a candidate. Either way the
    /// base rows the overlay shadows give way to the overlay's visible
    /// rows. The plan only narrows which rows are tested, never decides a
    /// match: the caller tests every candidate against every condition.
    fn candidates<'s>(
        &'s self,
        ts: &TableSchema,
        conds: &[(&str, &str, Datum)],
    ) -> impl Iterator<Item = (Uuid, &'s Arc<RowData>)> + 's {
        let eq = |col: &str| {
            conds
                .iter()
                .find(|(c, f, _)| *c == col && *f == "==")
                .map(|(_, _, arg)| arg)
        };
        let table = &self.db.tables[&ts.name];
        // `None`: scan; `Some(hit)`: the one base row that can match.
        let planned: Option<Option<Uuid>> = match eq("_uuid") {
            Some(arg) => Some(match arg.as_scalar() {
                Some(Atom::Uuid(u)) => Some(*u),
                _ => None,
            }),
            None => ts.indexes.iter().find_map(|cols| {
                let key = cols
                    .iter()
                    .map(|c| eq(c).cloned())
                    .collect::<Option<Vec<_>>>()?;
                Some(table.unique[cols].get(&key).copied())
            }),
        };
        let (hit, scan) = match planned {
            Some(hit) => (hit.and_then(|u| table.rows.get_key_value(&u)), None),
            None => (None, Some(table.rows.iter())),
        };
        let name = ts.name.clone();
        let overlay = self.overlay.iter().filter(move |((t, _), _)| *t == name);
        let shadowed: HashSet<Uuid> = overlay.clone().map(|((_, u), _)| *u).collect();
        hit.into_iter()
            .chain(scan.into_iter().flatten())
            .filter(move |(u, _)| !shadowed.contains(u))
            .map(|(u, row)| (*u, row))
            .chain(overlay.filter_map(|((_, u), row)| Some((*u, row.as_ref()?))))
    }

    fn op_select(&mut self, o: &Map<String, Json>) -> Result<Json, String> {
        let tname = o
            .get("table")
            .and_then(Json::as_str)
            .ok_or("select needs \"table\"")?;
        let ts = self.table_schema(tname)?.clone();
        let empty = json!([]);
        let matches = self.eval_where(&ts, o.get("where").unwrap_or(&empty))?;
        let columns: Option<Vec<String>> = o.get("columns").and_then(Json::as_array).map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        });
        let mut rows = Vec::new();
        for uuid in matches {
            let row = self.get(tname, uuid).unwrap();
            rows.push(row_to_json(uuid, &row, columns.as_deref()));
        }
        Ok(json!({"rows": rows}))
    }

    fn op_update(&mut self, o: &Map<String, Json>) -> Result<Json, String> {
        let tname = o
            .get("table")
            .and_then(Json::as_str)
            .ok_or("update needs \"table\"")?;
        let ts = self.table_schema(tname)?.clone();
        let row_json = o.get("row").ok_or("update needs \"row\"")?;
        let updates = self.parse_row(&ts, row_json, false)?;
        let empty = json!([]);
        let matches = self.eval_where(&ts, o.get("where").unwrap_or(&empty))?;
        for uuid in &matches {
            let mut row = (*self.get(tname, *uuid).unwrap()).clone();
            for (c, d) in &updates {
                row.insert(c.clone(), d.clone());
            }
            self.put(tname, *uuid, Some(Arc::new(row)));
        }
        Ok(json!({"count": matches.len()}))
    }

    fn op_mutate(&mut self, o: &Map<String, Json>) -> Result<Json, String> {
        let tname = o
            .get("table")
            .and_then(Json::as_str)
            .ok_or("mutate needs \"table\"")?;
        let ts = self.table_schema(tname)?.clone();
        let muts = o
            .get("mutations")
            .and_then(Json::as_array)
            .ok_or("mutate needs \"mutations\"")?
            .clone();
        let empty = json!([]);
        let matches = self.eval_where(&ts, o.get("where").unwrap_or(&empty))?;
        for uuid in &matches {
            let mut row = (*self.get(tname, *uuid).unwrap()).clone();
            for m in &muts {
                let m = m
                    .as_array()
                    .ok_or("mutation must be [column, mutator, value]")?;
                if m.len() != 3 {
                    return Err("mutation must have 3 elements".to_string());
                }
                let col = m[0].as_str().ok_or("mutation column must be a string")?;
                let mutator = m[1].as_str().ok_or("mutator must be a string")?;
                let cs = ts
                    .columns
                    .get(col)
                    .ok_or_else(|| format!("no column {col:?}"))?;
                let cur = row
                    .get(col)
                    .cloned()
                    .unwrap_or_else(|| cs.ty.default_datum());
                let named = |n: &str| self.named.get(n).copied();
                let new = apply_mutation(&cur, mutator, &m[2], &cs.ty, &named)?;
                cs.ty
                    .validate(&new)
                    .map_err(|e| format!("column {col}: {e}"))?;
                row.insert(col.to_string(), new);
            }
            self.put(tname, *uuid, Some(Arc::new(row)));
        }
        Ok(json!({"count": matches.len()}))
    }

    fn op_delete(&mut self, o: &Map<String, Json>) -> Result<Json, String> {
        let tname = o
            .get("table")
            .and_then(Json::as_str)
            .ok_or("delete needs \"table\"")?;
        let ts = self.table_schema(tname)?.clone();
        let empty = json!([]);
        let matches = self.eval_where(&ts, o.get("where").unwrap_or(&empty))?;
        for uuid in &matches {
            self.put(tname, *uuid, None);
        }
        Ok(json!({"count": matches.len()}))
    }

    /// Non-blocking `wait`: succeeds iff the condition already holds.
    fn op_wait(&mut self, o: &Map<String, Json>) -> Result<Json, String> {
        let tname = o
            .get("table")
            .and_then(Json::as_str)
            .ok_or("wait needs \"table\"")?;
        let ts = self.table_schema(tname)?.clone();
        let empty = json!([]);
        let matches = self.eval_where(&ts, o.get("where").unwrap_or(&empty))?;
        let until = o.get("until").and_then(Json::as_str).unwrap_or("==");
        let expected = o
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("wait needs \"rows\"")?;
        let columns: Option<Vec<String>> = o.get("columns").and_then(Json::as_array).map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        });
        // Compare the matched rows (projected) against the expected rows.
        let mut actual: Vec<RowData> = Vec::new();
        for uuid in matches {
            let row = self.get(tname, uuid).unwrap();
            let projected: RowData = match &columns {
                Some(cols) => cols
                    .iter()
                    .filter_map(|c| row.get(c).map(|d| (c.clone(), d.clone())))
                    .collect(),
                None => (*row).clone(),
            };
            actual.push(projected);
        }
        let mut expected_rows = Vec::new();
        for r in expected {
            expected_rows.push(self.parse_row(&ts, r, false)?);
        }
        let equal = {
            let mut a = actual.clone();
            let mut b = expected_rows.clone();
            a.sort();
            b.sort();
            a == b
        };
        let ok = match until {
            "==" => equal,
            "!=" => !equal,
            other => return Err(format!("bad until {other:?}")),
        };
        if ok {
            Ok(json!({}))
        } else {
            Err("wait condition not satisfied".to_string())
        }
    }

    /// Referential integrity + garbage collection, run over the overlay
    /// view before commit. Errors abort the transaction.
    fn integrity_and_gc(&mut self) -> Result<(), String> {
        if !self.db.needs_gc {
            return Ok(());
        }
        loop {
            let mut changed = false;
            // Collect the visible universe.
            let table_names: Vec<String> = self.db.schema.tables.keys().cloned().collect();
            let mut universe: HashMap<String, Vec<Uuid>> = HashMap::new();
            for t in &table_names {
                universe.insert(t.clone(), self.all_uuids(t));
            }
            self.db.rows_examined += universe.values().map(|u| u.len() as u64).sum::<u64>();
            let exists = |table: &str, u: Uuid, me: &Self| -> bool { me.get(table, u).is_some() };
            // Strong-reference targets per table, and weak purges.
            let mut strong_refs: HashMap<(String, Uuid), usize> = HashMap::new();
            let mut weak_purges: Vec<(String, Uuid, String, Uuid)> = Vec::new(); // table,row,col,target
            for t in &table_names {
                let ts = self.db.schema.tables[t].clone();
                for uuid in &universe[t] {
                    let row = self.get(t, *uuid).unwrap();
                    for (cname, cs) in &ts.columns {
                        let datum = match row.get(cname) {
                            Some(d) => d,
                            None => continue,
                        };
                        for (bt, atoms) in [
                            (&cs.ty.key, true),
                            (cs.ty.value.as_ref().unwrap_or(&cs.ty.key), false),
                        ] {
                            // For set columns, only the key side exists.
                            if !atoms && cs.ty.value.is_none() {
                                continue;
                            }
                            let Some(rt) = &bt.ref_table else { continue };
                            for target in datum.referenced_uuids() {
                                // referenced_uuids mixes key and value
                                // uuids; acceptable for both-strong or
                                // both-weak schemas, which is what we use.
                                if bt.ref_strong {
                                    if exists(rt, target, self) {
                                        *strong_refs.entry((rt.clone(), target)).or_insert(0) += 1;
                                    } else {
                                        return Err(format!(
                                            "strong reference from {t}.{cname} to missing row \
                                             {target} in {rt}"
                                        ));
                                    }
                                } else if !exists(rt, target, self) {
                                    weak_purges.push((t.clone(), *uuid, cname.clone(), target));
                                }
                            }
                            break; // referenced_uuids covered the datum
                        }
                    }
                }
            }
            for (t, uuid, col, target) in weak_purges {
                let mut row = (*self.get(&t, uuid).unwrap()).clone();
                if let Some(d) = row.get_mut(&col) {
                    if d.purge_uuid(target) {
                        changed = true;
                    }
                }
                self.put(&t, uuid, Some(Arc::new(row)));
            }
            // GC: non-root rows without strong inbound references die.
            for t in &table_names {
                if self.db.schema.tables[t].is_root {
                    continue;
                }
                for uuid in &universe[t] {
                    if self.get(t, *uuid).is_none() {
                        continue; // already deleted this pass
                    }
                    if !strong_refs.contains_key(&(t.clone(), *uuid)) {
                        self.put(t, *uuid, None);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// Verify the uniqueness constraints for touched rows.
    fn check_unique(&self) -> Result<(), String> {
        // Group touched rows by table.
        type Touched<'a> = HashMap<&'a str, Vec<(Uuid, Option<&'a Arc<RowData>>)>>;
        let mut touched: Touched<'_> = HashMap::new();
        for ((t, u), v) in &self.overlay {
            touched
                .entry(t.as_str())
                .or_default()
                .push((*u, v.as_ref()));
        }
        for (tname, rows) in touched {
            let ts = &self.db.schema.tables[tname];
            if ts.indexes.is_empty() {
                continue;
            }
            let table = &self.db.tables[tname];
            for cols in &ts.indexes {
                let base = &table.unique[cols];
                let mut new_projections: HashMap<Vec<Datum>, Uuid> = HashMap::new();
                for (uuid, new) in &rows {
                    if let Some(row) = new {
                        let proj = Table::project(cols, row);
                        // Conflict with another touched row?
                        if let Some(prev) = new_projections.insert(proj.clone(), *uuid) {
                            if prev != *uuid {
                                return Err(format!(
                                    "uniqueness violation on {tname} index {cols:?}"
                                ));
                            }
                        }
                        // Conflict with an untouched base row?
                        if let Some(owner) = base.get(&proj) {
                            let owner_touched =
                                self.overlay.contains_key(&(tname.to_string(), *owner));
                            if *owner != *uuid && !owner_touched {
                                return Err(format!(
                                    "uniqueness violation on {tname} index {cols:?}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Encode a row (with its UUID) to JSON, optionally projecting columns.
pub fn row_to_json(uuid: Uuid, row: &RowData, columns: Option<&[String]>) -> Json {
    let mut obj = Map::new();
    let include = |c: &str| {
        columns
            .map(|cols| cols.iter().any(|x| x == c))
            .unwrap_or(true)
    };
    if include("_uuid") || columns.is_none() {
        obj.insert("_uuid".to_string(), json!(["uuid", uuid.to_string()]));
    }
    for (c, d) in row {
        if include(c) {
            obj.insert(c.clone(), d.to_json());
        }
    }
    Json::Object(obj)
}

/// Parse a datum from wire JSON given its column type.
pub fn datum_from_json(
    v: &Json,
    ty: &ColumnType,
    named: &dyn Fn(&str) -> Option<Uuid>,
) -> Result<Datum, String> {
    // ["set", [...]] / ["map", [...]] forms.
    if let Some(arr) = v.as_array() {
        match arr.first().and_then(Json::as_str) {
            Some("set") => {
                let items = arr.get(1).and_then(Json::as_array).ok_or("bad set")?;
                let mut set = std::collections::BTreeSet::new();
                for item in items {
                    set.insert(Atom::from_json(item, ty.key.ty, named)?);
                }
                return Ok(Datum::Set(set));
            }
            Some("map") => {
                let vt = ty.value.as_ref().ok_or("map datum for a set column")?;
                let items = arr.get(1).and_then(Json::as_array).ok_or("bad map")?;
                let mut map = BTreeMap::new();
                for item in items {
                    let pair = item.as_array().ok_or("map entry must be a pair")?;
                    if pair.len() != 2 {
                        return Err("map entry must be a pair".to_string());
                    }
                    let k = Atom::from_json(&pair[0], ty.key.ty, named)?;
                    let val = Atom::from_json(&pair[1], vt.ty, named)?;
                    map.insert(k, val);
                }
                return Ok(Datum::Map(map));
            }
            _ => {}
        }
    }
    // Bare atom (scalar shorthand).
    let atom = Atom::from_json(v, ty.key.ty, named)?;
    Ok(Datum::scalar(atom))
}

/// Evaluate an RFC 7047 condition function whose column type and
/// argument `eval_where` has already checked, so no row makes it fail:
/// an ordering against an empty optional value is false, and so is a
/// row whose value is not of its column's kind.
fn eval_condition(datum: &Datum, func: &str, arg: &Datum) -> bool {
    let wanted = |present: bool| present == (func == "includes");
    match (func, datum, arg) {
        ("==", ..) => datum == arg,
        ("!=", ..) => datum != arg,
        ("includes" | "excludes", Datum::Set(s), Datum::Set(sub)) => {
            sub.iter().all(|a| wanted(s.contains(a)))
        }
        ("includes" | "excludes", Datum::Map(m), Datum::Map(sub)) => {
            sub.iter().all(|(k, v)| wanted(m.get(k) == Some(v)))
        }
        ("includes" | "excludes", ..) => false,
        _ => match (datum.as_scalar(), arg.as_scalar()) {
            (Some(a), Some(b)) => match func {
                "<" => a < b,
                "<=" => a <= b,
                ">" => a > b,
                _ => a >= b,
            },
            _ => false,
        },
    }
}

/// Apply an RFC 7047 mutator.
fn apply_mutation(
    cur: &Datum,
    mutator: &str,
    arg_json: &Json,
    ty: &ColumnType,
    named: &dyn Fn(&str) -> Option<Uuid>,
) -> Result<Datum, String> {
    match mutator {
        "+=" | "-=" | "*=" | "/=" | "%=" => {
            let arg = datum_from_json(arg_json, &ColumnType::scalar(ty.key.ty), named)?;
            let x = match arg.as_scalar() {
                Some(Atom::Integer(i)) => *i,
                _ => return Err("arithmetic mutators need an integer argument".to_string()),
            };
            // Checked: a result outside the integer range fails the
            // operation (RFC 7047's range error), like division by zero.
            let apply = |v: i64| -> Result<i64, String> {
                let out = match mutator {
                    "+=" => v.checked_add(x),
                    "-=" => v.checked_sub(x),
                    "*=" => v.checked_mul(x),
                    "/=" if x == 0 => return Err("division by zero".to_string()),
                    "/=" => v.checked_div(x),
                    _ if x == 0 => return Err("modulo by zero".to_string()),
                    _ => v.checked_rem(x),
                };
                out.ok_or_else(|| format!("range error: {v} {mutator} {x} overflows"))
            };
            match cur {
                Datum::Set(s) => {
                    let mut out = std::collections::BTreeSet::new();
                    for a in s {
                        match a {
                            Atom::Integer(i) => {
                                out.insert(Atom::Integer(apply(*i)?));
                            }
                            _ => return Err("arithmetic mutator on non-integer".to_string()),
                        }
                    }
                    Ok(Datum::Set(out))
                }
                Datum::Map(_) => Err("arithmetic mutator on a map".to_string()),
            }
        }
        "insert" => {
            let arg = datum_from_json(arg_json, ty, named)?;
            match (cur.clone(), arg) {
                (Datum::Set(mut s), Datum::Set(add)) => {
                    s.extend(add);
                    Ok(Datum::Set(s))
                }
                (Datum::Map(mut m), Datum::Map(add)) => {
                    for (k, v) in add {
                        m.entry(k).or_insert(v);
                    }
                    Ok(Datum::Map(m))
                }
                _ => Err("insert mutator kind mismatch".to_string()),
            }
        }
        "delete" => {
            // For maps the argument may be a set of keys or a map of
            // exact pairs.
            match cur.clone() {
                Datum::Set(mut s) => {
                    let arg = datum_from_json(arg_json, ty, named)?;
                    match arg {
                        Datum::Set(del) => {
                            s.retain(|a| !del.contains(a));
                            Ok(Datum::Set(s))
                        }
                        _ => Err("delete mutator kind mismatch".to_string()),
                    }
                }
                Datum::Map(mut m) => {
                    let key_set_ty = ColumnType {
                        key: ty.key.clone(),
                        value: None,
                        min: 0,
                        max: usize::MAX,
                    };
                    if let Ok(Datum::Set(keys)) = datum_from_json(arg_json, &key_set_ty, named) {
                        m.retain(|k, _| !keys.contains(k));
                        return Ok(Datum::Map(m));
                    }
                    let arg = datum_from_json(arg_json, ty, named)?;
                    match arg {
                        Datum::Map(pairs) => {
                            m.retain(|k, v| pairs.get(k) != Some(v));
                            Ok(Datum::Map(m))
                        }
                        _ => Err("delete mutator kind mismatch".to_string()),
                    }
                }
            }
        }
        other => Err(format!("unknown mutator {other:?}")),
    }
}
