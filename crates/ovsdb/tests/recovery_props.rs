//! Untrusted bytes on the recovery path. Whatever `wal.log` and
//! `snapshot.json` hold, `Database::open` returns the recovered database
//! or a typed [`WalError`] — it never panics, and it never trusts a
//! length prefix for an allocation the file did not back with bytes. A
//! record whose frame is intact (valid CRC) but whose changes are wrong
//! is refused as [`WalError::CorruptRecord`], never skipped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ovsdb::snapshot::{SNAPSHOT_FILE, SNAPSHOT_FORMAT};
use ovsdb::wal::{scan, WalRecord, WAL_FILE};
use ovsdb::{Database, DurabilityConfig, FsyncPolicy, Schema, WalError};
use proptest::prelude::*;
use serde_json::{json, Value as Json};

/// The system allocator, noting the largest single allocation each
/// thread asked for since it last reset the mark.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, so the layout
// and pointer guarantees the caller gives hold for `System` too; the
// bookkeeping only reads sizes and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn schema() -> Schema {
    Schema::from_json(&json!({
        "name": "t",
        "tables": {
            "Port": {"columns": {
                "name": {"type": "string"},
                "tag": {"type": {"key": "integer", "min": 0, "max": 1}},
                "up": {"type": "boolean"}
            }, "isRoot": true, "indexes": [["name"]]}
        }
    }))
    .unwrap()
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Never,
        snapshot_after_bytes: u64::MAX,
    }
}

/// A scratch durability directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "nerpa-recovery-props-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Open a durable database over the given file contents.
fn open_with(wal: Option<&[u8]>, snapshot: Option<&[u8]>) -> Result<Database, WalError> {
    let scratch = Scratch::new("open");
    if let Some(bytes) = wal {
        std::fs::write(scratch.path().join(WAL_FILE), bytes).unwrap();
    }
    if let Some(bytes) = snapshot {
        std::fs::write(scratch.path().join(SNAPSHOT_FILE), bytes).unwrap();
    }
    Database::open(scratch.path(), schema(), config()).map(|(db, _)| db)
}

/// A log of four commits, each changing one row: insert, insert,
/// modify, delete.
fn valid_log() -> Vec<u8> {
    let scratch = Scratch::new("valid");
    let (mut db, _) = Database::open(scratch.path(), schema(), config()).unwrap();
    for ops in [
        json!([{"op": "insert", "table": "Port", "row": {"name": "a", "tag": 1, "up": true}}]),
        json!([{"op": "insert", "table": "Port", "row": {"name": "b", "tag": 2}}]),
        json!([{"op": "update", "table": "Port", "where": [["name", "==", "a"]],
                "row": {"tag": 7}}]),
        json!([{"op": "delete", "table": "Port", "where": [["name", "==", "b"]]}]),
    ] {
        let (results, changes) = db.transact(&ops);
        assert_eq!(changes.len(), 1, "{results}");
    }
    drop(db);
    std::fs::read(scratch.path().join(WAL_FILE)).unwrap()
}

/// `log` with record `at`'s payload replaced by `edit` of it, every
/// record re-encoded (so every CRC is valid), and the byte offset the
/// edited record starts at.
fn rewrite(log: &[u8], at: usize, edit: impl FnOnce(&mut Json)) -> (Vec<u8>, u64) {
    let mut records = scan(log).unwrap().records;
    let offset = records[at].0;
    edit(&mut records[at].1.ops);
    let image = records.iter().flat_map(|(_, r)| r.encode()).collect();
    (image, offset)
}

/// The first row update of a record's `Port` table.
fn first_update(updates: &mut Json) -> &mut Json {
    let rows = updates["Port"]
        .as_object_mut()
        .expect("record changes Port");
    rows.values_mut().next().expect("record changes a row")
}

/// The row half an update carries: `new`, or `old` for a delete.
fn some_half(update: &mut Json) -> &mut serde_json::Map<String, Json> {
    let half = if update.get("new").is_some() {
        "new"
    } else {
        "old"
    };
    update[half].as_object_mut().unwrap()
}

type Mutation = (&'static str, fn(&mut Json));

const MUTATIONS: [Mutation; 6] = [
    ("unknown table", |u| {
        u.as_object_mut().unwrap().insert(
            "Nope".to_string(),
            json!({"00000000-0000-0000-0000-0000000000ff": {"new": {}}}),
        );
    }),
    ("unknown column", |u| {
        some_half(first_update(u)).insert("zz".to_string(), json!(1));
    }),
    ("bad uuid", |u| {
        let rows = u["Port"].as_object_mut().unwrap();
        let key = rows.keys().next().unwrap().clone();
        let update = rows.remove(&key).unwrap();
        rows.insert("not-a-uuid".to_string(), update);
    }),
    ("bad datum", |u| {
        some_half(first_update(u)).insert("tag".to_string(), json!("ten"));
    }),
    ("neither old nor new", |u| *first_update(u) = json!({})),
    ("delete of an absent row", |u| {
        u["Port"].as_object_mut().unwrap().insert(
            "00000000-0000-0000-0000-0000000000ff".to_string(),
            json!({"old": {"name": "ghost", "tag": ["set", []], "up": false}}),
        );
    }),
];

/// Every mutation of every record's changes, re-framed with a valid
/// CRC, is refused as a corrupt record at that record's offset.
#[test]
fn valid_frames_with_wrong_changes_are_corrupt_records() {
    let log = valid_log();
    assert!(
        open_with(Some(&log), None).is_ok(),
        "the unmutated log recovers"
    );
    for at in 0..scan(&log).unwrap().records.len() {
        for (name, mutate) in MUTATIONS {
            let (image, offset) = rewrite(&log, at, mutate);
            match open_with(Some(&image), None) {
                Err(WalError::CorruptRecord { offset: o, reason }) => {
                    assert_eq!(o, offset, "record {at}, {name}: {reason}");
                    assert!(reason.contains(&format!("commit {}", at + 1)), "{reason}");
                }
                Ok(_) => panic!("record {at}, {name}: silently accepted"),
                Err(e) => panic!("record {at}, {name}: expected CorruptRecord, got {e}"),
            }
        }
    }
}

/// A record that inserts a second row with an existing index value
/// (here `b` renamed to `a`) is refused at that record, not applied so
/// that `where name==a` finds only the newer row.
#[test]
fn a_record_giving_a_second_row_an_index_value_is_corrupt() {
    let log = valid_log();
    let (image, offset) = rewrite(&log, 1, |u| {
        some_half(first_update(u)).insert("name".to_string(), json!("a"));
    });
    match open_with(Some(&image), None) {
        Err(WalError::CorruptRecord { offset: o, reason }) => {
            assert_eq!(o, offset, "{reason}");
            assert!(
                reason.contains("commit 2") && reason.contains("index"),
                "{reason}"
            );
        }
        other => panic!("expected CorruptRecord, got {:?}", other.err()),
    }
}

/// Two rows swapping their index values in one commit replay cleanly,
/// whichever of the two changes the record lists first (changes are
/// listed by uuid, and uuids follow insertion order).
#[test]
fn an_in_commit_index_swap_replays() {
    for order in [["a", "b"], ["b", "a"]] {
        let scratch = Scratch::new("swap");
        let (mut db, _) = Database::open(scratch.path(), schema(), config()).unwrap();
        let mut uuids = Vec::new();
        for name in order {
            let (results, _) =
                db.transact(&json!([{"op": "insert", "table": "Port", "row": {"name": name}}]));
            uuids.push(results[0]["uuid"].clone());
        }
        let rename = |i: usize, name: &str| {
            json!({"op": "update", "table": "Port", "where": [["_uuid", "==", uuids[i]]],
                   "row": {"name": name}})
        };
        let (results, changes) = db.transact(&json!([rename(0, order[1]), rename(1, order[0])]));
        assert_eq!(changes.len(), 2, "{results}");
        let rows = |db: &Database| {
            let mut rows: Vec<String> = db
                .rows("Port")
                .map(|(uuid, row)| format!("{uuid}={:?}", row.get("name")))
                .collect();
            rows.sort();
            rows
        };
        let expected = rows(&db);
        drop(db);
        let (db, _) = Database::open(scratch.path(), schema(), config()).expect("the swap replays");
        assert_eq!(rows(&db), expected, "inserted {order:?}");
    }
}

/// A record in the format that logged the request's operations (or any
/// payload without `updates`) is refused, not re-executed.
#[test]
fn an_old_format_record_is_refused() {
    let payload = br#"{"ops":[{"op":"comment"}],"uuid_counter":0}"#;
    let mut image = (payload.len() as u32).to_le_bytes().to_vec();
    image.extend_from_slice(&1u64.to_le_bytes());
    let mut crc_input = 1u64.to_le_bytes().to_vec();
    crc_input.extend_from_slice(payload);
    image.extend_from_slice(&ovsdb::wal::crc32(&crc_input).to_le_bytes());
    image.extend_from_slice(payload);
    image.extend_from_slice(
        &WalRecord {
            commit_index: 2,
            uuid_counter: 0,
            ops: json!({}),
        }
        .encode(),
    );
    match open_with(Some(&image), None) {
        Err(WalError::CorruptRecord { offset: 0, reason }) => {
            assert!(reason.contains("updates"), "{reason}")
        }
        other => panic!("expected CorruptRecord at 0, got {:?}", other.err()),
    }
}

/// A snapshot in an older format, or naming a table or column the
/// schema lacks, is a typed error naming what is wrong.
#[test]
fn snapshots_are_checked_by_name_and_format() {
    let doc = |format: &str, tables: Json| {
        json!({"format": format, "schema": "t", "commit_index": 1,
               "uuid_counter": 1, "tables": tables})
        .to_string()
    };
    let uuid = "00000000-0000-0000-0000-00000000002a";
    let cases = [
        (doc("nerpa-ovsdb-snapshot-v1", json!({})), "format tag"),
        (
            doc(SNAPSHOT_FORMAT, json!({"Nope": {}})),
            "unknown table \"Nope\"",
        ),
        (
            doc(SNAPSHOT_FORMAT, json!({"Port": {uuid: {"new": {"zz": 1}}}})),
            "unknown column Port.zz",
        ),
        (
            doc(
                SNAPSHOT_FORMAT,
                json!({"Port": {uuid: {"old": {"name": "x"}}}}),
            ),
            "absent",
        ),
    ];
    for (snapshot, needle) in cases {
        match open_with(None, Some(snapshot.as_bytes())) {
            Err(WalError::CorruptSnapshot(reason)) => {
                assert!(reason.contains(needle), "{reason:?} lacks {needle:?}")
            }
            other => panic!(
                "{snapshot}: expected CorruptSnapshot, got {:?}",
                other.err()
            ),
        }
    }
}

/// A length prefix of `u32::MAX` followed by 13 bytes is a torn tail,
/// and reading it allocates about what the file holds, not 4 GiB.
#[test]
fn a_promised_payload_that_never_arrives_costs_only_what_arrived() {
    // Open once first so lazily built process-wide state is not counted.
    open_with(None, None).unwrap();
    let mut image = u32::MAX.to_le_bytes().to_vec();
    image.extend_from_slice(&[0u8; 13]);
    let scratch = Scratch::new("huge-prefix");
    std::fs::write(scratch.path().join(WAL_FILE), &image).unwrap();
    let schema = schema();
    PEAK.with(|p| p.set(0));
    let (db, report) = Database::open(scratch.path(), schema, config()).unwrap();
    let peak = PEAK.with(Cell::get);
    assert!(report.truncated_tail);
    assert_eq!(db.commit_index(), 0);
    assert!(peak < 64 * 1024, "a 17-byte log allocated {peak} bytes");
}

/// A JSON value read off a byte tape, biased towards the keys and
/// encodings a log holds.
fn arbitrary_json(tape: &mut dyn Iterator<Item = u8>, depth: usize) -> Json {
    const KEYS: [&str; 8] = [
        "Port",
        "old",
        "new",
        "name",
        "tag",
        "up",
        "00000000-0000-0000-0000-00000000002a",
        "zz",
    ];
    let mut next = || tape.next().unwrap_or(0);
    match next() % if depth < 4 { 9 } else { 5 } {
        0 => Json::Null,
        1 => json!(next() % 2 == 0),
        2 => json!(next() as i64 - 100),
        3 => json!(KEYS[next() as usize % KEYS.len()]),
        4 => json!(u64::MAX - u64::from(next())),
        5 => json!(["set", [arbitrary_json(tape, depth + 1)]]),
        6 => json!(["uuid", arbitrary_json(tape, depth + 1)]),
        7 => {
            let n = tape.next().unwrap_or(0) % 3;
            Json::Array((0..n).map(|_| arbitrary_json(tape, depth + 1)).collect())
        }
        _ => {
            let n = tape.next().unwrap_or(0) % 4;
            let mut obj = serde_json::Map::new();
            for _ in 0..n {
                let key = KEYS[tape.next().unwrap_or(0) as usize % KEYS.len()];
                obj.insert(key.to_string(), arbitrary_json(tape, depth + 1));
            }
            Json::Object(obj)
        }
    }
}

/// `open_with`'s answer is either a database or an error that says
/// something.
fn typed(result: Result<Database, WalError>) -> Result<(), TestCaseError> {
    if let Err(e) = result {
        prop_assert!(!e.to_string().is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_as_the_log_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        typed(open_with(Some(&bytes), None))?;
    }

    #[test]
    fn arbitrary_bytes_as_the_snapshot_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        typed(open_with(None, Some(&bytes)))?;
    }

    /// A valid log with a few bytes overwritten: a torn tail, a corrupt
    /// interior, or (for a byte the CRC does not cover) a clean log.
    #[test]
    fn a_valid_log_with_bytes_overwritten_never_panics(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut log = valid_log();
        let len = log.len();
        for (at, byte) in edits {
            log[at % len] = byte;
        }
        typed(open_with(Some(&log), None))?;
    }

    /// Arbitrary JSON as a record's changes (framed with a valid CRC) or
    /// as a snapshot's rows.
    #[test]
    fn arbitrary_changes_never_panic(
        tape in proptest::collection::vec(any::<u8>(), 0..64),
        at in 0usize..4,
    ) {
        let updates = arbitrary_json(&mut tape.clone().into_iter(), 0);
        let (image, _) = rewrite(&valid_log(), at, |u| *u = updates.clone());
        typed(open_with(Some(&image), None))?;
        let snapshot = json!({"format": SNAPSHOT_FORMAT, "schema": "t", "commit_index": 4,
                              "uuid_counter": 9, "tables": updates});
        typed(open_with(None, Some(snapshot.to_string().as_bytes())))?;
    }
}
