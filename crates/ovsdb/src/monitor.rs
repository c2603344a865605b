//! Monitors: change-stream subscriptions (RFC 7047 §4.1.5–§4.1.6).
//!
//! A monitor selects tables (and optionally columns) and receives the
//! initial contents followed by one update notification per committed
//! transaction. This is the mechanism Nerpa's controller uses to feed the
//! management plane into the incremental control plane.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde_json::{json, Map, Value as Json};

use crate::datum::Uuid;
use crate::db::{datum_from_json, Database, RowChange, RowData};
use crate::schema::Schema;
use crate::server::TRACE_KEY;

/// Which change kinds a monitored table reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSelect {
    /// Send the initial table contents on registration.
    pub initial: bool,
    /// Report row insertions.
    pub insert: bool,
    /// Report row deletions.
    pub delete: bool,
    /// Report row modifications.
    pub modify: bool,
}

impl Default for MonitorSelect {
    fn default() -> Self {
        MonitorSelect {
            initial: true,
            insert: true,
            delete: true,
            modify: true,
        }
    }
}

/// Subscription details for one table.
#[derive(Debug, Clone, Default)]
pub struct MonitorTable {
    /// Columns to report (`None` = all).
    pub columns: Option<Vec<String>>,
    /// Which change kinds to report.
    pub select: MonitorSelect,
}

/// A registered monitor.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Monitored tables.
    pub tables: BTreeMap<String, MonitorTable>,
}

impl Monitor {
    /// Every table of `schema`, every column, every change kind: the
    /// monitor whose `table-updates` the durability layer logs and
    /// snapshots.
    pub fn all(schema: &Schema) -> Monitor {
        let tables = schema
            .tables
            .keys()
            .map(|t| (t.clone(), MonitorTable::default()));
        Monitor {
            tables: tables.collect(),
        }
    }

    /// Parse the `monitor` request's third parameter:
    /// `{table: {columns: [...], select: {...}} | [...alternatives...]}`.
    pub fn parse(requests: &Json, db: &Database) -> Result<Monitor, String> {
        let obj = requests
            .as_object()
            .ok_or("monitor requests must be an object")?;
        let mut tables = BTreeMap::new();
        for (tname, spec) in obj {
            if db.schema().table(tname).is_none() {
                return Err(format!("no table {tname:?}"));
            }
            // A spec may be a single request or an array of requests; we
            // support a single request (the common case).
            let spec = if let Some(arr) = spec.as_array() {
                arr.first().cloned().unwrap_or(json!({}))
            } else {
                spec.clone()
            };
            let mut mt = MonitorTable::default();
            if let Some(cols) = spec.get("columns").and_then(Json::as_array) {
                let mut list = Vec::new();
                for c in cols {
                    let c = c.as_str().ok_or("column names must be strings")?;
                    if !db.schema().table(tname).unwrap().columns.contains_key(c) {
                        return Err(format!("no column {tname}.{c}"));
                    }
                    list.push(c.to_string());
                }
                mt.columns = Some(list);
            }
            if let Some(sel) = spec.get("select").and_then(Json::as_object) {
                let get = |k: &str| sel.get(k).and_then(Json::as_bool).unwrap_or(true);
                mt.select = MonitorSelect {
                    initial: get("initial"),
                    insert: get("insert"),
                    delete: get("delete"),
                    modify: get("modify"),
                };
            }
            tables.insert(tname.clone(), mt);
        }
        Ok(Monitor { tables })
    }

    /// The initial `table-updates` object (rows reported as inserts).
    pub fn initial_state(&self, db: &Database) -> Json {
        let mut out = Map::new();
        for (tname, mt) in &self.tables {
            if !mt.select.initial {
                continue;
            }
            let mut rows = Map::new();
            for (uuid, row) in db.rows(tname) {
                rows.insert(
                    uuid.to_string(),
                    json!({"new": project(row, mt.columns.as_deref())}),
                );
            }
            if !rows.is_empty() {
                out.insert(tname.clone(), Json::Object(rows));
            }
        }
        Json::Object(out)
    }

    /// Format committed changes as a `table-updates` object; `None` when
    /// nothing this monitor selects changed.
    pub fn format_changes(&self, changes: &[RowChange]) -> Option<Json> {
        let mut out = Map::new();
        for change in changes {
            let Some(mt) = self.tables.get(&change.table) else {
                continue;
            };
            let update = match (&change.old, &change.new) {
                (None, Some(new)) => {
                    if !mt.select.insert {
                        continue;
                    }
                    json!({"new": project(new, mt.columns.as_deref())})
                }
                (Some(old), None) => {
                    if !mt.select.delete {
                        continue;
                    }
                    json!({"old": project(old, mt.columns.as_deref())})
                }
                (Some(old), Some(new)) => {
                    if !mt.select.modify {
                        continue;
                    }
                    // `old` reports only the columns that changed.
                    let mut old_changed = Map::new();
                    for (c, d) in old.iter() {
                        if mt
                            .columns
                            .as_deref()
                            .map(|cols| cols.iter().any(|x| x == c))
                            .unwrap_or(true)
                            && new.get(c) != Some(d)
                        {
                            old_changed.insert(c.clone(), d.to_json());
                        }
                    }
                    if old_changed.is_empty() {
                        continue; // no selected column changed
                    }
                    json!({
                        "old": Json::Object(old_changed),
                        "new": project(new, mt.columns.as_deref()),
                    })
                }
                (None, None) => continue,
            };
            out.entry(change.table.clone())
                .or_insert_with(|| Json::Object(Map::new()))
                .as_object_mut()
                .unwrap()
                .insert(change.uuid.to_string(), update);
        }
        if out.is_empty() {
            None
        } else {
            Some(Json::Object(out))
        }
    }
}

/// A decoded `table-updates` object: the typed row changes plus the
/// causal trace the server embedded under [`TRACE_KEY`], if any.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableUpdates {
    /// One change per reported row, rows holding the reported columns.
    pub changes: Vec<RowChange>,
    /// `(trace id, commit_ns)` minted at commit time.
    pub trace: Option<(u64, u64)>,
}

/// Decode a `table-updates` object into a [`TableUpdates`] — the
/// collecting form of [`decode_table_updates_into`], for consumers that
/// need the whole change set at once (a router splitting it).
pub fn decode_table_updates(updates: &Json, schema: &Schema) -> Result<TableUpdates, String> {
    let mut changes = Vec::new();
    let trace = decode_table_updates_into(updates, schema, &mut |change| {
        changes.push(change);
        Ok(())
    })?;
    Ok(TableUpdates { changes, trace })
}

/// Decode a `table-updates` object — a monitor's initial snapshot or an
/// update notification's payload — into typed row changes, handed to
/// `sink` one at a time (a 20 000-row snapshot is never held as typed
/// rows all at once unless the sink keeps them); returns the embedded
/// trace. The inverse of [`Monitor::initial_state`] /
/// [`Monitor::format_changes`], and the only reader of that wire
/// format — on the wire and on disk alike: the durable database's WAL
/// records and snapshot hold the same format and recovery decodes them
/// here. A modify reports only its changed columns under `old`; the
/// full old row is rebuilt here by patching them over `new`. Tables
/// and columns unknown to `schema` are skipped (a peer may monitor more
/// than this consumer models; recovery, which must not skip, checks
/// names before it calls this); anything malformed inside a known table
/// is an error naming it.
pub fn decode_table_updates_into(
    updates: &Json,
    schema: &Schema,
    sink: &mut dyn FnMut(RowChange) -> Result<(), String>,
) -> Result<Option<(u64, u64)>, String> {
    let tables = updates
        .as_object()
        .ok_or("table-updates must be an object")?;
    let mut trace = None;
    for (tname, rows) in tables {
        if tname == TRACE_KEY {
            let id = rows.get("id").and_then(Json::as_u64);
            let id =
                id.ok_or_else(|| format!("{TRACE_KEY} must be an object with an integer id"))?;
            let commit_ns = rows.get("commit_ns").and_then(Json::as_u64).unwrap_or(0);
            trace = Some((id, commit_ns));
            continue;
        }
        let Some(ts) = schema.table(tname) else {
            continue;
        };
        let rows = rows
            .as_object()
            .ok_or_else(|| format!("{tname}: row updates must be an object"))?;
        let parse_row = |half: Option<&Json>| -> Result<Option<RowData>, String> {
            let Some(json) = half else { return Ok(None) };
            let obj = json
                .as_object()
                .ok_or_else(|| format!("{tname}: row must be an object"))?;
            let mut row = RowData::new();
            for (cname, cval) in obj {
                // `_uuid` and columns this schema does not know are not
                // part of the typed row.
                if let Some(cs) = ts.columns.get(cname) {
                    let datum = datum_from_json(cval, &cs.ty, &|_| None)
                        .map_err(|e| format!("{tname}.{cname}: {e}"))?;
                    row.insert(cname.clone(), datum);
                }
            }
            Ok(Some(row))
        };
        for (uuid_str, update) in rows {
            let uuid = Uuid::parse(uuid_str)
                .ok_or_else(|| format!("{tname}: bad row uuid {uuid_str:?}"))?;
            let new = parse_row(update.get("new"))?;
            let old = match (parse_row(update.get("old"))?, &new) {
                (Some(changed), Some(new)) => {
                    let mut full = new.clone();
                    full.extend(changed);
                    Some(full)
                }
                (None, None) => {
                    return Err(format!(
                        "{tname}: row update {uuid_str} has neither old nor new"
                    ))
                }
                (old, _) => old,
            };
            sink(RowChange {
                table: tname.clone(),
                uuid,
                old: old.map(Arc::new),
                new: new.map(Arc::new),
            })?;
        }
    }
    Ok(trace)
}

fn project(row: &RowData, columns: Option<&[String]>) -> Json {
    let mut obj = Map::new();
    for (c, d) in row {
        if columns
            .map(|cols| cols.iter().any(|x| x == c))
            .unwrap_or(true)
        {
            obj.insert(c.clone(), d.to_json());
        }
    }
    Json::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use serde_json::json;

    fn db() -> Database {
        let schema = Schema::from_json(&json!({
            "name": "test",
            "tables": {
                "Port": {"columns": {
                    "name": {"type": "string"},
                    "tag": {"type": {"key": "integer", "min": 0, "max": 1}}
                }, "isRoot": true}
            }
        }))
        .unwrap();
        Database::new(schema)
    }

    #[test]
    fn initial_and_update_stream() {
        let mut db = db();
        let (res, _) = db.transact(&json!([
            {"op": "insert", "table": "Port", "row": {"name": "p1", "tag": 10}}
        ]));
        assert!(res[0]["uuid"].is_array(), "{res}");

        let mon = Monitor::parse(&json!({"Port": {}}), &db).unwrap();
        let init = mon.initial_state(&db);
        let port_rows = init["Port"].as_object().unwrap();
        assert_eq!(port_rows.len(), 1);
        let first = port_rows.values().next().unwrap();
        assert_eq!(first["new"]["name"], json!("p1"));

        // Modify: old must carry only the changed column.
        let (_, changes) = db.transact(&json!([
            {"op": "update", "table": "Port", "where": [["name", "==", "p1"]],
             "row": {"tag": 20}}
        ]));
        let upd = mon.format_changes(&changes).unwrap();
        let (_, entry) = upd["Port"].as_object().unwrap().iter().next().unwrap();
        assert_eq!(entry["old"], json!({"tag": 10}));
        assert_eq!(entry["new"]["tag"], json!(20));
        assert_eq!(entry["new"]["name"], json!("p1"));

        // Delete.
        let (_, changes) = db.transact(&json!([
            {"op": "delete", "table": "Port", "where": []}
        ]));
        let upd = mon.format_changes(&changes).unwrap();
        let (_, entry) = upd["Port"].as_object().unwrap().iter().next().unwrap();
        assert!(entry.get("new").is_none());
        assert_eq!(entry["old"]["name"], json!("p1"));
    }

    #[test]
    fn column_projection_and_select_flags() {
        let mut db = db();
        let mon = Monitor::parse(
            &json!({"Port": {"columns": ["name"], "select": {"modify": false}}}),
            &db,
        )
        .unwrap();
        let (_, changes) = db.transact(&json!([
            {"op": "insert", "table": "Port", "row": {"name": "p1", "tag": 1}}
        ]));
        let upd = mon.format_changes(&changes).unwrap();
        let (_, entry) = upd["Port"].as_object().unwrap().iter().next().unwrap();
        assert_eq!(entry["new"], json!({"name": "p1"}));

        // A tag-only change is invisible: modify deselected AND the
        // selected column did not change.
        let (_, changes) = db.transact(&json!([
            {"op": "update", "table": "Port", "where": [], "row": {"tag": 9}}
        ]));
        assert!(mon.format_changes(&changes).is_none());
    }

    #[test]
    fn parse_rejects_unknown() {
        let db = db();
        assert!(Monitor::parse(&json!({"NoSuch": {}}), &db).is_err());
        assert!(Monitor::parse(&json!({"Port": {"columns": ["zap"]}}), &db).is_err());
    }
}
