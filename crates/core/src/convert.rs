//! Data conversion between the three planes.
//!
//! "Generated helper functions ... convert data between P4Runtime and
//! DDlog types" (§4.2). Here the helpers are table-driven from the
//! bindings produced by [`crate::codegen`]: OVSDB rows become DDlog
//! tuples, DDlog output rows become P4Runtime table entries, and digests
//! become DDlog input tuples.

use ddlog::value::{Uuid as DUuid, Value};
use ddlog::Type;
use ovsdb::datum::{Atom, Datum};
use ovsdb::db::{RowChange, RowData};
use ovsdb::schema::TableSchema;
use p4sim::runtime::{Digest, FieldMatch, TableEntry, Update, WriteOp};
use serde_json::Value as Json;

use crate::codegen::{DigestBinding, TableBinding};

/// Convert an OVSDB atom to a DDlog value.
pub fn atom_to_value(atom: &Atom) -> Value {
    match atom {
        Atom::Integer(i) => Value::Int(*i as i128),
        Atom::Real(r) => Value::Double(ddlog::value::F64(r.0)),
        Atom::Boolean(b) => Value::Bool(*b),
        Atom::String(s) => Value::str(s),
        Atom::Uuid(u) => Value::Uuid(DUuid(u.0)),
    }
}

/// Convert an OVSDB datum to a DDlog value of the generated type
/// (scalar, `Set<T>`, or `Map<K,V>` — see
/// [`crate::codegen::ovsdb_type_to_ddlog`]).
pub fn datum_to_value(datum: &Datum, ty: &Type) -> Result<Value, String> {
    match (datum, ty) {
        (Datum::Set(s), Type::Set(_)) => Ok(Value::set(s.iter().map(atom_to_value))),
        (Datum::Set(s), _) => {
            let atom = s
                .iter()
                .next()
                .ok_or_else(|| format!("empty set for scalar column of type {ty}"))?;
            if s.len() != 1 {
                return Err(format!("{} atoms for scalar column of type {ty}", s.len()));
            }
            Ok(atom_to_value(atom))
        }
        (Datum::Map(m), Type::Map(_, _)) => Ok(Value::map(
            m.iter().map(|(k, v)| (atom_to_value(k), atom_to_value(v))),
        )),
        (Datum::Map(_), _) => Err(format!("map datum for column of type {ty}")),
    }
}

/// Convert a full OVSDB row to a DDlog tuple: `_uuid` first, then the
/// columns in schema (alphabetical) order.
pub fn row_to_values(
    uuid: ovsdb::Uuid,
    row: &RowData,
    schema: &TableSchema,
    col_types: &[Type],
) -> Result<Vec<Value>, String> {
    let mut out = Vec::with_capacity(schema.columns.len() + 1);
    out.push(Value::Uuid(DUuid(uuid.0)));
    for ((cname, cschema), ty) in schema.columns.iter().zip(&col_types[1..]) {
        let datum = row
            .get(cname)
            .cloned()
            .unwrap_or_else(|| cschema.ty.default_datum());
        out.push(datum_to_value(&datum, ty).map_err(|e| format!("column `{cname}`: {e}"))?);
    }
    Ok(out)
}

/// Translate committed OVSDB row changes into DDlog transaction ops:
/// `(relation, row values, is_insert)`.
pub fn changes_to_ops(
    changes: &[RowChange],
    schema: &ovsdb::Schema,
    rel_types: &dyn Fn(&str) -> Option<Vec<Type>>,
) -> Result<Vec<(String, Vec<Value>, bool)>, String> {
    let mut ops = Vec::new();
    for ch in changes {
        let Some(ts) = schema.table(&ch.table) else {
            continue;
        };
        let Some(types) = rel_types(&ch.table) else {
            continue;
        };
        if let Some(old) = &ch.old {
            ops.push((
                ch.table.clone(),
                row_to_values(ch.uuid, old, ts, &types)?,
                false,
            ));
        }
        if let Some(new) = &ch.new {
            ops.push((
                ch.table.clone(),
                row_to_values(ch.uuid, new, ts, &types)?,
                true,
            ));
        }
    }
    Ok(ops)
}

/// DDlog transaction ops: `(relation, row values, is_insert)`.
pub type InputOps = Vec<(String, Vec<Value>, bool)>;

/// Decode a monitor `table-updates` JSON object (the TCP path) and
/// translate it: [`ovsdb::decode_table_updates_into`] feeding
/// [`changes_to_ops`] row by row, so no decoded row outlives its
/// conversion. Also returns the `(trace id, commit_ns)` the server
/// embedded, if any.
pub fn decode_monitor_update(
    updates: &Json,
    schema: &ovsdb::Schema,
    rel_types: &dyn Fn(&str) -> Option<Vec<Type>>,
) -> Result<(InputOps, Option<(u64, u64)>), String> {
    let mut ops = Vec::new();
    let trace = ovsdb::decode_table_updates_into(updates, schema, &mut |change| {
        ops.extend(changes_to_ops(&[change], schema, rel_types)?);
        Ok(())
    })?;
    Ok((ops, trace))
}

/// The ops of [`decode_monitor_update`].
pub fn monitor_update_to_ops(
    updates: &Json,
    schema: &ovsdb::Schema,
    rel_types: &dyn Fn(&str) -> Option<Vec<Type>>,
) -> Result<InputOps, String> {
    decode_monitor_update(updates, schema, rel_types).map(|(ops, _)| ops)
}

/// Convert a digest into a DDlog input tuple.
pub fn digest_to_values(
    digest: &Digest,
    binding: &DigestBinding,
    switch_id: usize,
) -> Result<Vec<Value>, String> {
    let mut out = Vec::with_capacity(binding.fields.len() + 1);
    if binding.per_switch {
        out.push(Value::Int(switch_id as i128));
    }
    for (fname, width) in &binding.fields {
        let v = digest
            .field(fname)
            .ok_or_else(|| format!("digest `{}` missing field `{fname}`", digest.name))?;
        out.push(Value::bit(*width, v));
    }
    Ok(out)
}

/// Convert one DDlog output row into a P4Runtime update, returning the
/// target switch (`None` = broadcast to all switches).
pub fn row_to_update(
    row: &[Value],
    weight: isize,
    binding: &TableBinding,
) -> Result<(Option<usize>, Update), String> {
    let mut i = 0;
    let mut next = |what: &str| -> Result<&Value, String> {
        let v = row.get(i).ok_or_else(|| {
            format!(
                "row too short for `{}` at column {i} ({what})",
                binding.relation
            )
        })?;
        i += 1;
        Ok(v)
    };
    let switch = if binding.per_switch {
        let v = next("switch_id")?;
        Some(v.as_i128().ok_or("switch_id must be an integer")? as usize)
    } else {
        None
    };
    let mut matches = Vec::with_capacity(binding.table.keys.len());
    for k in &binding.table.keys {
        match k.match_kind.as_str() {
            "exact" => {
                let v = next("key")?.as_u128().ok_or("key must be numeric")?;
                matches.push(FieldMatch::Exact { value: v });
            }
            "lpm" => {
                let v = next("key")?.as_u128().ok_or("key must be numeric")?;
                let plen = next("prefix_len")?
                    .as_u128()
                    .ok_or("prefix_len must be numeric")? as u16;
                matches.push(FieldMatch::Lpm {
                    value: v,
                    prefix_len: plen,
                });
            }
            "ternary" => {
                let v = next("key")?.as_u128().ok_or("key must be numeric")?;
                let m = next("mask")?.as_u128().ok_or("mask must be numeric")?;
                matches.push(FieldMatch::Ternary {
                    value: v & m,
                    mask: m,
                });
            }
            other => return Err(format!("unknown match kind {other}")),
        }
    }
    let priority = if binding.has_priority {
        next("priority")?
            .as_i128()
            .ok_or("priority must be an integer")? as i32
    } else {
        0
    };
    let action = next("action")?
        .as_str()
        .ok_or("action must be a string")?
        .to_string();
    let action_info = binding
        .table
        .actions
        .iter()
        .find(|a| a.name == action)
        .ok_or_else(|| format!("table `{}` has no action `{action}`", binding.relation))?;
    // Param columns: pick only the ones belonging to the chosen action.
    let mut params = vec![0u128; action_info.params.len()];
    for (_, owner, idx) in &binding.param_cols {
        let v = next("param")?.as_u128().ok_or("param must be numeric")?;
        if owner == &action {
            params[*idx] = v;
        }
    }
    let entry = TableEntry {
        table: binding.relation.clone(),
        matches,
        priority,
        action,
        params,
    };
    let op = if weight > 0 {
        WriteOp::Insert
    } else {
        WriteOp::Delete
    };
    Ok((switch, Update { op, entry }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4sim::p4info::{ActionInfo, KeyInfo, ParamInfo, TableInfo};

    fn binding() -> TableBinding {
        TableBinding {
            relation: "MacLearned".into(),
            table: TableInfo {
                name: "MacLearned".into(),
                control: "ingress".into(),
                keys: vec![
                    KeyInfo {
                        name: "vlan".into(),
                        width: 12,
                        match_kind: "exact".into(),
                    },
                    KeyInfo {
                        name: "mac".into(),
                        width: 48,
                        match_kind: "exact".into(),
                    },
                ],
                actions: vec![
                    ActionInfo {
                        name: "output".into(),
                        params: vec![ParamInfo {
                            name: "port".into(),
                            width: 9,
                        }],
                    },
                    ActionInfo {
                        name: "flood".into(),
                        params: vec![],
                    },
                ],
                size: 1024,
            },
            per_switch: false,
            has_priority: false,
            param_cols: vec![("output_port".into(), "output".into(), 0)],
        }
    }

    #[test]
    fn output_row_to_insert() {
        let row = vec![
            Value::bit(12, 10),
            Value::bit(48, 0xAB),
            Value::str("output"),
            Value::bit(9, 3),
        ];
        let (sw, up) = row_to_update(&row, 1, &binding()).unwrap();
        assert_eq!(sw, None);
        assert_eq!(up.op, WriteOp::Insert);
        assert_eq!(
            up.entry.matches,
            vec![
                FieldMatch::Exact { value: 10 },
                FieldMatch::Exact { value: 0xAB },
            ]
        );
        assert_eq!(up.entry.params, vec![3]);

        let (_, down) = row_to_update(&row, -1, &binding()).unwrap();
        assert_eq!(down.op, WriteOp::Delete);
    }

    #[test]
    fn unused_action_params_dropped() {
        // Action `flood` has no params; the output_port column value is
        // present in the row but must be ignored.
        let row = vec![
            Value::bit(12, 10),
            Value::bit(48, 0xAB),
            Value::str("flood"),
            Value::bit(9, 3),
        ];
        let (_, up) = row_to_update(&row, 1, &binding()).unwrap();
        assert_eq!(up.entry.action, "flood");
        assert!(up.entry.params.is_empty());
    }

    #[test]
    fn unknown_action_rejected() {
        let row = vec![
            Value::bit(12, 10),
            Value::bit(48, 0xAB),
            Value::str("zap"),
            Value::bit(9, 3),
        ];
        assert!(row_to_update(&row, 1, &binding()).is_err());
    }

    #[test]
    fn datum_conversions() {
        // Scalar.
        let d = Datum::scalar(Atom::i(5));
        assert_eq!(datum_to_value(&d, &Type::Int).unwrap(), Value::Int(5));
        // Optional-as-set.
        let d = Datum::set(vec![Atom::i(1), Atom::i(2)]);
        let v = datum_to_value(&d, &Type::Set(Box::new(Type::Int))).unwrap();
        assert_eq!(v, Value::set(vec![Value::Int(1), Value::Int(2)]));
        // Scalar column with empty set: error.
        assert!(datum_to_value(&Datum::empty(), &Type::Int).is_err());
        // Map.
        let d = Datum::map(vec![(Atom::s("k"), Atom::s("v"))]);
        let v = datum_to_value(&d, &Type::Map(Box::new(Type::Str), Box::new(Type::Str))).unwrap();
        assert_eq!(v, Value::map(vec![(Value::str("k"), Value::str("v"))]));
    }

    #[test]
    fn digest_conversion() {
        let b = DigestBinding {
            relation: "d".into(),
            fields: vec![("port".into(), 9), ("mac".into(), 48)],
            per_switch: true,
        };
        let d = Digest {
            name: "d".into(),
            fields: vec![("port".into(), 2), ("mac".into(), 7)],
        };
        let vals = digest_to_values(&d, &b, 4).unwrap();
        assert_eq!(
            vals,
            vec![Value::Int(4), Value::bit(9, 2), Value::bit(48, 7)]
        );
        // Missing field errors.
        let bad = Digest {
            name: "d".into(),
            fields: vec![("port".into(), 2)],
        };
        assert!(digest_to_values(&bad, &b, 0).is_err());
    }
}
