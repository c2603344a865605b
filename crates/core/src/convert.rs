//! Data conversion between the three planes.
//!
//! "Generated helper functions ... convert data between P4Runtime and
//! DDlog types" (§4.2). Here every conversion is a walk over a column
//! layout produced by [`crate::codegen`]: OVSDB rows become DDlog
//! tuples, DDlog output rows become P4Runtime table entries and back,
//! and digests become DDlog input tuples. The layouts were checked
//! against the compiled program when the controller was built, so no
//! walk re-checks a column's arity or type.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ddlog::value::{Uuid as DUuid, Value};
use ddlog::Type;
use ovsdb::datum::{Atom, Datum};
use ovsdb::db::{RowChange, RowData};
use ovsdb::schema::TableSchema;
use p4sim::runtime::{Digest, FieldMatch, TableEntry, Update, WriteOp};
use serde_json::Value as Json;

use crate::codegen::{self, Col, ColKind, DigestBinding, InputBinding, TableBinding};

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

/// Convert one OVSDB row to its relation's tuple by walking the
/// layout: `_uuid`, then each column (its default where the row omits
/// it).
fn row_to_values(uuid: ovsdb::Uuid, row: &RowData, layout: &[Col]) -> Result<Vec<Value>, String> {
    let mut values = Vec::with_capacity(layout.len());
    for col in layout {
        values.push(match &col.kind {
            ColKind::Column(name, default) => {
                let datum = row.get(name).unwrap_or(default);
                datum_to_value(datum, &col.ty).map_err(|e| format!("column `{name}`: {e}"))?
            }
            _ => Value::Uuid(DUuid(uuid.0)),
        });
    }
    Ok(values)
}

/// Append the engine ops of one committed row change: the old row's
/// retraction, then the new row's insertion. A change to a table
/// without a binding has none.
fn change_to_ops(
    ch: &RowChange,
    binding: Option<&InputBinding>,
    ops: &mut InputOps,
) -> Result<(), String> {
    for (row, insert) in [(&ch.old, false), (&ch.new, true)] {
        if let (Some(binding), Some(row)) = (binding, row) {
            let values = row_to_values(ch.uuid, row, &binding.layout)?;
            ops.push((binding.relation.clone(), values, insert));
        }
    }
    Ok(())
}

/// The bound OVSDB tables of a program, by table name.
pub type Inputs = HashMap<String, InputBinding>;

/// Translate committed OVSDB row changes into DDlog transaction ops.
/// Changes to tables without a binding are skipped.
pub fn changes_to_ops(changes: &[RowChange], inputs: &Inputs) -> Result<InputOps, String> {
    let mut ops = Vec::new();
    for ch in changes {
        change_to_ops(ch, inputs.get(&ch.table), &mut ops)?;
    }
    Ok(ops)
}

/// DDlog transaction ops: `(relation, row values, is_insert)`.
pub type InputOps = Vec<(String, Vec<Value>, bool)>;

/// Decode a monitor `table-updates` JSON object (the TCP path) and
/// translate it: [`ovsdb::decode_table_updates_into`] feeding the
/// bound tables' conversion row by row, so no decoded row outlives its
/// conversion. Also returns the `(trace id, commit_ns)` the server
/// embedded, if any.
pub fn decode_monitor_update(
    updates: &Json,
    schema: &ovsdb::Schema,
    inputs: &Inputs,
) -> Result<(InputOps, Option<(u64, u64)>), String> {
    let mut ops = Vec::new();
    let trace = ovsdb::decode_table_updates_into(updates, schema, &mut |change| {
        change_to_ops(&change, inputs.get(&change.table), &mut ops)
    })?;
    Ok((ops, trace))
}

/// The ops of [`decode_monitor_update`] for callers holding an engine's
/// relation types instead of bindings: `rel_types` is asked once per
/// table the update names, and a table it knows is converted through
/// the binding of its schema.
pub fn monitor_update_to_ops(
    updates: &Json,
    schema: &ovsdb::Schema,
    rel_types: &dyn Fn(&str) -> Option<Vec<Type>>,
) -> Result<InputOps, String> {
    // Each table the update named so far, with its binding if it has one.
    let mut asked: Vec<(String, Option<Rc<InputBinding>>)> = Vec::new();
    let mut ops = Vec::new();
    ovsdb::decode_table_updates_into(updates, schema, &mut |mut change| {
        if let Some((_, binding)) = asked.iter().find(|(t, _)| *t == change.table) {
            return change_to_ops(&change, binding.as_deref(), &mut ops);
        }
        let table = rel_types(&change.table).and(schema.table(&change.table));
        let binding = table.map(binding_of);
        change_to_ops(&change, binding.as_deref(), &mut ops)?;
        asked.push((std::mem::take(&mut change.table), binding));
        Ok(())
    })?;
    Ok(ops)
}

thread_local! {
    /// The bindings [`monitor_update_to_ops`] converted through on this
    /// thread, by table, with the schema each was built from. A binding
    /// is a function of that schema alone, so a caller decoding one
    /// update at a time pays for it once, not once per update.
    static BINDINGS: RefCell<HashMap<String, (TableSchema, Rc<InputBinding>)>> =
        RefCell::default();
}

fn binding_of(table: &TableSchema) -> Rc<InputBinding> {
    BINDINGS.with_borrow_mut(|cache| match cache.get(&table.name) {
        Some((schema, binding)) if schema == table => binding.clone(),
        _ => {
            let binding = Rc::new(codegen::ovsdb_binding(table));
            cache.insert(table.name.clone(), (table.clone(), binding.clone()));
            binding
        }
    })
}

/// A numeric column's value: `bit<N>` as is, `bigint` in two's
/// complement.
///
/// # Panics
///
/// On a non-numeric value. Layout columns that reach here are
/// `bit<N>` or `bigint`, and `Controller::new` checked the engine
/// declares them so.
pub(crate) fn num(v: &Value) -> u128 {
    match v {
        Value::Bit { val, .. } => *val,
        Value::Int(i) => *i as u128,
        other => unreachable!("numeric layout column holds {other}"),
    }
}

/// The value `v` takes in a numeric column of type `ty` (the inverse
/// of [`num`]).
pub(crate) fn typed(ty: &Type, v: u128) -> Value {
    match ty {
        Type::Bit(w) => Value::bit(*w, v),
        _ => Value::Int(v as i128),
    }
}

/// Convert a digest into a DDlog input tuple.
pub fn digest_to_values(
    digest: &Digest,
    binding: &DigestBinding,
    switch_id: usize,
) -> Result<Vec<Value>, String> {
    let mut values = Vec::with_capacity(binding.layout.len());
    for col in &binding.layout {
        let v = match &col.kind {
            ColKind::Field(name) => digest
                .field(name)
                .ok_or_else(|| format!("digest `{}` missing field `{name}`", digest.name))?,
            _ => switch_id as u128,
        };
        values.push(typed(&col.ty, v));
    }
    Ok(values)
}

/// Convert one DDlog output row into a P4Runtime update by walking the
/// table's layout, returning the target switch (`None` = broadcast to
/// all switches). [`entry_to_row`] is the same walk backwards. The one
/// check left per row is the action name, for rules that compute it.
pub fn row_to_update(
    row: &[Value],
    weight: isize,
    binding: &TableBinding,
) -> Result<(Option<usize>, Update), String> {
    let actions = &binding.table.actions;
    let mut switch = None;
    let mut chosen = None;
    let mut entry = TableEntry {
        table: binding.relation.clone(),
        matches: Vec::with_capacity(binding.table.keys.len()),
        priority: 0,
        action: String::new(),
        params: Vec::new(),
    };
    for (col, v) in binding.layout.iter().zip(row) {
        match col.kind {
            ColKind::Switch => switch = Some(num(v) as usize),
            ColKind::Exact(_) => entry.matches.push(FieldMatch::Exact { value: num(v) }),
            ColKind::LpmValue(_) => entry.matches.push(FieldMatch::Lpm {
                value: num(v),
                prefix_len: 0,
            }),
            ColKind::TernaryValue(_) => entry.matches.push(FieldMatch::Ternary {
                value: num(v),
                mask: 0,
            }),
            ColKind::LpmPrefix(k) => {
                if let Some(FieldMatch::Lpm { prefix_len, .. }) = entry.matches.get_mut(k) {
                    *prefix_len = num(v) as u16;
                }
            }
            ColKind::TernaryMask(k) => {
                if let Some(FieldMatch::Ternary { value, mask }) = entry.matches.get_mut(k) {
                    *mask = num(v);
                    *value &= *mask;
                }
            }
            ColKind::Priority => entry.priority = num(v) as i32,
            ColKind::Action => {
                let name = v.as_str().unwrap_or_default();
                let a = actions.iter().position(|a| a.name == name).ok_or_else(|| {
                    format!("table `{}` has no action `{name}`", binding.relation)
                })?;
                entry.action = name.to_string();
                entry.params = vec![0; actions[a].params.len()];
                chosen = Some(a);
            }
            ColKind::Param { action, index } if chosen == Some(action) => {
                entry.params[index] = num(v);
            }
            _ => {}
        }
    }
    let op = if weight > 0 {
        WriteOp::Insert
    } else {
        WriteOp::Delete
    };
    Ok((switch, Update { op, entry }))
}

/// The output row that would produce `entry` on `switch_id`: the
/// inverse of [`row_to_update`]. Parameter columns owned by other
/// actions are 0, the convention the generated rules follow.
pub fn entry_to_row(
    entry: &TableEntry,
    switch_id: usize,
    binding: &TableBinding,
) -> Result<Vec<Value>, String> {
    let table = &binding.table;
    if entry.matches.len() != table.keys.len() {
        return Err(format!(
            "entry has {} matches, table `{}` has {} keys",
            entry.matches.len(),
            entry.table,
            table.keys.len()
        ));
    }
    let action = table.actions.iter().position(|a| a.name == entry.action);
    let declared = action.map(|a| &table.actions[a]);
    if let Some(a) = declared.filter(|a| a.params.len() != entry.params.len()) {
        return Err(format!(
            "entry for table `{}` carries {} param(s), action `{}` declares {}",
            entry.table,
            entry.params.len(),
            a.name,
            a.params.len()
        ));
    }
    let key = |k: usize| match entry.matches[k] {
        FieldMatch::Exact { value } => (value, 0),
        FieldMatch::Lpm { value, prefix_len } => (value, prefix_len as u128),
        FieldMatch::Ternary { value, mask } => (value, mask),
    };
    let row = binding.layout.iter().map(|col| {
        let v = match col.kind {
            ColKind::Action => return Value::str(&entry.action),
            ColKind::Switch => switch_id as u128,
            ColKind::Exact(k) | ColKind::LpmValue(k) | ColKind::TernaryValue(k) => key(k).0,
            ColKind::LpmPrefix(k) | ColKind::TernaryMask(k) => key(k).1,
            ColKind::Priority => entry.priority as u128,
            ColKind::Param { action: a, index } if action == Some(a) => entry.params[index],
            _ => 0,
        };
        typed(&col.ty, v)
    });
    Ok(row.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{p4info2ddlog, CodegenOptions, Generated};

    /// `p4sim`'s demo program: `MacLearned(vlan_id: bit<12>,
    /// hdr_eth_dst: bit<48>, action, output_port: bit<16>)` with actions
    /// `output(port)` and `flood()`, and digest
    /// `mac_learn_digest_t(port: bit<16>, mac: bit<48>, vlan: bit<12>)`.
    fn demo(per_switch: bool) -> Generated {
        let prog = p4sim::parse_p4(p4sim::parser::DEMO).unwrap();
        let info = p4sim::P4Info::from_program(&prog);
        p4info2ddlog(&info, CodegenOptions { per_switch })
    }

    fn mac_learned(action: &str) -> (Vec<Value>, TableBinding) {
        let row = vec![
            Value::bit(12, 10),
            Value::bit(48, 0xAB),
            Value::str(action),
            Value::bit(16, 3),
        ];
        (row, demo(false).tables.remove(1))
    }

    #[test]
    fn output_row_to_insert() {
        let (row, binding) = mac_learned("output");
        let (sw, up) = row_to_update(&row, 1, &binding).unwrap();
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

        let (_, down) = row_to_update(&row, -1, &binding).unwrap();
        assert_eq!(down.op, WriteOp::Delete);
    }

    #[test]
    fn unused_action_params_dropped() {
        // Action `flood` has no params; the output_port column value is
        // present in the row but must be ignored.
        let (row, binding) = mac_learned("flood");
        let (_, up) = row_to_update(&row, 1, &binding).unwrap();
        assert_eq!(up.entry.action, "flood");
        assert!(up.entry.params.is_empty());
    }

    #[test]
    fn unknown_action_rejected() {
        let (row, binding) = mac_learned("zap");
        assert!(row_to_update(&row, 1, &binding).is_err());
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
        let b = &demo(true).digests[0];
        let fields = [("port", 2), ("mac", 7), ("vlan", 5)];
        let d = Digest {
            name: "mac_learn_digest_t".into(),
            fields: fields.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        };
        let vals = digest_to_values(&d, b, 4).unwrap();
        let bits = [Value::bit(16, 2), Value::bit(48, 7), Value::bit(12, 5)];
        assert_eq!(vals, [vec![Value::Int(4)], bits.to_vec()].concat());
        // Missing field errors.
        let bad = Digest {
            fields: d.fields[..1].to_vec(),
            ..d
        };
        assert!(digest_to_values(&bad, b, 0).is_err());
    }
}
