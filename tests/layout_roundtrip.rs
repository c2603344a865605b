//! The two directions of the layout walk are inverses: for every table
//! of snvs, of `p4sim`'s demo program and of an lpm/ternary program, an
//! arbitrary well-typed output row converted to a P4 table entry and
//! back is the same row.
//!
//! "Well-typed" is what a rule can produce and an entry can carry:
//! parameters owned by other actions are zero (the convention the
//! inverse fills in), ternary values lie inside their masks (the entry
//! stores `value & mask`), and prefix lengths, priorities and switch ids
//! fit their P4Runtime fields.

use ddlog::{Type, Value};
use nerpa::codegen::{p4info2ddlog, CodegenOptions, ColKind, TableBinding};
use nerpa::convert::{entry_to_row, row_to_update};
use proptest::prelude::*;

fn tables() -> Vec<TableBinding> {
    let sources = [
        snvs::assets::SNVS_P4,
        p4sim::parser::DEMO,
        include_str!("../crates/core/tests/acl.p4"),
    ];
    let mut out = Vec::new();
    for src in sources {
        let info = p4sim::P4Info::from_program(&p4sim::parse_p4(src).unwrap());
        for per_switch in [false, true] {
            out.extend(p4info2ddlog(&info, CodegenOptions { per_switch }).tables);
        }
    }
    out
}

fn bits(ty: &Type, v: u128) -> Value {
    let Type::Bit(w) = ty else {
        panic!("expected bit<N>, got {ty}")
    };
    Value::bit(*w, v)
}

/// The well-typed row `seeds` pick for `binding`.
fn row(binding: &TableBinding, choice: usize, seeds: &[u128]) -> (Vec<Value>, usize) {
    let actions = &binding.table.actions;
    let chosen = choice % actions.len();
    let mut switch = 0;
    let mut row: Vec<Value> = Vec::new();
    for (col, &v) in binding.layout.iter().zip(seeds) {
        let value = match &col.kind {
            ColKind::Switch => {
                switch = (v % 8) as usize;
                Value::Int(switch as i128)
            }
            ColKind::LpmPrefix(k) => {
                Value::Int((v % (binding.table.keys[*k].width as u128 + 1)) as i128)
            }
            ColKind::TernaryMask(_) => {
                let mask = bits(&col.ty, v);
                let masked = row.pop().unwrap().as_u128().unwrap() & mask.as_u128().unwrap();
                row.push(bits(&col.ty, masked));
                mask
            }
            ColKind::Priority => Value::Int(v as i32 as i128),
            ColKind::Action => Value::str(&actions[chosen].name),
            ColKind::Param { action, .. } if *action != chosen => bits(&col.ty, 0),
            _ => bits(&col.ty, v),
        };
        row.push(value);
    }
    (row, switch)
}

proptest! {
    #[test]
    fn entry_to_row_inverts_row_to_update(
        table in any::<usize>(),
        choice in any::<usize>(),
        seeds in proptest::collection::vec(any::<u128>(), 16),
    ) {
        let tables = tables();
        let binding = &tables[table % tables.len()];
        prop_assert!(binding.layout.len() <= seeds.len());
        let (row, switch) = row(binding, choice, &seeds);
        let (target, update) = row_to_update(&row, 1, binding).unwrap();
        prop_assert_eq!(target.unwrap_or(switch), switch);
        prop_assert_eq!(entry_to_row(&update.entry, switch, binding).unwrap(), row);
    }
}
