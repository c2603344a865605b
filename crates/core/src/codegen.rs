//! Cross-plane code generation — the heart of Nerpa's co-design story
//! (§3–§4.2 of the paper).
//!
//! * [`ovsdb2ddlog`] generates one DDlog **input** relation per
//!   management-plane table (the paper's `ovsdb2ddlog` tool);
//! * [`p4info2ddlog`] generates one DDlog **output** relation per P4
//!   match-action table and one **input** relation per packet digest
//!   (the paper's `p4info2ddlog` tool).
//!
//! The generated declarations are concatenated with the programmer's
//! rules and compiled together, so any mismatch between planes surfaces
//! as a type error — "all three parts are type-checked together".
//!
//! Each generator first builds a relation's column [`Layout`] — per
//! column its DDlog name and type and what it holds on the other plane
//! ([`ColKind`]) — and renders the declaration text from it. The layout
//! is the one record of column order: [`crate::convert`] walks it in
//! both directions (row → table entry and back, OVSDB row and digest →
//! tuple), and `Controller::new` checks every layout against the
//! compiled program once. That check also covers what the DDlog type
//! checker cannot see: an action-name constant the P4 table does not
//! declare, and a `MulticastGroup` column wider than the data plane's
//! 16-bit group ids and ports.

use ddlog::Type;
use ovsdb::datum::Datum;
use ovsdb::schema::{ColumnType, Schema, TableSchema};
use p4sim::p4info::{P4Info, TableInfo};

/// What a generated column holds on its other plane. `k` is the P4
/// table's key index.
#[derive(Debug, Clone, PartialEq)]
pub enum ColKind {
    /// The switch a row is routed to, or a digest came from (`bigint`).
    Switch,
    /// An exact-match key.
    Exact(usize),
    /// An LPM key's value.
    LpmValue(usize),
    /// An LPM key's prefix length (`bigint`).
    LpmPrefix(usize),
    /// A ternary key's value.
    TernaryValue(usize),
    /// A ternary key's mask.
    TernaryMask(usize),
    /// The entry priority (`bigint`; tables with a ternary key).
    Priority,
    /// The action name (`string`).
    Action,
    /// Parameter `index` of the table's action number `action`.
    Param {
        /// Index into the table's actions.
        action: usize,
        /// Index into that action's parameters.
        index: usize,
    },
    /// The digest field of this name.
    Field(String),
    /// An OVSDB row's `_uuid`.
    Uuid,
    /// The OVSDB column of this name, and the default datum a row that
    /// omits it holds.
    Column(String, Datum),
}

/// One column of a generated relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Col {
    /// DDlog column name.
    pub name: String,
    /// DDlog column type.
    pub ty: Type,
    /// What the column holds on the other plane.
    pub kind: ColKind,
}

/// A generated relation's columns, in declaration order.
pub type Layout = Vec<Col>;

/// How a P4 table maps onto its generated DDlog output relation.
#[derive(Debug, Clone)]
pub struct TableBinding {
    /// Relation (and table) name.
    pub relation: String,
    /// The P4 table description.
    pub table: TableInfo,
    /// The relation's columns.
    pub layout: Layout,
}

/// How an OVSDB table or a P4 digest maps onto its generated DDlog
/// input relation.
#[derive(Debug, Clone)]
pub struct InputBinding {
    /// Relation (and table or digest struct) name.
    pub relation: String,
    /// The relation's columns.
    pub layout: Layout,
}

/// A digest's binding: the leading `switch_id` column (when
/// [`CodegenOptions::per_switch`]) and then the digest fields.
pub type DigestBinding = InputBinding;

/// Options controlling generation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodegenOptions {
    /// Add `switch_id: bigint` columns so one control plane can program
    /// several switches running the same P4 program (the paper's
    /// multi-device deployment).
    pub per_switch: bool,
}

/// Generated code plus the bindings the controller needs at runtime.
#[derive(Debug, Clone, Default)]
pub struct Generated {
    /// DDlog source text (relation declarations only).
    pub source: String,
    /// P4-table bindings.
    pub tables: Vec<TableBinding>,
    /// Digest bindings.
    pub digests: Vec<DigestBinding>,
    /// OVSDB table bindings.
    pub ovsdb: Vec<InputBinding>,
}

/// Map an OVSDB column type to a DDlog type.
///
/// Optional scalars (`min 0, max 1`) become `Set<T>` — faithfully
/// mirroring OVSDB's "a scalar is a set of size one" data model.
pub fn ovsdb_type_to_ddlog(ct: &ColumnType) -> Type {
    let base = |bt: &ovsdb::schema::BaseType| match bt.ty {
        ovsdb::AtomType::Integer => Type::Int,
        ovsdb::AtomType::Real => Type::Double,
        ovsdb::AtomType::Boolean => Type::Bool,
        ovsdb::AtomType::String => Type::Str,
        ovsdb::AtomType::Uuid => Type::Uuid,
    };
    if let Some(v) = &ct.value {
        return Type::Map(Box::new(base(&ct.key)), Box::new(base(v)));
    }
    if ct.min == 1 && ct.max == 1 {
        return base(&ct.key);
    }
    Type::Set(Box::new(base(&ct.key)))
}

fn col(name: impl Into<String>, ty: Type, kind: ColKind) -> Col {
    Col {
        name: name.into(),
        ty,
        kind,
    }
}

/// Render a relation declaration from its layout.
fn declare(src: &mut String, role: &str, relation: &str, layout: &[Col]) {
    let cols: Vec<String> = layout
        .iter()
        .map(|c| format!("{}: {}", c.name, c.ty))
        .collect();
    let cols = cols.join(", ");
    src.push_str(&format!("{role} relation {relation}({cols})\n"));
}

/// The input relation of one OVSDB table: `_uuid`, then the columns in
/// schema (alphabetical) order.
pub(crate) fn ovsdb_binding(table: &TableSchema) -> InputBinding {
    let mut layout = vec![col("_uuid", Type::Uuid, ColKind::Uuid)];
    for (cname, c) in &table.columns {
        let kind = ColKind::Column(cname.clone(), c.ty.default_datum());
        layout.push(col(sanitize(cname), ovsdb_type_to_ddlog(&c.ty), kind));
    }
    InputBinding {
        relation: table.name.clone(),
        layout,
    }
}

/// Generate input relations for every table of an OVSDB schema.
pub fn ovsdb2ddlog(schema: &Schema) -> Generated {
    let mut gen = Generated {
        source: format!(
            "// ---- generated from OVSDB schema `{}` (version {}) ----\n",
            schema.name, schema.version
        ),
        ..Default::default()
    };
    for table in schema.tables.values() {
        let binding = ovsdb_binding(table);
        declare(&mut gen.source, "input", &binding.relation, &binding.layout);
        gen.ovsdb.push(binding);
    }
    gen
}

/// Generate output relations for every P4 table and input relations for
/// every digest.
pub fn p4info2ddlog(info: &P4Info, opts: CodegenOptions) -> Generated {
    let mut gen = Generated {
        source: format!(
            "// ---- generated from P4 program `{}` ----\n",
            info.program
        ),
        ..Default::default()
    };
    let switch_col = opts
        .per_switch
        .then(|| col("switch_id", Type::Int, ColKind::Switch));
    for t in &info.tables {
        let mut layout: Layout = switch_col.iter().cloned().collect();
        let mut ternary = false;
        for (k, key) in t.keys.iter().enumerate() {
            let name = sanitize(&key.name);
            let bits = Type::Bit(key.width);
            match key.match_kind.as_str() {
                "exact" => layout.push(col(name, bits, ColKind::Exact(k))),
                "lpm" => {
                    let prefix = format!("{name}_prefix_len");
                    layout.push(col(name, bits, ColKind::LpmValue(k)));
                    layout.push(col(prefix, Type::Int, ColKind::LpmPrefix(k)));
                }
                "ternary" => {
                    let mask = format!("{name}_mask");
                    layout.push(col(name, bits.clone(), ColKind::TernaryValue(k)));
                    layout.push(col(mask, bits, ColKind::TernaryMask(k)));
                    ternary = true;
                }
                other => unreachable!("p4sim parses exact, lpm and ternary keys, not {other}"),
            }
        }
        if ternary {
            layout.push(col("priority", Type::Int, ColKind::Priority));
        }
        layout.push(col("action", Type::Str, ColKind::Action));
        for (action, a) in t.actions.iter().enumerate() {
            for (index, p) in a.params.iter().enumerate() {
                let name = format!("{}_{}", a.name, p.name);
                let kind = ColKind::Param { action, index };
                layout.push(col(name, Type::Bit(p.width), kind));
            }
        }
        declare(&mut gen.source, "output", &t.name, &layout);
        gen.tables.push(TableBinding {
            relation: t.name.clone(),
            table: t.clone(),
            layout,
        });
    }
    for d in &info.digests {
        let mut layout: Layout = switch_col.iter().cloned().collect();
        for f in &d.fields {
            let kind = ColKind::Field(f.name.clone());
            layout.push(col(sanitize(&f.name), Type::Bit(f.width), kind));
        }
        declare(&mut gen.source, "input", &d.name, &layout);
        gen.digests.push(DigestBinding {
            relation: d.name.clone(),
            layout,
        });
    }
    gen
}

/// Turn a P4 key name like `std.ingress_port` or `hdr.eth.dst` into a
/// valid DDlog column identifier.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    // Strip the standard prefixes for readability: std_x → x,
    // hdr_eth_dst stays distinctive.
    if let Some(rest) = out.strip_prefix("std_") {
        out = rest.to_string();
    }
    if let Some(rest) = out.strip_prefix("meta_") {
        out = rest.to_string();
    }
    out
}

/// Combine generated declarations with hand-written rules into a full
/// program source. This is the "unified program" the developer ships.
pub fn assemble_program(parts: &[&Generated], rules: &str) -> String {
    let mut src = String::new();
    for p in parts {
        src.push_str(&p.source);
        src.push('\n');
    }
    src.push_str("// ---- hand-written control-plane rules ----\n");
    src.push_str(rules);
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn demo_schema() -> Schema {
        Schema::from_json(&json!({
            "name": "snvs",
            "tables": {
                "Port": {"columns": {
                    "id": {"type": "integer"},
                    "vlan_mode": {"type": {"key": "string", "min": 0, "max": 1}},
                    "tag": {"type": {"key": "integer", "min": 0, "max": 1}},
                    "trunks": {"type": {"key": "integer", "min": 0, "max": "unlimited"}},
                    "options": {"type": {"key": "string", "value": "string",
                                 "min": 0, "max": "unlimited"}}
                }, "isRoot": true}
            }
        }))
        .unwrap()
    }

    #[test]
    fn ovsdb_generation() {
        let gen = ovsdb2ddlog(&demo_schema());
        assert!(
            gen.source.contains(
                "input relation Port(_uuid: uuid, id: bigint, options: Map<string,string>, \
             tag: Set<bigint>, trunks: Set<bigint>, vlan_mode: Set<string>)"
            ),
            "{}",
            gen.source
        );
        assert_eq!(gen.ovsdb.len(), 1);
        assert_eq!(gen.ovsdb[0].relation, "Port");
    }

    #[test]
    fn p4info_generation() {
        let prog = p4sim::parse_p4(p4sim::parser::DEMO).unwrap();
        let info = P4Info::from_program(&prog);
        let gen = p4info2ddlog(&info, CodegenOptions::default());
        assert!(
            gen.source.contains(
                "output relation InVlan(ingress_port: bit<16>, action: string, set_vlan_vid: bit<12>)"
            ),
            "{}",
            gen.source
        );
        assert!(
            gen.source.contains(
                "output relation MacLearned(vlan_id: bit<12>, hdr_eth_dst: bit<48>, \
                 action: string, output_port: bit<16>)"
            ),
            "{}",
            gen.source
        );
        assert!(gen.source.contains(
            "input relation mac_learn_digest_t(port: bit<16>, mac: bit<48>, vlan: bit<12>)"
        ));
        assert_eq!(gen.tables.len(), 2);
        assert_eq!(gen.digests.len(), 1);
    }

    #[test]
    fn per_switch_columns() {
        let prog = p4sim::parse_p4(p4sim::parser::DEMO).unwrap();
        let info = P4Info::from_program(&prog);
        let gen = p4info2ddlog(&info, CodegenOptions { per_switch: true });
        assert!(gen
            .source
            .contains("output relation InVlan(switch_id: bigint, "));
        assert!(gen
            .source
            .contains("input relation mac_learn_digest_t(switch_id: bigint, "));
    }

    #[test]
    fn generated_code_typechecks_with_rules() {
        // Fig. 5 of the paper: the InVlan output relation computed from
        // the Port input relation by one hand-written rule.
        let schema_gen = ovsdb2ddlog(&demo_schema());
        let prog = p4sim::parse_p4(p4sim::parser::DEMO).unwrap();
        let p4_gen = p4info2ddlog(&P4Info::from_program(&prog), CodegenOptions::default());
        let rules = r#"
            InVlan(id as bit<16>, "set_vlan", tag as bit<12>) :-
                Port(_, id, _, tags, _, modes),
                set_contains(modes, "access"),
                var tag = FlatMap(tags).
        "#;
        let src = assemble_program(&[&schema_gen, &p4_gen], rules);
        let engine = ddlog::Engine::from_source(&src);
        assert!(engine.is_ok(), "{src}\n{:?}", engine.err());
    }

    #[test]
    fn type_mismatch_across_planes_rejected() {
        // The paper's correctness claim: using a management-plane column
        // at the wrong data-plane width is a compile error.
        let schema_gen = ovsdb2ddlog(&demo_schema());
        let prog = p4sim::parse_p4(p4sim::parser::DEMO).unwrap();
        let p4_gen = p4info2ddlog(&P4Info::from_program(&prog), CodegenOptions::default());
        let rules = r#"
            InVlan(id, "set_vlan", 1) :- Port(_, id, _, _, _, _).
        "#; // `id` is bigint, key is bit<16>: must not typecheck
        let src = assemble_program(&[&schema_gen, &p4_gen], rules);
        assert!(ddlog::Engine::from_source(&src).is_err());
    }

    #[test]
    fn lpm_and_ternary_columns() {
        let prog = p4sim::parse_p4(include_str!("../tests/acl.p4")).unwrap();
        let gen = p4info2ddlog(&P4Info::from_program(&prog), CodegenOptions::default());
        assert!(
            gen.source.contains(
                "output relation Route(hdr_ip_dst: bit<32>, hdr_ip_dst_prefix_len: bigint, \
             action: string, fwd_port: bit<16>)"
            ),
            "{}",
            gen.source
        );
        assert!(
            gen.source.contains(
                "output relation Acl(hdr_ip_src: bit<32>, hdr_ip_src_mask: bit<32>, \
             hdr_ip_proto: bit<8>, priority: bigint, action: string, deny"
            ) || gen.source.contains(
                "output relation Acl(hdr_ip_src: bit<32>, hdr_ip_src_mask: bit<32>, \
             hdr_ip_proto: bit<8>, priority: bigint, action: string, fwd_port: bit<16>)"
            ),
            "{}",
            gen.source
        );
        let acl = gen.tables.iter().find(|t| t.relation == "Acl").unwrap();
        assert!(acl.layout.iter().any(|c| c.kind == ColKind::Priority));
    }
}
