//! The paper's type-safety claim, tested by mutation: textual mutants
//! of snvs's three sources (`crates/snvs/src/assets.rs`), each built the
//! way `SnvsStack` builds its program, must be rejected by
//! `Controller::new` before any switch is touched. The DDlog type
//! checker catches most plane mismatches; the controller's construction
//! check catches the two it cannot see (an action name the P4 table does
//! not declare, and a `MulticastGroup` wider than the data plane's
//! 16-bit ids). A mutant that is accepted must be listed as equivalent,
//! with the reason.

use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, NerpaProgram};
use snvs::assets::{SNVS_P4, SNVS_RULES, SNVS_SCHEMA};

#[derive(Clone, Copy)]
enum Source {
    P4,
    Schema,
    Rules,
}

struct Mutant {
    name: &'static str,
    source: Source,
    /// `(from, to)` edits, each applied to the first occurrence.
    edits: &'static [(&'static str, &'static str)],
    /// Why the mutant is semantics-preserving, if it is.
    equivalent: Option<&'static str>,
}

const fn kill(
    name: &'static str,
    source: Source,
    edits: &'static [(&'static str, &'static str)],
) -> Mutant {
    Mutant {
        name,
        source,
        edits,
        equivalent: None,
    }
}

const MUTANTS: &[Mutant] = &[
    // P4 keys, parameters and digest fields, widened or narrowed.
    kill(
        "widen key meta.vlan",
        Source::P4,
        &[(
            "struct metadata_t {\n    bit<12> vlan;",
            "struct metadata_t {\n    bit<16> vlan;",
        )],
    ),
    kill(
        "widen key hdr.eth.dst",
        Source::P4,
        &[("bit<48> dst;", "bit<64> dst;")],
    ),
    kill(
        "widen param set_port_vlan.vid",
        Source::P4,
        &[("set_port_vlan(bit<12> vid)", "set_port_vlan(bit<16> vid)")],
    ),
    kill(
        "narrow param output.port",
        Source::P4,
        &[("output(bit<16> port)", "output(bit<9> port)")],
    ),
    kill(
        "narrow param mirror_to.port",
        Source::P4,
        &[("mirror_to(bit<16> port)", "mirror_to(bit<9> port)")],
    ),
    kill(
        "widen digest field port",
        Source::P4,
        &[("bit<16>  port;", "bit<32>  port;")],
    ),
    kill(
        "drop digest field vlan",
        Source::P4,
        &[
            (
                "    bit<48> mac;\n    bit<12> vlan;\n",
                "    bit<48> mac;\n",
            ),
            (
                "mac  = hdr.eth.src,\n                             vlan = meta.vlan });",
                "mac  = hdr.eth.src });",
            ),
        ],
    ),
    // Match kinds.
    kill(
        "meta.tagged exact -> ternary",
        Source::P4,
        &[("meta.tagged: exact;", "meta.tagged: ternary;")],
    ),
    kill(
        "hdr.eth.dst exact -> lpm",
        Source::P4,
        &[("hdr.eth.dst: exact;", "hdr.eth.dst: lpm;")],
    ),
    // Table and action names.
    kill(
        "rename table Mirror",
        Source::P4,
        &[
            ("table Mirror", "table PortMirror"),
            ("Mirror.apply()", "PortMirror.apply()"),
        ],
    ),
    kill(
        "rename action use_tag",
        Source::P4,
        &[
            ("action use_tag()", "action use_vlan_tag()"),
            ("use_tag;", "use_vlan_tag;"),
        ],
    ),
    kill(
        "rename action mark_tagged",
        Source::P4,
        &[
            ("action mark_tagged()", "action mark_trunk()"),
            ("{ mark_tagged; }", "{ mark_trunk; }"),
        ],
    ),
    kill(
        "drop use_tag from InVlan's actions",
        Source::P4,
        &[(
            "set_port_vlan; use_tag; drop_packet;",
            "set_port_vlan; drop_packet;",
        )],
    ),
    // Schema columns.
    kill(
        "rename column tag",
        Source::Schema,
        &[("\"tag\":", "\"vlan_tag\":")],
    ),
    kill(
        "drop column trunks",
        Source::Schema,
        &[(
            "\"trunks\": {\"type\": {\"key\": {\"type\": \"integer\",
                        \"minInteger\": 0, \"maxInteger\": 4095},
                        \"min\": 0, \"max\": \"unlimited\"}},",
            "",
        )],
    ),
    kill(
        "retype column id",
        Source::Schema,
        &[(
            "\"id\": {\"type\": {\"key\": {\"type\": \"integer\",
                        \"minInteger\": 0, \"maxInteger\": 65535}}},",
            "\"id\": {\"type\": \"string\"},",
        )],
    ),
    kill(
        "retype column mirror_dst optional -> scalar",
        Source::Schema,
        &[(
            "\"minInteger\": 0, \"maxInteger\": 65535},
                        \"min\": 0, \"max\": 1}}",
            "\"minInteger\": 0, \"maxInteger\": 65535}}}",
        )],
    ),
    Mutant {
        name: "rename column mirror_dst",
        source: Source::Schema,
        edits: &[("\"mirror_dst\":", "\"mirror\":")],
        equivalent: Some(
            "`mirror` sorts where `mirror_dst` did, between `id` and `tag`, and the rules \
             address Port's columns by position, so the program is the same",
        ),
    },
    // The multicast convention relation.
    kill(
        "MulticastGroup group as bit<32>",
        Source::Rules,
        &[
            (
                "MulticastGroup(group: bit<16>",
                "MulticastGroup(group: bit<32>",
            ),
            ("MulticastGroup(v as bit<16>", "MulticastGroup(v as bit<32>"),
        ],
    ),
];

fn mutate(m: &Mutant) -> [String; 3] {
    let mut sources = [SNVS_P4, SNVS_SCHEMA, SNVS_RULES].map(String::from);
    let text = &mut sources[m.source as usize];
    for (from, to) in m.edits {
        let next = text.replacen(from, to, 1);
        assert_ne!(&next, text, "{}: `{from}` is not in the source", m.name);
        *text = next;
    }
    sources
}

/// Build the program the way `SnvsStack::new` does. The P4 and schema
/// texts must still parse: a mutant is a plane mismatch, not a syntax
/// error.
fn build(name: &str, [p4, schema, rules]: &[String; 3]) -> Result<Controller, String> {
    let schema = ovsdb::Schema::parse(schema).unwrap_or_else(|e| panic!("{name}: schema: {e}"));
    let program = p4sim::parse_p4(p4).unwrap_or_else(|e| panic!("{name}: P4: {e}"));
    Controller::new(&NerpaProgram {
        schema,
        p4info: p4sim::P4Info::from_program(&program),
        rules: rules.clone(),
        options: CodegenOptions { per_switch: true },
    })
}

fn error_of(name: &str) -> String {
    let m = MUTANTS.iter().find(|m| m.name == name).unwrap();
    build(m.name, &mutate(m)).err().unwrap()
}

#[test]
fn every_non_equivalent_mutant_is_rejected_at_construction() {
    let unmutated = [SNVS_P4, SNVS_SCHEMA, SNVS_RULES].map(String::from);
    assert!(build("snvs", &unmutated).is_ok());
    assert!(MUTANTS.len() >= 12);
    for m in MUTANTS {
        match (build(m.name, &mutate(m)), m.equivalent) {
            (Err(_), None) | (Ok(_), Some(_)) => {}
            (Ok(_), None) => panic!("{}: accepted by Controller::new", m.name),
            (Err(e), Some(_)) => panic!("{}: listed as equivalent but rejected: {e}", m.name),
        }
    }
}

#[test]
fn an_action_name_the_table_does_not_declare_names_both_planes() {
    let err = error_of("rename action use_tag");
    for needle in [
        "relation `InVlan` column `action`",
        "\"use_tag\"",
        "P4 table `InVlan`",
    ] {
        assert!(err.contains(needle), "error must name {needle}: {err}");
    }
}

#[test]
fn a_multicast_group_wider_than_16_bits_names_both_planes() {
    let err = error_of("MulticastGroup group as bit<32>");
    for needle in [
        "MulticastGroup column `group` is bit<32>",
        "P4 `standard_metadata.mcast_grp` is bit<16>",
    ] {
        assert!(err.contains(needle), "error must name {needle}: {err}");
    }
}
