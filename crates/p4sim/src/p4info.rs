//! P4Info: a wire-encodable description of a program's control surface —
//! tables, keys, actions, and digests. This is what Nerpa's
//! `p4info2ddlog` codegen consumes to generate control-plane relations
//! (§4.2 of the paper).

use crate::ast::Program;

/// One table key field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyInfo {
    /// Display name (e.g. `std.ingress_port`).
    pub name: String,
    /// Bit width.
    pub width: u16,
    /// Match kind name: `exact` / `lpm` / `ternary`.
    pub match_kind: String,
}

/// One action parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamInfo {
    /// Parameter name.
    pub name: String,
    /// Bit width.
    pub width: u16,
}

/// One action usable by a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionInfo {
    /// Action name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<ParamInfo>,
}

/// One match-action table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// The control containing it (`ingress`/`egress`).
    pub control: String,
    /// Key fields in order.
    pub keys: Vec<KeyInfo>,
    /// Usable actions.
    pub actions: Vec<ActionInfo>,
    /// Declared size.
    pub size: usize,
}

/// One digest type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestInfo {
    /// The digest struct name.
    pub name: String,
    /// Fields in order.
    pub fields: Vec<ParamInfo>,
}

/// The full program description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P4Info {
    /// Program (parser) name.
    pub program: String,
    /// All tables.
    pub tables: Vec<TableInfo>,
    /// All digests.
    pub digests: Vec<DigestInfo>,
}

impl P4Info {
    /// Extract the control surface from a validated program.
    pub fn from_program(prog: &Program) -> P4Info {
        let mut tables = Vec::new();
        for (control, t) in prog.all_tables() {
            let control_name = if std::ptr::eq(control, &prog.ingress) {
                "ingress"
            } else {
                "egress"
            };
            let keys = t
                .keys
                .iter()
                .map(|k| KeyInfo {
                    name: k.name.clone(),
                    width: k.width,
                    match_kind: k.kind.name().to_string(),
                })
                .collect();
            let actions = t
                .actions
                .iter()
                .filter(|a| *a != "NoAction")
                .map(|aname| {
                    let decl = control
                        .actions
                        .iter()
                        .find(|ad| ad.name == *aname)
                        .expect("validated action");
                    ActionInfo {
                        name: aname.clone(),
                        params: decl
                            .params
                            .iter()
                            .map(|p| ParamInfo {
                                name: p.name.clone(),
                                width: p.width,
                            })
                            .collect(),
                    }
                })
                .collect();
            tables.push(TableInfo {
                name: t.name.clone(),
                control: control_name.to_string(),
                keys,
                actions,
                size: t.size,
            });
        }
        let digests = prog
            .digests
            .iter()
            .map(|d| {
                let ty = &prog.types[d];
                DigestInfo {
                    name: d.clone(),
                    fields: ty
                        .fields
                        .iter()
                        .map(|f| ParamInfo {
                            name: f.name.clone(),
                            width: f.width,
                        })
                        .collect(),
                }
            })
            .collect();
        P4Info {
            program: prog.parser.name.clone(),
            tables,
            digests,
        }
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables.iter().find(|t| t.name == name)
    }
}

// ---------------------------------------------------------- wire codec

use crate::runtime::wire;

wire!(struct KeyInfo { name, width, match_kind });
wire!(struct ParamInfo { name, width });
wire!(struct ActionInfo { name, params });
wire!(struct TableInfo { name, control, keys, actions, size });
wire!(struct DigestInfo { name, fields });
wire!(struct P4Info { program, tables, digests });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_p4;

    #[test]
    fn extract_from_demo() {
        let prog = parse_p4(crate::parser::DEMO).unwrap();
        let info = P4Info::from_program(&prog);
        assert_eq!(info.program, "SnvsParser");
        assert_eq!(info.tables.len(), 2);
        let invlan = info.table("InVlan").unwrap();
        assert_eq!(invlan.control, "ingress");
        assert_eq!(invlan.keys[0].width, 16);
        assert_eq!(invlan.keys[0].match_kind, "exact");
        let set_vlan = invlan
            .actions
            .iter()
            .find(|a| a.name == "set_vlan")
            .unwrap();
        assert_eq!(
            set_vlan.params,
            vec![ParamInfo {
                name: "vid".into(),
                width: 12
            }]
        );
        assert_eq!(info.digests.len(), 1);
        assert_eq!(info.digests[0].fields.len(), 3);
    }
}
