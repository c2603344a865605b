//! Abstract syntax for the supported P4-16 subset.
//!
//! The subset covers what the paper's snvs data plane and typical L2/L3
//! pipelines need, targeting a V1Model-style architecture:
//!
//! * `header` and `struct` types with `bit<N>` fields (N ≤ 128);
//! * a parser with `extract` and `select` transitions;
//! * ingress/egress controls with actions, match-action tables
//!   (exact/lpm/ternary keys), `if/else`, direct action calls, and the
//!   primitives `mark_to_drop()`, `clone(port)`, `digest(Struct {..})`,
//!   `setValid()`/`setInvalid()`;
//! * a `V1Switch(Parser(), Ingress(), Egress()) main;` instantiation.
//!
//! Deparsing is synthesized: valid headers are emitted in the order they
//! appear in the headers struct, followed by the unparsed payload.

use std::collections::BTreeMap;

/// A `bit<N>` width.
pub type Width = u16;

/// A named field with a width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Bit width (1..=128).
    pub width: Width,
}

/// A `header` or plain `struct` type declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDecl {
    /// Type name (e.g. `ethernet_t`).
    pub name: String,
    /// True for `header` (parseable, has validity), false for `struct`.
    pub is_header: bool,
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl StructDecl {
    /// Total width in bits.
    pub fn total_width(&self) -> u32 {
        self.fields.iter().map(|f| f.width as u32).sum()
    }

    /// Find a field and its bit offset from the start of the struct.
    pub fn field_offset(&self, name: &str) -> Option<(u32, Width)> {
        let mut off = 0u32;
        for f in &self.fields {
            if f.name == name {
                return Some((off, f.width));
            }
            off += f.width as u32;
        }
        None
    }
}

/// A reference to a value location: `hdr.eth.dst`, `meta.vlan`,
/// `standard_metadata.ingress_port`, or an action parameter / local name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// `<root>.<member>.<field>` — header or struct field access.
    Field {
        /// Top-level parameter: `hdr`, `meta`, or `standard_metadata`.
        root: String,
        /// Member within the root struct (empty for standard metadata
        /// fields, e.g. `standard_metadata.ingress_port`).
        member: String,
        /// Field name.
        field: String,
    },
    /// A bare identifier: action parameter or enum-like constant.
    Name(String),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Unsigned literal (masked to context width at evaluation).
    Lit(u128),
    /// Value reference.
    Ref(LValue),
    /// `(bit<N>) e`
    Cast(Width, Box<Expr>),
    /// `hdr.x.isValid()`
    IsValid {
        /// Root (always `hdr`).
        root: String,
        /// The header member.
        member: String,
    },
    /// Unary operators `!`, `~`, `-`.
    Unary(UnOp, Box<Expr>),
    /// Binary operators.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Boolean not.
    Not,
    /// Bitwise complement.
    BitNot,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Statements inside actions and apply blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lvalue = expr;`
    Assign(LValue, Expr),
    /// `Table.apply();`
    ApplyTable(String),
    /// `action_name(args);` — direct action invocation.
    CallAction(String, Vec<Expr>),
    /// `mark_to_drop();`
    Drop,
    /// `clone(port_expr);` — mirror the packet to a port at end of
    /// ingress.
    Clone(Expr),
    /// `digest(StructName { field = expr, ... });`
    Digest {
        /// The digest struct type.
        struct_name: String,
        /// Field assignments.
        fields: Vec<(String, Expr)>,
    },
    /// `hdr.x.setValid();` / `hdr.x.setInvalid();`
    SetValid {
        /// The header member of `hdr`.
        member: String,
        /// true = setValid.
        valid: bool,
    },
    /// `if (cond) { .. } else { .. }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `exit;` — stop this control.
    Exit,
}

/// An action declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionDecl {
    /// Action name.
    pub name: String,
    /// Runtime parameters (action data).
    pub params: Vec<Field>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// Match kinds for table keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Exact match.
    Exact,
    /// Longest-prefix match.
    Lpm,
    /// Ternary (value/mask) match, needs priorities.
    Ternary,
}

impl MatchKind {
    /// Name as written in P4.
    pub fn name(&self) -> &'static str {
        match self {
            MatchKind::Exact => "exact",
            MatchKind::Lpm => "lpm",
            MatchKind::Ternary => "ternary",
        }
    }
}

/// One key component of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableKey {
    /// The matched expression (restricted to a field reference).
    pub field: LValue,
    /// Its match kind.
    pub kind: MatchKind,
    /// Display name (the P4 source text of the field).
    pub name: String,
    /// Bit width, resolved during validation.
    pub width: Width,
}

/// A match-action table declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDecl {
    /// Table name.
    pub name: String,
    /// Key components (empty = default-action-only table).
    pub keys: Vec<TableKey>,
    /// Permitted action names.
    pub actions: Vec<String>,
    /// Default action and its literal arguments.
    pub default_action: Option<(String, Vec<u128>)>,
    /// Declared size hint.
    pub size: usize,
}

/// A control block (ingress or egress).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlDecl {
    /// Control name.
    pub name: String,
    /// Actions declared inside.
    pub actions: Vec<ActionDecl>,
    /// Tables declared inside.
    pub tables: Vec<TableDecl>,
    /// The apply block.
    pub apply: Vec<Stmt>,
}

/// One parser state.
#[derive(Debug, Clone, PartialEq)]
pub struct ParserState {
    /// State name.
    pub name: String,
    /// Headers to extract, in order (`hdr.<member>`).
    pub extracts: Vec<String>,
    /// The transition.
    pub transition: Transition,
}

/// A parser transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// Unconditional jump to a state (or `accept`/`reject`).
    Direct(String),
    /// `select(expr) { value: state; ... default: state; }`
    Select {
        /// The selected expression.
        on: Expr,
        /// (value, state) arms.
        arms: Vec<(u128, String)>,
        /// The default state.
        default: String,
    },
}

/// The parser declaration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParserDecl {
    /// Parser name.
    pub name: String,
    /// States by name.
    pub states: Vec<ParserState>,
}

/// A complete program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All `header`/`struct` declarations by name.
    pub types: BTreeMap<String, StructDecl>,
    /// The headers struct type name (first parameter of the parser).
    pub headers_type: String,
    /// The user metadata struct type name.
    pub meta_type: String,
    /// Headers-struct members: member name → header type name, in
    /// declaration order (this order defines deparsing).
    pub headers_members: Vec<(String, String)>,
    /// The parser.
    pub parser: ParserDecl,
    /// Ingress control.
    pub ingress: ControlDecl,
    /// Egress control.
    pub egress: ControlDecl,
    /// Digest struct names actually used by `digest()` statements.
    pub digests: Vec<String>,
}

impl Program {
    /// The type declaration of a header member of the headers struct.
    pub fn header_member_type(&self, member: &str) -> Option<&StructDecl> {
        let tname = self
            .headers_members
            .iter()
            .find(|(m, _)| m == member)
            .map(|(_, t)| t)?;
        self.types.get(tname)
    }

    /// The metadata struct declaration.
    pub fn meta_struct(&self) -> Option<&StructDecl> {
        self.types.get(&self.meta_type)
    }

    /// All tables across both controls.
    pub fn all_tables(&self) -> impl Iterator<Item = (&ControlDecl, &TableDecl)> {
        self.ingress
            .tables
            .iter()
            .map(move |t| (&self.ingress, t))
            .chain(self.egress.tables.iter().map(move |t| (&self.egress, t)))
    }
}
