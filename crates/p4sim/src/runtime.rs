//! P4Runtime-style control messages: table entries, write requests,
//! digests, and packet-in/out. These are the wire objects the Nerpa
//! controller exchanges with switches.
//!
//! # Wire format
//!
//! A control frame's body (the length prefix is
//! [`crate::service::write_frame`]'s) is one [`ControlRequest`] or
//! [`ControlResponse`] in a compact binary encoding, the shape of a
//! protobuf message without field numbers:
//!
//! - an enum is one tag byte, its variant's position, then the variant's
//!   fields in declaration order (`Option`: 0 = `None`, 1 = `Some`);
//! - an unsigned integer is an LEB128 varint; an `i32` is zigzag-mapped
//!   to a `u32` first;
//! - a string, a byte string or a list is its length as a varint, then
//!   its bytes or elements; a struct or a pair is its fields in order.
//!
//! [`Wire::from_bytes`] refuses with [`io::ErrorKind::InvalidData`] an
//! unknown tag, a varint that overflows its field's width, non-UTF-8
//! text, a count larger than the bytes left (before allocating for it),
//! a body that ends inside a field, and trailing bytes.

use std::io;

/// A single key-field match of a table entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FieldMatch {
    /// Exact value.
    Exact {
        /// Matched value.
        value: u128,
    },
    /// Longest-prefix match.
    Lpm {
        /// Value (host order, already masked).
        value: u128,
        /// Prefix length in bits.
        prefix_len: u16,
    },
    /// Ternary value/mask.
    Ternary {
        /// Value (already masked by `mask`).
        value: u128,
        /// Care mask.
        mask: u128,
    },
}

/// A runtime table entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableEntry {
    /// Table name.
    pub table: String,
    /// One match per key field, in key order.
    pub matches: Vec<FieldMatch>,
    /// Priority (higher wins); required for ternary tables.
    pub priority: i32,
    /// Action name.
    pub action: String,
    /// Action parameters, in declaration order.
    pub params: Vec<u128>,
}

/// Write-request operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert a new entry (error if the key exists).
    Insert,
    /// Replace an existing entry's action (error if missing).
    Modify,
    /// Remove an entry (error if missing).
    Delete,
}

/// One update of a write request.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// The operation.
    pub op: WriteOp,
    /// The entry.
    pub entry: TableEntry,
}

/// A digest message from the data plane to the controller.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Digest {
    /// The digest struct type name.
    pub name: String,
    /// Field values: (field name, value).
    pub fields: Vec<(String, u128)>,
}

impl Digest {
    /// Field lookup.
    pub fn field(&self, name: &str) -> Option<u128> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Client → switch control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlRequest {
    /// Apply table updates atomically (all or nothing).
    Write {
        /// The updates.
        updates: Vec<Update>,
        /// Causal trace id minted at the management-plane commit that
        /// produced these updates; `None` for untraced writes.
        trace: Option<u64>,
    },
    /// Fetch the P4Info program description.
    GetP4Info,
    /// Read back all entries of a table.
    ReadTable {
        /// Table name.
        table: String,
    },
    /// Read back the entries of every table — the one-round-trip state
    /// snapshot the controller uses to reconcile a restarted switch.
    ReadAllTables,
    /// Subscribe this connection to digest notifications.
    SubscribeDigests,
    /// Inject a packet into a port (packet-out).
    PacketOut {
        /// Ingress port to inject at.
        port: u16,
        /// Raw frame bytes.
        bytes: Vec<u8>,
    },
    /// Read switch counters.
    ReadCounters,
    /// Configure a multicast group (empty ports = remove).
    SetMcastGroup {
        /// Group id (as set in `standard_metadata.mcast_grp`).
        group: u16,
        /// Replication port list.
        ports: Vec<u16>,
    },
}

/// Switch → client control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlResponse {
    /// Write outcome.
    WriteResult {
        /// `None` = success, `Some(msg)` = rejected (nothing applied).
        error: Option<String>,
    },
    /// The program description.
    P4Info {
        /// The switch program's control surface.
        info: crate::p4info::P4Info,
    },
    /// Table contents.
    TableEntries {
        /// The entries.
        entries: Vec<TableEntry>,
    },
    /// Full table-state snapshot: every table with its entries, sorted
    /// by table name.
    AllTables {
        /// (table name, entries) for every table in the program.
        tables: Vec<(String, Vec<TableEntry>)>,
    },
    /// Digest notification (streamed to subscribers).
    DigestList {
        /// The digests since the previous notification.
        digests: Vec<Digest>,
    },
    /// Counter snapshot.
    Counters {
        /// (counter name, value).
        counters: Vec<(String, u64)>,
    },
    /// Generic acknowledgement.
    Ok,
    /// Request failed.
    Error {
        /// Description.
        message: String,
    },
}

// ---------------------------------------------------------- wire codec

/// A value with a binary wire encoding (see the [module docs](self)).
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> io::Result<Self>;

    /// Decode a whole body: exactly one value and no trailing bytes.
    fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let mut r = Reader { rest: bytes };
        let value = Self::decode(&mut r)?;
        match r.rest.len() {
            0 => Ok(value),
            n => Err(invalid(format!("{n} trailing bytes"))),
        }
    }
}

/// The unread rest of a body being decoded.
pub struct Reader<'a> {
    rest: &'a [u8],
}

#[cold]
fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn unknown_tag(ty: &str, tag: u8) -> io::Error {
    invalid(format!("unknown {ty} tag {tag}"))
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(invalid("body ends inside a field"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn byte(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> io::Result<u128> {
        let mut v = 0u128;
        for (i, &b) in self.rest.iter().enumerate().take(19) {
            // The 19th byte holds bits 126 and 127 only.
            if i == 18 && b > 0b11 {
                break;
            }
            v |= u128::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                self.rest = &self.rest[i + 1..];
                return Ok(v);
            }
        }
        Err(invalid(if self.rest.len() < 19 {
            "body ends inside a varint"
        } else {
            "varint overflows 128 bits"
        }))
    }

    /// A length or element count. Every element takes at least one
    /// byte, so a count above the bytes left is refused before anything
    /// is allocated for it.
    fn count(&mut self) -> io::Result<usize> {
        let n = usize::decode(self)?;
        if n > self.rest.len() {
            return Err(invalid(format!(
                "count {n} exceeds the {} bytes left",
                self.rest.len()
            )));
        }
        Ok(n)
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, *self as u128);
            }

            fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
                <$t>::try_from(r.varint()?)
                    .map_err(|_| invalid(concat!("varint overflows ", stringify!($t))))
            }
        }
    )*};
}
wire_uint!(u16, u64, u128, usize);

/// A byte is itself, so a `Vec<u8>` is a length-prefixed byte string.
impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
        r.byte()
    }
}

impl Wire for i32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, ((self << 1) ^ (self >> 31)) as u32 as u128);
    }

    fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
        let n = u32::try_from(r.varint()?).map_err(|_| invalid("varint overflows i32"))?;
        Ok((n >> 1) as i32 ^ -((n & 1) as i32))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
        let n = r.count()?;
        std::str::from_utf8(r.take(n)?)
            .map(str::to_owned)
            .map_err(|_| invalid("string is not UTF-8"))
    }
}

fn encode_slice<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    items.len().encode(out);
    for item in items {
        item.encode(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }

    fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
        let n = r.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(unknown_tag("Option", t)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Implement [`Wire`] for a struct (its fields in the order listed,
/// which is their declaration order) or an enum (one tag byte, then the
/// variant's fields).
macro_rules! wire {
    (struct $ty:ident { $($f:ident),* $(,)? }) => {
        impl $crate::runtime::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::runtime::Wire::encode(&self.$f, out);)*
            }

            fn decode(r: &mut $crate::runtime::Reader<'_>) -> std::io::Result<Self> {
                Ok($ty { $($f: $crate::runtime::Wire::decode(r)?),* })
            }
        }
    };
    (enum $ty:ident { $($tag:literal => $var:ident $({ $($f:ident),* })?),* $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$var $({ $($f),* })? => {
                        out.push($tag);
                        $($($f.encode(out);)*)?
                    })*
                }
            }

            fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
                Ok(match r.byte()? {
                    $($tag => $ty::$var $({ $($f: Wire::decode(r)?),* })?,)*
                    t => return Err(unknown_tag(stringify!($ty), t)),
                })
            }
        }
    };
}
pub(crate) use wire;

wire!(enum FieldMatch {
    0 => Exact { value },
    1 => Lpm { value, prefix_len },
    2 => Ternary { value, mask },
});
wire!(struct TableEntry { table, matches, priority, action, params });
wire!(enum WriteOp { 0 => Insert, 1 => Modify, 2 => Delete });
wire!(struct Update { op, entry });
wire!(struct Digest { name, fields });

impl ControlRequest {
    /// Encode `ControlRequest::Write { updates, trace }` from borrowed
    /// updates: the same bytes, without copying the batch into a request.
    pub fn encode_write(updates: &[Update], trace: Option<u64>, out: &mut Vec<u8>) {
        out.push(0);
        encode_slice(updates, out);
        trace.encode(out);
    }
}

impl Wire for ControlRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ControlRequest::Write { updates, trace } => {
                ControlRequest::encode_write(updates, *trace, out)
            }
            ControlRequest::GetP4Info => out.push(1),
            ControlRequest::ReadTable { table } => {
                out.push(2);
                table.encode(out);
            }
            ControlRequest::ReadAllTables => out.push(3),
            ControlRequest::SubscribeDigests => out.push(4),
            ControlRequest::PacketOut { port, bytes } => {
                out.push(5);
                port.encode(out);
                bytes.encode(out);
            }
            ControlRequest::ReadCounters => out.push(6),
            ControlRequest::SetMcastGroup { group, ports } => {
                out.push(7);
                group.encode(out);
                ports.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> io::Result<Self> {
        Ok(match r.byte()? {
            0 => ControlRequest::Write {
                updates: Wire::decode(r)?,
                trace: Wire::decode(r)?,
            },
            1 => ControlRequest::GetP4Info,
            2 => ControlRequest::ReadTable {
                table: Wire::decode(r)?,
            },
            3 => ControlRequest::ReadAllTables,
            4 => ControlRequest::SubscribeDigests,
            5 => ControlRequest::PacketOut {
                port: Wire::decode(r)?,
                bytes: Wire::decode(r)?,
            },
            6 => ControlRequest::ReadCounters,
            7 => ControlRequest::SetMcastGroup {
                group: Wire::decode(r)?,
                ports: Wire::decode(r)?,
            },
            t => return Err(unknown_tag("ControlRequest", t)),
        })
    }
}

wire!(enum ControlResponse {
    0 => WriteResult { error },
    1 => P4Info { info },
    2 => TableEntries { entries },
    3 => AllTables { tables },
    4 => DigestList { digests },
    5 => Counters { counters },
    6 => Ok,
    7 => Error { message },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_field_lookup() {
        let d = Digest {
            name: "d".into(),
            fields: vec![("a".into(), 1), ("b".into(), 2)],
        };
        assert_eq!(d.field("b"), Some(2));
        assert_eq!(d.field("c"), None);
    }
}
