//! The P4Runtime frame codec. Every request and response round-trips
//! through `write_frame` and `read_frame`. On untrusted bytes — noise,
//! or valid frames with bytes inserted, overwritten or cut off —
//! `read_frame` never panics and always answers `Ok(None)`,
//! `Ok(Some(_))` or an `io::Error` of a kind the caller can act on. A
//! length prefix or an element count is never trusted for an allocation
//! the peer did not back with bytes, and a value wider than its field is
//! refused, not truncated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

use p4sim::p4info::{ActionInfo, DigestInfo, KeyInfo, P4Info, ParamInfo, TableInfo};
use p4sim::runtime::{
    ControlRequest, ControlResponse, Digest, FieldMatch, TableEntry, Update, Wire, WriteOp,
};
use p4sim::service::{read_frame, write_frame};
use proptest::prelude::*;

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

/// Read frames of type `T` off `bytes` until EOF or an error, checking
/// every answer is one a caller can act on. Each successful read eats at
/// least the 4-byte header, so this terminates.
fn read_all<T: Wire>(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut r = bytes;
    loop {
        match read_frame::<T>(&mut r) {
            Ok(Some(_)) => continue,
            Ok(None) => return Ok(()),
            Err(e) => {
                prop_assert!(
                    matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                    "untyped error {e:?}"
                );
                return Ok(());
            }
        }
    }
}

fn check_both(bytes: &[u8]) -> Result<(), TestCaseError> {
    read_all::<ControlRequest>(bytes)?;
    read_all::<ControlResponse>(bytes)
}

fn entry(key: u128) -> TableEntry {
    TableEntry {
        table: "MacLearned".into(),
        matches: vec![
            FieldMatch::Exact { value: 10 },
            FieldMatch::Ternary {
                value: key,
                mask: u128::MAX,
            },
        ],
        priority: 0,
        action: "output".into(),
        params: vec![key % 16],
    }
}

/// A stream of valid frames, requests and responses alike.
fn valid_stream() -> Vec<u8> {
    let mut out = Vec::new();
    let requests = [
        ControlRequest::Write {
            updates: vec![Update {
                op: WriteOp::Insert,
                entry: entry(0xaabb),
            }],
            trace: Some(7),
        },
        ControlRequest::SetMcastGroup {
            group: 10,
            ports: vec![1, 2],
        },
        ControlRequest::ReadAllTables,
    ];
    for req in &requests {
        write_frame(&mut out, req).unwrap();
    }
    let responses = [
        ControlResponse::WriteResult { error: None },
        ControlResponse::AllTables {
            tables: vec![("MacLearned".into(), vec![entry(1), entry(2)])],
        },
        ControlResponse::DigestList {
            digests: vec![Digest {
                name: "mac_learn_digest_t".into(),
                fields: vec![("port".into(), 2), ("mac".into(), 0xaabb)],
            }],
        },
    ];
    for resp in &responses {
        write_frame(&mut out, resp).unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check_both(&bytes)?;
    }

    /// `how`: 0 inserts the noise at `at`, 1 overwrites from `at`, 2
    /// cuts the stream off at `at`.
    #[test]
    fn spliced_valid_frames_never_panic(
        at in any::<usize>(),
        how in 0u8..3,
        noise in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut bytes = valid_stream();
        let at = at % (bytes.len() + 1);
        match how {
            0 => drop(bytes.splice(at..at, noise)),
            1 => {
                let end = (at + noise.len()).min(bytes.len());
                drop(bytes.splice(at..end, noise));
            }
            _ => bytes.truncate(at),
        }
        check_both(&bytes)?;
    }
}

#[test]
fn a_promised_body_that_never_arrives_costs_only_what_arrived() {
    let mut bytes = (64u32 * 1024 * 1024).to_be_bytes().to_vec();
    bytes.extend_from_slice(br#"{"type":"ok"}"#);
    PEAK.with(|p| p.set(0));
    let err = read_frame::<ControlResponse>(&mut bytes.as_slice()).unwrap_err();
    let peak = PEAK.with(Cell::get);
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(peak < 64 * 1024, "a 13-byte body allocated {peak} bytes");

    // One byte past the cap is refused before any read.
    let mut too_big = (64u32 * 1024 * 1024 + 1).to_be_bytes().to_vec();
    too_big.extend_from_slice(&bytes[4..]);
    let err = read_frame::<ControlResponse>(&mut too_big.as_slice()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

// ------------------------------------------------------------ round trip

fn text() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        "[a-z_]{1,12}",
        "[α-ω]{1,6}",
        "[☀-☿]{0,4}",
    ]
    .boxed()
}

fn wide() -> BoxedStrategy<u128> {
    prop_oneof![Just(0), Just(u128::MAX), any::<u128>(), 0u128..300].boxed()
}

fn priority() -> BoxedStrategy<i32> {
    prop_oneof![Just(-1), Just(i32::MIN), Just(i32::MAX), any::<i32>()].boxed()
}

fn field_match() -> BoxedStrategy<FieldMatch> {
    prop_oneof![
        wide().prop_map(|value| FieldMatch::Exact { value }),
        (wide(), any::<u16>())
            .prop_map(|(value, prefix_len)| FieldMatch::Lpm { value, prefix_len }),
        (wide(), wide()).prop_map(|(value, mask)| FieldMatch::Ternary { value, mask }),
    ]
    .boxed()
}

fn table_entry() -> BoxedStrategy<TableEntry> {
    (
        text(),
        proptest::collection::vec(field_match(), 0..4),
        priority(),
        text(),
        proptest::collection::vec(wide(), 0..4),
    )
        .prop_map(|(table, matches, priority, action, params)| TableEntry {
            table,
            matches,
            priority,
            action,
            params,
        })
        .boxed()
}

fn update() -> BoxedStrategy<Update> {
    let op = prop_oneof![
        Just(WriteOp::Insert),
        Just(WriteOp::Modify),
        Just(WriteOp::Delete)
    ];
    (op, table_entry())
        .prop_map(|(op, entry)| Update { op, entry })
        .boxed()
}

fn digest() -> BoxedStrategy<Digest> {
    (text(), proptest::collection::vec((text(), wide()), 0..4))
        .prop_map(|(name, fields)| Digest { name, fields })
        .boxed()
}

fn params() -> BoxedStrategy<Vec<ParamInfo>> {
    proptest::collection::vec(
        (text(), any::<u16>()).prop_map(|(name, width)| ParamInfo { name, width }),
        0..3,
    )
    .boxed()
}

fn p4info() -> BoxedStrategy<P4Info> {
    let key = (text(), any::<u16>(), text()).prop_map(|(name, width, match_kind)| KeyInfo {
        name,
        width,
        match_kind,
    });
    let action = (text(), params()).prop_map(|(name, params)| ActionInfo { name, params });
    let table = (
        text(),
        text(),
        proptest::collection::vec(key, 0..3),
        proptest::collection::vec(action, 0..3),
        prop_oneof![Just(usize::MAX), any::<usize>()],
    )
        .prop_map(|(name, control, keys, actions, size)| TableInfo {
            name,
            control,
            keys,
            actions,
            size,
        });
    let digest = (text(), params()).prop_map(|(name, fields)| DigestInfo { name, fields });
    let demo = P4Info::from_program(&p4sim::parse_p4(p4sim::parser::DEMO).unwrap());
    prop_oneof![
        Just(demo),
        (
            text(),
            proptest::collection::vec(table, 0..3),
            proptest::collection::vec(digest, 0..3)
        )
            .prop_map(|(program, tables, digests)| P4Info {
                program,
                tables,
                digests
            }),
    ]
    .boxed()
}

fn request() -> BoxedStrategy<ControlRequest> {
    prop_oneof![
        (
            proptest::collection::vec(update(), 0..6),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(updates, trace)| ControlRequest::Write { updates, trace }),
        Just(ControlRequest::GetP4Info),
        text().prop_map(|table| ControlRequest::ReadTable { table }),
        Just(ControlRequest::ReadAllTables),
        Just(ControlRequest::SubscribeDigests),
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(port, bytes)| ControlRequest::PacketOut { port, bytes }),
        Just(ControlRequest::ReadCounters),
        (
            any::<u16>(),
            proptest::collection::vec(any::<u16>(), 0..=1000)
        )
            .prop_map(|(group, ports)| ControlRequest::SetMcastGroup { group, ports }),
    ]
    .boxed()
}

fn response() -> BoxedStrategy<ControlResponse> {
    prop_oneof![
        proptest::option::of(text()).prop_map(|error| ControlResponse::WriteResult { error }),
        p4info().prop_map(|info| ControlResponse::P4Info { info }),
        proptest::collection::vec(table_entry(), 0..4)
            .prop_map(|entries| ControlResponse::TableEntries { entries }),
        proptest::collection::vec(
            (text(), proptest::collection::vec(table_entry(), 0..3)),
            0..3
        )
        .prop_map(|tables| ControlResponse::AllTables { tables }),
        proptest::collection::vec(digest(), 0..4)
            .prop_map(|digests| ControlResponse::DigestList { digests }),
        proptest::collection::vec((text(), any::<u64>()), 0..4)
            .prop_map(|counters| ControlResponse::Counters { counters }),
        Just(ControlResponse::Ok),
        text().prop_map(|message| ControlResponse::Error { message }),
    ]
    .boxed()
}

/// `msg` framed, read back whole, then clean EOF.
fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(msg: &T) -> Result<(), TestCaseError> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, msg).unwrap();
    let mut r = bytes.as_slice();
    let back = read_frame::<T>(&mut r).unwrap();
    prop_assert_eq!(back.as_ref(), Some(msg));
    prop_assert!(read_frame::<T>(&mut r).unwrap().is_none());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_round_trips(req in request()) {
        round_trip(&req)?;
        // A write encoded from borrowed updates is the same body.
        if let ControlRequest::Write { updates, trace } = &req {
            let mut borrowed = Vec::new();
            ControlRequest::encode_write(updates, *trace, &mut borrowed);
            let mut owned = Vec::new();
            req.encode(&mut owned);
            prop_assert_eq!(borrowed, owned);
        }
    }

    #[test]
    fn every_response_round_trips(resp in response()) {
        round_trip(&resp)?;
    }
}

// ------------------------------------------------------- decoder checks

/// `body` behind its length prefix.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes
}

fn read_request(body: &[u8]) -> std::io::Result<Option<ControlRequest>> {
    read_frame::<ControlRequest>(&mut framed(body).as_slice())
}

fn refused(body: &[u8]) -> bool {
    matches!(read_request(body), Err(e) if e.kind() == ErrorKind::InvalidData)
}

#[test]
fn a_count_larger_than_the_frame_is_refused_before_allocating() {
    // `TableEntries` claiming 2^62 entries, padded to a 16-byte frame.
    let mut body = vec![2];
    (1u64 << 62).encode(&mut body);
    body.resize(12, 0);
    let bytes = framed(&body);
    assert_eq!(bytes.len(), 16);
    PEAK.with(|p| p.set(0));
    let err = read_frame::<ControlResponse>(&mut bytes.as_slice()).unwrap_err();
    let peak = PEAK.with(Cell::get);
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(peak < 64 * 1024, "a 16-byte frame allocated {peak} bytes");
}

/// A `SetMcastGroup` body with `group` and one member `port`, written
/// as `u64`s so they can exceed the fields' 16 bits.
fn mcast_body(group: u64, port: u64) -> Vec<u8> {
    let mut body = vec![7];
    group.encode(&mut body);
    1usize.encode(&mut body);
    port.encode(&mut body);
    body
}

/// A one-update `Write` body whose LPM match has `prefix_len`, written
/// as a `u64`.
fn lpm_write_body(prefix_len: u64) -> Vec<u8> {
    let mut body = vec![0, 1, 0]; // Write, one update, Insert
    "Route".to_string().encode(&mut body);
    1usize.encode(&mut body);
    body.push(1); // Lpm
    0x0a00_0000u128.encode(&mut body);
    prefix_len.encode(&mut body);
    0i32.encode(&mut body);
    "fwd".to_string().encode(&mut body);
    Vec::<u128>::new().encode(&mut body);
    None::<u64>.encode(&mut body);
    body
}

#[test]
fn a_16_bit_field_above_u16_max_is_refused_not_truncated() {
    let max = u64::from(u16::MAX);
    assert_eq!(
        read_request(&mcast_body(max, max)).unwrap(),
        Some(ControlRequest::SetMcastGroup {
            group: u16::MAX,
            ports: vec![u16::MAX]
        })
    );
    assert!(read_request(&lpm_write_body(max)).unwrap().is_some());
    // 65 546 would be group 10 if it were truncated.
    for wide in [max + 1, 65_546, u64::MAX] {
        assert!(refused(&mcast_body(wide, 1)), "group {wide}");
        assert!(refused(&mcast_body(1, wide)), "port {wide}");
        assert!(refused(&lpm_write_body(wide)), "prefix_len {wide}");
    }
}

#[test]
fn malformed_bodies_are_invalid_data() {
    let mut trailing = Vec::new();
    ControlRequest::ReadAllTables.encode(&mut trailing);
    trailing.push(0);
    let mut bad_utf8 = vec![2];
    2usize.encode(&mut bad_utf8);
    bad_utf8.extend_from_slice(&[0xc3, 0x28]);
    let cases: [(&str, Vec<u8>); 8] = [
        ("unknown request tag", vec![8]),
        ("unknown op tag", vec![0, 1, 3]),
        ("unknown option tag", vec![0, 0, 2]),
        (
            "varint past 128 bits",
            [vec![5], vec![0xff; 19], vec![0x01]].concat(),
        ),
        ("non-UTF-8 table name", bad_utf8),
        ("trailing bytes", trailing),
        ("body ends inside a field", vec![7, 0x80]),
        ("empty body", vec![]),
    ];
    for (name, body) in cases {
        assert!(refused(&body), "{name}: {:?}", read_request(&body));
    }
}
