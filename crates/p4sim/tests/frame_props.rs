//! The P4Runtime frame reader on untrusted bytes: whatever a peer
//! sends — noise, or valid frames with bytes inserted, overwritten or
//! cut off — `read_frame` never panics and always answers `Ok(None)`,
//! `Ok(Some(_))` or an `io::Error` of a kind the caller can act on. A
//! length prefix is never trusted for an allocation the peer did not
//! back with bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

use p4sim::runtime::{
    ControlRequest, ControlResponse, Digest, FieldMatch, TableEntry, Update, WriteOp,
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
fn read_all<T: serde_json::FromJson>(bytes: &[u8]) -> Result<(), TestCaseError> {
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
