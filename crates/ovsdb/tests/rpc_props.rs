//! The OVSDB JSON-RPC line reader on untrusted bytes: whatever a peer
//! sends — noise, or valid messages with bytes inserted, overwritten or
//! cut off — `MessageReader::read` never panics and always answers
//! `Ok(None)`, `Ok(Some(_))` or an `InvalidData` error, and a line that
//! never ends costs at most `MAX_LINE_BYTES` bytes of reading.

use std::io::{ErrorKind, Read};

use ovsdb::rpc::{write_message, Message, MessageReader, MAX_LINE_BYTES};
use proptest::prelude::*;
use serde_json::json;

/// Read messages off `bytes` until EOF or an error, checking every
/// answer is one a caller can act on. Each successful read consumes at
/// least one line, so this terminates.
fn read_all(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut reader = MessageReader::new(bytes);
    loop {
        match reader.read() {
            Ok(Some(_)) => continue,
            Ok(None) => return Ok(()),
            Err(e) => {
                prop_assert_eq!(e.kind(), ErrorKind::InvalidData, "untyped error {:?}", e);
                return Ok(());
            }
        }
    }
}

/// A stream of valid messages: a request, a notification, a response.
fn valid_stream() -> Vec<u8> {
    let mut out = Vec::new();
    let messages = [
        Message::Request {
            id: json!(1),
            method: "transact".into(),
            params: json!(["snvs", {"op": "insert", "table": "Port", "row": {"id": 1}}]),
        },
        Message::Notification {
            method: "update".into(),
            params: json!(["mon", {"Port": {"u1": {"new": {"id": 1, "tag": ["set", []]}}}}]),
        },
        Message::Response {
            id: json!(1),
            result: json!([{"uuid": ["uuid", "u1"]}]),
            error: serde_json::Value::Null,
        },
    ];
    for m in &messages {
        write_message(&mut out, m).unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        read_all(&bytes)?;
    }

    /// `how`: 0 inserts the noise at `at`, 1 overwrites from `at`, 2
    /// cuts the stream off at `at`.
    #[test]
    fn spliced_valid_messages_never_panic(
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
        read_all(&bytes)?;
    }
}

/// `len` bytes of `x`, never a newline, counting what was read.
struct EndlessLine {
    len: usize,
    read: usize,
}

impl Read for EndlessLine {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.len - self.read);
        buf[..n].fill(b'x');
        self.read += n;
        Ok(n)
    }
}

#[test]
fn a_line_without_a_newline_is_refused_at_the_cap() {
    let mut peer = EndlessLine {
        len: 100 << 20,
        read: 0,
    };
    let err = MessageReader::new(&mut peer).read().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(
        peer.read <= MAX_LINE_BYTES + 1,
        "read {} bytes of a 100 MiB line",
        peer.read
    );
    // The valid stream is far below the cap and reads back whole.
    let stream = valid_stream();
    let mut reader = MessageReader::new(stream.as_slice());
    for _ in 0..3 {
        assert!(reader.read().unwrap().is_some());
    }
    assert!(reader.read().unwrap().is_none());
}
