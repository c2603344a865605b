//! The `.nfr` dump format as the one durable form of the event model:
//! whatever the recorder writes, the dump reader reads back unchanged,
//! and whatever else it is handed — arbitrary bytes, a truncated file,
//! another format version, non-numeric fields — is an `Err` naming the
//! offending line, never a panic.

use fullstack_sdn::flight::Timeline;
use proptest::prelude::*;
use telemetry::recorder::PLANES;
use telemetry::{FlightRecorder, Registry, MAX_EVENT_FIELDS};

/// Text exercising JSON escaping: quotes, backslashes, control
/// characters, multi-byte UTF-8 and plain ASCII.
fn text(raw: &[(u8, u32)]) -> String {
    raw.iter()
        .map(|&(class, n)| match class % 5 {
            0 => ['"', '\\', '/', '\u{0}', '\n', '\t', '\u{1f}', '\u{7f}'][n as usize % 8],
            1 => char::from_u32(0x80 + n % 0x780).unwrap(),
            2 => char::from_u32(0x1F300 + n % 0x300).unwrap(),
            3 => ['é', '中', 'ß', '\u{2028}'][n as usize % 4],
            _ => (b' ' + (n % 95) as u8) as char,
        })
        .collect()
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Values across the whole `u64` range, edges included.
fn value(class: u8, v: u64) -> u64 {
    match class % 4 {
        0 => 0,
        1 => u64::MAX,
        _ => v,
    }
}

type RawText = Vec<(u8, u32)>;
type RawEvent = (u8, RawText, u64, Vec<(RawText, u8, u64)>, Option<RawText>);

fn raw_text() -> impl Strategy<Value = RawText> {
    proptest::collection::vec((any::<u8>(), any::<u32>()), 0..10)
}

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (
        any::<u8>(),
        raw_text(),
        any::<u64>(),
        proptest::collection::vec(
            (raw_text(), any::<u8>(), any::<u64>()),
            0..=MAX_EVENT_FIELDS,
        ),
        proptest::option::of(raw_text()),
    )
}

/// A recorder holding `events`, and its rendered dump.
fn recorded(events: &[RawEvent]) -> (FlightRecorder, String) {
    let rec = FlightRecorder::new(&Registry::new());
    for (plane, kind, trace, fields, note) in events {
        let plane = PLANES[*plane as usize % PLANES.len()];
        let kind = leak(text(kind));
        // Keys are made distinct: a JSON object keeps one value per key.
        let fields: Vec<(&'static str, u64)> = fields
            .iter()
            .enumerate()
            .map(|(i, (k, class, v))| (leak(format!("{}#{i}", text(k))), value(*class, *v)))
            .collect();
        match note {
            Some(note) => rec.record_note(plane, kind, *trace, &fields, text(note)),
            None => rec.record(plane, kind, *trace, &fields),
        }
    }
    let dump = rec.render_dump("nfr_props");
    (rec, dump)
}

/// Load `bytes` as a dump file, the way `nerpa flight` reads one.
fn load(bytes: &[u8]) -> Result<Timeline, String> {
    let path = std::env::temp_dir().join(format!(
        "nfr-props-{}-{:?}.nfr",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let out = Timeline::load(std::slice::from_ref(&path));
    let _ = std::fs::remove_file(&path);
    out
}

fn names_a_line(err: &str) -> bool {
    err.split("line ").skip(1).any(|rest| {
        rest.split(':')
            .next()
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `render_dump` read back through the dump reader returns the
    /// recorded events, in the recorded order.
    #[test]
    fn dump_round_trips_every_event(events in proptest::collection::vec(raw_event(), 0..24)) {
        let (rec, dump) = recorded(&events);
        let mut timeline = Timeline::default();
        timeline.push_dump("round-trip.nfr", &dump).map_err(TestCaseError::fail)?;
        let want = rec.snapshot();
        prop_assert_eq!(timeline.events.len(), want.len());
        for (got, want) in timeline.events.iter().zip(&want) {
            prop_assert_eq!(got.seq, want.seq);
            prop_assert_eq!(got.ts_ns, want.ts_ns);
            prop_assert_eq!(got.plane.as_str(), want.plane.as_str());
            prop_assert_eq!(got.kind.as_str(), want.kind);
            prop_assert_eq!(got.trace, want.trace);
            let mut fields: Vec<(String, u64)> =
                want.fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
            fields.sort();
            prop_assert_eq!(&got.fields, &fields);
            prop_assert_eq!(&got.note, &want.note);
        }
    }

    /// Arbitrary bytes, alone or spliced into a real dump, never panic
    /// the reader; whatever it rejects, it rejects by line.
    #[test]
    fn arbitrary_bytes_are_rejected_by_line(
        noise in proptest::collection::vec(any::<u8>(), 0..160),
        events in proptest::collection::vec(raw_event(), 1..6),
        at in any::<usize>(),
    ) {
        let (_, dump) = recorded(&events);
        let mut spliced = dump.into_bytes();
        let at = at % (spliced.len() + 1);
        spliced.splice(at..at, noise.iter().copied());
        for bytes in [&noise[..], &spliced[..]] {
            if let Err(e) = load(bytes) {
                prop_assert!(names_a_line(&e), "{}", e);
            }
        }
    }

    /// A dump cut short anywhere before its final newline — inside a
    /// line or between two — is an error naming the line the cut fell
    /// in.
    #[test]
    fn truncated_dump_names_the_cut_line(
        events in proptest::collection::vec(raw_event(), 1..6),
        cut in any::<usize>(),
    ) {
        let (_, dump) = recorded(&events);
        let bytes = dump.as_bytes();
        let line_ends = bytes[..bytes.len() - 1]
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .map(|(i, _)| i + 1);
        for cut in line_ends.chain([cut % (bytes.len() - 1)]) {
            let line = bytes[..cut].iter().filter(|b| **b == b'\n').count() + 1;
            match load(&bytes[..cut]) {
                Ok(_) => prop_assert!(false, "a dump cut at byte {} loaded", cut),
                Err(e) => prop_assert!(e.contains(&format!("line {line}:")), "cut {}: {}", cut, e),
            }
        }
    }
}

#[test]
fn wrong_version_is_rejected_on_the_header_line() {
    for version in [0u64, 2, 99, u64::MAX] {
        let text =
            format!("{{\"nfr\":{version},\"reason\":\"x\",\"start_unix_ms\":0,\"events\":0}}\n");
        let err = Timeline::default().push_dump("v.nfr", &text).unwrap_err();
        assert!(err.starts_with("line 1: unsupported .nfr version"), "{err}");
    }
}

#[test]
fn non_numeric_fields_are_rejected_on_their_line() {
    let rec = FlightRecorder::new(&Registry::new());
    rec.record(PLANES[0], "ovsdb.commit", 1, &[("rows", 1)]);
    rec.record(PLANES[1], "ddlog.apply", 1, &[("n", 5)]);
    let dump = rec.render_dump("fields");
    for bad in [
        "\"x\"",
        "-1",
        "1.5",
        "true",
        "null",
        "[5]",
        "18446744073709551616",
    ] {
        let text = dump.replace("\"n\":5", &format!("\"n\":{bad}"));
        let err = Timeline::default().push_dump("f.nfr", &text).unwrap_err();
        assert!(
            err.starts_with("line 3: non-numeric field \"n\""),
            "{bad}: {err}"
        );
    }
    for key in ["seq", "ts_ns", "trace"] {
        let text = dump.replacen(
            &format!("\"{key}\":"),
            &format!("\"{key}\":\"?\",\"_\":"),
            1,
        );
        let err = Timeline::default().push_dump("k.nfr", &text).unwrap_err();
        assert!(err.starts_with("line 2: "), "{key}: {err}");
        assert!(err.contains(key), "{key}: {err}");
    }
}

#[test]
fn invalid_utf8_is_rejected_on_its_line() {
    let rec = FlightRecorder::new(&Registry::new());
    rec.record(PLANES[2], "p4.write", 3, &[]);
    let mut bytes = rec.render_dump("utf8").into_bytes();
    let second = bytes.iter().position(|b| *b == b'\n').unwrap() + 4;
    bytes[second] = 0xff;
    let err = load(&bytes).unwrap_err();
    assert!(err.contains("line 2: not UTF-8"), "{err}");
}
