//! Binary sessions, byte for byte.
//!
//! `tests/fixtures/binary_session.in` (at the repository root, next to
//! the NDJSON session fixture) is what four clients sent, one session
//! after another: a handshake with an inline plan of value polluters
//! (logging off) and an inline schema, then `TAG_TUPLE_COLUMNS` and
//! `TAG_TUPLE` frames and the end frame. [`sessions`] below builds those
//! bytes, and the first test pins that it still does. Between them the
//! sessions cover round-robin, broadcast and probabilistic assigners,
//! batch sizes 1, 3, 4 and 256, in-order frames, tied, regressing and
//! NULL event times, mistyped values and one-row frames.
//!
//! `tests/fixtures/binary_session.out` is everything the server answered,
//! captured from the server of the commit before binary sessions got a
//! column path: per session the handshake reply line, the data frames
//! and the report frame. The replies and data frames must come back
//! byte for byte; the report must agree in everything but its stage
//! metrics, which time the run and name the path it took.
//!
//! Tuples whose arity changes within a session are not part of the
//! fixture: that server crashed on them. `tests/serve.rs` pins them
//! against offline `execute` instead.
//!
//! To re-capture, start any `icewafl serve` and write each session's
//! bytes to a connection of its own, in order, keeping everything that
//! comes back.

use icewafl_core::plan::LogicalPlan;
use icewafl_core::report::RunReport;
use icewafl_serve::protocol::{
    encode_end_frame, encode_tuple_columns_frame, encode_tuple_frame, TAG_ERROR, TAG_REPORT,
};
use icewafl_serve::{Handshake, ServeConfig, Server};
use icewafl_stream::net::{frame_bytes, WireFormat};
use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The session schema: the event-time attribute first, then one column
/// of every other type.
fn schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("x", DataType::Float),
        ("n", DataType::Int),
        ("s", DataType::Str),
        ("b", DataType::Bool),
    ])
    .unwrap()
}

const T0: i64 = 1_700_000_000_000;
const STEP: i64 = 60_000;

/// Row `k` of the fixture's stream, at event time `T0 + k` minutes.
fn row(k: i64) -> Vec<Value> {
    vec![
        Value::Timestamp(Timestamp(T0 + k * STEP)),
        Value::Float(k as f64 * 1.25 - 3.0),
        Value::Int(60 + k % 40),
        Value::Str(["a", "bb", "ccc", "dddd"][k as usize % 4].into()),
        Value::Bool(k % 3 == 0),
    ]
}

fn rows(ks: impl IntoIterator<Item = i64>) -> Vec<Tuple> {
    ks.into_iter().map(|k| Tuple::new(row(k))).collect()
}

/// `tuples` with column `col` of the rows at `at` replaced by `value`.
fn with(mut tuples: Vec<Tuple>, at: &[usize], col: usize, value: Value) -> Vec<Tuple> {
    for &i in at {
        tuples[i].values_mut()[col] = value.clone();
    }
    tuples
}

fn columns(tuples: &[Tuple]) -> Vec<u8> {
    frame_bytes(&encode_tuple_columns_frame(tuples))
}

fn single(tuple: &Tuple) -> Vec<u8> {
    frame_bytes(&encode_tuple_frame(tuple, WireFormat::Binary))
}

fn standard(name: &str, attr: &str, error: &str, condition: &str) -> String {
    format!(
        r#"{{"type":"standard","name":"{name}","attributes":["{attr}"],"error":{error},"condition":{condition}}}"#
    )
}

/// Value polluters on every column, with and without column kernels:
/// noise, a value condition reading what the noise wrote, a typo (no
/// kernel), a missing value, and a shift of the event-time attribute.
fn pipeline(k: usize) -> String {
    let stages = [
        standard(
            &format!("noise-{k}"),
            "x",
            r#"{"type":"gaussian_noise","sigma":2.0,"relative":false}"#,
            r#"{"type":"probability","p":0.5}"#,
        ),
        standard(
            &format!("scale-{k}"),
            "n",
            r#"{"type":"scale","factor":1.5}"#,
            r#"{"type":"value","attribute":"x","op":"gt","value":4.0}"#,
        ),
        standard(
            &format!("typo-{k}"),
            "s",
            r#"{"type":"typo"}"#,
            r#"{"type":"probability","p":0.3}"#,
        ),
        standard(
            &format!("missing-{k}"),
            "b",
            r#"{"type":"missing_value"}"#,
            r#"{"type":"probability","p":0.2}"#,
        ),
        standard(
            &format!("shift-{k}"),
            "Time",
            r#"{"type":"timestamp_shift","delta_ms":-3600000}"#,
            r#"{"type":"probability","p":0.25}"#,
        ),
    ];
    format!("[{}]", stages.join(","))
}

fn handshake(seed: u64, m: usize, assigner: &str, batch_size: usize, period: u64) -> Vec<u8> {
    let pipelines: Vec<String> = (0..m).map(pipeline).collect();
    let plan = LogicalPlan::from_json(&format!(
        r#"{{"seed":{seed},"pipelines":[{}],"assigner":{assigner},"batch_size":{batch_size},"watermark_period":{period},"logging":false}}"#,
        pipelines.join(",")
    ))
    .unwrap();
    let handshake = Handshake {
        plan_inline: Some(plan),
        schema_inline: Some(schema()),
        format: Some("binary".into()),
        ..Handshake::default()
    };
    let mut line = serde_json::to_string(&handshake).unwrap().into_bytes();
    line.push(b'\n');
    line
}

/// Every session's upload, in order.
fn sessions() -> Vec<Vec<u8>> {
    let end = frame_bytes(&encode_end_frame(WireFormat::Binary));
    let round_robin = [
        handshake(7, 2, r#"{"type":"round_robin"}"#, 4, 5),
        // In order.
        columns(&rows(0..12)),
        // Tied τ: six rows at one event time, two at the next.
        columns(&with(
            rows(12..20),
            &[0, 1, 2, 3, 4, 5],
            0,
            row(12)[0].clone(),
        )),
        // Regressing: behind the last watermark, so late.
        columns(&rows(3..8)),
        // NULL τ: these rows inherit the previous row's.
        columns(&with(rows(20..24), &[1, 2], 0, Value::Null)),
        // A mistyped value: an integer in the float column.
        columns(&with(rows(24..30), &[2], 1, Value::Int(7))),
        // Single tuples, one of them with a NULL τ.
        single(&rows(30..31)[0]),
        single(&with(rows(31..32), &[0], 0, Value::Null)[0]),
        single(&rows(32..33)[0]),
        // A one-row columnar frame.
        columns(&rows(33..34)),
        columns(&rows(34..61)),
        end.clone(),
    ]
    .concat();
    let broadcast = [
        handshake(11, 3, r#"{"type":"broadcast"}"#, 3, 5),
        // A leading NULL τ: stamped with the epoch.
        single(&with(rows(0..1), &[0], 0, Value::Null)[0]),
        columns(&rows(1..9)),
        columns(&with(rows(9..16), &[0, 1, 2], 0, row(9)[0].clone())),
        // A float in the integer column, a string in the bool column.
        columns(&with(
            with(rows(16..22), &[0], 2, Value::Float(1.5)),
            &[4],
            4,
            Value::Str("yes".into()),
        )),
        columns(&rows(2..6)),
        columns(&with(rows(22..30), &[3], 0, Value::Null)),
        columns(&rows(30..31)),
        single(&rows(31..32)[0]),
        columns(&rows(32..44)),
        end.clone(),
    ]
    .concat();
    let probabilistic = [
        handshake(13, 3, r#"{"type":"probabilistic","p":0.4}"#, 256, 16),
        columns(&rows(0..40)),
        columns(&with(rows(40..48), &[0, 1, 2, 3], 0, row(40)[0].clone())),
        columns(&rows(10..20)),
        columns(&with(rows(48..60), &[5], 3, Value::Int(3))),
        single(&rows(60..61)[0]),
        columns(&with(rows(61..70), &[0, 8], 0, Value::Null)),
        columns(&rows(70..120)),
        end.clone(),
    ]
    .concat();
    let unbatched = [
        handshake(17, 1, r#"{"type":"auto"}"#, 1, 4),
        columns(&rows(0..10)),
        columns(&rows(4..7)),
        single(&rows(10..11)[0]),
        columns(&with(rows(11..20), &[1], 1, Value::Null)),
        end,
    ]
    .concat();
    vec![round_robin, broadcast, probabilistic, unbatched]
}

/// Splits the server bytes of a session (and what may follow it) into
/// its reply line, its data frames and its report payload.
fn split_answer(bytes: &[u8]) -> (&[u8], &[u8], &[u8]) {
    let reply_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("a reply line")
        + 1;
    let mut at = reply_end;
    loop {
        let tag = bytes[at];
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        let payload = &bytes[at + 5..at + 5 + len];
        assert_ne!(tag, TAG_ERROR, "{}", String::from_utf8_lossy(payload));
        if tag == TAG_REPORT {
            return (&bytes[..reply_end], &bytes[reply_end..at], payload);
        }
        at += 5 + len;
    }
}

fn report(payload: &[u8]) -> RunReport {
    serde_json::from_str(std::str::from_utf8(payload).expect("UTF-8")).expect("a report payload")
}

/// A report with what a run measures left out: its stage metrics.
fn comparable(payload: &[u8]) -> String {
    let mut report = report(payload);
    report.metrics = Default::default();
    serde_json::to_string(&report).unwrap()
}

#[test]
fn the_committed_input_is_the_one_described_here() {
    assert!(
        sessions().concat() == include_bytes!("../../../tests/fixtures/binary_session.in"),
        "tests/fixtures/binary_session.in differs from `sessions()`"
    );
}

#[test]
fn binary_sessions_answer_with_the_committed_bytes() {
    let mut expected: &[u8] = include_bytes!("../../../tests/fixtures/binary_session.out");
    let server = Arc::new(Server::bind(ServeConfig::default()).unwrap());
    let shutdown = server.shutdown_handle();
    let runner = Arc::clone(&server);
    let running = std::thread::spawn(move || runner.run());

    for (n, session) in sessions().iter().enumerate() {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(session).unwrap();
        let mut answer = Vec::new();
        stream.read_to_end(&mut answer).unwrap();

        let (reply, data, report) = split_answer(&answer);
        assert_eq!(reply.len() + data.len() + 5 + report.len(), answer.len());
        let (want_reply, want_data, want_report) = split_answer(expected);
        expected = &expected[want_reply.len() + want_data.len() + 5 + want_report.len()..];
        assert_eq!(reply, want_reply, "session {n}: handshake reply");
        if let Some(at) = data.iter().zip(want_data).position(|(a, b)| a != b) {
            panic!("session {n}: data differs from byte {at} on");
        }
        assert_eq!(data.len(), want_data.len(), "session {n}: data length");
        assert_eq!(
            comparable(report),
            comparable(want_report),
            "session {n}: report"
        );
        // Every session ran in columns, its typed frames through the
        // kernels and the rest one row at a time.
        let metrics = self::report(report).metrics;
        assert!(
            metrics.counter("column_session/kernel_rows") > 0,
            "session {n}"
        );
        assert!(
            metrics.counter("column_session/tuple_rows") > 0,
            "session {n}"
        );
    }
    assert!(expected.is_empty(), "the fixture has more sessions");
    shutdown.store(true, Ordering::SeqCst);
    running.join().unwrap().unwrap();
}
