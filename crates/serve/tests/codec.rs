//! The NDJSON tuple-line codec against the route it replaced.
//!
//! Tuple and end lines used to go text → `Content` tree → derived line
//! struct → tuple, and back the same way. [`ClientLine`] and
//! [`ServerLine`] below are those structs (the field lists of
//! `protocol.rs`), read and written through `serde_json::from_str` /
//! `to_string` — the reference. The hand-written reader must accept
//! exactly the lines the reference accepts and decode them to the same
//! values, bit for bit; the writer must produce the same bytes. Where
//! the reference's behaviour is an accident of its construction
//! (duplicate keys: the first occurrence counts, later ones are only
//! held to the grammar), these tests pin it.

mod corpus;

use corpus::{schema, Rng, CASES};
use icewafl_core::report::RunReport;
use icewafl_serve::protocol::{
    coerce_tuple, decode_client_frame, decode_client_frame_typed, decode_server_frame,
    encode_end_frame, encode_stamped_frame, encode_tuple_frame,
};
use icewafl_serve::{ServerEvent, SessionErrorFrame, TelemetryFrame};
use icewafl_stream::net::{NetPoll, WireFormat, WireFrame};
use icewafl_types::{Schema, StampedTuple, Timestamp, Tuple, Value};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize, Default)]
struct ClientLine {
    #[serde(default)]
    tuple: Option<Tuple>,
    #[serde(default)]
    end: Option<bool>,
}

#[derive(Serialize, Deserialize, Default)]
struct ServerLine {
    #[serde(default)]
    tuple: Option<StampedTuple>,
    #[serde(default)]
    report: Option<RunReport>,
    #[serde(default)]
    error: Option<SessionErrorFrame>,
    #[serde(default)]
    telemetry: Option<TelemetryFrame>,
}

/// A tuple with floats by bit pattern: `-0.0` is not `0.0` here.
fn exact(tuple: &Tuple) -> String {
    let values: Vec<String> = tuple
        .values()
        .iter()
        .map(|v| match v {
            Value::Float(f) => format!("Float({:#018x})", f.to_bits()),
            other => format!("{other:?}"),
        })
        .collect();
    values.join(", ")
}

fn exact_stamped(t: &StampedTuple) -> String {
    format!(
        "#{} tau={} arrival={} sub={} ({})",
        t.id,
        t.tau.0,
        t.arrival.0,
        t.sub_stream,
        exact(&t.tuple)
    )
}

/// What a client line means; `None` when it is refused.
fn reference_client(line: &str, schema: Option<&Schema>) -> Option<String> {
    let parsed: ClientLine = serde_json::from_str(line).ok()?;
    match (parsed.tuple, parsed.end) {
        (Some(t), _) => Some(exact(&match schema {
            Some(schema) => coerce_tuple(schema, t),
            None => t,
        })),
        (None, Some(true)) => Some("end".into()),
        _ => None,
    }
}

fn codec_client(line: &str, schema: Option<&Schema>) -> Option<String> {
    let frame = WireFrame::Line(line.to_string());
    let decoded = match schema {
        Some(schema) => decode_client_frame_typed(frame, Some(schema)),
        None => decode_client_frame(frame),
    };
    match decoded.ok()? {
        NetPoll::Record(t) => Some(exact(&t)),
        NetPoll::End => Some("end".into()),
        NetPoll::Batch(_) => panic!("a line is never a batch"),
    }
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("protocol payloads serialize")
}

/// What a server line means; `None` when it is refused.
fn reference_server(line: &str) -> Option<String> {
    let parsed: ServerLine = serde_json::from_str(line).ok()?;
    if let Some(t) = parsed.tuple {
        Some(exact_stamped(&t))
    } else if let Some(r) = parsed.report {
        Some(format!("report {}", json(&r)))
    } else if let Some(e) = parsed.error {
        Some(format!("error {}", json(&e)))
    } else {
        parsed.telemetry.map(|f| format!("telemetry {}", json(&f)))
    }
}

fn codec_server(line: &str) -> Option<String> {
    match decode_server_frame(WireFrame::Line(line.to_string())).ok()? {
        ServerEvent::Tuple(t) => Some(exact_stamped(&t)),
        ServerEvent::Report(r) => Some(format!("report {}", json(&*r))),
        ServerEvent::Error(e) => Some(format!("error {}", json(&e))),
        ServerEvent::Telemetry(f) => Some(format!("telemetry {}", json(&*f))),
        ServerEvent::Batch(_) => panic!("a line is never a batch"),
    }
}

/// Both readers on one line, in both directions; returns how many of
/// the four readings accepted it.
fn agree(line: &str, schema: &Schema) -> usize {
    let untyped = reference_client(line, None);
    assert_eq!(codec_client(line, None), untyped, "client line {line:?}");
    let typed = reference_client(line, Some(schema));
    assert_eq!(
        codec_client(line, Some(schema)),
        typed,
        "client line, typed {line:?}"
    );
    let served = reference_server(line);
    assert_eq!(codec_server(line), served, "server line {line:?}");
    usize::from(untyped.is_some()) + usize::from(served.is_some())
}

fn lines(bytes: &[u8]) -> impl Iterator<Item = &str> {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| std::str::from_utf8(line).ok())
}

#[test]
fn readers_agree_on_the_mutational_corpus() {
    let schema = schema();
    let (mut seen, mut accepted) = (0usize, 0usize);
    for number in 0..CASES {
        let case = corpus::case(number);
        // Upload bytes as the client sent them (damaged or not) …
        for line in lines(&case.bytes) {
            seen += 1;
            accepted += agree(line, &schema);
        }
        // … and the same tuples as the server would answer them,
        // damaged the same ways.
        let Some(tuples) = case.expected else {
            continue;
        };
        let mut rng = case.rng;
        let mut served = Vec::new();
        for (id, tuple) in tuples.into_iter().take(8).enumerate() {
            let mut t = StampedTuple::new(id as u64, Timestamp(rng.below(1 << 40) as i64), tuple);
            t.sub_stream = rng.below(4) as u32;
            let WireFrame::Line(line) = encode_stamped_frame(&t, WireFormat::Ndjson) else {
                unreachable!("NDJSON frames are lines");
            };
            served.extend_from_slice(line.as_bytes());
            served.push(b'\n');
        }
        for _ in 0..case.mutations {
            corpus::mutate(&mut rng, &mut served, WireFormat::Ndjson);
        }
        for line in lines(&served) {
            seen += 1;
            accepted += agree(line, &schema);
        }
    }
    // Both outcomes were exercised, in numbers.
    eprintln!("{seen} corpus lines, {accepted} readings accepted");
    assert!(accepted > 100_000, "{accepted} of {seen} lines accepted");
    assert!(
        seen - accepted > 10_000,
        "{accepted} of {seen} lines accepted"
    );
}

// ---------------------------------------------------------------------
// Generated lines
// ---------------------------------------------------------------------

/// Texts for a value position that both readers take for a tuple value:
/// every scalar edge they must decode alike.
const PLAIN_SCALARS: &[&str] = &[
    "null",
    "true",
    "false",
    "0",
    "-0",
    "7",
    "-7",
    "72",
    "1.5",
    "-2.5e3",
    "0.1",
    "1e400",
    "-1e400",
    "1E-400",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "123456789012345678",
    "1234567890123456789",
    "4294967295",
    "4294967296",
    "\"\"",
    "\"plain\"",
    "\"é😀\"",
    r#""\"\\\/\b\f\n\r\t""#,
    r#""\u00e9\u0000""#,
    r#""\ud83d\ude00""#,
    r#""\uD83D\uDE00""#,
    "\"a\u{7f}b\"",
];

/// Texts that are malformed, or well-formed by an accident of the
/// parser (`01`, `1.`, `-.5`, `\u+123`), or containers where a scalar
/// belongs: the readers must refuse and accept the same ones.
const ODD_SCALARS: &[&str] = &[
    "01",
    "-",
    "1.",
    "-.5",
    ".5",
    "1e",
    "1e+",
    "+1",
    "0x10",
    "NaN",
    "Infinity",
    "nul",
    "tru",
    r#""\ud83d\u0041""#,
    r#""\ud83d""#,
    r#""\ude00""#,
    r#""\ud83dA""#,
    r#""\ud83dx""#,
    r#""\u12""#,
    r#""\u+123""#,
    r#""\x""#,
    "\"a\tb\"",
    "\"unterminated",
    "[]",
    "{}",
    "[1,2]",
    "{\"a\":1}",
];

fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len())]
}

/// `likely` nine times in ten, else `rarely`.
fn biased<'a>(rng: &mut Rng, likely: &[&'a str], rarely: &[&'a str]) -> &'a str {
    if chance(rng, 90) {
        pick(rng, likely)
    } else {
        pick(rng, rarely)
    }
}

fn scalar(rng: &mut Rng) -> &'static str {
    biased(rng, PLAIN_SCALARS, ODD_SCALARS)
}

fn ws(rng: &mut Rng) -> &'static str {
    pick(rng, &["", "", "", " ", "  ", "\t", "\r", "\n", " \t\r\n"])
}

fn chance(rng: &mut Rng, percent: usize) -> bool {
    rng.below(100) < percent
}

/// `depth` arrays, one inside the other.
fn nested(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

/// An object of `members` (`"key":value` texts) in a random order with
/// random whitespace.
fn object(rng: &mut Rng, mut members: Vec<String>) -> String {
    for i in (1..members.len()).rev() {
        members.swap(i, rng.below(i + 1));
    }
    let mut out = format!("{}{{", ws(rng));
    for (i, member) in members.iter().enumerate() {
        if i > 0 {
            out += ",";
        }
        out += ws(rng);
        out += member;
        out += ws(rng);
    }
    out + "}" + ws(rng)
}

fn member(rng: &mut Rng, key: &str, value: &str) -> String {
    format!("{key}{}:{}{value}", ws(rng), ws(rng))
}

/// A key nobody reads, with a value of any shape — nested to around the
/// recursion limit now and then (the line's own objects count too).
fn unknown_member(rng: &mut Rng) -> String {
    let key = pick(
        rng,
        &[
            "\"x\"",
            "\"Tuple\"",
            "\"tuple \"",
            "\"\"",
            "\"valu\\u0065\"",
        ],
    );
    let value = match rng.below(8) {
        0 => nested(120 + rng.below(10)),
        1 => format!("{{\"a\":[{}]}}", scalar(rng)),
        _ => scalar(rng).to_string(),
    };
    member(rng, key, &value)
}

/// `{"values":[…]}` and its deformations.
fn tuple_object(rng: &mut Rng) -> String {
    let mut members = Vec::new();
    let values = |rng: &mut Rng| {
        let mut out = String::from("[");
        for i in 0..rng.below(6) {
            if i > 0 {
                out += ",";
            }
            out += ws(rng);
            out += scalar(rng);
            out += ws(rng);
        }
        out + "]"
    };
    // The key spelled with an escape is the same key.
    let key = |rng: &mut Rng| pick(rng, &["\"values\"", "\"values\"", "\"v\\u0061lues\""]);
    if chance(rng, 90) {
        let (key, values) = (key(rng), values(rng));
        members.push(member(rng, key, &values));
    }
    if chance(rng, 15) {
        let (key, other) = (key(rng), values(rng));
        let other = if chance(rng, 50) {
            scalar(rng).to_string()
        } else {
            other
        };
        members.push(member(rng, key, &other));
    }
    if chance(rng, 25) {
        members.push(unknown_member(rng));
    }
    object(rng, members)
}

/// Drops a character or appends one, now and then.
fn damaged(rng: &mut Rng, mut line: String) -> String {
    match rng.below(12) {
        0 if !line.is_empty() => {
            let at = rng.below(line.len());
            if line.is_char_boundary(at) && line.is_char_boundary(at + 1) {
                line.remove(at);
            }
        }
        1 => line += pick(rng, &["}", "x", ",", "{}", " 1"]),
        _ => {}
    }
    line
}

fn client_line(rng: &mut Rng) -> String {
    if chance(rng, 3) {
        return pick(
            rng,
            &["", " ", "5", "null", "[]", "[{\"end\":true}]", "\"tuple\""],
        )
        .to_string();
    }
    let mut members = Vec::new();
    let tuple_key = |rng: &mut Rng| pick(rng, &["\"tuple\"", "\"tuple\"", "\"tu\\u0070le\""]);
    let tuple_value = |rng: &mut Rng| match rng.below(10) {
        0 => "null".to_string(),
        1 => scalar(rng).to_string(),
        _ => tuple_object(rng),
    };
    let end_key = |rng: &mut Rng| pick(rng, &["\"end\"", "\"end\"", "\"e\\u006ed\""]);
    let end_value = |rng: &mut Rng| {
        pick(
            rng,
            &["true", "true", "false", "null", "\"yes\"", "1", "[]"],
        )
    };
    if chance(rng, 80) {
        let (key, value) = (tuple_key(rng), tuple_value(rng));
        members.push(member(rng, key, &value));
    }
    if chance(rng, 50) {
        let (key, value) = (end_key(rng), end_value(rng));
        members.push(member(rng, key, value));
    }
    if chance(rng, 15) {
        let (key, value) = (tuple_key(rng), tuple_value(rng));
        members.push(member(rng, key, &value));
    }
    if chance(rng, 15) {
        let (key, value) = (end_key(rng), end_value(rng));
        members.push(member(rng, key, value));
    }
    if chance(rng, 30) {
        members.push(unknown_member(rng));
    }
    let line = object(rng, members);
    damaged(rng, line)
}

fn stamped_object(rng: &mut Rng) -> String {
    const IDS: &[&str] = &["0", "7", "18446744073709551615", "9223372036854775808"];
    const BAD_IDS: &[&str] = &["18446744073709551616", "-1", "1.0", "\"7\"", "null"];
    const TIMES: &[&str] = &[
        "0",
        "-5",
        "1700000000000",
        "9223372036854775807",
        "-9223372036854775808",
    ];
    const BAD_TIMES: &[&str] = &["9223372036854775808", "1e3", "null", "\"0\""];
    const SUBS: &[&str] = &["0", "3", "4294967295"];
    const BAD_SUBS: &[&str] = &["4294967296", "-1", "2.0", "true"];
    let mut members = Vec::new();
    let mut field = |rng: &mut Rng, key: &str, good: &[&str], bad: &[&str]| {
        if chance(rng, 97) {
            let value = biased(rng, good, bad);
            members.push(member(rng, key, value));
        }
        if chance(rng, 8) {
            let value = biased(rng, good, bad);
            members.push(member(rng, key, value));
        }
    };
    field(rng, "\"id\"", IDS, BAD_IDS);
    field(rng, "\"tau\"", TIMES, BAD_TIMES);
    field(rng, "\"arrival\"", TIMES, BAD_TIMES);
    field(rng, "\"sub_stre\\u0061m\"", SUBS, BAD_SUBS);
    if chance(rng, 95) {
        let value = match rng.below(10) {
            0 => "null".to_string(),
            1 => scalar(rng).to_string(),
            _ => tuple_object(rng),
        };
        members.push(member(rng, "\"tuple\"", &value));
    }
    if chance(rng, 20) {
        members.push(unknown_member(rng));
    }
    object(rng, members)
}

fn server_line(rng: &mut Rng) -> String {
    let mut members = Vec::new();
    if chance(rng, 75) {
        let value = match rng.below(10) {
            0 => "null".to_string(),
            1 => scalar(rng).to_string(),
            _ => stamped_object(rng),
        };
        members.push(member(rng, "\"tuple\"", &value));
    }
    let report = json(&RunReport {
        tuples_in: 3,
        tuples_out: 4,
        ..RunReport::default()
    });
    let payloads: [(&str, [&str; 5]); 3] = [
        ("\"report\"", ["null", &report, "{}", "5", "[]"]),
        (
            "\"error\"",
            [
                "null",
                r#"{"stage":"s","kind":"k","message":"m","protocol":null}"#,
                "{}",
                "\"x\"",
                r#"{"stage":7}"#,
            ],
        ),
        (
            "\"telemetry\"",
            [
                "null",
                r#"{"seq":1,"at_ms":2,"interval_ms":3}"#,
                r#"{"seq":1}"#,
                "true",
                r#" { "interval_ms" : 3, "seq" : 1, "at_ms" : 2, "sessions" : [ ] } "#,
            ],
        ),
    ];
    for (key, values) in payloads {
        for _ in 0..2 {
            if chance(rng, 25) {
                // `null` and a payload that fits, or one of the misfits.
                let value = biased(rng, &values[..2], &values[2..]);
                members.push(member(rng, key, value));
            }
        }
    }
    if chance(rng, 25) {
        members.push(unknown_member(rng));
    }
    let line = object(rng, members);
    damaged(rng, line)
}

#[test]
fn readers_agree_on_generated_lines() {
    let schema = schema();
    let mut rng = Rng(0x1CE_AF1);
    let (mut client_ok, mut server_ok) = (0, 0);
    const LINES: usize = 30_000;
    for _ in 0..LINES {
        let line = client_line(&mut rng);
        client_ok += usize::from(reference_client(&line, None).is_some());
        agree(&line, &schema);
        let line = server_line(&mut rng);
        server_ok += usize::from(reference_server(&line).is_some());
        agree(&line, &schema);
    }
    // The generators reach both outcomes in both directions.
    for accepted in [client_ok, server_ok] {
        assert!(
            accepted > LINES / 10 && accepted < LINES * 9 / 10,
            "{client_ok} client / {server_ok} server lines of {LINES} accepted"
        );
    }
}

#[test]
fn todays_accidents_are_pinned() {
    let record = |line: &str| codec_client(line, None);
    let ints = |values: &[i64]| {
        Some(exact(&Tuple::new(
            values.iter().map(|&i| Value::Int(i)).collect(),
        )))
    };
    // Duplicate keys: the first occurrence counts; later ones need only
    // be JSON, whatever their type.
    assert_eq!(
        record(r#"{"tuple":{"values":[1]},"tuple":{"values":[2]}}"#),
        ints(&[1])
    );
    assert_eq!(record(r#"{"tuple":{"values":[1]},"tuple":7}"#), ints(&[1]));
    assert_eq!(record(r#"{"tuple":7,"tuple":{"values":[1]}}"#), None);
    assert_eq!(
        record(r#"{"tuple":{"values":[1],"values":"x"}}"#),
        ints(&[1])
    );
    assert_eq!(
        record(r#"{"tuple":null,"tuple":{"values":[1]},"end":true}"#).as_deref(),
        Some("end")
    );
    assert_eq!(
        record(r#"{"end":true,"end":false}"#).as_deref(),
        Some("end")
    );
    assert_eq!(record(r#"{"end":false,"end":true}"#), None);
    // A tuple wins over an end marker, but the marker must still type-check.
    assert_eq!(record(r#"{"end":true,"tuple":{"values":[1]}}"#), ints(&[1]));
    assert_eq!(record(r#"{"end":"yes","tuple":{"values":[1]}}"#), None);
    // Lenient numbers: leading zeros and a bare trailing point parse.
    assert_eq!(record(r#"{"tuple":{"values":[01,-0]}}"#), ints(&[1, 0]));
    assert_eq!(
        record(r#"{"tuple":{"values":[1.,1e400,18446744073709551615]}}"#),
        Some(exact(&Tuple::new(vec![
            Value::Float(1.0),
            Value::Float(f64::INFINITY),
            Value::Float(u64::MAX as f64),
        ])))
    );
    // Unknown keys nest to the limit of 128 levels, the line's own
    // object included — and no further.
    let deep = |depth| format!(r#"{{"x":{},"end":true}}"#, nested(depth));
    assert_eq!(record(&deep(127)).as_deref(), Some("end"));
    assert_eq!(record(&deep(128)), None);
    assert_eq!(reference_client(&deep(127), None).as_deref(), Some("end"));
    assert_eq!(reference_client(&deep(128), None), None);
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn value(rng: &mut Rng) -> Value {
    const INTS: &[i64] = &[0, -1, 7, 72, i64::MAX, i64::MIN, 1_700_000_000_000, -60_000];
    const FLOATS: &[f64] = &[
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        72.0,
        -2.5e3,
        1e15,
        1e16,
        123_456_789_012_345_680.0,
        1e300,
        1e-7,
        5e-324,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    const TEXTS: &[&str] = &[
        "",
        "plain",
        "walk",
        "é😀",
        "\"quoted\" \\ / back",
        "\u{0}\u{1}\u{2}\u{3}\u{4}\u{5}\u{6}\u{7}\u{8}\t\n\u{b}\u{c}\r\u{e}\u{f}",
        "\u{10}\u{11}\u{12}\u{13}\u{14}\u{15}\u{16}\u{17}\u{18}\u{19}\u{1a}\u{1b}\u{1c}\u{1d}\u{1e}\u{1f}",
        "\u{7f}\u{80}\u{2028}\u{2029}\u{feff}",
        "tab\there, é\nthere",
    ];
    match rng.below(8) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(INTS[rng.below(INTS.len())]),
        3 => Value::Float(FLOATS[rng.below(FLOATS.len())]),
        // Any bit pattern: subnormals, NaN payloads, every exponent.
        4 => Value::Float(f64::from_bits(rng.next())),
        5 => Value::Float(rng.below(1_000_000) as f64 / 64.0),
        6 => Value::Str(TEXTS[rng.below(TEXTS.len())].into()),
        _ => Value::Timestamp(Timestamp(INTS[rng.below(INTS.len())])),
    }
}

#[test]
fn writers_produce_the_derived_encoders_bytes() {
    let mut rng = Rng(0xB17E5);
    for _ in 0..20_000 {
        let tuple = Tuple::new((0..rng.below(20)).map(|_| value(&mut rng)).collect());
        let reference = json(&ClientLine {
            tuple: Some(tuple.clone()),
            end: None,
        });
        assert_eq!(
            encode_tuple_frame(&tuple, WireFormat::Ndjson),
            WireFrame::Line(reference)
        );

        let id = [0, 1, u64::MAX, i64::MAX as u64 + 1, rng.next()][rng.below(5)];
        let stamp = |rng: &mut Rng| {
            Timestamp(
                [
                    0,
                    -1,
                    i64::MIN,
                    i64::MAX,
                    -1_700_000_000_000,
                    rng.next() as i64,
                ][rng.below(6)],
            )
        };
        let mut stamped = StampedTuple::new(id, stamp(&mut rng), tuple);
        stamped.arrival = stamp(&mut rng);
        stamped.sub_stream = [0, 3, u32::MAX, rng.next() as u32][rng.below(4)];
        let reference = json(&ServerLine {
            tuple: Some(stamped.clone()),
            ..ServerLine::default()
        });
        assert!(reference.ends_with(r#"},"report":null,"error":null,"telemetry":null}"#));
        assert_eq!(
            encode_stamped_frame(&stamped, WireFormat::Ndjson),
            WireFrame::Line(reference.clone())
        );
        // And what was written reads back the way the reference reads it.
        assert_eq!(codec_server(&reference), reference_server(&reference));
        assert!(codec_server(&reference).is_some());
    }
    assert_eq!(
        encode_end_frame(WireFormat::Ndjson),
        WireFrame::Line(json(&ClientLine {
            tuple: None,
            end: Some(true),
        }))
    );
}
