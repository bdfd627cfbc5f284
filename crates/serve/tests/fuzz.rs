//! Seeded mutational fuzzing of everything a peer's bytes reach before
//! the engine does: the frame splitter, the client-frame decoders of
//! both wire formats, and the handshake line.
//!
//! Since a session executes while it uploads, what these decoders
//! return is pushed straight into a running plan: they are the whole
//! input validation of the server. The contract checked here, for every
//! case: the outcome is a decoded value or a typed `NetError` — never a
//! panic, never a stack overflow — and getting there allocates no more
//! than a constant multiple of the frame cap, whatever lengths and
//! counts the bytes announce. The same allocator counts what the tuple
//! line codec allocates on a valid line: the values and the strings
//! among them, nothing else.
//!
//! One `#[test]` only: the allocation gauge is process-wide.

mod corpus;

use corpus::{schema, Rng, CASES, MAX_FRAME};
use icewafl_serve::protocol::{
    coerce_tuple, decode_client_frame, decode_client_frame_typed, decode_column_batch,
    decode_server_frame, decode_tuple_columns, encode_stamped_frame, encode_tuple_columns,
    encode_tuple_frame, TAG_TUPLE_COLUMNS,
};
use icewafl_serve::{Handshake, ServerEvent};
use icewafl_stream::net::{FrameDecoder, NetError, NetPoll, WireFormat, WireFrame};
use icewafl_types::{ColumnBatch, DataType, Schema, StampedTuple, Timestamp, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// No case may have more than this many times [`MAX_FRAME`] allocated
/// at once. The worst legitimate expansion is a columnar frame of
/// one-byte values: each becomes a 24-byte `Value`, held twice while
/// columns turn into rows, plus a tuple per row — 67 times the cap as
/// measured, so this leaves a factor of two.
const ALLOC_FACTOR: usize = 128;

/// Counts live heap bytes, their high-water mark, and allocations.
struct Gauged;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls that handed out memory: `alloc`s and `realloc`s.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// What `work` returns and how many allocations it made.
fn counting<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = work();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The tuple-line codec allocates what the decoded tuple owns — its
/// values and one `String` per string among them — and nothing on the
/// way there; typing a tuple against its schema allocates nothing.
fn tuple_lines_allocate_only_what_they_return() {
    let text = |s: &str| Value::Str(s.into());
    let tuple = Tuple::new(vec![
        Value::Timestamp(Timestamp(1_700_000_000_000)),
        Value::Int(72),
        text("walk"),
    ]);
    // In the untagged text form the integer in the float column and the
    // timestamp are plain integers; `typed` is what the schema makes of
    // them.
    let typed = Tuple::new(vec![
        Value::Timestamp(Timestamp(1_700_000_000_000)),
        Value::Float(72.0),
        text("walk"),
    ]);
    let untyped = Tuple::new(vec![
        Value::Int(1_700_000_000_000),
        Value::Int(72),
        text("walk"),
    ]);
    let schema = schema();

    let frame = encode_tuple_frame(&tuple, WireFormat::Ndjson);
    let (decoded, allocations) = counting(|| decode_client_frame_typed(frame, Some(&schema)));
    assert!(matches!(decoded, Ok(NetPoll::Record(t)) if t == typed));
    assert_eq!(allocations, 2, "the values and one string");

    let frame = encode_tuple_frame(&tuple, WireFormat::Ndjson);
    let (decoded, allocations) = counting(|| decode_client_frame(frame));
    let Ok(NetPoll::Record(decoded)) = decoded else {
        panic!("a valid tuple line decodes");
    };
    assert_eq!(decoded, untyped);
    assert_eq!(allocations, 2, "the values and one string");

    let (coerced, allocations) = counting(|| coerce_tuple(&schema, decoded));
    assert_eq!(coerced, typed);
    assert_eq!(allocations, 0, "typing rewrites the tuple it was given");

    // Escapes and unknown keys change nothing: the decoded string is
    // sized by its raw form before it is filled.
    let line = r#" { "note" : [1, {"a": "b"}], "tuple" : { "values" : [ 5, null, "a\"\u00e9\ud83d\ude00\n" ] } } "#;
    let frame = WireFrame::Line(line.into());
    let (decoded, allocations) = counting(|| decode_client_frame_typed(frame, Some(&schema)));
    let expected = Tuple::new(vec![
        Value::Timestamp(Timestamp(5)),
        Value::Null,
        text("a\"é😀\n"),
    ]);
    assert!(matches!(decoded, Ok(NetPoll::Record(t)) if t == expected));
    assert_eq!(allocations, 2, "the values and one string");

    let mut stamped = StampedTuple::new(9, Timestamp(-5), tuple);
    stamped.sub_stream = 3;
    let frame = encode_stamped_frame(&stamped, WireFormat::Ndjson);
    let (decoded, allocations) = counting(|| decode_server_frame(frame));
    let Ok(ServerEvent::Tuple(decoded)) = decoded else {
        panic!("a valid stamped line decodes");
    };
    assert_eq!(decoded.tuple, untyped);
    assert_eq!(
        (decoded.id, decoded.tau, decoded.sub_stream),
        (9, Timestamp(-5), 3)
    );
    assert_eq!(allocations, 2, "the values and one string");
}

/// A columnar upload frame decodes to one block per tuple plus one text
/// per distinct string of each column: a repeated category is a clone
/// of the text its first cell got, not a string of its own.
fn column_frames_share_their_strings() {
    const ROWS: usize = 256;
    let stations: Vec<String> = (0..12).map(|i| format!("station-{i}")).collect();
    let directions: Vec<String> = (0..16).map(|i| format!("wd-{i}")).collect();
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i as i64 * 3_600_000)),
                Value::Float(i as f64 / 4.0),
                Value::from(stations[i * 7 % 12].as_str()),
                Value::from(directions[i * 5 % 16].as_str()),
            ])
        })
        .collect();
    let frame = WireFrame::Binary {
        tag: TAG_TUPLE_COLUMNS,
        payload: encode_tuple_columns(&rows),
    };
    let (decoded, allocations) = counting(|| decode_client_frame(frame));
    let Ok(NetPoll::Batch(decoded)) = decoded else {
        panic!("a valid columnar frame decodes");
    };
    assert_eq!(decoded, rows);
    assert!(
        allocations <= ROWS + 12 + 16 + 8,
        "{allocations} allocations for {ROWS} rows of 12 and 16 distinct strings"
    );
    for (col, distinct) in [(2, 12), (3, 16)] {
        let texts: std::collections::HashSet<*const u8> = decoded
            .iter()
            .map(|t| match &t.values()[col] {
                Value::Str(s) => s.as_ptr(),
                v => panic!("not a string: {v:?}"),
            })
            .collect();
        assert_eq!(texts.len(), distinct, "column {col}: one text per category");
    }
}

/// A columnar frame decodes into a typed batch with a fixed number of
/// allocations — the columns, per column its values and its validity
/// bitmap, the stamps, the string table, and one text per distinct
/// string — whatever its row count: 64 rows or 512 of the air-quality
/// schema (14 columns, 12 stations and 16 wind directions) cost the
/// same.
fn column_batches_allocate_per_column_not_per_row() {
    let mut fields = vec![
        ("time", DataType::Timestamp),
        ("station", DataType::Str),
        ("wd", DataType::Str),
    ];
    let floats: Vec<String> = (0..11).map(|k| format!("m{k}")).collect();
    fields.extend(floats.iter().map(|f| (f.as_str(), DataType::Float)));
    let schema = Schema::from_pairs(fields).unwrap();
    let stations: Vec<String> = (0..12).map(|i| format!("station-{i}")).collect();
    let directions: Vec<String> = (0..16).map(|i| format!("wd-{i}")).collect();
    let counts: Vec<usize> = [64, 512]
        .into_iter()
        .map(|rows| {
            let tuples: Vec<Tuple> = (0..rows)
                .map(|i| {
                    let mut values = vec![
                        Value::Timestamp(Timestamp(i as i64 * 3_600_000)),
                        Value::from(stations[i % 12].as_str()),
                        Value::from(directions[i * 5 % 16].as_str()),
                    ];
                    values.extend((0..11).map(|k| {
                        if (i + k) % 29 == 0 {
                            Value::Null
                        } else {
                            Value::Float((i * k) as f64 / 8.0)
                        }
                    }));
                    Tuple::new(values)
                })
                .collect();
            let payload = encode_tuple_columns(&tuples);
            let (batch, allocations) = counting(|| decode_column_batch(&payload, &schema));
            let batch = batch
                .unwrap()
                .expect("a well-typed frame decodes to a batch");
            let back: Vec<Tuple> = batch.into_rows().into_iter().map(|t| t.tuple).collect();
            assert_eq!(back, tuples);
            assert!(
                allocations <= 1 + 2 * 14 + 4 + 1 + 12 + 16,
                "{allocations} allocations for {rows} rows"
            );
            allocations
        })
        .collect();
    assert_eq!(counts[0], counts[1], "allocations grow with the row count");
}

/// Whether the tuples fit `schema` as a typed batch: the schema's
/// arity, and every value NULL or of its column's type.
fn fits(schema: &Schema, tuples: &[Tuple]) -> bool {
    let rows = tuples
        .iter()
        .map(|t| StampedTuple::new(0, Timestamp(0), t.clone()))
        .collect();
    ColumnBatch::from_rows(schema, rows).is_ok()
}

/// What the column decoder made of the columnar payloads it was given:
/// batches, declines, errors.
#[derive(Default)]
struct ColumnOutcomes {
    batches: u64,
    declined: u64,
    errors: u64,
}

/// The column decoder against the row decoder on one columnar payload:
/// a batch holds the rows the row decoder reads; it declines exactly
/// when those rows do not fit the corpus schema; and it fails exactly
/// where the row decoder fails, with the same error — unless it
/// declined first.
fn column_decoder_agrees(payload: &[u8], outcomes: &mut ColumnOutcomes) {
    let rows = decode_tuple_columns(payload);
    match decode_column_batch(payload, &schema()) {
        Ok(Some(batch)) => {
            let rows = rows.expect("the row decoder reads what the column decoder reads");
            let back: Vec<Tuple> = batch.into_rows().into_iter().map(|t| t.tuple).collect();
            // Compared as bytes: a NaN is not equal to itself.
            assert!(encode_tuple_columns(&back) == encode_tuple_columns(&rows));
            outcomes.batches += 1;
        }
        Ok(None) => {
            if let Ok(rows) = rows {
                assert!(!fits(&schema(), &rows), "declined rows that fit");
            }
            outcomes.declined += 1;
        }
        Err(e) => {
            let row_error = rows.expect_err("the row decoder reads what the column decoder cannot");
            assert_eq!(row_error.to_string(), e.to_string());
            outcomes.errors += 1;
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Gauged {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `p` was allocated above by `System` with `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` was allocated above by `System` with `layout`;
        // the caller vouches for `new_size`.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Gauged = Gauged;

/// What the server does with a connection's bytes, minus the plan:
/// split at arbitrary read boundaries, parse the handshake line when
/// there is one, decode every frame. Returns the tuples decoded before
/// the end frame, the first error, or neither (the bytes ran out).
fn serve_bytes(
    rng: &mut Rng,
    bytes: &[u8],
    handshake_first: bool,
    format: WireFormat,
    columns: &mut ColumnOutcomes,
) -> (Vec<Tuple>, Option<NetError>, bool) {
    let mut decoder = FrameDecoder::new(WireFormat::Ndjson, MAX_FRAME);
    let mut in_handshake = handshake_first;
    if !handshake_first {
        decoder.set_format(format);
    }
    let mut tuples = Vec::new();
    let mut rest = bytes;
    loop {
        loop {
            match decoder.next() {
                Ok(Some(WireFrame::Line(line))) if in_handshake => {
                    in_handshake = false;
                    match serde_json::from_str::<Handshake>(&line) {
                        Ok(hs) => {
                            let Ok(negotiated) = hs.wire_format() else {
                                return (tuples, None, false);
                            };
                            // Accepted handshakes compile their plan.
                            if let (Some(plan), Some(schema)) = (&hs.plan_inline, &hs.schema_inline)
                            {
                                let _ = plan.compile(schema);
                            }
                            decoder.set_format(negotiated);
                        }
                        Err(_) => return (tuples, None, false),
                    }
                }
                Ok(Some(frame)) => {
                    if let WireFrame::Binary {
                        tag: TAG_TUPLE_COLUMNS,
                        payload,
                    } = &frame
                    {
                        column_decoder_agrees(payload, columns);
                    }
                    match decode_client_frame(frame) {
                        Ok(NetPoll::Record(t)) => tuples.push(t),
                        Ok(NetPoll::Batch(batch)) => tuples.extend(batch),
                        Ok(NetPoll::End) => return (tuples, None, true),
                        Err(e) => return (tuples, Some(e), false),
                    }
                }
                Ok(None) => break,
                Err(e) => return (tuples, Some(e), false),
            }
        }
        if rest.is_empty() {
            return (tuples, None, false);
        }
        let n = (1 + rng.below(2_000)).min(rest.len());
        let (chunk, tail) = rest.split_at(n);
        decoder.push(chunk);
        rest = tail;
    }
}

#[test]
fn hostile_bytes_decode_to_values_or_typed_errors_within_bounded_memory() {
    tuple_lines_allocate_only_what_they_return();
    column_frames_share_their_strings();
    column_batches_allocate_per_column_not_per_row();

    let mut worst = 0usize;
    let mut columns = ColumnOutcomes::default();
    let (mut clean, mut failed) = (0u64, 0u64);
    for case in 0..CASES {
        let corpus::Case {
            mut rng,
            format,
            handshake_first,
            bytes,
            mutations,
            expected,
        } = corpus::case(case);

        let baseline = LIVE.load(Ordering::Relaxed);
        PEAK.store(baseline, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_bytes(&mut rng, &bytes, handshake_first, format, &mut columns)
        }));
        let held = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
        let (tuples, error, ended) = outcome.unwrap_or_else(|_| panic!("case {case} panicked"));

        // The input itself is at most a few frames; everything else is
        // what decoding it allocated.
        assert!(
            held <= ALLOC_FACTOR * MAX_FRAME,
            "case {case}: {held} bytes held for {} bytes of input",
            bytes.len()
        );
        worst = worst.max(held);
        if mutations == 0 {
            // Valid bytes survive any read-boundary split unchanged.
            assert!(error.is_none(), "case {case}: {error:?}");
            if let Some(expected) = expected {
                assert!(ended, "case {case}: end frame lost");
                // NDJSON values are untagged: both sides go through the
                // schema, as they do in a session.
                let typed = |tuples: Vec<Tuple>| -> Vec<Tuple> {
                    match format {
                        WireFormat::Binary => tuples,
                        WireFormat::Ndjson => tuples
                            .into_iter()
                            .map(|t| coerce_tuple(&schema(), t))
                            .collect(),
                    }
                };
                assert_eq!(typed(tuples), typed(expected), "case {case}");
            }
            clean += 1;
        }
        failed += u64::from(error.is_some());
    }
    // What the small cap above keeps out of the loop: a line as long as
    // the production cap allows that is all nesting. On a thread with
    // the default stack, as the server's workers have.
    std::thread::spawn(|| {
        for opener in ["[", "{\"plan_inline\":", "{\"tuple\":{\"values\":["] {
            let line = opener.repeat((1 << 20) / opener.len());
            assert!(serde_json::from_str::<Handshake>(&line).is_err());
            assert!(matches!(
                decode_client_frame(WireFrame::Line(line)),
                Err(NetError::Malformed { .. })
            ));
        }
    })
    .join()
    .expect("deep nesting is a typed error");

    // The loop exercised both sides of the contract.
    assert!(clean > CASES / 8, "{clean} unmutated cases");
    assert!(failed > CASES / 8, "{failed} typed errors");
    assert!(worst > MAX_FRAME, "the gauge measured nothing: {worst}");
    // And the column decoder met all three outcomes.
    assert!(columns.batches > 100, "{} batches", columns.batches);
    assert!(columns.declined > 100, "{} declines", columns.declined);
    assert!(columns.errors > 100, "{} errors", columns.errors);
}
