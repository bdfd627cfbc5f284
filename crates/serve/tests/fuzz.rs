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
    coerce_tuple, decode_client_frame, decode_client_frame_typed, decode_server_frame,
    encode_stamped_frame, encode_tuple_frame,
};
use icewafl_serve::{Handshake, ServerEvent};
use icewafl_stream::net::{FrameDecoder, NetError, NetPoll, WireFormat, WireFrame};
use icewafl_types::{StampedTuple, Timestamp, Tuple, Value};
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
                Ok(Some(frame)) => match decode_client_frame(frame) {
                    Ok(NetPoll::Record(t)) => tuples.push(t),
                    Ok(NetPoll::Batch(batch)) => tuples.extend(batch),
                    Ok(NetPoll::End) => return (tuples, None, true),
                    Err(e) => return (tuples, Some(e), false),
                },
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

    let mut worst = 0usize;
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
            serve_bytes(&mut rng, &bytes, handshake_first, format)
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
}
