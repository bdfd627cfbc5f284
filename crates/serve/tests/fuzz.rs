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
//! counts the bytes announce.
//!
//! One `#[test]` only: the allocation gauge is process-wide.

use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::plan::LogicalPlan;
use icewafl_serve::protocol::{
    coerce_tuple, decode_client_frame, encode_end_frame, encode_tuple_columns_frame,
    encode_tuple_frame,
};
use icewafl_serve::Handshake;
use icewafl_stream::net::{frame_bytes, FrameDecoder, NetError, NetPoll, WireFormat, WireFrame};
use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Frame cap of the fuzzed decoders: small, so that "a constant
/// multiple of the cap" is a tight bound and a case is cheap.
const MAX_FRAME: usize = 4096;

/// No case may have more than this many times [`MAX_FRAME`] allocated
/// at once. The worst legitimate expansion is a columnar frame of
/// one-byte values: each becomes a 24-byte `Value`, held twice while
/// columns turn into rows, plus a tuple per row — 67 times the cap as
/// measured, so this leaves a factor of two.
const ALLOC_FACTOR: usize = 128;

const CASES: u64 = 24_000;

/// Counts live heap bytes and their high-water mark.
struct Gauged;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
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

/// SplitMix64: the case stream is a function of the case number.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("x", DataType::Float),
        ("tag", DataType::Str),
    ])
    .unwrap()
}

fn tuple(rng: &mut Rng) -> Tuple {
    let x = match rng.below(4) {
        0 => Value::Null,
        1 => Value::Int(rng.next() as i64),
        _ => Value::Float(rng.below(1_000) as f64 / 8.0),
    };
    Tuple::new(vec![
        Value::Timestamp(Timestamp(rng.below(1 << 40) as i64)),
        x,
        Value::Str("s".repeat(rng.below(12))),
    ])
}

/// One valid upload: frames of `format`, end frame included, and the
/// tuples they carry.
fn valid_upload(rng: &mut Rng, format: WireFormat) -> (Vec<u8>, Vec<Tuple>) {
    let mut bytes = Vec::new();
    if format == WireFormat::Binary && rng.below(16) == 0 {
        // The densest frame the cap admits: one-byte values only, so
        // the decoded rows are as many times the wire bytes as can be.
        let arity = 1 + rng.below(4);
        let rows = (MAX_FRAME - 6) / arity;
        let tuples = vec![Tuple::new(vec![Value::Null; arity]); rows];
        bytes.extend(frame_bytes(&encode_tuple_columns_frame(&tuples)));
        bytes.extend(frame_bytes(&encode_end_frame(format)));
        return (bytes, tuples);
    }
    let tuples: Vec<Tuple> = (0..1 + rng.below(60)).map(|_| tuple(rng)).collect();
    let mut rest = &tuples[..];
    while !rest.is_empty() {
        let take = (1 + rng.below(24)).min(rest.len());
        let (run, tail) = rest.split_at(take);
        rest = tail;
        if format == WireFormat::Binary && run.len() >= 2 {
            bytes.extend(frame_bytes(&encode_tuple_columns_frame(run)));
        } else {
            for t in run {
                bytes.extend(frame_bytes(&encode_tuple_frame(t, format)));
            }
        }
    }
    bytes.extend(frame_bytes(&encode_end_frame(format)));
    (bytes, tuples)
}

fn handshake_line(rng: &mut Rng) -> Vec<u8> {
    let plan = LogicalPlan::new(
        rng.next(),
        vec![vec![PolluterConfig::Standard {
            name: "null".into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Probability { p: 0.25 },
            pattern: None,
        }]],
    );
    let hs = Handshake {
        plan_inline: Some(plan),
        schema_inline: Some(schema()),
        format: Some("ndjson".into()),
        ..Handshake::default()
    };
    let mut line = serde_json::to_string(&hs).unwrap().into_bytes();
    line.push(b'\n');
    line
}

/// Damages `bytes` in one of the ways a hostile or broken peer would.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, format: WireFormat) {
    if bytes.is_empty() {
        return;
    }
    let at = rng.below(bytes.len());
    match rng.below(8) {
        // Truncation.
        0 => bytes.truncate(at),
        // Bit flips.
        1 => {
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        // A wrong tag on the first frame (binary), or a wrong first
        // byte of the first line.
        2 => bytes[0] = rng.next() as u8,
        // An inflated length prefix / `rows × arity` header: the first
        // frame's header is bytes 1..5 (length) and 5..11 (rows, arity).
        3 => {
            let field = [1usize, 5, 9][rng.below(3)];
            let huge = [u32::MAX, 1 << 31, 1 << 20, 65_535, 4_097][rng.below(5)];
            for (i, b) in huge.to_le_bytes().iter().enumerate() {
                if let Some(slot) = bytes.get_mut(field + i) {
                    *slot = *b;
                }
            }
        }
        // The same, anywhere.
        4 => {
            for (i, b) in u32::MAX.to_le_bytes().iter().enumerate() {
                if let Some(slot) = bytes.get_mut(at + i) {
                    *slot = *b;
                }
            }
        }
        // Deep nesting where a value was.
        5 => {
            let open = [b'[', b'{'][rng.below(2)];
            let depth = 1 + rng.below(2 * MAX_FRAME);
            bytes.splice(at..at, std::iter::repeat_n(open, depth));
        }
        // Random bytes spliced in.
        6 => {
            let junk: Vec<u8> = (0..1 + rng.below(64)).map(|_| rng.next() as u8).collect();
            bytes.splice(at..at, junk);
        }
        // A line that never ends / a frame that never completes.
        _ => {
            let filler = if format == WireFormat::Ndjson {
                b'9'
            } else {
                0
            };
            bytes.truncate(at);
            bytes.extend(std::iter::repeat_n(filler, 2 * MAX_FRAME));
        }
    }
}

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
    let mut worst = 0usize;
    let (mut clean, mut failed) = (0u64, 0u64);
    for case in 0..CASES {
        let mut rng = Rng(case);
        let format = [WireFormat::Binary, WireFormat::Ndjson][rng.below(2)];
        let handshake_first = rng.below(4) == 0;
        let (mut bytes, expected) = if handshake_first {
            // The handshake names its own data format; keep to NDJSON
            // data so an unmutated case is a valid conversation.
            let mut bytes = handshake_line(&mut rng);
            bytes.extend(valid_upload(&mut rng, WireFormat::Ndjson).0);
            (bytes, None)
        } else {
            let (bytes, tuples) = valid_upload(&mut rng, format);
            (bytes, Some(tuples))
        };
        let mutations = rng.below(4);
        for _ in 0..mutations {
            mutate(&mut rng, &mut bytes, format);
        }

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
