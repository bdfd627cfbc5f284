//! The seeded mutational corpus of the serve test suites: valid
//! uploads in both wire formats, optionally behind a handshake line,
//! damaged the ways a hostile or broken peer would. A case is a pure
//! function of its number, so every suite that walks the corpus sees
//! the same bytes.

// Each suite that includes this module uses its own part of it.
#![allow(dead_code)]

use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::plan::LogicalPlan;
use icewafl_serve::protocol::{encode_end_frame, encode_tuple_columns_frame, encode_tuple_frame};
use icewafl_serve::Handshake;
use icewafl_stream::net::{frame_bytes, WireFormat};
use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};

/// Frame cap of the fuzzed decoders: small, so that "a constant
/// multiple of the cap" is a tight bound and a case is cheap.
pub const MAX_FRAME: usize = 4096;

/// Cases in the corpus.
pub const CASES: u64 = 24_000;

/// SplitMix64: the case stream is a function of the case number.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

pub fn schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("x", DataType::Float),
        ("tag", DataType::Str),
    ])
    .unwrap()
}

pub fn tuple(rng: &mut Rng) -> Tuple {
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
pub fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, format: WireFormat) {
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

/// One case of the corpus.
pub struct Case {
    /// The generator, past everything the case itself drew.
    pub rng: Rng,
    /// Wire format of the data frames.
    pub format: WireFormat,
    /// Whether a handshake line precedes them.
    pub handshake_first: bool,
    /// The connection's bytes, mutations applied.
    pub bytes: Vec<u8>,
    /// How many mutations that was; 0 leaves a valid conversation.
    pub mutations: usize,
    /// The tuples an unmutated upload carries (`None` behind a
    /// handshake, whose data is always NDJSON).
    pub expected: Option<Vec<Tuple>>,
}

/// Case number `case` of the corpus.
pub fn case(case: u64) -> Case {
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
    Case {
        rng,
        format,
        handshake_first,
        bytes,
        mutations,
        expected,
    }
}
