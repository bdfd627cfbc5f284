//! The icewafl session protocol: handshake, frame tags, and the tuple
//! codecs for both wire formats.
//!
//! A session is one TCP connection:
//!
//! 1. **Handshake** — the client sends one NDJSON line (always JSON,
//!    regardless of the negotiated data format): a [`Handshake`] naming
//!    a preloaded plan (`plan`) *or* inlining a full [`LogicalPlan`]
//!    (`plan_inline`), a schema by name (`schema`: `wearable`,
//!    `airquality`) *or* inline (`schema_inline`), and the data
//!    `format` (`ndjson`, default, or `binary`).
//! 2. **Reply** — the server answers with one [`HandshakeReply`] line.
//!    `ok: false` carries the reason (unknown plan, plan does not
//!    compile against the schema, server at capacity) and closes.
//! 3. **Data** — the client streams tuple frames and finishes with an
//!    end frame; the server concurrently streams polluted stamped-tuple
//!    frames back, each as soon as the plan's watermarks release it — a
//!    client may wait for output before it sends more, or ends.
//!    Clients must read while they write: a client that does not read
//!    is throttled, not buffered, so one that writes a large stream
//!    without draining replies deadlocks itself against TCP flow
//!    control.
//! 4. **Tail** — after the end frame has flushed through the plan, the
//!    server sends one report frame (the session's [`RunReport`]) and
//!    closes. On a session failure it sends an error frame (a
//!    [`SessionErrorFrame`]) instead; the data frames before it are a
//!    prefix of what the session would have sent.
//!
//! Binary frames are `[tag: u8][len: u32 LE][payload]` (see the `TAG_*`
//! constants); NDJSON frames are objects with one non-null member
//! (`{"tuple": …}`, `{"end": true}`, `{"report": …}`, `{"error": …}`).
//! Report and error payloads are JSON in both formats — they occur once
//! per session, so compactness is irrelevant.
//!
//! # NDJSON tuple lines
//!
//! Tuple and end lines are the per-tuple traffic of an NDJSON session,
//! so they have a codec of their own: a reader over the vendored
//! `serde_json`'s pull [`Lexer`] that fills [`Value`]s directly, and a
//! writer that formats straight into the output buffer. Neither builds
//! a tree. (Handshakes, reports, errors and telemetry go through the
//! derived `serde` route.)
//!
//! **Written**, with no whitespace and nothing optional:
//!
//! ```text
//! client  {"tuple":{"values":[v,…]},"end":null}
//!         {"tuple":null,"end":true}
//! server  {"tuple":{"id":N,"tau":N,"arrival":N,"sub_stream":N,"tuple":{"values":[v,…]}},"report":null,"error":null,"telemetry":null}
//! ```
//!
//! where `N` is a decimal integer and a value `v` is `null`, `true` /
//! `false`, a decimal integer ([`Value::Int`], and [`Value::Timestamp`]
//! as epoch milliseconds), a float in its shortest form that reads back
//! to the same bits, always with a `.` or an exponent (`72.0`, `1e300`;
//! NaN and ±∞ as `null`), or a string with `"` and `\` escaped, control
//! characters as `\b` `\f` `\n` `\r` `\t` or `\u00XX`, and everything
//! else as its UTF-8.
//!
//! **Read**: any JSON text the vendored parser accepts — whitespace
//! between tokens, every escape including surrogate pairs, at most 128
//! nested arrays and objects — that is an object in which
//!
//! - keys come in any order, keys other than those above are skipped
//!   (their values held to the JSON grammar), and of a repeated key the
//!   first occurrence counts;
//! - `tuple` is `null` or, on a client line, an object whose `values`
//!   is an array of scalars; on a server line, an object with all of
//!   `id` (fits `u64`), `tau`, `arrival` (fit `i64`), `sub_stream`
//!   (fits `u32`) — integer tokens, no fraction or exponent — and
//!   `tuple` (such an object, not `null`);
//! - `end` is `null` or a boolean; `report`, `error`, `telemetry` are
//!   `null` or fit their payload types.
//!
//! A client line with a non-null `tuple` is a record, otherwise one
//! with `"end":true` ends the stream, and any other is refused. A
//! server line is its `tuple` if not `null`, else its `report`, `error`
//! or `telemetry`, in that order. An integer token that fits `i64`
//! reads as [`Value::Int`]; a larger one, or any number with a fraction
//! or exponent, as [`Value::Float`] (`1e400` is +∞). The text carries no
//! column types, so a reader that is given the session schema
//! ([`decode_client_frame_typed`]) reads an integer in a float or
//! timestamp column as that type, and one that is not
//! ([`decode_client_frame`], [`decode_server_frame`]) leaves it to
//! [`coerce_tuple`].

use icewafl_core::plan::LogicalPlan;
use icewafl_core::report::RunReport;
use icewafl_core::ReleasedRow;
use icewafl_stream::net::{NetError, NetPoll, WireFormat, WireFrame};
use icewafl_types::{
    Column, ColumnBatch, ColumnData, DataType, Schema, StampedTuple, Text, Timestamp, Tuple, Value,
};
use serde::{Deserialize, Serialize};
use serde_json::{write_float, write_i64, write_string, write_u64, JsonStr, Lexer, Token};
use std::{iter, mem};

/// Binary frame tag: client → server, one [`Tuple`] payload.
pub const TAG_TUPLE: u8 = 1;
/// Binary frame tag: client → server, end of stream (empty payload).
pub const TAG_END: u8 = 2;
/// Binary frame tag: server → client, one polluted [`StampedTuple`].
pub const TAG_STAMPED: u8 = 3;
/// Binary frame tag: server → client, the session [`RunReport`] (JSON
/// payload).
pub const TAG_REPORT: u8 = 4;
/// Binary frame tag: server → client, a [`SessionErrorFrame`] (JSON
/// payload).
pub const TAG_ERROR: u8 = 5;
/// Binary frame tag: server → client, a periodic [`TelemetryFrame`]
/// (JSON payload; telemetry sessions only).
pub const TAG_TELEMETRY: u8 = 6;
/// Binary frame tag: server → client, a batch of polluted
/// [`StampedTuple`]s in columnar layout (see [`encode_columns`]).
pub const TAG_COLUMNS: u8 = 7;
/// Binary frame tag: client → server, a batch of input [`Tuple`]s in
/// columnar layout (see [`encode_tuple_columns`]). The upload-side
/// counterpart of [`TAG_COLUMNS`]: one frame header and one decode per
/// batch instead of per tuple.
pub const TAG_TUPLE_COLUMNS: u8 = 8;

/// The first line of every session: what to run and how to talk.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct Handshake {
    /// Name of a plan preloaded from the server's `--plans-dir`.
    #[serde(default)]
    pub plan: Option<String>,
    /// A full plan shipped inline instead of a catalog name.
    #[serde(default)]
    pub plan_inline: Option<LogicalPlan>,
    /// Name of a built-in schema (`wearable`, `airquality`).
    #[serde(default)]
    pub schema: Option<String>,
    /// A schema shipped inline instead of a built-in name.
    #[serde(default)]
    pub schema_inline: Option<Schema>,
    /// Data wire format: `ndjson` (default) or `binary`.
    #[serde(default)]
    pub format: Option<String>,
    /// Session type: `pollute` (default) runs a plan over the client's
    /// tuples; `telemetry` subscribes to periodic [`TelemetryFrame`]s
    /// instead (no plan or schema required, nothing is sent upstream);
    /// `subscribe` attaches to a named shared stream (see `stream`) and
    /// receives the publisher's pre-serialized output frames.
    #[serde(default)]
    pub session: Option<String>,
    /// Shared-stream name. On a `pollute` session this *publishes*: the
    /// session's output frames are encoded once and fanned out (as
    /// shared `Arc<[u8]>` buffers) to every `subscribe` session naming
    /// the same stream. Subscribers must use the publisher's wire
    /// format. At most one live publisher per name.
    #[serde(default)]
    pub stream: Option<String>,
}

impl Handshake {
    /// The negotiated wire format, or an error naming the bad value.
    pub fn wire_format(&self) -> Result<WireFormat, String> {
        match self.format.as_deref() {
            None => Ok(WireFormat::Ndjson),
            Some(name) => WireFormat::parse(name)
                .ok_or_else(|| format!("unknown format `{name}` (expected ndjson or binary)")),
        }
    }
}

/// The server's one-line answer to a [`Handshake`].
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct HandshakeReply {
    /// Whether the session was accepted.
    pub ok: bool,
    /// Rejection reason when `ok` is false.
    #[serde(default)]
    pub error: Option<String>,
    /// Server-assigned session id (connection counter).
    #[serde(default)]
    pub session: u64,
    /// The session's kind of run (accepted sessions): `sequential` for
    /// a pollute session, `subscribe` or `telemetry` otherwise.
    #[serde(default)]
    pub strategy: Option<String>,
    /// The compiled plan's sub-stream count (accepted sessions).
    #[serde(default)]
    pub substreams: usize,
}

impl HandshakeReply {
    /// An acceptance reply.
    pub fn accepted(session: u64, strategy: String, substreams: usize) -> Self {
        HandshakeReply {
            ok: true,
            error: None,
            session,
            strategy: Some(strategy),
            substreams,
        }
    }

    /// A rejection reply with a reason.
    pub fn rejected(error: impl Into<String>) -> Self {
        HandshakeReply {
            ok: false,
            error: Some(error.into()),
            ..HandshakeReply::default()
        }
    }
}

/// The typed error a failed session sends as its final frame: which
/// stage failed, the failure kind (`panic`, `disconnect`, `fatal`, …),
/// and — for protocol failures — the transport error code
/// (`malformed`, `oversized`, `disconnected`, `io`).
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct SessionErrorFrame {
    /// Label of the failing stage (e.g. `stage/03_source`).
    #[serde(default)]
    pub stage: String,
    /// Failure kind from the poison protocol.
    #[serde(default)]
    pub kind: String,
    /// Human-readable detail.
    #[serde(default)]
    pub message: String,
    /// Transport error code when the root cause was a protocol error.
    #[serde(default)]
    pub protocol: Option<String>,
}

/// One active session as seen in a [`TelemetryFrame`]'s session table.
#[derive(Debug, Clone, Serialize, Deserialize, Default, PartialEq, Eq)]
pub struct SessionTelemetry {
    /// Server-assigned session id.
    pub id: u64,
    /// Session type: `pollute` or `telemetry`.
    pub kind: String,
    /// Wire format on this session's socket: `ndjson` or `binary`.
    #[serde(default)]
    pub format: String,
    /// Frames received from the session's client so far.
    #[serde(default)]
    pub frames_in: u64,
    /// Frames written to the session's client so far.
    #[serde(default)]
    pub frames_out: u64,
    /// Bytes written to the session's client so far (framing included).
    #[serde(default)]
    pub bytes_out: u64,
    /// Sampled (1-in-64) nanoseconds the session spent encoding output
    /// frames.
    #[serde(default)]
    pub encode_ns: u64,
    /// Sampled (1-in-64) nanoseconds the session spent blocked writing
    /// to its socket.
    #[serde(default)]
    pub blocked_write_ns: u64,
    /// Most bytes the server has held of this session's input at one
    /// time, read but not yet decoded.
    #[serde(default)]
    pub input_hwm_bytes: u64,
    /// Most rows the session's plan had released at one time that the
    /// server had not yet encoded.
    #[serde(default)]
    pub queued_hwm_rows: u64,
    /// Most encoded bytes queued for this session's socket at one time.
    #[serde(default)]
    pub outbox_hwm_bytes: u64,
}

/// One periodic frame streamed to a `telemetry` session: the latest
/// registry delta produced by the server's
/// [`TelemetrySampler`](icewafl_obs::TelemetrySampler) plus a table of
/// the currently active sessions with their live transfer counters.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct TelemetryFrame {
    /// Monotonic frame number within this telemetry session, from 1.
    pub seq: u64,
    /// Milliseconds since the server started.
    pub at_ms: u64,
    /// The server's sampling interval, in milliseconds.
    pub interval_ms: u64,
    /// The newest registry delta, if the sampler has ticked since the
    /// last frame (absent when no tick landed in this interval).
    #[serde(default)]
    pub delta: Option<icewafl_obs::MetricsDelta>,
    /// Currently active sessions, ordered by id.
    #[serde(default)]
    pub sessions: Vec<SessionTelemetry>,
}

/// One NDJSON line in the client → server direction, as the derived
/// route wrote it: the reference the line writer is tested against.
#[cfg(test)]
#[derive(Serialize)]
struct ClientLine {
    tuple: Option<Tuple>,
    end: Option<bool>,
}

/// One NDJSON line in the server → client direction. Production code
/// writes report, error and telemetry lines through it (once per
/// session, or per telemetry interval); tuple lines go through the line
/// codec, whose writer the tests compare with this.
#[derive(Serialize, Default)]
struct ServerLine {
    tuple: Option<StampedTuple>,
    report: Option<RunReport>,
    error: Option<SessionErrorFrame>,
    telemetry: Option<TelemetryFrame>,
}

/// What the client sees in one server frame.
#[derive(Debug)]
pub enum ServerEvent {
    /// One polluted tuple.
    Tuple(StampedTuple),
    /// A batch of polluted tuples from one columnar frame (binary
    /// sessions only; NDJSON sessions always stream per-tuple lines).
    Batch(Vec<StampedTuple>),
    /// The final session report — the stream completed.
    Report(Box<RunReport>),
    /// The session failed with a typed error.
    Error(SessionErrorFrame),
    /// One periodic telemetry frame (telemetry sessions only).
    Telemetry(Box<TelemetryFrame>),
}

/// Restores schema types the untagged NDJSON value encoding cannot
/// express: a JSON integer reads as [`Value::Int`] even when the column
/// is a timestamp or float, so whoever decoded a line without the
/// session schema ([`decode_client_frame`], [`decode_server_frame`])
/// types the tuple against it afterwards, in place. Values already of
/// the right type (and `Null`, a member of every domain) pass through;
/// columns beyond the schema's arity are left for downstream
/// validation. The binary codec is typed and never needs this.
pub fn coerce_tuple(schema: &Schema, mut tuple: Tuple) -> Tuple {
    for (value, field) in tuple.values_mut().iter_mut().zip(schema.fields()) {
        if let Value::Int(n) = *value {
            match field.dtype {
                DataType::Float => *value = Value::Float(n as f64),
                DataType::Timestamp => *value = Value::Timestamp(Timestamp(n)),
                _ => {}
            }
        }
    }
    tuple
}

// ---------------------------------------------------------------------
// Binary value/tuple codec
// ---------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_TIMESTAMP: u8 = 5;

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(b) => out.extend_from_slice(&[VAL_BOOL, u8::from(*b)]),
        Value::Int(i) => put_word(out, VAL_INT, i.to_le_bytes()),
        Value::Float(f) => put_word(out, VAL_FLOAT, f.to_bits().to_le_bytes()),
        Value::Str(s) => put_str(out, s),
        Value::Timestamp(t) => put_word(out, VAL_TIMESTAMP, t.0.to_le_bytes()),
    }
}

/// A tag and its eight-byte value, in one append.
#[inline]
fn put_word(out: &mut Vec<u8>, tag: u8, word: [u8; 8]) {
    let mut cell = [tag; 9];
    cell[1..].copy_from_slice(&word);
    out.extend_from_slice(&cell);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = (s.len() as u32).to_le_bytes();
    out.extend_from_slice(&[VAL_STR, len[0], len[1], len[2], len[3]]);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over a binary payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| NetError::malformed("payload truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, NetError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bytes not yet taken.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), NetError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::malformed("trailing bytes after payload"))
        }
    }
}

/// Reads one tagged value; `text` turns a string's bytes into its
/// [`Text`].
fn get_value(
    d: &mut Dec<'_>,
    text: impl FnOnce(&[u8]) -> Result<Text, NetError>,
) -> Result<Value, NetError> {
    Ok(match d.u8()? {
        VAL_NULL => Value::Null,
        VAL_BOOL => Value::Bool(d.u8()? != 0),
        VAL_INT => Value::Int(d.i64()?),
        VAL_FLOAT => Value::Float(f64::from_bits(d.u64()?)),
        VAL_STR => {
            let len = d.u32()? as usize;
            Value::Str(text(d.take(len)?)?)
        }
        VAL_TIMESTAMP => Value::Timestamp(Timestamp(d.i64()?)),
        tag => return Err(NetError::malformed(format!("unknown value tag {tag}"))),
    })
}

/// A string value's text, built from its wire bytes.
fn text_of(bytes: &[u8]) -> Result<Text, NetError> {
    std::str::from_utf8(bytes)
        .map(Text::from)
        .map_err(|_| NetError::malformed("string value is not valid UTF-8"))
}

/// How many distinct strings one column of a columnar frame shares.
const SHARED_TEXTS: usize = 32;

/// The texts one column of a columnar frame has handed out: the first
/// [`SHARED_TEXTS`] distinct byte strings it met. A cell that repeats
/// one gets a clone of its text, so a categorical column costs one
/// allocation per category per frame, not one per cell. They are found
/// by a hash of their bytes, open-addressed in a table twice their
/// number, so a lookup compares about one string whatever the number
/// of categories.
struct SharedTexts {
    texts: Vec<Text>,
    /// Index into `texts` plus one, `0` for an empty slot.
    slots: [u8; 2 * SHARED_TEXTS],
}

impl SharedTexts {
    fn new() -> Self {
        SharedTexts {
            texts: Vec::with_capacity(SHARED_TEXTS),
            slots: [0; 2 * SHARED_TEXTS],
        }
    }

    /// Forgets every text: the next column shares its own.
    fn clear(&mut self) {
        self.texts.clear();
        self.slots = [0; 2 * SHARED_TEXTS];
    }

    fn text(&mut self, bytes: &[u8]) -> Result<Text, NetError> {
        // FNV-1a.
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let mut slot = hash as usize % self.slots.len();
        // At most half the slots are taken, so a probe ends at an
        // empty one.
        while let Some(k) = self.slots[slot].checked_sub(1) {
            let text = &self.texts[k as usize];
            if text.as_bytes() == bytes {
                return Ok(text.clone());
            }
            slot = (slot + 1) % self.slots.len();
        }
        let text = text_of(bytes)?;
        if self.texts.len() < SHARED_TEXTS {
            self.texts.push(text.clone());
            self.slots[slot] = self.texts.len() as u8;
        }
        Ok(text)
    }

    /// Reads one column's values into `cells`, in order, sharing its
    /// repeated strings.
    fn column<'c>(
        &mut self,
        d: &mut Dec<'_>,
        cells: impl Iterator<Item = &'c mut Value>,
    ) -> Result<(), NetError> {
        self.clear();
        for cell in cells {
            *cell = get_value(d, |bytes| self.text(bytes))?;
        }
        Ok(())
    }
}

/// Reads the `rows` × `arity` values of a column-major payload into
/// row-major cells.
fn get_cells(d: &mut Dec<'_>, rows: usize, arity: usize) -> Result<Vec<Value>, NetError> {
    let mut cells: Vec<Value> = iter::repeat_n(Value::Null, rows * arity).collect();
    let mut texts = SharedTexts::new();
    for col in 0..arity {
        texts.column(d, cells.iter_mut().skip(col).step_by(arity))?;
    }
    Ok(cells)
}

/// Row `row` of row-major `cells`, moved into a tuple.
fn take_row(cells: &mut [Value], row: usize, arity: usize) -> Tuple {
    cells[row * arity..(row + 1) * arity]
        .iter_mut()
        .map(mem::take)
        .collect()
}

/// A value of a polluted batch, as [`put_value`] writes the value it
/// reads as.
fn put_cell(out: &mut Vec<u8>, column: &Column, row: usize) {
    if !column.is_valid(row) {
        out.push(VAL_NULL);
        return;
    }
    match column.data() {
        ColumnData::Bool(v) => out.extend_from_slice(&[VAL_BOOL, u8::from(v[row])]),
        ColumnData::Int(v) => put_word(out, VAL_INT, v[row].to_le_bytes()),
        ColumnData::Float(v) => put_word(out, VAL_FLOAT, v[row].to_bits().to_le_bytes()),
        ColumnData::Str(v) => put_str(out, &v[row]),
        ColumnData::Timestamp(v) => put_word(out, VAL_TIMESTAMP, v[row].to_le_bytes()),
    }
}

/// A polluted row an output frame is encoded from: a stamped tuple, or
/// a row a session released, which may live in a column buffer. Both
/// encode to the same bytes.
trait OutputRow {
    /// `(id, tau, arrival, sub_stream)`.
    fn stamp(&self) -> (u64, Timestamp, Timestamp, u32);
    fn arity(&self) -> usize;
    fn put_value(&self, out: &mut Vec<u8>, col: usize);
}

impl OutputRow for StampedTuple {
    fn stamp(&self) -> (u64, Timestamp, Timestamp, u32) {
        (self.id, self.tau, self.arrival, self.sub_stream)
    }

    fn arity(&self) -> usize {
        self.tuple.len()
    }

    fn put_value(&self, out: &mut Vec<u8>, col: usize) {
        put_value(out, &self.tuple.values()[col]);
    }
}

impl OutputRow for ReleasedRow<'_> {
    fn stamp(&self) -> (u64, Timestamp, Timestamp, u32) {
        match self {
            ReleasedRow::Column(batch, row) => batch.stamp(*row),
            ReleasedRow::Tuple(t) => t.stamp(),
        }
    }

    fn arity(&self) -> usize {
        ReleasedRow::arity(self)
    }

    fn put_value(&self, out: &mut Vec<u8>, col: usize) {
        match self {
            ReleasedRow::Column(batch, row) => put_cell(out, batch.column(col), *row),
            ReleasedRow::Tuple(t) => t.put_value(out, col),
        }
    }
}

/// The stamped-tuple payload of one row (see [`encode_stamped`]).
fn put_stamped<R: OutputRow>(out: &mut Vec<u8>, row: &R) {
    let (id, tau, arrival, sub_stream) = row.stamp();
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&tau.0.to_le_bytes());
    out.extend_from_slice(&arrival.0.to_le_bytes());
    out.extend_from_slice(&sub_stream.to_le_bytes());
    let arity = row.arity();
    out.extend_from_slice(&(arity as u16).to_le_bytes());
    for col in 0..arity {
        row.put_value(out, col);
    }
}

/// The columnar payload of rows that share one arity (see
/// [`encode_columns`]).
fn put_columns<R: OutputRow>(out: &mut Vec<u8>, rows: &[R]) {
    let arity = rows.first().map_or(0, R::arity);
    // Stamps and every value at its widest but strings.
    out.reserve(6 + rows.len() * (28 + 9 * arity));
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    let stamps: Vec<_> = rows.iter().map(R::stamp).collect();
    for (id, ..) in &stamps {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for (_, tau, ..) in &stamps {
        out.extend_from_slice(&tau.0.to_le_bytes());
    }
    for (_, _, arrival, _) in &stamps {
        out.extend_from_slice(&arrival.0.to_le_bytes());
    }
    for (.., sub_stream) in &stamps {
        out.extend_from_slice(&sub_stream.to_le_bytes());
    }
    out.extend_from_slice(&(arity as u16).to_le_bytes());
    for col in 0..arity {
        for r in rows {
            r.put_value(out, col);
        }
    }
}

/// Splits `items` into runs of at most `max` consecutive items of one
/// arity — what a columnar frame holds, since it states one arity.
pub(crate) fn arity_runs<T>(
    items: &[T],
    max: usize,
    arity: impl Fn(&T) -> usize,
) -> impl Iterator<Item = &[T]> {
    let mut rest = items;
    iter::from_fn(move || {
        let first = arity(rest.first()?);
        let len = rest
            .iter()
            .take(max)
            .take_while(|item| arity(item) == first)
            .count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// Appends the binary frames of one chunk a session released to
/// `out`, framing included, encoded from where its rows live: one frame
/// per run of rows of equal arity, [`TAG_COLUMNS`] for a run of two or
/// more and [`TAG_STAMPED`] for a single row. Returns how many frames
/// it wrote. A chunk of one arity is one frame, the bytes of
/// [`encode_columns_frame`] or [`encode_stamped_frame`] for its rows as
/// tuples.
pub fn encode_released_frames(out: &mut Vec<u8>, chunk: &[ReleasedRow<'_>]) -> u64 {
    let mut frames = 0;
    for run in arity_runs(chunk, usize::MAX, ReleasedRow::arity) {
        let columns = run.len() >= 2;
        out.push(if columns { TAG_COLUMNS } else { TAG_STAMPED });
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);
        if columns {
            put_columns(out, run);
        } else {
            put_stamped(out, &run[0]);
        }
        let payload = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&payload.to_le_bytes());
        frames += 1;
    }
    frames
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    out.extend_from_slice(&(t.values().len() as u16).to_le_bytes());
    for v in t.values() {
        put_value(out, v);
    }
}

fn get_tuple(d: &mut Dec<'_>) -> Result<Tuple, NetError> {
    let arity = d.u16()? as usize;
    // Bound the allocation by what the payload could actually hold:
    // every value is at least its tag byte.
    if arity > d.remaining() {
        return Err(NetError::malformed("tuple arity exceeds payload"));
    }
    let mut tuple: Tuple = iter::repeat_n(Value::Null, arity).collect();
    for slot in tuple.values_mut() {
        *slot = get_value(d, text_of)?;
    }
    Ok(tuple)
}

/// Encodes a [`Tuple`] as a binary payload (`u16` arity, then tagged
/// values).
pub fn encode_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + t.values().len() * 9);
    put_tuple(&mut out, t);
    out
}

/// Decodes a binary [`Tuple`] payload, rejecting trailing garbage.
pub fn decode_tuple(buf: &[u8]) -> Result<Tuple, NetError> {
    let mut d = Dec::new(buf);
    let t = get_tuple(&mut d)?;
    d.finish()?;
    Ok(t)
}

/// Encodes a [`StampedTuple`] as a binary payload (`id`, `tau`,
/// `arrival`, `sub_stream`, then the tuple).
pub fn encode_stamped(t: &StampedTuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(30 + t.tuple.values().len() * 9);
    put_stamped(&mut out, t);
    out
}

/// Decodes a binary [`StampedTuple`] payload, rejecting trailing
/// garbage.
pub fn decode_stamped(buf: &[u8]) -> Result<StampedTuple, NetError> {
    let mut d = Dec::new(buf);
    let id = d.u64()?;
    let tau = Timestamp(d.i64()?);
    let arrival = Timestamp(d.i64()?);
    let sub_stream = d.u32()?;
    let tuple = get_tuple(&mut d)?;
    d.finish()?;
    let mut t = StampedTuple::new(id, tau, tuple);
    t.arrival = arrival;
    t.sub_stream = sub_stream;
    Ok(t)
}

/// Encodes a batch of [`StampedTuple`]s as one columnar binary payload:
/// `u32` row count, the four stamp fields as contiguous arrays (`id`,
/// `tau`, `arrival`, `sub_stream`), a `u16` arity, then tagged values
/// column-major (`values[col][row]`). The column-major layout lets a
/// lowered session serialize each output column in one pass, and packs
/// same-typed tags together.
///
/// # Panics
///
/// If the tuples do not all have one arity: the payload states one. A
/// server cuts a unit of mixed arity into one frame per run of equal
/// arity instead.
pub fn encode_columns(batch: &[StampedTuple]) -> Vec<u8> {
    let rows = batch.len();
    let arity = batch.first().map_or(0, |t| t.tuple.values().len());
    assert!(
        batch.iter().all(|t| t.tuple.values().len() == arity),
        "columnar frames require a uniform arity"
    );
    let mut out = Vec::with_capacity(4 + rows * 28 + 2 + rows * arity * 9);
    put_columns(&mut out, batch);
    out
}

/// Decodes a columnar binary payload back into row-major
/// [`StampedTuple`]s, rejecting trailing garbage.
pub fn decode_columns(buf: &[u8]) -> Result<Vec<StampedTuple>, NetError> {
    let mut d = Dec::new(buf);
    let rows = d.u32()? as usize;
    // Bound the allocation by what the payload could actually hold:
    // each row needs at least the 28 stamp bytes.
    if rows.saturating_mul(28) > buf.len() {
        return Err(NetError::malformed("columnar row count exceeds payload"));
    }
    let mut ids = Vec::with_capacity(rows);
    for _ in 0..rows {
        ids.push(d.u64()?);
    }
    let mut taus = Vec::with_capacity(rows);
    for _ in 0..rows {
        taus.push(d.i64()?);
    }
    let mut arrivals = Vec::with_capacity(rows);
    for _ in 0..rows {
        arrivals.push(d.i64()?);
    }
    let mut sub_streams = Vec::with_capacity(rows);
    for _ in 0..rows {
        sub_streams.push(d.u32()?);
    }
    let arity = d.u16()? as usize;
    // Every value is at least its tag byte.
    if rows.saturating_mul(arity) > d.remaining() {
        return Err(NetError::malformed("columnar values exceed payload"));
    }
    let mut cells = get_cells(&mut d, rows, arity)?;
    d.finish()?;
    let batch = (0..rows)
        .map(|row| {
            let values = take_row(&mut cells, row, arity);
            let mut t = StampedTuple::new(ids[row], Timestamp(taus[row]), values);
            t.arrival = Timestamp(arrivals[row]);
            t.sub_stream = sub_streams[row];
            t
        })
        .collect();
    Ok(batch)
}

/// Encodes a batch of input [`Tuple`]s as one columnar binary payload:
/// `u32` row count, `u16` arity, then tagged values column-major. The
/// client-upload mirror of [`encode_columns`] minus the stamp arrays
/// (inputs are unstamped). Every row must share the batch's arity;
/// callers chunk on arity boundaries.
pub fn encode_tuple_columns(batch: &[Tuple]) -> Vec<u8> {
    let rows = batch.len();
    let arity = batch.first().map_or(0, |t| t.values().len());
    debug_assert!(
        batch.iter().all(|t| t.values().len() == arity),
        "columnar upload frames require a uniform arity"
    );
    let mut out = Vec::with_capacity(6 + rows * arity * 9);
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(arity as u16).to_le_bytes());
    for col in 0..arity {
        for t in batch {
            put_value(&mut out, &t.values()[col]);
        }
    }
    out
}

/// Decodes a columnar upload payload back into row-major [`Tuple`]s,
/// rejecting trailing garbage.
pub fn decode_tuple_columns(buf: &[u8]) -> Result<Vec<Tuple>, NetError> {
    let mut d = Dec::new(buf);
    let rows = d.u32()? as usize;
    let arity = d.u16()? as usize;
    // Bound the allocation by what the payload could actually hold:
    // every value is at least one tag byte (arity 0 still caps rows at
    // the payload length).
    if rows.saturating_mul(arity.max(1)) > buf.len() {
        return Err(NetError::malformed("columnar row count exceeds payload"));
    }
    let mut cells = get_cells(&mut d, rows, arity)?;
    d.finish()?;
    Ok((0..rows)
        .map(|row| take_row(&mut cells, row, arity))
        .collect())
}

/// Decodes a columnar upload payload straight into a [`ColumnBatch`]
/// typed by `schema`, with every row's stamps zero (for a column
/// session to assign), and repeated strings shared as
/// [`decode_tuple_columns`] shares them. Declines — `Ok(None)` — when
/// the payload's arity is not the schema's or a value is neither NULL
/// nor of its column's type (binary values are never coerced); the
/// payload then reads as rows through [`decode_tuple_columns`]. A
/// payload that one rejects the other rejects with the same error, up
/// to the value where it declines.
pub fn decode_column_batch(buf: &[u8], schema: &Schema) -> Result<Option<ColumnBatch>, NetError> {
    let mut d = Dec::new(buf);
    let rows = d.u32()? as usize;
    let arity = d.u16()? as usize;
    // The bound `decode_tuple_columns` checks.
    if rows.saturating_mul(arity.max(1)) > buf.len() {
        return Err(NetError::malformed("columnar row count exceeds payload"));
    }
    if arity != schema.len() {
        return Ok(None);
    }
    let mut columns = Vec::with_capacity(arity);
    let mut texts = SharedTexts::new();
    for field in schema.fields() {
        let column = match field.dtype {
            DataType::Bool => get_column(
                &mut d,
                rows,
                VAL_BOOL,
                |d| Ok(d.u8()? != 0),
                ColumnData::Bool,
            )?,
            DataType::Int => get_column(&mut d, rows, VAL_INT, Dec::i64, ColumnData::Int)?,
            DataType::Float => get_column(
                &mut d,
                rows,
                VAL_FLOAT,
                |d| Ok(f64::from_bits(d.u64()?)),
                ColumnData::Float,
            )?,
            DataType::Str => {
                texts.clear();
                get_column(
                    &mut d,
                    rows,
                    VAL_STR,
                    |d| {
                        let len = d.u32()? as usize;
                        texts.text(d.take(len)?)
                    },
                    ColumnData::Str,
                )?
            }
            DataType::Timestamp => {
                get_column(&mut d, rows, VAL_TIMESTAMP, Dec::i64, ColumnData::Timestamp)?
            }
        };
        match column {
            Some(column) => columns.push(column),
            None => return Ok(None),
        }
    }
    d.finish()?;
    Ok(Some(ColumnBatch::from_columns(columns)))
}

/// Reads one column of `rows` values that are NULL or carry value tag
/// `tag`, whose payload `read` reads; `Ok(None)` at the first value of
/// another type. NULL slots hold the type's default value.
fn get_column<'a, T: Default>(
    d: &mut Dec<'a>,
    rows: usize,
    tag: u8,
    mut read: impl FnMut(&mut Dec<'a>) -> Result<T, NetError>,
    data: impl FnOnce(Vec<T>) -> ColumnData,
) -> Result<Option<Column>, NetError> {
    let mut values = Vec::with_capacity(rows);
    let mut validity = vec![0u64; rows.div_ceil(64)];
    for row in 0..rows {
        match d.u8()? {
            VAL_NULL => values.push(T::default()),
            t if t == tag => {
                values.push(read(d)?);
                validity[row / 64] |= 1 << (row % 64);
            }
            VAL_BOOL..=VAL_TIMESTAMP => return Ok(None),
            t => return Err(NetError::malformed(format!("unknown value tag {t}"))),
        }
    }
    Ok(Some(Column::from_parts(data(values), validity)))
}

// ---------------------------------------------------------------------
// NDJSON tuple-line codec
// ---------------------------------------------------------------------

/// Why a line was refused: the lexer's error, or a shape the line
/// grammar does not have.
struct LineError(String);

impl From<serde_json::Error> for LineError {
    fn from(e: serde_json::Error) -> Self {
        LineError(e.to_string())
    }
}

fn shape<T>(what: &str) -> Result<T, LineError> {
    Err(LineError(what.to_string()))
}

/// Reads the members of a `{"values":[…]}` object whose opener the
/// caller has read. With a schema, an integer in a float or timestamp
/// column becomes that type here (what [`coerce_tuple`] does after the
/// fact).
fn read_tuple(lx: &mut Lexer<'_>, schema: Option<&Schema>) -> Result<Tuple, LineError> {
    let mut values = None;
    while let Some(key) = lx.key()? {
        if key == "values" && values.is_none() {
            values = Some(read_values(lx, schema)?);
        } else {
            lx.skip_value()?;
        }
    }
    match values {
        Some(values) => Ok(values),
        None => shape("tuple object has no `values`"),
    }
}

/// Reads a `values` array into a tuple allocated once, at the line's
/// arity: the schema's width, or what a look-ahead over the array
/// counts. A typed line of another arity than its schema's is rebuilt
/// at its own.
fn read_values(lx: &mut Lexer<'_>, schema: Option<&Schema>) -> Result<Tuple, LineError> {
    if !matches!(lx.value()?, Token::ArrayStart) {
        return shape("`values` is not an array");
    }
    let arity = schema.map_or_else(|| count_elements(lx.rest()), Schema::len);
    let mut tuple: Tuple = iter::repeat_n(Value::Null, arity).collect();
    let slots = tuple.values_mut();
    let mut beyond = Vec::new();
    let mut read = 0;
    while lx.element()? {
        let dtype = schema
            .and_then(|schema| schema.field(read))
            .map(|field| field.dtype);
        let value = read_value(lx, dtype)?;
        match slots.get_mut(read) {
            Some(slot) => *slot = value,
            None => beyond.push(value),
        }
        read += 1;
    }
    if read != arity {
        let mut values = tuple.into_values();
        values.truncate(read);
        values.extend(beyond);
        tuple = Tuple::new(values);
    }
    Ok(tuple)
}

/// Reads one element of a `values` array. With the column's type, an
/// integer in a float or timestamp column becomes that type.
fn read_value(lx: &mut Lexer<'_>, dtype: Option<DataType>) -> Result<Value, LineError> {
    if let Some(s) = lx.str_value()? {
        return Ok(Value::Str(json_text(&s)));
    }
    Ok(match (lx.value()?, dtype) {
        (Token::Null, _) => Value::Null,
        (Token::Bool(b), _) => Value::Bool(b),
        (Token::I64(n), Some(DataType::Float)) => Value::Float(n as f64),
        (Token::I64(n), Some(DataType::Timestamp)) => Value::Timestamp(Timestamp(n)),
        (Token::I64(n), _) => Value::Int(n),
        // Past `i64::MAX` the untagged encoding's next fit is a float.
        (Token::U64(n), _) => Value::Float(n as f64),
        (Token::F64(f), _) => Value::Float(f),
        (Token::Str(_), _) => unreachable!("`str_value` reads every string"),
        (Token::ArrayStart | Token::ObjectStart, _) => {
            return shape("a tuple value is an array or object")
        }
    })
}

/// A string value's text: a copy of its input slice, or, with escapes,
/// decoded straight into a text of its exact decoded length.
fn json_text(s: &JsonStr<'_>) -> Text {
    match s.plain() {
        Some(plain) => Text::from(plain),
        None => Text::fill_utf8(s.len(), |bytes| s.decode_into(bytes))
            .expect("a JSON string decodes to UTF-8"),
    }
}

/// How many elements the array whose `[` was just read holds, by a
/// scan of its bytes that steps over strings and nested containers:
/// exact for a well-formed array; for a malformed one only a size hint,
/// and the read that follows reports the error.
fn count_elements(rest: &str) -> usize {
    let mut bytes = rest.bytes();
    let (mut depth, mut commas, mut any) = (0usize, 0, false);
    while let Some(b) = bytes.next() {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => continue,
            b'"' => {
                while let Some(b) = bytes.next() {
                    match b {
                        b'\\' => {
                            bytes.next();
                        }
                        b'"' => break,
                        _ => {}
                    }
                }
            }
            b'[' | b'{' => depth += 1,
            b']' | b'}' if depth == 0 => break,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => commas += 1,
            _ => {}
        }
        any = true;
    }
    if any {
        commas + 1
    } else {
        0
    }
}

fn read_i64(lx: &mut Lexer<'_>) -> Result<i64, LineError> {
    match lx.value()? {
        Token::I64(i) => Ok(i),
        _ => shape("expected an integer that fits i64"),
    }
}

/// Reads the members of a stamped-tuple object whose opener the caller
/// has read; all five fields are required.
fn read_stamped(lx: &mut Lexer<'_>) -> Result<StampedTuple, LineError> {
    let (mut id, mut tau, mut arrival, mut sub_stream, mut tuple) = (None, None, None, None, None);
    while let Some(key) = lx.key()? {
        match &*key {
            "id" if id.is_none() => {
                id = Some(match lx.value()? {
                    Token::I64(i) if i >= 0 => i as u64,
                    Token::U64(u) => u,
                    _ => return shape("`id` is not an unsigned integer"),
                });
            }
            "tau" if tau.is_none() => tau = Some(Timestamp(read_i64(lx)?)),
            "arrival" if arrival.is_none() => arrival = Some(Timestamp(read_i64(lx)?)),
            "sub_stream" if sub_stream.is_none() => {
                let Ok(n) = u32::try_from(read_i64(lx)?) else {
                    return shape("`sub_stream` is out of range for u32");
                };
                sub_stream = Some(n);
            }
            "tuple" if tuple.is_none() => {
                if !matches!(lx.value()?, Token::ObjectStart) {
                    return shape("a stamped tuple's `tuple` is not an object");
                }
                tuple = Some(read_tuple(lx, None)?);
            }
            _ => lx.skip_value()?,
        }
    }
    match (id, tau, arrival, sub_stream, tuple) {
        (Some(id), Some(tau), Some(arrival), Some(sub_stream), Some(tuple)) => Ok(StampedTuple {
            id,
            tau,
            arrival,
            sub_stream,
            tuple,
        }),
        _ => shape("stamped tuple lacks one of id, tau, arrival, sub_stream, tuple"),
    }
}

/// Reads one client → server line (grammar in the module docs).
fn read_client_line(line: &str, schema: Option<&Schema>) -> Result<NetPoll<Tuple>, LineError> {
    let mut lx = Lexer::new(line);
    if !matches!(lx.value()?, Token::ObjectStart) {
        return shape("a line is one JSON object");
    }
    // Outer `Some`: the key has been seen — its first occurrence counts.
    let (mut tuple, mut end) = (None, None);
    while let Some(key) = lx.key()? {
        match &*key {
            "tuple" if tuple.is_none() => {
                tuple = Some(match lx.value()? {
                    Token::Null => None,
                    Token::ObjectStart => Some(read_tuple(&mut lx, schema)?),
                    _ => return shape("`tuple` is neither null nor an object"),
                });
            }
            "end" if end.is_none() => {
                end = Some(match lx.value()? {
                    Token::Null => None,
                    Token::Bool(b) => Some(b),
                    _ => return shape("`end` is neither null nor a boolean"),
                });
            }
            _ => lx.skip_value()?,
        }
    }
    lx.finish()?;
    match (tuple.flatten(), end.flatten()) {
        (Some(t), _) => Ok(NetPoll::Record(t)),
        (None, Some(true)) => Ok(NetPoll::End),
        _ => shape("client line carries neither a tuple nor an end marker"),
    }
}

/// The value of a `report`, `error` or `telemetry` key: `null`, or a
/// payload read the derived way from its span of the line — these come
/// once per session (or per telemetry interval), not per tuple.
fn read_payload<T: Deserialize>(lx: &mut Lexer<'_>, line: &str) -> Result<Option<T>, LineError> {
    let from = lx.offset();
    lx.skip_value()?;
    Ok(serde_json::from_str(&line[from..lx.offset()])?)
}

/// Reads one server → client line (grammar in the module docs).
fn read_server_line(line: &str) -> Result<ServerEvent, LineError> {
    let mut lx = Lexer::new(line);
    if !matches!(lx.value()?, Token::ObjectStart) {
        return shape("a line is one JSON object");
    }
    // Outer `Some`: the key has been seen — its first occurrence counts.
    let (mut tuple, mut report, mut error, mut telemetry) = (None, None, None, None);
    while let Some(key) = lx.key()? {
        match &*key {
            "tuple" if tuple.is_none() => {
                tuple = Some(match lx.value()? {
                    Token::Null => None,
                    Token::ObjectStart => Some(read_stamped(&mut lx)?),
                    _ => return shape("`tuple` is neither null nor an object"),
                });
            }
            "report" if report.is_none() => {
                report = Some(read_payload::<RunReport>(&mut lx, line)?);
            }
            "error" if error.is_none() => {
                error = Some(read_payload::<SessionErrorFrame>(&mut lx, line)?);
            }
            "telemetry" if telemetry.is_none() => {
                telemetry = Some(read_payload::<TelemetryFrame>(&mut lx, line)?);
            }
            _ => lx.skip_value()?,
        }
    }
    lx.finish()?;
    if let Some(t) = tuple.flatten() {
        Ok(ServerEvent::Tuple(t))
    } else if let Some(r) = report.flatten() {
        Ok(ServerEvent::Report(Box::new(r)))
    } else if let Some(e) = error.flatten() {
        Ok(ServerEvent::Error(e))
    } else if let Some(f) = telemetry.flatten() {
        Ok(ServerEvent::Telemetry(Box::new(f)))
    } else {
        shape("server line carries neither tuple, report, error, nor telemetry")
    }
}

fn write_tuple(t: &Tuple, out: &mut String) {
    out.push_str("{\"values\":[");
    for (i, v) in t.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => write_i64(*n, out),
            Value::Float(f) => write_float(*f, out),
            Value::Str(s) => write_string(s, out),
            Value::Timestamp(t) => write_i64(t.0, out),
        }
    }
    out.push_str("]}");
}

/// Buffer worth reserving for one tuple line in either direction: the
/// fixed text and stamps of the longer (server) line, a full-width
/// number per value, and the strings at their unescaped length.
pub(crate) fn line_capacity(t: &Tuple) -> usize {
    let strings: usize = t
        .values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    192 + 24 * t.len() + strings
}

/// Appends the client → server tuple line (no newline).
fn write_tuple_line(t: &Tuple, out: &mut String) {
    out.push_str("{\"tuple\":");
    write_tuple(t, out);
    out.push_str(",\"end\":null}");
}

/// The client → server end line.
const END_LINE: &str = "{\"tuple\":null,\"end\":true}";

/// Appends the server → client tuple line (no newline) — the bytes
/// [`encode_stamped_frame`] puts on an NDJSON wire.
pub(crate) fn write_stamped_line(t: &StampedTuple, out: &mut String) {
    out.push_str("{\"tuple\":{\"id\":");
    write_u64(t.id, out);
    out.push_str(",\"tau\":");
    write_i64(t.tau.0, out);
    out.push_str(",\"arrival\":");
    write_i64(t.arrival.0, out);
    out.push_str(",\"sub_stream\":");
    write_u64(u64::from(t.sub_stream), out);
    out.push_str(",\"tuple\":");
    write_tuple(&t.tuple, out);
    out.push_str("},\"report\":null,\"error\":null,\"telemetry\":null}");
}

// ---------------------------------------------------------------------
// Frame construction / interpretation
// ---------------------------------------------------------------------

fn json_line<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("protocol frames are always serializable")
}

/// Client → server: one tuple frame.
pub fn encode_tuple_frame(t: &Tuple, format: WireFormat) -> WireFrame {
    match format {
        WireFormat::Binary => WireFrame::Binary {
            tag: TAG_TUPLE,
            payload: encode_tuple(t),
        },
        WireFormat::Ndjson => {
            let mut line = String::with_capacity(line_capacity(t));
            write_tuple_line(t, &mut line);
            WireFrame::Line(line)
        }
    }
}

/// Client → server: a batch of input tuples as one columnar frame.
/// Binary only — NDJSON sessions stay line-per-tuple — and every tuple
/// in the batch must share one arity (chunk on arity boundaries).
pub fn encode_tuple_columns_frame(batch: &[Tuple]) -> WireFrame {
    WireFrame::Binary {
        tag: TAG_TUPLE_COLUMNS,
        payload: encode_tuple_columns(batch),
    }
}

/// Client → server: the end-of-stream frame.
pub fn encode_end_frame(format: WireFormat) -> WireFrame {
    match format {
        WireFormat::Binary => WireFrame::Binary {
            tag: TAG_END,
            payload: Vec::new(),
        },
        WireFormat::Ndjson => WireFrame::Line(END_LINE.to_string()),
    }
}

/// Server → client: one polluted stamped tuple.
pub fn encode_stamped_frame(t: &StampedTuple, format: WireFormat) -> WireFrame {
    match format {
        WireFormat::Binary => WireFrame::Binary {
            tag: TAG_STAMPED,
            payload: encode_stamped(t),
        },
        WireFormat::Ndjson => {
            let mut line = String::with_capacity(line_capacity(&t.tuple));
            write_stamped_line(t, &mut line);
            WireFrame::Line(line)
        }
    }
}

/// Server → client: a batch of polluted stamped tuples as one columnar
/// frame. Binary only — NDJSON sessions fall back to per-tuple
/// [`encode_stamped_frame`] lines, so callers gate on the wire format.
pub fn encode_columns_frame(batch: &[StampedTuple]) -> WireFrame {
    WireFrame::Binary {
        tag: TAG_COLUMNS,
        payload: encode_columns(batch),
    }
}

/// Server → client: the final session report.
pub fn encode_report_frame(report: &RunReport, format: WireFormat) -> WireFrame {
    match format {
        WireFormat::Binary => WireFrame::Binary {
            tag: TAG_REPORT,
            payload: json_line(report).into_bytes(),
        },
        WireFormat::Ndjson => WireFrame::Line(json_line(&ServerLine {
            report: Some(report.clone()),
            ..ServerLine::default()
        })),
    }
}

/// Server → client: the session failed with a typed error.
pub fn encode_error_frame(error: &SessionErrorFrame, format: WireFormat) -> WireFrame {
    match format {
        WireFormat::Binary => WireFrame::Binary {
            tag: TAG_ERROR,
            payload: json_line(error).into_bytes(),
        },
        WireFormat::Ndjson => WireFrame::Line(json_line(&ServerLine {
            error: Some(error.clone()),
            ..ServerLine::default()
        })),
    }
}

/// Server → client: one periodic telemetry frame.
pub fn encode_telemetry_frame(frame: &TelemetryFrame, format: WireFormat) -> WireFrame {
    match format {
        WireFormat::Binary => WireFrame::Binary {
            tag: TAG_TELEMETRY,
            payload: json_line(frame).into_bytes(),
        },
        WireFormat::Ndjson => WireFrame::Line(json_line(&ServerLine {
            telemetry: Some(frame.clone()),
            ..ServerLine::default()
        })),
    }
}

/// Server side: interprets one client frame as a record or the end
/// marker. Anything else — unknown tag, undecodable payload, a
/// server-direction frame — is [`NetError::Malformed`]. NDJSON values
/// come back untyped (see [`coerce_tuple`]).
pub fn decode_client_frame(frame: WireFrame) -> Result<NetPoll<Tuple>, NetError> {
    decode_client_frame_typed(frame, None)
}

/// [`decode_client_frame`] for a decoder that knows the session schema:
/// the values of an NDJSON tuple line are typed against `schema` as
/// they are read, so the tuple needs no [`coerce_tuple`] pass. Binary
/// frames are typed on the wire and ignore it.
pub fn decode_client_frame_typed(
    frame: WireFrame,
    schema: Option<&Schema>,
) -> Result<NetPoll<Tuple>, NetError> {
    match frame {
        WireFrame::Binary {
            tag: TAG_TUPLE,
            payload,
        } => Ok(NetPoll::Record(decode_tuple(&payload)?)),
        WireFrame::Binary {
            tag: TAG_TUPLE_COLUMNS,
            payload,
        } => Ok(NetPoll::Batch(decode_tuple_columns(&payload)?)),
        WireFrame::Binary { tag: TAG_END, .. } => Ok(NetPoll::End),
        WireFrame::Binary { tag, .. } => Err(NetError::malformed(format!(
            "unexpected client frame tag {tag}"
        ))),
        WireFrame::Line(line) => read_client_line(&line, schema)
            .map_err(|e| NetError::malformed(format!("bad client line: {}", e.0))),
    }
}

/// Client side: interprets one server frame.
pub fn decode_server_frame(frame: WireFrame) -> Result<ServerEvent, NetError> {
    match frame {
        WireFrame::Binary {
            tag: TAG_STAMPED,
            payload,
        } => Ok(ServerEvent::Tuple(decode_stamped(&payload)?)),
        WireFrame::Binary {
            tag: TAG_COLUMNS,
            payload,
        } => Ok(ServerEvent::Batch(decode_columns(&payload)?)),
        WireFrame::Binary {
            tag: TAG_REPORT,
            payload,
        } => {
            let json = String::from_utf8(payload)
                .map_err(|_| NetError::malformed("report payload is not UTF-8"))?;
            let report: RunReport = serde_json::from_str(&json)
                .map_err(|e| NetError::malformed(format!("bad report payload: {e}")))?;
            Ok(ServerEvent::Report(Box::new(report)))
        }
        WireFrame::Binary {
            tag: TAG_ERROR,
            payload,
        } => {
            let json = String::from_utf8(payload)
                .map_err(|_| NetError::malformed("error payload is not UTF-8"))?;
            let error: SessionErrorFrame = serde_json::from_str(&json)
                .map_err(|e| NetError::malformed(format!("bad error payload: {e}")))?;
            Ok(ServerEvent::Error(error))
        }
        WireFrame::Binary {
            tag: TAG_TELEMETRY,
            payload,
        } => {
            let json = String::from_utf8(payload)
                .map_err(|_| NetError::malformed("telemetry payload is not UTF-8"))?;
            let frame: TelemetryFrame = serde_json::from_str(&json)
                .map_err(|e| NetError::malformed(format!("bad telemetry payload: {e}")))?;
            Ok(ServerEvent::Telemetry(Box::new(frame)))
        }
        WireFrame::Binary { tag, .. } => Err(NetError::malformed(format!(
            "unexpected server frame tag {tag}"
        ))),
        WireFrame::Line(line) => read_server_line(&line)
            .map_err(|e| NetError::malformed(format!("bad server line: {}", e.0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(id: u64, values: Vec<Value>) -> StampedTuple {
        let mut t = StampedTuple::new(id, Timestamp(id as i64 * 1000), Tuple::new(values));
        t.arrival = Timestamp(id as i64 * 1000 + 5);
        t.sub_stream = (id % 3) as u32;
        t
    }

    #[test]
    fn binary_tuple_round_trip() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(3.25),
            Value::Str("hℓlo".into()),
            Value::Timestamp(Timestamp(1_700_000_000_000)),
        ]);
        assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn binary_stamped_round_trip() {
        let t = stamped(7, vec![Value::Float(1.5), Value::Str("x".into())]);
        assert_eq!(decode_stamped(&encode_stamped(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_and_trailing_payloads_are_malformed() {
        let t = stamped(1, vec![Value::Int(5)]);
        let mut bytes = encode_stamped(&t);
        bytes.pop();
        assert!(decode_stamped(&bytes).is_err(), "truncated");
        let mut bytes = encode_stamped(&t);
        bytes.push(0);
        assert!(decode_stamped(&bytes).is_err(), "trailing garbage");
        assert!(decode_tuple(&[9, 9]).is_err(), "bogus arity");
    }

    #[test]
    fn client_frames_round_trip_in_both_formats() {
        let t = Tuple::new(vec![Value::Int(1), Value::Float(2.0)]);
        for format in [WireFormat::Ndjson, WireFormat::Binary] {
            match decode_client_frame(encode_tuple_frame(&t, format)).unwrap() {
                NetPoll::Record(back) => assert_eq!(back, t),
                _ => panic!("tuple frame decoded as something else"),
            }
            assert!(matches!(
                decode_client_frame(encode_end_frame(format)).unwrap(),
                NetPoll::End
            ));
        }
    }

    #[test]
    fn line_writers_are_byte_equal_to_the_derived_structs() {
        let values = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Float(72.0),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Str("h\"ℓ\\lo\n\u{1}".into()),
            Value::Timestamp(Timestamp(-1_700_000_000_000)),
        ];
        let tuple = Tuple::new(values.clone());
        let mut line = String::new();
        write_tuple_line(&tuple, &mut line);
        assert_eq!(
            line,
            json_line(&ClientLine {
                tuple: Some(tuple.clone()),
                end: None,
            })
        );
        assert!(line.len() <= line_capacity(&tuple));
        assert_eq!(
            END_LINE,
            json_line(&ClientLine {
                tuple: None,
                end: Some(true),
            })
        );

        let mut t = stamped(u64::MAX, values);
        t.sub_stream = u32::MAX;
        let mut line = String::new();
        write_stamped_line(&t, &mut line);
        assert_eq!(
            line,
            json_line(&ServerLine {
                tuple: Some(t.clone()),
                ..ServerLine::default()
            })
        );
        assert!(line.len() <= line_capacity(&t.tuple));
    }

    #[test]
    fn element_counts_step_over_strings_and_containers() {
        for (rest, count) in [
            ("]", 0),
            (" \n ] , 5", 0),
            ("1]", 1),
            (" null , true,-2.5e3 ]", 3),
            (r#""a,]\"[", "}", 7]"#, 3),
            (r#"[1, 2], {"a": [3, 4]}, 5]}"#, 3),
        ] {
            assert_eq!(count_elements(rest), count, "{rest}");
        }
    }

    #[test]
    fn typed_decode_is_decode_then_coerce() {
        let schema = Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("x", DataType::Float),
            ("n", DataType::Int),
        ])
        .unwrap();
        // Integers everywhere, one value more than the schema has.
        let line = r#"{"tuple":{"values":[5,6,7,8]},"end":null}"#;
        let record = |decoded| match decoded {
            Ok(NetPoll::Record(t)) => t,
            _ => panic!("tuple line decoded as something else"),
        };
        let untyped = record(decode_client_frame(WireFrame::Line(line.into())));
        assert_eq!(untyped, Tuple::new((5..9).map(Value::Int).collect()));
        let typed = record(decode_client_frame_typed(
            WireFrame::Line(line.into()),
            Some(&schema),
        ));
        assert_eq!(
            typed,
            Tuple::new(vec![
                Value::Timestamp(Timestamp(5)),
                Value::Float(6.0),
                Value::Int(7),
                Value::Int(8),
            ])
        );
        assert_eq!(coerce_tuple(&schema, untyped), typed);
        // One value fewer than the schema has: the line's arity stands.
        let short = r#"{"tuple":{"values":[5,6]},"end":null}"#;
        assert_eq!(
            record(decode_client_frame_typed(
                WireFrame::Line(short.into()),
                Some(&schema),
            )),
            Tuple::new(vec![Value::Timestamp(Timestamp(5)), Value::Float(6.0)])
        );
    }

    #[test]
    fn tuple_columns_round_trip_and_reject_garbage() {
        let batch: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 1000)),
                    if i == 3 {
                        Value::Null
                    } else {
                        Value::Float(i as f64)
                    },
                    Value::Str(format!("row{i}").into()),
                ])
            })
            .collect();
        let bytes = encode_tuple_columns(&batch);
        assert_eq!(decode_tuple_columns(&bytes).unwrap(), batch);
        match decode_client_frame(encode_tuple_columns_frame(&batch)).unwrap() {
            NetPoll::Batch(back) => assert_eq!(back, batch),
            _ => panic!("columnar upload frame decoded as something else"),
        }
        // Empty batches are legal (zero rows, zero arity).
        assert_eq!(
            decode_tuple_columns(&encode_tuple_columns(&[])).unwrap(),
            Vec::<Tuple>::new()
        );

        let mut truncated = encode_tuple_columns(&batch);
        truncated.pop();
        assert!(decode_tuple_columns(&truncated).is_err(), "truncated");
        let mut trailing = encode_tuple_columns(&batch);
        trailing.push(0);
        assert!(decode_tuple_columns(&trailing).is_err(), "trailing garbage");
        // A row count far beyond the payload must be rejected before
        // any allocation sized by it.
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&u32::MAX.to_le_bytes());
        bogus.extend_from_slice(&1u16.to_le_bytes());
        assert!(decode_tuple_columns(&bogus).is_err(), "bogus row count");
    }

    #[test]
    fn server_frames_round_trip_in_both_formats() {
        let t = stamped(3, vec![Value::Float(9.5)]);
        for format in [WireFormat::Ndjson, WireFormat::Binary] {
            match decode_server_frame(encode_stamped_frame(&t, format)).unwrap() {
                ServerEvent::Tuple(back) => assert_eq!(back, t),
                other => panic!("stamped frame decoded as {other:?}"),
            }
            let report = RunReport {
                tuples_in: 10,
                tuples_out: 12,
                ..RunReport::default()
            };
            match decode_server_frame(encode_report_frame(&report, format)).unwrap() {
                ServerEvent::Report(back) => {
                    assert_eq!(back.tuples_in, 10);
                    assert_eq!(back.tuples_out, 12);
                }
                other => panic!("report frame decoded as {other:?}"),
            }
            let error = SessionErrorFrame {
                stage: "stage/03_source".into(),
                kind: "disconnect".into(),
                message: "peer disconnected mid-stream".into(),
                protocol: Some("disconnected".into()),
            };
            match decode_server_frame(encode_error_frame(&error, format)).unwrap() {
                ServerEvent::Error(back) => {
                    assert_eq!(back.kind, "disconnect");
                    assert_eq!(back.protocol.as_deref(), Some("disconnected"));
                }
                other => panic!("error frame decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn columnar_batch_round_trips_and_rejects_garbage() {
        let batch: Vec<StampedTuple> = (0..5)
            .map(|i| {
                stamped(
                    i,
                    vec![
                        Value::Float(i as f64 * 1.5),
                        if i == 2 {
                            Value::Null
                        } else {
                            Value::Int(i as i64)
                        },
                        Value::Str(format!("row{i}").into()),
                    ],
                )
            })
            .collect();
        assert_eq!(decode_columns(&encode_columns(&batch)).unwrap(), batch);
        // Empty batches are legal (rows = 0, arity = 0).
        assert_eq!(decode_columns(&encode_columns(&[])).unwrap(), vec![]);
        // Truncation and trailing garbage are both malformed.
        let mut bytes = encode_columns(&batch);
        bytes.pop();
        assert!(decode_columns(&bytes).is_err(), "truncated");
        let mut bytes = encode_columns(&batch);
        bytes.push(0);
        assert!(decode_columns(&bytes).is_err(), "trailing garbage");
        // A row count the payload cannot hold must not allocate.
        assert!(decode_columns(&u32::MAX.to_le_bytes()).is_err());
        // The frame decodes as a Batch event.
        match decode_server_frame(encode_columns_frame(&batch)).unwrap() {
            ServerEvent::Batch(back) => assert_eq!(back, batch),
            other => panic!("columnar frame decoded as {other:?}"),
        }
    }

    #[test]
    fn telemetry_frames_round_trip_in_both_formats() {
        let frame = TelemetryFrame {
            seq: 3,
            at_ms: 1500,
            interval_ms: 250,
            delta: None,
            sessions: vec![SessionTelemetry {
                id: 7,
                kind: "pollute".into(),
                format: "binary".into(),
                frames_in: 100,
                frames_out: 120,
                bytes_out: 4096,
                encode_ns: 900,
                blocked_write_ns: 40,
                input_hwm_bytes: 65536,
                queued_hwm_rows: 512,
                outbox_hwm_bytes: 262144,
            }],
        };
        for format in [WireFormat::Ndjson, WireFormat::Binary] {
            match decode_server_frame(encode_telemetry_frame(&frame, format)).unwrap() {
                ServerEvent::Telemetry(back) => {
                    assert_eq!(back.seq, 3);
                    assert_eq!(back.interval_ms, 250);
                    assert_eq!(back.sessions, frame.sessions);
                }
                other => panic!("telemetry frame decoded as {other:?}"),
            }
        }
        // Rows from a server that still reports `repr` keep parsing.
        let old: SessionTelemetry =
            serde_json::from_str(r#"{"id":7,"kind":"pollute","repr":"columnar"}"#).unwrap();
        assert_eq!((old.id, old.kind.as_str()), (7, "pollute"));
    }

    #[test]
    fn handshake_session_type_defaults_to_pollute() {
        let hs: Handshake = serde_json::from_str(r#"{"plan":"noise"}"#).unwrap();
        assert!(hs.session.is_none());
        let hs: Handshake = serde_json::from_str(r#"{"session":"telemetry"}"#).unwrap();
        assert_eq!(hs.session.as_deref(), Some("telemetry"));
    }

    #[test]
    fn garbage_client_frames_are_malformed() {
        assert!(decode_client_frame(WireFrame::Line("not json".into())).is_err());
        assert!(decode_client_frame(WireFrame::Line("{}".into())).is_err());
        assert!(decode_client_frame(WireFrame::Binary {
            tag: 99,
            payload: Vec::new()
        })
        .is_err());
        assert!(decode_client_frame(WireFrame::Binary {
            tag: TAG_TUPLE,
            payload: vec![0xff]
        })
        .is_err());
    }

    #[test]
    fn handshake_parses_with_defaults() {
        let hs: Handshake = serde_json::from_str(r#"{"plan":"noise"}"#).unwrap();
        assert_eq!(hs.plan.as_deref(), Some("noise"));
        assert_eq!(hs.wire_format().unwrap(), WireFormat::Ndjson);
        let hs: Handshake = serde_json::from_str(r#"{"plan":"p","format":"binary"}"#).unwrap();
        assert_eq!(hs.wire_format().unwrap(), WireFormat::Binary);
        let hs: Handshake = serde_json::from_str(r#"{"format":"xml"}"#).unwrap();
        assert!(hs.wire_format().is_err());
    }
}
