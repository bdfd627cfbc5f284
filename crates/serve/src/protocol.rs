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
//! constants); NDJSON frames are single-key objects (`{"tuple": …}`,
//! `{"end": true}`, `{"report": …}`, `{"error": …}`). Report and error
//! payloads are JSON in both formats — they occur once per session, so
//! compactness is irrelevant.

use icewafl_core::plan::LogicalPlan;
use icewafl_core::report::RunReport;
use icewafl_stream::net::{NetError, NetPoll, WireFormat, WireFrame};
use icewafl_types::{DataType, Schema, StampedTuple, Timestamp, Tuple, Value};
use serde::{Deserialize, Serialize};

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
    /// The compiled plan's execution strategy (accepted sessions).
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
    /// last frame (absent when metrics are compiled out or no tick
    /// landed in this interval).
    #[serde(default)]
    pub delta: Option<icewafl_obs::MetricsDelta>,
    /// Currently active sessions, ordered by id.
    #[serde(default)]
    pub sessions: Vec<SessionTelemetry>,
}

/// One NDJSON line in the client → server direction.
#[derive(Serialize, Deserialize, Default)]
struct ClientLine {
    #[serde(default)]
    tuple: Option<Tuple>,
    #[serde(default)]
    end: Option<bool>,
}

/// One NDJSON line in the server → client direction.
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
/// express: a JSON integer deserializes as [`Value::Int`] even when the
/// column is a timestamp or float, so both sides of an NDJSON session
/// coerce decoded tuples against the session schema. Values already of
/// the right type (and `Null`, a member of every domain) pass through;
/// columns beyond the schema's arity are left for downstream
/// validation. The binary codec is typed and never needs this.
pub fn coerce_tuple(schema: &Schema, tuple: Tuple) -> Tuple {
    let lossy = tuple.values().iter().zip(schema.fields()).any(|(v, f)| {
        matches!(
            (f.dtype, v),
            (DataType::Float | DataType::Timestamp, Value::Int(_))
        )
    });
    if !lossy {
        return tuple;
    }
    Tuple::new(
        tuple
            .values()
            .iter()
            .enumerate()
            .map(|(i, v)| match (schema.field(i).map(|f| f.dtype), v) {
                (Some(DataType::Float), Value::Int(n)) => Value::Float(*n as f64),
                (Some(DataType::Timestamp), Value::Int(n)) => Value::Timestamp(Timestamp(*n)),
                _ => v.clone(),
            })
            .collect(),
    )
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
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Timestamp(t) => {
            out.push(VAL_TIMESTAMP);
            out.extend_from_slice(&t.0.to_le_bytes());
        }
    }
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

fn get_value(d: &mut Dec<'_>) -> Result<Value, NetError> {
    Ok(match d.u8()? {
        VAL_NULL => Value::Null,
        VAL_BOOL => Value::Bool(d.u8()? != 0),
        VAL_INT => Value::Int(d.i64()?),
        VAL_FLOAT => Value::Float(f64::from_bits(d.u64()?)),
        VAL_STR => {
            let len = d.u32()? as usize;
            let bytes = d.take(len)?;
            Value::Str(
                std::str::from_utf8(bytes)
                    .map_err(|_| NetError::malformed("string value is not valid UTF-8"))?
                    .to_string(),
            )
        }
        VAL_TIMESTAMP => Value::Timestamp(Timestamp(d.i64()?)),
        tag => return Err(NetError::malformed(format!("unknown value tag {tag}"))),
    })
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
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(d)?);
    }
    Ok(Tuple::new(values))
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
    out.extend_from_slice(&t.id.to_le_bytes());
    out.extend_from_slice(&t.tau.0.to_le_bytes());
    out.extend_from_slice(&t.arrival.0.to_le_bytes());
    out.extend_from_slice(&t.sub_stream.to_le_bytes());
    put_tuple(&mut out, &t.tuple);
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
/// columnar plan serialize each output column in one pass, and packs
/// same-typed tags together. Rows beyond the stated arity are rejected
/// at encode time: every row must have the same arity, which holds for
/// plan output (pollution is value-preserving per column).
pub fn encode_columns(batch: &[StampedTuple]) -> Vec<u8> {
    let rows = batch.len();
    let arity = batch.first().map_or(0, |t| t.tuple.values().len());
    debug_assert!(
        batch.iter().all(|t| t.tuple.values().len() == arity),
        "columnar frames require a uniform arity"
    );
    let mut out = Vec::with_capacity(4 + rows * 28 + 2 + rows * arity * 9);
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    for t in batch {
        out.extend_from_slice(&t.id.to_le_bytes());
    }
    for t in batch {
        out.extend_from_slice(&t.tau.0.to_le_bytes());
    }
    for t in batch {
        out.extend_from_slice(&t.arrival.0.to_le_bytes());
    }
    for t in batch {
        out.extend_from_slice(&t.sub_stream.to_le_bytes());
    }
    out.extend_from_slice(&(arity as u16).to_le_bytes());
    for col in 0..arity {
        for t in batch {
            put_value(&mut out, &t.tuple.values()[col]);
        }
    }
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
    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let mut col = Vec::with_capacity(rows);
        for _ in 0..rows {
            col.push(get_value(&mut d)?);
        }
        columns.push(col);
    }
    d.finish()?;
    let mut batch = Vec::with_capacity(rows);
    for row in (0..rows).rev() {
        let values = columns.iter_mut().map(|col| col.pop().unwrap()).collect();
        let mut t = StampedTuple::new(ids[row], Timestamp(taus[row]), Tuple::new(values));
        t.arrival = Timestamp(arrivals[row]);
        t.sub_stream = sub_streams[row];
        batch.push(t);
    }
    batch.reverse();
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
    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let mut col = Vec::with_capacity(rows);
        for _ in 0..rows {
            col.push(get_value(&mut d)?);
        }
        columns.push(col);
    }
    d.finish()?;
    let mut batch = Vec::with_capacity(rows);
    for _ in 0..rows {
        let values = columns.iter_mut().map(|col| col.pop().unwrap()).collect();
        batch.push(Tuple::new(values));
    }
    batch.reverse();
    Ok(batch)
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
        WireFormat::Ndjson => WireFrame::Line(json_line(&ClientLine {
            tuple: Some(t.clone()),
            end: None,
        })),
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
        WireFormat::Ndjson => WireFrame::Line(json_line(&ClientLine {
            tuple: None,
            end: Some(true),
        })),
    }
}

/// Server → client: one polluted stamped tuple.
pub fn encode_stamped_frame(t: &StampedTuple, format: WireFormat) -> WireFrame {
    match format {
        WireFormat::Binary => WireFrame::Binary {
            tag: TAG_STAMPED,
            payload: encode_stamped(t),
        },
        WireFormat::Ndjson => WireFrame::Line(json_line(&ServerLine {
            tuple: Some(t.clone()),
            ..ServerLine::default()
        })),
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
/// server-direction frame — is [`NetError::Malformed`].
pub fn decode_client_frame(frame: WireFrame) -> Result<NetPoll<Tuple>, NetError> {
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
        WireFrame::Line(line) => {
            let parsed: ClientLine = serde_json::from_str(&line)
                .map_err(|e| NetError::malformed(format!("bad client line: {e}")))?;
            match (parsed.tuple, parsed.end) {
                (Some(t), _) => Ok(NetPoll::Record(t)),
                (None, Some(true)) => Ok(NetPoll::End),
                _ => Err(NetError::malformed(
                    "client line carries neither a tuple nor an end marker",
                )),
            }
        }
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
        WireFrame::Line(line) => {
            let parsed: ServerLine = serde_json::from_str(&line)
                .map_err(|e| NetError::malformed(format!("bad server line: {e}")))?;
            if let Some(t) = parsed.tuple {
                Ok(ServerEvent::Tuple(t))
            } else if let Some(r) = parsed.report {
                Ok(ServerEvent::Report(Box::new(r)))
            } else if let Some(e) = parsed.error {
                Ok(ServerEvent::Error(e))
            } else if let Some(f) = parsed.telemetry {
                Ok(ServerEvent::Telemetry(Box::new(f)))
            } else {
                Err(NetError::malformed(
                    "server line carries neither tuple, report, error, nor telemetry",
                ))
            }
        }
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
                    Value::Str(format!("row{i}")),
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
                        Value::Str(format!("row{i}")),
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
