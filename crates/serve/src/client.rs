//! A blocking client for one serve session — the reference
//! implementation of the protocol's client side, used by the bench
//! harness, the integration tests, and the CI smoke step.
//!
//! [`run_session`] connects, handshakes, then **writes and reads
//! concurrently**: a writer thread streams the input tuples while the
//! calling thread drains polluted tuples. Concurrent draining matters —
//! the server applies backpressure, so a client that writes its whole
//! stream before reading deadlocks against TCP flow control once the
//! stream outgrows the kernel socket buffers.

use crate::protocol::{
    arity_runs, coerce_tuple, decode_server_frame, encode_end_frame, encode_tuple_columns_frame,
    encode_tuple_frame, Handshake, HandshakeReply, ServerEvent, SessionErrorFrame, TelemetryFrame,
};
use icewafl_core::report::RunReport;
use icewafl_stream::net::{FrameReader, FrameWriter, NetError, WireFormat, WireFrame};
use icewafl_types::Schema;
use icewafl_types::{StampedTuple, Tuple};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

/// Tuples per columnar upload frame on binary sessions: large enough
/// to amortize framing and decode dispatch, small enough that a frame
/// stays far under the server's per-frame cap.
const UPLOAD_BATCH: usize = 512;

/// Client-side knobs for [`run_session`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7341`.
    pub addr: String,
    /// The handshake to open with (plan, schema, format).
    pub handshake: Handshake,
    /// Sleep this long after each received tuple — simulates a slow
    /// reader to exercise server-side backpressure.
    pub slow_reader: Option<Duration>,
    /// Per-frame size cap for server frames.
    pub max_frame_bytes: usize,
}

impl ClientConfig {
    /// A config for `addr` with the given handshake and defaults
    /// otherwise.
    pub fn new(addr: impl Into<String>, handshake: Handshake) -> Self {
        ClientConfig {
            addr: addr.into(),
            handshake,
            slow_reader: None,
            max_frame_bytes: icewafl_stream::net::DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Everything one session produced.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The server's handshake reply. When `reply.ok` is false the
    /// session was rejected and the other fields are empty.
    pub reply: HandshakeReply,
    /// Polluted tuples received, in arrival order.
    pub tuples: Vec<StampedTuple>,
    /// The final run report — present iff the session completed.
    pub report: Option<RunReport>,
    /// The typed session error — present iff the session failed
    /// server-side.
    pub error: Option<SessionErrorFrame>,
}

impl SessionOutcome {
    /// `true` when the session was accepted and ran to a report.
    pub fn completed(&self) -> bool {
        self.reply.ok && self.report.is_some()
    }
}

/// Runs one full session: connect, handshake, stream `tuples`, drain
/// the polluted stream until the report (or error) frame.
///
/// Transport-level failures — the server vanishing, undecodable frames
/// — surface as `Err`; a *session* failure the server reports cleanly
/// arrives as `Ok` with [`SessionOutcome::error`] set.
pub fn run_session(config: &ClientConfig, tuples: Vec<Tuple>) -> Result<SessionOutcome, NetError> {
    let stream = TcpStream::connect(&config.addr).map_err(|e| NetError::from_io(&e))?;
    let _ = stream.set_nodelay(true);
    let write_stream = stream.try_clone().map_err(|e| NetError::from_io(&e))?;
    let (reply, mut reader) = handshake_on(stream, &config.handshake, config.max_frame_bytes)?;
    if !reply.ok {
        return Ok(SessionOutcome {
            reply,
            tuples: Vec::new(),
            report: None,
            error: None,
        });
    }

    let format = config
        .handshake
        .wire_format()
        .map_err(NetError::malformed)?;

    // Writer thread: stream the input and the end marker. Write errors
    // are swallowed — if the server killed the session, the interesting
    // signal is the error frame (or disconnect) the reader sees. A
    // `subscribe` session sends nothing after its handshake: the data
    // comes from the publisher it attached to.
    let subscriber = config.handshake.session.as_deref() == Some("subscribe");
    let writer_thread = (!subscriber).then(|| {
        std::thread::spawn(move || {
            let mut writer = FrameWriter::new(BufWriter::new(write_stream), format);
            if format == WireFormat::Binary {
                // Columnar upload: one frame per run of same-arity
                // tuples, so the server decodes a batch at a time
                // instead of 5 header bytes + one payload per tuple.
                for run in arity_runs(&tuples, UPLOAD_BATCH, Tuple::len) {
                    let frame = if run.len() >= 2 {
                        encode_tuple_columns_frame(run)
                    } else {
                        encode_tuple_frame(&run[0], format)
                    };
                    if writer.write(&frame).is_err() {
                        return;
                    }
                }
            } else {
                for tuple in &tuples {
                    if writer.write(&encode_tuple_frame(tuple, format)).is_err() {
                        return;
                    }
                }
            }
            let _ = writer.write(&encode_end_frame(format));
            let _ = writer.flush();
        })
    });

    // Reader: drain the session to its tail frame. Over NDJSON the
    // value encoding is untagged, so received payloads are coerced back
    // to the session schema's column types when the client knows it.
    let schema = session_schema(&config.handshake).filter(|_| format == WireFormat::Ndjson);
    let mut outcome = SessionOutcome {
        reply,
        tuples: Vec::new(),
        report: None,
        error: None,
    };
    let result = loop {
        match reader.read() {
            Ok(Some(frame)) => match decode_server_frame(frame) {
                Ok(ServerEvent::Tuple(mut t)) => {
                    if let Some(schema) = &schema {
                        t.tuple = coerce_tuple(schema, t.tuple);
                    }
                    outcome.tuples.push(t);
                    if let Some(pause) = config.slow_reader {
                        std::thread::sleep(pause);
                    }
                }
                // Columnar frames arrive only on binary sessions, whose
                // typed codec never needs schema coercion.
                Ok(ServerEvent::Batch(batch)) => {
                    outcome.tuples.extend(batch);
                    if let Some(pause) = config.slow_reader {
                        std::thread::sleep(pause);
                    }
                }
                Ok(ServerEvent::Report(report)) => {
                    outcome.report = Some(*report);
                    break Ok(());
                }
                Ok(ServerEvent::Error(error)) => {
                    outcome.error = Some(error);
                    break Ok(());
                }
                Ok(ServerEvent::Telemetry(_)) => {
                    break Err(NetError::malformed("telemetry frame in a pollute session"))
                }
                Err(e) => break Err(e),
            },
            // The server closing without a tail frame is itself a
            // protocol violation worth surfacing.
            Ok(None) => break Err(NetError::Disconnected),
            Err(e) => break Err(e),
        }
    };
    if let Some(writer_thread) = writer_thread {
        let _ = writer_thread.join();
    }
    result.map(|()| outcome)
}

/// Opens a session on `stream`: the handshake line out and the reply
/// line in, both NDJSON. When the server accepts, the returned reader
/// is switched to the handshake's data format for every frame after the
/// reply, bytes the server sent right behind it included.
fn handshake_on(
    stream: TcpStream,
    handshake: &Handshake,
    max_frame_bytes: usize,
) -> Result<(HandshakeReply, FrameReader<BufReader<TcpStream>>), NetError> {
    let mut writer = FrameWriter::new(&stream, WireFormat::Ndjson);
    let line = serde_json::to_string(handshake).expect("protocol frames are always serializable");
    writer.write(&WireFrame::Line(line))?;
    writer.flush()?;
    let mut reader = FrameReader::new(BufReader::new(stream), WireFormat::Ndjson, max_frame_bytes);
    let reply: HandshakeReply = match reader.read()? {
        Some(WireFrame::Line(line)) => serde_json::from_str(&line)
            .map_err(|e| NetError::malformed(format!("bad handshake reply: {e}")))?,
        Some(WireFrame::Binary { .. }) => {
            return Err(NetError::malformed("binary frame before handshake reply"))
        }
        None => return Err(NetError::Disconnected),
    };
    if reply.ok {
        reader.set_format(handshake.wire_format().map_err(NetError::malformed)?);
    }
    Ok((reply, reader))
}

/// Subscribes to a server's telemetry stream and collects up to
/// `max_frames` [`TelemetryFrame`]s (a `max_frames` of 0 reads until the
/// server closes the stream — i.e. until it drains).
///
/// This is the client side of the `telemetry` session type: handshake
/// with `session: "telemetry"`, then read frames; nothing is ever sent
/// after the handshake. Both wire formats work; `format` defaults to
/// NDJSON when `None`.
pub fn subscribe_telemetry(
    addr: &str,
    format: Option<WireFormat>,
    max_frames: usize,
) -> Result<Vec<TelemetryFrame>, NetError> {
    let mut frames = Vec::new();
    watch_telemetry(addr, format, max_frames, |f| frames.push(f.clone()))?;
    Ok(frames)
}

/// Connect attempts [`connect_with_retry`] makes before giving up.
const CONNECT_ATTEMPTS: u32 = 5;
/// Backoff before the second connect attempt; doubles per attempt.
const CONNECT_BACKOFF_BASE: Duration = Duration::from_millis(100);
/// Upper bound on the per-attempt connect backoff.
const CONNECT_BACKOFF_MAX: Duration = Duration::from_millis(800);

/// Bounded TCP connect with exponential backoff: up to
/// [`CONNECT_ATTEMPTS`] tries, sleeping `min(base · 2^(n−1), max)`
/// between them. This is what lets `icewafl top` be started *before*
/// (or concurrently with) the server it watches instead of failing
/// hard on the first refused connection; after the final attempt the
/// last error surfaces unchanged.
fn connect_with_retry(addr: &str) -> Result<TcpStream, NetError> {
    let mut backoff = CONNECT_BACKOFF_BASE;
    let mut last = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(CONNECT_BACKOFF_MAX);
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(NetError::from_io(&e)),
        }
    }
    Err(last.unwrap_or(NetError::Disconnected))
}

/// [`subscribe_telemetry`], streaming: `on_frame` runs on each
/// [`TelemetryFrame`] *as it arrives* instead of buffering the whole
/// stream. This is what `icewafl top` renders from. Returns the number
/// of frames observed.
///
/// The initial connect retries with bounded backoff (5 attempts,
/// 100 ms doubling to an 800 ms cap), so `icewafl top` started
/// moments before its server still attaches.
pub fn watch_telemetry(
    addr: &str,
    format: Option<WireFormat>,
    max_frames: usize,
    mut on_frame: impl FnMut(&TelemetryFrame),
) -> Result<u64, NetError> {
    let stream = connect_with_retry(addr)?;
    let _ = stream.set_nodelay(true);
    let handshake = Handshake {
        session: Some("telemetry".into()),
        format: Some(format.unwrap_or_default().as_str().into()),
        ..Handshake::default()
    };
    let (reply, mut reader) = handshake_on(
        stream,
        &handshake,
        icewafl_stream::net::DEFAULT_MAX_FRAME_BYTES,
    )?;
    if !reply.ok {
        return Err(NetError::malformed(format!(
            "telemetry session rejected: {}",
            reply.error.unwrap_or_default()
        )));
    }
    let mut seen: u64 = 0;
    loop {
        match reader.read()? {
            Some(frame) => match decode_server_frame(frame)? {
                ServerEvent::Telemetry(f) => {
                    seen += 1;
                    on_frame(&f);
                    if max_frames > 0 && seen >= max_frames as u64 {
                        return Ok(seen);
                    }
                }
                other => {
                    return Err(NetError::malformed(format!(
                        "unexpected frame in a telemetry session: {other:?}"
                    )))
                }
            },
            // Server drained: a clean end of the telemetry stream.
            None => return Ok(seen),
        }
    }
}

/// The schema this handshake will run under, when the client can tell:
/// inline schemas verbatim, built-in names resolved the same way the
/// server resolves them.
fn session_schema(hs: &Handshake) -> Option<Schema> {
    if let Some(schema) = &hs.schema_inline {
        return Some(schema.clone());
    }
    match hs.schema.as_deref() {
        Some("wearable") => Some(icewafl_data::wearable::schema()),
        Some("airquality") => Some(icewafl_data::airquality::schema()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_retry_attaches_to_a_late_binding_server() {
        // Reserve a port, release it, then re-bind it only after the
        // client has already failed its first connect attempt(s).
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(250));
            let listener = TcpListener::bind(addr).unwrap();
            let _conn = listener.accept().unwrap();
        });
        let stream = connect_with_retry(&addr.to_string()).expect("late server still reachable");
        drop(stream);
        server.join().unwrap();
    }

    #[test]
    fn connect_retry_is_bounded() {
        // A port nothing ever listens on: the retry loop must give up
        // with the underlying error instead of spinning forever.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let start = std::time::Instant::now();
        let err = connect_with_retry(&addr).unwrap_err();
        assert!(matches!(err, NetError::Io { .. } | NetError::Disconnected));
        // 4 backoffs of at most 100+200+400+800 ms, plus connect time.
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "gave up in bounded time"
        );
    }
}
