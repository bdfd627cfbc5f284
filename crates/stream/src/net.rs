//! Network transport for streams: frame codec, [`NetSource`], and
//! [`NetSink`].
//!
//! Two wire formats are supported, chosen per connection:
//!
//! * **NDJSON** — one JSON text per `\n`-terminated line. Human-
//!   readable, trivially scriptable with `nc`/`jq`.
//! * **Binary** — length-prefixed frames `[tag: u8][len: u32 LE]
//!   [payload]`. Compact and copy-friendly for high-rate sessions.
//!
//! This module is deliberately *payload-agnostic*: it moves
//! [`WireFrame`]s, not tuples. The mapping between frames and records
//! is supplied by the caller as encode/decode closures (the `serve`
//! crate provides the icewafl session protocol on top). That keeps the
//! stream crate free of any serialization dependency.
//!
//! Protocol failures are **typed and poisoning, never truncating**: a
//! malformed frame, an oversized frame, or a peer disconnect makes
//! [`NetSource`]/[`NetSink`] record a [`NetError`] into a shared
//! [`NetErrorCell`] and raise a typed [`StageError`] through the
//! poison-propagation protocol (see [`fault`](crate::fault)) — the
//! pipeline terminates with `Error::Pipeline` naming the failure kind
//! instead of silently ending the stream early, exactly like
//! `CsvTupleSource` does for file I/O.

use crate::fault::{FailureKind, StageError};
use crate::sink::Sink;
use crate::source::Source;
use parking_lot::Mutex;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default cap on a single frame (payload or line), in bytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// A typed transport-protocol failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer sent bytes that do not parse as a frame of the
    /// negotiated format (bad UTF-8, unknown tag, undecodable payload).
    Malformed {
        /// What failed to parse.
        detail: String,
    },
    /// A frame announced (or a line reached) a length beyond the
    /// session's cap — rejected before buffering the payload.
    Oversized {
        /// Announced or accumulated length in bytes.
        len: usize,
        /// The session's cap in bytes.
        max: usize,
    },
    /// The peer vanished mid-stream (EOF or connection reset before the
    /// end-of-stream frame).
    Disconnected,
    /// Any other socket-level I/O failure (e.g. a read timeout).
    Io {
        /// The rendered `std::io::Error`.
        detail: String,
    },
}

impl NetError {
    /// Classifies an I/O error: EOF/reset/abort mean the peer is gone,
    /// everything else is a generic I/O failure.
    pub fn from_io(e: &std::io::Error) -> Self {
        use std::io::ErrorKind::*;
        match e.kind() {
            UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe => {
                NetError::Disconnected
            }
            _ => NetError::Io {
                detail: e.to_string(),
            },
        }
    }

    /// A malformed-frame error with a detail message.
    pub fn malformed(detail: impl Into<String>) -> Self {
        NetError::Malformed {
            detail: detail.into(),
        }
    }

    /// Stable machine-readable code (`malformed`, `oversized`,
    /// `disconnected`, `io`) — what session error frames carry.
    pub fn code(&self) -> &'static str {
        match self {
            NetError::Malformed { .. } => "malformed",
            NetError::Oversized { .. } => "oversized",
            NetError::Disconnected => "disconnected",
            NetError::Io { .. } => "io",
        }
    }

    /// How this error is classified by the failure protocol: protocol
    /// violations are [`FailureKind::Fatal`] (retrying cannot help),
    /// vanished peers and socket trouble are [`FailureKind::Disconnect`].
    pub fn failure_kind(&self) -> FailureKind {
        match self {
            NetError::Malformed { .. } | NetError::Oversized { .. } => FailureKind::Fatal,
            NetError::Disconnected | NetError::Io { .. } => FailureKind::Disconnect,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            NetError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            NetError::Disconnected => write!(f, "peer disconnected mid-stream"),
            NetError::Io { detail } => write!(f, "transport I/O error: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

/// First-error-wins cell shared between a [`NetSource`]/[`NetSink`] and
/// the session code that reports the typed error to the peer.
#[derive(Clone, Default)]
pub struct NetErrorCell {
    slot: Arc<Mutex<Option<NetError>>>,
}

impl NetErrorCell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `error` unless one was already recorded.
    pub fn record(&self, error: NetError) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    /// A copy of the recorded error, if any.
    pub fn get(&self) -> Option<NetError> {
        self.slot.lock().clone()
    }
}

/// The wire format negotiated for a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// One JSON text per newline-terminated line.
    #[default]
    Ndjson,
    /// Length-prefixed binary frames: `[tag: u8][len: u32 LE][payload]`.
    Binary,
}

impl WireFormat {
    /// Parses the handshake name (`ndjson` / `binary`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ndjson" => Some(WireFormat::Ndjson),
            "binary" => Some(WireFormat::Binary),
            _ => None,
        }
    }

    /// The handshake name of this format.
    pub fn as_str(&self) -> &'static str {
        match self {
            WireFormat::Ndjson => "ndjson",
            WireFormat::Binary => "binary",
        }
    }
}

/// One frame as it crosses the wire, before any payload decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFrame {
    /// A binary frame: tag byte plus raw payload.
    Binary {
        /// Protocol-defined frame tag.
        tag: u8,
        /// Raw payload bytes.
        payload: Vec<u8>,
    },
    /// One NDJSON line, without its trailing newline.
    Line(String),
}

impl WireFrame {
    /// Bytes this frame occupies on the wire, including framing overhead
    /// (the `[tag][len]` header for binary frames, the trailing newline
    /// for NDJSON lines).
    pub fn wire_len(&self) -> usize {
        match self {
            WireFrame::Binary { payload, .. } => 1 + 4 + payload.len(),
            WireFrame::Line(line) => line.len() + 1,
        }
    }
}

/// Serializes one frame to its exact wire bytes (the `[tag][len]`
/// header for binary frames, the trailing newline for NDJSON lines) —
/// the building block of non-blocking write paths that queue encoded
/// bytes instead of writing through a [`FrameWriter`].
pub fn frame_bytes(frame: &WireFrame) -> Vec<u8> {
    match frame {
        WireFrame::Binary { tag, payload } => {
            let mut out = Vec::with_capacity(5 + payload.len());
            out.push(*tag);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
            out
        }
        WireFrame::Line(line) => {
            let mut out = Vec::with_capacity(line.len() + 1);
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            out
        }
    }
}

/// An incremental, push-based frame decoder: the non-blocking
/// counterpart of [`FrameReader`].
///
/// Bytes arrive in arbitrary slices ([`push`](FrameDecoder::push) —
/// whatever a non-blocking `read` returned before `WouldBlock`), and
/// [`next`](FrameDecoder::next) pops complete frames as they become
/// available. Frames are returned in exactly the order their bytes
/// arrived, whatever the split boundaries; a read that returned zero
/// new bytes simply leaves the decoder where it was. The per-frame size
/// cap is enforced *before* a payload is fully buffered, exactly like
/// [`FrameReader`]: an announced binary length or an accumulated
/// newline-less line beyond the cap fails with [`NetError::Oversized`]
/// without waiting for the rest of the frame.
///
/// The format can be switched mid-stream
/// ([`set_format`](FrameDecoder::set_format)) with buffered bytes
/// preserved — exactly what a session needs after its NDJSON handshake
/// line when the negotiated data format is binary.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    start: usize,
    format: WireFormat,
    max_frame: usize,
}

impl FrameDecoder {
    /// A decoder for `format` with a per-frame cap of `max_frame` bytes.
    pub fn new(format: WireFormat, max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            format,
            max_frame: max_frame.max(1),
        }
    }

    /// Switches the wire format for frames not yet decoded. Buffered
    /// bytes are preserved: data the peer sent right behind a handshake
    /// line is re-interpreted in the new format.
    pub fn set_format(&mut self, format: WireFormat) {
        self.format = format;
    }

    /// Appends newly-read bytes to the decode buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by the
        // largest in-flight frame instead of the whole stream.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Takes the undecoded residue out of the decoder (e.g. to hand a
    /// connection over to a blocking reader after a handshake).
    pub fn take_residual(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.start);
        self.buf.clear();
        self.start = 0;
        rest
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed. Oversized and malformed frames fail exactly like
    /// [`FrameReader::read`]; EOF handling stays with the caller (a
    /// peer that closed while [`buffered`](FrameDecoder::buffered) is
    /// non-zero, or mid-stream, vanished before a frame boundary).
    ///
    /// Not an [`Iterator`]: `Ok(None)` means "feed me more bytes", not
    /// end of stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WireFrame>, NetError> {
        match self.format {
            WireFormat::Ndjson => self.next_line(),
            WireFormat::Binary => self.next_binary(),
        }
    }

    fn next_line(&mut self) -> Result<Option<WireFrame>, NetError> {
        let window = &self.buf[self.start..];
        match window.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if pos > self.max_frame {
                    return Err(NetError::Oversized {
                        len: pos,
                        max: self.max_frame,
                    });
                }
                let line = std::str::from_utf8(&window[..pos])
                    .map_err(|_| NetError::malformed("line is not valid UTF-8"))?
                    .to_string();
                self.start += pos + 1;
                Ok(Some(WireFrame::Line(line)))
            }
            None => {
                if window.len() > self.max_frame {
                    return Err(NetError::Oversized {
                        len: window.len(),
                        max: self.max_frame,
                    });
                }
                Ok(None)
            }
        }
    }

    fn next_binary(&mut self) -> Result<Option<WireFrame>, NetError> {
        let window = &self.buf[self.start..];
        if window.len() < 5 {
            return Ok(None);
        }
        let tag = window[0];
        let len = u32::from_le_bytes([window[1], window[2], window[3], window[4]]) as usize;
        if len > self.max_frame {
            return Err(NetError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        if window.len() < 5 + len {
            return Ok(None);
        }
        let payload = window[5..5 + len].to_vec();
        self.start += 5 + len;
        Ok(Some(WireFrame::Binary { tag, payload }))
    }
}

/// A queue of encoded frame bytes awaiting a non-blocking writer: the
/// `WouldBlock`-tolerant counterpart of [`FrameWriter`].
///
/// Buffers are shared `Arc<[u8]>` slices so the *same* encoded frame
/// can sit in many sessions' queues at once (pre-serialized fan-out:
/// encode once, clone the `Arc` per subscriber). [`write_to`] pushes as
/// many bytes as the transport accepts and remembers the partial-write
/// offset, so a write interrupted anywhere inside a frame resumes at
/// the exact byte.
///
/// [`write_to`]: WriteQueue::write_to
#[derive(Default)]
pub struct WriteQueue {
    bufs: std::collections::VecDeque<(Arc<[u8]>, usize)>,
    pending: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        WriteQueue::default()
    }

    /// Queues one encoded buffer (cheap: the bytes are shared, not
    /// copied).
    pub fn push(&mut self, bytes: Arc<[u8]>) {
        self.pending += bytes.len();
        self.bufs.push_back((bytes, 0));
    }

    /// Bytes queued and not yet accepted by the transport.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// `true` when everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Writes queued bytes until the queue empties or the transport
    /// pushes back. Returns `Ok(true)` when the queue drained,
    /// `Ok(false)` when the transport returned `WouldBlock` (call again
    /// on writability); everything else is a typed transport error.
    pub fn write_to<W: Write>(&mut self, writer: &mut W) -> Result<bool, NetError> {
        while let Some((buf, offset)) = self.bufs.front_mut() {
            match writer.write(&buf[*offset..]) {
                Ok(0) => {
                    return Err(NetError::Io {
                        detail: "transport accepted zero bytes".into(),
                    })
                }
                Ok(n) => {
                    *offset += n;
                    self.pending -= n;
                    if *offset == buf.len() {
                        self.bufs.pop_front();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::from_io(&e)),
            }
        }
        Ok(true)
    }
}

/// Reads [`WireFrame`]s of one format from a buffered byte stream,
/// enforcing a per-frame size cap *before* buffering payloads.
pub struct FrameReader<R> {
    inner: R,
    format: WireFormat,
    max_frame: usize,
}

impl<R: BufRead> FrameReader<R> {
    /// A reader over `inner`; frames larger than `max_frame` bytes are
    /// rejected as [`NetError::Oversized`].
    pub fn new(inner: R, format: WireFormat, max_frame: usize) -> Self {
        FrameReader {
            inner,
            format,
            max_frame: max_frame.max(1),
        }
    }

    /// The underlying reader (e.g. to re-wrap it after a handshake).
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Reads the next frame. `Ok(None)` is a *clean* EOF at a frame
    /// boundary; EOF inside a frame is [`NetError::Disconnected`].
    pub fn read(&mut self) -> Result<Option<WireFrame>, NetError> {
        match self.format {
            WireFormat::Ndjson => Ok(self.read_line_bounded()?.map(WireFrame::Line)),
            WireFormat::Binary => self.read_binary(),
        }
    }

    /// Bounded line read: scans the buffered window for `\n` and fails
    /// with [`NetError::Oversized`] as soon as the accumulated line
    /// crosses the cap — a missing newline can never buffer unbounded
    /// memory.
    fn read_line_bounded(&mut self) -> Result<Option<String>, NetError> {
        let mut line: Vec<u8> = Vec::new();
        loop {
            let (advance, done) = {
                let buf = self.inner.fill_buf().map_err(|e| NetError::from_io(&e))?;
                if buf.is_empty() {
                    if line.is_empty() {
                        return Ok(None);
                    }
                    return Err(NetError::Disconnected);
                }
                match buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        if line.len() + pos > self.max_frame {
                            return Err(NetError::Oversized {
                                len: line.len() + pos,
                                max: self.max_frame,
                            });
                        }
                        line.extend_from_slice(&buf[..pos]);
                        (pos + 1, true)
                    }
                    None => {
                        if line.len() + buf.len() > self.max_frame {
                            return Err(NetError::Oversized {
                                len: line.len() + buf.len(),
                                max: self.max_frame,
                            });
                        }
                        line.extend_from_slice(buf);
                        (buf.len(), false)
                    }
                }
            };
            self.inner.consume(advance);
            if done {
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| NetError::malformed("line is not valid UTF-8"));
            }
        }
    }

    fn read_binary(&mut self) -> Result<Option<WireFrame>, NetError> {
        // A zero-byte read for the tag is the only clean EOF point.
        let mut tag = [0u8; 1];
        match self.inner.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e) => return Err(NetError::from_io(&e)),
        }
        let mut len = [0u8; 4];
        self.inner
            .read_exact(&mut len)
            .map_err(|e| NetError::from_io(&e))?;
        let len = u32::from_le_bytes(len) as usize;
        if len > self.max_frame {
            return Err(NetError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        let mut payload = vec![0u8; len];
        self.inner
            .read_exact(&mut payload)
            .map_err(|e| NetError::from_io(&e))?;
        Ok(Some(WireFrame::Binary {
            tag: tag[0],
            payload,
        }))
    }
}

/// Writes [`WireFrame`]s of one format to a byte stream.
pub struct FrameWriter<W> {
    inner: W,
    format: WireFormat,
}

impl<W: Write> FrameWriter<W> {
    /// A writer over `inner`.
    pub fn new(inner: W, format: WireFormat) -> Self {
        FrameWriter { inner, format }
    }

    /// Writes one frame. The frame variant must match the negotiated
    /// format; a mismatch is a caller bug reported as
    /// [`NetError::Malformed`].
    pub fn write(&mut self, frame: &WireFrame) -> Result<(), NetError> {
        match (self.format, frame) {
            (WireFormat::Binary, WireFrame::Binary { tag, payload }) => self
                .inner
                .write_all(&[*tag])
                .and_then(|_| self.inner.write_all(&(payload.len() as u32).to_le_bytes()))
                .and_then(|_| self.inner.write_all(payload))
                .map_err(|e| NetError::from_io(&e)),
            (WireFormat::Ndjson, WireFrame::Line(line)) => {
                if line.contains('\n') {
                    return Err(NetError::malformed("NDJSON line contains a raw newline"));
                }
                self.inner
                    .write_all(line.as_bytes())
                    .and_then(|_| self.inner.write_all(b"\n"))
                    .map_err(|e| NetError::from_io(&e))
            }
            _ => Err(NetError::malformed(
                "frame variant does not match the negotiated wire format",
            )),
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.inner.flush().map_err(|e| NetError::from_io(&e))
    }
}

/// What a decoded client frame means to the stream runtime.
pub enum NetPoll<T> {
    /// One record to feed into the pipeline.
    Record(T),
    /// A whole batch of records from one frame (columnar upload); the
    /// runtime feeds them in order, exactly as if each had arrived as
    /// its own [`Record`](NetPoll::Record).
    Batch(Vec<T>),
    /// The peer's end-of-stream marker: finish cleanly.
    End,
}

/// Decodes one wire frame into a record or the end-of-stream marker.
pub type DecodeFn<T> = Box<dyn FnMut(WireFrame) -> Result<NetPoll<T>, NetError> + Send>;

/// Encodes one record as a wire frame.
pub type EncodeFn<T> = Box<dyn FnMut(&T) -> WireFrame + Send>;

/// Encodes a whole batch of records as one wire frame (e.g. a columnar
/// frame that serializes each column contiguously).
pub type BatchEncodeFn<T> = Box<dyn FnMut(&[T]) -> WireFrame + Send>;

/// A [`Source`] that pulls records from a network peer, one frame at a
/// time.
///
/// Because the source is pulled by the execution driver, ingest is
/// naturally throttled by downstream progress: if the pipeline (or a
/// slow reader behind a [`NetSink`]) stalls, the source stops reading
/// and TCP flow control pushes back on the peer — bounded memory with
/// no explicit buffering.
///
/// Any protocol failure — including EOF *without* the end-of-stream
/// frame — records a typed [`NetError`] into the shared
/// [`NetErrorCell`] and poisons the pipeline via
/// [`std::panic::panic_any`]`(StageError)`, so the run fails loudly
/// instead of truncating.
pub struct NetSource<R, T> {
    reader: FrameReader<R>,
    decode: DecodeFn<T>,
    error: NetErrorCell,
    frames_in: Arc<AtomicU64>,
    /// Records still owed from the last batch frame, drained first.
    pending: std::collections::VecDeque<T>,
}

impl<R: BufRead + Send, T> NetSource<R, T> {
    /// A source decoding frames from `reader` with `decode`; protocol
    /// errors are mirrored into `error`.
    pub fn new(reader: FrameReader<R>, decode: DecodeFn<T>, error: NetErrorCell) -> Self {
        NetSource {
            reader,
            decode,
            error,
            frames_in: Arc::new(AtomicU64::new(0)),
            pending: std::collections::VecDeque::new(),
        }
    }

    /// A live counter of frames read so far (records only, not the end
    /// marker) — shareable with session metrics.
    pub fn frames_in_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.frames_in)
    }

    fn fail(&self, error: NetError) -> ! {
        let typed = StageError::new("net_source", error.failure_kind(), error.to_string());
        self.error.record(error);
        std::panic::panic_any(typed);
    }
}

impl<R: BufRead + Send, T: Send> Source<T> for NetSource<R, T> {
    fn next(&mut self) -> Option<T> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Some(t);
            }
            let frame = match self.reader.read() {
                Ok(Some(frame)) => frame,
                // EOF without the protocol's end marker: the peer
                // vanished.
                Ok(None) => self.fail(NetError::Disconnected),
                Err(e) => self.fail(e),
            };
            match (self.decode)(frame) {
                Ok(NetPoll::Record(t)) => {
                    self.frames_in.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
                // An empty batch is legal: count the frame, keep
                // reading.
                Ok(NetPoll::Batch(batch)) => {
                    self.frames_in.fetch_add(1, Ordering::Relaxed);
                    self.pending.extend(batch);
                }
                Ok(NetPoll::End) => return None,
                Err(e) => self.fail(e),
            }
        }
    }
}

/// A [`Sink`] that streams records back to a network peer, one frame
/// per record.
///
/// A write failure (the peer hung up, the socket broke) poisons the
/// pipeline with a typed [`FailureKind::Disconnect`] error the same way
/// [`NetSource`] does, after mirroring it into the shared
/// [`NetErrorCell`].
pub struct NetSink<W, T> {
    writer: FrameWriter<W>,
    encode: EncodeFn<T>,
    /// Optional whole-batch encoder: when set, `write_batch` emits one
    /// frame per batch instead of one per record.
    encode_batch: Option<BatchEncodeFn<T>>,
    error: NetErrorCell,
    frames_out: Arc<AtomicU64>,
    bytes_out: Arc<AtomicU64>,
    encode_ns: Arc<AtomicU64>,
    blocked_write_ns: Arc<AtomicU64>,
    /// Frames written, kept locally for the 1-in-64 timing decision.
    seen: u64,
}

/// Every 64th frame through a [`NetSink`] has its encode and write
/// wall-clock timed (matching the stage latency sampling policy), so the
/// `encode_ns` / `blocked_write_ns` counters attribute where a serve
/// session spends time without paying `Instant::now` per frame.
const SINK_SAMPLE_MASK: u64 = 63;

impl<W: Write + Send, T> NetSink<W, T> {
    /// A sink encoding records with `encode` into `writer`; transport
    /// errors are mirrored into `error`.
    pub fn new(writer: FrameWriter<W>, encode: EncodeFn<T>, error: NetErrorCell) -> Self {
        NetSink {
            writer,
            encode,
            encode_batch: None,
            error,
            frames_out: Arc::new(AtomicU64::new(0)),
            bytes_out: Arc::new(AtomicU64::new(0)),
            encode_ns: Arc::new(AtomicU64::new(0)),
            blocked_write_ns: Arc::new(AtomicU64::new(0)),
            seen: 0,
        }
    }

    /// Installs a whole-batch encoder: batches delivered via
    /// `write_batch` are serialized as ONE frame (encode once, one
    /// syscall-sized write) instead of one frame per record. Singleton
    /// and empty batches still go through the per-record path, so
    /// per-tuple consumers see no format change at batch size 1.
    pub fn with_batch_encode(mut self, encode_batch: BatchEncodeFn<T>) -> Self {
        self.encode_batch = Some(encode_batch);
        self
    }

    /// A live counter of frames written so far — shareable with session
    /// metrics.
    pub fn frames_out_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.frames_out)
    }

    /// A live counter of bytes written so far, including framing
    /// overhead.
    pub fn bytes_out_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.bytes_out)
    }

    /// Sampled (1-in-64) nanoseconds spent in the encode closure.
    pub fn encode_ns_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.encode_ns)
    }

    /// Sampled (1-in-64) nanoseconds spent inside `write` on the
    /// underlying transport — time blocked on the peer (or the kernel
    /// send buffer) rather than on encoding.
    pub fn blocked_write_ns_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.blocked_write_ns)
    }

    fn fail(&self, error: NetError) -> ! {
        let typed = StageError::new("net_sink", error.failure_kind(), error.to_string());
        self.error.record(error);
        std::panic::panic_any(typed);
    }
}

impl<W: Write + Send, T: Send> Sink<T> for NetSink<W, T> {
    fn write(&mut self, record: T) {
        let sampled = self.seen & SINK_SAMPLE_MASK == 0;
        self.seen += 1;
        let frame = if sampled {
            let start = std::time::Instant::now();
            let frame = (self.encode)(&record);
            self.encode_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            frame
        } else {
            (self.encode)(&record)
        };
        self.bytes_out
            .fetch_add(frame.wire_len() as u64, Ordering::Relaxed);
        let result = if sampled {
            let start = std::time::Instant::now();
            let result = self.writer.write(&frame);
            self.blocked_write_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            result
        } else {
            self.writer.write(&frame)
        };
        if let Err(e) = result {
            self.fail(e);
        }
        self.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    fn write_batch(&mut self, batch: Vec<T>) {
        // No batch encoder, or a batch too small to amortize the frame
        // header: the per-record path keeps the wire identical to what
        // per-tuple consumers already parse.
        if self.encode_batch.is_none() || batch.len() < 2 {
            for record in batch {
                self.write(record);
            }
            return;
        }
        let sampled = self.seen & SINK_SAMPLE_MASK == 0;
        self.seen += 1;
        let encode_batch = self.encode_batch.as_mut().expect("checked above");
        let frame = if sampled {
            let start = std::time::Instant::now();
            let frame = encode_batch(&batch);
            self.encode_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            frame
        } else {
            encode_batch(&batch)
        };
        self.bytes_out
            .fetch_add(frame.wire_len() as u64, Ordering::Relaxed);
        let result = if sampled {
            let start = std::time::Instant::now();
            let result = self.writer.write(&frame);
            self.blocked_write_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            result
        } else {
            self.writer.write(&frame)
        };
        if let Err(e) = result {
            self.fail(e);
        }
        self.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    fn finish(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.fail(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn binary_reader(bytes: Vec<u8>, max: usize) -> FrameReader<Cursor<Vec<u8>>> {
        FrameReader::new(Cursor::new(bytes), WireFormat::Binary, max)
    }

    #[test]
    fn binary_frames_round_trip() {
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf, WireFormat::Binary);
            w.write(&WireFrame::Binary {
                tag: 7,
                payload: b"hello".to_vec(),
            })
            .unwrap();
            w.write(&WireFrame::Binary {
                tag: 2,
                payload: Vec::new(),
            })
            .unwrap();
            w.flush().unwrap();
        }
        let mut r = binary_reader(buf, 1024);
        assert_eq!(
            r.read().unwrap(),
            Some(WireFrame::Binary {
                tag: 7,
                payload: b"hello".to_vec()
            })
        );
        assert_eq!(
            r.read().unwrap(),
            Some(WireFrame::Binary {
                tag: 2,
                payload: Vec::new()
            })
        );
        assert_eq!(r.read().unwrap(), None, "clean EOF at a frame boundary");
    }

    #[test]
    fn ndjson_lines_round_trip() {
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf, WireFormat::Ndjson);
            w.write(&WireFrame::Line("{\"a\":1}".into())).unwrap();
            w.write(&WireFrame::Line("{\"end\":true}".into())).unwrap();
        }
        let mut r = FrameReader::new(Cursor::new(buf), WireFormat::Ndjson, 1024);
        assert_eq!(r.read().unwrap(), Some(WireFrame::Line("{\"a\":1}".into())));
        assert_eq!(
            r.read().unwrap(),
            Some(WireFrame::Line("{\"end\":true}".into()))
        );
        assert_eq!(r.read().unwrap(), None);
    }

    #[test]
    fn oversized_binary_frame_is_rejected_before_buffering() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes()); // 4 GiB announced
        let mut r = binary_reader(buf, 64);
        assert!(matches!(
            r.read().unwrap_err(),
            NetError::Oversized { max: 64, .. }
        ));
    }

    #[test]
    fn oversized_line_is_rejected_mid_scan() {
        let line = vec![b'x'; 200]; // no newline at all
        let mut r = FrameReader::new(Cursor::new(line), WireFormat::Ndjson, 64);
        assert!(matches!(r.read().unwrap_err(), NetError::Oversized { .. }));
    }

    #[test]
    fn eof_inside_a_frame_is_disconnected() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 8 payload bytes
        let mut r = binary_reader(buf, 1024);
        assert_eq!(r.read().unwrap_err(), NetError::Disconnected);

        // An NDJSON line cut off before its newline, likewise.
        let mut r = FrameReader::new(Cursor::new(b"{\"a\":1".to_vec()), WireFormat::Ndjson, 1024);
        assert_eq!(r.read().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn invalid_utf8_line_is_malformed() {
        let mut r = FrameReader::new(
            Cursor::new(vec![0xff, 0xfe, b'\n']),
            WireFormat::Ndjson,
            1024,
        );
        assert!(matches!(r.read().unwrap_err(), NetError::Malformed { .. }));
    }

    #[test]
    fn net_source_poisons_with_typed_error_on_disconnect() {
        let reader = binary_reader(Vec::new(), 1024); // immediate EOF, no end frame
        let cell = NetErrorCell::new();
        let mut source: NetSource<_, u32> =
            NetSource::new(reader, Box::new(|_| Ok(NetPoll::End)), cell.clone());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| source.next()))
            .expect_err("EOF without end frame must poison");
        let typed = StageError::from_panic("stage/03_source", caught);
        assert_eq!(typed.kind, FailureKind::Disconnect);
        assert_eq!(cell.get(), Some(NetError::Disconnected));
    }

    #[test]
    fn net_source_decodes_records_until_end() {
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf, WireFormat::Binary);
            for v in [10u8, 20, 30] {
                w.write(&WireFrame::Binary {
                    tag: 1,
                    payload: vec![v],
                })
                .unwrap();
            }
            w.write(&WireFrame::Binary {
                tag: 2,
                payload: Vec::new(),
            })
            .unwrap();
        }
        let mut source: NetSource<_, u8> = NetSource::new(
            binary_reader(buf, 1024),
            Box::new(|frame| match frame {
                WireFrame::Binary { tag: 1, payload } => Ok(NetPoll::Record(payload[0])),
                WireFrame::Binary { tag: 2, .. } => Ok(NetPoll::End),
                _ => Err(NetError::malformed("unexpected frame")),
            }),
            NetErrorCell::new(),
        );
        let frames = source.frames_in_handle();
        let mut got = Vec::new();
        while let Some(v) = source.next() {
            got.push(v);
        }
        assert_eq!(got, vec![10, 20, 30]);
        assert_eq!(frames.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn net_sink_writes_frames_and_flushes() {
        let buf: Vec<u8> = Vec::new();
        let cell = NetErrorCell::new();
        let mut sink: NetSink<_, u8> = NetSink::new(
            FrameWriter::new(buf, WireFormat::Binary),
            Box::new(|v: &u8| WireFrame::Binary {
                tag: 3,
                payload: vec![*v],
            }),
            cell.clone(),
        );
        sink.write(9);
        sink.write(8);
        sink.finish();
        assert_eq!(sink.frames_out_handle().load(Ordering::Relaxed), 2);
        // Two binary frames of 1 payload byte: (1 tag + 4 len + 1) each.
        assert_eq!(sink.bytes_out_handle().load(Ordering::Relaxed), 12);
        assert!(cell.get().is_none());
    }

    #[test]
    fn net_sink_batch_encoder_emits_one_frame_per_batch() {
        let buf: Vec<u8> = Vec::new();
        let mut sink: NetSink<_, u8> = NetSink::new(
            FrameWriter::new(buf, WireFormat::Binary),
            Box::new(|v: &u8| WireFrame::Binary {
                tag: 3,
                payload: vec![*v],
            }),
            NetErrorCell::new(),
        )
        .with_batch_encode(Box::new(|batch: &[u8]| WireFrame::Binary {
            tag: 7,
            payload: batch.to_vec(),
        }));
        let frames_out = sink.frames_out_handle();
        let bytes_out = sink.bytes_out_handle();
        sink.write_batch(vec![1, 2, 3]);
        assert_eq!(frames_out.load(Ordering::Relaxed), 1, "one frame, not 3");
        // One frame: 1 tag + 4 len + 3 payload bytes.
        assert_eq!(bytes_out.load(Ordering::Relaxed), 8);
        // Singletons take the per-record path: same wire as unbatched.
        sink.write_batch(vec![9]);
        assert_eq!(frames_out.load(Ordering::Relaxed), 2);
        assert_eq!(bytes_out.load(Ordering::Relaxed), 14);
        sink.finish();
    }

    #[test]
    fn net_sink_without_batch_encoder_falls_back_per_record() {
        let buf: Vec<u8> = Vec::new();
        let mut sink: NetSink<_, u8> = NetSink::new(
            FrameWriter::new(buf, WireFormat::Binary),
            Box::new(|v: &u8| WireFrame::Binary {
                tag: 3,
                payload: vec![*v],
            }),
            NetErrorCell::new(),
        );
        sink.write_batch(vec![1, 2, 3]);
        assert_eq!(sink.frames_out_handle().load(Ordering::Relaxed), 3);
    }

    #[test]
    fn net_sink_poisons_on_broken_pipe() {
        /// A writer that fails every write like a closed socket.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let cell = NetErrorCell::new();
        let mut sink: NetSink<_, u8> = NetSink::new(
            FrameWriter::new(Broken, WireFormat::Binary),
            Box::new(|v: &u8| WireFrame::Binary {
                tag: 3,
                payload: vec![*v],
            }),
            cell.clone(),
        );
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.write(1)))
            .expect_err("write to a dead peer must poison");
        let typed = StageError::from_panic("stage/00_sink", caught);
        assert_eq!(typed.kind, FailureKind::Disconnect);
        assert_eq!(cell.get(), Some(NetError::Disconnected));
    }

    #[test]
    fn wire_format_parses() {
        assert_eq!(WireFormat::parse("ndjson"), Some(WireFormat::Ndjson));
        assert_eq!(WireFormat::parse("binary"), Some(WireFormat::Binary));
        assert_eq!(WireFormat::parse("msgpack"), None);
        assert_eq!(WireFormat::Binary.as_str(), "binary");
    }

    #[test]
    fn decoder_pops_frames_across_arbitrary_pushes() {
        let mut dec = FrameDecoder::new(WireFormat::Binary, 1024);
        let bytes = frame_bytes(&WireFrame::Binary {
            tag: 3,
            payload: vec![9, 8, 7],
        });
        // One byte at a time: no frame until the last byte lands.
        for b in &bytes[..bytes.len() - 1] {
            dec.push(&[*b]);
            assert!(dec.next().unwrap().is_none());
        }
        dec.push(&bytes[bytes.len() - 1..]);
        assert_eq!(
            dec.next().unwrap(),
            Some(WireFrame::Binary {
                tag: 3,
                payload: vec![9, 8, 7]
            })
        );
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_switches_format_with_residual_bytes() {
        // A handshake line with binary data sent right behind it —
        // the exact shape a non-blocking session read produces.
        let mut dec = FrameDecoder::new(WireFormat::Ndjson, 1024);
        let mut bytes = frame_bytes(&WireFrame::Line("{\"hello\":true}".into()));
        bytes.extend_from_slice(&frame_bytes(&WireFrame::Binary {
            tag: 1,
            payload: vec![42],
        }));
        dec.push(&bytes);
        assert_eq!(
            dec.next().unwrap(),
            Some(WireFrame::Line("{\"hello\":true}".into()))
        );
        dec.set_format(WireFormat::Binary);
        assert_eq!(
            dec.next().unwrap(),
            Some(WireFrame::Binary {
                tag: 1,
                payload: vec![42]
            })
        );
    }

    #[test]
    fn decoder_enforces_cap_before_buffering() {
        // Binary: the announced length alone trips the cap.
        let mut dec = FrameDecoder::new(WireFormat::Binary, 16);
        let mut header = vec![3u8];
        header.extend_from_slice(&1_000_000u32.to_le_bytes());
        dec.push(&header);
        assert!(matches!(
            dec.next(),
            Err(NetError::Oversized {
                len: 1_000_000,
                max: 16
            })
        ));
        // NDJSON: a newline-less run past the cap fails without
        // waiting for the terminator.
        let mut dec = FrameDecoder::new(WireFormat::Ndjson, 16);
        dec.push(&[b'x'; 17]);
        assert!(matches!(dec.next(), Err(NetError::Oversized { .. })));
    }

    #[test]
    fn decoder_rejects_invalid_utf8_lines() {
        let mut dec = FrameDecoder::new(WireFormat::Ndjson, 64);
        dec.push(&[0xFF, 0xFE, b'\n']);
        assert!(matches!(dec.next(), Err(NetError::Malformed { .. })));
    }

    #[test]
    fn write_queue_resumes_partial_writes() {
        /// A writer that accepts two bytes, pushes back once, then
        /// accepts the rest — a miniature slow reader.
        struct Trickle {
            out: Vec<u8>,
            calls: usize,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls == 2 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(2);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut q = WriteQueue::new();
        q.push(Arc::from(&b"abcdef"[..]));
        q.push(Arc::from(&b"gh"[..]));
        let mut w = Trickle {
            out: Vec::new(),
            calls: 0,
        };
        assert!(!q.write_to(&mut w).unwrap()); // parked on WouldBlock
        assert_eq!(q.pending(), 6);
        while !q.write_to(&mut w).unwrap() {}
        assert_eq!(w.out, b"abcdefgh");
        assert!(q.is_empty());
        assert_eq!(q.pending(), 0);
    }

    mod split_properties {
        use super::*;
        use proptest::prelude::*;

        /// Deterministically builds a frame sequence from a seed:
        /// binary frames with varied tags/payloads or NDJSON lines.
        fn frames_from(seed: u64, count: usize, format: WireFormat) -> Vec<WireFrame> {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            (0..count)
                .map(|i| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    match format {
                        WireFormat::Binary => WireFrame::Binary {
                            tag: (state % 7) as u8 + 1,
                            payload: (0..(state % 40) as usize)
                                .map(|j| (state as usize + i + j) as u8)
                                .collect(),
                        },
                        WireFormat::Ndjson => {
                            WireFrame::Line(format!("{{\"i\":{i},\"s\":{}}}", state % 1000))
                        }
                    }
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Core partial-read property: however the byte stream is
            /// split — including zero-length reads standing in for
            /// `WouldBlock` — the decoder yields the identical frame
            /// sequence, in order, with no corruption.
            #[test]
            fn decoder_survives_arbitrary_split_boundaries(
                seed in 0u64..u64::MAX,
                count in 0usize..20,
                fmt in 0u8..2,
                chunk_seed in 0u64..u64::MAX,
            ) {
                let format = if fmt == 0 { WireFormat::Binary } else { WireFormat::Ndjson };
                let frames = frames_from(seed, count, format);
                let bytes: Vec<u8> = frames.iter().flat_map(frame_bytes).collect();

                let mut dec = FrameDecoder::new(format, 1 << 20);
                let mut got = Vec::new();
                let mut pos = 0usize;
                let mut cstate = chunk_seed | 1;
                while pos < bytes.len() {
                    cstate = cstate
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    // 0 stands in for a read that returned WouldBlock.
                    let step = (cstate % 9) as usize;
                    let end = (pos + step).min(bytes.len());
                    dec.push(&bytes[pos..end]);
                    pos = end;
                    while let Some(frame) = dec.next().unwrap() {
                        got.push(frame);
                    }
                }
                prop_assert_eq!(got, frames);
                prop_assert_eq!(dec.buffered(), 0);
            }

            /// The incremental decoder agrees byte-for-byte with the
            /// blocking `FrameReader` over the same stream.
            #[test]
            fn decoder_matches_frame_reader(
                seed in 0u64..u64::MAX,
                count in 1usize..16,
                fmt in 0u8..2,
            ) {
                let format = if fmt == 0 { WireFormat::Binary } else { WireFormat::Ndjson };
                let frames = frames_from(seed, count, format);
                let bytes: Vec<u8> = frames.iter().flat_map(frame_bytes).collect();

                let mut reader =
                    FrameReader::new(Cursor::new(bytes.clone()), format, DEFAULT_MAX_FRAME_BYTES);
                let mut via_reader = Vec::new();
                while let Some(f) = reader.read().unwrap() {
                    via_reader.push(f);
                }

                let mut dec = FrameDecoder::new(format, DEFAULT_MAX_FRAME_BYTES);
                dec.push(&bytes);
                let mut via_decoder = Vec::new();
                while let Some(f) = dec.next().unwrap() {
                    via_decoder.push(f);
                }
                prop_assert_eq!(via_reader, via_decoder);
            }

            /// A `WriteQueue` fed through a transport that accepts
            /// arbitrary partial writes and interleaves `WouldBlock`
            /// reproduces the exact byte stream.
            #[test]
            fn write_queue_survives_partial_writes(
                seed in 0u64..u64::MAX,
                count in 0usize..12,
                fmt in 0u8..2,
                chunk_seed in 0u64..u64::MAX,
            ) {
                struct Choppy {
                    out: Vec<u8>,
                    state: u64,
                }
                impl Write for Choppy {
                    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                        self.state = self
                            .state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        match self.state % 7 {
                            0 => Err(std::io::ErrorKind::WouldBlock.into()),
                            1 => Err(std::io::ErrorKind::Interrupted.into()),
                            r => {
                                let n = buf.len().min(r as usize);
                                self.out.extend_from_slice(&buf[..n]);
                                Ok(n)
                            }
                        }
                    }
                    fn flush(&mut self) -> std::io::Result<()> {
                        Ok(())
                    }
                }

                let format = if fmt == 0 { WireFormat::Binary } else { WireFormat::Ndjson };
                let frames = frames_from(seed, count, format);
                let bytes: Vec<u8> = frames.iter().flat_map(frame_bytes).collect();

                let mut q = WriteQueue::new();
                for f in &frames {
                    q.push(Arc::from(frame_bytes(f).into_boxed_slice()));
                }
                let mut w = Choppy { out: Vec::new(), state: chunk_seed | 1 };
                while !q.write_to(&mut w).unwrap() {}
                prop_assert_eq!(w.out, bytes);
            }
        }
    }
}
