//! Network transport for streams: the frame codec.
//!
//! Two wire formats are supported, chosen per connection:
//!
//! * **NDJSON** — one JSON text per `\n`-terminated line. Human-
//!   readable, trivially scriptable with `nc`/`jq`.
//! * **Binary** — length-prefixed frames `[tag: u8][len: u32 LE]
//!   [payload]`. Compact and copy-friendly for high-rate sessions.
//!
//! Frames are read by a blocking [`FrameReader`] or an incremental
//! [`FrameDecoder`], and written by a [`FrameWriter`] or queued as
//! bytes in a [`WriteQueue`].
//!
//! This module is deliberately *payload-agnostic*: it moves
//! [`WireFrame`]s, not tuples. The mapping between frames and records
//! is the caller's (the `serve` crate provides the icewafl session
//! protocol on top). That keeps the stream crate free of any
//! serialization dependency.
//!
//! Protocol failures are **typed, never truncating**: a malformed
//! frame, an oversized frame, or a peer disconnect is a [`NetError`],
//! never a silently shortened stream, and
//! [`NetError::failure_kind`] classifies it for the failure protocol
//! (see [`fault`](crate::fault)).

use crate::fault::FailureKind;
use std::io::{BufRead, IoSlice, Write};
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
/// Each step of [`write_to`] hands the transport up to
/// [`WRITE_IOVECS`] queued buffers in one vectored write (one
/// `writev(2)` on a socket), so a drive that queued many frames pays
/// for few syscalls.
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
    /// copied). An empty buffer is not queued.
    pub fn push(&mut self, bytes: Arc<[u8]>) {
        if bytes.is_empty() {
            return;
        }
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
        while !self.bufs.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITE_IOVECS];
            let mut count = 0;
            for ((buf, offset), slice) in self.bufs.iter().zip(&mut slices) {
                *slice = IoSlice::new(&buf[*offset..]);
                count += 1;
            }
            match writer.write_vectored(&slices[..count]) {
                Ok(0) => {
                    return Err(NetError::Io {
                        detail: "transport accepted zero bytes".into(),
                    })
                }
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::from_io(&e)),
            }
        }
        Ok(true)
    }

    /// Forgets the first `n` queued bytes, which the transport took:
    /// whole buffers are dropped, a partly written one keeps its
    /// offset.
    fn consume(&mut self, mut n: usize) {
        self.pending -= n;
        while n > 0 {
            let (buf, offset) = self
                .bufs
                .front_mut()
                .expect("a transport takes no more than it was offered");
            let left = buf.len() - *offset;
            if n < left {
                *offset += n;
                return;
            }
            n -= left;
            self.bufs.pop_front();
        }
    }
}

/// Most queued buffers one [`WriteQueue::write_to`] step offers the
/// transport.
pub const WRITE_IOVECS: usize = 64;

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

            /// The same through a transport whose vectored writes take
            /// an arbitrary prefix of what they are offered — ending
            /// mid-buffer or exactly at a buffer's end — or push back:
            /// the bytes it receives are the queued buffers, in order.
            /// More buffers than one step offers are queued, small ones
            /// and empty ones among them.
            #[test]
            fn write_queue_survives_partial_vectored_writes(
                sizes_seed in 0u64..u64::MAX,
                count in 0usize..(3 * WRITE_IOVECS),
                chunk_seed in 0u64..u64::MAX,
            ) {
                struct Gather {
                    out: Vec<u8>,
                    state: u64,
                    most_offered: usize,
                }
                impl Gather {
                    fn next(&mut self) -> u64 {
                        self.state = self
                            .state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        self.state >> 17
                    }
                }
                impl Write for Gather {
                    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                        self.write_vectored(&[IoSlice::new(buf)])
                    }
                    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                        self.most_offered = self.most_offered.max(bufs.len());
                        let total: usize = bufs.iter().map(|b| b.len()).sum();
                        let n = match self.next() % 5 {
                            0 => return Err(std::io::ErrorKind::WouldBlock.into()),
                            1 => total,
                            // Up to the end of one of the offered buffers.
                            2 => {
                                let upto = (self.next() as usize) % bufs.len();
                                bufs[..=upto].iter().map(|b| b.len()).sum()
                            }
                            _ => 1 + (self.next() as usize) % total.max(1),
                        };
                        let mut left = n.min(total);
                        let taken = left;
                        for b in bufs {
                            let k = left.min(b.len());
                            self.out.extend_from_slice(&b[..k]);
                            left -= k;
                        }
                        Ok(taken)
                    }
                    fn flush(&mut self) -> std::io::Result<()> {
                        Ok(())
                    }
                }

                let mut state = sizes_seed | 1;
                let buffers: Vec<Vec<u8>> = (0..count)
                    .map(|i| {
                        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        let len = [0, 1, 3, 64, 700][(state >> 33) as usize % 5];
                        (0..len).map(|k| (i * 31 + k) as u8).collect()
                    })
                    .collect();
                let mut q = WriteQueue::new();
                for b in &buffers {
                    q.push(Arc::from(b.as_slice()));
                }
                prop_assert_eq!(q.pending(), buffers.iter().map(Vec::len).sum::<usize>());
                let mut w = Gather { out: Vec::new(), state: chunk_seed | 1, most_offered: 0 };
                while !q.write_to(&mut w).unwrap() {}
                prop_assert_eq!(w.out, buffers.concat());
                prop_assert!(q.is_empty());
                prop_assert_eq!(q.pending(), 0);
                prop_assert!(w.most_offered <= WRITE_IOVECS);
            }
        }
    }
}
