//! The event-driven session core (Linux).
//!
//! One [`Poller`] (epoll) watches every connection; a worker pool sized
//! to cores drives per-connection state machines through the phases
//!
//! ```text
//! accept → Handshake → Stream ————————————→ Closing → (Linger) → close
//!                    ↘ Subscribe ————————↗
//!                    ↘ Telemetry ———————————————————————————————→ close
//!        ↘ rejections ———————————————————↗
//! ```
//!
//! Every registration is one-shot: a readiness event parks the socket
//! until the worker that handled it re-arms, so at most one worker ever
//! drives a given connection and the per-connection mutex is
//! uncontended on the hot path.
//!
//! **A session executes while it uploads.** The plan is opened at
//! handshake as a `StreamingSession` (`PhysicalPlan::open_streaming`,
//! or `open_streaming_lowered` on a binary wire: the same loop offline
//! runs feed, with the reactor in the place of the input), and one
//! drive of the `Stream` phase is read → decode → push → encode →
//! write: every decoded frame goes through the plan at once, what the
//! sorter releases is encoded into the outbox in the same step, and the
//! drive ends by writing the outbox out. Served output is
//! byte-identical to offline by construction — there is one engine,
//! fed by a loop offline and by the socket here.
//!
//! What a session can hold is therefore bounded, whatever its length
//! and however its client behaves: one read chunk plus an incomplete
//! frame of undecoded input (up to [`READ_BUDGET`] when the client
//! pipelined data behind its handshake), one frame's decoded rows, what
//! the plan itself holds (one watermark period per sub-stream, plus the
//! tuples a delay polluter keeps back), and one outbox window. While
//! the outbox is at [`OUTBOX_HIGH`] the connection is armed for
//! writability only and nothing more is read or decoded, so a client
//! that does not read its output is throttled by TCP flow control on
//! its own upload — never buffered. [`READ_BUDGET`] is also the
//! execution quantum: a session that still has input after that many
//! bytes yields its worker and is re-driven behind its neighbours.
//!
//! Every reply-then-close path — rejections and error frames — is a
//! lingering close: flush, shut the write side, then read and discard
//! until the peer closes (or a small byte/time budget runs out). Closing
//! a socket with unread input makes the kernel answer with a reset,
//! which can overtake the reply the peer was meant to read.
//!
//! Shared streams: a `pollute` session with a `stream` name publishes
//! its encoded output frames (`Arc<[u8]>`) into a hub as they are
//! encoded; `subscribe` sessions naming the same stream get the same
//! buffers cloned into their write queues — encode once, fan out to
//! every session sharing the plan.
//!
//! Telemetry: the poll loop also ticks the server's [`TelemetrySampler`]
//! every `telemetry_interval_ms` — its wait never outlasts the next
//! tick — and wakes every `telemetry` session the way a publish wakes
//! subscribers. A woken session whose outbox has room queues one frame
//! carrying the newest tick; one whose client stops reading skips ticks
//! instead of buffering them, and drain ends it at once.

#![cfg(target_os = "linux")]

use crate::poll::{Poller, EPOLLIN, EPOLLOUT};
use crate::protocol::{
    decode_client_frame_typed, decode_column_batch, decode_tuple_columns, encode_error_frame,
    encode_released_frames, encode_report_frame, encode_telemetry_frame, write_stamped_line,
    Handshake, HandshakeReply, SessionErrorFrame, TelemetryFrame, TAG_TUPLE_COLUMNS,
};
use crate::server::{HubState, Server, SessionCounters, SessionRow, Shared};
use icewafl_core::{ReleasedRow, StreamingSession};
use icewafl_obs::TelemetrySampler;
use icewafl_stream::net::{
    frame_bytes, FrameDecoder, NetError, NetPoll, WireFormat, WireFrame, WriteQueue,
};
use icewafl_types::{Error, Result, Schema};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's epoll token; session ids start at 1.
const LISTENER_TOKEN: u64 = 0;

/// How long one `epoll_wait` may park before shutdown/SIGINT and the
/// linger deadlines are re-checked (less when a telemetry tick is due
/// sooner).
const POLL_TIMEOUT_MS: i32 = 25;

/// Connection-table shards (token-hashed) so session churn never
/// contends on one map lock.
const CONN_SHARDS: usize = 16;

/// Read chunk per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

/// Per-drive read budget, and with it the execution quantum: a firehose
/// client yields the worker back to the pool after this many bytes have
/// been read and run through its plan (its socket re-arms immediately).
const READ_BUDGET: usize = 1 << 20;

/// Outbox high-water mark: while this many bytes are queued for a
/// client, nothing more of its input is decoded or read, so a slow
/// reader holds one window of encoded frames, not its output stream.
const OUTBOX_HIGH: usize = 256 * 1024;

/// Encoded output worth a `write(2)` of its own: once a session's first
/// output is out, a drive writes each time this much has been queued, so
/// output flows while the drive is still working, at a syscall per chunk
/// rather than per frame.
const WRITE_CHUNK: usize = 64 * 1024;

/// A lingering close discards at most this much unread input …
const LINGER_BYTES: usize = 2 * READ_BUDGET;

/// … and waits at most this long for the peer to close its side.
const LINGER_TIMEOUT: Duration = Duration::from_millis(500);

/// Sample 1-in-N encodes for the `encode_ns` telemetry counter.
const ENCODE_SAMPLE_MASK: u64 = 63;

/// What a session ultimately was, counted once at close.
enum SessionResult {
    Completed,
    Failed { protocol: bool },
}

/// Lifecycle phase of one connection's state machine.
enum Phase {
    /// Waiting for the one NDJSON handshake line.
    Handshake,
    /// Reading frames, pushing them through the session's plan, and
    /// encoding what it releases, until the end frame.
    Stream,
    /// Pulling pre-serialized frames from a shared-stream hub.
    Subscribe,
    /// Sending the sampler's newest tick each time the poll loop takes
    /// one, until the client leaves or the server drains.
    Telemetry,
    /// Nothing left to produce: flush the outbox, then close.
    Closing,
    /// Reply flushed and write side shut: discarding what the peer
    /// still sends until it closes or the budget is spent.
    Linger,
    /// Socket closed and slot released; terminal.
    Closed,
}

/// One connection's full state. Only ever touched under its slot mutex.
struct Conn {
    id: u64,
    sock: TcpStream,
    decoder: FrameDecoder,
    outbox: WriteQueue,
    phase: Phase,
    format: WireFormat,
    /// Session schema NDJSON tuple lines are typed against as they are
    /// read (`None` on binary, which is typed on the wire).
    line_schema: Option<Schema>,
    /// The open plan of a `Stream`-phase session.
    session: Option<Box<StreamingSession>>,
    /// How the read side ended, once it has: nothing more will arrive.
    read_end: Option<NetError>,
    /// Parked because the outbox is full; the decoder may still hold
    /// whole frames, so readability is not what this session waits for.
    stalled: bool,
    /// Close by [lingering](Phase::Linger): the peer was sent a reply
    /// it may not have asked for yet (a rejection, an error frame).
    linger: bool,
    /// When a lingering close gives up on the peer.
    linger_deadline: Option<Instant>,
    /// Whether this connection holds a capacity slot.
    counts_active: bool,
    /// Registered in the session table (row removed at close).
    in_table: bool,
    /// Shared with the session's table row.
    counters: Arc<SessionCounters>,
    /// Hub this session publishes to (pollute + `stream`).
    publish: Option<Arc<Mutex<HubState>>>,
    /// Hub this session subscribes to, plus its read cursor.
    subscribe: Option<(Arc<Mutex<HubState>>, usize)>,
    /// Stream name for hub-map cleanup at close.
    stream_name: Option<String>,
    /// A telemetry session's cursor: the last sampler tick it sent (or
    /// found at handshake).
    telemetry: Option<u64>,
    /// Set when parked on a full socket; elapsed time lands in
    /// `blocked_write_ns` on the next drive.
    blocked_since: Option<Instant>,
    result: Option<SessionResult>,
    frames_encoded: u64,
    /// Where a session's released chunks are encoded before they are
    /// queued: as long as the longest chunk so far.
    scratch: Vec<u8>,
}

impl Conn {
    fn new(id: u64, sock: TcpStream, max_frame: usize, counts_active: bool) -> Self {
        Conn {
            id,
            sock,
            decoder: FrameDecoder::new(WireFormat::Ndjson, max_frame),
            outbox: WriteQueue::new(),
            phase: Phase::Handshake,
            format: WireFormat::Ndjson,
            line_schema: None,
            session: None,
            read_end: None,
            stalled: false,
            linger: false,
            linger_deadline: None,
            counts_active,
            in_table: false,
            counters: Arc::default(),
            publish: None,
            subscribe: None,
            stream_name: None,
            telemetry: None,
            blocked_since: None,
            result: None,
            frames_encoded: 0,
            scratch: Vec::new(),
        }
    }

    fn queue_line<T: serde::Serialize>(&mut self, value: &T) {
        let line = serde_json::to_string(value).expect("protocol frames are always serializable");
        self.outbox.push(Arc::from(
            frame_bytes(&WireFrame::Line(line)).into_boxed_slice(),
        ));
    }

    /// Lists the session in the telemetry table as `kind`.
    fn enter_table(&mut self, shared: &Shared, kind: &'static str) {
        shared.register_session(
            self.id,
            SessionRow {
                kind,
                format: self.format,
                counters: Arc::clone(&self.counters),
            },
        );
        self.in_table = true;
    }

    /// Turns the peer away: the reason as a handshake reply, then a
    /// lingering close (its handshake, or more, may still be unread).
    fn reject(&mut self, shared: &Shared, reason: impl Into<String>) -> Step {
        shared.counter("serve/sessions_rejected").inc();
        self.queue_line(&HandshakeReply::rejected(reason));
        self.phase = Phase::Closing;
        self.linger = true;
        Step::Park
    }
}

/// A connection slot: the raw fd (stable, readable without the lock)
/// plus the state machine.
struct Slot {
    fd: RawFd,
    conn: Mutex<Conn>,
}

/// A tiny blocking work queue (tokens → workers). `std::sync::Condvar`
/// because the vendored `parking_lot` has no condvar; this lock is held
/// for queue ops only, never across a drive.
struct WorkQueue {
    state: std::sync::Mutex<(VecDeque<u64>, bool)>,
    ready: std::sync::Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            state: std::sync::Mutex::new((VecDeque::new(), false)),
            ready: std::sync::Condvar::new(),
        }
    }

    fn push(&self, token: u64) {
        let mut state = self.state.lock().unwrap();
        state.0.push_back(token);
        drop(state);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.state.lock().unwrap().1 = true;
        self.ready.notify_all();
    }

    /// Blocks for the next token; `None` once closed and empty.
    fn pop(&self) -> Option<u64> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(token) = state.0.pop_front() {
                return Some(token);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }
}

/// Everything the poller thread and the workers share.
struct Reactor {
    poller: Poller,
    shared: Arc<Shared>,
    conns: Vec<Mutex<HashMap<u64, Arc<Slot>>>>,
    conn_count: AtomicUsize,
    queue: WorkQueue,
    /// Lingering closes by deadline, oldest first (the timeout is one
    /// constant, so arrival order is deadline order).
    lingering: Mutex<VecDeque<(Instant, u64)>>,
    /// Ticked by the poll loop only; telemetry sessions read its newest
    /// tick.
    sampler: Mutex<TelemetrySampler>,
    /// Tokens of open telemetry sessions, woken at every tick.
    telemetry: Mutex<Vec<u64>>,
    /// Set once drain starts: a session that becomes a telemetry
    /// session after the drain sweep ends at its first step.
    draining: AtomicBool,
}

impl Reactor {
    fn shard(&self, token: u64) -> &Mutex<HashMap<u64, Arc<Slot>>> {
        &self.conns[(token as usize) % CONN_SHARDS]
    }

    fn slot(&self, token: u64) -> Option<Arc<Slot>> {
        self.shard(token).lock().get(&token).map(Arc::clone)
    }

    fn insert(&self, token: u64, slot: Arc<Slot>) {
        self.shard(token).lock().insert(token, slot);
        self.conn_count.fetch_add(1, Ordering::SeqCst);
    }

    fn remove(&self, token: u64) {
        if self.shard(token).lock().remove(&token).is_some() {
            self.conn_count.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Wakes a parked subscriber so it pulls newly published frames, or
    /// a telemetry session so it sends a new tick.
    /// The target's lock is held across the re-arm so the fd cannot be
    /// closed (and its number reused) mid-kick.
    fn kick(&self, token: u64) {
        if let Some(slot) = self.slot(token) {
            let conn = slot.conn.lock();
            if !matches!(conn.phase, Phase::Closed) {
                let _ = self.poller.rearm(slot.fd, token, EPOLLIN | EPOLLOUT);
            }
        }
    }

    /// Hands lingering closes whose time is up to the workers: no
    /// socket event will come for a peer that neither sends nor closes.
    fn expire_lingering(&self) {
        let now = Instant::now();
        let mut lingering = self.lingering.lock();
        while lingering
            .front()
            .is_some_and(|(deadline, _)| *deadline <= now)
        {
            let (_, token) = lingering.pop_front().expect("front checked above");
            self.queue.push(token);
        }
    }

    /// Takes the sampler's next tick on the server's clock and wakes
    /// every telemetry session to send it.
    fn tick_telemetry(&self) {
        let at_ms = self.shared.started.elapsed().as_millis() as u64;
        self.sampler.lock().tick(&self.shared.registry, at_ms);
        // A copy: `kick` takes connection locks, under which `settle`
        // takes this list's.
        let tokens = self.telemetry.lock().clone();
        for token in tokens {
            self.kick(token);
        }
    }
}

/// The server's event loop: accepts, polls, dispatches to workers,
/// drains on shutdown. Runs on the thread that called [`Server::run`].
pub(crate) fn run(server: &Server) -> Result<()> {
    let shared = server.shared_arc();
    let poller = Poller::new()
        .map_err(|e| Error::config(format_args!("cannot create the event poller: {e}")))?;
    let listener = server.listener();
    poller
        .register_level(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)
        .map_err(|e| Error::config(format_args!("cannot register the listener: {e}")))?;

    let workers = match shared.workers {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    let rt = Arc::new(Reactor {
        poller,
        shared: Arc::clone(&shared),
        conns: (0..CONN_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
        conn_count: AtomicUsize::new(0),
        queue: WorkQueue::new(),
        lingering: Mutex::new(VecDeque::new()),
        sampler: Mutex::new(TelemetrySampler::new(Duration::from_millis(
            shared.telemetry_interval_ms,
        ))),
        telemetry: Mutex::new(Vec::new()),
        draining: AtomicBool::new(false),
    });
    let mut worker_threads = Vec::with_capacity(workers);
    for i in 0..workers {
        let worker = Arc::clone(&rt);
        let spawned = std::thread::Builder::new()
            .name(format!("icewafl-worker-{i}"))
            .spawn(move || {
                while let Some(token) = worker.queue.pop() {
                    if let Some(slot) = worker.slot(token) {
                        drive(&worker, &slot, token);
                    }
                }
            });
        match spawned {
            Ok(handle) => worker_threads.push(handle),
            Err(e) => {
                rt.queue.close();
                for handle in worker_threads {
                    let _ = handle.join();
                }
                return Err(Error::config(format_args!(
                    "cannot start reactor worker {i}: {e}"
                )));
            }
        }
    }

    let mut events = Vec::with_capacity(256);
    let mut draining = false;
    let interval = Duration::from_millis(shared.telemetry_interval_ms);
    let mut next_tick = Instant::now() + interval;
    let run_result = loop {
        if !draining && server.stop_requested() {
            draining = true;
            rt.draining.store(true, Ordering::SeqCst);
            let _ = rt.poller.deregister(listener.as_raw_fd());
            fail_orphan_subscribers(&rt);
            end_telemetry_sessions(&rt);
        }
        if draining && rt.conn_count.load(Ordering::SeqCst) == 0 {
            break Ok(());
        }
        rt.expire_lingering();
        let now = Instant::now();
        if now >= next_tick {
            rt.tick_telemetry();
            next_tick += interval;
            // Behind schedule: skip to the present rather than firing a
            // catch-up burst.
            if next_tick < now {
                next_tick = now + interval;
            }
        }
        let to_tick = next_tick
            .saturating_duration_since(now)
            .as_micros()
            .div_ceil(1000);
        let timeout = POLL_TIMEOUT_MS.min(to_tick.try_into().unwrap_or(i32::MAX));
        events.clear();
        if let Err(e) = rt.poller.wait(&mut events, timeout) {
            break Err(Error::config(format_args!("event poll failed: {e}")));
        }
        let mut accept_err = None;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                if let Err(e) = accept_ready(&rt, server, draining) {
                    accept_err = Some(e);
                }
            } else {
                rt.queue.push(ev.token);
            }
        }
        if let Some(e) = accept_err {
            break Err(e);
        }
    };

    rt.queue.close();
    for handle in worker_threads {
        let _ = handle.join();
    }
    run_result
}

/// Accepts every pending connection (the listener is level-triggered
/// and non-blocking).
fn accept_ready(rt: &Arc<Reactor>, server: &Server, draining: bool) -> Result<()> {
    loop {
        match server.listener().accept() {
            Ok((sock, _peer)) => {
                if !draining {
                    accept_one(rt, server, sock);
                }
                // Mid-drain stragglers are dropped unanswered, exactly
                // like the races the blocking accept loop always had.
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::config(format_args!("accept failed: {e}"))),
        }
    }
}

/// Books one accepted connection in: capacity check, slot insert, epoll
/// registration.
fn accept_one(rt: &Arc<Reactor>, server: &Server, sock: TcpStream) {
    let shared = &rt.shared;
    let id = server.next_session_id();
    shared.counter("serve/connections_total").inc();
    let _ = sock.set_nodelay(true);
    if sock.set_nonblocking(true).is_err() {
        shared.counter("serve/sessions_rejected").inc();
        return;
    }

    let at_capacity = shared.active.load(Ordering::SeqCst) >= shared.max_sessions;
    let mut conn = Conn::new(id, sock, shared.max_frame_bytes, !at_capacity);
    let interest = if at_capacity {
        conn.reject(shared, "server at capacity");
        EPOLLOUT
    } else {
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.registry.gauge("serve/sessions_active").add(1);
        EPOLLIN
    };

    let fd = conn.sock.as_raw_fd();
    let slot = Arc::new(Slot {
        fd,
        conn: Mutex::new(conn),
    });
    // Insert before registering: a worker may get the first event the
    // instant the fd is armed.
    rt.insert(id, Arc::clone(&slot));
    if rt.poller.register(fd, id, interest).is_err() {
        let mut conn = slot.conn.lock();
        close_conn(rt, &mut conn);
    }
}

/// On drain start, sessions subscribed to a stream that never got a
/// publisher would wait forever; fail them so the drain completes.
fn fail_orphan_subscribers(rt: &Arc<Reactor>) {
    let tokens: Vec<u64> = rt
        .conns
        .iter()
        .flat_map(|shard| shard.lock().keys().copied().collect::<Vec<_>>())
        .collect();
    for token in tokens {
        let Some(slot) = rt.slot(token) else { continue };
        let mut conn = slot.conn.lock();
        let orphaned = matches!(conn.phase, Phase::Subscribe)
            && conn
                .subscribe
                .as_ref()
                .is_some_and(|(hub, _)| !hub.lock().has_publisher);
        if orphaned {
            fail_session(
                rt,
                &mut conn,
                "subscribe",
                "disconnect",
                "server drained before a publisher appeared".into(),
                None,
            );
            drive_flush_and_rearm(rt, &slot, &mut conn);
        }
    }
}

/// On drain start, every telemetry session ends at once, completed: it
/// would otherwise stream until its client left, and what its outbox
/// still holds is not worth waiting for.
fn end_telemetry_sessions(rt: &Arc<Reactor>) {
    let tokens = rt.telemetry.lock().clone();
    for token in tokens {
        if let Some(slot) = rt.slot(token) {
            close_conn(rt, &mut slot.conn.lock());
        }
    }
}

// ---------------------------------------------------------------------
// The per-connection drive
// ---------------------------------------------------------------------

/// What a phase step decided.
enum Step {
    /// Phase advanced; run the next phase's step in the same drive.
    Continue,
    /// Park: flush what's queued and re-arm with the phase's interest.
    Park,
    /// The connection is finished (already closed).
    Done,
}

/// Drives one connection as far as it can go without blocking, then
/// flushes and re-arms. The slot mutex is held throughout, so drives,
/// publisher kicks, and closes are mutually serialized per connection.
fn drive(rt: &Arc<Reactor>, slot: &Arc<Slot>, token: u64) {
    let mut conn = slot.conn.lock();
    if matches!(conn.phase, Phase::Closed) {
        return;
    }
    if let Some(parked_at) = conn.blocked_since.take() {
        conn.counters
            .blocked_write_ns
            .fetch_add(parked_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    debug_assert_eq!(conn.id, token);
    loop {
        let step = match conn.phase {
            Phase::Handshake => step_handshake(rt, &mut conn),
            Phase::Stream => step_stream(rt, &mut conn),
            Phase::Subscribe => step_subscribe(rt, &mut conn),
            Phase::Telemetry => step_telemetry(rt, &mut conn),
            Phase::Closing => Step::Park,
            Phase::Linger => step_linger(rt, &mut conn),
            Phase::Closed => Step::Done,
        };
        match step {
            Step::Continue => continue,
            Step::Park => break,
            Step::Done => return,
        }
    }
    drive_flush_and_rearm(rt, slot, &mut conn);
}

/// Common drive tail: push queued bytes, then close, re-queue or
/// re-arm.
fn drive_flush_and_rearm(rt: &Arc<Reactor>, slot: &Arc<Slot>, conn: &mut Conn) {
    if matches!(conn.phase, Phase::Closed) {
        return;
    }
    match conn.outbox.write_to(&mut &conn.sock) {
        Ok(true) => {
            if matches!(conn.phase, Phase::Closing) {
                if !conn.linger {
                    close_conn(rt, conn);
                    return;
                }
                begin_linger(rt, conn);
            }
        }
        Ok(false) => {
            conn.blocked_since = Some(Instant::now());
        }
        Err(_) => {
            peer_gone(rt, conn);
            return;
        }
    }
    let stalled = std::mem::take(&mut conn.stalled);
    if stalled && conn.outbox.pending() < OUTBOX_HIGH {
        // The flush above made the room this session was waiting for,
        // and what it would go on with is already in its decoder: no
        // socket event need ever come.
        rt.queue.push(conn.id);
        return;
    }
    let mut interest = match conn.phase {
        // Writability only: nothing more is read until there is room.
        Phase::Stream if stalled => 0,
        Phase::Handshake | Phase::Stream | Phase::Linger => EPOLLIN,
        Phase::Closing => EPOLLOUT,
        // Subscribers and telemetry sessions watch for hangup; EPOLLOUT
        // only while indebted — otherwise a publisher's or the
        // sampler's kick re-arms the write side.
        Phase::Subscribe | Phase::Telemetry => EPOLLIN,
        Phase::Closed => return,
    };
    if !conn.outbox.is_empty() {
        interest |= EPOLLOUT;
    }
    if rt.poller.rearm(slot.fd, conn.id, interest).is_err() {
        close_conn(rt, conn);
    }
}

/// A write failed: the peer is gone, and whatever it was still owed is
/// moot. A session that had completed its plan now counts as failed on
/// the wire (like the sink poison path); one that already failed keeps
/// its original classification.
fn peer_gone(rt: &Arc<Reactor>, conn: &mut Conn) {
    // A telemetry client leaving is how its session is meant to end.
    if matches!(conn.result, Some(SessionResult::Completed))
        && !matches!(conn.phase, Phase::Telemetry)
    {
        conn.result = Some(SessionResult::Failed { protocol: true });
    }
    close_conn(rt, conn);
}

/// What one `read(2)` brought.
enum ReadChunk {
    /// This many bytes.
    Bytes(usize),
    /// Nothing for now.
    WouldBlock,
    /// Nothing ever again: end of file ([`NetError::Disconnected`]) or
    /// a socket error.
    End(NetError),
}

/// One `read(2)` into `buf`.
fn read_chunk(mut sock: &TcpStream, buf: &mut [u8]) -> ReadChunk {
    loop {
        match sock.read(buf) {
            Ok(0) => return ReadChunk::End(NetError::Disconnected),
            Ok(n) => return ReadChunk::Bytes(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadChunk::WouldBlock,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return ReadChunk::End(NetError::from_io(&e)),
        }
    }
}

/// Reads one chunk into the connection's decoder.
fn read_into_decoder(conn: &mut Conn) -> ReadChunk {
    let mut buf = [0u8; READ_CHUNK];
    let read = read_chunk(&conn.sock, &mut buf);
    if let ReadChunk::Bytes(n) = read {
        conn.decoder.push(&buf[..n]);
        conn.counters
            .gauges
            .input_hwm
            .fetch_max(conn.decoder.buffered() as u64, Ordering::Relaxed);
    }
    read
}

/// Reads everything available, up to the drive budget; `Some` once the
/// read side has ended.
fn read_available(conn: &mut Conn) -> Option<NetError> {
    let mut budget = READ_BUDGET;
    while budget > 0 {
        match read_into_decoder(conn) {
            ReadChunk::Bytes(n) => budget = budget.saturating_sub(n),
            ReadChunk::WouldBlock => break,
            ReadChunk::End(e) => return Some(e),
        }
    }
    None
}

/// Subscribers and telemetry clients send nothing after their
/// handshake: reads and discards what they send anyway, so a hangup is
/// seen on the read side. `true` once the read side has ended.
fn discard_input(conn: &mut Conn) -> bool {
    let ended = read_available(conn).is_some();
    if conn.decoder.buffered() > 0 {
        let _ = conn.decoder.take_residual();
    }
    ended
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

fn step_handshake(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    let shared = Arc::clone(&rt.shared);
    conn.read_end = read_available(conn);
    let frame = match conn.decoder.next() {
        Ok(Some(frame)) => frame,
        Ok(None) => {
            if conn.read_end.is_some() {
                // Disconnected before (or instead of) a handshake line.
                shared.counter("serve/sessions_rejected").inc();
                close_conn(rt, conn);
                return Step::Done;
            }
            return Step::Park;
        }
        Err(e) => {
            shared.counter("serve/protocol_errors").inc();
            return conn.reject(&shared, format!("bad handshake: {e}"));
        }
    };
    let WireFrame::Line(line) = frame else {
        unreachable!("the handshake decoder is NDJSON");
    };
    let hs: Handshake = match serde_json::from_str(&line) {
        Ok(hs) => hs,
        Err(e) => {
            shared.counter("serve/protocol_errors").inc();
            return conn.reject(&shared, format!("bad handshake: {e}"));
        }
    };

    match hs.session.as_deref() {
        None | Some("pollute") => open_pollute(&shared, conn, &hs),
        Some("telemetry") => open_telemetry(rt, &shared, conn, &hs),
        Some("subscribe") => open_subscribe(&shared, conn, &hs),
        Some(other) => conn.reject(
            &shared,
            format!("unknown session type `{other}` (expected pollute, subscribe, or telemetry)"),
        ),
    }
}

fn open_pollute(shared: &Arc<Shared>, conn: &mut Conn, hs: &Handshake) -> Step {
    let (mut plan, format) = match crate::server::resolve(hs, &shared.plans) {
        Ok(resolved) => resolved,
        Err(reason) => return conn.reject(shared, reason),
    };
    // Checkpointing plans get a per-session WAL subdirectory: sessions
    // sharing a checkpoint dir must not overwrite each other's WAL.
    plan.scope_checkpoint_dir(&format!("session_{}", conn.id));
    // Binary frames carry typed columns: a plan that can stay in
    // columns from decode to encode does.
    let session = match format {
        WireFormat::Binary => plan.open_streaming_lowered(),
        WireFormat::Ndjson => plan.open_streaming(),
    };
    let session = match session {
        Ok(session) => Box::new(session),
        Err(e) => return conn.reject(shared, format!("plan cannot start: {e}")),
    };

    // Publisher registration (shared-stream fan-out).
    if let Some(name) = &hs.stream {
        let hub = Arc::clone(
            shared
                .hubs
                .lock()
                .entry(name.clone())
                .or_insert_with(|| Arc::new(Mutex::new(HubState::default()))),
        );
        {
            let mut state = hub.lock();
            if state.has_publisher {
                return conn.reject(shared, format!("stream `{name}` already has a publisher"));
            }
            state.has_publisher = true;
            state.format = Some(format);
        }
        conn.publish = Some(hub);
        conn.stream_name = Some(name.clone());
    }

    conn.queue_line(&HandshakeReply::accepted(
        conn.id,
        "sequential".into(),
        plan.logical().substreams(),
    ));
    conn.format = format;
    conn.enter_table(shared, "pollute");
    conn.line_schema = match format {
        WireFormat::Ndjson => Some(plan.schema().clone()),
        WireFormat::Binary => None,
    };
    conn.session = Some(session);
    conn.decoder.set_format(format);
    conn.phase = Phase::Stream;
    // Re-enter the loop: frames the client pipelined behind its
    // handshake are already sitting in the decoder.
    Step::Continue
}

fn open_subscribe(shared: &Arc<Shared>, conn: &mut Conn, hs: &Handshake) -> Step {
    let format = match hs.wire_format() {
        Ok(format) => format,
        Err(reason) => return conn.reject(shared, reason),
    };
    let Some(name) = &hs.stream else {
        return conn.reject(shared, "subscribe sessions must name a `stream`");
    };
    let hub = Arc::clone(
        shared
            .hubs
            .lock()
            .entry(name.clone())
            .or_insert_with(|| Arc::new(Mutex::new(HubState::default()))),
    );
    hub.lock().subscribers.push(conn.id);
    conn.subscribe = Some((hub, 0));
    conn.stream_name = Some(name.clone());
    conn.format = format;
    conn.queue_line(&HandshakeReply::accepted(conn.id, "subscribe".into(), 0));
    conn.enter_table(shared, "subscribe");
    conn.phase = Phase::Subscribe;
    Step::Continue
}

/// A telemetry session lists itself in the table it reports, so its
/// client always sees at least its own row, and starts from the
/// sampler's next tick.
fn open_telemetry(
    rt: &Arc<Reactor>,
    shared: &Arc<Shared>,
    conn: &mut Conn,
    hs: &Handshake,
) -> Step {
    let format = match hs.wire_format() {
        Ok(format) => format,
        Err(reason) => return conn.reject(shared, reason),
    };
    conn.format = format;
    conn.queue_line(&HandshakeReply::accepted(conn.id, "telemetry".into(), 0));
    conn.enter_table(shared, "telemetry");
    conn.telemetry = Some(rt.sampler.lock().latest().map_or(0, |d| d.seq));
    rt.telemetry.lock().push(conn.id);
    // Nothing it can do fails it: however it ends, it completed.
    conn.result = Some(SessionResult::Completed);
    conn.phase = Phase::Telemetry;
    Step::Continue
}

fn release_active(shared: &Arc<Shared>, conn: &mut Conn) {
    if std::mem::take(&mut conn.counts_active) {
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.registry.gauge("serve/sessions_active").sub(1);
    }
}

// ---------------------------------------------------------------------
// Stream: read → decode → push → encode, one frame at a time
// ---------------------------------------------------------------------

fn step_stream(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    let mut budget = READ_BUDGET;
    // A session's first output goes out as soon as the plan releases
    // it — a client waiting for it waits for nothing else — and chunks
    // follow.
    let mut awaiting_first = conn.frames_encoded == 0;
    // The outbox level at which the next write is due.
    let mut write_at = if awaiting_first { 1 } else { WRITE_CHUNK };
    loop {
        // Run what is decoded through the plan, while its output has
        // somewhere to go.
        loop {
            if conn.outbox.pending() >= write_at.min(OUTBOX_HIGH) {
                if conn.outbox.write_to(&mut &conn.sock).is_err() {
                    peer_gone(rt, conn);
                    return Step::Done;
                }
                if conn.outbox.pending() >= OUTBOX_HIGH {
                    conn.stalled = true;
                    return Step::Park;
                }
                if awaiting_first && conn.frames_encoded > 0 {
                    awaiting_first = false;
                    // A socket write wakes a reader on this machine as
                    // if its writer were about to sleep: on this CPU,
                    // without preempting. A worker that goes on
                    // computing would keep a local client from its
                    // first output until the drive ends, so step aside
                    // once.
                    std::thread::yield_now();
                }
                // Whatever the socket would not take waits for another
                // chunk's worth of company.
                write_at = conn.outbox.pending() + if awaiting_first { 1 } else { WRITE_CHUNK };
            }
            match conn.decoder.next() {
                Ok(Some(frame)) => match feed(rt, conn, frame) {
                    Ok(true) => {}
                    Ok(false) => return Step::Continue,
                    Err(e) => return fail_ingest(rt, conn, e),
                },
                Ok(None) => break,
                Err(e) => return fail_ingest(rt, conn, e),
            }
        }
        // The decoder needs more bytes.
        if let Some(e) = conn.read_end.take() {
            return fail_ingest(rt, conn, e);
        }
        if budget == 0 {
            // Quantum spent: yield the worker; the re-arm reports
            // readiness again immediately.
            return Step::Park;
        }
        match read_into_decoder(conn) {
            ReadChunk::Bytes(n) => budget = budget.saturating_sub(n),
            ReadChunk::WouldBlock => return Step::Park,
            // What is already buffered may still hold the end frame.
            ReadChunk::End(e) => conn.read_end = Some(e),
        }
    }
}

/// Runs one client frame through the session's plan and encodes what
/// that released. `Ok(false)` once the session is over (the end frame,
/// or a failure inside the plan) and its tail frame is queued.
fn feed(
    rt: &Arc<Reactor>,
    conn: &mut Conn,
    frame: WireFrame,
) -> std::result::Result<bool, NetError> {
    let session = conn
        .session
        .as_mut()
        .expect("a streaming session has an open plan");
    match frame {
        // A lowered session takes a frame that fits the schema as one
        // typed batch. The payload is dropped before the frame runs,
        // as the tuple decoder drops it.
        WireFrame::Binary {
            tag: TAG_TUPLE_COLUMNS,
            payload,
        } if session.lowered() => match decode_column_batch(&payload, session.schema())? {
            Some(batch) => {
                drop(payload);
                session.push_batch(batch);
            }
            None => {
                let tuples = decode_tuple_columns(&payload)?;
                drop(payload);
                for t in tuples {
                    session.push(t);
                }
            }
        },
        frame => match decode_client_frame_typed(frame, conn.line_schema.as_ref())? {
            NetPoll::Record(t) => session.push(t),
            NetPoll::Batch(batch) => {
                for t in batch {
                    session.push(t);
                }
            }
            NetPoll::End => {
                finish_session(rt, conn);
                return Ok(false);
            }
        },
    }
    let failed = session.is_failed();
    conn.counters.frames_in.fetch_add(1, Ordering::Relaxed);
    if failed {
        finish_session(rt, conn);
        return Ok(false);
    }
    emit_released(rt, conn);
    Ok(true)
}

/// Encodes everything the plan has released into the outbox (and the
/// hub, for a publisher).
fn emit_released(rt: &Arc<Reactor>, conn: &mut Conn) {
    let session = conn
        .session
        .as_mut()
        .expect("a streaming session has an open plan");
    let encoded = encode_released(
        conn.format,
        &mut conn.scratch,
        conn.frames_encoded,
        |emit| {
            session.drain(emit);
        },
    );
    queue_output(rt, conn, encoded);
}

/// Encoded output frames: one buffer per released chunk.
#[derive(Default)]
struct Encoded {
    chunks: Vec<Arc<[u8]>>,
    rows: usize,
    frames: u64,
    /// Time spent encoding the buffers whose first frame is a 1-in-64
    /// sample point of the session's frames.
    sampled_ns: u64,
}

impl Encoded {
    /// Adds one buffer, encoded by `encode` (which returns its bytes
    /// and frame count), counting from the session's `first` frame.
    fn push(&mut self, first: u64, rows: usize, encode: impl FnOnce() -> (Arc<[u8]>, u64)) {
        let sampled = (first + self.frames) & ENCODE_SAMPLE_MASK == 0;
        let t0 = sampled.then(Instant::now);
        let (bytes, frames) = encode();
        if let Some(t0) = t0 {
            self.sampled_ns += t0.elapsed().as_nanos() as u64;
        }
        self.chunks.push(bytes);
        self.rows += rows;
        self.frames += frames;
    }
}

/// Encodes every chunk a session hands out through `drain`, straight
/// from where its rows live, each chunk into `scratch` and from there
/// into a buffer of its exact size; `first` is the session's next
/// frame number. On a binary wire a run of two or more rows of one
/// arity is one columnar frame and a single row one per-tuple frame;
/// NDJSON is one line per row.
fn encode_released(
    format: WireFormat,
    scratch: &mut Vec<u8>,
    first: u64,
    drain: impl FnOnce(&mut dyn FnMut(&[ReleasedRow<'_>])),
) -> Encoded {
    let mut encoded = Encoded::default();
    drain(&mut |chunk| {
        encoded.push(first, chunk.len(), || match format {
            WireFormat::Binary => {
                scratch.clear();
                let frames = encode_released_frames(scratch, chunk);
                (Arc::from(&scratch[..]), frames)
            }
            WireFormat::Ndjson => {
                scratch.clear();
                // An empty buffer converts without a scan, keeping its
                // capacity for the lines.
                let mut text = String::from_utf8(std::mem::take(scratch)).unwrap_or_default();
                for row in chunk {
                    match row {
                        ReleasedRow::Tuple(t) => write_stamped_line(t, &mut text),
                        ReleasedRow::Column(..) => write_stamped_line(&row.to_stamped(), &mut text),
                    }
                    text.push('\n');
                }
                let bytes = Arc::from(text.as_bytes());
                *scratch = text.into_bytes();
                (bytes, chunk.len() as u64)
            }
        });
    });
    encoded
}

/// Queues encoded output frames, counting them.
fn queue_output(rt: &Arc<Reactor>, conn: &mut Conn, encoded: Encoded) {
    if encoded.chunks.is_empty() {
        return;
    }
    if encoded.sampled_ns > 0 {
        conn.counters
            .encode_ns
            .fetch_add(encoded.sampled_ns, Ordering::Relaxed);
    }
    let gauges = &conn.counters.gauges;
    gauges
        .units_hwm
        .fetch_max(encoded.rows as u64, Ordering::Relaxed);
    conn.frames_encoded += encoded.frames;
    conn.counters
        .frames_out
        .fetch_add(encoded.frames, Ordering::Relaxed);
    for bytes in encoded.chunks {
        conn.counters
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        publish_frame(rt, conn, &bytes, false);
        conn.outbox.push(bytes);
    }
    conn.counters
        .gauges
        .outbox_hwm
        .fetch_max(conn.outbox.pending() as u64, Ordering::Relaxed);
}

/// The stream is over: flush the plan, send what that released, then
/// the report — or, when the plan failed, the error frame instead.
fn finish_session(rt: &Arc<Reactor>, conn: &mut Conn) {
    let session = conn
        .session
        .take()
        .expect("a streaming session has an open plan");
    let mut outcome = None;
    let encoded = encode_released(
        conn.format,
        &mut conn.scratch,
        conn.frames_encoded,
        |emit| {
            outcome = Some(session.finish(emit));
        },
    );
    queue_output(rt, conn, encoded);
    match outcome.expect("finish ran") {
        Ok(report) => {
            let tail: Arc<[u8]> = Arc::from(
                frame_bytes(&encode_report_frame(&report, conn.format)).into_boxed_slice(),
            );
            publish_frame(rt, conn, &tail, true);
            conn.outbox.push(tail);
            conn.result = Some(SessionResult::Completed);
            conn.phase = Phase::Closing;
        }
        Err(error) => {
            let (stage, kind, message) = match error {
                Error::Pipeline {
                    stage,
                    kind,
                    message,
                } => (stage, kind, message),
                other => ("session".into(), "fatal".into(), other.to_string()),
            };
            fail_session(rt, conn, &stage, &kind, message, None);
        }
    }
}

/// A typed transport failure mid-stream: answer with an error frame
/// naming stage `net_source`, the failure kind of `e` (`fatal` for a
/// malformed or oversized frame, `disconnect` for a vanished peer or a
/// socket error) and its transport code. What the client has been sent
/// so far is a prefix of the session's output.
fn fail_ingest(rt: &Arc<Reactor>, conn: &mut Conn, e: NetError) -> Step {
    fail_session(
        rt,
        conn,
        "net_source",
        e.failure_kind().as_str(),
        e.to_string(),
        Some(e.code().to_string()),
    );
    Step::Continue
}

/// Queues the tail error frame and records the failure. A plan still
/// open is abandoned: poisoned, its workers joined, its unsent output
/// dropped.
fn fail_session(
    rt: &Arc<Reactor>,
    conn: &mut Conn,
    stage: &str,
    kind: &str,
    message: String,
    protocol: Option<String>,
) {
    let frame = SessionErrorFrame {
        stage: stage.into(),
        kind: kind.into(),
        message,
        protocol: protocol.clone(),
    };
    conn.result = Some(SessionResult::Failed {
        protocol: protocol.is_some(),
    });
    drop(conn.session.take());
    let bytes: Arc<[u8]> =
        Arc::from(frame_bytes(&encode_error_frame(&frame, conn.format)).into_boxed_slice());
    publish_frame(rt, conn, &bytes, true);
    conn.outbox.push(bytes);
    conn.phase = Phase::Closing;
    conn.linger = true;
}

/// Appends an encoded frame to this session's hub (if it publishes) and
/// kicks subscribers; `done` marks the stream complete.
fn publish_frame(rt: &Arc<Reactor>, conn: &mut Conn, bytes: &Arc<[u8]>, done: bool) {
    let Some(hub) = &conn.publish else { return };
    let waiting: Vec<u64> = {
        let mut state = hub.lock();
        state.frames.push(Arc::clone(bytes));
        if done {
            state.done = true;
        }
        state.subscribers.clone()
    };
    for token in waiting {
        rt.kick(token);
    }
}

// ---------------------------------------------------------------------
// Subscribe
// ---------------------------------------------------------------------

fn step_subscribe(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    if discard_input(conn) {
        conn.result = Some(SessionResult::Failed { protocol: true });
        close_conn(rt, conn);
        return Step::Done;
    }

    let Some((hub, cursor)) = conn.subscribe.clone() else {
        close_conn(rt, conn);
        return Step::Done;
    };
    let mut cursor = cursor;
    let finished = {
        let state = hub.lock();
        if let Some(hub_format) = state.format {
            if hub_format != conn.format {
                drop(state);
                fail_session(
                    rt,
                    conn,
                    "subscribe",
                    "fatal",
                    format!(
                        "stream format mismatch: publisher speaks {}, subscriber asked for {}",
                        hub_format.as_str(),
                        conn.format.as_str()
                    ),
                    None,
                );
                return Step::Continue;
            }
        }
        while cursor < state.frames.len() && conn.outbox.pending() < OUTBOX_HIGH {
            let bytes = Arc::clone(&state.frames[cursor]);
            cursor += 1;
            conn.counters.frames_out.fetch_add(1, Ordering::Relaxed);
            conn.counters
                .bytes_out
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            conn.outbox.push(bytes);
        }
        state.done && cursor == state.frames.len()
    };
    conn.subscribe = Some((hub, cursor));
    if finished {
        conn.result = Some(SessionResult::Completed);
        conn.phase = Phase::Closing;
    }
    Step::Park
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

fn step_telemetry(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    if discard_input(conn) || rt.draining.load(Ordering::SeqCst) {
        close_conn(rt, conn);
        return Step::Done;
    }
    // A client that is not reading skips ticks: it is sent the newest
    // one once its outbox has room again.
    if conn.outbox.pending() >= OUTBOX_HIGH {
        return Step::Park;
    }
    let after = conn.telemetry.unwrap_or(0);
    let Some(delta) = rt
        .sampler
        .lock()
        .latest()
        .filter(|d| d.seq > after)
        .cloned()
    else {
        return Step::Park;
    };
    let shared = &rt.shared;
    conn.telemetry = Some(delta.seq);
    conn.frames_encoded += 1;
    let frame = TelemetryFrame {
        seq: conn.frames_encoded,
        at_ms: shared.started.elapsed().as_millis() as u64,
        interval_ms: shared.telemetry_interval_ms,
        delta: Some(delta),
        sessions: shared.session_table(),
    };
    let bytes: Arc<[u8]> =
        Arc::from(frame_bytes(&encode_telemetry_frame(&frame, conn.format)).into_boxed_slice());
    let counters = &conn.counters;
    counters.frames_out.fetch_add(1, Ordering::Relaxed);
    counters
        .bytes_out
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    shared.counter("serve/telemetry_frames").inc();
    conn.outbox.push(bytes);
    counters
        .gauges
        .outbox_hwm
        .fetch_max(conn.outbox.pending() as u64, Ordering::Relaxed);
    Step::Park
}

// ---------------------------------------------------------------------
// Close
// ---------------------------------------------------------------------

/// The reply is on the wire: account for the session now, shut the
/// write side so the peer reads end of file behind the reply, and keep
/// the read side open until the peer is done sending.
fn begin_linger(rt: &Arc<Reactor>, conn: &mut Conn) {
    settle(rt, conn);
    let _ = conn.sock.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + LINGER_TIMEOUT;
    conn.linger_deadline = Some(deadline);
    conn.phase = Phase::Linger;
    rt.lingering.lock().push_back((deadline, conn.id));
}

/// Reads and discards until the peer closes, or has sent
/// [`LINGER_BYTES`], or [`LINGER_TIMEOUT`] has passed.
fn step_linger(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    let mut buf = [0u8; READ_CHUNK];
    let mut discarded = 0;
    let peer_done = loop {
        match read_chunk(&conn.sock, &mut buf) {
            ReadChunk::Bytes(n) => {
                discarded += n;
                if discarded >= LINGER_BYTES {
                    break true;
                }
            }
            ReadChunk::WouldBlock => break false,
            ReadChunk::End(_) => break true,
        }
    };
    if peer_done || conn.linger_deadline.is_some_and(|d| d <= Instant::now()) {
        close_conn(rt, conn);
        return Step::Done;
    }
    Step::Park
}

/// Final bookkeeping for one session: result counters, global frame
/// counters, session-table row, capacity slot, hub detach. Runs once,
/// when the session's last byte has been written or its peer is gone.
fn settle(rt: &Arc<Reactor>, conn: &mut Conn) {
    let shared = Arc::clone(&rt.shared);

    match conn.result.take() {
        Some(SessionResult::Completed) => {
            shared.counter("serve/sessions_completed").inc();
        }
        Some(SessionResult::Failed { protocol }) => {
            shared.counter("serve/sessions_failed").inc();
            if protocol {
                shared.counter("serve/protocol_errors").inc();
            }
        }
        None => {}
    }
    let frames_in = conn.counters.frames_in.swap(0, Ordering::Relaxed);
    let frames_out = conn.counters.frames_out.swap(0, Ordering::Relaxed);
    if frames_in > 0 {
        shared.counter("serve/frames_in").add(frames_in);
    }
    if frames_out > 0 {
        shared.counter("serve/frames_out").add(frames_out);
    }

    if std::mem::take(&mut conn.in_table) {
        shared.remove_session(conn.id);
    }
    if conn.telemetry.take().is_some() {
        rt.telemetry.lock().retain(|t| *t != conn.id);
    }
    release_active(&shared, conn);
    // A plan abandoned mid-stream (peer gone): poison it, join its
    // workers.
    drop(conn.session.take());

    // Publisher: seal the hub (synthesizing a failure frame if the
    // stream never completed) and retire the name.
    if let Some(hub) = conn.publish.take() {
        let waiting: Vec<u64> = {
            let mut state = hub.lock();
            if !state.done {
                let frame = SessionErrorFrame {
                    stage: "publisher".into(),
                    kind: "disconnect".into(),
                    message: "publisher session ended before completing its stream".into(),
                    protocol: None,
                };
                let format = state.format.unwrap_or(WireFormat::Binary);
                state.frames.push(Arc::from(
                    frame_bytes(&encode_error_frame(&frame, format)).into_boxed_slice(),
                ));
                state.done = true;
            }
            state.has_publisher = false;
            state.subscribers.clone()
        };
        if let Some(name) = &conn.stream_name {
            shared.hubs.lock().remove(name);
        }
        for token in waiting {
            rt.kick(token);
        }
    }
    // Subscriber: detach, and garbage-collect a publisher-less hub
    // placeholder once the last subscriber leaves.
    if let Some((hub, _)) = conn.subscribe.take() {
        let id = conn.id;
        let empty = {
            let mut state = hub.lock();
            state.subscribers.retain(|t| *t != id);
            state.subscribers.is_empty() && !state.has_publisher
        };
        if empty {
            if let Some(name) = &conn.stream_name {
                let mut hubs = shared.hubs.lock();
                if hubs.get(name).is_some_and(|h| Arc::ptr_eq(h, &hub)) {
                    hubs.remove(name);
                }
            }
        }
    }
}

/// Closes one connection: [`settle`]s it if that is still to do, then
/// epoll deregistration and the socket. Safe to call from any phase;
/// idempotent via the `Closed` phase.
fn close_conn(rt: &Arc<Reactor>, conn: &mut Conn) {
    if matches!(conn.phase, Phase::Closed) {
        return;
    }
    conn.phase = Phase::Closed;
    settle(rt, conn);
    let _ = rt.poller.deregister(conn.sock.as_raw_fd());
    let _ = conn.sock.shutdown(std::net::Shutdown::Both);
    rt.remove(conn.id);
}
