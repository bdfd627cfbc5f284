//! The multi-client streaming server.
//!
//! [`Server::bind`] opens a listener; [`Server::run`] serves sessions
//! until shutdown is requested (via the
//! [handle](Server::shutdown_handle) or [SIGINT](crate::signal)) and
//! then drains: no new sessions are accepted, in-flight sessions run to
//! completion, and `run` returns once the last one finishes.
//!
//! The session core is event-driven (see the private `reactor`
//! module): one epoll loop watches every socket and a worker pool sized
//! to cores drives per-connection state machines, so thousands of concurrent
//! sessions cost file descriptors and bounded windows, not threads. A
//! session executes while it uploads: its plan is opened at handshake
//! and every decoded frame is pushed through it at once, through the
//! same topology and the same source step an offline run uses — served
//! output is byte-identical to offline by construction. Per-session
//! memory is O(window): a read chunk, an outbox window, and what the
//! plan itself holds (one watermark period per sub-stream, plus the
//! tuples a delay polluter keeps back) — whatever the session's length.
//! epoll makes the server Linux-only: on other platforms the crate
//! builds but [`Server::run`] returns a configuration error.
//!
//! Backpressure: a client that stops reading is not read from either —
//! its session parks on write readiness and TCP flow control throttles
//! its upload, so only that session slows down. A protocol error
//! (malformed frame, oversized frame, mid-stream disconnect) fails
//! only the offending session: what it has been sent so far is a
//! prefix of its output, and an error frame naming the failure kind
//! and transport code follows; every other session is untouched.
//!
//! The [`PlanCatalog`] is immutable behind the shared `Arc` — plan
//! lookups at handshake time are lock-free reads. The per-session
//! telemetry table is sharded (`SESSION_SHARDS` ways) so session
//! churn never contends on a single map lock.

use crate::protocol::{encode_telemetry_frame, Handshake, SessionTelemetry, TelemetryFrame};
use icewafl_core::plan::PhysicalPlan;
use icewafl_core::PlanCatalog;
use icewafl_obs::{MetricsRegistry, TelemetrySampler};
use icewafl_stream::net::{FrameWriter, WireFormat, DEFAULT_MAX_FRAME_BYTES};
use icewafl_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a telemetry session sleeps per slice while waiting for the
/// next frame boundary, so shutdown and SIGINT are noticed promptly.
const TELEMETRY_POLL: Duration = Duration::from_millis(5);

/// Shards of the live session table. Registration and removal hash by
/// session id, so 1k sessions arriving at once spread across 16 locks
/// instead of convoying on one.
const SESSION_SHARDS: usize = 16;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to listen on, e.g. `127.0.0.1:7341`. Port `0` picks a
    /// free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Plans sessions may select by name in their handshake.
    pub plans: PlanCatalog,
    /// Maximum concurrent sessions; further connections are rejected at
    /// handshake time with a capacity error.
    pub max_sessions: usize,
    /// Per-frame size cap, bytes. Oversized frames poison the offending
    /// session before any payload is buffered.
    pub max_frame_bytes: usize,
    /// Interval between registry samples and telemetry frames, in
    /// milliseconds (clamped to at least 1).
    pub telemetry_interval_ms: u64,
    /// Worker threads driving session state machines; `0` sizes the
    /// pool to the machine's cores.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            plans: PlanCatalog::new(),
            max_sessions: 8,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            telemetry_interval_ms: 250,
            workers: 0,
        }
    }
}

/// Live transfer counters one session exposes to the telemetry table.
/// Handles are plain atomics shared with the session's driver, so
/// reading them never touches the session itself.
pub(crate) struct SessionHandles {
    pub(crate) kind: &'static str,
    /// Wire format on the session's socket (`ndjson` / `binary`).
    pub(crate) format: &'static str,
    pub(crate) frames_in: Arc<AtomicU64>,
    pub(crate) frames_out: Arc<AtomicU64>,
    pub(crate) bytes_out: Arc<AtomicU64>,
    pub(crate) encode_ns: Arc<AtomicU64>,
    pub(crate) blocked_write_ns: Arc<AtomicU64>,
    pub(crate) gauges: Arc<SessionGauges>,
}

/// High-water marks of what the server has held for one session at any
/// one time — the three places a client's behaviour could make it hold
/// more. All stay zero on sessions the event-driven core does not run.
#[derive(Default)]
pub(crate) struct SessionGauges {
    /// Bytes read from the socket and not yet decoded.
    pub(crate) input_hwm: AtomicU64,
    /// Rows the plan had released and the server not yet encoded.
    pub(crate) units_hwm: AtomicU64,
    /// Encoded bytes queued for the socket.
    pub(crate) outbox_hwm: AtomicU64,
}

impl SessionHandles {
    fn new(kind: &'static str, format: WireFormat) -> Self {
        SessionHandles {
            kind,
            format: format.as_str(),
            frames_in: Arc::new(AtomicU64::new(0)),
            frames_out: Arc::new(AtomicU64::new(0)),
            bytes_out: Arc::new(AtomicU64::new(0)),
            encode_ns: Arc::new(AtomicU64::new(0)),
            blocked_write_ns: Arc::new(AtomicU64::new(0)),
            gauges: Arc::default(),
        }
    }
}

/// One shared stream: the frames a publisher session has emitted so
/// far, pre-serialized to wire bytes exactly once, plus the subscriber
/// sessions waiting on more. Fan-out clones the `Arc`, never the bytes.
#[derive(Default)]
pub(crate) struct HubState {
    /// Wire format the publisher negotiated (fixed at registration;
    /// mismatched subscribers are failed at pull time).
    pub(crate) format: Option<WireFormat>,
    /// Every frame published so far, in emission order.
    pub(crate) frames: Vec<Arc<[u8]>>,
    /// The publisher finished (tail frame included in `frames`).
    pub(crate) done: bool,
    pub(crate) has_publisher: bool,
    /// Tokens of subscribed sessions, kicked when frames arrive.
    pub(crate) subscribers: Vec<u64>,
}

/// Shared state every session driver sees.
pub(crate) struct Shared {
    pub(crate) plans: PlanCatalog,
    pub(crate) max_sessions: usize,
    pub(crate) max_frame_bytes: usize,
    pub(crate) telemetry_interval_ms: u64,
    pub(crate) workers: usize,
    pub(crate) registry: MetricsRegistry,
    pub(crate) active: AtomicUsize,
    /// Mirrors the server's shutdown flag so long-lived telemetry
    /// sessions stop at drain instead of holding the join forever.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// When the server started, the zero point of frame `at_ms` stamps.
    pub(crate) started: Instant,
    /// Per-session live counters, sharded by session id. Entries appear
    /// when a handshake is accepted and vanish when the session ends.
    sessions: Vec<Mutex<BTreeMap<u64, SessionHandles>>>,
    /// Shared-stream hubs by stream name (see [`HubState`]).
    pub(crate) hubs: Mutex<HashMap<String, Arc<Mutex<HubState>>>>,
    /// The background registry sampler; taken (and thereby joined) at
    /// drain. `None` after drain.
    pub(crate) sampler: Mutex<Option<TelemetrySampler>>,
}

impl Shared {
    pub(crate) fn counter(&self, name: &str) -> icewafl_obs::Counter {
        self.registry.counter(name)
    }

    pub(crate) fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || crate::signal::triggered()
    }

    pub(crate) fn register_session(&self, id: u64, handles: SessionHandles) {
        self.sessions[(id as usize) % SESSION_SHARDS]
            .lock()
            .insert(id, handles);
    }

    pub(crate) fn remove_session(&self, id: u64) {
        self.sessions[(id as usize) % SESSION_SHARDS]
            .lock()
            .remove(&id);
    }

    /// A snapshot of the active-session table, ordered by id.
    pub(crate) fn session_table(&self) -> Vec<SessionTelemetry> {
        let mut rows: Vec<SessionTelemetry> = self
            .sessions
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .iter()
                    .map(|(id, h)| SessionTelemetry {
                        id: *id,
                        kind: h.kind.to_string(),
                        format: h.format.to_string(),
                        frames_in: h.frames_in.load(Ordering::Relaxed),
                        frames_out: h.frames_out.load(Ordering::Relaxed),
                        bytes_out: h.bytes_out.load(Ordering::Relaxed),
                        encode_ns: h.encode_ns.load(Ordering::Relaxed),
                        blocked_write_ns: h.blocked_write_ns.load(Ordering::Relaxed),
                        input_hwm_bytes: h.gauges.input_hwm.load(Ordering::Relaxed),
                        queued_hwm_rows: h.gauges.units_hwm.load(Ordering::Relaxed),
                        outbox_hwm_bytes: h.gauges.outbox_hwm.load(Ordering::Relaxed),
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        rows.sort_by_key(|row| row.id);
        rows
    }
}

/// Removes a session's row from the telemetry table when its driver
/// exits, however it exits.
struct SessionEntry<'a> {
    shared: &'a Shared,
    id: u64,
}

impl<'a> SessionEntry<'a> {
    fn register(shared: &'a Shared, id: u64, handles: SessionHandles) -> Self {
        shared.register_session(id, handles);
        SessionEntry { shared, id }
    }
}

impl Drop for SessionEntry<'_> {
    fn drop(&mut self) {
        self.shared.remove_session(self.id);
    }
}

/// The pollution streaming server. See the [module docs](self) for the
/// lifecycle and [`crate::protocol`] for the wire protocol.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    next_session: AtomicU64,
}

impl Server {
    /// Binds the listener. Serving does not start until
    /// [`run`](Server::run) is called.
    pub fn bind(config: ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| {
            Error::config(format_args!(
                "cannot bind serve address {}: {e}",
                config.addr
            ))
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::config(format_args!("cannot make listener non-blocking: {e}")))?;
        let registry = MetricsRegistry::new();
        registry
            .gauge("serve/max_sessions")
            .set(config.max_sessions as u64);
        let interval_ms = config.telemetry_interval_ms.max(1);
        let sampler = TelemetrySampler::start(&registry, Duration::from_millis(interval_ms))
            .map_err(|e| Error::config(format_args!("cannot start the telemetry sampler: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                plans: config.plans,
                max_sessions: config.max_sessions,
                max_frame_bytes: config.max_frame_bytes,
                telemetry_interval_ms: interval_ms,
                workers: config.workers,
                registry,
                active: AtomicUsize::new(0),
                shutdown: Arc::clone(&shutdown),
                started: Instant::now(),
                sessions: (0..SESSION_SHARDS)
                    .map(|_| Mutex::new(BTreeMap::new()))
                    .collect(),
                hubs: Mutex::new(HashMap::new()),
                sampler: Mutex::new(Some(sampler)),
            }),
            shutdown,
            next_session: AtomicU64::new(0),
        })
    }

    /// The bound address — the actual port when the config asked for
    /// port `0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has a local address")
    }

    /// A handle that stops the accept loop when set; [`run`](Server::run)
    /// then drains in-flight sessions and returns.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The server's metrics registry (`serve/*` counters and gauges).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    pub(crate) fn shared_arc(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    pub(crate) fn listener(&self) -> &TcpListener {
        &self.listener
    }

    pub(crate) fn stop_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || crate::signal::triggered()
    }

    /// Allocates the next session id (ids start at 1; the reactor uses
    /// 0 for its listener token).
    pub(crate) fn next_session_id(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Accepts and serves sessions until the [shutdown
    /// handle](Server::shutdown_handle) is set or [SIGINT
    /// arrives](crate::signal::triggered), then drains: in-flight
    /// sessions run to completion before this returns.
    #[cfg(target_os = "linux")]
    pub fn run(&self) -> Result<()> {
        crate::reactor::run(self)
    }

    /// The event-driven server needs epoll, so elsewhere `run` refuses
    /// to start; the rest of the crate (and the offline CLI) still
    /// builds.
    #[cfg(not(target_os = "linux"))]
    pub fn run(&self) -> Result<()> {
        Err(Error::config(
            "icewafl serve needs Linux: its session core is built on epoll",
        ))
    }
}

/// Writes one JSON value as an NDJSON line straight to the socket
/// (handshake replies and rejections, which precede format
/// negotiation).
pub(crate) fn write_json_line<T: serde::Serialize>(
    mut stream: &TcpStream,
    value: &T,
) -> std::io::Result<()> {
    let line = serde_json::to_string(value).expect("protocol frames are always serializable");
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Resolves a handshake to a compiled plan and wire format, or a
/// rejection reason.
pub(crate) fn resolve(
    hs: &Handshake,
    plans: &PlanCatalog,
) -> std::result::Result<(PhysicalPlan, WireFormat), String> {
    let format = hs.wire_format()?;
    let schema = match (&hs.schema_inline, hs.schema.as_deref()) {
        (Some(schema), _) => schema.clone(),
        (None, Some("wearable")) => icewafl_data::wearable::schema(),
        (None, Some("airquality")) => icewafl_data::airquality::schema(),
        (None, Some(other)) => {
            return Err(format!(
                "unknown schema `{other}` (expected wearable or airquality, or ship schema_inline)"
            ))
        }
        (None, None) => return Err("handshake must carry `schema` or `schema_inline`".into()),
    };
    let logical = match (&hs.plan_inline, hs.plan.as_deref()) {
        (Some(plan), _) => plan.clone(),
        (None, Some(name)) => plans
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown plan `{name}` (available: {:?})", plans.names()))?,
        (None, None) => return Err("handshake must carry `plan` or `plan_inline`".into()),
    };
    let physical = logical
        .compile(&schema)
        .map_err(|e| format!("plan does not compile against the schema: {e}"))?;
    Ok((physical, format))
}

/// A `telemetry` session: one [`TelemetryFrame`] per sampling interval
/// until the client disconnects or the server drains. The session
/// registers itself in the table it reports, so a subscriber always
/// sees at least its own row.
pub(crate) fn run_telemetry_session(
    stream: TcpStream,
    shared: &Shared,
    session_id: u64,
    format: WireFormat,
) {
    let handles = SessionHandles::new("telemetry", format);
    let frames_out = Arc::clone(&handles.frames_out);
    let bytes_out = Arc::clone(&handles.bytes_out);
    let _entry = SessionEntry::register(shared, session_id, handles);

    let mut writer = FrameWriter::new(BufWriter::new(stream), format);
    let interval = Duration::from_millis(shared.telemetry_interval_ms);
    let mut seq = 0u64;
    // Sampler deltas already consumed; new subscribers skip history and
    // start from the next tick.
    let mut after_seq = shared
        .sampler
        .lock()
        .as_ref()
        .and_then(|s| s.latest())
        .map(|d| d.seq)
        .unwrap_or(0);
    loop {
        // Sleep to the next frame boundary in short slices so drain and
        // SIGINT are honoured promptly (satellite of the no-leaked-thread
        // guarantee: a telemetry session must not hold up the join).
        let deadline = Instant::now() + interval;
        loop {
            if shared.stopping() {
                shared.counter("serve/sessions_completed").inc();
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(TELEMETRY_POLL));
        }
        seq += 1;
        let delta = shared
            .sampler
            .lock()
            .as_ref()
            .and_then(TelemetrySampler::latest)
            .filter(|d| d.seq > after_seq);
        if let Some(d) = &delta {
            after_seq = d.seq;
        }
        let frame = TelemetryFrame {
            seq,
            at_ms: shared.started.elapsed().as_millis() as u64,
            interval_ms: shared.telemetry_interval_ms,
            delta,
            sessions: shared.session_table(),
        };
        let wire = encode_telemetry_frame(&frame, format);
        bytes_out.fetch_add(wire.wire_len() as u64, Ordering::Relaxed);
        if writer.write(&wire).is_err() || writer.flush().is_err() {
            // The subscriber went away: a normal way to end the session.
            shared.counter("serve/sessions_completed").inc();
            return;
        }
        frames_out.fetch_add(1, Ordering::Relaxed);
        shared.counter("serve/telemetry_frames").inc();
    }
}

#[cfg(all(test, not(target_os = "linux")))]
mod tests {
    use super::*;

    #[test]
    fn run_is_a_typed_config_error_off_linux() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        match server.run() {
            Err(Error::Config(msg)) => assert!(msg.contains("Linux"), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }
}
