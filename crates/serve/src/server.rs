//! The multi-client streaming server.
//!
//! [`Server::bind`] opens a listener; [`Server::run`] serves sessions
//! until shutdown is requested (via the
//! [handle](Server::shutdown_handle) or [SIGINT](crate::signal)) and
//! then drains: no new sessions are accepted, telemetry sessions end at
//! once, the other in-flight sessions run to completion, and `run`
//! returns once the last one finishes.
//!
//! The session core is event-driven (see the private `reactor`
//! module): one epoll loop watches every socket and a worker pool sized
//! to cores drives per-connection state machines — pollute, subscribe
//! and telemetry sessions alike — so thousands of concurrent sessions
//! cost file descriptors and bounded windows, not threads. The same
//! loop ticks the telemetry sampler. A session executes while it
//! uploads: its plan is opened at handshake and every decoded frame is
//! pushed through it at once, through the same topology and the same
//! source step an offline run uses — served output is byte-identical
//! to offline by construction. Per-session
//! memory is O(window): a read chunk, an outbox window, and what the
//! plan itself holds (one watermark period per sub-stream, plus the
//! tuples a delay polluter keeps back) — whatever the session's length.
//! epoll makes the server Linux-only: on other platforms the crate
//! builds but [`Server::run`] returns a configuration error.
//!
//! Backpressure: a client that stops reading is not read from either —
//! its session parks on write readiness and TCP flow control throttles
//! its upload, so only that session slows down (a telemetry client that
//! stops reading skips frames until it reads again). A protocol error
//! (malformed frame, oversized frame, mid-stream disconnect) fails
//! only the offending session: what it has been sent so far is a
//! prefix of its output, and an error frame naming the failure kind
//! and transport code follows; every other session is untouched.
//!
//! The [`PlanCatalog`] is immutable behind the shared `Arc` — plan
//! lookups at handshake time are lock-free reads. The per-session
//! telemetry table is sharded (`SESSION_SHARDS` ways) so session
//! churn never contends on a single map lock.

use crate::protocol::{Handshake, SessionTelemetry};
use icewafl_core::plan::PhysicalPlan;
use icewafl_core::PlanCatalog;
use icewafl_obs::MetricsRegistry;
use icewafl_stream::net::{WireFormat, DEFAULT_MAX_FRAME_BYTES};
use icewafl_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// Live transfer counters of one session, shared by its connection
/// and its row in the telemetry table, so reading them never touches
/// the session itself.
#[derive(Default)]
pub(crate) struct SessionCounters {
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) encode_ns: AtomicU64,
    pub(crate) blocked_write_ns: AtomicU64,
    pub(crate) gauges: SessionGauges,
}

/// High-water marks of what the server has held for one session at any
/// one time — the three places a client's behaviour could make it hold
/// more.
#[derive(Default)]
pub(crate) struct SessionGauges {
    /// Bytes read from the socket and not yet decoded.
    pub(crate) input_hwm: AtomicU64,
    /// Rows the plan had released and the server not yet encoded.
    pub(crate) units_hwm: AtomicU64,
    /// Encoded bytes queued for the socket.
    pub(crate) outbox_hwm: AtomicU64,
}

/// One row of the live session table.
pub(crate) struct SessionRow {
    /// Session type: `pollute`, `subscribe` or `telemetry`.
    pub(crate) kind: &'static str,
    /// Wire format on the session's socket.
    pub(crate) format: WireFormat,
    pub(crate) counters: Arc<SessionCounters>,
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
    /// When the server started: the one clock of sampler ticks and
    /// telemetry frame `at_ms` stamps.
    pub(crate) started: Instant,
    /// Per-session live counters, sharded by session id. Entries appear
    /// when a handshake is accepted and vanish when the session ends.
    sessions: Vec<Mutex<BTreeMap<u64, SessionRow>>>,
    /// Shared-stream hubs by stream name (see [`HubState`]).
    pub(crate) hubs: Mutex<HashMap<String, Arc<Mutex<HubState>>>>,
}

impl Shared {
    pub(crate) fn counter(&self, name: &str) -> icewafl_obs::Counter {
        self.registry.counter(name)
    }

    pub(crate) fn register_session(&self, id: u64, row: SessionRow) {
        self.sessions[(id as usize) % SESSION_SHARDS]
            .lock()
            .insert(id, row);
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
                    .map(|(id, row)| {
                        let c = &row.counters;
                        SessionTelemetry {
                            id: *id,
                            kind: row.kind.to_string(),
                            format: row.format.as_str().to_string(),
                            frames_in: c.frames_in.load(Ordering::Relaxed),
                            frames_out: c.frames_out.load(Ordering::Relaxed),
                            bytes_out: c.bytes_out.load(Ordering::Relaxed),
                            encode_ns: c.encode_ns.load(Ordering::Relaxed),
                            blocked_write_ns: c.blocked_write_ns.load(Ordering::Relaxed),
                            input_hwm_bytes: c.gauges.input_hwm.load(Ordering::Relaxed),
                            queued_hwm_rows: c.gauges.units_hwm.load(Ordering::Relaxed),
                            outbox_hwm_bytes: c.gauges.outbox_hwm.load(Ordering::Relaxed),
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        rows.sort_by_key(|row| row.id);
        rows
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
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                plans: config.plans,
                max_sessions: config.max_sessions,
                max_frame_bytes: config.max_frame_bytes,
                telemetry_interval_ms: config.telemetry_interval_ms.max(1),
                workers: config.workers,
                registry,
                active: AtomicUsize::new(0),
                started: Instant::now(),
                sessions: (0..SESSION_SHARDS)
                    .map(|_| Mutex::new(BTreeMap::new()))
                    .collect(),
                hubs: Mutex::new(HashMap::new()),
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
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
    /// arrives](crate::signal::triggered), then drains: telemetry
    /// sessions end at once, and the other in-flight sessions run to
    /// completion before this returns.
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
