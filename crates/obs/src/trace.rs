//! A lightweight span / trace-event layer with a Chrome trace-event
//! exporter.
//!
//! Where the metrics half of this crate answers *how much* (counts,
//! histograms), tracing answers *when*: sampled spans around hot-path
//! work (stage processing, batch flushes, sorter releases) and instant
//! events at one-shot occurrences (epoch swaps), each tagged with the
//! recording thread, exportable as Chrome trace-event JSON that loads
//! directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Recording is **idle by default**: events are captured only while a
//! [`TraceSession`] is installed, and the inactive check is a single
//! relaxed atomic load, so instrumented code pays almost nothing when
//! nobody is tracing.
//!
//! At most one session can be active per process (the collector is a
//! process-wide buffer); [`TraceSession::start`] returns `None` while
//! another session holds it.

use parking_lot::Mutex;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// One captured trace event, in the vocabulary of the Chrome
/// trace-event format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name, e.g. a stage label.
    pub name: String,
    /// Category (`stage`, `backpressure`, `control`, ...); Perfetto
    /// groups and filters by it.
    pub cat: &'static str,
    /// Phase: `'X'` for a complete span (with duration), `'i'` for an
    /// instant event.
    pub ph: char,
    /// Start time in nanoseconds since the session epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Recording thread, as a small process-unique integer.
    pub tid: u64,
    /// Numeric key/value annotations shown in the trace viewer.
    pub args: Vec<(&'static str, u64)>,
}

/// Everything captured by a finished [`TraceSession`].
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// The captured events, in recording order.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the session's capacity was reached.
    pub dropped: u64,
}

impl TraceDump {
    /// Serializes the dump as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in Perfetto and
    /// `chrome://tracing`. Timestamps are emitted in microseconds with
    /// nanosecond precision, as the format requires.
    pub fn write_chrome_trace(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                escape_json(&ev.name),
                escape_json(ev.cat),
                ev.ph,
                ev.ts_ns as f64 / 1000.0,
                ev.tid
            )?;
            if ev.ph == 'X' {
                write!(out, ",\"dur\":{:.3}", ev.dur_ns as f64 / 1000.0)?;
            }
            if ev.ph == 'i' {
                // Instant scope: thread.
                out.write_all(b",\"s\":\"t\"")?;
            }
            if !ev.args.is_empty() {
                out.write_all(b",\"args\":{")?;
                for (j, (k, v)) in ev.args.iter().enumerate() {
                    if j > 0 {
                        out.write_all(b",")?;
                    }
                    write!(out, "\"{}\":{}", escape_json(k), v)?;
                }
                out.write_all(b"}")?;
            }
            out.write_all(b"}")?;
        }
        out.write_all(b"\n]}\n")
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Fast-path flag: `true` only while a session is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Monotonic base for every timestamp of the process.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide event buffer (locked per *captured* event —
/// captures are sampled and gated on [`ACTIVE`], so this lock is
/// never on an un-traced hot path).
static STATE: OnceLock<Mutex<TraceState>> = OnceLock::new();

/// Next process-unique thread tag.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
}

#[derive(Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

fn state() -> &'static Mutex<TraceState> {
    STATE.get_or_init(|| Mutex::new(TraceState::default()))
}

/// Nanoseconds since the process trace epoch.
fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The small integer tag of the calling thread.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// `true` while a [`TraceSession`] is collecting events.
#[inline(always)]
pub fn tracing_active() -> bool {
    ACTIVE.load(Relaxed)
}

fn push_event(ev: TraceEvent) {
    let mut st = state().lock();
    if st.events.len() < st.capacity {
        st.events.push(ev);
    } else {
        st.dropped += 1;
    }
}

/// An exclusive, process-wide trace collection window.
///
/// Dropping the session without [`TraceSession::finish`] discards
/// the captured events and deactivates tracing.
#[derive(Debug)]
pub struct TraceSession {
    _priv: (),
}

impl TraceSession {
    /// Starts collecting up to `capacity` events. Returns `None`
    /// if another session is already active.
    pub fn start(capacity: usize) -> Option<TraceSession> {
        if ACTIVE
            .compare_exchange(false, true, Relaxed, Relaxed)
            .is_err()
        {
            return None;
        }
        let mut st = state().lock();
        st.events = Vec::with_capacity(capacity.min(1 << 16));
        st.capacity = capacity.max(1);
        st.dropped = 0;
        Some(TraceSession { _priv: () })
    }

    /// Stops collecting and returns everything captured.
    pub fn finish(self) -> TraceDump {
        ACTIVE.store(false, Relaxed);
        let mut st = state().lock();
        let dump = TraceDump {
            events: std::mem::take(&mut st.events),
            dropped: st.dropped,
        };
        st.dropped = 0;
        std::mem::forget(self);
        dump
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        ACTIVE.store(false, Relaxed);
        let mut st = state().lock();
        st.events = Vec::new();
        st.dropped = 0;
    }
}

/// A live span; records one complete (`'X'`) event when dropped.
#[derive(Debug)]
pub struct Span {
    name: String,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Attaches a numeric annotation shown in the trace viewer.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        self.args.push((key, value));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = now_ns();
        push_event(TraceEvent {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            ph: 'X',
            ts_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            tid: current_tid(),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Opens a span if tracing is active; `None` (zero cost beyond one
/// relaxed load) otherwise. Bind the result to keep it open:
///
/// ```
/// let _span = icewafl_obs::trace::span("stage/00_map", "stage");
/// ```
#[inline]
pub fn span(name: &str, cat: &'static str) -> Option<Span> {
    if !tracing_active() {
        return None;
    }
    Some(Span {
        name: name.to_string(),
        cat,
        start_ns: now_ns(),
        args: Vec::new(),
    })
}

/// Records an instant (`'i'`) event if tracing is active.
#[inline]
pub fn instant(name: &str, cat: &'static str) {
    instant_with(name, cat, &[]);
}

/// [`instant`] with numeric annotations.
#[inline]
pub fn instant_with(name: &str, cat: &'static str, args: &[(&'static str, u64)]) {
    if !tracing_active() {
        return;
    }
    push_event(TraceEvent {
        name: name.to_string(),
        cat,
        ph: 'i',
        ts_ns: now_ns(),
        dur_ns: 0,
        tid: current_tid(),
        args: args.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global; tests that install a session
    /// serialize on this lock.
    static SESSION_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn idle_layer_captures_nothing() {
        let _guard = SESSION_LOCK.lock();
        assert!(!tracing_active());
        let sp = span("noop", "test");
        assert!(sp.is_none(), "no session, no span");
        instant("noop", "test");
    }

    #[test]
    fn session_captures_spans_and_instants() {
        let _guard = SESSION_LOCK.lock();
        let session = TraceSession::start(128).expect("no other session");
        assert!(tracing_active());
        // Only one session at a time.
        assert!(TraceSession::start(16).is_none());
        {
            let mut sp = span("stage/00_map", "stage").expect("active");
            sp.arg("batch", 256);
        }
        instant_with("epoch_swap", "control", &[("epoch", 3)]);
        let dump = session.finish();
        assert!(!tracing_active());
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.dropped, 0);
        let sp = &dump.events[0];
        assert_eq!(
            (sp.ph, sp.name.as_str(), sp.cat),
            ('X', "stage/00_map", "stage")
        );
        assert_eq!(sp.args, vec![("batch", 256)]);
        assert!(sp.tid > 0);
        let inst = &dump.events[1];
        assert_eq!((inst.ph, inst.name.as_str()), ('i', "epoch_swap"));
        assert_eq!(inst.args, vec![("epoch", 3)]);
        assert!(inst.ts_ns >= sp.ts_ns);
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let _guard = SESSION_LOCK.lock();
        let session = TraceSession::start(2).unwrap();
        for i in 0..5 {
            instant_with("tick", "test", &[("i", i)]);
        }
        let dump = session.finish();
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.dropped, 3);
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_fields() {
        let _guard = SESSION_LOCK.lock();
        let session = TraceSession::start(16).unwrap();
        {
            let _sp = span("stage/01_\"quoted\"", "stage");
        }
        instant("swap", "control");
        let dump = session.finish();
        let mut buf = Vec::new();
        dump.write_chrome_trace(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"dur\":"));
        assert!(json.contains("\"s\":\"t\""));
        // Balanced braces/brackets is a cheap well-formedness check;
        // the serve smoke test exercises real JSON parsing end to end.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn dropped_session_discards_events() {
        let _guard = SESSION_LOCK.lock();
        let session = TraceSession::start(16).unwrap();
        instant("gone", "test");
        drop(session);
        assert!(!tracing_active());
        let session = TraceSession::start(16).unwrap();
        let dump = session.finish();
        assert!(dump.events.is_empty(), "stale events leaked: {dump:?}");
    }

    #[test]
    fn threads_get_distinct_tags() {
        let a = current_tid();
        let b = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, b);
    }
}
