//! Many-session load tests for the event-driven server: hundreds of
//! concurrent sessions byte-identical to offline, per-session error
//! isolation at scale, shared-stream fan-out, and tolerance to
//! arbitrarily fragmented reads. This file doubles as the CI serve load
//! smoke.

mod settle;

use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::plan::LogicalPlan;
use icewafl_serve::{client, ClientConfig, Handshake, ServeConfig, Server};
use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
use settle::settled;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

fn plan(seed: u64) -> LogicalPlan {
    LogicalPlan::new(
        seed,
        vec![
            vec![PolluterConfig::Standard {
                name: "noise".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::GaussianNoise {
                    sigma: 2.0,
                    relative: false,
                },
                condition: ConditionConfig::Probability { p: 0.5 },
                pattern: None,
            }],
            vec![PolluterConfig::Standard {
                name: "null".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Probability { p: 0.2 },
                pattern: None,
            }],
        ],
    )
}

fn tuples(n: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 1000)),
                Value::Float(i as f64 / 7.0),
            ])
        })
        .collect()
}

fn handshake(format: &str) -> Handshake {
    Handshake {
        plan_inline: Some(plan(42)),
        schema_inline: Some(schema()),
        format: Some(format.into()),
        ..Handshake::default()
    }
}

struct TestServer {
    server: Arc<Server>,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<icewafl_types::Result<()>>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> Self {
        let server = Arc::new(Server::bind(config).unwrap());
        let shutdown = server.shutdown_handle();
        let runner = Arc::clone(&server);
        let handle = std::thread::spawn(move || runner.run());
        TestServer {
            server,
            shutdown,
            handle: Some(handle),
        }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.join().unwrap().unwrap();
        }
    }
}

/// The CI load smoke: 256 concurrent sessions — slow readers included —
/// every one byte-identical to the offline run of the same plan.
#[test]
fn load_smoke_256_sessions_byte_identical_to_offline() {
    const SESSIONS: usize = 256;
    let input = tuples(120);
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(input.clone())
        .unwrap();
    let offline_bytes = serde_json::to_string(&offline.polluted).unwrap();

    let server = TestServer::start(ServeConfig {
        max_sessions: SESSIONS + 8,
        ..ServeConfig::default()
    });

    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let addr = server.addr();
            let input = input.clone();
            std::thread::spawn(move || {
                // Stagger connects so the listener backlog (128) is
                // never the thing under test.
                std::thread::sleep(Duration::from_millis((i % 32) as u64));
                let format = if i % 4 == 0 { "ndjson" } else { "binary" };
                let mut config = ClientConfig::new(addr, handshake(format));
                if i % 64 == 0 {
                    // A sprinkling of slow readers: their backpressure
                    // parks their own state machine, nothing else.
                    config.slow_reader = Some(Duration::from_millis(1));
                }
                client::run_session(&config, input).unwrap()
            })
        })
        .collect();

    for worker in workers {
        let outcome = worker.join().unwrap();
        assert!(outcome.completed(), "session failed: {:?}", outcome.error);
        let served = serde_json::to_string(&outcome.tuples).unwrap();
        assert_eq!(served, offline_bytes, "served bytes diverged from offline");
    }

    let snapshot = settled(server.server.registry());
    assert_eq!(
        snapshot.counter("serve/sessions_completed"),
        SESSIONS as u64
    );
    assert_eq!(snapshot.counter("serve/sessions_failed"), 0);
    assert_eq!(snapshot.gauge("serve/sessions_active"), 0);
}

/// One malformed, one oversized, and one mid-stream-disconnecting
/// session die alone: 100+ sibling sessions sharing the event loop all
/// finish byte-identical to offline.
#[test]
fn bad_sessions_kill_only_themselves_among_100_siblings() {
    const SIBLINGS: usize = 104;
    let input = tuples(100);
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(input.clone())
        .unwrap();

    let server = TestServer::start(ServeConfig {
        max_sessions: SIBLINGS + 8,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let siblings: Vec<_> = (0..SIBLINGS)
        .map(|i| {
            let addr = addr.clone();
            let input = input.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis((i % 16) as u64));
                let format = if i % 2 == 0 { "binary" } else { "ndjson" };
                client::run_session(&ClientConfig::new(addr, handshake(format)), input).unwrap()
            })
        })
        .collect();

    // While the siblings run, misbehave three ways.
    let hs_line = serde_json::to_string(&handshake("ndjson")).unwrap();

    // 1. Malformed data frame.
    let mut malformed = TcpStream::connect(&addr).unwrap();
    malformed.write_all(hs_line.as_bytes()).unwrap();
    malformed.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(malformed.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("\"ok\":true"), "handshake failed: {reply}");
    malformed.write_all(b"this is not json\n").unwrap();
    malformed.flush().unwrap();
    let mut tail = String::new();
    BufReader::new(malformed.try_clone().unwrap())
        .read_to_string(&mut tail)
        .unwrap();
    assert!(
        tail.contains("\"protocol\":\"malformed\""),
        "expected a malformed-protocol error frame, got: {tail}"
    );

    // 2. Oversized frame: a line bigger than the 1 MiB default cap.
    let mut oversized = TcpStream::connect(&addr).unwrap();
    oversized.write_all(hs_line.as_bytes()).unwrap();
    oversized.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(oversized.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("\"ok\":true"), "handshake failed: {reply}");
    let long_line = format!(
        "{{\"tuple\":{{\"values\":[\"{}\"]}}}}\n",
        "9".repeat(2 * 1024 * 1024)
    );
    let _ = oversized.write_all(long_line.as_bytes());
    let _ = oversized.flush();
    let mut tail = String::new();
    let _ = BufReader::new(oversized.try_clone().unwrap()).read_to_string(&mut tail);
    assert!(
        tail.contains("\"protocol\":\"oversized\""),
        "expected an oversized-protocol error frame, got: {tail}"
    );

    // 3. Mid-stream disconnect: handshake, send one frame, vanish.
    let mut vanishing = TcpStream::connect(&addr).unwrap();
    vanishing.write_all(hs_line.as_bytes()).unwrap();
    vanishing.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(vanishing.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("\"ok\":true"), "handshake failed: {reply}");
    vanishing
        .write_all(b"{\"tuple\":{\"values\":[0,1.0]}}\n")
        .unwrap();
    drop(vanishing);

    // Every sibling is untouched.
    for sibling in siblings {
        let outcome = sibling.join().unwrap();
        assert!(outcome.completed(), "sibling failed: {:?}", outcome.error);
        assert_eq!(outcome.tuples, offline.polluted);
    }
    let snapshot = settled(server.server.registry());
    assert_eq!(
        snapshot.counter("serve/sessions_completed"),
        SIBLINGS as u64
    );
}

/// Shared-stream fan-out on Linux: one publisher, many subscribers, all
/// of them receiving the publisher's exact output (the frames are
/// encoded once and shared). Elsewhere the fallback server rejects
/// subscribe sessions, which this test accepts as the documented
/// non-Linux behavior.
#[test]
fn shared_stream_fans_out_to_subscribers() {
    const SUBSCRIBERS: usize = 12;
    let input = tuples(200);
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(input.clone())
        .unwrap();

    let server = TestServer::start(ServeConfig {
        max_sessions: SUBSCRIBERS + 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Subscribers first: they park until the publisher's frames arrive.
    let subs: Vec<_> = (0..SUBSCRIBERS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let hs = Handshake {
                    session: Some("subscribe".into()),
                    stream: Some("load-test".into()),
                    format: Some("binary".into()),
                    ..Handshake::default()
                };
                client::run_session(&ClientConfig::new(addr, hs), Vec::new())
            })
        })
        .collect();
    // Give the subscribers time to attach: the hub is retired when the
    // publisher closes, so late subscribers would miss the stream.
    std::thread::sleep(Duration::from_millis(150));

    let publisher_hs = Handshake {
        stream: Some("load-test".into()),
        ..handshake("binary")
    };
    let publisher =
        client::run_session(&ClientConfig::new(addr.clone(), publisher_hs), input).unwrap();

    assert!(
        publisher.reply.ok,
        "publisher rejected: {:?}",
        publisher.reply.error
    );
    assert!(
        publisher.completed(),
        "publisher failed: {:?}",
        publisher.error
    );
    assert_eq!(publisher.tuples, offline.polluted);

    for sub in subs {
        let outcome = sub.join().unwrap().unwrap();
        assert!(
            outcome.completed(),
            "subscriber failed: {:?} / {:?}",
            outcome.reply.error,
            outcome.error
        );
        assert_eq!(outcome.tuples, offline.polluted, "fan-out diverged");
    }
}

/// A publisher that dies mid-stream fails its subscribers with a typed
/// error frame instead of hanging them (Linux event-driven path only).
#[cfg(target_os = "linux")]
#[test]
fn publisher_death_fails_subscribers_with_error_frame() {
    let server = TestServer::start(ServeConfig::default());
    let addr = server.addr();

    let sub = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let hs = Handshake {
                session: Some("subscribe".into()),
                stream: Some("doomed".into()),
                format: Some("ndjson".into()),
                ..Handshake::default()
            };
            client::run_session(&ClientConfig::new(addr, hs), Vec::new())
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    let publisher_hs = Handshake {
        stream: Some("doomed".into()),
        ..handshake("ndjson")
    };
    let mut publisher = TcpStream::connect(&addr).unwrap();
    publisher
        .write_all(serde_json::to_string(&publisher_hs).unwrap().as_bytes())
        .unwrap();
    publisher.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(publisher.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("\"ok\":true"), "handshake failed: {reply}");
    publisher
        .write_all(b"{\"tuple\":{\"values\":[0,1.0]}}\n")
        .unwrap();
    drop(publisher);

    let outcome = sub.join().unwrap().unwrap();
    assert!(
        outcome.reply.ok,
        "subscriber rejected: {:?}",
        outcome.reply.error
    );
    let error = outcome
        .error
        .expect("subscriber must receive the publisher's failure");
    assert_eq!(
        error.kind, "disconnect",
        "unexpected error frame: {error:?}"
    );
}

/// The server survives a client that delivers its handshake and frames
/// one byte at a time, with pauses — end-to-end proof that the decoder
/// tolerates arbitrary read-boundary splits on a live socket.
#[test]
fn handshake_and_frames_survive_byte_by_byte_delivery() {
    let input = tuples(40);
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(input.clone())
        .unwrap();

    let server = TestServer::start(ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    use icewafl_serve::protocol::{encode_end_frame, encode_tuple_frame};
    use icewafl_stream::net::{WireFormat, WireFrame};
    let mut payload = serde_json::to_string(&handshake("ndjson")).unwrap();
    payload.push('\n');
    for t in &input {
        let WireFrame::Line(line) = encode_tuple_frame(t, WireFormat::Ndjson) else {
            unreachable!("ndjson tuples are lines");
        };
        payload.push_str(&line);
        payload.push('\n');
    }
    let WireFrame::Line(end) = encode_end_frame(WireFormat::Ndjson) else {
        unreachable!("the ndjson end marker is a line");
    };
    payload.push_str(&end);
    payload.push('\n');

    // Drip the whole conversation through the socket in 1–7 byte
    // shreds, pausing now and then so the server sees WouldBlock
    // between nearly every fragment.
    let reader = {
        let stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut tuples = Vec::new();
            let mut lines = BufReader::new(stream).lines();
            let reply = lines.next().unwrap().unwrap();
            assert!(reply.contains("\"ok\":true"), "handshake failed: {reply}");
            for line in lines {
                let line = line.unwrap();
                let v: serde_json::Value = serde_json::from_str(&line).unwrap();
                if v.get("report").is_some_and(|r| !r.is_null()) {
                    return (tuples, true);
                }
                if v.get("error").is_some_and(|e| !e.is_null()) {
                    panic!("session failed: {line}");
                }
                tuples.push(line);
            }
            (tuples, false)
        })
    };

    let bytes = payload.as_bytes();
    let mut at = 0;
    let mut step = 1;
    while at < bytes.len() {
        let n = step.min(bytes.len() - at);
        stream.write_all(&bytes[at..at + n]).unwrap();
        stream.flush().unwrap();
        at += n;
        step = step % 7 + 1;
        if at % 97 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let (served, saw_report) = reader.join().unwrap();
    assert!(saw_report, "server closed without a report frame");
    assert_eq!(served.len(), offline.polluted.len());
}

// ---------------------------------------------------------------------
// Incremental, bounded, and not deadlock-prone
// ---------------------------------------------------------------------

/// Runs `body` on a thread of its own and fails the test if it has not
/// returned within two minutes: these tests guard against hangs.
fn watchdogged(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => worker.join().unwrap(),
        // The body panicked: surface its message.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("hung for two minutes"),
    }
}

mod raw {
    //! A protocol peer in two halves, so a test decides by itself when
    //! to write and when to read.

    use icewafl_serve::protocol::{
        decode_server_frame, encode_end_frame, encode_tuple_columns_frame, encode_tuple_frame,
        ServerEvent,
    };
    use icewafl_serve::{Handshake, SessionErrorFrame};
    use icewafl_stream::net::{frame_bytes, FrameReader, WireFormat};
    use icewafl_types::{StampedTuple, Tuple};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// Rows per upload frame on binary sessions.
    pub const FRAME_ROWS: usize = 512;

    pub struct Peer {
        pub stream: TcpStream,
        pub reader: FrameReader<BufReader<TcpStream>>,
        pub format: WireFormat,
    }

    /// What a session sent back, up to and including its tail frame.
    #[derive(Default)]
    pub struct Received {
        pub tuples: Vec<StampedTuple>,
        pub report: Option<Box<icewafl_core::report::RunReport>>,
        pub error: Option<SessionErrorFrame>,
    }

    /// The wire bytes of `tuples` as upload frames (end frame excluded).
    pub fn upload(tuples: &[Tuple], format: WireFormat) -> Vec<u8> {
        match format {
            WireFormat::Binary => tuples
                .chunks(FRAME_ROWS)
                .flat_map(|chunk| frame_bytes(&encode_tuple_columns_frame(chunk)))
                .collect(),
            WireFormat::Ndjson => tuples
                .iter()
                .flat_map(|t| frame_bytes(&encode_tuple_frame(t, format)))
                .collect(),
        }
    }

    pub fn end(format: WireFormat) -> Vec<u8> {
        frame_bytes(&encode_end_frame(format))
    }

    impl Peer {
        /// Connects and handshakes; the session is open on return.
        pub fn open(addr: &str, hs: &Handshake) -> Peer {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                .unwrap();
            let mut line = serde_json::to_string(hs).unwrap();
            line.push('\n');
            stream.write_all(line.as_bytes()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.contains("\"ok\":true"), "handshake failed: {reply}");
            let format = hs.wire_format().unwrap();
            Peer {
                stream,
                reader: FrameReader::new(reader, format, 1 << 20),
                format,
            }
        }

        pub fn send(&mut self, bytes: &[u8]) {
            self.stream.write_all(bytes).unwrap();
        }

        /// Reads frames into `got` until `stop` says so or the tail
        /// frame arrives; `false` when the server closed instead.
        pub fn read_until(
            &mut self,
            got: &mut Received,
            mut stop: impl FnMut(&Received) -> bool,
        ) -> bool {
            while !stop(got) {
                let Some(frame) = self.reader.read().unwrap() else {
                    return false;
                };
                match decode_server_frame(frame).unwrap() {
                    ServerEvent::Tuple(t) => got.tuples.push(t),
                    ServerEvent::Batch(batch) => got.tuples.extend(batch),
                    ServerEvent::Report(report) => {
                        got.report = Some(report);
                        return true;
                    }
                    ServerEvent::Error(error) => {
                        got.error = Some(error);
                        return true;
                    }
                    ServerEvent::Telemetry(_) => panic!("telemetry in a pollute session"),
                }
            }
            true
        }

        /// Whether nothing but end of file follows.
        pub fn at_eof(&mut self) -> bool {
            matches!(self.reader.read(), Ok(None))
        }
    }

    /// Coerces NDJSON-decoded output back to the schema's column types,
    /// as the reference client does.
    pub fn coerced(schema: &icewafl_types::Schema, tuples: Vec<StampedTuple>) -> Vec<StampedTuple> {
        tuples
            .into_iter()
            .map(|mut t| {
                t.tuple = icewafl_serve::protocol::coerce_tuple(schema, t.tuple);
                t
            })
            .collect()
    }
}

fn offline_of(plan: &LogicalPlan, input: &[Tuple]) -> Vec<icewafl_types::StampedTuple> {
    plan.compile(&schema())
        .unwrap()
        .execute(input.to_vec())
        .unwrap()
        .polluted
}

/// A client may hold its end frame back until it has seen output: the
/// session executes while it uploads. Before that, this waited forever
/// — the server answered only after the last input byte.
#[test]
fn interactive_client_reads_output_before_it_ends_its_upload() {
    watchdogged(|| {
        let input = tuples(2_000);
        let offline = offline_of(&plan(42), &input);
        let server = TestServer::start(ServeConfig::default());
        for format in ["binary", "ndjson"] {
            let mut peer = raw::Peer::open(&server.addr(), &handshake(format));
            peer.send(&raw::upload(&input, peer.format));
            let mut got = raw::Received::default();
            assert!(peer.read_until(&mut got, |got| !got.tuples.is_empty()));
            assert!(got.report.is_none(), "{format}: no end frame sent yet");
            peer.send(&raw::end(peer.format));
            assert!(peer.read_until(&mut got, |_| false));
            assert!(got.report.is_some(), "{format}: {:?}", got.error);
            let served = match format {
                "ndjson" => raw::coerced(&schema(), got.tuples),
                _ => got.tuples,
            };
            assert_eq!(served, offline, "{format}");
        }
    });
}

/// A client that uploads without reading is throttled, not buffered:
/// the server stops reading it once its outbox is full, holds no more
/// than its fixed windows for it, and serves its neighbours meanwhile.
#[test]
fn firehose_that_does_not_read_is_throttled_next_to_its_neighbours() {
    // The reactor's constants, as the module docs state them.
    const READ_BUDGET: u64 = 1 << 20;
    const OUTBOX_HIGH: u64 = 256 * 1024;
    const WATERMARK_PERIOD: u64 = 64;

    watchdogged(|| {
        let input = tuples(300_000);
        let neighbour_input = tuples(200);
        let neighbour_offline =
            serde_json::to_string(&offline_of(&plan(42), &neighbour_input)).unwrap();
        let server = TestServer::start(ServeConfig {
            max_sessions: 8,
            telemetry_interval_ms: 20,
            ..ServeConfig::default()
        });
        let addr = server.addr();

        let mut firehose = raw::Peer::open(&addr, &handshake("binary"));
        let upload = raw::upload(&input, firehose.format);
        let frame_bytes = (upload.len() / input.len().div_ceil(raw::FRAME_ROWS)) as u64;
        let frames = input.len().div_ceil(raw::FRAME_ROWS) as u64;
        let writer = {
            let mut stream = firehose.stream.try_clone().unwrap();
            let end = raw::end(firehose.format);
            std::thread::spawn(move || {
                // Blocks once the server has stopped reading and the
                // kernel's buffers are full; goes on when we read.
                stream.write_all(&upload).unwrap();
                stream.write_all(&end).unwrap();
            })
        };

        for i in 0..20 {
            let format = if i % 2 == 0 { "binary" } else { "ndjson" };
            let outcome = client::run_session(
                &ClientConfig::new(addr.clone(), handshake(format)),
                neighbour_input.clone(),
            )
            .unwrap();
            assert!(outcome.completed(), "neighbour {i}: {:?}", outcome.error);
            assert_eq!(
                serde_json::to_string(&outcome.tuples).unwrap(),
                neighbour_offline,
                "neighbour {i}"
            );
        }

        // Twenty sessions later the firehose is where it stalled.
        let table = client::subscribe_telemetry(&addr, None, 1).unwrap();
        let row = table[0]
            .sessions
            .iter()
            .find(|s| s.kind == "pollute")
            .expect("the firehose session is still open");
        assert!(
            row.frames_in < frames,
            "the server read all {frames} frames of a client that read nothing: {row:?}"
        );
        assert!(
            row.input_hwm_bytes <= READ_BUDGET + frame_bytes,
            "undecoded input: {row:?}"
        );
        assert!(
            row.queued_hwm_rows <= raw::FRAME_ROWS as u64 + WATERMARK_PERIOD,
            "unencoded rows: {row:?}"
        );
        // One upload frame's rows come back as stamped rows, which are
        // wider: allow four times its bytes.
        assert!(
            row.outbox_hwm_bytes <= OUTBOX_HIGH + 4 * frame_bytes,
            "outbox: {row:?}"
        );

        // Reading un-throttles it; nothing was lost or reordered.
        let mut got = raw::Received::default();
        assert!(firehose.read_until(&mut got, |_| false));
        writer.join().unwrap();
        assert!(got.report.is_some(), "firehose failed: {:?}", got.error);
        assert_eq!(got.tuples, offline_of(&plan(42), &input));
    });
}

/// What the sorter holds depends on the watermark period and the
/// fan-out, not on how long the session is.
#[test]
fn sorter_occupancy_of_a_session_is_independent_of_its_length() {
    watchdogged(|| {
        let null = |name: &str| PolluterConfig::Standard {
            name: name.into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Probability { p: 0.1 },
            pattern: None,
        };
        let four_way = LogicalPlan::new(
            7,
            (0..4).map(|i| vec![null(&format!("null-{i}"))]).collect(),
        );
        let server = TestServer::start(ServeConfig::default());
        let occupancy = |n: usize| {
            let hs = Handshake {
                plan_inline: Some(four_way.clone()),
                ..handshake("binary")
            };
            let outcome =
                client::run_session(&ClientConfig::new(server.addr(), hs), tuples(n)).unwrap();
            assert!(outcome.completed(), "session failed: {:?}", outcome.error);
            assert_eq!(outcome.tuples.len(), n);
            outcome
                .report
                .unwrap()
                .metrics
                .gauge("stage/00_event_time_sorter/buffer_max")
        };
        let (short, long) = (occupancy(20_000), occupancy(80_000));
        assert_eq!(short, long);
        assert!(short > 0 && short <= 4 * 64, "held {short}");
    });
}

/// A session that fails mid-stream has been sent a prefix of what it
/// would have been sent, then exactly one typed error frame.
#[test]
fn mid_stream_failure_leaves_a_valid_prefix_and_one_error_frame() {
    use icewafl_stream::net::{frame_bytes, WireFrame};
    watchdogged(|| {
        let input = tuples(5_000);
        let offline = offline_of(&plan(42), &input);
        let server = TestServer::start(ServeConfig::default());

        // A frame that is not one, behind 5 000 good tuples.
        let mut peer = raw::Peer::open(&server.addr(), &handshake("binary"));
        peer.send(&raw::upload(&input, peer.format));
        peer.send(&frame_bytes(&WireFrame::Binary {
            tag: 99,
            payload: vec![1, 2, 3],
        }));
        let mut got = raw::Received::default();
        assert!(peer.read_until(&mut got, |_| false));
        let error = got.error.expect("a typed error frame");
        assert_eq!(error.protocol.as_deref(), Some("malformed"), "{error:?}");
        assert!(peer.at_eof(), "nothing follows the error frame");
        assert!(got.tuples.len() + 64 >= input.len(), "{}", got.tuples.len());
        assert_eq!(got.tuples[..], offline[..got.tuples.len()]);

        // The client stops sending without an end frame.
        let mut peer = raw::Peer::open(&server.addr(), &handshake("ndjson"));
        peer.send(&raw::upload(&input, peer.format));
        peer.stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got = raw::Received::default();
        assert!(peer.read_until(&mut got, |_| false));
        let error = got.error.expect("a typed error frame");
        assert_eq!(error.kind, "disconnect", "{error:?}");
        assert_eq!(error.protocol.as_deref(), Some("disconnected"), "{error:?}");
        assert!(peer.at_eof(), "nothing follows the error frame");
        let served = raw::coerced(&schema(), got.tuples);
        assert!(served.len() + 64 >= input.len(), "{}", served.len());
        assert_eq!(served[..], offline[..served.len()]);
    });
}
