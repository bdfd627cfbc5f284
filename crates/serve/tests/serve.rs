//! End-to-end tests for the streaming server: served-vs-offline
//! identity, protocol robustness (malformed / oversized / disconnect),
//! capacity limits, and concurrent sessions with a slow reader.

mod settle;

use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::plan::LogicalPlan;
use icewafl_core::PlanCatalog;
use icewafl_serve::protocol::encode_telemetry_frame;
use icewafl_serve::{
    client, ClientConfig, Handshake, HandshakeReply, ServeConfig, Server, SessionTelemetry,
};
use icewafl_stream::net::WireFormat;
use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
use settle::settled;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// A raw protocol peer for misbehaving on purpose.
struct RawClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        RawClient { stream, reader }
    }

    fn send_line(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line
    }

    /// Reads server lines until one carries an `error` object; panics
    /// on a report (the session was supposed to fail).
    fn read_until_error_line(&mut self) -> String {
        loop {
            let line = self.read_line();
            assert!(!line.is_empty(), "server closed without a tail frame");
            if line.contains("\"error\"") && !line.contains("\"error\":null") {
                return line;
            }
            assert!(
                !line.contains("\"report\":{"),
                "session unexpectedly completed: {line}"
            );
        }
    }
}

#[test]
fn served_output_is_byte_identical_to_offline() {
    let input = tuples(300);
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(input.clone())
        .unwrap();

    let server = TestServer::start(ServeConfig::default());
    for format in ["ndjson", "binary"] {
        let outcome = client::run_session(
            &ClientConfig::new(server.addr(), handshake(format)),
            input.clone(),
        )
        .unwrap();
        assert!(outcome.completed(), "session failed: {:?}", outcome.error);
        assert_eq!(outcome.tuples, offline.polluted, "format {format}");
        // Byte-identical, not merely equal: the serialized streams match.
        let served = serde_json::to_string(&outcome.tuples).unwrap();
        let reference = serde_json::to_string(&offline.polluted).unwrap();
        assert_eq!(served, reference, "format {format}");
        let report = outcome.report.unwrap();
        assert_eq!(report.tuples_in, 300);
        assert_eq!(report.tuples_out, outcome.tuples.len() as u64);
    }
}

#[test]
fn preloaded_plans_are_selectable_by_name() {
    let mut plans = PlanCatalog::new();
    plans.insert("noise", plan(42));
    let server = TestServer::start(ServeConfig {
        plans,
        ..ServeConfig::default()
    });

    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(tuples(50))
        .unwrap();
    let hs = Handshake {
        plan: Some("noise".into()),
        schema_inline: Some(schema()),
        ..Handshake::default()
    };
    let outcome = client::run_session(&ClientConfig::new(server.addr(), hs), tuples(50)).unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.tuples, offline.polluted);

    // An unknown name is rejected at handshake time with the catalog
    // listing.
    let hs = Handshake {
        plan: Some("ghost".into()),
        schema_inline: Some(schema()),
        ..Handshake::default()
    };
    let outcome = client::run_session(&ClientConfig::new(server.addr(), hs), vec![]).unwrap();
    assert!(!outcome.reply.ok);
    let reason = outcome.reply.error.unwrap();
    assert!(
        reason.contains("ghost") && reason.contains("noise"),
        "{reason}"
    );
}

#[test]
fn malformed_frame_kills_only_its_session() {
    let server = TestServer::start(ServeConfig::default());

    let mut bad = RawClient::connect(&server.addr());
    bad.send_line(&serde_json::to_string(&handshake("ndjson")).unwrap());
    assert!(bad.read_line().contains("\"ok\":true"));
    bad.send_line("this is not a frame");
    let error_line = bad.read_until_error_line();
    assert!(error_line.contains("\"kind\":\"fatal\""), "{error_line}");
    assert!(
        error_line.contains("\"protocol\":\"malformed\""),
        "{error_line}"
    );

    // The server is still healthy: a fresh session completes normally.
    let outcome = client::run_session(
        &ClientConfig::new(server.addr(), handshake("ndjson")),
        tuples(20),
    )
    .unwrap();
    assert!(outcome.completed());
}

#[test]
fn oversized_frame_is_rejected_with_a_typed_error() {
    // The cap must leave room for the handshake line (which carries an
    // inline plan) while rejecting the oversized data frame below.
    let server = TestServer::start(ServeConfig {
        max_frame_bytes: 4096,
        ..ServeConfig::default()
    });

    let mut big = RawClient::connect(&server.addr());
    big.send_line(&serde_json::to_string(&handshake("ndjson")).unwrap());
    assert!(big.read_line().contains("\"ok\":true"));
    big.send_line(&format!(
        "{{\"tuple\":{{\"values\":[\"{}\"]}}}}",
        "x".repeat(8192)
    ));
    let error_line = big.read_until_error_line();
    assert!(
        error_line.contains("\"protocol\":\"oversized\""),
        "{error_line}"
    );
}

#[test]
fn mid_stream_disconnect_poisons_only_that_session() {
    let server = TestServer::start(ServeConfig::default());

    let mut flaky = RawClient::connect(&server.addr());
    flaky.send_line(&serde_json::to_string(&handshake("ndjson")).unwrap());
    assert!(flaky.read_line().contains("\"ok\":true"));
    flaky.send_line("{\"tuple\":{\"values\":[0,1.0]}}");
    // Half-close: no end frame will ever arrive, but the read side
    // stays open to observe the server's typed reaction.
    flaky.stream.shutdown(std::net::Shutdown::Write).unwrap();
    let error_line = flaky.read_until_error_line();
    assert!(
        error_line.contains("\"kind\":\"disconnect\""),
        "{error_line}"
    );
    assert!(
        error_line.contains("\"protocol\":\"disconnected\""),
        "{error_line}"
    );

    let outcome = client::run_session(
        &ClientConfig::new(server.addr(), handshake("binary")),
        tuples(20),
    )
    .unwrap();
    assert!(outcome.completed(), "healthy session after disconnect");
}

#[test]
fn an_inline_plan_naming_a_removed_strategy_is_rejected_at_handshake() {
    let server = TestServer::start(ServeConfig::default());
    let hello = serde_json::to_string(&handshake("ndjson")).unwrap();
    assert!(hello.contains("\"strategy\":\"auto\""), "{hello}");
    for removed in ["pipelined", "split_merge_parallel"] {
        let mut peer = RawClient::connect(&server.addr());
        // A rejection reply, not a session that never answers.
        peer.stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        peer.send_line(&hello.replace(
            "\"strategy\":\"auto\"",
            &format!("\"strategy\":\"{removed}\""),
        ));
        let reply: icewafl_serve::HandshakeReply =
            serde_json::from_str(&peer.read_line()).expect("a handshake reply");
        assert!(!reply.ok, "{removed} accepted");
        let reason = reply.error.unwrap();
        assert!(
            reason.contains("StrategyHint") && reason.contains(&format!("`{removed}`")),
            "{reason}"
        );
    }
    // The server is still healthy.
    let outcome = client::run_session(
        &ClientConfig::new(server.addr(), handshake("ndjson")),
        tuples(20),
    )
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.reply.strategy.as_deref(), Some("sequential"));
}

#[test]
fn an_inline_plan_with_an_oversized_batch_size_is_rejected_at_handshake() {
    let server = TestServer::start(ServeConfig::default());
    let oversized = Handshake {
        plan_inline: Some(LogicalPlan {
            batch_size: 1 << 62,
            ..plan(42)
        }),
        ..handshake("ndjson")
    };
    let mut peer = RawClient::connect(&server.addr());
    // A rejection reply, not an accepted session whose worker dies on
    // the first tuple and leaves the connection unanswered.
    peer.stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    peer.send_line(&serde_json::to_string(&oversized).unwrap());
    let reply: icewafl_serve::HandshakeReply =
        serde_json::from_str(&peer.read_line()).expect("a handshake reply");
    assert!(!reply.ok, "batch_size 2^62 accepted");
    let reason = reply.error.unwrap();
    assert!(reason.contains("batch_size"), "{reason}");
    drop(peer);
    // The same server still runs a normal session.
    let outcome = client::run_session(
        &ClientConfig::new(server.addr(), handshake("ndjson")),
        tuples(20),
    )
    .unwrap();
    assert!(outcome.completed(), "session failed: {:?}", outcome.error);
}

#[test]
fn capacity_overflow_is_rejected_at_handshake() {
    let server = TestServer::start(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    });

    // Occupy the only slot without finishing the session.
    let mut holder = RawClient::connect(&server.addr());
    holder.send_line(&serde_json::to_string(&handshake("ndjson")).unwrap());
    assert!(holder.read_line().contains("\"ok\":true"));

    // The next connection is turned away before plan compilation.
    let rejected = loop {
        let outcome = client::run_session(
            &ClientConfig::new(server.addr(), handshake("ndjson")),
            vec![],
        )
        .unwrap();
        // The holder's session thread may still be starting; only a
        // capacity rejection ends the loop.
        if !outcome.reply.ok {
            break outcome;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(rejected.reply.error.unwrap().contains("capacity"));

    // Release the slot; the server accepts sessions again.
    holder.send_line("{\"end\":true}");
    drop(holder);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let outcome = client::run_session(
            &ClientConfig::new(server.addr(), handshake("ndjson")),
            tuples(5),
        )
        .unwrap();
        if outcome.completed() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn rejection_reply_survives_input_the_server_never_reads() {
    // A rejected peer may have sent its handshake and more before it
    // looks for the reply. Closing on that unread input would make the
    // kernel reset the connection, and the reset can overtake the
    // reply: the server has to flush, shut its write side, and read
    // the peer out.
    let server = TestServer::start(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    });
    let mut holder = RawClient::connect(&server.addr());
    holder.send_line(&serde_json::to_string(&handshake("ndjson")).unwrap());
    assert!(holder.read_line().contains("\"ok\":true"));

    let mut hello = serde_json::to_string(&handshake("ndjson")).unwrap();
    hello.push('\n');
    let junk = [b'x'; 1024];
    for attempt in 0..200 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(hello.as_bytes()).unwrap();
        // 64 KiB the server will not want, a write at a time: a reset
        // in between fails the next one.
        for _ in 0..64 {
            stream
                .write_all(&junk)
                .unwrap_or_else(|e| panic!("attempt {attempt}: reset while writing, {e}"));
        }
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .unwrap_or_else(|e| panic!("attempt {attempt}: no reply, {e}"));
        assert!(reply.contains("capacity"), "attempt {attempt}: {reply:?}");
    }
}

#[test]
fn concurrent_sessions_with_a_slow_reader_do_not_interfere() {
    let input = tuples(400);
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(input.clone())
        .unwrap();

    let server = TestServer::start(ServeConfig {
        max_sessions: 8,
        ..ServeConfig::default()
    });

    let workers: Vec<_> = (0..8)
        .map(|i| {
            let addr = server.addr();
            let input = input.clone();
            std::thread::spawn(move || {
                let format = if i % 2 == 0 { "binary" } else { "ndjson" };
                let mut config = ClientConfig::new(addr, handshake(format));
                if i == 0 {
                    // One deliberately slow reader: backpressure must
                    // throttle its session, not break it or the others.
                    config.slow_reader = Some(Duration::from_millis(2));
                }
                client::run_session(&config, input).unwrap()
            })
        })
        .collect();

    for worker in workers {
        let outcome = worker.join().unwrap();
        assert!(outcome.completed(), "session failed: {:?}", outcome.error);
        assert_eq!(outcome.tuples, offline.polluted);
    }

    let snapshot = settled(server.server.registry());
    assert_eq!(snapshot.counter("serve/sessions_completed"), 8);
    assert_eq!(snapshot.counter("serve/sessions_failed"), 0);
    assert_eq!(snapshot.gauge("serve/sessions_active"), 0);
}

#[test]
fn telemetry_session_streams_periodic_frames_with_session_table() {
    let server = TestServer::start(ServeConfig {
        telemetry_interval_ms: 25,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Hold a pollute session open: handshake, feed two tuples, but no
    // end marker yet — the session stays in the telemetry table while
    // the subscriber below watches it.
    let mut pollute = RawClient::connect(&addr);
    pollute.send_line(&serde_json::to_string(&handshake("ndjson")).unwrap());
    let reply = pollute.read_line();
    assert!(reply.contains("\"ok\":true"), "handshake failed: {reply}");
    pollute.send_line("{\"tuple\":{\"values\":[0,1.0]}}");
    pollute.send_line("{\"tuple\":{\"values\":[1,2.0]}}");

    // Subscribe for four frames (~100ms at a 25ms interval).
    let frames = client::subscribe_telemetry(&addr, None, 4).unwrap();
    assert!(frames.len() >= 2, "got {} frames", frames.len());
    assert_eq!(frames[0].seq, 1);
    assert!(frames.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    assert!(frames.iter().all(|f| f.interval_ms == 25));
    assert!(frames.windows(2).all(|w| w[1].at_ms >= w[0].at_ms));

    let last = frames.last().unwrap();
    // The subscriber sees itself, with its own transfer counters
    // advancing as frames go out.
    let own = last
        .sessions
        .iter()
        .find(|s| s.kind == "telemetry")
        .expect("telemetry session lists itself");
    assert!(own.frames_out >= 1, "telemetry row: {own:?}");
    assert!(own.bytes_out > 0, "telemetry row: {own:?}");
    // The held-open pollute session appears with its live counters; the
    // timing-dependent ones are only read, not asserted.
    let pollute_row = last
        .sessions
        .iter()
        .find(|s| s.kind == "pollute")
        .expect("pollute session in the table");
    assert!(pollute_row.frames_in >= 1, "pollute row: {pollute_row:?}");
    // The table tells the sessions' wire formats apart.
    assert_eq!(pollute_row.format, "ndjson", "pollute row: {pollute_row:?}");
    let _ = pollute_row.bytes_out + pollute_row.encode_ns + pollute_row.blocked_write_ns;

    // The sampler fed at least one registry delta across the observed
    // window.
    assert!(
        frames.iter().any(|f| f.delta.is_some()),
        "no sampler delta in any frame"
    );

    // Finish the pollute session cleanly.
    pollute.send_line("{\"end\":true}");
    loop {
        let line = pollute.read_line();
        assert!(!line.is_empty(), "server closed without a report");
        if line.contains("\"report\"") && !line.contains("\"report\":null") {
            break;
        }
    }
}

/// Runs `body` on a thread of its own and fails the test if it has not
/// returned within two minutes.
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

/// A telemetry client that stops reading is skipped, not buffered: its
/// session queues a frame only while its outbox is below one window,
/// and drain ends it at once instead of waiting for it to read.
#[test]
fn a_telemetry_client_that_stops_reading_neither_grows_its_outbox_nor_holds_up_drain() {
    // The reactor's outbox window, as its module docs state it.
    const OUTBOX_HIGH: u64 = 256 * 1024;

    watchdogged(|| {
        let server = Arc::new(
            Server::bind(ServeConfig {
                max_sessions: 128,
                telemetry_interval_ms: 1,
                ..ServeConfig::default()
            })
            .unwrap(),
        );
        let addr = server.local_addr().to_string();
        let (ran, run_result) = std::sync::mpsc::channel();
        let runner = Arc::clone(&server);
        let running = std::thread::spawn(move || {
            let _ = ran.send(runner.run());
        });
        let open = |handshake: &str| {
            let mut peer = RawClient::connect(&addr);
            peer.send_line(handshake);
            let line = peer.read_line();
            let reply: HandshakeReply = serde_json::from_str(&line).unwrap();
            assert!(reply.ok, "handshake failed: {line}");
            (peer, reply.session)
        };

        // Idle sessions fill every frame's session table: a frame is
        // kilobytes long, so a silent client's socket fills fast.
        let pollute = serde_json::to_string(&handshake("ndjson")).unwrap();
        let idle: Vec<RawClient> = (0..64).map(|_| open(&pollute).0).collect();
        let (silent, silent_ids): (Vec<RawClient>, Vec<u64>) =
            (0..4).map(|_| open(r#"{"session":"telemetry"}"#)).unzip();

        // Watch until no silent session has been sent a frame for two
        // hundred ticks: their sockets are full and they skip ticks.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut sent_before = None;
        let (rows, frame_len, stalled) = loop {
            let frame = client::subscribe_telemetry(&addr, None, 1)
                .unwrap()
                .remove(0);
            let frame_len = encode_telemetry_frame(&frame, WireFormat::Ndjson).wire_len() as u64;
            let rows: Vec<SessionTelemetry> = frame
                .sessions
                .into_iter()
                .filter(|row| silent_ids.contains(&row.id))
                .collect();
            assert_eq!(rows.len(), silent_ids.len(), "silent sessions listed");
            let sent: Vec<u64> = rows.iter().map(|row| row.frames_out).collect();
            let stalled = sent_before.as_ref() == Some(&sent);
            if stalled || Instant::now() > deadline {
                break (rows, frame_len, stalled);
            }
            sent_before = Some(sent);
            std::thread::sleep(Duration::from_millis(200));
        };

        // Drain: the idle sessions end first (a pollute session runs to
        // completion), then the silent clients, still connected, must
        // not hold `run` up.
        for mut peer in idle {
            peer.send_line("{\"end\":true}");
            loop {
                let line = peer.read_line();
                assert!(!line.is_empty(), "idle session closed without a report");
                if line.contains("\"report\":{") {
                    break;
                }
            }
        }
        server.shutdown_handle().store(true, Ordering::SeqCst);
        let drained = run_result.recv_timeout(Duration::from_secs(2));
        assert!(
            matches!(drained, Ok(Ok(()))),
            "run did not return within 2 s of shutdown: {drained:?}"
        );
        running.join().unwrap();
        drop(silent);

        assert!(
            stalled,
            "kept sending to clients that read nothing: {rows:?}"
        );
        for row in &rows {
            assert!(row.frames_out > 0, "was never sent a frame: {row:?}");
            // One frame over the window, and an eighth of a frame for
            // how much frames differ in size (their delta maps).
            assert!(
                row.outbox_hwm_bytes <= OUTBOX_HIGH + frame_len + frame_len / 8,
                "frames of {frame_len} bytes: {row:?}"
            );
        }
    });
}

mod codec_properties {
    use icewafl_serve::protocol::{decode_stamped, decode_tuple, encode_stamped, encode_tuple};
    use icewafl_types::{StampedTuple, Timestamp, Tuple, Value};
    use proptest::prelude::*;

    /// Deterministically builds a tuple mixing every value type from a
    /// seed — the vendored proptest drives the seeds, the mapping
    /// supplies the structural variety.
    fn tuple_from(seed: u64, arity: usize) -> Tuple {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let values = (0..arity)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match state % 6 {
                    0 => Value::Null,
                    1 => Value::Bool(state & 64 != 0),
                    2 => Value::Int(state as i64),
                    3 => Value::Float(
                        f64::from_bits((state & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000)
                            - 1.5,
                    ),
                    4 => Value::Str(format!("s{:x}", state & 0xFFFF).into()),
                    _ => Value::Timestamp(Timestamp(state as i64 >> 16)),
                }
            })
            .collect();
        Tuple::new(values)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tuple_codec_round_trips(seed in 0u64..u64::MAX, arity in 0usize..12) {
            let tuple = tuple_from(seed, arity);
            prop_assert_eq!(decode_tuple(&encode_tuple(&tuple)).unwrap(), tuple);
        }

        #[test]
        fn stamped_codec_round_trips(
            seed in 0u64..u64::MAX,
            arity in 0usize..12,
            id in 0u64..u64::MAX,
            tau in -1_000_000_000_000i64..1_000_000_000_000,
            delay in 0i64..100_000,
            sub in 0u32..16,
        ) {
            let mut stamped = StampedTuple::new(id, Timestamp(tau), tuple_from(seed, arity));
            stamped.arrival = Timestamp(tau + delay);
            stamped.sub_stream = sub;
            prop_assert_eq!(decode_stamped(&encode_stamped(&stamped)).unwrap(), stamped);
        }

        #[test]
        fn truncation_never_round_trips_silently(seed in 0u64..u64::MAX, arity in 1usize..8) {
            let tuple = tuple_from(seed, arity);
            let bytes = encode_tuple(&tuple);
            // Chopping any strict prefix must error, never decode.
            let cut = bytes.len() - 1;
            prop_assert!(decode_tuple(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn binary_sessions_stream_columnar_batch_frames() {
    // Binary sessions encode whole output batches as single columnar
    // frames (TAG_COLUMNS). Speak the protocol raw to see the actual
    // frame tags, and check the reassembled stream is still identical
    // to the offline reference.
    use icewafl_serve::protocol::{
        decode_server_frame, encode_end_frame, encode_tuple_frame, ServerEvent, TAG_COLUMNS,
    };
    use icewafl_stream::net::{FrameReader, FrameWriter, WireFormat, WireFrame};

    let input = tuples(300);
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(input.clone())
        .unwrap();

    let server = TestServer::start(ServeConfig::default());
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut hs_line = serde_json::to_string(&handshake("binary")).unwrap();
    hs_line.push('\n');
    (&stream).write_all(hs_line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "rejected: {reply}");

    let writer_stream = stream.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let mut w = FrameWriter::new(writer_stream, WireFormat::Binary);
        for t in &input {
            w.write(&encode_tuple_frame(t, WireFormat::Binary)).unwrap();
        }
        w.write(&encode_end_frame(WireFormat::Binary)).unwrap();
        w.flush().unwrap();
    });

    let mut reader = FrameReader::new(reader, WireFormat::Binary, 1 << 20);
    let mut columnar_frames = 0usize;
    let mut got = Vec::new();
    loop {
        let frame = reader.read().unwrap().expect("server closed early");
        if matches!(frame, WireFrame::Binary { tag, .. } if tag == TAG_COLUMNS) {
            columnar_frames += 1;
        }
        match decode_server_frame(frame).unwrap() {
            ServerEvent::Tuple(t) => got.push(t),
            ServerEvent::Batch(batch) => got.extend(batch),
            ServerEvent::Report(_) => break,
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    writer.join().unwrap();
    assert!(
        columnar_frames > 0,
        "a batched binary session must emit columnar frames"
    );
    assert!(
        columnar_frames < got.len(),
        "columnar frames carry many tuples each"
    );
    assert_eq!(got, offline.polluted, "reassembled stream is identical");
}

#[test]
fn sessions_opt_into_checkpointing_via_their_plan() {
    // A streaming session cannot be restored (its source is the
    // connection), but a plan with a checkpoint section still commits
    // epoch-aligned frames — visible in the report — without changing
    // a single output byte.
    let input = tuples(300);
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(input.clone())
        .unwrap();

    let mut ckpt_plan = plan(42);
    ckpt_plan.watermark_period = 32;
    ckpt_plan.checkpoint = Some(icewafl_core::config::CheckpointSectionConfig {
        dir: None,
        interval_epochs: 1,
    });
    let server = TestServer::start(ServeConfig::default());
    let hs = Handshake {
        plan_inline: Some(ckpt_plan),
        schema_inline: Some(schema()),
        format: Some("binary".into()),
        ..Handshake::default()
    };
    let outcome = client::run_session(&ClientConfig::new(server.addr(), hs), input).unwrap();
    assert!(outcome.completed(), "session failed: {:?}", outcome.error);
    assert_eq!(
        outcome.tuples, offline.polluted,
        "checkpointing is a pure observer"
    );
    let report = outcome.report.unwrap();
    assert!(
        report.checkpoints_taken > 0,
        "frames committed: {}",
        report.checkpoints_taken
    );
    assert_eq!(report.restored_from_epoch, 0, "streaming never restores");
}

#[test]
fn concurrent_checkpointing_sessions_get_separate_wals() {
    // Two sessions running the same plan against the same checkpoint
    // directory must not overwrite each other's WAL: the server scopes
    // each session into its own subdirectory.
    let dir = std::env::temp_dir().join(format!("icewafl-serve-wal-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut ckpt_plan = plan(42);
    ckpt_plan.watermark_period = 32;
    ckpt_plan.checkpoint = Some(icewafl_core::config::CheckpointSectionConfig {
        dir: Some(dir.to_string_lossy().into_owned()),
        interval_epochs: 1,
    });
    let offline = plan(42)
        .compile(&schema())
        .unwrap()
        .execute(tuples(300))
        .unwrap();

    let server = TestServer::start(ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    });
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let hs = Handshake {
                plan_inline: Some(ckpt_plan.clone()),
                schema_inline: Some(schema()),
                format: Some("binary".into()),
                ..Handshake::default()
            };
            let config = ClientConfig::new(server.addr(), hs);
            std::thread::spawn(move || client::run_session(&config, tuples(300)).unwrap())
        })
        .collect();
    for worker in workers {
        let outcome = worker.join().unwrap();
        assert!(outcome.completed(), "session failed: {:?}", outcome.error);
        assert_eq!(outcome.tuples, offline.polluted, "sessions are isolated");
        assert!(outcome.report.unwrap().checkpoints_taken > 0);
    }

    let mut wals: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("checkpoint.wal").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    wals.sort();
    assert_eq!(
        wals.len(),
        2,
        "each session writes its own WAL subdirectory: {wals:?}"
    );
    for name in &wals {
        assert!(
            name.starts_with("session_"),
            "per-session subdirectory naming: {name}"
        );
        let len = std::fs::metadata(dir.join(name).join("checkpoint.wal"))
            .unwrap()
            .len();
        assert!(len > 0, "WAL {name} has committed frames");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw binary session: the handshake, `tuples` as one `TAG_TUPLE`
/// frame each, the end frame; what comes back until the report.
fn raw_binary_session(
    addr: &str,
    handshake: &Handshake,
    tuples: &[Tuple],
) -> Vec<icewafl_types::StampedTuple> {
    use icewafl_serve::protocol::{
        decode_server_frame, encode_end_frame, encode_tuple_frame, ServerEvent,
    };
    use icewafl_stream::net::{frame_bytes, FrameReader, WireFormat};

    let mut stream = TcpStream::connect(addr).unwrap();
    // A server whose worker died answers nothing: fail, do not hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut upload = serde_json::to_string(handshake).unwrap().into_bytes();
    upload.push(b'\n');
    for t in tuples {
        upload.extend(frame_bytes(&encode_tuple_frame(t, WireFormat::Binary)));
    }
    upload.extend(frame_bytes(&encode_end_frame(WireFormat::Binary)));
    stream.write_all(&upload).unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "rejected: {reply}");
    let mut reader = FrameReader::new(reader, WireFormat::Binary, 1 << 20);
    let mut got = Vec::new();
    loop {
        let frame = reader
            .read()
            .unwrap()
            .expect("the server closed before its report");
        match decode_server_frame(frame).unwrap() {
            ServerEvent::Tuple(t) => got.push(t),
            ServerEvent::Batch(batch) => got.extend(batch),
            ServerEvent::Report(_) => return got,
            other => panic!("unexpected frame: {other:?}"),
        }
    }
}

#[test]
fn tuples_whose_arity_changes_come_back_at_their_own_arity() {
    // Eight tuples on a two-column schema, four of arity 3 then four of
    // arity 2 and the other way round, one `TAG_TUPLE` frame each. The
    // plan releases them in one output unit, which used to be encoded
    // as one columnar frame of the first tuple's arity: that either
    // indexed out of bounds and killed the worker, or cut the wider
    // tuples short. Both the row session (logging on) and the column
    // session (logging off) must answer what offline `execute` gives,
    // and the server must shut down afterwards.
    let wide = |i: i64| {
        Tuple::new(vec![
            Value::Timestamp(Timestamp(i * 1000)),
            Value::Float(i as f64 / 7.0),
            Value::Int(i),
        ])
    };
    let narrow = |i: i64| Tuple::new(wide(i).values()[..2].to_vec());
    let orders: [Vec<Tuple>; 2] = [
        (0..8)
            .map(|i| if i < 4 { wide(i) } else { narrow(i) })
            .collect(),
        (0..8)
            .map(|i| if i < 4 { narrow(i) } else { wide(i) })
            .collect(),
    ];

    let server = Arc::new(Server::bind(ServeConfig::default()).unwrap());
    let shutdown = server.shutdown_handle();
    let runner = Arc::clone(&server);
    let (done, ran) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(runner.run()).unwrap());
    let addr = server.local_addr().to_string();
    for logging in [true, false] {
        let plan = LogicalPlan {
            logging,
            ..plan(42)
        };
        for input in &orders {
            let offline = plan
                .compile(&schema())
                .unwrap()
                .execute(input.clone())
                .unwrap();
            let hs = Handshake {
                plan_inline: Some(plan.clone()),
                ..handshake("binary")
            };
            let served = raw_binary_session(&addr, &hs, input);
            assert_eq!(served, offline.polluted, "logging {logging}");
            let arities: Vec<usize> = served.iter().map(|t| t.tuple.len()).collect();
            assert!(arities.contains(&2) && arities.contains(&3), "{arities:?}");
        }
    }
    shutdown.store(true, Ordering::SeqCst);
    ran.recv_timeout(Duration::from_secs(20))
        .expect("the server shuts down")
        .unwrap();
}

#[test]
fn only_binary_sessions_on_column_exact_plans_run_in_columns() {
    // The server picks the pipelines from what it observes — the wire
    // format and the plan — and the report says which ran: a session
    // lowered to column pipelines counts its kernel rows under
    // `column_session/*`. Either way the output is offline's, and the
    // report carries the one stage layout the plan predicts.
    let input = tuples(300);
    let server = TestServer::start(ServeConfig::default());
    for (format, logging, columns) in [
        ("binary", false, true),
        ("binary", true, false),
        ("ndjson", false, false),
    ] {
        let plan = LogicalPlan {
            logging,
            ..plan(42)
        };
        let physical = plan.compile(&schema()).unwrap();
        let offline = physical.execute(input.clone()).unwrap();
        let hs = Handshake {
            plan_inline: Some(plan),
            ..handshake(format)
        };
        let outcome =
            client::run_session(&ClientConfig::new(server.addr(), hs), input.clone()).unwrap();
        assert!(outcome.completed(), "session failed: {:?}", outcome.error);
        assert_eq!(
            outcome.tuples, offline.polluted,
            "{format}, logging {logging}"
        );
        let metrics = outcome.report.unwrap().metrics;
        assert_eq!(
            metrics.counter("column_session/kernel_rows"),
            if columns { 300 } else { 0 },
            "{format}, logging {logging}"
        );
        assert!(
            metrics
                .gauges
                .contains_key("stage/00_event_time_sorter/buffer_max"),
            "{format}, logging {logging}"
        );
        let pipelines = physical
            .stages()
            .iter()
            .filter(|stage| stage.label.ends_with("_pollution_pipeline"));
        let mut substreams = 0;
        for (i, stage) in pipelines.enumerate() {
            let took = offline
                .polluted
                .iter()
                .filter(|t| t.sub_stream as usize == i)
                .count() as u64;
            assert!(took > 0, "sub-stream {i} took rows");
            assert_eq!(
                metrics.counter(&format!("{}/elements_in", stage.label)),
                took,
                "{format}, logging {logging}, sub-stream {i}"
            );
            substreams += 1;
        }
        assert_eq!(substreams, 2);
    }
}
