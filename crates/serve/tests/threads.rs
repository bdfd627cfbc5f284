//! A running server's threads are its poll thread and its workers,
//! however many telemetry sessions are open: no sampler thread, no
//! thread per session.
//!
//! One `#[test]` only: it reads the process-wide thread count, which
//! tests running beside it would move.

#![cfg(target_os = "linux")]

use icewafl_serve::{Handshake, HandshakeReply, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The names of this process's threads. The kernel keeps the first 15
/// bytes of a name: `icewafl-telemetry` reads `icewafl-telemet`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// Opens a telemetry session and waits for its first frame, so the
/// session is surely running.
fn open_telemetry(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hs = Handshake {
        session: Some("telemetry".into()),
        ..Handshake::default()
    };
    writeln!(stream, "{}", serde_json::to_string(&hs).unwrap()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let reply: HandshakeReply = serde_json::from_str(&line).unwrap();
    assert!(reply.ok, "handshake failed: {line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"telemetry\":{"), "first frame: {line}");
    stream
}

#[test]
fn telemetry_sessions_start_no_thread() {
    let server = Arc::new(
        Server::bind(ServeConfig {
            telemetry_interval_ms: 5,
            max_sessions: 16,
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    let addr = server.local_addr().to_string();
    let runner = Arc::clone(&server);
    let handle = std::thread::spawn(move || runner.run());

    // One session opened and closed first: the server is up, its
    // workers started.
    drop(open_telemetry(&addr));
    let idle = thread_names();
    let sessions: Vec<TcpStream> = (0..8).map(|_| open_telemetry(&addr)).collect();
    let busy = thread_names();

    let per_session: Vec<&String> = busy
        .iter()
        .filter(|name| name.starts_with("icewafl-telemet") || name.starts_with("icewafl-session"))
        .collect();
    assert!(per_session.is_empty(), "threads: {busy:?}");
    assert_eq!(
        busy.len(),
        idle.len(),
        "8 telemetry sessions changed the thread count: {idle:?} -> {busy:?}"
    );

    drop(sessions);
    server.shutdown_handle().store(true, Ordering::SeqCst);
    handle.join().unwrap().unwrap();
}
