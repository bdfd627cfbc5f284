//! One small NDJSON session, byte for byte.
//!
//! `fixtures/ndjson_session.in` is everything a client sends — a
//! handshake with an inline plan and schema, 48 tuple lines (some with
//! whitespace, reordered, unknown and escaped keys, integers and
//! exponents in the float column, escapes and non-ASCII in strings),
//! the end line. `fixtures/ndjson_session.out` is every data line the
//! server answered with at the commit before the tuple lines got their
//! hand-written codec. A deployed client parses those bytes; a change
//! to number or string formatting, key order, or the `null` members
//! fails here, not only in a digest.
//!
//! The handshake reply (session id) and the report line (timings) are
//! not part of the fixture.

use icewafl_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

#[test]
fn an_ndjson_session_answers_with_the_committed_bytes() {
    let input = include_bytes!("fixtures/ndjson_session.in");
    let expected = include_str!("fixtures/ndjson_session.out");

    let server = Arc::new(Server::bind(ServeConfig::default()).unwrap());
    let shutdown = server.shutdown_handle();
    let runner = Arc::clone(&server);
    let running = std::thread::spawn(move || runner.run());

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(input).unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    shutdown.store(true, Ordering::SeqCst);
    running.join().unwrap().unwrap();

    let (reply, rest) = answer.split_once('\n').expect("a handshake reply line");
    assert!(reply.starts_with(r#"{"ok":true,"#), "{reply}");
    let report_at = rest[..rest.len() - 1].rfind('\n').expect("data lines") + 1;
    let (data, report) = rest.split_at(report_at);
    assert!(
        report.starts_with(r#"{"tuple":null,"report":{"tuples_in":48,"tuples_out":48,"#),
        "{report}"
    );
    for (n, (got, want)) in data.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "data line {n}");
    }
    assert_eq!(data.len(), expected.len());
}
