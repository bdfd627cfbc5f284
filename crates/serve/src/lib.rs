//! # icewafl-serve
//!
//! Pollution as a network service: a multi-client TCP server that runs
//! a compiled pollution plan per connection and streams polluted tuples
//! back as they are produced.
//!
//! A session is one connection: the client opens with a one-line JSON
//! [handshake](protocol::Handshake) naming a preloaded plan (or
//! inlining one) and a schema, then streams tuples in either NDJSON or
//! length-prefixed binary [frames](protocol); the server pushes every
//! decoded frame through the session's plan as it arrives and streams
//! the polluted [`StampedTuple`](icewafl_types::StampedTuple)s back,
//! closing with the session's [`RunReport`](icewafl_core::RunReport).
//! Backpressure is TCP flow control: while a session's output window is
//! full the server neither reads nor decodes its input, so a slow reader
//! throttles its own upload without growing server memory — and
//! without affecting any other session.
//!
//! Protocol errors (malformed frames, oversized frames, mid-stream
//! disconnects) fail only the offending session and are answered with a
//! typed [error frame](protocol::SessionErrorFrame).
//!
//! The server core is event-driven: an epoll readiness loop
//! (hand-rolled behind the tiny [`poll`]-module abstraction — no tokio,
//! mio, or libc crate) multiplexes every session over a worker pool
//! sized to cores, so concurrency is bounded by file descriptors and
//! buffered bytes rather than threads. Sessions that publish to a named
//! `stream` are fanned out to `subscribe` sessions from pre-serialized
//! frames — each output frame is encoded once and shared as
//! `Arc<[u8]>`. epoll makes serving Linux-only; elsewhere the crate
//! builds, so the client and the offline CLI keep working, but
//! [`Server::run`] returns a configuration error.
//!
//! Entry points: [`Server::bind`] + [`Server::run`] on the server side,
//! [`client::run_session`] on the client side, `icewafl serve` on the
//! command line.

#![warn(missing_docs)]

pub mod client;
pub mod poll;
pub mod protocol;
#[cfg(target_os = "linux")]
mod reactor;
pub mod server;
pub mod signal;

pub use client::{run_session, subscribe_telemetry, watch_telemetry, ClientConfig, SessionOutcome};
pub use protocol::{
    Handshake, HandshakeReply, ServerEvent, SessionErrorFrame, SessionTelemetry, TelemetryFrame,
};
pub use server::{ServeConfig, Server};
