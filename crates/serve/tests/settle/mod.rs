//! Reading a server's session counters after its clients are done.
//!
//! A client has its report before the server has settled its session:
//! the server counts a session completed (and no longer active) only
//! after its last byte is flushed. A test that asserts the counters
//! waits for that first.

use icewafl_obs::{MetricsRegistry, MetricsSnapshot};
use std::time::{Duration, Instant};

/// How long the server may take to settle its last session.
const SETTLE_BOUND: Duration = Duration::from_secs(5);

/// A snapshot of `registry` once `serve/sessions_active` reads 0, or
/// the last one taken when it still does not after [`SETTLE_BOUND`]
/// (the caller's assertions then show what is left).
pub fn settled(registry: &MetricsRegistry) -> MetricsSnapshot {
    let deadline = Instant::now() + SETTLE_BOUND;
    loop {
        let snapshot = registry.snapshot();
        if snapshot.gauge("serve/sessions_active") == 0 || Instant::now() >= deadline {
            return snapshot;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
