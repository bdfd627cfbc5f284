//! Fault-tolerance integration test: a mid-stream panic in a pulled
//! pipeline must not silently truncate — the run ends with a typed
//! error, whatever prefix reached the sink.

use icewafl_stream::chaos::install_quiet_panic_hook;
use icewafl_stream::prelude::*;

const PANIC_AT: i64 = 5_000;
const N: i64 = 20_000;

/// Marker matching the quiet panic hook's suppression list.
const MARKER: &str = "[chaos-injected] deliberate test panic";

fn panicking_map(x: i64) -> i64 {
    if x == PANIC_AT {
        panic!("{MARKER} at {x}");
    }
    x
}

#[test]
fn sequential_panic_truncates_loudly_not_silently() {
    install_quiet_panic_hook();
    // The sink may have received a prefix before the failure — that is
    // fine — but the caller must get Err, never an Ok with missing data.
    let sink = SharedVecSink::new();
    let result = DataStream::from_vec((0..N).collect::<Vec<i64>>())
        .map(panicking_map)
        .execute_into(sink.clone());
    let delivered = sink.take();
    assert!(result.is_err(), "truncation must be loud");
    assert!(delivered.len() < N as usize);
}
