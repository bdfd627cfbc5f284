//! Fault-tolerance integration tests: a mid-stream panic inside a
//! fan-out (`split_merge`) — in a sub-pipeline or in the router's own
//! selector — must neither hang nor silently truncate: the run
//! terminates promptly with a typed error naming the failing stage.
//!
//! Every test body runs on a watchdog thread with a generous timeout so
//! a regression shows up as a test failure, not a hung CI job.

use icewafl_stream::chaos::install_quiet_panic_hook;
use icewafl_stream::prelude::*;
use std::time::Duration;

const PANIC_AT: i64 = 5_000;
const N: i64 = 20_000;

/// Marker matching the quiet panic hook's suppression list.
const MARKER: &str = "[chaos-injected] deliberate test panic";

/// Runs `f` on its own thread; panics if it does not finish within 60 s.
fn with_timeout<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("pipeline must terminate, not hang")
}

fn panicking_map(x: i64) -> i64 {
    if x == PANIC_AT {
        panic!("{MARKER} at {x}");
    }
    x
}

#[test]
fn mid_stream_panic_under_split_merge_terminates_with_error() {
    install_quiet_panic_hook();
    let err = with_timeout(|| {
        let builders: Vec<SubPipelineBuilder<i64, i64>> = vec![
            Box::new(|s: DataStream<i64>| s.map(panicking_map)),
            Box::new(|s: DataStream<i64>| s.map(|x| x)),
        ];
        DataStream::from_vec((0..N).collect::<Vec<i64>>())
            .split_merge(|x, out| out.push((*x % 2) as usize), builders)
            .collect()
            .unwrap_err()
    });
    assert_eq!(err.kind(), FailureKind::Injected);
    assert!(
        err.message().contains("deliberate test panic"),
        "panic payload survives: {}",
        err.message()
    );
}

#[test]
fn panic_in_selector_of_the_router_is_attributed() {
    install_quiet_panic_hook();
    for batch_size in [1, 64] {
        let (err, delivered) = with_timeout(move || {
            let builders: Vec<SubPipelineBuilder<i64, i64>> =
                vec![Box::new(|s: DataStream<i64>| s.map(|x| x))];
            let sink = SharedVecSink::new();
            let err = DataStream::from_vec((0..N).collect::<Vec<i64>>())
                .split_merge_batched(
                    |x, out| {
                        if *x == PANIC_AT {
                            panic!("{MARKER} in selector");
                        }
                        out.push(0);
                    },
                    builders,
                    batch_size,
                )
                .execute_into(sink.clone())
                .unwrap_err();
            (err, sink.take())
        });
        assert!(
            err.stage().contains("split_router"),
            "selector panics blame the router, got `{}`",
            err.stage()
        );
        assert_eq!(err.kind(), FailureKind::Injected);
        // Records routed before the panic are flushed ahead of the
        // poison, whatever the frame size.
        assert_eq!(
            delivered,
            (0..PANIC_AT).collect::<Vec<i64>>(),
            "batch {batch_size}"
        );
    }
}

#[test]
fn healthy_split_merge_still_delivers_everything() {
    // The guard rails must not tax the success path: same combinators,
    // no fault, full delivery.
    let out = with_timeout(|| {
        let builders: Vec<SubPipelineBuilder<i64, i64>> = vec![
            Box::new(|s: DataStream<i64>| s.map(|x| x)),
            Box::new(|s: DataStream<i64>| s.map(|x| -x)),
        ];
        DataStream::from_vec((0..N).collect::<Vec<i64>>())
            .split_merge_batched(|x, out| out.push((*x % 2) as usize), builders, 128)
            .collect()
            .unwrap()
    });
    assert_eq!(out.len(), N as usize);
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
