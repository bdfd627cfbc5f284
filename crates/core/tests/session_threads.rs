//! A streaming session starts a thread only where its topology leaves
//! something to drive.
//!
//! One `#[test]` only: it reads the process-wide thread count, which
//! tests running beside it would move.

#![cfg(target_os = "linux")]

use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::plan::{LogicalPlan, StrategyHint};
use icewafl_stream::SharedVecSink;
use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};

fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs is mounted")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

fn tuples(n: i64) -> impl Iterator<Item = Tuple> {
    (0..n).map(|i| {
        Tuple::new(vec![
            Value::Timestamp(Timestamp(i * 1000)),
            Value::Float(i as f64),
        ])
    })
}

fn plan(strategy: StrategyHint) -> LogicalPlan {
    let null = |name: &str| PolluterConfig::Standard {
        name: name.into(),
        attributes: vec!["x".into()],
        error: ErrorConfig::MissingValue,
        condition: ConditionConfig::Probability { p: 0.3 },
        pattern: None,
    };
    LogicalPlan {
        strategy,
        ..LogicalPlan::new(5, vec![vec![null("a")], vec![null("b")]])
    }
}

#[test]
fn a_session_starts_threads_only_for_what_its_topology_must_drive() {
    let idle = threads();

    // Sequential: the caller's pushes run every stage, nothing is left
    // to drive, and so no thread exists between open and finish.
    let physical = plan(StrategyHint::Sequential).compile(&schema()).unwrap();
    let sink = SharedVecSink::new();
    let mut session = physical.open_streaming(sink.clone()).unwrap();
    assert_eq!(threads(), idle, "opening a sequential session");
    for tuple in tuples(500) {
        session.push(tuple);
    }
    assert_eq!(threads(), idle, "feeding a sequential session");
    session.finish().unwrap();
    assert_eq!(sink.len(), 500);
    assert_eq!(threads(), idle, "finishing a sequential session");

    // Threaded split/merge: its consumers must run from open on — the
    // router's bounded channels (1024 frames each) would otherwise fill
    // under the pushes below and block this thread for good.
    let physical = plan(StrategyHint::SplitMergeParallel)
        .compile(&schema())
        .unwrap();
    let sink = SharedVecSink::new();
    let mut session = physical.open_streaming(sink.clone()).unwrap();
    for tuple in tuples(10_000) {
        session.push(tuple);
    }
    assert!(threads() > idle, "a threaded session runs its consumers");
    session.finish().unwrap();
    assert_eq!(sink.len(), 10_000);
    assert_eq!(threads(), idle, "finish joins every worker");
}
