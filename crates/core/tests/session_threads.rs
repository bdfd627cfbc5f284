//! A streaming session starts no thread: the caller's pushes run every
//! stage, from open to finish.
//!
//! One `#[test]` only: it reads the process-wide thread count, which
//! tests running beside it would move.

#![cfg(target_os = "linux")]

use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::plan::LogicalPlan;
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

fn plan() -> LogicalPlan {
    let null = |name: &str| PolluterConfig::Standard {
        name: name.into(),
        attributes: vec!["x".into()],
        error: ErrorConfig::MissingValue,
        condition: ConditionConfig::Probability { p: 0.3 },
        pattern: None,
    };
    LogicalPlan::new(5, vec![vec![null("a")], vec![null("b")]])
}

#[test]
fn a_session_starts_no_thread() {
    let idle = threads();
    let physical = plan().compile(&schema()).unwrap();
    let mut released = 0;
    let mut session = physical.open_streaming().unwrap();
    assert_eq!(threads(), idle, "opening a session");
    for tuple in tuples(10_000) {
        session.push(tuple);
        session.drain(|chunk| released += chunk.len());
    }
    assert_eq!(threads(), idle, "feeding a session");
    session.finish(|chunk| released += chunk.len()).unwrap();
    assert_eq!(released, 10_000);
    assert_eq!(threads(), idle, "finishing a session");
}
