//! Observability integration tests: ground-truth log serde, run-report
//! consistency with the `PollutionLog`, and the logging-off hot-path
//! regression (identical output, empty log).

use icewafl_core::log::{LogEntry, PollutionLog};
use icewafl_core::prelude::*;
use icewafl_types::{DataType, Duration, Schema, Timestamp, Tuple, Value};

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

fn stream(n: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 1000)),
                Value::Float(i as f64),
            ])
        })
        .collect()
}

/// A seeded two-polluter plan: value errors plus a shape change.
fn plan(seed: u64, logging: bool) -> LogicalPlan {
    let plan = LogicalPlan::new(
        seed,
        vec![vec![
            PolluterConfig::Standard {
                name: "null-x".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Probability { p: 0.3 },
                pattern: None,
            },
            PolluterConfig::Drop {
                name: "lossy".into(),
                condition: ConditionConfig::Probability { p: 0.1 },
            },
        ]],
    );
    LogicalPlan { logging, ..plan }
}

fn run(seed: u64, logging: bool) -> PollutionOutput {
    plan(seed, logging)
        .compile(&schema())
        .unwrap()
        .execute(stream(500))
        .unwrap()
}

#[test]
fn every_log_entry_variant_round_trips_through_json() {
    let entries = vec![
        LogEntry::ValueChanged {
            tuple_id: 1,
            polluter: "p".into(),
            attr: "x".into(),
            before: Value::Float(1.5),
            after: Value::Null,
            tau: Timestamp(10),
        },
        LogEntry::TupleDelayed {
            tuple_id: 2,
            polluter: "net".into(),
            by: Duration::from_millis(500),
            tau: Timestamp(20),
        },
        LogEntry::TupleDropped {
            tuple_id: 3,
            polluter: "lossy".into(),
            tau: Timestamp(30),
        },
        LogEntry::TupleDuplicated {
            tuple_id: 4,
            polluter: "dup".into(),
            copies: 2,
            tau: Timestamp(40),
        },
    ];
    for entry in &entries {
        let json = serde_json::to_string(entry).unwrap();
        let back: LogEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, entry, "variant survives the round trip: {json}");
    }
    // And a whole log of them.
    let mut log = PollutionLog::new();
    for e in entries {
        log.record(e);
    }
    let json = serde_json::to_string(&log).unwrap();
    let back: PollutionLog = serde_json::from_str(&json).unwrap();
    assert_eq!(back.entries(), log.entries());
}

#[test]
fn report_attributes_log_entries_per_polluter() {
    let out = run(42, true);
    let counts = out.log.counts_by_polluter();
    for polluter in &["null-x", "lossy"] {
        let snap = out.report.polluter(polluter).expect("polluter reported");
        assert_eq!(
            snap.log_entries,
            counts.get(*polluter).copied().unwrap_or(0) as u64,
            "report log_entries matches the PollutionLog for {polluter}"
        );
    }
    assert_eq!(out.report.log_entries, out.log.len() as u64);
    assert_eq!(out.report.tuples_in, 500);
    assert_eq!(out.report.tuples_out, out.polluted.len() as u64);
    assert!(out.report.logging_enabled);
}

/// The live fire counters must agree exactly with the ground-truth log
/// on a seeded run: every MissingValue fire on a non-null float writes
/// one ValueChanged entry, and every drop fire writes one TupleDropped
/// entry.
#[test]
fn fire_counters_match_ground_truth_log() {
    let out = run(42, true);
    let counts = out.log.counts_by_polluter();
    for polluter in &["null-x", "lossy"] {
        let snap = out.report.polluter(polluter).expect("polluter reported");
        assert_eq!(
            snap.fires,
            counts.get(*polluter).copied().unwrap_or(0) as u64,
            "fires == log entries for {polluter}"
        );
        assert_eq!(snap.condition_evals, snap.fires + snap.skips);
    }
    // The stream stages counted the tuples too.
    let tuples_in = out
        .report
        .metrics
        .counter("stage/02_pollution_pipeline/elements_in");
    assert_eq!(tuples_in, 500);
    // The highest real watermark (one per 64 tuples: the 448th tuple's
    // τ); the end-of-stream `W(MAX)` sentinel stays out of it.
    assert_eq!(
        out.report
            .metrics
            .gauge("stage/02_pollution_pipeline/watermark_hwm_ms"),
        447_000
    );
    assert!(out.report.total_fires() > 0);
}

#[test]
fn without_logging_produces_identical_output_and_empty_log() {
    let logged = run(7, true);
    let unlogged = run(7, false);
    assert!(!logged.log.is_empty());
    assert!(unlogged.log.is_empty(), "logging off writes no entries");
    assert!(!unlogged.report.logging_enabled);
    assert_eq!(
        logged.polluted, unlogged.polluted,
        "pollution is bit-identical with logging disabled"
    );
    // The fire/skip statistics are logging-independent.
    for polluter in &["null-x", "lossy"] {
        let a = logged.report.polluter(polluter).unwrap();
        let b = unlogged.report.polluter(polluter).unwrap();
        assert_eq!(a.fires, b.fires);
        assert_eq!(a.skips, b.skips);
        assert_eq!(a.condition_evals, b.condition_evals);
    }
}

#[test]
fn run_report_round_trips_through_json() {
    let out = run(3, true);
    let json = serde_json::to_string_pretty(&out.report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.tuples_in, out.report.tuples_in);
    assert_eq!(back.tuples_out, out.report.tuples_out);
    assert_eq!(back.log_entries, out.report.log_entries);
    assert_eq!(back.polluters, out.report.polluters);
    assert_eq!(back.metrics, out.report.metrics);
    // The human rendering mentions every polluter.
    let text = back.render();
    assert!(text.contains("null-x") && text.contains("lossy"));
}
