//! Chaos-recovery acceptance tests (the ISSUE's two contract points):
//!
//! 1. a seeded chaos run whose injected fault panics an operator
//!    completes with a typed pipeline error naming the failing stage —
//!    no deadlock, no silent truncation;
//! 2. the *same* configuration run under a supervisor with
//!    `max_retries ≥ 1` recovers from a transient fault and reports
//!    `restarts ≥ 1` in the `RunReport`.
//!
//! A kill mid-stream is loud as well: fail-fast `execute` and a streaming
//! session both end in the injector's typed error, after at most a
//! strict prefix of the output.
//!
//! Everything is seeded, so these runs are reproducible bit-for-bit.

use icewafl::prelude::*;
use icewafl::types::{DataType, Error, Timestamp, Value};

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

fn tuples(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 60_000)),
                Value::Float(i as f64),
            ])
        })
        .collect()
}

/// A plan with one real polluter plus a chaos section that panics once
/// (`panic_budget: 1` = a transient fault).
fn chaotic_config(max_retries: u32) -> LogicalPlan {
    let cfg = LogicalPlan::from_json(&format!(
        r#"{{
            "seed": 42,
            "pipelines": [[{{
                "type": "standard",
                "name": "null-x",
                "attributes": ["x"],
                "error": {{ "type": "missing_value" }},
                "condition": {{ "type": "probability", "p": 0.5 }}
            }}]],
            "supervision": {{ "max_retries": {max_retries}, "deterministic": true }},
            "chaos": {{ "panic_rate": 1.0, "panic_budget": 1 }}
        }}"#
    ))
    .expect("config parses");
    assert!(cfg.supervision.is_some() && cfg.chaos.is_some());
    cfg
}

/// Every test runs the plan path: JSON → logical plan → compiled
/// physical plan → supervised execution.
fn compiled(plan: &LogicalPlan) -> PhysicalPlan {
    plan.compile(&schema()).expect("plan compiles")
}

#[test]
fn seeded_chaos_panic_yields_typed_error_naming_the_stage() {
    let cfg = chaotic_config(0); // fail-fast: the one injected panic is fatal
    let err = compiled(&cfg).execute_supervised(tuples(100)).unwrap_err();
    match err {
        Error::Pipeline {
            stage,
            kind,
            message,
        } => {
            assert!(
                stage.contains("chaos"),
                "failing stage is the injector: `{stage}`"
            );
            assert_eq!(kind, "injected");
            assert!(message.contains("injected panic"), "payload: {message}");
        }
        other => panic!("expected Error::Pipeline, got: {other}"),
    }
}

#[test]
fn same_config_with_retries_recovers_and_reports_restarts() {
    let cfg = chaotic_config(2);
    let out = compiled(&cfg)
        .execute_supervised(tuples(100))
        .expect("transient fault heals after restart");
    assert!(
        out.report.restarts >= 1,
        "supervisor consumed at least one restart"
    );
    assert_eq!(out.polluted.len(), 100, "full stream reprocessed");
    // The recovery is visible in the human-readable report too.
    assert!(out.report.render().contains("supervised restarts"));
}

#[test]
fn recovered_run_matches_an_undisturbed_run() {
    // Fault tolerance must not change *what* is computed: the retry
    // rebuilds the pipelines, so the polluted output equals a run that
    // never saw the fault.
    let cfg = chaotic_config(2);
    let disturbed = compiled(&cfg).execute_supervised(tuples(100)).unwrap();
    let mut calm_cfg = cfg.clone();
    calm_cfg.chaos = None;
    let calm = compiled(&calm_cfg).execute_supervised(tuples(100)).unwrap();
    assert_eq!(disturbed.polluted, calm.polluted);
    assert_eq!(calm.report.restarts, 0);
}

#[test]
fn expired_deadline_fails_with_deadline_kind_and_never_retries() {
    let mut cfg = chaotic_config(5);
    cfg.chaos = None; // no panics: the deadline itself is the fault
    let supervision = cfg.supervision.as_mut().unwrap();
    supervision.deadline_ms = Some(0);
    let err = compiled(&cfg)
        .execute_supervised(tuples(5_000))
        .unwrap_err();
    match err {
        Error::Pipeline { kind, .. } => assert_eq!(kind, "deadline"),
        other => panic!("expected deadline failure, got: {other}"),
    }
}

#[test]
fn chaos_metrics_surface_in_the_run_report() {
    // Drops are non-fatal: the run succeeds and the injector's counters
    // land in the report.
    let mut cfg = chaotic_config(0);
    cfg.chaos = Some(icewafl::core::config::ChaosSectionConfig {
        drop_rate: 1.0,
        ..Default::default()
    });
    let out = compiled(&cfg).execute_supervised(tuples(50)).unwrap();
    assert!(out.polluted.is_empty(), "every record dropped in flight");
    assert_eq!(
        out.report
            .metrics
            .counter("chaos/substream_0/injected_drops"),
        50
    );
}

#[test]
fn mid_stream_kill_truncates_loudly_not_silently() {
    // A row plan whose injector kills the run at tuple 5 000 of 20 000.
    // Output may have been released before the kill, but the caller
    // must get a typed error naming the injector, never `Ok` with
    // tuples missing.
    const N: i64 = 20_000;
    let mut cfg = chaotic_config(0);
    cfg.supervision = None;
    cfg.chaos = Some(icewafl::core::config::ChaosSectionConfig {
        kill_at_tuple: Some(5_000),
        panic_budget: Some(1),
        ..Default::default()
    });
    let plan = compiled(&cfg);
    let expect_kill = |result: Result<usize, Error>| match result {
        Err(Error::Pipeline { stage, kind, .. }) => {
            assert!(stage.contains("chaos"), "failing stage: `{stage}`");
            assert_eq!(kind, "injected");
        }
        Ok(n) => panic!("a killed run returned Ok with {n} of {N} tuples"),
        Err(other) => panic!("expected Error::Pipeline, got: {other}"),
    };
    // `execute` is fail-fast.
    expect_kill(plan.execute(tuples(N)).map(|out| out.polluted.len()));

    // A streaming session hands out a strict prefix, then the error.
    let mut session = plan.open_streaming().unwrap();
    let mut drained = 0;
    for t in tuples(N) {
        session.push(t);
        session.drain(|chunk| drained += chunk.len());
    }
    expect_kill(
        session
            .finish(|chunk| drained += chunk.len())
            .map(|report| report.tuples_out as usize),
    );
    assert!(drained < N as usize, "drained {drained} of {N}");
}
