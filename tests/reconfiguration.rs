//! Epoch-based runtime reconfiguration acceptance tests.
//!
//! The contract (Fries-style, arXiv:2210.10306): a plan delta scheduled
//! at timestamp `T` applies atomically at the first watermark `>= T`.
//! Output produced before that epoch matches the old plan exactly,
//! output after it matches the new plan exactly, and no tuple is
//! processed under a mixed configuration. With the default watermark
//! period of 64 tuples, the switch point is always a multiple of 64.

use icewafl::prelude::*;
use icewafl::types::{DataType, Timestamp, Value};

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

/// Tuples one second apart: tuple `i` has τ = i·1000 ms and x = i.
fn tuples(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 1000)),
                Value::Float(i as f64),
            ])
        })
        .collect()
}

/// A deterministic plan: scale `x` by 2 on every tuple.
fn scale_plan(strategy: StrategyHint) -> LogicalPlan {
    let mut plan = LogicalPlan::new(
        7,
        vec![vec![PolluterConfig::Standard {
            name: "scale".into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::Scale { factor: 2.0 },
            condition: ConditionConfig::Always,
            pattern: None,
        }]],
    );
    plan.strategy = strategy;
    plan
}

fn x_of(t: &StampedTuple) -> f64 {
    match t.tuple.get(1).unwrap() {
        Value::Float(x) => *x,
        other => panic!("expected float, got {other:?}"),
    }
}

/// Runs 400 tuples with a scale-factor flip (×2 → ×0.5) scheduled at
/// T = 256 000 ms and returns the polluted stream plus the report.
fn run_with_flip(strategy: StrategyHint) -> PollutionOutput {
    let plan = scale_plan(strategy);
    let physical = plan.compile(&schema()).expect("plan compiles");
    let handle = physical.control_handle();
    handle
        .reconfigure_at(
            Timestamp(256_000),
            &[PlanDelta::SetError {
                polluter: "scale".into(),
                error: ErrorConfig::Scale { factor: 0.5 },
            }],
        )
        .expect("delta validates");
    physical.execute(tuples(400)).expect("run succeeds")
}

#[test]
fn rate_change_applies_exactly_at_a_watermark_epoch() {
    let out = run_with_flip(StrategyHint::Sequential);
    assert_eq!(out.polluted.len(), 400);
    assert_eq!(out.report.epochs_applied, 1);
    assert_eq!(out.report.strategy.as_deref(), Some("sequential"));

    // Watermarks fire every 64 source tuples (wm = 63 000, 127 000, …).
    // The first watermark >= 256 000 is 319 000, emitted after tuple
    // 319 — so tuples 0..=319 see the old plan and 320.. see the new
    // one. No tuple may show anything but exactly ×2 or exactly ×0.5.
    let mut first_new: Option<u64> = None;
    for t in &out.polluted {
        let expected_old = t.id as f64 * 2.0;
        let expected_new = t.id as f64 * 0.5;
        let x = x_of(t);
        if x == expected_old && t.id > 0 {
            assert!(
                first_new.is_none(),
                "old-plan tuple {} after the epoch switched at {:?}",
                t.id,
                first_new
            );
        } else if x == expected_new && t.id > 0 {
            first_new.get_or_insert(t.id);
        } else if t.id > 0 {
            panic!("tuple {} has x={x}: neither old nor new plan output", t.id);
        }
    }
    let first_new = first_new.expect("the flip was applied mid-stream");
    assert_eq!(first_new, 320, "epoch fires at the watermark after T");
    assert_eq!(
        first_new % 64,
        0,
        "epoch boundary aligns to the watermark grain"
    );
}

#[test]
fn a_swapped_polluter_reports_every_tuple_it_saw_once() {
    // 320 tuples ran under the old pipeline and 80 under the new one:
    // the report lists `scale` once, counting all 400. Tuple 0 has
    // x = 0, which scaling leaves unchanged, so 399 entries are logged.
    for strategy in [StrategyHint::Sequential, StrategyHint::Auto] {
        let report = run_with_flip(strategy).report;
        assert_eq!(report.polluters.len(), 1, "{:?}", report.polluters);
        let scale = &report.polluters[0];
        assert_eq!(scale.name, "scale");
        assert_eq!(scale.fires, 400);
        assert_eq!(scale.condition_evals, 400);
        assert_eq!(scale.skips, 0);
        assert_eq!(scale.log_entries, 399);
        assert_eq!(report.log_entries, 399);
    }
}

#[test]
fn a_polluter_added_mid_run_reports_after_the_existing_ones() {
    let physical = scale_plan(StrategyHint::Sequential)
        .compile(&schema())
        .unwrap();
    physical
        .control_handle()
        .reconfigure_at(
            Timestamp(256_000),
            &[PlanDelta::AddPolluter {
                pipeline: 0,
                config: PolluterConfig::Standard {
                    name: "late-null".into(),
                    attributes: vec!["x".into()],
                    error: ErrorConfig::MissingValue,
                    condition: ConditionConfig::Always,
                    pattern: None,
                },
            }],
        )
        .unwrap();
    let report = physical.execute(tuples(400)).unwrap().report;
    assert_eq!(report.epochs_applied, 1);
    let names: Vec<&str> = report.polluters.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["scale", "late-null"]);
    let (scale, late) = (&report.polluters[0], &report.polluters[1]);
    assert_eq!((scale.fires, scale.condition_evals), (400, 400));
    // The new polluter sees the 80 tuples from the epoch on, 320..400.
    assert_eq!((late.fires, late.condition_evals), (80, 80));
    assert_eq!(late.log_entries, 80);
}

#[test]
fn every_strategy_switches_at_the_same_epoch_boundary() {
    // `auto` and `sequential` are the two names left for the one
    // schedule; both must split at the same tuple.
    let sequential = run_with_flip(StrategyHint::Sequential);
    let auto = run_with_flip(StrategyHint::Auto);
    assert_eq!(auto.report.epochs_applied, 1);
    assert_eq!(auto.report.strategy.as_deref(), Some("sequential"));
    assert_eq!(
        auto.polluted, sequential.polluted,
        "`auto` must produce the identical epoch split"
    );
}

#[test]
fn repeated_execution_reapplies_the_epoch_deterministically() {
    let physical = scale_plan(StrategyHint::Sequential)
        .compile(&schema())
        .unwrap();
    physical
        .control_handle()
        .reconfigure_at(
            Timestamp(256_000),
            &[PlanDelta::SetError {
                polluter: "scale".into(),
                error: ErrorConfig::Scale { factor: 0.5 },
            }],
        )
        .unwrap();
    let a = physical.execute(tuples(400)).unwrap();
    let b = physical.execute(tuples(400)).unwrap();
    assert_eq!(
        a.polluted, b.polluted,
        "epochs re-apply at the same boundary"
    );
    assert_eq!(b.report.epochs_applied, 1);
}

#[test]
fn delta_scheduled_past_end_of_stream_never_applies() {
    let physical = scale_plan(StrategyHint::Sequential)
        .compile(&schema())
        .unwrap();
    physical
        .control_handle()
        .reconfigure_at(
            Timestamp(10_000_000), // beyond the last tuple's τ of 399 000
            &[PlanDelta::SetError {
                polluter: "scale".into(),
                error: ErrorConfig::Scale { factor: 0.5 },
            }],
        )
        .unwrap();
    let out = physical.execute(tuples(400)).unwrap();
    assert_eq!(out.report.epochs_applied, 0);
    assert!(
        out.polluted.iter().all(|t| x_of(t) == t.id as f64 * 2.0),
        "the whole stream ran under the original plan"
    );
}

#[test]
fn invalid_deltas_are_rejected_before_scheduling() {
    let physical = scale_plan(StrategyHint::Sequential)
        .compile(&schema())
        .unwrap();
    let handle = physical.control_handle();
    let err = handle
        .reconfigure_at(
            Timestamp(100_000),
            &[PlanDelta::SetError {
                polluter: "ghost".into(),
                error: ErrorConfig::MissingValue,
            }],
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("unknown polluter `ghost`"),
        "typed plan error: {err}"
    );
    assert_eq!(handle.scheduled(), 0, "nothing was scheduled");
    let out = physical.execute(tuples(128)).unwrap();
    assert_eq!(out.report.epochs_applied, 0);
}
