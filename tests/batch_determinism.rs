//! Transport-batching determinism acceptance tests.
//!
//! `batch_size` is a pure performance knob: channel edges coalesce
//! records into `StreamElement::Batch` frames, but every buffer is
//! flushed *before* a watermark, end marker, or failure travels the
//! edge, so event-time semantics, epoch boundaries, and the ground
//! truth log are bit-identical across batch sizes. These tests pin that
//! contract across strategies, a mid-stream reconfiguration, and
//! chaos-injected panics (poison must not strand a partial batch).
//!
//! The same holds across *schedules*: the merged order is
//! `(arrival, sub_stream)`, stable within a sub-stream, and the log is
//! the per-sub-stream segments in sub-stream order, so every strategy —
//! with or without checkpoint barriers — yields the same bytes.

use icewafl::prelude::*;
use icewafl::types::{DataType, Error, Timestamp, Value};

/// Swept batch sizes: unbatched, an odd size that never divides the
/// watermark period, the default, and one far beyond it.
const BATCH_SIZES: [usize; 4] = [1, 7, 256, 4096];

const STRATEGIES: [StrategyHint; 3] = [
    StrategyHint::Sequential,
    StrategyHint::Pipelined,
    StrategyHint::SplitMergeParallel,
];

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

fn noise(name: String) -> PolluterConfig {
    PolluterConfig::Standard {
        name,
        attributes: vec!["x".into()],
        error: ErrorConfig::GaussianNoise {
            sigma: 1.0,
            relative: false,
        },
        condition: ConditionConfig::Probability { p: 0.5 },
        pattern: None,
    }
}

fn run(plan: &LogicalPlan, n: i64) -> PollutionOutput {
    plan.compile(&schema())
        .expect("plan compiles")
        .execute(tuples(n))
        .expect("run succeeds")
}

/// Overlapping sub-streams (probabilistic assigner shares tuples via
/// the router's `Arc` fan-out) plus duplicates and delays, so batches
/// interact with every temporal mechanism: held-back tuples, watermark
/// releases, and multi-membership routing.
fn rich_plan(strategy: StrategyHint, batch_size: usize) -> LogicalPlan {
    let pipeline = |i: usize| {
        vec![
            noise(format!("noise-{i}")),
            PolluterConfig::Duplicate {
                name: format!("dup-{i}"),
                condition: ConditionConfig::Probability { p: 0.1 },
                copies: 1,
            },
            PolluterConfig::Delay {
                name: format!("lag-{i}"),
                condition: ConditionConfig::Probability { p: 0.2 },
                delay_ms: 10_000,
            },
        ]
    };
    let mut plan = LogicalPlan::new(42, (0..3).map(pipeline).collect());
    plan.assigner = AssignerSpec::Probabilistic { p: 0.6 };
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    plan
}

/// Disjoint round-robin sub-streams with unique arrival times, where
/// even the thread-parallel merge order is fully determined by the
/// final sort — the configuration in which all strategies must agree
/// byte-for-byte.
fn disjoint_plan(strategy: StrategyHint, batch_size: usize) -> LogicalPlan {
    let mut plan = LogicalPlan::new(
        42,
        (0..4).map(|i| vec![noise(format!("noise-{i}"))]).collect(),
    );
    plan.assigner = AssignerSpec::RoundRobin;
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    plan
}

/// Round-robin sub-streams where every delayed tuple lands *exactly*
/// on the arrival time of a later tuple of another sub-stream: tuples
/// are 1 s apart, so a 10 s delay moves tuple `i` (sub-stream `i % 4`)
/// onto tuple `i + 10` (sub-stream `(i + 2) % 4`).
fn delay_tie_plan(strategy: StrategyHint, batch_size: usize) -> LogicalPlan {
    let pipeline = |i: usize| {
        vec![
            noise(format!("noise-{i}")),
            PolluterConfig::Delay {
                name: format!("lag-{i}"),
                condition: ConditionConfig::Probability { p: 0.3 },
                delay_ms: 10_000,
            },
        ]
    };
    let mut plan = LogicalPlan::new(42, (0..4).map(pipeline).collect());
    plan.assigner = AssignerSpec::RoundRobin;
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    plan
}

/// Every tuple in every sub-stream (each arrival time is a three-way
/// tie across sub-streams), with a duplicate polluter adding ties
/// *within* a sub-stream on top.
fn broadcast_tie_plan(strategy: StrategyHint, batch_size: usize) -> LogicalPlan {
    let pipeline = |i: usize| {
        vec![
            noise(format!("noise-{i}")),
            PolluterConfig::Duplicate {
                name: format!("dup-{i}"),
                condition: ConditionConfig::Probability { p: 0.3 },
                copies: 1,
            },
        ]
    };
    let mut plan = LogicalPlan::new(42, (0..3).map(pipeline).collect());
    plan.assigner = AssignerSpec::Broadcast;
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    plan
}

#[test]
fn arrival_ties_order_identically_under_every_schedule() {
    // Tuples of different sub-streams with equal arrival times sort by
    // `(arrival, sub_stream)`, then by emission order within the
    // sub-stream — a function of the tuples, not of the schedule. So
    // the polluted stream *and* the ground-truth log are byte-identical
    // across strategies (sequential lockstep, pipelined tail, one
    // thread per sub-stream), batch sizes, and with barrier alignment
    // holding sub-streams back at the union (checkpointing on).
    type PlanFn = fn(StrategyHint, usize) -> LogicalPlan;
    let plans: [(&str, PlanFn); 3] = [
        ("overlap + duplicates + delays", rich_plan),
        ("delay = k x gap", delay_tie_plan),
        ("broadcast + duplicates", broadcast_tie_plan),
    ];
    for (name, plan_of) in plans {
        let base = run(&plan_of(StrategyHint::Sequential, 1), 500);
        let ties = base
            .polluted
            .windows(2)
            .filter(|w| w[0].arrival == w[1].arrival && w[0].sub_stream != w[1].sub_stream)
            .count();
        assert!(ties > 50, "{name}: only {ties} cross-sub-stream ties");
        assert!(
            base.polluted
                .windows(2)
                .all(|w| (w[0].arrival, w[0].sub_stream) <= (w[1].arrival, w[1].sub_stream)),
            "{name}: output is not in (arrival, sub_stream) order"
        );
        for strategy in STRATEGIES {
            for batch_size in BATCH_SIZES {
                for checkpointing in [false, true] {
                    let mut plan = plan_of(strategy, batch_size);
                    if checkpointing {
                        plan.checkpoint = Some(Default::default());
                    }
                    let out = plan
                        .compile(&schema())
                        .expect("plan compiles")
                        .execute_supervised(tuples(500))
                        .expect("run succeeds");
                    let case = format!(
                        "{name}, {strategy:?}, batch {batch_size}, checkpointing {checkpointing}"
                    );
                    assert_eq!(
                        out.polluted, base.polluted,
                        "polluted stream changed ({case})"
                    );
                    assert_eq!(out.clean, base.clean);
                    assert_eq!(
                        out.log.entries(),
                        base.log.entries(),
                        "ground truth changed ({case})"
                    );
                    assert_eq!(out.report.checkpoints_taken > 0, checkpointing, "{case}");
                }
            }
        }
    }
}

#[test]
fn all_strategies_agree_across_batch_sizes() {
    let base = run(&disjoint_plan(StrategyHint::Sequential, 1), 1000);
    assert_eq!(base.polluted.len(), 1000);
    for strategy in STRATEGIES {
        for batch_size in BATCH_SIZES {
            let out = run(&disjoint_plan(strategy, batch_size), 1000);
            assert_eq!(
                out.polluted, base.polluted,
                "output diverged ({strategy:?}, batch {batch_size})"
            );
        }
    }
}

/// The reconfiguration scale plan of `tests/reconfiguration.rs`: ×2
/// flipped to ×0.5 at T = 256 000 ms, which the watermark grain of 64
/// pins to an epoch switch exactly at tuple 320.
fn flipped_scale_run(strategy: StrategyHint, batch_size: usize) -> PollutionOutput {
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
    plan.batch_size = batch_size;
    let physical = plan.compile(&schema()).expect("plan compiles");
    physical
        .control_handle()
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
fn epoch_boundary_is_batch_size_invariant() {
    let base = flipped_scale_run(StrategyHint::Sequential, 1);
    for strategy in STRATEGIES {
        for batch_size in BATCH_SIZES {
            let out = flipped_scale_run(strategy, batch_size);
            assert_eq!(out.report.epochs_applied, 1);
            assert_eq!(
                out.polluted, base.polluted,
                "epoch split moved ({strategy:?}, batch {batch_size})"
            );
            // The switch lands exactly at tuple 320 — the first tuple
            // after the first watermark >= 256 000 — under every batch
            // size, because batches flush before watermarks broadcast.
            let first_new = out
                .polluted
                .iter()
                .find(|t| t.id > 0 && t.tuple.get(1) == Some(&Value::Float(t.id as f64 * 0.5)))
                .map(|t| t.id);
            assert_eq!(first_new, Some(320));
        }
    }
}

// ---------------------------------------------------------------------
// Columnar vs row representation
// ---------------------------------------------------------------------

/// Batch sizes for the representation sweep. 1 exercises the degenerate
/// single-row column kernels; 4096 exceeds every internal buffer.
const REPR_BATCH_SIZES: [usize; 4] = [1, 64, 256, 4096];

/// A value-only plan (noise + scale) that lowers to column kernels,
/// with the representation pinned so a silent fallback would fail the
/// compile instead of silently testing row against row.
fn repr_plan(strategy: StrategyHint, batch_size: usize, repr: ReprHint) -> LogicalPlan {
    let pipeline = |i: usize| {
        vec![
            noise(format!("noise-{i}")),
            PolluterConfig::Standard {
                name: format!("scale-{i}"),
                attributes: vec!["x".into()],
                error: ErrorConfig::Scale { factor: 1.5 },
                condition: ConditionConfig::Probability { p: 0.3 },
                pattern: None,
            },
        ]
    };
    let mut plan = LogicalPlan::new(42, (0..3).map(pipeline).collect());
    plan.assigner = AssignerSpec::RoundRobin;
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    plan.repr = repr;
    plan
}

#[test]
fn columnar_output_is_byte_identical_to_row() {
    // The tentpole invariant: representation is a pure performance
    // knob. Polluted stream, clean stream, and ground-truth log are
    // byte-identical between row and columnar execution for every
    // strategy and batch size.
    let base = run(&repr_plan(StrategyHint::Sequential, 1, ReprHint::Row), 500);
    for strategy in STRATEGIES {
        for batch_size in REPR_BATCH_SIZES {
            for repr in [ReprHint::Row, ReprHint::Columnar] {
                let plan = repr_plan(strategy, batch_size, repr);
                let physical = plan.compile(&schema()).expect("plan compiles");
                let expected = match repr {
                    ReprHint::Columnar => "columnar",
                    _ => "row",
                };
                assert_eq!(physical.repr_summary(), expected);
                let out = physical.execute(tuples(500)).expect("run succeeds");
                assert_eq!(
                    out.polluted, base.polluted,
                    "polluted stream changed ({strategy:?}, batch {batch_size}, {repr:?})"
                );
                assert_eq!(out.clean, base.clean);
                assert_eq!(
                    out.log.entries(),
                    base.log.entries(),
                    "ground truth changed ({strategy:?}, batch {batch_size}, {repr:?})"
                );
            }
        }
    }
}

#[test]
fn direct_columnar_drive_matches_the_channel_paths() {
    // With logging off, a sequential all-columnar plan takes the direct
    // drive (bucket → pivot once → kernels → scatter, no channels or
    // sorter heap). Its output must match both the row channel path and
    // the columnar channel path (logging on forces the latter).
    let run_with = |repr: ReprHint, logging: bool, batch_size: usize| {
        let mut plan = repr_plan(StrategyHint::Sequential, batch_size, repr);
        plan.logging = logging;
        run(&plan, 500)
    };
    for batch_size in [64usize, 4096] {
        let row = run_with(ReprHint::Row, false, batch_size);
        let direct = run_with(ReprHint::Columnar, false, batch_size);
        let channel = run_with(ReprHint::Columnar, true, batch_size);
        assert_eq!(
            direct.polluted, row.polluted,
            "direct columnar drive diverged from row (batch {batch_size})"
        );
        assert_eq!(direct.clean, row.clean);
        assert_eq!(
            direct.polluted, channel.polluted,
            "direct drive diverged from channel columnar (batch {batch_size})"
        );
    }
}

#[test]
fn multi_membership_assigners_fall_back_identically() {
    // Broadcast (every tuple in every sub-stream) and probabilistic
    // overlap defeat the direct drive's single-membership requirement;
    // it must bail to the channel driver before any side effect, and
    // columnar must still match row byte-for-byte.
    for assigner in [
        AssignerSpec::Broadcast,
        AssignerSpec::Probabilistic { p: 0.6 },
    ] {
        let run_with = |repr: ReprHint| {
            let mut plan = repr_plan(StrategyHint::Sequential, 256, repr);
            plan.assigner = assigner;
            plan.logging = false;
            run(&plan, 300)
        };
        let row = run_with(ReprHint::Row);
        let col = run_with(ReprHint::Columnar);
        assert_eq!(
            col.polluted, row.polluted,
            "fallback diverged under {assigner:?}"
        );
        assert_eq!(col.clean, row.clean);
    }
}

#[test]
fn reconfiguration_is_repr_invariant() {
    // A mid-stream epoch flip lands on the same tuple under columnar
    // execution: Fries-style reconfiguration semantics are preserved
    // byte-for-byte (the epoch boundary is a watermark property, not a
    // representation property).
    let flipped = |repr: ReprHint, batch_size: usize| {
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
        plan.batch_size = batch_size;
        plan.repr = repr;
        let physical = plan.compile(&schema()).expect("plan compiles");
        physical
            .control_handle()
            .reconfigure_at(
                Timestamp(256_000),
                &[PlanDelta::SetError {
                    polluter: "scale".into(),
                    error: ErrorConfig::Scale { factor: 0.5 },
                }],
            )
            .expect("delta validates");
        physical.execute(tuples(400)).expect("run succeeds")
    };
    let base = flipped(ReprHint::Row, 1);
    for batch_size in REPR_BATCH_SIZES {
        let out = flipped(ReprHint::Columnar, batch_size);
        assert_eq!(out.report.epochs_applied, 1);
        assert_eq!(
            out.polluted, base.polluted,
            "epoch split moved (columnar, batch {batch_size})"
        );
    }
}

#[test]
fn checkpoint_recovery_on_a_columnar_plan_is_byte_identical() {
    // A transient kill healed by checkpoint restore on a columnar plan
    // produces the same bytes as an undisturbed columnar run — and as
    // an undisturbed row run.
    let config = |kill: bool| {
        let chaos = if kill {
            r#""chaos": { "kill_at_tuple": 120, "panic_budget": 1 },"#
        } else {
            ""
        };
        JobConfig::from_json(&format!(
            r#"{{
                "seed": 42,
                "pipelines": [[{{
                    "type": "standard",
                    "name": "null-x",
                    "attributes": ["x"],
                    "error": {{ "type": "missing_value" }},
                    "condition": {{ "type": "probability", "p": 0.5 }}
                }}]],
                "supervision": {{ "max_retries": 2, "deterministic": true }},
                {chaos}
                "checkpoint": {{ "interval_epochs": 1 }},
                "execution": {{ "watermark_period": 16, "batch_size": 256 }}
            }}"#
        ))
        .expect("config parses")
    };
    let run_with = |kill: bool, repr: ReprHint| {
        let mut plan = config(kill).to_plan();
        plan.repr = repr;
        plan.compile(&schema())
            .expect("plan compiles")
            .execute_supervised(tuples(200))
            .expect("run succeeds")
    };
    let row_calm = run_with(false, ReprHint::Row);
    let col_calm = run_with(false, ReprHint::Columnar);
    let col_hurt = run_with(true, ReprHint::Columnar);
    assert_eq!(col_calm.polluted, row_calm.polluted, "repr changed bytes");
    assert_eq!(
        col_hurt.polluted, col_calm.polluted,
        "recovery changed bytes on the columnar plan"
    );
    assert_eq!(col_hurt.log.entries(), col_calm.log.entries());
    let r = &col_hurt.report;
    assert_eq!(r.restarts, 1, "exactly one restart");
    assert!(r.checkpoints_taken > 0, "checkpoints committed");
    assert!(r.restored_from_epoch > 0, "restored from a real epoch");
}

fn chaotic_config(max_retries: u32) -> JobConfig {
    JobConfig::from_json(&format!(
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
    .expect("config parses")
}

#[test]
fn poisoned_runs_terminate_cleanly_at_every_batch_size() {
    // A panic mid-batch must poison the edge, not strand the records
    // already staged: the run ends with a typed error naming the stage,
    // never a deadlock or a silently truncated success.
    for strategy in STRATEGIES {
        for batch_size in [1usize, 4096] {
            let mut plan = chaotic_config(0).to_plan();
            plan.strategy = strategy;
            plan.batch_size = batch_size;
            let err = plan
                .compile(&schema())
                .expect("plan compiles")
                .execute_supervised(tuples(200))
                .unwrap_err();
            match err {
                Error::Pipeline { stage, kind, .. } => {
                    assert!(
                        stage.contains("chaos"),
                        "stage `{stage}` ({strategy:?}, batch {batch_size})"
                    );
                    assert_eq!(kind, "injected");
                }
                other => panic!("expected Error::Pipeline, got: {other}"),
            }
        }
    }
}

#[test]
fn supervised_recovery_output_is_batch_size_invariant() {
    // One transient panic, then a clean retry: the recovered output
    // must match across batch sizes (the retry restarts from pristine
    // pipeline state, so no partial batch can leak into the result).
    let base = {
        let mut plan = chaotic_config(2).to_plan();
        plan.batch_size = 1;
        plan.compile(&schema())
            .unwrap()
            .execute_supervised(tuples(200))
            .expect("recovers")
    };
    assert!(base.report.restarts >= 1, "the panic actually fired");
    for batch_size in BATCH_SIZES {
        let mut plan = chaotic_config(2).to_plan();
        plan.batch_size = batch_size;
        let out = plan
            .compile(&schema())
            .unwrap()
            .execute_supervised(tuples(200))
            .expect("recovers");
        assert!(out.report.restarts >= 1);
        assert_eq!(
            out.polluted, base.polluted,
            "recovered output changed (batch {batch_size})"
        );
        assert_eq!(out.log.entries(), base.log.entries());
    }
}
