//! Batching determinism acceptance tests.
//!
//! `batch_size` is a pure performance knob: sub-streams take what the
//! assigner routes to them in frames of up to `batch_size` records and
//! the session releases chunks of up to that many, but every frame is
//! handed over *before* a watermark crosses a sub-stream, so event-time
//! semantics, epoch boundaries, and the ground truth log are
//! bit-identical across batch sizes. These tests pin that contract
//! across a mid-stream reconfiguration and chaos-injected panics.
//!
//! The same holds with checkpointing on: the merged order is
//! `(arrival, sub_stream)`, stable within a sub-stream, and the log is
//! the per-sub-stream segments in sub-stream order, so the bytes do not
//! depend on how the sub-streams were interleaved.

use icewafl::core::ReleasedRow;
use icewafl::prelude::*;
use icewafl::types::{ColumnBatch, DataType, Error, Timestamp, Value};

/// Swept batch sizes: unbatched, an odd size that never divides the
/// watermark period, the default, and one far beyond it.
const BATCH_SIZES: [usize; 4] = [1, 7, 256, 4096];

/// The strategy names the tests run under besides the oracle's
/// `sequential`: the default, which names the same schedule.
const STRATEGIES: [StrategyHint; 1] = [StrategyHint::Auto];

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

/// Disjoint round-robin sub-streams with unique arrival times: the
/// merge order is fully determined by the final sort.
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
    // across batch sizes, and with barrier alignment holding
    // sub-streams back at the union (checkpointing on).
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
fn latency_sampling_is_batch_size_invariant() {
    // 4096 records through one sub-stream → one sample point every 64
    // records = 64 histogram entries, however many records a frame
    // hands the pipeline at once: batch 1 times each record, 64 aligns
    // one point per frame, and a frame of 256 would span four (frames
    // are cut at every watermark, so here it holds 64 as well).
    for batch_size in [1, 64, 256] {
        let plan = LogicalPlan {
            batch_size,
            ..LogicalPlan::new(42, vec![vec![noise("noise-0".into())]])
        };
        let out = run(&plan, 4096);
        let sampled = out
            .report
            .metrics
            .histogram("stage/02_pollution_pipeline/latency_ns")
            .map_or(0, |h| h.count);
        assert_eq!(sampled, 4096 / 64, "batch_size {batch_size}");
    }
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

fn chaotic_config(max_retries: u32) -> LogicalPlan {
    LogicalPlan::from_json(&format!(
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
            let mut plan = chaotic_config(0);
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
        let mut plan = chaotic_config(2);
        plan.batch_size = 1;
        plan.compile(&schema())
            .unwrap()
            .execute_supervised(tuples(200))
            .expect("recovers")
    };
    assert!(base.report.restarts >= 1, "the panic actually fired");
    for batch_size in BATCH_SIZES {
        let mut plan = chaotic_config(2);
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

// ---------------------------------------------------------------------
// Generated plans against the oracle configuration
// ---------------------------------------------------------------------

/// SplitMix64: the whole generator below is a function of one `u64`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`, rounded to two decimals so plan JSON reads
    /// (and re-parses) exactly.
    fn unit(&mut self) -> f64 {
        self.below(100) as f64 / 100.0
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

const GENERATED_PLANS: u64 = 256;
const GENERATED_TUPLES: i64 = 300;

fn generated_schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("n", DataType::Int),
        ("s", DataType::Str),
    ])
    .unwrap()
}

/// `GENERATED_TUPLES` tuples about a second apart, every non-time value
/// NULL with probability `null_percent`, in one of three arrival
/// shapes: strictly increasing, runs of equal timestamps, or jittered
/// backwards by up to `jitter` seconds.
fn generated_tuples(rng: &mut SplitMix) -> Vec<Tuple> {
    let null_percent = rng.pick(&[0, 5, 60]);
    let shape = rng.below(3);
    let run = 2 + rng.below(4) as i64;
    let jitter = rng.pick(&[3, 20, 120]);
    (0..GENERATED_TUPLES)
        .map(|i| {
            let tau = match shape {
                0 => i * 1000,
                1 => i / run * 1000,
                _ => (i - rng.below(jitter) as i64).max(0) * 1000,
            };
            let mut value = |v: Value| {
                if rng.chance(null_percent) {
                    Value::Null
                } else {
                    v
                }
            };
            Tuple::new(vec![
                Value::Timestamp(Timestamp(tau)),
                value(Value::Float(i as f64 * 0.5)),
                value(Value::Float(100.0 - i as f64)),
                value(Value::Int(i % 50)),
                value(Value::Str(format!("s{}", i % 4).into())),
            ])
        })
        .collect()
}

fn clock(rng: &mut SplitMix) -> String {
    let s = rng.below(GENERATED_TUPLES as usize);
    format!("1970-01-01 00:{:02}:{:02}", s / 60, s % 60)
}

fn generated_pattern(rng: &mut SplitMix) -> ChangePattern {
    let at = |rng: &mut SplitMix| Timestamp(rng.below(GENERATED_TUPLES as usize) as i64 * 1000);
    match rng.below(5) {
        0 => ChangePattern::Constant,
        1 => ChangePattern::Abrupt { at: at(rng) },
        2 => ChangePattern::Incremental {
            from: at(rng),
            to: at(rng),
        },
        3 => ChangePattern::Gradual {
            from: Timestamp(0),
            to: at(rng),
        },
        _ => ChangePattern::Periodic {
            period: Duration::from_millis(60_000),
            phase: Duration::from_millis(rng.below(60) as i64 * 1000),
            amplitude: rng.unit(),
            offset: rng.unit(),
        },
    }
}

fn generated_condition(rng: &mut SplitMix, depth: usize) -> ConditionConfig {
    match rng.below(if depth == 0 { 12 } else { 9 }) {
        0 => ConditionConfig::Always,
        1 => ConditionConfig::Never,
        2 | 3 => ConditionConfig::Probability { p: rng.unit() },
        4 => {
            let (attribute, value) = rng.pick(&[
                ("x", Value::Float(60.0)),
                ("n", Value::Int(25)),
                ("s", Value::Str("s2".into())),
            ]);
            ConditionConfig::Value {
                attribute: attribute.into(),
                op: rng.pick(&[
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Ge,
                    CmpOp::IsNull,
                    CmpOp::NotNull,
                ]),
                value,
            }
        }
        5 => ConditionConfig::TimeWindow {
            from: rng.chance(70).then(|| clock(rng)),
            to: rng.chance(70).then(|| clock(rng)),
        },
        6 => ConditionConfig::Sinusoidal {
            amplitude: rng.unit() / 2.0,
            offset: rng.unit(),
        },
        7 => ConditionConfig::LinearRamp {
            from: clock(rng),
            to: clock(rng),
            p0: rng.unit(),
            p1: rng.unit(),
        },
        8 => ConditionConfig::Pattern {
            pattern: generated_pattern(rng),
            p_min: rng.unit() / 2.0,
            p_max: 0.5 + rng.unit() / 2.0,
        },
        9 => ConditionConfig::And {
            children: vec![
                generated_condition(rng, depth + 1),
                generated_condition(rng, depth + 1),
            ],
        },
        10 => ConditionConfig::Or {
            children: vec![
                generated_condition(rng, depth + 1),
                generated_condition(rng, depth + 1),
            ],
        },
        _ => ConditionConfig::Not {
            inner: Box::new(generated_condition(rng, depth + 1)),
        },
    }
}

/// An error function with attributes of a type it accepts.
fn generated_error(rng: &mut SplitMix) -> (ErrorConfig, Vec<String>) {
    let numeric = |rng: &mut SplitMix| vec![rng.pick(&["x", "y", "n"]).to_string()];
    match rng.below(13) {
        0 => (
            ErrorConfig::GaussianNoise {
                sigma: 0.5 + rng.unit(),
                relative: rng.chance(50),
            },
            numeric(rng),
        ),
        1 => (
            ErrorConfig::UniformNoise {
                a: 0.0,
                b: rng.unit(),
            },
            numeric(rng),
        ),
        2 => (
            ErrorConfig::Scale {
                factor: 0.5 + rng.unit(),
            },
            numeric(rng),
        ),
        3 => (ErrorConfig::Outlier { magnitude: 3.0 }, numeric(rng)),
        4 => (ErrorConfig::Round { precision: 0 }, numeric(rng)),
        5 => (ErrorConfig::UnitConversion { factor: 1000.0 }, numeric(rng)),
        6 => (
            ErrorConfig::MissingValue,
            vec![rng.pick(&["x", "y", "n", "s"]).to_string()],
        ),
        7 => (
            ErrorConfig::Constant {
                value: Value::Float(-1.0),
            },
            vec!["x".into(), "y".into()],
        ),
        8 => (
            ErrorConfig::Constant { value: Value::Null },
            vec!["n".into(), "s".into()],
        ),
        9 => (
            ErrorConfig::IncorrectCategory {
                categories: (0..4).map(|k| format!("s{k}")).collect(),
            },
            vec!["s".into()],
        ),
        10 => (
            ErrorConfig::Typo {
                kind: TypoKind::Any,
            },
            vec!["s".into()],
        ),
        11 => (ErrorConfig::SwapAttributes, vec!["x".into(), "y".into()]),
        _ => (
            ErrorConfig::TimestampShift {
                delta_ms: rng.pick(&[-3_600_000, 1500]),
            },
            vec!["Time".into()],
        ),
    }
}

fn generated_standard(rng: &mut SplitMix, name: String) -> PolluterConfig {
    let (error, attributes) = generated_error(rng);
    PolluterConfig::Standard {
        name,
        attributes,
        error,
        condition: generated_condition(rng, 0),
        pattern: rng.chance(40).then(|| generated_pattern(rng)),
    }
}

/// One polluter of any family: value (standard), temporal (delay, drop,
/// duplicate, freeze, burst, propagation), keyed, or a composite /
/// one-of over further polluters.
fn generated_polluter(rng: &mut SplitMix, name: String, depth: usize) -> PolluterConfig {
    let span_ms = |rng: &mut SplitMix| rng.pick(&[500, 3_000, 20_000, 90_000]);
    match rng.below(if depth == 0 { 14 } else { 11 }) {
        0..=4 => generated_standard(rng, name),
        5 => PolluterConfig::Delay {
            name,
            condition: generated_condition(rng, 0),
            delay_ms: span_ms(rng),
        },
        6 => PolluterConfig::Drop {
            name,
            condition: ConditionConfig::Probability {
                p: rng.unit() / 4.0,
            },
        },
        7 => PolluterConfig::Duplicate {
            name,
            condition: generated_condition(rng, 0),
            copies: 1 + rng.below(2) as u32,
        },
        8 => PolluterConfig::Freeze {
            name,
            condition: ConditionConfig::Probability {
                p: rng.unit() / 5.0,
            },
            attributes: vec![rng.pick(&["x", "n", "s"]).to_string()],
            duration_ms: span_ms(rng),
        },
        9 => {
            let (error, attributes) = generated_error(rng);
            PolluterConfig::Burst {
                name,
                condition: ConditionConfig::Probability {
                    p: rng.unit() / 10.0,
                },
                attributes,
                error,
                duration_ms: span_ms(rng),
            }
        }
        10 => {
            let (error, attributes) = generated_error(rng);
            PolluterConfig::Propagation {
                name,
                trigger: ConditionConfig::Probability {
                    p: rng.unit() / 10.0,
                },
                consequent_filter: rng.chance(50).then(|| generated_condition(rng, 1)),
                delay_ms: span_ms(rng),
                duration_ms: span_ms(rng),
                error,
                attributes,
            }
        }
        11 => PolluterConfig::Keyed {
            key_attribute: rng.pick(&["s", "n"]).to_string(),
            inner: Box::new(generated_polluter(rng, format!("{name}/inner"), depth + 1)),
            name,
        },
        12 => PolluterConfig::Composite {
            condition: generated_condition(rng, 0),
            children: (0..1 + rng.below(3))
                .map(|k| generated_polluter(rng, format!("{name}/{k}"), depth + 1))
                .collect(),
            name,
        },
        _ => {
            let children: Vec<_> = (0..1 + rng.below(3))
                .map(|k| generated_polluter(rng, format!("{name}/{k}"), depth + 1))
                .collect();
            PolluterConfig::OneOf {
                condition: generated_condition(rng, 0),
                weights: rng
                    .chance(50)
                    .then(|| children.iter().map(|_| 0.25 + rng.unit()).collect()),
                children,
                name,
            }
        }
    }
}

fn generated_plan(rng: &mut SplitMix) -> LogicalPlan {
    let m = 1 + rng.below(4);
    let pipelines = (0..m)
        .map(|i| {
            (0..rng.below(5))
                .map(|j| generated_polluter(rng, format!("p{i}.{j}"), 0))
                .collect()
        })
        .collect();
    let mut plan = LogicalPlan::new(rng.next() >> 12, pipelines);
    plan.assigner = match rng.below(5) {
        0 => AssignerSpec::Auto,
        1 => AssignerSpec::Broadcast,
        2 => AssignerSpec::RoundRobin,
        _ => AssignerSpec::Probabilistic {
            p: 0.2 + rng.unit() * 0.7,
        },
    };
    plan.watermark_period = rng.pick(&[1, 7, 16, 64, 100]);
    plan.logging = rng.chance(70);
    plan
}

/// Panics at the first position at which `got` and `want` differ. Not
/// `assert_eq!` on the vectors: a failure should print one difference
/// and the plan, not 300 tuples twice.
fn assert_same<T: PartialEq + std::fmt::Debug>(what: &str, got: &[T], want: &[T], case: &str) {
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        panic!(
            "{what} differs at {i}: {:?} vs {:?} ({case})",
            got.get(i),
            want.get(i)
        );
    }
}

// ---------------------------------------------------------------------
// The corpus pinned: digests captured before the session loop was
// rewritten, so routing, sort ties, chunking and log order are checked
// against something the engine under test did not produce.
// ---------------------------------------------------------------------

/// One line per case: `plan <case> <stream> <log> <counts>` or
/// `column <case> <chunk sizes> <chunks> <counts>`, FNV-1a digests in
/// hex (see [`stream_text`] and [`counts_text`] for what each covers).
const PINNED_CORPUS: &str = include_str!("fixtures/generated_corpus.txt");

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per tuple: id, sub-stream, `τ`, arrival and every value
/// with its type.
fn stream_text(tuples: &[StampedTuple]) -> String {
    let mut text = String::new();
    for t in tuples {
        text += &format!(
            "{} {} {} {} {:?}\n",
            t.id,
            t.sub_stream,
            t.tau.millis(),
            t.arrival.millis(),
            t.tuple.values()
        );
    }
    text
}

/// The report's tuple and log counts and every polluter's statistics.
fn counts_text(report: &RunReport) -> String {
    format!(
        "{} {} {} {:?}",
        report.tuples_in, report.tuples_out, report.log_entries, report.polluters
    )
}

/// Asserts that `got` are the digests pinned for `kind` case `case`.
fn assert_pinned(kind: &str, case: u64, names: &[&str], got: &[u64], describe: &str) {
    let key = format!("{kind} {case} ");
    let line = PINNED_CORPUS
        .lines()
        .find(|line| line.starts_with(&key))
        .unwrap_or_else(|| panic!("no pinned digest for {kind} case {case}"));
    let pinned: Vec<u64> = line
        .split_whitespace()
        .skip(2)
        .map(|hex| u64::from_str_radix(hex, 16).expect("hex digest"))
        .collect();
    for ((name, got), pinned) in names.iter().zip(got).zip(&pinned) {
        assert_eq!(
            got, pinned,
            "{kind} case {case}: the {name} digest moved ({describe})"
        );
    }
}

#[test]
fn generated_plans_match_the_oracle_configuration() {
    // Hand-picked matrices under-sample: every plan here is drawn from
    // the whole configuration vocabulary, and the default strategy, at
    // a drawn batch size, must reproduce the oracle configuration
    // (sequential, unbatched) on the polluted stream, the ground-truth
    // log and the per-polluter fires / RNG draws / log entries of the
    // report — late-tuple inputs included.
    let schema = generated_schema();
    for case in 0..GENERATED_PLANS {
        let mut rng = SplitMix(0x1CE_AF1 ^ (case << 32));
        let plan = generated_plan(&mut rng);
        let tuples = generated_tuples(&mut rng);
        let run = |strategy: StrategyHint, batch_size: usize| {
            let mut plan = plan.clone();
            plan.strategy = strategy;
            plan.batch_size = batch_size;
            plan.compile(&schema)
                .and_then(|physical| physical.execute(tuples.clone()))
                .unwrap_or_else(|e| panic!("case {case}: {e}; plan:\n{}", plan.to_json()))
        };
        let oracle = run(StrategyHint::Sequential, 1);
        assert_pinned(
            "plan",
            case,
            &["polluted stream", "ground truth", "report counts"],
            &[
                fnv(&stream_text(&oracle.polluted)),
                fnv(&serde_json::to_string(&oracle.log).expect("the log serializes")),
                fnv(&counts_text(&oracle.report)),
            ],
            &plan.to_json(),
        );
        for strategy in STRATEGIES {
            let batch_size = rng.pick(&[7, 64, 256, 4096]);
            let out = run(strategy, batch_size);
            if out.polluted == oracle.polluted
                && out.log.entries() == oracle.log.entries()
                && out.report.polluters == oracle.report.polluters
            {
                continue;
            }
            let case = format!(
                "case {case}, {strategy:?}, batch {batch_size}; plan:\n{}",
                plan.to_json()
            );
            assert_same("polluted stream", &out.polluted, &oracle.polluted, &case);
            assert_same(
                "ground truth",
                out.log.entries(),
                oracle.log.entries(),
                &case,
            );
            assert_same(
                "polluter statistics",
                &out.report.polluters,
                &oracle.report.polluters,
                &case,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Column sessions against the row session
// ---------------------------------------------------------------------

const COLUMN_CASES: u64 = 192;

/// A plan a column session runs: value polluters only, log off.
fn generated_column_plan(rng: &mut SplitMix) -> LogicalPlan {
    let m = 1 + rng.below(4);
    let pipelines = (0..m)
        .map(|i| {
            (0..rng.below(5))
                .map(|j| generated_standard(rng, format!("p{i}.{j}")))
                .collect()
        })
        .collect();
    let mut plan = generated_plan(rng);
    plan.pipelines = pipelines;
    plan.logging = false;
    plan.batch_size = rng.pick(&[1, 2, 7, 64, 256, 4096]);
    plan
}

/// [`generated_tuples`] with some tuples broken the ways a client can
/// break them: a value of another type than its column's (the event
/// time included) or one value too few or too many.
fn generated_column_tuples(rng: &mut SplitMix) -> Vec<Tuple> {
    let broken = rng.pick(&[0, 2, 10]);
    let mut tuples = generated_tuples(rng);
    for t in &mut tuples {
        if !rng.chance(broken) {
            continue;
        }
        let mut values = t.values().to_vec();
        match rng.below(5) {
            0 => values[0] = Value::Int(7_000),
            1 => values[1] = Value::Int(3),
            2 => values[3] = Value::Str("three".into()),
            3 => {
                values.pop();
            }
            _ => values.push(Value::Bool(true)),
        }
        *t = Tuple::new(values);
    }
    tuples
}

/// The tuples as one schema-typed batch, or `None` when one does not
/// fit the schema: what a binary session's decoder makes of a frame.
fn batch_of(schema: &Schema, tuples: &[Tuple]) -> Option<ColumnBatch> {
    let unstamped = tuples
        .iter()
        .map(|t| StampedTuple::new(0, Timestamp(0), t.clone()))
        .collect();
    ColumnBatch::from_rows(schema, unstamped).ok()
}

#[test]
fn column_sessions_match_the_row_session() {
    // Every plan here is column-exact; its tuples arrive in frames of
    // drawn sizes, single rows among them, and a frame that does not
    // fit a typed batch — or, now and then, one that does — goes in as
    // tuples. The session lowered to column pipelines must release the
    // chunks the same plan's session of row pipelines releases, tuple
    // for tuple, and report its counts and statistics.
    let schema = generated_schema();
    for case in 0..COLUMN_CASES {
        let mut rng = SplitMix(0x0C01_1AF1 ^ (case << 32));
        let plan = generated_column_plan(&mut rng);
        let tuples = generated_column_tuples(&mut rng);
        let describe = || format!("case {case}; plan:\n{}", plan.to_json());
        let physical = plan
            .compile(&schema)
            .unwrap_or_else(|e| panic!("{e}: {}", describe()));

        let mut want: Vec<Vec<StampedTuple>> = Vec::new();
        let mut rows = physical.open_streaming().unwrap();
        for t in &tuples {
            rows.push(t.clone());
            rows.drain(|chunk| want.push(chunk.iter().map(ReleasedRow::to_stamped).collect()));
        }
        let row_report =
            rows.finish(|chunk| want.push(chunk.iter().map(ReleasedRow::to_stamped).collect()));

        let mut columns = physical.open_streaming_lowered().unwrap();
        assert!(columns.lowered(), "not column-exact: {}", describe());
        let mut chunks: Vec<Vec<StampedTuple>> = Vec::new();
        let mut keep = |chunk: &[ReleasedRow<'_>]| {
            chunks.push(chunk.iter().map(ReleasedRow::to_stamped).collect());
        };
        let mut rest = &tuples[..];
        while !rest.is_empty() {
            let (frame, tail) = rest.split_at(rng.pick(&[1, 2, 5, 16, 40, 100]).min(rest.len()));
            rest = tail;
            match batch_of(&schema, frame).filter(|_| !rng.chance(15)) {
                Some(batch) => columns.push_batch(batch),
                None => frame.iter().for_each(|t| columns.push(t.clone())),
            }
            columns.drain(&mut keep);
        }
        let column_report = columns.finish(&mut keep);

        let (row_report, column_report) = match (row_report, column_report) {
            (Ok(r), Ok(c)) => (r, c),
            (r, c) => panic!(
                "row session: {:?}, column session: {:?} ({})",
                r.err(),
                c.err(),
                describe()
            ),
        };
        let sizes = |chunks: &[Vec<StampedTuple>]| chunks.iter().map(Vec::len).collect::<Vec<_>>();
        assert_pinned(
            "column",
            case,
            &["chunk sizes", "chunks", "report counts"],
            &[
                fnv(&format!("{:?}", sizes(&want))),
                fnv(&want
                    .iter()
                    .map(|c| stream_text(c))
                    .collect::<Vec<_>>()
                    .join("-\n")),
                fnv(&counts_text(&row_report)),
            ],
            &describe(),
        );
        assert_same("chunk sizes", &sizes(&chunks), &sizes(&want), &describe());
        assert_same("chunks", &chunks, &want, &describe());
        assert_eq!(
            (column_report.tuples_in, column_report.tuples_out),
            (row_report.tuples_in, row_report.tuples_out),
            "{}",
            describe()
        );
        assert_same(
            "polluter statistics",
            &column_report.polluters,
            &row_report.polluters,
            &describe(),
        );
    }
}
