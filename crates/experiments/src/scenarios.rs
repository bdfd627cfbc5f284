//! The three §3.1 pollution scenarios as one-pipeline
//! [`LogicalPlan`]s, exactly as the paper describes them.

use icewafl_core::prelude::*;

/// §3.1.1 — random temporal errors: NULL the `Distance` attribute with
/// the daily sinusoidal probability `p(t) = 0.25·cos(π/12·t) + 0.25`.
pub fn random_temporal(seed: u64) -> LogicalPlan {
    LogicalPlan::new(
        seed,
        vec![vec![PolluterConfig::Standard {
            name: "null-distance".into(),
            attributes: vec!["Distance".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Sinusoidal {
                amplitude: 0.25,
                offset: 0.25,
            },
            pattern: None,
        }]],
    )
}

/// §3.1.2 — the software-update scenario of Figure 5: a composite
/// polluter gated on `Time ≥ 2016-02-27` delegating to
///
/// 1. a km→cm unit conversion on `Distance`,
/// 2. a round-to-2-decimals error on `CaloriesBurned`, and
/// 3. a nested composite on `BPM > 100` whose children run in series:
///    set `BPM` to 0, then (with probability 0.2) set it to NULL.
pub fn software_update(seed: u64) -> LogicalPlan {
    LogicalPlan::new(
        seed,
        vec![vec![PolluterConfig::Composite {
            name: "software-update".into(),
            condition: ConditionConfig::TimeWindow {
                from: Some("2016-02-27 00:00:00".into()),
                to: None,
            },
            children: vec![
                PolluterConfig::Standard {
                    name: "distance-km-to-cm".into(),
                    attributes: vec!["Distance".into()],
                    error: ErrorConfig::UnitConversion { factor: 100_000.0 },
                    condition: ConditionConfig::Always,
                    pattern: None,
                },
                PolluterConfig::Standard {
                    name: "calories-precision-2".into(),
                    attributes: vec!["CaloriesBurned".into()],
                    error: ErrorConfig::Round { precision: 2 },
                    condition: ConditionConfig::Always,
                    pattern: None,
                },
                PolluterConfig::Composite {
                    name: "wrong-bpm-measurement".into(),
                    condition: ConditionConfig::Value {
                        attribute: "BPM".into(),
                        op: CmpOp::Gt,
                        value: icewafl_types::Value::Int(100),
                    },
                    children: vec![
                        PolluterConfig::Standard {
                            name: "bpm-to-zero".into(),
                            attributes: vec!["BPM".into()],
                            error: ErrorConfig::Constant {
                                value: icewafl_types::Value::Int(0),
                            },
                            condition: ConditionConfig::Always,
                            pattern: None,
                        },
                        PolluterConfig::Standard {
                            name: "bpm-to-null".into(),
                            attributes: vec!["BPM".into()],
                            error: ErrorConfig::MissingValue,
                            condition: ConditionConfig::Probability { p: 0.2 },
                            pattern: None,
                        },
                    ],
                },
            ],
        }]],
    )
}

/// §3.1.3 — bad network connection: delay tuples by one hour, only
/// between 13:00 and 14:59 (temporal condition) and then only with
/// probability 0.2 (nested condition).
pub fn bad_network(seed: u64) -> LogicalPlan {
    LogicalPlan::new(
        seed,
        vec![vec![PolluterConfig::Delay {
            name: "bad-network".into(),
            condition: ConditionConfig::And {
                children: vec![
                    ConditionConfig::HourRange { start: 13, end: 15 },
                    ConditionConfig::Probability { p: 0.2 },
                ],
            },
            delay_ms: 3_600_000,
        }]],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_data::wearable;

    #[test]
    fn all_scenarios_build_against_the_wearable_schema() {
        let schema = wearable::schema();
        for (name, cfg) in [
            ("random", random_temporal(1)),
            ("update", software_update(1)),
            ("network", bad_network(1)),
        ] {
            let pipelines = cfg.build_pipelines(&schema).expect(name);
            assert_eq!(pipelines.len(), 1, "{name}");
        }
    }

    #[test]
    fn scenarios_round_trip_through_json() {
        for cfg in [random_temporal(7), software_update(7), bad_network(7)] {
            let json = cfg.to_json();
            assert_eq!(LogicalPlan::from_json(&json).unwrap(), cfg);
        }
    }

    #[test]
    fn software_update_pollutes_only_after_gate() {
        let schema = wearable::schema();
        let data = wearable::generate();
        let pipeline = software_update(5)
            .build_pipelines(&schema)
            .unwrap()
            .pop()
            .unwrap();
        let out = pollute_stream(&schema, data, pipeline).unwrap();
        let gate = wearable::software_update_time();
        for e in out.log.entries() {
            assert!(e.tau() >= gate, "pollution before the update gate: {e:?}");
        }
        assert!(!out.log.is_empty());
    }

    #[test]
    fn bad_network_delays_only_in_window() {
        let schema = wearable::schema();
        let data = wearable::generate();
        let pipeline = bad_network(5)
            .build_pipelines(&schema)
            .unwrap()
            .pop()
            .unwrap();
        let out = pollute_stream(&schema, data, pipeline).unwrap();
        for e in out.log.entries() {
            let h = e.tau().hour_of_day();
            assert!((13..15).contains(&h), "delay outside the window: {e:?}");
        }
        // ≈ 17.6 expected; very generous bounds here, the experiment
        // binary reports the precise statistics.
        let n = out.log.len();
        assert!((5..=35).contains(&n), "delayed {n}");
    }

    /// FNV-1a over a run's bytes: one line per polluted tuple (id,
    /// sub-stream, `τ`, arrival and every value with its type), then the
    /// ground-truth log as JSON.
    fn digest(out: &PollutionOutput) -> u64 {
        let mut text = String::new();
        for t in &out.polluted {
            text += &format!(
                "{} {} {} {} {:?}\n",
                t.id,
                t.sub_stream,
                t.tau.millis(),
                t.arrival.millis(),
                t.tuple.values()
            );
        }
        text += &serde_json::to_string(&out.log).expect("log serializes");
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn scenario_bytes_are_pinned() {
        // Captured before `LogicalPlan` became the only job description:
        // describing a scenario as a plan moves no byte of a paper run,
        // whether the pipeline runs hand-built or the plan is compiled.
        let schema = wearable::schema();
        for (plan, pinned) in [
            (random_temporal(1), 0xe8d3_dd64_03b6_9af3),
            (software_update(1), 0x2932_9653_43a6_6583),
            (bad_network(1), 0x551b_bcee_71df_fde1),
        ] {
            let pipeline = plan.build_pipelines(&schema).unwrap().pop().unwrap();
            let by_hand = pollute_stream(&schema, wearable::generate(), pipeline).unwrap();
            assert_eq!(digest(&by_hand), pinned, "{}", plan.to_json());
            let compiled = plan
                .compile(&schema)
                .unwrap()
                .execute(wearable::generate())
                .unwrap();
            assert_eq!(digest(&compiled), pinned, "{}", plan.to_json());
        }
    }
}
