//! Cross-crate integration tests: configuration → pollution →
//! detection, reproducibility, and ground-truth agreement.

use icewafl::prelude::*;

fn sensor_schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("Temp", DataType::Float),
        ("Status", DataType::Str),
    ])
    .unwrap()
}

fn sensor_stream(hours: i64) -> Vec<Tuple> {
    let start = Timestamp::from_ymd(2026, 1, 1).unwrap();
    (0..hours)
        .map(|h| {
            Tuple::new(vec![
                Value::Timestamp(start + Duration::from_hours(h)),
                Value::Float(20.0 + (h % 24) as f64),
                Value::Str(if h % 7 == 0 { "calibrating" } else { "ok" }.into()),
            ])
        })
        .collect()
}

#[test]
fn config_json_to_detection_round_trip() {
    // A pipeline defined as a JSON document, exactly as an end user
    // would ship it.
    let json = r#"{
        "seed": 31,
        "pipelines": [[
            { "type": "standard", "name": "dropouts",
              "attributes": ["Temp"],
              "error": { "type": "missing_value" },
              "condition": { "type": "probability", "p": 0.3 } },
            { "type": "standard", "name": "status-flip",
              "attributes": ["Status"],
              "error": { "type": "incorrect_category",
                         "categories": ["ok", "calibrating", "fault"] },
              "condition": { "type": "probability", "p": 0.1 } }
        ]]
    }"#;
    let schema = sensor_schema();
    let plan = LogicalPlan::from_json(json).expect("JSON parses");
    let out = plan
        .compile(&schema)
        .expect("plan compiles")
        .execute(sensor_stream(500))
        .expect("pollution runs");

    // Detection: NULLs via the DQ engine; the ground truth must agree
    // exactly.
    let suite = ExpectationSuite::new("qc").with(ExpectColumnValuesToNotBeNull::new("Temp"));
    let report = suite
        .validate(&schema, &out.polluted)
        .expect("validation runs");
    let injected_nulls = out.log.counts_by_polluter()["dropouts"];
    assert_eq!(report.total_unexpected(), injected_nulls);
    assert!(
        (100..=200).contains(&injected_nulls),
        "≈30% of 500: {injected_nulls}"
    );

    let flipped = out.log.counts_by_polluter()["status-flip"];
    assert!((25..=80).contains(&flipped), "≈10% of 500: {flipped}");
}

#[test]
fn same_seed_reproduces_bitwise() {
    let schema = sensor_schema();
    let plan = LogicalPlan::new(
        7,
        vec![vec![PolluterConfig::Standard {
            name: "noise".into(),
            attributes: vec!["Temp".into()],
            error: ErrorConfig::GaussianNoise {
                sigma: 2.0,
                relative: false,
            },
            condition: ConditionConfig::Probability { p: 0.5 },
            pattern: None,
        }]],
    );
    let run = || {
        plan.compile(&schema)
            .expect("plan compiles")
            .execute(sensor_stream(300))
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.polluted, b.polluted,
        "Algorithm 1 is deterministic under a fixed seed"
    );
    assert_eq!(a.log.entries(), b.log.entries());
}

#[test]
fn clean_output_equals_prepared_input_under_empty_pipeline() {
    let schema = sensor_schema();
    let out = pollute_stream(&schema, sensor_stream(100), PollutionPipeline::empty()).unwrap();
    assert_eq!(out.clean, out.polluted);
    assert!(out.log.is_empty());
    // ids are the ground-truth join key.
    for (i, t) in out.polluted.iter().enumerate() {
        assert_eq!(t.id, i as u64);
    }
}

#[test]
fn derived_temporal_error_ramps_detection_counts() {
    // A missing-value error whose probability ramps from 0 to 1 across
    // the stream: the second half must contain far more errors than the
    // first.
    let schema = sensor_schema();
    let hours = 1000;
    let start = Timestamp::from_ymd(2026, 1, 1).unwrap();
    let end = start + Duration::from_hours(hours);
    let plan = LogicalPlan::new(
        3,
        vec![vec![PolluterConfig::Standard {
            name: "ramping".into(),
            attributes: vec!["Temp".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::LinearRamp {
                from: start.to_string(),
                to: end.to_string(),
                p0: 0.0,
                p1: 1.0,
            },
            pattern: None,
        }]],
    );
    let out = plan
        .compile(&schema)
        .expect("plan compiles")
        .execute(sensor_stream(hours))
        .unwrap();
    let mid = start + Duration::from_hours(hours / 2);
    let early = out.log.entries().iter().filter(|e| e.tau() < mid).count();
    let late = out.log.len() - early;
    assert!(
        late > early * 2,
        "ramping errors: early {early}, late {late}"
    );
}

#[test]
fn delay_detection_matches_ground_truth() {
    let schema = sensor_schema();
    let plan = LogicalPlan::new(
        5,
        vec![vec![PolluterConfig::Delay {
            name: "late".into(),
            condition: ConditionConfig::Probability { p: 0.1 },
            delay_ms: 4 * 3_600_000, // 4 h on an hourly stream
        }]],
    );
    let out = plan
        .compile(&schema)
        .expect("plan compiles")
        .execute(sensor_stream(600))
        .unwrap();
    let delayed = out.log.len();
    let detected = ExpectColumnValuesToBeIncreasing::new("Time")
        .validate(&schema, &out.polluted)
        .unwrap()
        .unexpected_count;
    assert!(delayed > 20, "enough delays to be meaningful: {delayed}");
    // Every delayed tuple surfaces out of order; adjacent delayed tuples
    // can shadow each other under the running-max rule, so detection is
    // near-complete but bounded by the ground truth.
    assert!(detected <= delayed);
    assert!(
        detected as f64 >= 0.8 * delayed as f64,
        "detected {detected} of {delayed} delays"
    );
}

#[test]
fn profiler_suite_learned_on_clean_catches_pollution() {
    // The full loop a practitioner runs: profile the clean stream,
    // auto-generate expectations, validate the dirty stream.
    let schema = sensor_schema();
    let clean = pollute_stream(&schema, sensor_stream(400), PollutionPipeline::empty()).unwrap();
    let suite = suggest_suite(&schema, &clean.polluted).unwrap();
    assert!(suite.validate(&schema, &clean.polluted).unwrap().success());

    let plan = LogicalPlan::new(
        9,
        vec![vec![PolluterConfig::Standard {
            name: "outliers".into(),
            attributes: vec!["Temp".into()],
            error: ErrorConfig::Outlier { magnitude: 20.0 },
            condition: ConditionConfig::Probability { p: 0.05 },
            pattern: None,
        }]],
    );
    let dirty = plan
        .compile(&schema)
        .expect("plan compiles")
        .execute(sensor_stream(400))
        .unwrap();
    let report = suite.validate(&schema, &dirty.polluted).unwrap();
    assert!(
        !report.success(),
        "outliers must violate the learned range:\n{report}"
    );
}

#[test]
fn csv_persistence_of_dirty_stream() {
    // Fig. 2's final step: persist the polluted stream; read it back.
    let schema = sensor_schema();
    let plan = LogicalPlan::new(
        2,
        vec![vec![PolluterConfig::Standard {
            name: "null".into(),
            attributes: vec!["Temp".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Probability { p: 0.2 },
            pattern: None,
        }]],
    );
    let out = plan
        .compile(&schema)
        .expect("plan compiles")
        .execute(sensor_stream(200))
        .unwrap();
    let dirty: Vec<Tuple> = out.polluted.iter().map(|t| t.tuple.clone()).collect();
    let mut buf = Vec::new();
    icewafl::data::write_csv(&mut buf, &schema, &dirty).unwrap();
    let back = icewafl::data::read_csv(&mut std::io::Cursor::new(buf), &schema).unwrap();
    assert_eq!(back, dirty);
}
