//! Quickstart: pollute a small sensor stream, inspect the ground-truth
//! log, and detect the injected errors with the DQ engine.
//!
//! Run with `cargo run --example quickstart`.

use icewafl::prelude::*;

fn main() {
    // 1. A clean stream: three days of hourly temperature readings.
    let schema = Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("Temp", DataType::Float),
        ("Sensor", DataType::Str),
    ])
    .expect("schema is valid");
    let start = Timestamp::from_ymd(2026, 7, 1).expect("valid date");
    let tuples: Vec<Tuple> = (0..72)
        .map(|h| {
            let ts = start + Duration::from_hours(h);
            let temp = 18.0 + 7.0 * (h as f64 * std::f64::consts::PI / 12.0).sin();
            Tuple::new(vec![
                Value::Timestamp(ts),
                Value::Float(temp),
                Value::Str("S1".into()),
            ])
        })
        .collect();

    // 2. Describe the job as a plan with one pollution pipeline:
    //    missing values whose probability follows the daily sinusoid of
    //    the paper's experiment 3.1.1, plus relative Gaussian noise on
    //    afternoon readings. The JSON form is what `icewafl pollute
    //    --config` reads.
    let plan = LogicalPlan::new(
        42,
        vec![vec![
            PolluterConfig::Standard {
                name: "nightly-dropouts".into(),
                attributes: vec!["Temp".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Sinusoidal {
                    amplitude: 0.25,
                    offset: 0.25,
                },
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "afternoon-noise".into(),
                attributes: vec!["Temp".into()],
                error: ErrorConfig::GaussianNoise {
                    sigma: 0.1,
                    relative: true,
                },
                condition: ConditionConfig::HourRange { start: 12, end: 18 },
                pattern: None,
            },
        ]],
    );
    println!("plan:\n{}\n", plan.to_json());

    // 3. Run the pollution process (Algorithm 1 of the paper).
    let out = plan
        .compile(&schema)
        .expect("plan is valid")
        .execute(tuples)
        .expect("pollution runs");
    println!(
        "polluted {} of {} tuples ({} log entries)",
        out.log.polluted_tuple_ids().len(),
        out.polluted.len(),
        out.log.len()
    );
    for (polluter, count) in out.log.counts_by_polluter() {
        println!("  {polluter}: {count} errors");
    }

    // 4. Detect the injected NULLs with the DQ engine.
    let suite = ExpectationSuite::new("quality-check")
        .with(ExpectColumnValuesToNotBeNull::new("Temp"))
        .with(ExpectColumnValuesToBeBetween::new(
            "Temp",
            Some(Value::Float(0.0)),
            Some(Value::Float(40.0)),
        ));
    let report = suite
        .validate(&schema, &out.polluted)
        .expect("validation runs");
    println!("\n{report}");

    // 5. The ground truth and the detector agree on the missing values.
    let nulls_detected = report.find("not_be_null").expect("expectation present");
    let nulls_injected = out.log.counts_by_polluter()["nightly-dropouts"];
    assert_eq!(nulls_detected.unexpected_count, nulls_injected);
    println!("ground truth and DQ agree: {nulls_injected} missing values");

    // 6. The run report: per-polluter fire/skip counts and per-stage
    //    stream metrics, also available as JSON via `--metrics-json` on
    //    the CLI (serde-serializable `RunReport`).
    println!("\n{}", out.report.render());
}
