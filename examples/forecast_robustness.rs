//! Evaluate forecasting robustness against temporal noise — a compact
//! version of the paper's experiment 2 on a three-month slice.
//!
//! Run with `cargo run --release --example forecast_robustness`.

use icewafl::prelude::*;

fn main() {
    // Three months of hourly air-quality data for one region.
    let schema = icewafl::data::airquality::schema();
    let mut tuples = icewafl::data::airquality::generate_station_seeded("Gucheng", 2013, 24 * 90);
    icewafl::data::ffill_bfill(&schema, &mut tuples, "NO2").expect("NO2 exists");

    // Split: first two months for training, last month for evaluation.
    let eval_start = 24 * 60;
    let clean =
        pollute_stream(&schema, tuples, PollutionPipeline::empty()).expect("identity pollution");
    let (train, eval_clean) = clean.polluted.split_at(eval_start);

    // Pollute the evaluation month with noise that ramps up over time
    // (equation (3) of the paper).
    let t0 = eval_clean[0].tau;
    let t1 = eval_clean[eval_clean.len() - 1].tau;
    let plan = LogicalPlan::new(
        9,
        vec![vec![PolluterConfig::Standard {
            name: "increasing-noise".into(),
            attributes: vec!["NO2".into(), "TEMP".into(), "WSPM".into()],
            error: ErrorConfig::UniformNoise { a: 0.0, b: 1.0 },
            condition: ConditionConfig::Always,
            pattern: Some(ChangePattern::Incremental { from: t0, to: t1 }),
        }]],
    );
    let eval_tuples: Vec<Tuple> = eval_clean.iter().map(|t| t.tuple.clone()).collect();
    let noisy = plan
        .compile(&schema)
        .expect("plan is valid")
        .execute(eval_tuples)
        .expect("pollution runs")
        .polluted;

    // Walk the evaluation month online: learn, forecast 12 h, score.
    let no2 = schema.require("NO2").expect("NO2 exists");
    let series = |rows: &[StampedTuple]| -> Vec<f64> {
        let mut last = 0.0;
        rows.iter()
            .map(|t| {
                last = t.tuple.get(no2).and_then(Value::as_f64).unwrap_or(last);
                last
            })
            .collect()
    };
    let train_y = series(train);

    println!("=== forecasting robustness under increasing noise ===\n");
    println!(
        "{:<16} {:>12} {:>12} {:>10}",
        "model", "clean MAE", "noisy MAE", "degraded"
    );
    for make in [
        || Box::new(Snarimax::arima(24, 0, 2, 0.05)) as BoxForecaster,
        || Box::new(HoltWinters::new(0.25, 0.02, 0.25, 24)) as BoxForecaster,
        || Box::new(NaiveForecaster::new()) as BoxForecaster,
        || Box::new(SeasonalNaiveForecaster::new(24)) as BoxForecaster,
    ] {
        let mut results = Vec::new();
        let mut name = "";
        for rows in [eval_clean, &noisy[..]] {
            let mut model = make();
            name = model.name();
            for _ in 0..2 {
                for y in &train_y {
                    model.learn_one(*y, &[]);
                }
            }
            let eval_y = series(rows);
            let mut errs = Vec::new();
            let mut pos = 0;
            while pos + 12 <= eval_y.len() {
                let forecast = model.forecast(12, &[]);
                errs.push(mae(&eval_y[pos..pos + 12], &forecast));
                for y in &eval_y[pos..pos + 12] {
                    model.learn_one(*y, &[]);
                }
                pos += 12;
            }
            results.push(errs.iter().sum::<f64>() / errs.len() as f64);
        }
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>9.1}%",
            name,
            results[0],
            results[1],
            100.0 * (results[1] / results[0] - 1.0)
        );
    }
    println!("\nevery model degrades under the injected noise; compare the magnitudes");
}
