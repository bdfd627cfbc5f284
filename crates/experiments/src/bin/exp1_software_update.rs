//! **Table 1** — the software-update scenario (§3.1.2, Figure 5).
//!
//! A composite polluter gated on `Time ≥ 2016-02-27` applies a km→cm
//! unit conversion to `Distance`, rounds `CaloriesBurned` to two
//! decimals, and — for tuples with `BPM > 100` — sets `BPM` to 0 and
//! then, with probability 0.2, to NULL. Each of the four error types is
//! detected with the expectation the paper used; the table compares the
//! expected error counts (from the dataset, as the paper computes them)
//! with the mean GX-measured counts over 50 repetitions.
//!
//! Usage: `exp1_software_update [--reps N] [--seed S]`

use icewafl_core::prelude::*;
use icewafl_data::wearable;
use icewafl_dq::prelude::*;
use icewafl_experiments::{arg_num, scenarios, stats, suites};
use icewafl_types::Value;

fn main() {
    let reps: u64 = arg_num("--reps", 50);
    let base_seed: u64 = arg_num("--seed", 1);
    let schema = wearable::schema();
    let data = wearable::generate();

    // ---- Expected counts, derived from the dataset like the paper
    // does: 33 tuples have BPM > 100 after the update, etc.
    let clean = pollute_stream(&schema, data.clone(), PollutionPipeline::empty())
        .expect("identity pollution");
    let gate = wearable::software_update_time();
    let after: Vec<_> = clean.polluted.iter().filter(|t| t.tau >= gate).collect();
    let idx = |name: &str| schema.index_of(name).expect("attribute exists");
    let high_bpm = after
        .iter()
        .filter(|t| {
            t.tuple.get(idx("BPM")).unwrap().compare(&Value::Int(100))
                == Some(std::cmp::Ordering::Greater)
        })
        .count() as f64;
    let moving = after
        .iter()
        .filter(|t| {
            t.tuple
                .get(idx("Distance"))
                .unwrap()
                .as_f64()
                .unwrap_or(0.0)
                > 0.0
        })
        .count() as f64;
    let precise = after
        .iter()
        .filter(|t| {
            let text = t.tuple.get(idx("CaloriesBurned")).unwrap().to_string();
            matches!(text.split_once('.'), Some((_, frac)) if frac.len() > 2)
        })
        .count() as f64;
    // The clean stream's two pre-existing zero-BPM anomalies.
    let preexisting = suites::validate_zero_bpm_rule(&schema, &clean.polluted)
        .unwrap()
        .unexpected_count as f64;

    // ---- Measured counts with the DQ engine, averaged over reps.
    let mut measured_zero = Vec::new();
    let mut measured_null = Vec::new();
    let mut measured_distance = Vec::new();
    let mut measured_calories = Vec::new();
    let unit_exp = suites::unit_error_expectation();
    let precision_exp = suites::precision_expectation().expect("pattern compiles");
    let null_exp = suites::bpm_null_expectation();
    for rep in 0..reps {
        let pipeline = scenarios::software_update(base_seed + rep)
            .build_pipelines(&schema)
            .expect("scenario builds")
            .pop()
            .unwrap();
        let out = pollute_stream(&schema, data.clone(), pipeline).expect("pollution runs");
        let rows = &out.polluted;
        measured_zero.push(
            suites::validate_zero_bpm_rule(&schema, rows)
                .unwrap()
                .unexpected_count as f64,
        );
        measured_null.push(null_exp.validate(&schema, rows).unwrap().unexpected_count as f64);
        measured_distance.push(unit_exp.validate(&schema, rows).unwrap().unexpected_count as f64);
        measured_calories.push(
            precision_exp
                .validate(&schema, rows)
                .unwrap()
                .unexpected_count as f64,
        );
    }

    println!("=== Table 1: software-update scenario (reps = {reps}) ===\n");
    let rows = vec![
        vec![
            "BPM=0 (Prob. 0.8)".to_string(),
            format!("{:.1} (+{})", 0.8 * high_bpm, preexisting),
            format!("{:.2}", stats::mean(&measured_zero)),
            "26.4 (+2) / 28".to_string(),
        ],
        vec![
            "BPM=null (Prob. 0.2)".to_string(),
            format!("{:.2}", 0.2 * high_bpm),
            format!("{:.2}", stats::mean(&measured_null)),
            "6.60 / 6".to_string(),
        ],
        vec![
            "Distance".to_string(),
            format!("{moving}"),
            format!("{:.2}", stats::mean(&measured_distance)),
            "374 / 374".to_string(),
        ],
        vec![
            "CaloriesBurned".to_string(),
            format!("{precise}"),
            format!("{:.2}", stats::mean(&measured_calories)),
            "960 / 960".to_string(),
        ],
    ];
    stats::print_table(
        &[
            "attribute",
            "expected after pollution",
            "measured with DQ",
            "paper (exp/meas)",
        ],
        &rows,
    );
    println!(
        "\ndataset: {} tuples ≥ 2016-02-27, {high_bpm} with BPM > 100 (paper: 1056 / 33)",
        after.len()
    );
}
