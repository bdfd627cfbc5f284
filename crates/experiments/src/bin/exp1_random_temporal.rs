//! **Figure 4** — random temporal errors (§3.1.1).
//!
//! Pollutes the wearable stream with a missing-value polluter on
//! `Distance` gated by the daily sinusoid `p(t) = 0.25·cos(π/12·t) +
//! 0.25`, repeats the non-deterministic pollution 50 times, validates
//! each run with the DQ engine's `not_be_null` expectation, and prints
//! the per-hour expected vs. measured polluted-tuple counts — the two
//! series of Figure 4.
//!
//! Usage: `exp1_random_temporal [--reps N] [--seed S]`

use icewafl_core::prelude::*;
use icewafl_data::wearable;
use icewafl_experiments::{arg_num, scenarios, stats, suites};
use std::collections::HashMap;

fn main() {
    let reps: u64 = arg_num("--reps", 50);
    let base_seed: u64 = arg_num("--seed", 1);
    let schema = wearable::schema();
    let data = wearable::generate();
    let suite = suites::random_temporal_suite();

    // Analytic expectation: Σ p(τ) per hour of day, from the polluter's
    // own expected-probability model over the clean stream.
    let clean = pollute_stream(&schema, data.clone(), PollutionPipeline::empty())
        .expect("identity pollution");
    let expected_pipeline = scenarios::random_temporal(0)
        .build_pipelines(&schema)
        .expect("scenario builds")
        .pop()
        .unwrap();
    let mut expected_by_hour = [0.0f64; 24];
    for t in &clean.polluted {
        expected_by_hour[t.tau.hour_of_day() as usize] += expected_pipeline.expected_probability(t);
    }

    // Measured: average GX-detected NULL counts per hour over the
    // repetitions.
    let mut measured_by_hour = [0.0f64; 24];
    let mut totals = Vec::with_capacity(reps as usize);
    for rep in 0..reps {
        let pipeline = scenarios::random_temporal(base_seed + rep)
            .build_pipelines(&schema)
            .expect("scenario builds")
            .pop()
            .unwrap();
        let out = pollute_stream(&schema, data.clone(), pipeline).expect("pollution runs");
        let report = suite
            .validate(&schema, &out.polluted)
            .expect("validation runs");
        let tau_by_id: HashMap<u64, icewafl_types::Timestamp> =
            out.polluted.iter().map(|t| (t.id, t.tau)).collect();
        let result = &report.results[0];
        for id in &result.unexpected_ids {
            measured_by_hour[tau_by_id[id].hour_of_day() as usize] += 1.0;
        }
        totals.push(result.unexpected_count as f64);
    }
    for m in &mut measured_by_hour {
        *m /= reps as f64;
    }

    println!("=== Figure 4: random temporal errors (reps = {reps}) ===\n");
    let max = expected_by_hour.iter().cloned().fold(0.0, f64::max);
    let rows: Vec<Vec<String>> = (0..24)
        .map(|h| {
            vec![
                format!("{h:02}"),
                format!("{:.2}", expected_by_hour[h]),
                format!("{:.2}", measured_by_hour[h]),
                stats::bar(measured_by_hour[h], max, 30),
            ]
        })
        .collect();
    stats::print_table(&["hour", "expected", "measured (GX)", ""], &rows);

    let total_expected: f64 = expected_by_hour.iter().sum();
    let mean_measured = stats::mean(&totals);
    let proportions: Vec<f64> = totals
        .iter()
        .map(|t| 100.0 * t / clean.polluted.len() as f64)
        .collect();
    println!("\ntotal expected errors           : {total_expected:.1}");
    println!("mean measured errors (GX)       : {mean_measured:.1}   (paper: 259.6)");
    println!(
        "mean error proportion           : {:.2} %  (paper: 24.58 %)",
        stats::mean(&proportions)
    );
    println!(
        "variance of the proportion      : {:.2} %²  (paper: 1.22 %²)",
        stats::variance(&proportions)
    );
}
