//! **§3.1.3** — the bad-network-connection scenario.
//!
//! Tuples between 13:00 and 14:59 are delayed by one hour with
//! probability 0.2. The window spans 88 tuples, so ≈ 17.6 delays are
//! expected per run; the DQ engine detects them via the violated
//! increasing order of the `Time` attribute (paper: 17.02 measured).
//!
//! Usage: `exp1_bad_network [--reps N] [--seed S]`

use icewafl_core::prelude::*;
use icewafl_data::wearable;
use icewafl_experiments::{arg_num, scenarios, stats, suites};

fn main() {
    let reps: u64 = arg_num("--reps", 50);
    let base_seed: u64 = arg_num("--seed", 1);
    let schema = wearable::schema();
    let data = wearable::generate();
    let suite = suites::bad_network_suite();

    // Expected: |window| × 0.2, from the analytic polluter probability.
    let clean = pollute_stream(&schema, data.clone(), PollutionPipeline::empty())
        .expect("identity pollution");
    let in_window = clean
        .polluted
        .iter()
        .filter(|t| (13..15).contains(&t.tau.hour_of_day()))
        .count();
    let expected_pipeline = scenarios::bad_network(0)
        .build_pipelines(&schema)
        .expect("scenario builds")
        .pop()
        .unwrap();
    let expected: f64 = clean
        .polluted
        .iter()
        .map(|t| expected_pipeline.expected_probability(t))
        .sum();

    let mut injected = Vec::with_capacity(reps as usize);
    let mut measured = Vec::with_capacity(reps as usize);
    for rep in 0..reps {
        let pipeline = scenarios::bad_network(base_seed + rep)
            .build_pipelines(&schema)
            .expect("scenario builds")
            .pop()
            .unwrap();
        let out = pollute_stream(&schema, data.clone(), pipeline).expect("pollution runs");
        injected.push(out.log.len() as f64);
        let report = suite
            .validate(&schema, &out.polluted)
            .expect("validation runs");
        measured.push(report.total_unexpected() as f64);
    }

    println!("=== §3.1.3: bad network connection (reps = {reps}) ===\n");
    let rows = vec![
        vec![
            "tuples in 13:00-14:59".into(),
            format!("{in_window}"),
            "88".into(),
        ],
        vec![
            "expected delayed tuples".into(),
            format!("{expected:.1}"),
            "17.6".into(),
        ],
        vec![
            "actually delayed (ground truth)".into(),
            format!("{:.2}", stats::mean(&injected)),
            "-".into(),
        ],
        vec![
            "measured with DQ (increasing check)".into(),
            format!("{:.2}", stats::mean(&measured)),
            "17.02".into(),
        ],
    ];
    stats::print_table(&["quantity", "this run", "paper"], &rows);
    println!(
        "\nmeasured std dev over reps: {:.2}; detection recall: {:.1} %",
        stats::stdev(&measured),
        100.0 * stats::mean(&measured) / stats::mean(&injected).max(1e-9),
    );
}
