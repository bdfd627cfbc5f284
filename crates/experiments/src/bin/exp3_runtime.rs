//! **Figure 8** — runtime overhead of the pollution process (§3.3).
//!
//! Executes each §3.1 scenario 50 times over the wearable stream and
//! compares the wall-clock distribution against a pipeline that loads
//! and writes the same stream without polluting it. The paper reports a
//! 3–7 % overhead; absolute times differ (our substrate is an in-process
//! framework, not a Flink cluster), the *relative* overhead is the
//! reproduced quantity.
//!
//! Like the paper's pipeline, every run parses the input into the
//! stream, executes Algorithm 1, and writes the dirty stream back out
//! as CSV.
//!
//! Usage: `exp3_runtime [--reps N] [--seed S]`

use icewafl_core::prelude::*;
use icewafl_data::{csv, wearable};
use icewafl_experiments::{arg_num, scenarios, stats};
use icewafl_types::Tuple;
use std::time::Instant;

fn run_once(schema: &icewafl_types::Schema, data: &[Tuple], plan: &LogicalPlan, seed: u64) -> f64 {
    let started = Instant::now();
    // Ground-truth logging is optional in the paper's pipeline (Fig. 2)
    // and disabled for the overhead measurement.
    let plan = LogicalPlan {
        seed,
        logging: false,
        ..plan.clone()
    };
    let out = plan
        .compile(schema)
        .expect("scenario builds")
        .execute(data.to_vec())
        .expect("pollution runs");
    // Write the dirty stream, as the paper's pipeline does.
    let dirty: Vec<Tuple> = out.polluted.into_iter().map(|t| t.tuple).collect();
    let mut sink = Vec::with_capacity(256 * 1024);
    csv::write_csv(&mut sink, schema, &dirty).expect("CSV serialization");
    std::hint::black_box(&sink);
    started.elapsed().as_secs_f64() * 1000.0
}

fn main() {
    let reps: u64 = arg_num("--reps", 50);
    let base_seed: u64 = arg_num("--seed", 1);
    let schema = wearable::schema();
    let data = wearable::generate();

    // The baseline loads and writes the stream through one empty
    // pipeline.
    let scenarios = [
        ("no pollution", LogicalPlan::new(0, vec![vec![]])),
        ("software update", scenarios::software_update(0)),
        ("bad network", scenarios::bad_network(0)),
        ("random temporal", scenarios::random_temporal(0)),
    ];

    println!(
        "=== Figure 8: runtime overhead (reps = {reps}, {} tuples) ===\n",
        data.len()
    );
    let mut baseline_median = 0.0;
    let mut rows = Vec::new();
    for (i, (name, plan)) in scenarios.iter().enumerate() {
        // Warm-up run outside the measurement.
        let _ = run_once(&schema, &data, plan, base_seed);
        let samples: Vec<f64> = (0..reps)
            .map(|rep| run_once(&schema, &data, plan, base_seed + rep))
            .collect();
        let f = stats::five_number(&samples);
        if i == 0 {
            baseline_median = f.median;
        }
        let overhead = if i == 0 {
            "baseline".to_string()
        } else {
            format!("{:+.1} %", 100.0 * (f.median / baseline_median - 1.0))
        };
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", f.min),
            format!("{:.2}", f.q1),
            format!("{:.2}", f.median),
            format!("{:.2}", f.q3),
            format!("{:.2}", f.max),
            overhead,
        ]);
    }
    stats::print_table(
        &[
            "scenario", "min ms", "q1", "median", "q3", "max", "overhead",
        ],
        &rows,
    );
    println!("\npaper: 3-7 % overhead for all pollution scenarios vs. the unpolluted pipeline");
}
