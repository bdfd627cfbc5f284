//! Multi-stream integration (§2.2.2): split a stream into overlapping
//! sub-streams, pollute each with a different pipeline, merge — and
//! observe the fuzzy duplicates the merge produces.
//!
//! Run with `cargo run --example multi_stream`.

use icewafl::prelude::*;

fn main() {
    // Redundant deployment: two logical feeds carry the same physical
    // sensor readings (broadcast assignment), like sensors S1/S2 of the
    // paper's motivating example.
    let schema = Schema::from_pairs([("Time", DataType::Timestamp), ("Temp", DataType::Float)])
        .expect("schema is valid");
    let start = Timestamp::from_ymd(2026, 7, 1).expect("valid date");
    let tuples: Vec<Tuple> = (0..200)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(start + Duration::from_minutes(i * 5)),
                Value::Float(20.0 + (i % 12) as f64 * 0.5),
            ])
        })
        .collect();

    // Sub-stream 0: a noisy feed. Sub-stream 1: a feed with dropouts
    // and an hour of frozen readings.
    let plan = LogicalPlan {
        assigner: AssignerSpec::Broadcast,
        ..LogicalPlan::new(
            11,
            vec![
                vec![PolluterConfig::Standard {
                    name: "feed-a-noise".into(),
                    attributes: vec!["Temp".into()],
                    error: ErrorConfig::GaussianNoise {
                        sigma: 0.4,
                        relative: false,
                    },
                    condition: ConditionConfig::Probability { p: 0.5 },
                    pattern: None,
                }],
                vec![
                    PolluterConfig::Drop {
                        name: "feed-b-dropouts".into(),
                        condition: ConditionConfig::Probability { p: 0.1 },
                    },
                    PolluterConfig::Freeze {
                        name: "feed-b-stuck-sensor".into(),
                        condition: ConditionConfig::Probability { p: 0.02 },
                        attributes: vec!["Temp".into()],
                        duration_ms: 3_600_000,
                    },
                ],
            ],
        )
    };
    let out = plan
        .compile(&schema)
        .expect("plan is valid")
        .execute(tuples)
        .expect("pollution runs");

    println!("=== multi-stream integration ===");
    println!(
        "input: 200 tuples; merged output: {} tuples",
        out.polluted.len()
    );
    for (polluter, count) in out.log.counts_by_polluter() {
        println!("  {polluter:<22} {count:>4} errors");
    }

    // Merging both feeds duplicates every tuple that feed B did not
    // drop; a uniqueness check on the merged stream reveals them.
    let dup_check = ExpectColumnValuesToBeUnique::new("Time")
        .validate(&schema, &out.polluted)
        .expect("validation runs");
    println!(
        "\nduplicate timestamps in the merged stream: {} (sub-streams overlap!)",
        dup_check.unexpected_count
    );

    // The id ground truth tells duplicates from genuine tuples.
    let mut by_id = std::collections::HashMap::<u64, u32>::new();
    for t in &out.polluted {
        *by_id.entry(t.id).or_default() += 1;
    }
    let pairs = by_id.values().filter(|c| **c == 2).count();
    let singles = by_id.values().filter(|c| **c == 1).count();
    println!("ground truth: {pairs} tuples present twice, {singles} survived in one feed only");
}
