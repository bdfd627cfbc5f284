//! **Figure 8 bench** — runtime overhead of the three §3.1 pollution
//! scenarios vs. an unpolluted pass-through pipeline, measured with
//! Criterion over the wearable stream (the `exp3_runtime` binary prints
//! the paper-style box-plot summary; this bench gives rigorous
//! statistics).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use icewafl_core::prelude::*;
use icewafl_data::wearable;
use std::hint::black_box;
use std::time::Duration;

/// A one-pipeline plan without ground-truth logging, as the overhead
/// measurement runs it.
fn unlogged(polluters: Vec<PolluterConfig>) -> LogicalPlan {
    LogicalPlan {
        logging: false,
        ..LogicalPlan::new(0, vec![polluters])
    }
}

fn scenario_plans() -> Vec<(&'static str, LogicalPlan)> {
    // Inline copies of the §3.1 scenario configurations.
    let random = unlogged(vec![PolluterConfig::Standard {
        name: "null-distance".into(),
        attributes: vec!["Distance".into()],
        error: ErrorConfig::MissingValue,
        condition: ConditionConfig::Sinusoidal {
            amplitude: 0.25,
            offset: 0.25,
        },
        pattern: None,
    }]);
    let update = unlogged(vec![PolluterConfig::Composite {
        name: "software-update".into(),
        condition: ConditionConfig::TimeWindow {
            from: Some("2016-02-27 00:00:00".into()),
            to: None,
        },
        children: vec![
            PolluterConfig::Standard {
                name: "km-to-cm".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::UnitConversion { factor: 100_000.0 },
                condition: ConditionConfig::Always,
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "round-calories".into(),
                attributes: vec!["CaloriesBurned".into()],
                error: ErrorConfig::Round { precision: 2 },
                condition: ConditionConfig::Always,
                pattern: None,
            },
        ],
    }]);
    let network = unlogged(vec![PolluterConfig::Delay {
        name: "bad-network".into(),
        condition: ConditionConfig::And {
            children: vec![
                ConditionConfig::HourRange { start: 13, end: 15 },
                ConditionConfig::Probability { p: 0.2 },
            ],
        },
        delay_ms: 3_600_000,
    }]);
    vec![
        ("no_pollution", unlogged(vec![])),
        ("random_temporal", random),
        ("software_update", update),
        ("bad_network", network),
    ]
}

fn bench_overhead(c: &mut Criterion) {
    let schema = wearable::schema();
    let data = wearable::generate();
    let mut group = c.benchmark_group("fig8_runtime_overhead");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(30);
    for (name, plan) in scenario_plans() {
        // Each run builds its pipelines from the plan, then pollutes.
        let physical = plan.compile(&schema).expect("plan compiles");
        group.bench_function(name, |b| {
            b.iter_batched(
                || data.clone(),
                |d| black_box(physical.execute(d).expect("pollution runs").polluted.len()),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
