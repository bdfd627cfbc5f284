//! Observability overhead on the polluter hot path.
//!
//! The acceptance bar for the metrics layer is **< 5 %** added cost on
//! the hot path. The same workload is benchmarked twice:
//!
//! ```text
//! cargo bench -p icewafl-bench --bench obs_overhead                      # obs on
//! cargo bench -p icewafl-bench --bench obs_overhead --no-default-features # compiled out
//! ```
//!
//! Compare the `pollute_10k` numbers between the two runs. With the
//! `obs` feature off every counter is a zero-sized no-op, so the second
//! run is the true zero-instrumentation baseline; the first run pays
//! the `Arc<AtomicU64>` increments, the 1-in-64 sampled timing, and the
//! *idle* span layer — no `TraceSession` is installed, so every trace
//! probe costs one relaxed atomic load (the bar covers tracing
//! compiled in but not subscribed).
//! Whether metrics are compiled in is printed (and asserted) via
//! `icewafl_obs::metrics_compiled_in()` so the two runs cannot be
//! confused.

use criterion::{criterion_group, criterion_main, Criterion};
use icewafl_core::prelude::*;
use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
use std::hint::black_box;
use std::time::Duration;

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

fn stream(n: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 1000)),
                Value::Float(i as f64),
            ])
        })
        .collect()
}

fn plan(logging: bool) -> LogicalPlan {
    let plan = LogicalPlan::new(
        42,
        vec![vec![
            PolluterConfig::Standard {
                name: "null-x".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Probability { p: 0.3 },
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "scale-x".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::Scale { factor: 0.125 },
                condition: ConditionConfig::Probability { p: 0.2 },
                pattern: None,
            },
        ]],
    );
    LogicalPlan { logging, ..plan }
}

fn bench_obs_overhead(c: &mut Criterion) {
    eprintln!(
        "obs_overhead: metrics compiled {} — compare against the other feature state",
        if icewafl_obs::metrics_compiled_in() {
            "IN"
        } else {
            "OUT"
        }
    );
    let mut group = c.benchmark_group("obs_overhead");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(20);

    let schema = schema();
    let tuples = stream(10_000);

    // Full job, logging off: the hot path the <5% bar applies to. Each
    // iteration builds the pipeline from the plan and runs it.
    let unlogged = plan(false).compile(&schema).unwrap();
    group.bench_function("pollute_10k", |b| {
        b.iter(|| {
            let out = unlogged.execute(tuples.clone()).unwrap();
            black_box(out.polluted.len())
        })
    });

    // Same job with ground-truth logging, for the logging-cost split.
    let logged = plan(true).compile(&schema).unwrap();
    group.bench_function("pollute_10k_logged", |b| {
        b.iter(|| {
            let out = logged.execute(tuples.clone()).unwrap();
            black_box(out.log.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
