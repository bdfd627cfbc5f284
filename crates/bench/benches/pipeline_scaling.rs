//! Ablation: throughput vs. pipeline length `ℓ` and sub-stream count
//! `m` — the empirical counterpart of the paper's §2.3 complexity claim
//! `O(n·m·(1/m + ℓ + log(n·m)))`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
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

fn noise_polluter(name: String) -> PolluterConfig {
    PolluterConfig::Standard {
        name,
        attributes: vec!["x".into()],
        error: ErrorConfig::GaussianNoise {
            sigma: 1.0,
            relative: false,
        },
        condition: ConditionConfig::Probability { p: 0.5 },
        pattern: None,
    }
}

/// `pipelines` under round-robin assignment with `batch_size`, logging
/// off, compiled against `schema`. Compiling is setup; each execution
/// builds its pipelines (microseconds) and runs them.
fn compiled(
    schema: &Schema,
    pipelines: Vec<Vec<PolluterConfig>>,
    batch_size: usize,
) -> PhysicalPlan {
    LogicalPlan {
        assigner: AssignerSpec::RoundRobin,
        batch_size,
        logging: false,
        ..LogicalPlan::new(1, pipelines)
    }
    .compile(schema)
    .unwrap()
}

/// Pipeline length sweep: ℓ ∈ {1, 2, 4, 8} polluters, one sub-stream.
fn bench_pipeline_length(c: &mut Criterion) {
    let schema = schema();
    let data = stream(10_000);
    let mut group = c.benchmark_group("pipeline_length");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(20);
    for l in [1usize, 2, 4, 8] {
        let pipeline = (0..l).map(|i| noise_polluter(format!("p{i}"))).collect();
        let physical = compiled(&schema, vec![pipeline], DEFAULT_BATCH_SIZE);
        group.bench_with_input(BenchmarkId::from_parameter(l), &physical, |b, physical| {
            b.iter_batched(
                || data.clone(),
                |d| black_box(physical.execute(d).unwrap().polluted.len()),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Sub-stream count sweep: m ∈ {1, 2, 4} round-robin partitions, one
/// polluter each.
fn bench_substream_count(c: &mut Criterion) {
    let schema = schema();
    let data = stream(10_000);
    let mut group = c.benchmark_group("substream_count");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(20);
    for m in [1usize, 2, 4] {
        let pipelines = (0..m)
            .map(|i| vec![noise_polluter(format!("m{i}"))])
            .collect();
        let physical = compiled(&schema, pipelines, DEFAULT_BATCH_SIZE);
        group.bench_with_input(BenchmarkId::from_parameter(m), &physical, |b, physical| {
            b.iter_batched(
                || data.clone(),
                |d| black_box(physical.execute(d).unwrap().polluted.len()),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Transport batch-size sweep on the §2.3 reference workload (ℓ = 4,
/// m = 4): how many records the router hands a sub-stream, and the
/// output carries, per frame.
fn bench_batch_size(c: &mut Criterion) {
    let schema = schema();
    let data = stream(10_000);
    let pipelines: Vec<Vec<PolluterConfig>> = (0..4)
        .map(|m| {
            (0..4)
                .map(|i| noise_polluter(format!("m{m}p{i}")))
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("batch_size");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(20);
    for batch in [1usize, 64, 256, 4096] {
        let physical = compiled(&schema, pipelines.clone(), batch);
        group.bench_with_input(
            BenchmarkId::from_parameter(batch),
            &physical,
            |b, physical| {
                b.iter_batched(
                    || data.clone(),
                    |d| black_box(physical.execute(d).unwrap().polluted.len()),
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline_length,
    bench_substream_count,
    bench_batch_size
);
criterion_main!(benches);
