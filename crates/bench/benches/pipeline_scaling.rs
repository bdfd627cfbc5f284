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

/// Pipeline length sweep: ℓ ∈ {1, 2, 4, 8} polluters, one sub-stream.
fn bench_pipeline_length(c: &mut Criterion) {
    let schema = schema();
    let data = stream(10_000);
    let mut group = c.benchmark_group("pipeline_length");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(20);
    for l in [1usize, 2, 4, 8] {
        let cfg = JobConfig::single(1, (0..l).map(|i| noise_polluter(format!("p{i}"))).collect());
        group.bench_with_input(BenchmarkId::from_parameter(l), &cfg, |b, cfg| {
            b.iter_batched(
                // Job and pipeline construction are setup, not workload.
                || {
                    (
                        data.clone(),
                        cfg.build(&schema).unwrap().pop().unwrap(),
                        PollutionJob::new(schema.clone()).without_logging(),
                    )
                },
                |(d, pipeline, job)| black_box(job.run(d, vec![pipeline]).unwrap().polluted.len()),
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
        let cfg = JobConfig {
            seed: 1,
            pipelines: (0..m)
                .map(|i| vec![noise_polluter(format!("m{i}"))])
                .collect(),
            supervision: None,
            chaos: None,
            checkpoint: None,
            execution: None,
        };
        group.bench_with_input(BenchmarkId::from_parameter(m), &cfg, |b, cfg| {
            b.iter_batched(
                || {
                    (
                        data.clone(),
                        cfg.build(&schema).unwrap(),
                        PollutionJob::new(schema.clone())
                            .with_assigner(SubStreamAssigner::RoundRobin)
                            .without_logging(),
                    )
                },
                |(d, pipelines, job)| black_box(job.run(d, pipelines).unwrap().polluted.len()),
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
    let cfg = JobConfig {
        seed: 1,
        pipelines: (0..4)
            .map(|m| {
                (0..4)
                    .map(|i| noise_polluter(format!("m{m}p{i}")))
                    .collect()
            })
            .collect(),
        supervision: None,
        chaos: None,
        checkpoint: None,
        execution: None,
    };
    let mut group = c.benchmark_group("batch_size");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(20);
    for batch in [1usize, 64, 256, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter_batched(
                || {
                    (
                        data.clone(),
                        cfg.build(&schema).unwrap(),
                        PollutionJob::new(schema.clone())
                            .with_assigner(SubStreamAssigner::RoundRobin)
                            .with_batch_size(batch)
                            .without_logging(),
                    )
                },
                |(d, pipelines, job)| black_box(job.run(d, pipelines).unwrap().polluted.len()),
                BatchSize::LargeInput,
            )
        });
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
