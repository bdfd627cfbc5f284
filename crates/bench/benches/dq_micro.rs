//! DQ-engine benchmarks: expectation validation throughput and regex
//! matching cost.

use criterion::{criterion_group, criterion_main, Criterion};
use icewafl_dq::prelude::*;
use icewafl_types::{DataType, Schema, StampedTuple, Timestamp, Tuple, Value};
use std::hint::black_box;
use std::time::Duration;

fn schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("x", DataType::Float),
        ("s", DataType::Str),
    ])
    .unwrap()
}

fn rows(n: usize) -> Vec<StampedTuple> {
    (0..n as u64)
        .map(|i| {
            StampedTuple::new(
                i,
                Timestamp(i as i64 * 1000),
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i as i64 * 1000)),
                    if i % 10 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 * 0.321)
                    },
                    Value::Str(format!("{}.{:03}", i, i % 997).into()),
                ]),
            )
        })
        .collect()
}

fn bench_expectations(c: &mut Criterion) {
    let schema = schema();
    let data = rows(10_000);
    let mut group = c.benchmark_group("expectations_10k_rows");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(30);
    group.bench_function("not_be_null", |b| {
        let e = ExpectColumnValuesToNotBeNull::new("x");
        b.iter(|| black_box(e.validate(&schema, &data).unwrap().unexpected_count))
    });
    group.bench_function("be_between", |b| {
        let e = ExpectColumnValuesToBeBetween::new(
            "x",
            Some(Value::Float(0.0)),
            Some(Value::Float(2000.0)),
        );
        b.iter(|| black_box(e.validate(&schema, &data).unwrap().unexpected_count))
    });
    group.bench_function("increasing", |b| {
        let e = ExpectColumnValuesToBeIncreasing::new("Time");
        b.iter(|| black_box(e.validate(&schema, &data).unwrap().unexpected_count))
    });
    group.bench_function("match_regex", |b| {
        let e = ExpectColumnValuesToMatchRegex::new("s", r"^\d+(\.\d{1,3})?$").unwrap();
        b.iter(|| black_box(e.validate(&schema, &data).unwrap().unexpected_count))
    });
    group.bench_function("mean_between", |b| {
        let e = ExpectColumnMeanToBeBetween::new("x", 0.0, 5_000.0);
        b.iter(|| black_box(e.validate(&schema, &data).unwrap().success))
    });
    group.finish();
}

fn bench_regex_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("regex_engine");
    group.measurement_time(Duration::from_secs(3));
    let precision = Regex::new(r"^\d+(\.\d{1,3})?$").unwrap();
    group.bench_function("precision_match", |b| {
        b.iter(|| black_box(precision.matches_full("12345.678")))
    });
    group.bench_function("precision_reject", |b| {
        b.iter(|| black_box(precision.matches_full("12345.67890")))
    });
    let word = Regex::new(r"[a-z]+@[a-z]+\.[a-z]{2,3}").unwrap();
    group.bench_function("search_in_text", |b| {
        b.iter(|| black_box(word.is_match("contact us at team@example.org for details")))
    });
    group.finish();
}

criterion_group!(benches, bench_expectations, bench_regex_engine);
criterion_main!(benches);
