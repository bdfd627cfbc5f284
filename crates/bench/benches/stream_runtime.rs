//! Raw stream-framework benchmarks: operator-chain throughput,
//! event-time sorting, and union.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use icewafl_stream::prelude::*;
use icewafl_types::{Duration as IceDuration, Timestamp};
use std::hint::black_box;
use std::time::Duration;

fn bench_operator_chain(c: &mut Criterion) {
    let data: Vec<i64> = (0..100_000).collect();
    let mut group = c.benchmark_group("operator_chain");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(20);
    group.throughput(criterion::Throughput::Elements(data.len() as u64));
    group.bench_function("map_filter_map", |b| {
        b.iter_batched(
            || data.clone(),
            |d| {
                black_box(
                    DataStream::from_vec(d)
                        .map(|x| x * 3)
                        .filter(|x| x % 2 == 0)
                        .map(|x| x + 1)
                        .count()
                        .unwrap(),
                )
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_sorter(c: &mut Criterion) {
    // Mildly out-of-order stream: swap every pair.
    let mut data: Vec<i64> = (0..50_000).collect();
    for pair in data.chunks_exact_mut(2) {
        pair.swap(0, 1);
    }
    let mut group = c.benchmark_group("event_time_sorter");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(20);
    group.throughput(criterion::Throughput::Elements(data.len() as u64));
    group.bench_function("bounded_disorder", |b| {
        b.iter_batched(
            || data.clone(),
            |d| {
                let src = VecSource::new(d);
                let strategy = WatermarkStrategy::bounded_out_of_orderness(
                    |x: &i64| Timestamp(*x),
                    IceDuration::from_millis(2),
                    64,
                );
                black_box(
                    DataStream::from_source(src, strategy)
                        .sort_by_event_time(|x| Timestamp(*x))
                        .count()
                        .unwrap(),
                )
            },
            BatchSize::LargeInput,
        )
    });
    // Already-ordered input: the sorter's append fast path (no binary
    // search, no mid-buffer insert) — the common case after a merge of
    // round-robin sub-streams.
    let ordered: Vec<i64> = (0..50_000).collect();
    group.bench_function("already_ordered", |b| {
        b.iter_batched(
            || ordered.clone(),
            |d| {
                let src = VecSource::new(d);
                let strategy = WatermarkStrategy::bounded_out_of_orderness(
                    |x: &i64| Timestamp(*x),
                    IceDuration::ZERO,
                    64,
                );
                black_box(
                    DataStream::from_source(src, strategy)
                        .sort_by_event_time(|x| Timestamp(*x))
                        .count()
                        .unwrap(),
                )
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_union(c: &mut Criterion) {
    let a: Vec<i64> = (0..50_000).collect();
    let bvec: Vec<i64> = (50_000..100_000).collect();
    let mut group = c.benchmark_group("union");
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(20);
    group.bench_function("sequential", |b| {
        b.iter_batched(
            || (a.clone(), bvec.clone()),
            |(a, bv)| {
                black_box(
                    DataStream::union(vec![DataStream::from_vec(a), DataStream::from_vec(bv)])
                        .count()
                        .unwrap(),
                )
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_operator_chain, bench_sorter, bench_union);
criterion_main!(benches);
