//! The channel driver's merge is linear in time and bounded in memory.
//!
//! The sequential schedule hands every sub-stream its share of each
//! watermark period and then the watermark itself, so all sub-streams
//! cross each watermark in the same step and the event-time sorter
//! drains once per period. These tests pin that as *exact counts* read
//! from `RunReport.metrics` — not wall time — and pin the one rule for
//! input that breaks the watermark's promise.

use icewafl::prelude::*;
use icewafl::types::{DataType, Timestamp, Value};

const SORTER: &str = "stage/00_event_time_sorter";
const WATERMARK_PERIOD: u64 = 64;
const SUB_STREAMS: usize = 4;

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

fn tuple(tau_ms: i64, x: i64) -> Tuple {
    Tuple::new(vec![
        Value::Timestamp(Timestamp(tau_ms)),
        Value::Float(x as f64),
    ])
}

/// Tuples one second apart: tuple `i` has τ = i·1000 ms and x = i.
fn tuples(n: i64) -> Vec<Tuple> {
    (0..n).map(|i| tuple(i * 1000, i)).collect()
}

/// Four round-robin sub-streams; 0 and 1 delay *every* tuple by 100 s
/// (so delayed tuples are always in flight and re-enter the merge ~100
/// positions late), 2 and 3 only add noise. With a constant condition
/// the run is periodic in the watermark period, so occupancy peaks do
/// not depend on how many periods the stream has.
fn delaying_plan() -> LogicalPlan {
    let pipeline = |i: usize| {
        let mut stages = vec![PolluterConfig::Standard {
            name: format!("noise-{i}"),
            attributes: vec!["x".into()],
            error: ErrorConfig::GaussianNoise {
                sigma: 1.0,
                relative: false,
            },
            condition: ConditionConfig::Probability { p: 0.5 },
            pattern: None,
        }];
        if i < 2 {
            stages.push(PolluterConfig::Delay {
                name: format!("lag-{i}"),
                condition: ConditionConfig::Always,
                delay_ms: 100_000,
            });
        }
        stages
    };
    let mut plan = LogicalPlan::new(7, (0..SUB_STREAMS).map(pipeline).collect());
    plan.assigner = AssignerSpec::RoundRobin;
    plan.watermark_period = WATERMARK_PERIOD;
    plan
}

#[test]
fn sorter_occupancy_is_independent_of_stream_length() {
    let run = |n: i64| {
        delaying_plan()
            .compile(&schema())
            .expect("plan compiles")
            .execute(tuples(n))
            .expect("run succeeds")
    };
    let (n, small, large) = (4096, run(4096), run(4 * 4096));
    assert_eq!(small.polluted.len() as i64, n);
    assert_eq!(large.polluted.len() as i64, 4 * n);

    let held_by_delays = |out: &PollutionOutput| -> u64 {
        out.report
            .polluters
            .iter()
            .filter(|p| p.name.starts_with("lag-"))
            .map(|p| p.buffer_max)
            .sum()
    };
    assert!(held_by_delays(&small) > 0, "the delays hold tuples back");
    let bound = WATERMARK_PERIOD * SUB_STREAMS as u64 + held_by_delays(&small);

    let peak = |out: &PollutionOutput| out.report.metrics.gauge(&format!("{SORTER}/buffer_max"));
    assert!(peak(&small) > 0);
    assert_eq!(
        peak(&small),
        peak(&large),
        "the sorter's peak occupancy grew with the stream"
    );
    assert!(
        peak(&large) <= bound,
        "sorter held {} records, more than a watermark period per sub-stream \
         plus the delayed tuples ({bound})",
        peak(&large)
    );
    for out in [&small, &large] {
        assert_eq!(
            out.report.metrics.counter(&format!("{SORTER}/heaped")),
            0,
            "records detoured through the overflow heap"
        );
        assert_eq!(out.report.metrics.counter(&format!("{SORTER}/late")), 0);
    }
}

/// A stream whose tuple at position `at` carries the event time of
/// tuple 10: by then the watermark has long passed it.
fn regressing_stream(n: i64, at: i64) -> Vec<Tuple> {
    let mut input = tuples(n);
    input[at as usize] = tuple(10_000, at);
    input
}

#[test]
fn a_late_tuple_surfaces_late_whichever_sub_stream_it_takes() {
    // Watermarks fire every 64 tuples, so before position 200..204 the
    // last one emitted is τ(191) = 191 000 ms; the regressing tuple
    // (τ = 10 000 ms) is 181 s behind it. It is never dropped and never
    // re-sorted into the past: it leaves with the next release, ahead of
    // everything that release holds — the same for every sub-stream it
    // can be routed to, for one sub-stream, and at every frame size.
    let n = 400;
    let noise_only = |m: usize| -> Vec<Vec<PolluterConfig>> {
        delaying_plan()
            .pipelines
            .into_iter()
            .skip(2)
            .cycle()
            .take(m)
            .collect()
    };
    for (m, batch_size) in [
        (SUB_STREAMS, DEFAULT_BATCH_SIZE),
        (SUB_STREAMS, 1),
        (1, DEFAULT_BATCH_SIZE),
    ] {
        for sub_stream in 0..SUB_STREAMS as i64 {
            let at = 200 + sub_stream;
            let mut plan = LogicalPlan::new(7, noise_only(m));
            plan.assigner = AssignerSpec::RoundRobin;
            plan.watermark_period = WATERMARK_PERIOD;
            plan.batch_size = batch_size;
            let out = plan
                .compile(&schema())
                .expect("plan compiles")
                .execute(regressing_stream(n, at))
                .expect("run succeeds");
            let case = format!("m = {m}, batch {batch_size}, late tuple at {at}");

            let ids: Vec<u64> = out.polluted.iter().map(|t| t.id).collect();
            let expected: Vec<u64> = (0..192)
                .chain([at as u64])
                .chain((192..n as u64).filter(|id| *id != at as u64))
                .collect();
            assert_eq!(ids, expected, "{case}");
            if m > 1 {
                assert_eq!(u64::from(out.polluted[192].sub_stream), at as u64 % 4);
            }
            let metrics = &out.report.metrics;
            assert_eq!(metrics.counter(&format!("{SORTER}/late")), 1, "{case}");
            let lag = metrics
                .histogram(&format!("{SORTER}/late_lag_ms"))
                .expect("lag histogram registered");
            assert_eq!((lag.count, lag.sum), (1, 181_000), "{case}");
        }
    }
}

#[test]
fn a_late_tuple_behind_delaying_sub_streams_surfaces_in_one_pinned_place() {
    // The late-input rule holds for every plan, delays included: every
    // sub-stream crosses each watermark in the same step, so whether
    // the combined watermark has passed the regressing tuple when it
    // reaches the sorter is a function of the input, not of a schedule.
    // It is never dropped, it is the one late tuple, and it surfaces in
    // the same place at every frame size.
    for sub_stream in 0..SUB_STREAMS as i64 {
        let at = 200 + sub_stream;
        let run = |batch_size: usize| {
            let mut plan = delaying_plan();
            plan.batch_size = batch_size;
            plan.compile(&schema())
                .expect("plan compiles")
                .execute(regressing_stream(400, at))
                .expect("run succeeds")
        };
        let out = run(1);
        let ids: Vec<u64> = out.polluted.iter().map(|t| t.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..400).collect::<Vec<u64>>(), "late tuple at {at}");
        let late = out.report.metrics.counter(&format!("{SORTER}/late"));
        assert_eq!(late, 1, "late tuple at {at}");
        for batch_size in [7, DEFAULT_BATCH_SIZE] {
            assert_eq!(
                run(batch_size).polluted,
                out.polluted,
                "late tuple at {at}, batch {batch_size}"
            );
        }
    }
}
