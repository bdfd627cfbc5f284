//! Pins the claim that 1-in-64 latency sampling is **batch-size
//! invariant**: handing records from the split router to a sub-stream
//! in larger [`StreamElement::Batch`] frames changes how many operator
//! callbacks run, but not how many latency samples land in the
//! histogram — the runtime records one entry per 1-in-64 *record*
//! sample point, whether a frame covers zero, one, or several of them.
//!
//! [`StreamElement::Batch`]: icewafl::stream::StreamElement::Batch

use icewafl::obs::MetricsRegistry;
use icewafl::stream::{DataStream, SubPipelineBuilder};

const RECORDS: i64 = 4096;

/// Runs a map behind a one-way split whose router hands records over in
/// frames of `batch_size`, and returns how many latency samples the map
/// stage recorded.
fn sampled_count(batch_size: usize) -> u64 {
    let registry = MetricsRegistry::new();
    let builders: Vec<SubPipelineBuilder<i64, i64>> = vec![Box::new(|s| s.map(|x| x + 1))];
    let out = DataStream::from_vec((0..RECORDS).collect::<Vec<_>>())
        .split_merge_batched(|_, m| m.push(0), builders, batch_size)
        .collect_with_registry(&registry)
        .unwrap();
    assert_eq!(out.len(), RECORDS as usize, "batch_size {batch_size}");
    // Built sink-first: the router is stage 00, the map stage 01.
    registry
        .snapshot()
        .histogram("stage/01_map/latency_ns")
        .map(|h| h.count)
        .unwrap_or(0)
}

#[test]
fn latency_sampling_is_batch_size_invariant() {
    if !icewafl::obs::metrics_compiled_in() {
        return;
    }
    // 4096 records → one sample point every 64 records = 64 entries,
    // regardless of how records are framed. batch 64 aligns one point
    // per frame; batch 256 spans four points per frame; batch 1 is the
    // per-record path. A small tolerance absorbs edge effects at the
    // stream tail — anything larger would mean sampling density drifts
    // with the transport framing.
    let expected = (RECORDS / 64) as u64;
    for batch_size in [1usize, 64, 256] {
        let count = sampled_count(batch_size);
        let drift = count.abs_diff(expected);
        assert!(
            drift <= 2,
            "batch_size {batch_size}: {count} samples, expected {expected} ± 2"
        );
    }
}
