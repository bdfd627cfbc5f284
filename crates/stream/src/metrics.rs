//! Per-stage metric handle bundles.
//!
//! The session loop in `icewafl-core` registers a [`StageMetrics`] for
//! every stage of the plan against the session's [`MetricsRegistry`],
//! under the `stage/{NN}_{name}` label `PhysicalPlan::stages` predicts
//! (the event-time sorter is `00`, then the router, then each
//! sub-stream's pipeline and chaos injector), next to one
//! [`SorterMetrics`] for the sorter and a [`ChaosMetrics`] per injector.

use icewafl_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Stage wall time is sampled 1-in-`(SAMPLE_MASK + 1)` records so the
/// two `Instant::now` calls per sample stay invisible on the hot path.
pub const SAMPLE_MASK: u64 = 63;

/// Metric handles for one stage of the session loop.
#[derive(Clone, Default)]
pub struct StageMetrics {
    /// Records entering the stage.
    pub elements_in: Counter,
    /// Records the stage emitted downstream.
    pub elements_out: Counter,
    /// Sampled per-record stage wall time, in nanoseconds.
    pub latency_ns: Histogram,
    /// Highest watermark (milliseconds, clamped at 0) seen by this
    /// stage; the end-of-stream `Timestamp::MAX` sentinel is excluded.
    pub watermark_hwm_ms: Gauge,
    /// Steps of the stage that panicked and failed it.
    pub failures: Counter,
}

impl StageMetrics {
    /// Registers the stage's metrics under `label` (e.g.
    /// `stage/02_pollution_pipeline`).
    pub fn register(registry: &MetricsRegistry, label: &str) -> Self {
        StageMetrics {
            elements_in: registry.counter(&format!("{label}/elements_in")),
            elements_out: registry.counter(&format!("{label}/elements_out")),
            latency_ns: registry.histogram(
                &format!("{label}/latency_ns"),
                icewafl_obs::LATENCY_BOUNDS_NS,
            ),
            watermark_hwm_ms: registry.gauge(&format!("{label}/watermark_hwm_ms")),
            failures: registry.counter(&format!("{label}/failures")),
        }
    }
}

/// Metric handles for an [`EventTimeSorter`](crate::sort::EventTimeSorter).
#[derive(Clone, Default)]
pub struct SorterMetrics {
    /// Records that arrived with an event time at or below the current
    /// watermark. They are still emitted (the sorter never drops), but
    /// they surface out of order downstream.
    pub(crate) late: Counter,
    /// Event-time lag of late records behind the watermark, in
    /// milliseconds.
    pub(crate) late_lag_ms: Histogram,
    /// High-water mark of the sorter's reorder buffer occupancy.
    pub(crate) buffer_max: Gauge,
    /// Records that landed too far from both ends of the sorted ring
    /// for an in-place insert and detoured through the overflow heap.
    /// Zero on the runner's lockstep schedule; non-zero means whole
    /// sorted runs arrived behind the tail.
    pub(crate) heaped: Counter,
    /// How far the current watermark trails the freshest event time
    /// seen, in milliseconds — sampled by the telemetry layer into a
    /// watermark-lag time series.
    pub(crate) watermark_lag_ms: Gauge,
}

impl SorterMetrics {
    /// Registers the sorter's metrics under `label`.
    pub fn register(registry: &MetricsRegistry, label: &str) -> Self {
        SorterMetrics {
            late: registry.counter(&format!("{label}/late")),
            late_lag_ms: registry
                .histogram(&format!("{label}/late_lag_ms"), icewafl_obs::LAG_BOUNDS_MS),
            buffer_max: registry.gauge(&format!("{label}/buffer_max")),
            heaped: registry.counter(&format!("{label}/heaped")),
            watermark_lag_ms: registry.gauge(&format!("{label}/watermark_lag_ms")),
        }
    }

    /// Detached handles, invisible to snapshots.
    pub(crate) fn detached() -> Self {
        Self::default()
    }
}

/// Metric handles for one chaos injector
/// ([`ChaosOperator`](crate::chaos::ChaosOperator)).
#[derive(Clone, Default)]
pub struct ChaosMetrics {
    /// Panics actually injected (after the budget check).
    pub(crate) injected_panics: Counter,
    /// Delay faults injected.
    pub(crate) injected_delays: Counter,
    /// Records dropped in flight.
    pub(crate) injected_drops: Counter,
    /// Records malformed in place.
    pub(crate) injected_malforms: Counter,
}

impl ChaosMetrics {
    /// Registers the injector's metrics under `label` (e.g. `chaos/substream_0`).
    pub fn register(registry: &MetricsRegistry, label: &str) -> Self {
        ChaosMetrics {
            injected_panics: registry.counter(&format!("{label}/injected_panics")),
            injected_delays: registry.counter(&format!("{label}/injected_delays")),
            injected_drops: registry.counter(&format!("{label}/injected_drops")),
            injected_malforms: registry.counter(&format!("{label}/injected_malforms")),
        }
    }

    /// Detached handles, invisible to snapshots.
    pub(crate) fn detached() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_metrics_register_under_label() {
        let r = MetricsRegistry::new();
        let m = StageMetrics::register(&r, "stage/00_map");
        m.elements_in.inc();
        m.elements_out.add(2);
        m.latency_ns.record(100);
        m.watermark_hwm_ms.set_max(42);
        let snap = r.snapshot();
        assert_eq!(snap.counter("stage/00_map/elements_in"), 1);
        assert_eq!(snap.counter("stage/00_map/elements_out"), 2);
        assert_eq!(snap.histogram("stage/00_map/latency_ns").unwrap().count, 1);
        assert_eq!(snap.gauge("stage/00_map/watermark_hwm_ms"), 42);
    }

    #[test]
    fn detached_metrics_stay_out_of_snapshots() {
        let r = MetricsRegistry::new();
        let m = SorterMetrics::detached();
        m.late.inc();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn sorter_metrics_register() {
        let r = MetricsRegistry::new();
        let s = SorterMetrics::register(&r, "stage/02_event_time_sorter");
        s.late.inc();
        s.late_lag_ms.record(3);
        s.buffer_max.set_max(9);
        let snap = r.snapshot();
        assert_eq!(snap.counter("stage/02_event_time_sorter/late"), 1);
        assert_eq!(
            snap.histogram("stage/02_event_time_sorter/late_lag_ms")
                .unwrap()
                .sum,
            3
        );
        assert_eq!(snap.gauge("stage/02_event_time_sorter/buffer_max"), 9);
    }
}
