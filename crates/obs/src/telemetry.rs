//! Live telemetry: a [`TelemetrySampler`] that snapshots a
//! [`MetricsRegistry`] each time its owner ticks it.
//!
//! Each tick produces a [`MetricsDelta`] — absolute counter values, the
//! change since the previous tick, and current gauge values — and keeps
//! only the newest one. Consumers read [`TelemetrySampler::latest`]
//! (this is what a serve `telemetry` session forwards on the wire).
//!
//! The sampler is a plain value: it owns no thread and no clock. The
//! serve reactor's poll loop ticks it every interval and stamps each
//! tick with the server's own clock.

use crate::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// One telemetry tick: the registry's state at a sample instant plus
/// its change since the previous tick.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsDelta {
    /// Monotonic tick number (1 = first tick after start).
    pub seq: u64,
    /// When the tick was taken, in milliseconds on the owner's clock.
    pub at_ms: u64,
    /// The sampler's configured interval, in milliseconds.
    pub interval_ms: u64,
    /// Absolute counter values at this tick.
    pub counters: BTreeMap<String, u64>,
    /// Counter increases since the previous tick (absent = unchanged).
    pub deltas: BTreeMap<String, u64>,
    /// Gauge values at this tick.
    pub gauges: BTreeMap<String, u64>,
}

/// Samples a [`MetricsRegistry`] each time its owner calls
/// [`tick`](TelemetrySampler::tick) (see the [module docs](crate::telemetry)).
#[derive(Debug)]
pub struct TelemetrySampler {
    interval: Duration,
    prev: BTreeMap<String, u64>,
    latest: Option<MetricsDelta>,
}

impl TelemetrySampler {
    /// A sampler whose frames report `interval` (clamped to at least
    /// 1 ms) as their cadence. No tick has been taken yet.
    pub fn new(interval: Duration) -> Self {
        TelemetrySampler {
            interval: interval.max(Duration::from_millis(1)),
            prev: BTreeMap::new(),
            latest: None,
        }
    }

    /// Snapshots `registry` as the next tick, stamped `at_ms` on the
    /// owner's clock, and keeps it as the newest frame.
    pub fn tick(&mut self, registry: &MetricsRegistry, at_ms: u64) {
        let snap = registry.snapshot();
        let mut deltas = BTreeMap::new();
        for (name, value) in &snap.counters {
            let delta = value.saturating_sub(self.prev.get(name).copied().unwrap_or(0));
            if delta != 0 {
                deltas.insert(name.clone(), delta);
            }
        }
        self.prev = snap.counters.clone();
        self.latest = Some(MetricsDelta {
            seq: self.latest.as_ref().map_or(0, |d| d.seq) + 1,
            at_ms,
            interval_ms: self.interval.as_millis() as u64,
            counters: snap.counters,
            deltas,
            gauges: snap.gauges,
        });
    }

    /// The most recent delta frame, if any tick has been taken.
    pub fn latest(&self) -> Option<&MetricsDelta> {
        self.latest.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_keeps_the_newest_frame() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("work/done");
        let gauge = registry.gauge("work/active");
        let mut sampler = TelemetrySampler::new(Duration::from_millis(10));
        assert!(sampler.latest().is_none(), "no tick taken yet");
        counter.add(5);
        gauge.set(3);
        sampler.tick(&registry, 10);
        sampler.tick(&registry, 20);
        counter.add(7);
        sampler.tick(&registry, 30);
        sampler.tick(&registry, 40);

        let latest = sampler.latest().expect("ticks taken");
        assert_eq!(
            (latest.seq, latest.at_ms),
            (4, 40),
            "the newest tick is kept"
        );
        assert_eq!(latest.interval_ms, 10);
        assert_eq!(latest.counters["work/done"], 12);
        assert_eq!(latest.gauges["work/active"], 3);
        assert!(latest.deltas.is_empty(), "nothing changed since tick 3");
    }

    #[test]
    fn ticks_report_counter_changes_since_the_previous_tick() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("c");
        let mut sampler = TelemetrySampler::new(Duration::from_millis(50));
        counter.add(5);
        sampler.tick(&registry, 50);
        let first = sampler.latest().unwrap().clone();
        assert_eq!((first.seq, first.at_ms, first.interval_ms), (1, 50, 50));
        assert_eq!(first.deltas["c"], 5);
        sampler.tick(&registry, 100);
        let second = sampler.latest().unwrap();
        assert_eq!(second.seq, 2);
        assert!(second.deltas.is_empty(), "unchanged counters are absent");
        assert_eq!(second.counters["c"], 5);
        counter.add(7);
        sampler.tick(&registry, 150);
        let third = sampler.latest().unwrap();
        assert_eq!(
            (third.seq, third.deltas["c"], third.counters["c"]),
            (3, 7, 12)
        );
    }

    #[test]
    fn delta_serde_round_trip() {
        let mut delta = MetricsDelta {
            seq: 3,
            at_ms: 1500,
            interval_ms: 500,
            ..MetricsDelta::default()
        };
        delta.counters.insert("a".into(), 10);
        delta.deltas.insert("a".into(), 4);
        delta.gauges.insert("g".into(), 2);
        let content = serde::Serialize::to_content(&delta);
        let back: MetricsDelta = serde::Deserialize::from_content(&content).unwrap();
        assert_eq!(back, delta);
    }
}
