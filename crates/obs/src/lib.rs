//! # icewafl-obs
//!
//! The observability substrate of the Icewafl reproduction: a
//! lock-light [`MetricsRegistry`] handing out atomic [`Counter`]s,
//! [`Gauge`]s, and fixed-bucket [`Histogram`]s, plus a serializable
//! [`MetricsSnapshot`] for run reports.
//!
//! Design constraints (and how they are met):
//!
//! * **No contention on the hot path.** Every metric is a cheap clonable
//!   handle over an `Arc<AtomicU64>` cell updated with `Relaxed`
//!   ordering; the registry's mutexes are touched only at registration
//!   and snapshot time, never while recording.
//! * **No external metrics crate.** Everything here is `std` atomics
//!   plus the workspace's vendored `parking_lot`/`serde` stubs.
//! * **Always on.** Metrics, spans and the telemetry sampler have one
//!   implementation each and no build switch, so every count a report
//!   shows comes from the code that did the work.

#![deny(missing_docs)]

pub mod telemetry;
pub mod trace;

pub use telemetry::{MetricsDelta, TelemetrySampler};
pub use trace::{TraceDump, TraceEvent, TraceSession};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Default latency bucket upper bounds, in nanoseconds (last bucket is
/// the overflow bucket above the final bound).
pub const LATENCY_BOUNDS_NS: &[u64] = &[
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Default event-time lag bucket upper bounds, in milliseconds.
pub const LAG_BOUNDS_MS: &[u64] = &[
    1, 10, 100, 1_000, 10_000, 60_000, 600_000, 3_600_000, 86_400_000,
];

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds; `counts` has one extra overflow
    /// bucket at the end.
    pub bounds: Vec<u64>,
    /// Observations per bucket (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket
    /// counts, interpolating linearly within the bucket that contains
    /// the target rank. The overflow bucket has no upper bound, so a
    /// quantile landing there is pinned to its lower bound (the last
    /// configured bound) — a deliberate under-estimate rather than a
    /// guess. Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.counts.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // The (fractional) rank of the target observation.
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (idx, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += bucket_count;
            if (cumulative as f64) < target {
                continue;
            }
            if idx >= self.bounds.len() {
                // Overflow bucket: pinned to its lower bound.
                return self.bounds.last().copied().unwrap_or(0) as f64;
            }
            let lower = if idx == 0 { 0 } else { self.bounds[idx - 1] };
            let upper = self.bounds[idx];
            let into_bucket = (target - before as f64) / bucket_count as f64;
            return lower as f64 + (upper - lower) as f64 * into_bucket.clamp(0.0, 1.0);
        }
        self.bounds.last().copied().unwrap_or(0) as f64
    }

    /// Estimated median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile (see [`HistogramSnapshot::quantile`]).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile (see [`HistogramSnapshot::quantile`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Point-in-time state of a whole registry — the machine-readable half
/// of a run report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-set / high-water gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's state, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one; returns the previous value (handy for sampling
    /// decisions).
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Relaxed)
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-value / high-water-mark gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raises the value to `v` if it is higher (high-water mark).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Increments by `n` — for gauges tracking a live population
    /// (e.g. active sessions).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Decrements by `n`, saturating at 0.
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram (cumulative count + sum, per-bucket
/// counts).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A histogram over ascending upper `bounds` plus an overflow
    /// bucket.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        let idx = self.0.bounds.partition_point(|&b| v > b);
        self.0.buckets[idx].fetch_add(1, Relaxed);
        self.0.count.fetch_add(1, Relaxed);
        self.0.sum.fetch_add(v, Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Relaxed)
    }

    /// The current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self.0.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(LATENCY_BOUNDS_NS)
    }
}

/// Wall-clock stopwatch.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Hands out named metric cells and snapshots them.
///
/// Cloning is cheap (`Arc`); the internal mutexes are locked only
/// during registration and snapshotting, never while recording into
/// an already-registered cell.
#[derive(Clone, Default)]
pub struct MetricsRegistry(Arc<RegistryInner>);

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.0.counters.lock();
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.0.gauges.lock();
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge::default();
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// The histogram named `name`, registering it with `bounds` on
    /// first use (existing bounds win on re-registration).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.0.histograms.lock();
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram::with_bounds(bounds);
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// The current state of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .0
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .0
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .0
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_increments_and_adds() {
        let c = Counter::default();
        assert_eq!(c.inc(), 0);
        assert_eq!(c.inc(), 1);
        c.add(10);
        c.add(0);
        assert_eq!(c.get(), 12);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 13, "clones share the cell");
    }

    #[test]
    fn gauge_set_and_high_water() {
        let g = Gauge::default();
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::with_bounds(&[10, 100]);
        for v in [5, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2], "<=10, <=100, overflow");
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 5 + 10 + 11 + 100 + 101 + 5000);
        assert!((s.mean() - s.sum as f64 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 observations uniform over (0, 100] in a single bucket
        // with bounds [100, 200]: ranks interpolate linearly.
        let h = Histogram::with_bounds(&[100, 200]);
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.snapshot();
        assert!((s.p50() - 50.0).abs() < 1.0, "p50={}", s.p50());
        assert!((s.p95() - 95.0).abs() < 1.0, "p95={}", s.p95());
        assert!((s.quantile(1.0) - 100.0).abs() < 1e-9);
        assert_eq!(s.quantile(0.0), 0.0);
    }

    #[test]
    fn quantiles_span_buckets() {
        // 90 observations <= 10, 10 observations in (10, 100]:
        // p50 lands in the first bucket, p99 in the second.
        let h = Histogram::with_bounds(&[10, 100]);
        for _ in 0..90 {
            h.record(5);
        }
        for _ in 0..10 {
            h.record(50);
        }
        let s = h.snapshot();
        assert!(s.p50() <= 10.0, "p50={}", s.p50());
        let p99 = s.p99();
        assert!(p99 > 10.0 && p99 <= 100.0, "p99={p99}");
        // The interpolated estimate brackets the true p99 (=50).
        assert!((p99 - 91.0).abs() < 1.0, "p99={p99}");
    }

    #[test]
    fn quantile_overflow_bucket_pins_to_lower_bound() {
        let h = Histogram::with_bounds(&[10, 100]);
        for _ in 0..100 {
            h.record(10_000); // all in the overflow bucket
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 100.0);
        assert_eq!(s.p99(), 100.0);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let s = Histogram::with_bounds(&[10]).snapshot();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.quantile(0.7), 0.0);
        assert_eq!(HistogramSnapshot::default().p99(), 0.0);
    }

    #[test]
    fn registry_returns_shared_cells() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.counter("a").inc();
        r.gauge("g").set_max(7);
        r.histogram("h", &[1, 2]).record(1);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 2);
        assert_eq!(snap.gauge("g"), 7);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), 0);
        assert!(!snap.is_empty());
    }

    #[test]
    fn registry_is_thread_safe() {
        let r = MetricsRegistry::new();
        let c = r.counter("shared");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.snapshot().counter("shared"), 40_000);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let r = MetricsRegistry::new();
        r.counter("c").add(3);
        r.gauge("g").set(4);
        r.histogram("h", LATENCY_BOUNDS_NS).record(777);
        let snap = r.snapshot();
        let json = serde_json_round_trip(&snap);
        assert_eq!(json, snap);
    }

    fn serde_json_round_trip(snap: &MetricsSnapshot) -> MetricsSnapshot {
        // Round-trip through the Content tree directly; the serde_json
        // crate is not a dependency here.
        let content = serde::Serialize::to_content(snap);
        serde::Deserialize::from_content(&content).expect("round trip")
    }

    #[test]
    fn stopwatch_measures() {
        let sw = Stopwatch::start();
        std::hint::black_box(0u64);
        // Just prove it is monotone and does not panic.
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}
