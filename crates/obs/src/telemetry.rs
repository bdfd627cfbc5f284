//! Live telemetry: a background [`TelemetrySampler`] that snapshots a
//! [`MetricsRegistry`] on a fixed interval.
//!
//! Each tick produces a [`MetricsDelta`] — absolute counter values, the
//! change since the previous tick, and current gauge values — and keeps
//! only the newest one. Consumers poll [`TelemetrySampler::latest`]
//! (this is what a serve `telemetry` session forwards on the wire).
//!
//! The sampler owns one background thread. It joins **cleanly and
//! promptly** both on [`TelemetrySampler::shutdown`] and on drop — the
//! loop sleeps in short slices so shutdown never waits out a long
//! interval.

use crate::MetricsRegistry;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One telemetry tick: the registry's state at a sample instant plus
/// its change since the previous tick.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsDelta {
    /// Monotonic tick number (1 = first tick after start).
    pub seq: u64,
    /// Milliseconds since the sampler started.
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

/// Upper slice of one shutdown-check sleep; bounds how long a drop can
/// block behind a sleeping sampler thread.
const SHUTDOWN_POLL: Duration = Duration::from_millis(5);

#[derive(Default)]
struct SamplerState {
    prev: Option<BTreeMap<String, u64>>,
    latest: Option<MetricsDelta>,
    seq: u64,
}

struct SamplerShared {
    interval: Duration,
    state: Mutex<SamplerState>,
}

impl SamplerShared {
    fn tick(&self, registry: &MetricsRegistry, at_ms: u64) {
        let snap = registry.snapshot();
        let mut st = self.state.lock();
        st.seq += 1;
        let mut deltas = BTreeMap::new();
        for (name, value) in &snap.counters {
            let prev = st
                .prev
                .as_ref()
                .and_then(|p| p.get(name).copied())
                .unwrap_or(0);
            let delta = value.saturating_sub(prev);
            if delta != 0 {
                deltas.insert(name.clone(), delta);
            }
        }
        st.prev = Some(snap.counters.clone());
        st.latest = Some(MetricsDelta {
            seq: st.seq,
            at_ms,
            interval_ms: self.interval.as_millis() as u64,
            counters: snap.counters,
            deltas,
            gauges: snap.gauges,
        });
    }
}

/// Samples a [`MetricsRegistry`] on a fixed interval from a background
/// thread (see the [module docs](crate::telemetry)).
pub struct TelemetrySampler {
    shared: Arc<SamplerShared>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetrySampler {
    /// Starts sampling `registry` every `interval`. Fails only when the
    /// sampler thread cannot be spawned.
    pub fn start(registry: &MetricsRegistry, interval: Duration) -> io::Result<Self> {
        let shared = Arc::new(SamplerShared {
            interval: interval.max(Duration::from_millis(1)),
            state: Mutex::new(SamplerState::default()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let registry = registry.clone();
            std::thread::Builder::new()
                .name("icewafl-telemetry".into())
                .spawn(move || {
                    let epoch = Instant::now();
                    let mut next = epoch + shared.interval;
                    loop {
                        // Sleep to the next tick in short slices so a
                        // shutdown request is honoured within
                        // SHUTDOWN_POLL, not a full interval.
                        loop {
                            if stop.load(Relaxed) {
                                return;
                            }
                            let now = Instant::now();
                            if now >= next {
                                break;
                            }
                            std::thread::sleep((next - now).min(SHUTDOWN_POLL));
                        }
                        let at_ms = epoch.elapsed().as_millis() as u64;
                        shared.tick(&registry, at_ms);
                        next += shared.interval;
                        // If ticking fell behind, skip to the present
                        // rather than firing a catch-up burst.
                        let now = Instant::now();
                        if next < now {
                            next = now + shared.interval;
                        }
                    }
                })?
        };
        Ok(TelemetrySampler {
            shared,
            stop,
            handle: Some(handle),
        })
    }

    /// Number of ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.shared.state.lock().seq
    }

    /// The most recent delta frame, if any tick has fired.
    pub fn latest(&self) -> Option<MetricsDelta> {
        self.shared.state.lock().latest.clone()
    }

    /// Stops the sampler thread and joins it. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetrySampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_for_ticks(sampler: &TelemetrySampler, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while sampler.ticks() < n {
            assert!(Instant::now() < deadline, "sampler never reached {n} ticks");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn sampler_keeps_the_newest_frame() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("work/done");
        let gauge = registry.gauge("work/active");
        let mut sampler = TelemetrySampler::start(&registry, Duration::from_millis(10)).unwrap();
        counter.add(5);
        gauge.set(3);
        wait_for_ticks(&sampler, 2);
        counter.add(7);
        wait_for_ticks(&sampler, 4);
        sampler.shutdown();

        let latest = sampler.latest().expect("ticks fired");
        assert_eq!(latest.seq, sampler.ticks(), "the newest tick is kept");
        assert_eq!(latest.interval_ms, 10);
        assert_eq!(latest.counters["work/done"], 12);
        assert_eq!(latest.gauges["work/active"], 3);
        assert!(latest.deltas.get("work/done").copied().unwrap_or(0) <= 7);
    }

    #[test]
    fn ticks_report_counter_changes_since_the_previous_tick() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("c");
        let shared = SamplerShared {
            interval: Duration::from_millis(50),
            state: Mutex::new(SamplerState::default()),
        };
        let latest = |shared: &SamplerShared| shared.state.lock().latest.clone().unwrap();
        counter.add(5);
        shared.tick(&registry, 50);
        let first = latest(&shared);
        assert_eq!((first.seq, first.at_ms, first.interval_ms), (1, 50, 50));
        assert_eq!(first.deltas["c"], 5);
        shared.tick(&registry, 100);
        let second = latest(&shared);
        assert_eq!(second.seq, 2);
        assert!(second.deltas.is_empty(), "unchanged counters are absent");
        assert_eq!(second.counters["c"], 5);
        counter.add(7);
        shared.tick(&registry, 150);
        let third = latest(&shared);
        assert_eq!(
            (third.seq, third.deltas["c"], third.counters["c"]),
            (3, 7, 12)
        );
    }

    #[test]
    fn drop_joins_promptly() {
        let registry = MetricsRegistry::new();
        // A long interval must not delay shutdown: the loop sleeps in
        // short slices and re-checks the stop flag.
        let sampler = TelemetrySampler::start(&registry, Duration::from_secs(3600)).unwrap();
        let started = Instant::now();
        drop(sampler);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drop blocked on a sleeping sampler"
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
