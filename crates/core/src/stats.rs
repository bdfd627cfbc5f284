//! Per-polluter runtime statistics.
//!
//! Every polluter owns a [`PolluterStats`] bundle of shared atomic cells
//! (see `icewafl-obs`). Because the cells are `Arc`-shared, handles
//! cloned *before* a run — via
//! [`Polluter::collect_stats`](crate::polluter::Polluter::collect_stats)
//! — stay live
//! after the run has consumed the polluters, which is how
//! [`PhysicalPlan::execute`](crate::plan::PhysicalPlan::execute) reads
//! them into the [`RunReport`](crate::report::RunReport).

use icewafl_obs::{Counter, Gauge};
use rand::rngs::StdRng;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Live statistic cells of one polluter.
#[derive(Clone, Default)]
pub struct PolluterStats {
    /// Times the polluter modified the stream: the error function was
    /// applied, or a tuple was delayed / dropped / duplicated / frozen.
    pub fires: Counter,
    /// Times the polluter saw a tuple and passed it through untouched.
    pub skips: Counter,
    /// Condition evaluations (one per tuple seen).
    pub condition_evals: Counter,
    /// Random draws consumed by the polluter's own RNG (change-pattern
    /// and one-of choice draws; condition RNGs are owned by the
    /// conditions themselves).
    pub rng_draws: Counter,
    /// High-water mark of the polluter's temporal buffer (delayed
    /// tuples held back), 0 for stateless polluters.
    pub buffer_max: Gauge,
}

impl PolluterStats {
    /// Fresh, detached cells (always live; no registry involved).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads all cells into a serializable snapshot for `name`.
    pub fn snapshot(&self, name: &str) -> PolluterStatsSnapshot {
        PolluterStatsSnapshot {
            name: name.to_string(),
            fires: self.fires.get(),
            skips: self.skips.get(),
            condition_evals: self.condition_evals.get(),
            rng_draws: self.rng_draws.get(),
            buffer_max: self.buffer_max.get(),
            log_entries: 0,
        }
    }
}

/// Plain-`u64` staging area for hot-path stat updates.
///
/// An atomic increment costs ~10 ns (pointer chase into the `Arc` cell
/// plus the RMW), which is real money against a ~250 ns/tuple pollution
/// hot path. Polluters therefore accumulate into this struct with plain
/// integer adds and [`flush`](PendingStats::flush) into the shared
/// cells only at watermark and end-of-stream boundaries (every
/// `watermark_period` tuples), keeping the steady-state overhead to a
/// few register operations per tuple.
#[derive(Clone, Copy, Default, Serialize, Deserialize)]
pub struct PendingStats {
    /// Staged condition evaluations.
    pub condition_evals: u64,
    /// Staged fires.
    pub fires: u64,
    /// Staged skips.
    pub skips: u64,
    /// Running temporal-buffer peak (a high-water mark, not a delta —
    /// it survives flushes).
    pub buffer_peak: u64,
}

impl PendingStats {
    /// Flushes staged deltas into the shared cells and resets them;
    /// `buffer_peak` is pushed via `set_max` and kept.
    pub fn flush(&mut self, stats: &PolluterStats) {
        if self.condition_evals > 0 {
            stats.condition_evals.add(self.condition_evals);
            self.condition_evals = 0;
        }
        if self.fires > 0 {
            stats.fires.add(self.fires);
            self.fires = 0;
        }
        if self.skips > 0 {
            stats.skips.add(self.skips);
            self.skips = 0;
        }
        if self.buffer_peak > 0 {
            stats.buffer_max.set_max(self.buffer_peak);
        }
    }
}

/// Wire form of a polluter's cumulative stat-cell values at a
/// checkpoint barrier: restore pre-adds them into the fresh cells of a
/// rebuilt polluter, so a recovered run reports the same totals an
/// undisturbed one would.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct StatsTotals {
    pub fires: u64,
    pub skips: u64,
    pub condition_evals: u64,
    pub rng_draws: u64,
    pub buffer_max: u64,
}

impl StatsTotals {
    /// Reads the current cell values.
    pub(crate) fn capture(stats: &PolluterStats) -> Self {
        StatsTotals {
            fires: stats.fires.get(),
            skips: stats.skips.get(),
            condition_evals: stats.condition_evals.get(),
            rng_draws: stats.rng_draws.get(),
            buffer_max: stats.buffer_max.get(),
        }
    }

    /// Pre-adds the captured totals into (fresh) cells.
    pub(crate) fn restore_into(&self, stats: &PolluterStats) {
        stats.fires.add(self.fires);
        stats.skips.add(self.skips);
        stats.condition_evals.add(self.condition_evals);
        stats.rng_draws.add(self.rng_draws);
        stats.buffer_max.set_max(self.buffer_max);
    }
}

/// A named handle to a polluter's live stat cells, collected before the
/// run consumes the polluter.
pub struct PolluterStatsHandle {
    /// The polluter's configured name.
    pub name: String,
    /// Shared cells, still written to by the running polluter.
    pub stats: PolluterStats,
}

impl PolluterStatsHandle {
    /// Reads the current cell values.
    pub fn snapshot(&self) -> PolluterStatsSnapshot {
        self.stats.snapshot(&self.name)
    }
}

/// Point-in-time statistics of one polluter, as reported in a
/// [`RunReport`](crate::report::RunReport).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolluterStatsSnapshot {
    /// The polluter's configured name.
    pub name: String,
    /// Stream modifications (error applications / shape changes).
    pub fires: u64,
    /// Tuples passed through untouched.
    pub skips: u64,
    /// Condition evaluations.
    pub condition_evals: u64,
    /// RNG draws by the polluter's own generator.
    pub rng_draws: u64,
    /// Temporal-buffer occupancy high-water mark.
    pub buffer_max: u64,
    /// Ground-truth log entries attributed to this polluter (filled in
    /// by the run report from the [`PollutionLog`](crate::log::PollutionLog)).
    pub log_entries: u64,
}

/// An [`StdRng`] wrapper that counts every draw into a
/// [`Counter`] — the polluter-side half of the "RNG draw counts"
/// instrumentation. Deterministic: the wrapped stream is bit-identical
/// to the bare [`StdRng`]'s.
#[derive(Clone, Debug)]
pub struct CountingRng {
    inner: StdRng,
    draws: Counter,
    pending: u64,
}

impl CountingRng {
    /// Wraps `inner`, counting draws into `draws`.
    pub fn new(inner: StdRng, draws: Counter) -> Self {
        CountingRng {
            inner,
            draws,
            pending: 0,
        }
    }

    /// Flushes locally staged draw counts into the shared counter.
    /// Owners call this at watermark/end boundaries, alongside
    /// [`PendingStats::flush`].
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.draws.add(self.pending);
            self.pending = 0;
        }
    }

    /// The wrapped generator's exact stream position plus the staged
    /// (unflushed) draw count — everything a checkpoint must capture.
    pub fn state(&self) -> ([u64; 4], u64) {
        (self.inner.state(), self.pending)
    }

    /// Restores a position captured by [`CountingRng::state`]; the
    /// shared counter cell is left alone (cumulative totals are
    /// restored separately).
    pub fn restore(&mut self, inner: StdRng, pending: u64) {
        self.inner = inner;
        self.pending = pending;
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.pending += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.pending += 1;
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn counting_rng_is_transparent() {
        let mut bare = StdRng::seed_from_u64(9);
        let mut counted = CountingRng::new(StdRng::seed_from_u64(9), Counter::default());
        for _ in 0..100 {
            assert_eq!(bare.next_u64(), counted.next_u64());
        }
    }

    #[test]
    fn counting_rng_counts_draws() {
        use rand::RngExt;
        let c = Counter::default();
        let mut rng = CountingRng::new(StdRng::seed_from_u64(1), c.clone());
        let _ = rng.next_u64();
        let _ = rng.random_bool(0.5);
        assert_eq!(c.get(), 0, "draws are staged until flush");
        rng.flush();
        assert!(c.get() >= 2);
    }

    #[test]
    fn pending_stats_flush_and_reset() {
        let s = PolluterStats::new();
        let mut p = PendingStats {
            condition_evals: 10,
            fires: 4,
            skips: 6,
            buffer_peak: 3,
        };
        p.flush(&s);
        p.condition_evals = 1;
        p.flush(&s);
        assert_eq!(s.condition_evals.get(), 11);
        assert_eq!(s.fires.get(), 4);
        assert_eq!(s.skips.get(), 6);
        assert_eq!(s.buffer_max.get(), 3);
    }

    #[test]
    fn stats_snapshot_reads_cells() {
        let s = PolluterStats::new();
        s.fires.add(3);
        s.skips.add(2);
        s.condition_evals.add(5);
        s.buffer_max.set_max(7);
        let snap = s.snapshot("p");
        assert_eq!(snap.name, "p");
        assert_eq!(snap.fires, 3);
        assert_eq!(snap.skips, 2);
        assert_eq!(snap.condition_evals, 5);
        assert_eq!(snap.buffer_max, 7);
        // Handles cloned earlier observe later writes.
        let h = PolluterStatsHandle {
            name: "p".into(),
            stats: s.clone(),
        };
        s.fires.inc();
        assert_eq!(h.snapshot().fires, 4);
    }
}
