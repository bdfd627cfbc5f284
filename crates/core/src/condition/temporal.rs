//! Temporal conditions over the event time `τ` — the capability that
//! distinguishes Icewafl from static data polluters.

use super::Condition;
use crate::pattern::ChangePattern;
use crate::rng::fill_bernoulli_each;
use crate::snapshot::{rng_doc, rng_from_doc};
use icewafl_types::{ColumnBatch, Result, StampedTuple, Timestamp};
use rand::rngs::StdRng;
use rand::RngExt;

/// Chunk size for the per-row-probability kernels: probabilities are
/// staged 64 at a time so the buffer lives on the stack.
const P_CHUNK: usize = 64;

/// Shared kernel for conditions whose probability varies per row:
/// stage `probability_at(τ)` for a chunk of selected rows, then draw via
/// [`fill_bernoulli_each`], which reproduces `random_bool`'s boundary
/// rule (p ≤ 0 / p ≥ 1 consume no randomness) row by row.
fn bernoulli_each_by_tau(
    rng: &mut StdRng,
    taus: &[i64],
    rows: &[u32],
    mask: &mut [u8],
    probability_at: impl Fn(Timestamp) -> f64,
) {
    let mut ps = [0.0f64; P_CHUNK];
    for (rows, mask) in rows.chunks(P_CHUNK).zip(mask.chunks_mut(P_CHUNK)) {
        let ps = &mut ps[..rows.len()];
        for (p, &r) in ps.iter_mut().zip(rows) {
            *p = probability_at(Timestamp(taus[r as usize]));
        }
        fill_bernoulli_each(rng, ps, mask);
    }
}

/// The event times of the selected rows, in selection order, each
/// beside its mask byte.
fn selected_taus<'a>(
    batch: &'a ColumnBatch,
    rows: &'a [u32],
    mask: &'a mut [u8],
) -> impl Iterator<Item = (&'a mut u8, i64)> {
    let taus = batch.taus();
    mask.iter_mut()
        .zip(rows.iter().map(move |&r| taus[r as usize]))
}

/// Fires while `τ` lies in `[from, to)`. Either bound may be open.
///
/// The software-update scenario's gate ("Time ≥ 2016-02-27") is
/// `TimeWindow::from(date)`.
#[derive(Debug, Clone, Copy)]
pub struct TimeWindow {
    from: Option<Timestamp>,
    to: Option<Timestamp>,
}

impl TimeWindow {
    /// Fires in `[from, to)`.
    pub fn new(from: Option<Timestamp>, to: Option<Timestamp>) -> Self {
        TimeWindow { from, to }
    }

    /// Fires from `from` (inclusive) onwards.
    pub fn starting_at(from: Timestamp) -> Self {
        TimeWindow {
            from: Some(from),
            to: None,
        }
    }

    /// Fires before `to` (exclusive).
    pub fn until(to: Timestamp) -> Self {
        TimeWindow {
            from: None,
            to: Some(to),
        }
    }

    fn contains(&self, tau: Timestamp) -> bool {
        self.from.is_none_or(|f| tau >= f) && self.to.is_none_or(|t| tau < t)
    }
}

impl Condition for TimeWindow {
    fn evaluate(&mut self, tuple: &StampedTuple) -> bool {
        self.contains(tuple.tau)
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        if self.contains(tuple.tau) {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "time_window"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn evaluate_columns(&mut self, batch: &ColumnBatch, rows: &[u32], mask: &mut [u8]) {
        // Branch-free over rows: both bounds collapse to i64 compares.
        let lo = self.from.map_or(i64::MIN, |f| f.millis());
        match self.to {
            None => {
                for (m, tau) in selected_taus(batch, rows, mask) {
                    *m = u8::from(tau >= lo);
                }
            }
            Some(t) => {
                let hi = t.millis();
                for (m, tau) in selected_taus(batch, rows, mask) {
                    *m = u8::from(tau >= lo) & u8::from(tau < hi);
                }
            }
        }
    }
}

/// Fires during a daily hour-of-day range `[start, end)`, e.g. `13..15`
/// for "between 01:00 pm and 02:59 pm" (the bad-network scenario of
/// §3.1.3). Wrap-around ranges (`22..2`) are supported.
#[derive(Debug, Clone, Copy)]
pub struct HourRange {
    start: u32,
    end: u32,
}

impl HourRange {
    /// A daily range from `start` (inclusive) to `end` (exclusive), both
    /// in `0..=24`.
    pub fn new(start: u32, end: u32) -> Self {
        HourRange {
            start: start.min(24),
            end: end.min(24),
        }
    }

    fn contains(&self, tau: Timestamp) -> bool {
        let h = tau.hour_of_day();
        if self.start <= self.end {
            h >= self.start && h < self.end
        } else {
            h >= self.start || h < self.end
        }
    }
}

impl Condition for HourRange {
    fn evaluate(&mut self, tuple: &StampedTuple) -> bool {
        self.contains(tuple.tau)
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        if self.contains(tuple.tau) {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "hour_range"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn evaluate_columns(&mut self, batch: &ColumnBatch, rows: &[u32], mask: &mut [u8]) {
        // Hoist the wrap-around branch out of the row loop.
        let (start, end) = (self.start, self.end);
        if start <= end {
            for (m, tau) in selected_taus(batch, rows, mask) {
                let h = Timestamp(tau).hour_of_day();
                *m = u8::from(h >= start) & u8::from(h < end);
            }
        } else {
            for (m, tau) in selected_taus(batch, rows, mask) {
                let h = Timestamp(tau).hour_of_day();
                *m = u8::from(h >= start) | u8::from(h < end);
            }
        }
    }
}

/// Fires with a probability that follows the paper's §3.1.1 sinusoid
/// over the time of day `t` (fractional hours):
///
/// `p(t) = amplitude · cos(2π/24 · t) + offset`, clamped to `[0, 1]`.
///
/// With `amplitude = offset = 0.25`, this is exactly
/// `p(t) = 0.25·cos(π/12·t) + 0.25`, ranging over `[0, 0.5]` with its
/// peak at midnight.
pub struct SinusoidalProbability {
    amplitude: f64,
    offset: f64,
    rng: StdRng,
}

impl SinusoidalProbability {
    /// A daily sinusoidal firing probability.
    pub fn new(amplitude: f64, offset: f64, rng: StdRng) -> Self {
        SinusoidalProbability {
            amplitude,
            offset,
            rng,
        }
    }

    /// The paper's exact configuration (`0.25·cos(π/12·t) + 0.25`).
    pub fn paper_default(rng: StdRng) -> Self {
        Self::new(0.25, 0.25, rng)
    }

    /// The firing probability at event time `tau`.
    pub fn probability_at(&self, tau: Timestamp) -> f64 {
        sinusoid_probability(self.amplitude, self.offset, tau)
    }
}

/// Free-function form of [`SinusoidalProbability::probability_at`], so
/// the column kernel can compute probabilities while holding a mutable
/// borrow of the condition's RNG.
fn sinusoid_probability(amplitude: f64, offset: f64, tau: Timestamp) -> f64 {
    let t = tau.fractional_hour_of_day();
    (amplitude * (std::f64::consts::PI / 12.0 * t).cos() + offset).clamp(0.0, 1.0)
}

impl Condition for SinusoidalProbability {
    fn evaluate(&mut self, tuple: &StampedTuple) -> bool {
        let p = self.probability_at(tuple.tau);
        self.rng.random_bool(p)
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        self.probability_at(tuple.tau)
    }

    fn name(&self) -> &'static str {
        "sinusoidal_probability"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(rng_doc(&self.rng))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        self.rng = rng_from_doc(state)?;
        Ok(())
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn evaluate_columns(&mut self, batch: &ColumnBatch, rows: &[u32], mask: &mut [u8]) {
        let (amplitude, offset) = (self.amplitude, self.offset);
        bernoulli_each_by_tau(&mut self.rng, batch.taus(), rows, mask, |tau| {
            sinusoid_probability(amplitude, offset, tau)
        });
    }
}

/// Fires with a probability ramping linearly from `p0` at `from` to `p1`
/// at `to` — the paper's equation (4) activation
/// (`p = hours(τᵢ−τ₀)/hours(τₙ−τ₀)` is the special case `p0 = 0,
/// p1 = 1`), and the "§2.2 over the next five minutes, the probability
/// of missing values increases from 40 % to 90 %" example.
pub struct LinearRampProbability {
    from: Timestamp,
    to: Timestamp,
    p0: f64,
    p1: f64,
    rng: StdRng,
}

impl LinearRampProbability {
    /// A ramp from `p0` at `from` to `p1` at `to` (clamped outside).
    pub fn new(from: Timestamp, to: Timestamp, p0: f64, p1: f64, rng: StdRng) -> Self {
        LinearRampProbability {
            from,
            to,
            p0: p0.clamp(0.0, 1.0),
            p1: p1.clamp(0.0, 1.0),
            rng,
        }
    }

    /// Equation (4): probability 0 at the stream start, 1 at its end.
    pub fn eq4(stream_start: Timestamp, stream_end: Timestamp, rng: StdRng) -> Self {
        Self::new(stream_start, stream_end, 0.0, 1.0, rng)
    }

    /// The firing probability at event time `tau`.
    pub fn probability_at(&self, tau: Timestamp) -> f64 {
        ramp_probability(self.from, self.to, self.p0, self.p1, tau)
    }
}

/// Free-function form of [`LinearRampProbability::probability_at`], so
/// the column kernel can compute probabilities while holding a mutable
/// borrow of the condition's RNG.
fn ramp_probability(from: Timestamp, to: Timestamp, p0: f64, p1: f64, tau: Timestamp) -> f64 {
    let progress = if to <= from {
        if tau >= from {
            1.0
        } else {
            0.0
        }
    } else {
        let span = (to.millis() - from.millis()) as f64;
        (((tau.millis() - from.millis()) as f64) / span).clamp(0.0, 1.0)
    };
    p0 + (p1 - p0) * progress
}

impl Condition for LinearRampProbability {
    fn evaluate(&mut self, tuple: &StampedTuple) -> bool {
        let p = self.probability_at(tuple.tau);
        self.rng.random_bool(p)
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        self.probability_at(tuple.tau)
    }

    fn name(&self) -> &'static str {
        "linear_ramp_probability"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(rng_doc(&self.rng))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        self.rng = rng_from_doc(state)?;
        Ok(())
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn evaluate_columns(&mut self, batch: &ColumnBatch, rows: &[u32], mask: &mut [u8]) {
        let (from, to, p0, p1) = (self.from, self.to, self.p0, self.p1);
        bernoulli_each_by_tau(&mut self.rng, batch.taus(), rows, mask, |tau| {
            ramp_probability(from, to, p0, p1, tau)
        });
    }
}

/// Fires with probability `p_min + (p_max − p_min) · intensity(τ)` for an
/// arbitrary [`ChangePattern`] — the general "static error applied with a
/// time-varying probability" mechanism behind derived temporal error
/// types.
pub struct PatternProbability {
    pattern: ChangePattern,
    p_min: f64,
    p_max: f64,
    rng: StdRng,
}

impl PatternProbability {
    /// A pattern-modulated firing probability.
    pub fn new(pattern: ChangePattern, p_min: f64, p_max: f64, rng: StdRng) -> Self {
        PatternProbability {
            pattern,
            p_min: p_min.clamp(0.0, 1.0),
            p_max: p_max.clamp(0.0, 1.0),
            rng,
        }
    }
}

impl Condition for PatternProbability {
    fn evaluate(&mut self, tuple: &StampedTuple) -> bool {
        let i = self.pattern.intensity(tuple.tau, &mut self.rng);
        let p = (self.p_min + (self.p_max - self.p_min) * i).clamp(0.0, 1.0);
        self.rng.random_bool(p)
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        let i = self.pattern.expected_intensity(tuple.tau);
        (self.p_min + (self.p_max - self.p_min) * i).clamp(0.0, 1.0)
    }

    fn name(&self) -> &'static str {
        "pattern_probability"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(rng_doc(&self.rng))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        self.rng = rng_from_doc(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::test_util::tuple_at;
    use icewafl_types::time::MILLIS_PER_HOUR;
    use icewafl_types::Duration;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn time_window_bounds() {
        let mut w = TimeWindow::new(Some(Timestamp(10)), Some(Timestamp(20)));
        assert!(!w.evaluate(&tuple_at(9, 0i64)));
        assert!(w.evaluate(&tuple_at(10, 0i64)));
        assert!(w.evaluate(&tuple_at(19, 0i64)));
        assert!(!w.evaluate(&tuple_at(20, 0i64)), "end is exclusive");
    }

    #[test]
    fn time_window_open_bounds() {
        let mut from = TimeWindow::starting_at(Timestamp(100));
        assert!(from.evaluate(&tuple_at(100, 0i64)));
        assert!(!from.evaluate(&tuple_at(99, 0i64)));
        let mut to = TimeWindow::until(Timestamp(100));
        assert!(to.evaluate(&tuple_at(99, 0i64)));
        assert!(!to.evaluate(&tuple_at(100, 0i64)));
    }

    #[test]
    fn hour_range_daily() {
        // 13:00–14:59 — the bad-network window.
        let mut h = HourRange::new(13, 15);
        assert!(!h.evaluate(&tuple_at(12 * MILLIS_PER_HOUR + 59 * 60_000, 0i64)));
        assert!(h.evaluate(&tuple_at(13 * MILLIS_PER_HOUR, 0i64)));
        assert!(h.evaluate(&tuple_at(14 * MILLIS_PER_HOUR + 59 * 60_000, 0i64)));
        assert!(!h.evaluate(&tuple_at(15 * MILLIS_PER_HOUR, 0i64)));
        // Next day too.
        assert!(h.evaluate(&tuple_at(24 * MILLIS_PER_HOUR + 13 * MILLIS_PER_HOUR, 0i64)));
    }

    #[test]
    fn hour_range_wraps_midnight() {
        let mut h = HourRange::new(22, 2);
        assert!(h.evaluate(&tuple_at(23 * MILLIS_PER_HOUR, 0i64)));
        assert!(h.evaluate(&tuple_at(MILLIS_PER_HOUR, 0i64)));
        assert!(!h.evaluate(&tuple_at(3 * MILLIS_PER_HOUR, 0i64)));
    }

    #[test]
    fn sinusoid_matches_paper_values() {
        let s = SinusoidalProbability::paper_default(rng());
        // Midnight: 0.5; 06:00: 0.25; noon: 0.
        assert!((s.probability_at(Timestamp(0)) - 0.5).abs() < 1e-12);
        assert!((s.probability_at(Timestamp(6 * MILLIS_PER_HOUR)) - 0.25).abs() < 1e-12);
        assert!(s.probability_at(Timestamp(12 * MILLIS_PER_HOUR)) < 1e-12);
        // Mean over a day ≈ 0.25 (the paper measured 24.58 %).
        let mean: f64 = (0..24)
            .map(|h| s.probability_at(Timestamp(h * MILLIS_PER_HOUR)))
            .sum::<f64>()
            / 24.0;
        assert!((mean - 0.25).abs() < 1e-9);
    }

    #[test]
    fn sinusoid_sampling_tracks_probability() {
        let mut s = SinusoidalProbability::paper_default(rng());
        let midnight = tuple_at(0, 0i64);
        let hits = (0..10_000).filter(|_| s.evaluate(&midnight)).count();
        assert!((4800..5200).contains(&hits), "midnight p=0.5, hits {hits}");
        let noon = tuple_at(12 * MILLIS_PER_HOUR, 0i64);
        assert_eq!(
            (0..1000).filter(|_| s.evaluate(&noon)).count(),
            0,
            "noon p=0"
        );
    }

    #[test]
    fn linear_ramp_eq4() {
        let start = Timestamp(0);
        let end = Timestamp(100 * MILLIS_PER_HOUR);
        let r = LinearRampProbability::eq4(start, end, rng());
        assert_eq!(r.probability_at(Timestamp(0)), 0.0);
        assert!((r.probability_at(Timestamp(25 * MILLIS_PER_HOUR)) - 0.25).abs() < 1e-12);
        assert_eq!(r.probability_at(end), 1.0);
        assert_eq!(
            r.probability_at(Timestamp(200 * MILLIS_PER_HOUR)),
            1.0,
            "clamped after end"
        );
    }

    #[test]
    fn linear_ramp_40_to_90_percent() {
        // The §2.2 example: over five minutes, missing-value probability
        // rises from 40 % to 90 %.
        let from = Timestamp(0);
        let to = from + Duration::from_minutes(5);
        let r = LinearRampProbability::new(from, to, 0.4, 0.9, rng());
        assert!((r.probability_at(from) - 0.4).abs() < 1e-12);
        assert!((r.probability_at(from + Duration::from_minutes(1)) - 0.5).abs() < 1e-12);
        assert!((r.probability_at(to) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn pattern_probability_with_abrupt_pattern() {
        let mut c =
            PatternProbability::new(ChangePattern::Abrupt { at: Timestamp(50) }, 0.0, 1.0, rng());
        assert!(!c.evaluate(&tuple_at(49, 0i64)));
        assert!(c.evaluate(&tuple_at(50, 0i64)));
        assert_eq!(c.expected_probability(&tuple_at(0, 0i64)), 0.0);
        assert_eq!(c.expected_probability(&tuple_at(99, 0i64)), 1.0);
    }

    #[test]
    fn pattern_probability_interpolates_p_range() {
        let c = PatternProbability::new(
            ChangePattern::Incremental {
                from: Timestamp(0),
                to: Timestamp(100),
            },
            0.4,
            0.9,
            rng(),
        );
        assert!((c.expected_probability(&tuple_at(50, 0i64)) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn names() {
        assert_eq!(TimeWindow::starting_at(Timestamp(0)).name(), "time_window");
        assert_eq!(HourRange::new(0, 1).name(), "hour_range");
        assert_eq!(
            SinusoidalProbability::paper_default(rng()).name(),
            "sinusoidal_probability"
        );
    }
}
