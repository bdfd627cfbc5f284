//! Event-time watermark generation.
//!
//! A watermark `W(t)` asserts that no future record has event time `≤ t`.
//! A [`WatermarkStrategy`] names how a stream's records advance it; its
//! [`WatermarkGenerator`] sees each record and says when to emit one.

use icewafl_types::{Duration, Timestamp};

type Extractor<T> = Box<dyn FnMut(&T) -> Timestamp + Send>;

/// How a stream assigns event times and emits watermarks: watermark =
/// max event time seen − `delay`, emitted every `period` records
/// (Flink's "bounded out-of-orderness" strategy).
pub struct WatermarkStrategy<T> {
    extract: Extractor<T>,
    delay: Duration,
    period: u64,
}

impl<T> WatermarkStrategy<T> {
    /// Watermarks for perfectly ordered streams: after every record, the
    /// watermark advances to that record's event time.
    pub fn ascending(extract: impl FnMut(&T) -> Timestamp + Send + 'static) -> Self {
        Self::bounded_out_of_orderness(extract, Duration::ZERO, 1)
    }

    /// Watermarks that tolerate records up to `delay` out of order,
    /// emitted every `period` records (`period ≥ 1`).
    pub fn bounded_out_of_orderness(
        extract: impl FnMut(&T) -> Timestamp + Send + 'static,
        delay: Duration,
        period: u64,
    ) -> Self {
        WatermarkStrategy {
            extract: Box::new(extract),
            delay,
            period: period.max(1),
        }
    }

    /// Instantiates the per-stream generator state, which the caller
    /// runs every record through.
    pub fn generator(self) -> WatermarkGenerator<T> {
        WatermarkGenerator {
            strategy: self,
            max_ts: Timestamp::MIN,
            seen: 0,
            last_emitted: None,
        }
    }
}

/// Stateful watermark generator of one stream.
pub struct WatermarkGenerator<T> {
    strategy: WatermarkStrategy<T>,
    max_ts: Timestamp,
    seen: u64,
    last_emitted: Option<Timestamp>,
}

impl<T> WatermarkGenerator<T> {
    /// The generator's exact position, captured into checkpoint frames
    /// so a replayed source resumes the same emission cadence.
    pub fn state(&self) -> crate::checkpoint::WatermarkGenState {
        crate::checkpoint::WatermarkGenState {
            max_ts: self.max_ts.millis(),
            seen: self.seen,
            last_emitted: self.last_emitted.map(|t| t.millis()),
        }
    }

    /// Restores a position captured by [`WatermarkGenerator::state`].
    pub fn restore(&mut self, state: &crate::checkpoint::WatermarkGenState) {
        self.max_ts = Timestamp(state.max_ts);
        self.seen = state.seen;
        self.last_emitted = state.last_emitted.map(Timestamp);
    }

    /// Observes a record; returns a watermark to emit after it, if any.
    pub fn on_record(&mut self, record: &T) -> Option<Timestamp> {
        let ts = (self.strategy.extract)(record);
        if ts > self.max_ts {
            self.max_ts = ts;
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.strategy.period) && self.max_ts > Timestamp::MIN {
            let wm = Timestamp(
                self.max_ts
                    .millis()
                    .saturating_sub(self.strategy.delay.millis()),
            );
            // Watermarks must be monotone; suppress regressions and
            // duplicates.
            if self.last_emitted.is_none_or(|last| wm > last) {
                self.last_emitted = Some(wm);
                return Some(wm);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_tracks_each_record() {
        let mut g = WatermarkStrategy::ascending(|x: &i64| Timestamp(*x)).generator();
        assert_eq!(g.on_record(&5), Some(Timestamp(5)));
        assert_eq!(g.on_record(&7), Some(Timestamp(7)));
    }

    #[test]
    fn watermarks_are_monotone_under_disorder() {
        let mut g = WatermarkStrategy::ascending(|x: &i64| Timestamp(*x)).generator();
        assert_eq!(g.on_record(&5), Some(Timestamp(5)));
        // An out-of-order record must not drag the watermark backwards.
        assert_eq!(g.on_record(&3), None);
        assert_eq!(g.on_record(&6), Some(Timestamp(6)));
    }

    #[test]
    fn bounded_delay_subtracts() {
        let mut g = WatermarkStrategy::bounded_out_of_orderness(
            |x: &i64| Timestamp(*x),
            Duration::from_millis(10),
            1,
        )
        .generator();
        assert_eq!(g.on_record(&100), Some(Timestamp(90)));
    }

    #[test]
    fn period_batches_emissions() {
        let mut g =
            WatermarkStrategy::bounded_out_of_orderness(|x: &i64| Timestamp(*x), Duration::ZERO, 3)
                .generator();
        assert_eq!(g.on_record(&1), None);
        assert_eq!(g.on_record(&2), None);
        assert_eq!(g.on_record(&3), Some(Timestamp(3)));
        assert_eq!(g.on_record(&4), None);
    }

    #[test]
    fn zero_period_is_clamped_to_one() {
        let mut g =
            WatermarkStrategy::bounded_out_of_orderness(|x: &i64| Timestamp(*x), Duration::ZERO, 0)
                .generator();
        assert_eq!(g.on_record(&1), Some(Timestamp(1)));
    }
}
