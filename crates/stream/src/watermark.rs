//! Event-time watermark generation.
//!
//! A watermark `W(t)` asserts that no future record has event time `≤ t`.
//! The source runtime consults a [`WatermarkStrategy`] after each record
//! and injects the watermarks it produces into the stream.

use icewafl_types::{Duration, Timestamp};

/// How a stream assigns event times and emits watermarks.
pub struct WatermarkStrategy<T> {
    kind: Kind<T>,
}

type Extractor<T> = Box<dyn FnMut(&T) -> Timestamp + Send>;

enum Kind<T> {
    /// No intermediate watermarks; only the final `W(MAX)` before the end
    /// marker. Stateful operators then behave like batch operators.
    None,
    /// Watermark = max event time seen − `delay`, emitted every `period`
    /// records (Flink's "bounded out-of-orderness" strategy).
    Bounded {
        extract: Extractor<T>,
        delay: Duration,
        period: u64,
    },
}

impl<T> WatermarkStrategy<T> {
    /// No watermarks until end of stream (batch-like execution).
    pub fn none() -> Self {
        WatermarkStrategy { kind: Kind::None }
    }

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
            kind: Kind::Bounded {
                extract: Box::new(extract),
                delay,
                period: period.max(1),
            },
        }
    }

    /// Instantiates the per-stream generator state: what a source runs
    /// its records through, and what a caller that sources records
    /// without a [`DataStream`](crate::DataStream) runs them through to
    /// get the same watermarks.
    pub fn generator(self) -> WatermarkGenerator<T> {
        WatermarkGenerator {
            kind: self.kind,
            max_ts: Timestamp::MIN,
            seen: 0,
            last_emitted: None,
        }
    }
}

/// Stateful watermark generator owned by a running source.
pub struct WatermarkGenerator<T> {
    kind: Kind<T>,
    max_ts: Timestamp,
    seen: u64,
    last_emitted: Option<Timestamp>,
}

impl<T> WatermarkGenerator<T> {
    /// The generator's exact position, captured into checkpoint frames
    /// so a replayed source resumes the same emission cadence.
    pub(crate) fn state(&self) -> crate::checkpoint::WatermarkGenState {
        crate::checkpoint::WatermarkGenState {
            max_ts: self.max_ts.millis(),
            seen: self.seen,
            last_emitted: self.last_emitted.map(|t| t.millis()),
        }
    }

    /// Restores a position captured by [`WatermarkGenerator::state`].
    pub(crate) fn restore(&mut self, state: &crate::checkpoint::WatermarkGenState) {
        self.max_ts = Timestamp(state.max_ts);
        self.seen = state.seen;
        self.last_emitted = state.last_emitted.map(Timestamp);
    }

    /// Observes a record; returns a watermark to emit after it, if any.
    pub fn on_record(&mut self, record: &T) -> Option<Timestamp> {
        match &mut self.kind {
            Kind::None => None,
            Kind::Bounded {
                extract,
                delay,
                period,
            } => {
                let ts = extract(record);
                if ts > self.max_ts {
                    self.max_ts = ts;
                }
                self.seen += 1;
                if self.seen.is_multiple_of(*period) && self.max_ts > Timestamp::MIN {
                    let wm = Timestamp(self.max_ts.millis().saturating_sub(delay.millis()));
                    // Watermarks must be monotone; suppress regressions
                    // and duplicates.
                    if self.last_emitted.is_none_or(|last| wm > last) {
                        self.last_emitted = Some(wm);
                        return Some(wm);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_strategy_never_emits() {
        let mut g = WatermarkStrategy::<i64>::none().generator();
        for x in 0..10 {
            assert_eq!(g.on_record(&x), None);
        }
    }

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
