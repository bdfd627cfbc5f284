//! Event-time windows.
//!
//! [`TumblingWindow`] groups records by event time and fires complete
//! windows as the watermark passes them — the DQ experiments validate
//! per-hour windows this way.

use icewafl_types::{Duration, Timestamp};
use std::collections::BTreeMap;

/// A fired tumbling window: its start time and contents.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPane<T> {
    /// Inclusive start of the window.
    pub start: Timestamp,
    /// Exclusive end of the window.
    pub end: Timestamp,
    /// Records whose event time fell in `[start, end)`, in arrival
    /// order.
    pub records: Vec<T>,
}

/// Tumbling event-time windows of fixed size.
///
/// A window `[k·size, (k+1)·size)` fires when the watermark reaches its
/// end; remaining windows fire at end of stream. Empty windows do not
/// fire.
pub struct TumblingWindow<T, F> {
    size: Duration,
    extract: F,
    panes: BTreeMap<i64, Vec<T>>,
}

impl<T, F> TumblingWindow<T, F>
where
    F: FnMut(&T) -> Timestamp,
{
    /// Creates tumbling windows of `size` over the extracted event time.
    /// `size` must be positive.
    pub fn new(size: Duration, extract: F) -> Self {
        assert!(size.millis() > 0, "window size must be positive");
        TumblingWindow {
            size,
            extract,
            panes: BTreeMap::new(),
        }
    }

    /// Takes one record into the window its event time falls in.
    pub fn on_element(&mut self, record: T) {
        let ts = (self.extract)(&record);
        let key = ts.millis().div_euclid(self.size.millis());
        self.panes.entry(key).or_default().push(record);
    }

    /// The watermark advances to `wm`: every window it completes is
    /// appended to `out`, earliest first.
    pub fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<WindowPane<T>>) {
        let size = self.size.millis();
        // A window k fires when wm >= its end (k+1)*size - 1ms is
        // covered, i.e. (k+1)*size <= wm + 1. Popping the first (lowest)
        // key until it stops firing avoids a key list and the
        // remove-after-peek `expect`.
        while let Some(entry) = self.panes.first_entry() {
            let k = *entry.key();
            let fires = match (k + 1).checked_mul(size) {
                Some(end) => end <= wm.millis().saturating_add(1),
                None => false,
            };
            if !fires {
                break;
            }
            let records = entry.remove();
            out.push(WindowPane {
                start: Timestamp(k * size),
                end: Timestamp((k + 1) * size),
                records,
            });
        }
    }

    /// End of stream: every window still open is appended to `out`,
    /// earliest first.
    pub fn on_end(&mut self, out: &mut Vec<WindowPane<T>>) {
        while let Some((k, records)) = self.panes.pop_first() {
            out.push(WindowPane {
                start: Timestamp(k * self.size.millis()),
                end: Timestamp((k + 1) * self.size.millis()),
                records,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Window<T> = TumblingWindow<T, fn(&T) -> Timestamp>;

    /// Windows of 10 ms over plain `i64` event times.
    fn window() -> Window<i64> {
        TumblingWindow::new(Duration::from_millis(10), |r: &i64| Timestamp(*r))
    }

    /// What `w` fires for `records`, then the `watermarks` in order, then
    /// the end of stream; and how many of those panes the watermarks fired.
    fn fire<T>(
        mut w: Window<T>,
        records: Vec<T>,
        watermarks: &[i64],
    ) -> (Vec<WindowPane<T>>, usize) {
        let mut out = Vec::new();
        for r in records {
            w.on_element(r);
        }
        for &wm in watermarks {
            w.on_watermark(Timestamp(wm), &mut out);
        }
        let by_watermarks = out.len();
        w.on_end(&mut out);
        (out, by_watermarks)
    }

    #[test]
    fn tumbling_window_groups_by_event_time() {
        let w: Window<(i64, char)> =
            TumblingWindow::new(Duration::from_millis(10), |r: &(i64, char)| Timestamp(r.0));
        let (out, _) = fire(
            w,
            vec![(1, 'a'), (5, 'b'), (12, 'c'), (19, 'd'), (25, 'e')],
            &[],
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].start, Timestamp(0));
        assert_eq!(out[0].records, vec![(1, 'a'), (5, 'b')]);
        assert_eq!(out[1].start, Timestamp(10));
        assert_eq!(out[1].end, Timestamp(20));
        assert_eq!(out[1].records, vec![(12, 'c'), (19, 'd')]);
        assert_eq!(out[2].records, vec![(25, 'e')]);
    }

    #[test]
    fn tumbling_window_fires_on_watermark() {
        // Watermark 8: a record with ts 9 could still arrive, so window
        // [0,10) must not fire yet; watermark 9 fires it.
        let (out, by_watermarks) = fire(window(), vec![3, 15], &[8, 9]);
        // First window fired by the watermark at 9, second at end.
        assert_eq!(by_watermarks, 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].records, vec![3]);
        assert_eq!(out[1].records, vec![15]);
    }

    #[test]
    fn tumbling_window_watermark_9_does_not_fire_window_0_10() {
        let (out, by_watermarks) = fire(window(), vec![3], &[8]);
        assert_eq!(by_watermarks, 0, "window only fires at end");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn tumbling_window_watermark_at_9ms_fires_via_inclusive_edge() {
        // wm = 9 means no record with ts <= 9 is pending; window [0,10)
        // contains ts 0..=9, so it may fire: end (10) <= wm+1 (10).
        let (out, by_watermarks) = fire(window(), vec![3], &[9]);
        assert_eq!(by_watermarks, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].records, vec![3]);
    }

    #[test]
    fn negative_event_times_window_correctly() {
        let (out, _) = fire(window(), vec![-5, -15], &[]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].start, Timestamp(-20));
        assert_eq!(out[0].records, vec![-15]);
        assert_eq!(out[1].start, Timestamp(-10));
        assert_eq!(out[1].records, vec![-5]);
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_size_panics() {
        let _ = TumblingWindow::new(Duration::ZERO, |r: &i64| Timestamp(*r));
    }
}
