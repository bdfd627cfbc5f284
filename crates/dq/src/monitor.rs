//! Continuous data-quality monitoring over a stream.
//!
//! The paper's introduction motivates Icewafl with DQ tools that
//! *monitor* streams; this module closes the loop: a monitor fed beside
//! the stream that validates an [`ExpectationSuite`] over tumbling event-time
//! windows, emitting one [`ValidationReport`] per window as the
//! watermark passes it. Combined with a pollution pipeline it answers
//! "when did the stream go bad, and how badly?" online.

use crate::suite::{ExpectationSuite, ValidationReport};
use icewafl_stream::window::{TumblingWindow, WindowPane};
use icewafl_types::{Duration, Schema, StampedTuple, Timestamp};

/// A per-window validation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedReport {
    /// Inclusive window start.
    pub start: Timestamp,
    /// Exclusive window end.
    pub end: Timestamp,
    /// The suite's results for this window's rows.
    pub report: ValidationReport,
}

/// Groups tuples into tumbling event-time windows (by `τ`) and
/// validates each completed window against a suite.
///
/// Windows fire when the watermark passes their end; remaining windows
/// fire at end of stream. Validation errors (an expectation referencing
/// a column missing from the schema) surface as a panic at the first
/// window rather than silently skewing results — bind-time validation
/// belongs in the suite builder.
pub struct DqMonitorOperator {
    window: TumblingWindow<StampedTuple, fn(&StampedTuple) -> Timestamp>,
    suite: ExpectationSuite,
    schema: Schema,
}

fn tau_of(t: &StampedTuple) -> Timestamp {
    t.tau
}

impl DqMonitorOperator {
    /// A monitor validating `suite` over windows of `size`.
    pub fn new(schema: Schema, suite: ExpectationSuite, size: Duration) -> Self {
        DqMonitorOperator {
            window: TumblingWindow::new(size, tau_of),
            suite,
            schema,
        }
    }

    /// Takes one tuple into its window; windows fire on watermarks.
    pub fn on_element(&mut self, record: StampedTuple) {
        self.window.on_element(record);
    }

    /// The watermark advances to `wm`: a report for every window it
    /// completes is appended to `out`, earliest first.
    pub fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<WindowedReport>) {
        let mut panes = Vec::new();
        self.window.on_watermark(wm, &mut panes);
        out.extend(panes.into_iter().map(|pane| self.validate_pane(pane)));
    }

    /// End of stream: a report for every window still open is appended
    /// to `out`, earliest first.
    pub fn on_end(&mut self, out: &mut Vec<WindowedReport>) {
        let mut panes = Vec::new();
        self.window.on_end(&mut panes);
        out.extend(panes.into_iter().map(|pane| self.validate_pane(pane)));
    }

    fn validate_pane(&self, pane: WindowPane<StampedTuple>) -> WindowedReport {
        let report = self
            .suite
            .validate(&self.schema, &pane.records)
            .expect("suite must be valid for the monitored schema");
        WindowedReport {
            start: pane.start,
            end: pane.end,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectations::ExpectColumnValuesToNotBeNull;
    use icewafl_stream::watermark::WatermarkStrategy;
    use icewafl_types::{DataType, Tuple, Value};

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    fn rows(n: i64) -> Vec<StampedTuple> {
        (0..n)
            .map(|i| {
                // NULL every 5th value in the second half only.
                let x = if i >= n / 2 && i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Float(i as f64)
                };
                StampedTuple::new(
                    i as u64,
                    Timestamp(i * 1000),
                    Tuple::new(vec![Value::Timestamp(Timestamp(i * 1000)), x]),
                )
            })
            .collect()
    }

    fn monitor() -> DqMonitorOperator {
        DqMonitorOperator::new(
            schema(),
            ExpectationSuite::new("monitor").with(ExpectColumnValuesToNotBeNull::new("x")),
            Duration::from_seconds(10),
        )
    }

    /// Runs `tuples` through a fresh monitor with an ascending watermark
    /// after every tuple, then ends the stream.
    fn monitored(tuples: Vec<StampedTuple>) -> Vec<WindowedReport> {
        let mut monitor = monitor();
        let mut watermarks = WatermarkStrategy::ascending(|t: &StampedTuple| t.tau).generator();
        let mut reports = Vec::new();
        for t in tuples {
            let wm = watermarks.on_record(&t);
            monitor.on_element(t);
            if let Some(wm) = wm {
                monitor.on_watermark(wm, &mut reports);
            }
        }
        monitor.on_end(&mut reports);
        reports
    }

    #[test]
    fn emits_one_report_per_window() {
        let reports = monitored(rows(100));
        assert_eq!(reports.len(), 10, "100 s of data in 10 s windows");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.start, Timestamp(i as i64 * 10_000));
            assert_eq!(r.report.element_count, 10);
        }
    }

    #[test]
    fn localizes_the_pollution_onset() {
        let reports = monitored(rows(100));
        // First half clean, second half has NULLs.
        for r in &reports[..5] {
            assert!(r.report.success(), "clean window {r:?}");
        }
        for r in &reports[5..] {
            assert!(!r.report.success(), "polluted window {:?}", r.start);
            assert_eq!(r.report.total_unexpected(), 2, "2 of 10 per window");
        }
    }

    #[test]
    fn windows_fire_incrementally_with_watermarks() {
        let mut monitor = monitor();
        let mut out = Vec::new();
        let mut rows = rows(20).into_iter();
        rows.by_ref().take(10).for_each(|t| monitor.on_element(t));
        // Watermark after the first window closes.
        monitor.on_watermark(Timestamp(9_999), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].start, Timestamp(0));
        rows.for_each(|t| monitor.on_element(t));
        monitor.on_end(&mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_stream_produces_no_reports() {
        assert!(monitored(Vec::new()).is_empty());
    }
}
