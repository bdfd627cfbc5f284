//! Runtime stages — the glue between operators and sinks.
//!
//! A *stage* consumes [`StreamElement`]s pushed from upstream. Pipelines
//! are built back-to-front: the terminal sink stage is wrapped by the
//! last operator's stage, and so on up to the source driver.

use crate::element::StreamElement;
use crate::fault::{FailureCell, StageError};
use crate::metrics::{StageMetrics, SAMPLE_MASK};
use crate::operator::{Collector, Operator};
use crate::sink::Sink;
use icewafl_obs::{trace, Stopwatch};
use icewafl_types::Timestamp;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A push-based consumer of stream elements.
pub trait Stage<T>: Send {
    /// Accepts the next element. Implementations must tolerate (and
    /// ignore) elements after `End`.
    fn push(&mut self, element: StreamElement<T>);
}

/// Boxed stage, the unit of pipeline composition.
pub type BoxStage<T> = Box<dyn Stage<T>>;

/// Terminal stage: feeds records into a [`Sink`].
///
/// Participates in the poison-propagation protocol (see
/// [`fault`](crate::fault)): an incoming [`StreamElement::Failure`] —
/// or a panic inside the sink itself — is recorded into the run's
/// shared [`FailureCell`] for the executor to report.
pub struct SinkStage<S> {
    sink: S,
    finished: bool,
    failures: FailureCell,
}

impl<S> SinkStage<S> {
    /// Wraps a sink with a detached failure cell (failures terminate the
    /// stream but are not reported anywhere).
    pub fn new(sink: S) -> Self {
        Self::with_failure_cell(sink, FailureCell::new())
    }

    /// Wraps a sink, recording the first observed failure into `cell`.
    pub fn with_failure_cell(sink: S, cell: FailureCell) -> Self {
        SinkStage {
            sink,
            finished: false,
            failures: cell,
        }
    }
}

impl<T, S> Stage<T> for SinkStage<S>
where
    T: Send,
    S: Sink<T>,
{
    fn push(&mut self, element: StreamElement<T>) {
        if self.finished {
            return;
        }
        match element {
            StreamElement::Record(r) => {
                let sink = &mut self.sink;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(move || sink.write(r))) {
                    // Do not call `finish` on a sink that just panicked.
                    self.finished = true;
                    self.failures
                        .record(StageError::from_panic("sink", payload));
                }
            }
            StreamElement::Watermark(_) => {}
            StreamElement::End => {
                self.finished = true;
                let sink = &mut self.sink;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(move || sink.finish())) {
                    self.failures
                        .record(StageError::from_panic("sink", payload));
                }
            }
            StreamElement::Failure(e) => {
                self.finished = true;
                self.failures.record(e);
                let sink = &mut self.sink;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(move || sink.finish())) {
                    // The upstream failure already won the cell; the
                    // sink's own panic during cleanup is fallout.
                    let _ = payload;
                }
            }
        }
    }
}

/// Wraps an [`Operator`] and forwards its output to the downstream
/// stage. Watermarks and the end marker are forwarded *after* the
/// operator's callback, so buffering operators flush first.
///
/// Every operator callback runs under [`catch_unwind`]; a panic is
/// converted into a [`StreamElement::Failure`] carrying this stage's
/// label, which propagates downstream like the end marker.
pub struct OperatorStage<Op, Out> {
    op: Op,
    down: BoxStage<Out>,
    ended: bool,
    metrics: StageMetrics,
    /// Stage label used to attribute failures, e.g. `stage/02_map`.
    label: String,
    /// Records seen, kept locally for the 1-in-64 sampling decision.
    seen: u64,
    /// Element counts staged in plain integers and flushed to the shared
    /// atomic cells only at watermark/end boundaries — a per-record
    /// `Arc<AtomicU64>` increment is too expensive for the hot path.
    in_pending: u64,
    out_pending: u64,
}

impl<Op, Out> OperatorStage<Op, Out> {
    /// Chains an operator in front of a downstream stage, with detached
    /// (snapshot-invisible) metrics and an anonymous label.
    pub fn new(op: Op, down: BoxStage<Out>) -> Self {
        Self::with_metrics(op, down, StageMetrics::detached(), "operator")
    }

    /// Chains an operator in front of a downstream stage, recording into
    /// the given metric handles and attributing failures to `label`.
    pub fn with_metrics(
        op: Op,
        down: BoxStage<Out>,
        metrics: StageMetrics,
        label: impl Into<String>,
    ) -> Self {
        OperatorStage {
            op,
            down,
            ended: false,
            metrics,
            label: label.into(),
            seen: 0,
            in_pending: 0,
            out_pending: 0,
        }
    }

    fn flush_pending(&mut self) {
        if self.in_pending > 0 {
            self.metrics.elements_in.add(self.in_pending);
            self.in_pending = 0;
        }
        if self.out_pending > 0 {
            self.metrics.elements_out.add(self.out_pending);
            self.out_pending = 0;
        }
    }

    /// Converts a caught panic payload into a poison element pushed
    /// downstream, terminating this stage.
    fn fail(&mut self, payload: Box<dyn std::any::Any + Send>)
    where
        Out: Send,
    {
        self.ended = true;
        self.metrics.failures.inc();
        self.flush_pending();
        let error = StageError::from_panic(&self.label, payload);
        self.down.push(StreamElement::Failure(error));
    }
}

/// Collector that pushes straight into a stage, counting emissions into
/// the stage's staged (plain-`u64`) output counter.
struct StageCollector<'a, T> {
    down: &'a mut dyn Stage<T>,
    out: &'a mut u64,
}

impl<T> Collector<T> for StageCollector<'_, T> {
    fn collect(&mut self, record: T) {
        *self.out += 1;
        self.down.push(StreamElement::Record(record));
    }
}

impl<In, Out, Op> Stage<In> for OperatorStage<Op, Out>
where
    In: Send,
    Out: Send,
    Op: Operator<In, Out>,
{
    fn push(&mut self, element: StreamElement<In>) {
        if self.ended {
            return;
        }
        match element {
            StreamElement::Record(r) => {
                // Every 64th record is wall-clock timed so the histogram
                // fills without paying two `Instant::now` calls per record.
                let sampled = self.seen & SAMPLE_MASK == 0;
                self.seen += 1;
                self.in_pending += 1;
                let result = {
                    let op = &mut self.op;
                    let mut coll = StageCollector {
                        down: self.down.as_mut(),
                        out: &mut self.out_pending,
                    };
                    if sampled {
                        // Sampled records double as trace sample points:
                        // when a trace session is live they emit a span
                        // covering the operator callback.
                        let _span = trace::span(&self.label, "stage");
                        let sw = Stopwatch::start();
                        let res =
                            catch_unwind(AssertUnwindSafe(move || op.on_element(r, &mut coll)));
                        self.metrics.latency_ns.record(sw.elapsed_ns());
                        res
                    } else {
                        catch_unwind(AssertUnwindSafe(move || op.on_element(r, &mut coll)))
                    }
                };
                if let Err(payload) = result {
                    self.fail(payload);
                }
            }
            StreamElement::Watermark(wm) => {
                // The final `W(MAX)` end-of-stream sentinel would dwarf
                // any real event time; keep it out of the high-water mark.
                if wm != Timestamp::MAX {
                    self.metrics.watermark_hwm_ms.set_max(wm.0.max(0) as u64);
                }
                let result = {
                    let op = &mut self.op;
                    let mut coll = StageCollector {
                        down: self.down.as_mut(),
                        out: &mut self.out_pending,
                    };
                    catch_unwind(AssertUnwindSafe(move || op.on_watermark(wm, &mut coll)))
                };
                match result {
                    Ok(()) => {
                        self.flush_pending();
                        self.down.push(StreamElement::Watermark(wm));
                    }
                    Err(payload) => self.fail(payload),
                }
            }
            StreamElement::End => {
                self.ended = true;
                let result = {
                    let op = &mut self.op;
                    let mut coll = StageCollector {
                        down: self.down.as_mut(),
                        out: &mut self.out_pending,
                    };
                    catch_unwind(AssertUnwindSafe(move || op.on_end(&mut coll)))
                };
                match result {
                    Ok(()) => {
                        self.flush_pending();
                        self.down.push(StreamElement::End);
                    }
                    Err(payload) => self.fail(payload),
                }
            }
            StreamElement::Failure(e) => {
                // Poison: stop processing (buffered operator state is
                // dropped — the error reports the truncation) and
                // forward the failure downstream so the sink records it.
                self.ended = true;
                self.flush_pending();
                self.down.push(StreamElement::Failure(e));
            }
        }
    }
}

/// Testing/bench helper: drives a single operator with records and a
/// final end marker, collecting its full output. Watermarks can be
/// interleaved by the caller via `elements`.
pub fn run_operator<In, Out, Op>(mut op: Op, elements: Vec<StreamElement<In>>) -> Vec<Out>
where
    Op: Operator<In, Out>,
{
    let mut out = Vec::new();
    for e in elements {
        match e {
            StreamElement::Record(r) => op.on_element(r, &mut out),
            StreamElement::Watermark(wm) => op.on_watermark(wm, &mut out),
            StreamElement::End => op.on_end(&mut out),
            StreamElement::Failure(_) => break,
        }
    }
    out
}

/// Convenience: `run_operator` over plain records with a trailing end.
pub fn run_operator_simple<In, Out, Op>(op: Op, records: Vec<In>) -> Vec<Out>
where
    Op: Operator<In, Out>,
{
    let mut elements: Vec<StreamElement<In>> =
        records.into_iter().map(StreamElement::Record).collect();
    elements.push(StreamElement::End);
    run_operator(op, elements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MapOperator;
    use crate::sink::SharedVecSink;

    #[test]
    fn sink_stage_ignores_elements_after_end() {
        let sink = SharedVecSink::new();
        let mut stage = SinkStage::new(sink.clone());
        stage.push(StreamElement::Record(1));
        stage.push(StreamElement::End);
        stage.push(StreamElement::Record(2));
        assert_eq!(sink.take(), vec![1]);
    }

    #[test]
    fn operator_stage_forwards_watermarks_after_callback() {
        // A sorter-like operator releasing on watermark, observed through
        // the stage: the record released by the watermark must precede
        // the watermark itself downstream.
        struct HoldOne(Option<i32>);
        impl Operator<i32, i32> for HoldOne {
            fn on_element(&mut self, r: i32, _out: &mut dyn Collector<i32>) {
                self.0 = Some(r);
            }
            fn on_watermark(&mut self, _wm: Timestamp, out: &mut dyn Collector<i32>) {
                if let Some(r) = self.0.take() {
                    out.collect(r);
                }
            }
        }
        struct Recorder(std::sync::Arc<parking_lot::Mutex<Vec<String>>>);
        impl Stage<i32> for Recorder {
            fn push(&mut self, e: StreamElement<i32>) {
                self.0.lock().push(format!("{e:?}"));
            }
        }
        let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut stage = OperatorStage::new(HoldOne(None), Box::new(Recorder(log.clone())));
        stage.push(StreamElement::Record(7));
        stage.push(StreamElement::Watermark(Timestamp(1)));
        let entries = log.lock().clone();
        assert_eq!(
            entries,
            vec![
                "Record(7)".to_string(),
                "Watermark(Timestamp(1))".to_string()
            ]
        );
    }

    #[test]
    fn operator_stage_end_flushes_then_forwards() {
        let sink = SharedVecSink::new();
        let mut stage = OperatorStage::new(
            MapOperator::new(|x: i32| x + 1),
            Box::new(SinkStage::new(sink.clone())),
        );
        stage.push(StreamElement::Record(1));
        stage.push(StreamElement::End);
        stage.push(StreamElement::Record(5)); // ignored after end
        assert_eq!(sink.take(), vec![2]);
    }

    #[test]
    fn run_operator_helpers() {
        let out: Vec<i32> = run_operator_simple(MapOperator::new(|x: i32| x * 3), vec![1, 2]);
        assert_eq!(out, vec![3, 6]);
    }

    #[test]
    fn operator_panic_becomes_failure_element() {
        crate::chaos::install_quiet_panic_hook();
        struct Bomb;
        impl Operator<i32, i32> for Bomb {
            fn on_element(&mut self, r: i32, out: &mut dyn Collector<i32>) {
                if r == 3 {
                    panic!("{} bomb at {r}", crate::chaos::CHAOS_PANIC_MARKER);
                }
                out.collect(r);
            }
        }
        let cell = FailureCell::new();
        let sink = SharedVecSink::new();
        let mut stage = OperatorStage::with_metrics(
            Bomb,
            Box::new(SinkStage::with_failure_cell(sink.clone(), cell.clone())),
            StageMetrics::detached(),
            "stage/01_bomb",
        );
        stage.push(StreamElement::Record(1));
        stage.push(StreamElement::Record(3));
        stage.push(StreamElement::Record(4)); // ignored: stage is poisoned
        let err = cell.get().expect("failure recorded at the sink");
        assert_eq!(err.stage, "stage/01_bomb");
        assert_eq!(err.kind, crate::fault::FailureKind::Injected);
        assert!(err.message.contains("bomb at 3"));
        assert_eq!(sink.take(), vec![1]);
    }

    #[test]
    fn upstream_failure_is_forwarded_not_processed() {
        let cell = FailureCell::new();
        let sink = SharedVecSink::new();
        let mut stage = OperatorStage::new(
            MapOperator::new(|x: i32| x + 1),
            Box::new(SinkStage::with_failure_cell(sink.clone(), cell.clone())),
        );
        stage.push(StreamElement::Record(1));
        stage.push(StreamElement::Failure(StageError::new(
            "stage/09_up",
            crate::fault::FailureKind::Panic,
            "boom",
        )));
        stage.push(StreamElement::Record(2));
        assert_eq!(cell.get().map(|e| e.stage), Some("stage/09_up".into()));
        assert_eq!(sink.take(), vec![2]); // 1+1 delivered before the poison
    }
}
