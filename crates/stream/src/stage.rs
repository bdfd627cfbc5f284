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
use std::time::Instant;

/// Operator stages re-check the wall-clock deadline once per this many
/// records (power-of-two mask). The source driver has its own check,
/// but the time may go anywhere downstream of it (a slow operator, a
/// sorter releasing a long run) — enforcing the deadline *here* is what
/// guarantees an attempt cannot outlive it no matter where the time is
/// spent.
const DEADLINE_CHECK_MASK: u64 = 255;

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
    /// Records committed to the sink so far — recorded into checkpoint
    /// frames so restores know where to truncate a shared sink.
    written: u64,
}

impl<S> SinkStage<S> {
    /// Wraps a sink with a detached failure cell (failures terminate the
    /// stream but are not reported anywhere).
    pub fn new(sink: S) -> Self {
        Self::with_failure_cell(sink, FailureCell::new())
    }

    /// Wraps a sink, recording the first observed failure into `cell`.
    pub fn with_failure_cell(sink: S, cell: FailureCell) -> Self {
        Self::resumed(sink, cell, 0)
    }

    /// Wraps a sink whose backing store already holds `committed_base`
    /// records from a previous (checkpoint-restored) attempt: barrier
    /// commits count from that base, so checkpoint frames always record
    /// *absolute* sink offsets — the truncation point a later restore
    /// needs — rather than per-attempt ones.
    pub fn resumed(sink: S, cell: FailureCell, committed_base: u64) -> Self {
        SinkStage {
            sink,
            finished: false,
            failures: cell,
            written: committed_base,
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
                } else {
                    self.written += 1;
                }
            }
            StreamElement::Batch(batch) => {
                let len = batch.len() as u64;
                let sink = &mut self.sink;
                if let Err(payload) =
                    catch_unwind(AssertUnwindSafe(move || sink.write_batch(batch)))
                {
                    self.finished = true;
                    self.failures
                        .record(StageError::from_panic("sink", payload));
                } else {
                    self.written += len;
                }
            }
            StreamElement::Watermark(_) => {}
            StreamElement::Barrier(b) => {
                // Sink-side committer: the barrier has crossed every
                // stage, so the snapshot is complete — seal the frame
                // with the committed-record count.
                b.commit(self.written);
            }
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
    /// Wall-clock deadline checked every [`DEADLINE_CHECK_MASK`]+1
    /// records; on expiry the stage poisons itself with a
    /// [`FailureKind::Deadline`](crate::fault::FailureKind) failure.
    deadline: Option<Instant>,
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
            deadline: None,
        }
    }

    /// Arms the per-stage wall-clock deadline check (`None` = never
    /// expires). The executor wires this from the run deadline so slow
    /// operators are cut off even when the source has long since
    /// drained.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
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

    /// Periodic deadline enforcement: when the armed deadline has
    /// passed, poison the stage with a `Deadline` failure (which a
    /// supervisor never retries) instead of grinding out the rest of
    /// the stream.
    fn enforce_deadline(&mut self)
    where
        Out: Send,
    {
        let Some(dl) = self.deadline else { return };
        if Instant::now() < dl {
            return;
        }
        self.ended = true;
        self.metrics.failures.inc();
        self.flush_pending();
        self.down
            .push(StreamElement::Failure(StageError::deadline(&self.label)));
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
                } else if self.seen & DEADLINE_CHECK_MASK == 0 {
                    self.enforce_deadline();
                }
            }
            StreamElement::Batch(batch) => {
                if batch.is_empty() {
                    return;
                }
                let len = batch.len() as u64;
                // Time the whole batch whenever it covers one of the
                // 1-in-64 sample points the per-record path would hit.
                let next_sample = (self.seen + SAMPLE_MASK) & !SAMPLE_MASK;
                let sampled = next_sample < self.seen + len;
                // Same crossing logic for the (coarser) deadline check.
                let next_deadline_check = (self.seen + DEADLINE_CHECK_MASK) & !DEADLINE_CHECK_MASK;
                let check_deadline = next_deadline_check < self.seen + len;
                self.seen += len;
                self.in_pending += len;
                let result = {
                    let op = &mut self.op;
                    let mut coll = StageCollector {
                        down: self.down.as_mut(),
                        out: &mut self.out_pending,
                    };
                    if sampled {
                        let mut span = trace::span(&self.label, "stage");
                        if let Some(s) = span.as_mut() {
                            s.arg("batch", len);
                        }
                        let sw = Stopwatch::start();
                        let res =
                            catch_unwind(AssertUnwindSafe(move || op.on_batch(batch, &mut coll)));
                        let elapsed = sw.elapsed_ns();
                        // One histogram entry per 1-in-64 sample point the
                        // batch covers (a frame larger than the sampling
                        // period spans several), keeping the sample *count*
                        // batch-size invariant.
                        let points = (self.seen - 1 - next_sample) / (SAMPLE_MASK + 1) + 1;
                        for _ in 0..points {
                            self.metrics.latency_ns.record(elapsed);
                        }
                        res
                    } else {
                        catch_unwind(AssertUnwindSafe(move || op.on_batch(batch, &mut coll)))
                    }
                };
                if let Err(payload) = result {
                    self.fail(payload);
                } else if check_deadline {
                    self.enforce_deadline();
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
            StreamElement::Barrier(b) => {
                // Snapshot point: the operator has seen exactly the
                // records preceding the barrier. Contribute state, then
                // forward so downstream stages snapshot too.
                let op = &mut self.op;
                let result = catch_unwind(AssertUnwindSafe(|| op.on_barrier(&b)));
                match result {
                    Ok(()) => {
                        self.flush_pending();
                        self.down.push(StreamElement::Barrier(b));
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

/// Stage adapter that coalesces consecutive records into
/// [`StreamElement::Batch`] frames before forwarding to the inner
/// stage. Placed in front of merge points (e.g. a union's shared lock)
/// so the per-element cost there is paid once per batch, and in front
/// of sinks with a whole-batch fast path. Staged records flush *before*
/// any watermark, barrier, pre-batched frame, or terminal marker is
/// forwarded, so records never trail a control element they preceded.
pub struct BatchingStage<T> {
    inner: BoxStage<T>,
    buf: Vec<T>,
    batch_size: usize,
}

impl<T> BatchingStage<T> {
    /// Wraps `inner`, batching up to `batch_size` records per frame.
    pub fn new(inner: BoxStage<T>, batch_size: usize) -> Self {
        BatchingStage {
            inner,
            buf: Vec::new(),
            batch_size: batch_size.max(1),
        }
    }
}

impl<T: Send> Stage<T> for BatchingStage<T> {
    fn push(&mut self, element: StreamElement<T>) {
        if let StreamElement::Record(r) = element {
            if self.batch_size > 1 {
                if self.buf.capacity() == 0 {
                    self.buf.reserve_exact(self.batch_size);
                }
                self.buf.push(r);
                if self.buf.len() >= self.batch_size {
                    let batch =
                        std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch_size));
                    self.inner.push(StreamElement::Batch(batch));
                }
            } else {
                self.inner.push(StreamElement::Record(r));
            }
            return;
        }
        if !self.buf.is_empty() {
            let batch = std::mem::take(&mut self.buf);
            self.inner.push(StreamElement::Batch(batch));
        }
        self.inner.push(element);
    }
}

/// Stage that drops everything (used when a side output is unused).
pub struct DiscardStage;

impl<T: Send> Stage<T> for DiscardStage {
    fn push(&mut self, _element: StreamElement<T>) {}
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
            StreamElement::Batch(b) => op.on_batch(b, &mut out),
            StreamElement::Watermark(wm) => op.on_watermark(wm, &mut out),
            StreamElement::Barrier(b) => op.on_barrier(&b),
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

/// Watermark utility shared by merge points: tracks per-input watermarks
/// and reports the combined (minimum) watermark when it advances.
#[derive(Debug)]
pub struct WatermarkMerger {
    inputs: Vec<Timestamp>,
    combined: Timestamp,
}

impl WatermarkMerger {
    /// A merger over `n` inputs, all starting at `Timestamp::MIN`.
    pub fn new(n: usize) -> Self {
        WatermarkMerger {
            inputs: vec![Timestamp::MIN; n],
            combined: Timestamp::MIN,
        }
    }

    /// Records that input `idx` advanced to `wm`; returns the new
    /// combined watermark if it advanced.
    pub fn advance(&mut self, idx: usize, wm: Timestamp) -> Option<Timestamp> {
        if wm > self.inputs[idx] {
            self.inputs[idx] = wm;
        }
        let min = self.inputs.iter().copied().min().unwrap_or(Timestamp::MAX);
        if min > self.combined {
            self.combined = min;
            Some(min)
        } else {
            None
        }
    }
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
    fn watermark_merger_takes_minimum() {
        let mut m = WatermarkMerger::new(2);
        assert_eq!(m.advance(0, Timestamp(10)), None); // other input still MIN
        assert_eq!(m.advance(1, Timestamp(5)), Some(Timestamp(5)));
        assert_eq!(m.advance(1, Timestamp(20)), Some(Timestamp(10)));
        // Regressions are ignored.
        assert_eq!(m.advance(0, Timestamp(3)), None);
        assert_eq!(m.advance(0, Timestamp(30)), Some(Timestamp(20)));
    }

    #[test]
    fn discard_stage_accepts_everything() {
        let mut d = DiscardStage;
        d.push(StreamElement::Record(1));
        d.push(StreamElement::<i32>::End);
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

    /// A stage that records every element it is handed.
    struct Frames(std::sync::Arc<parking_lot::Mutex<Vec<StreamElement<i32>>>>);

    impl Stage<i32> for Frames {
        fn push(&mut self, e: StreamElement<i32>) {
            self.0.lock().push(e);
        }
    }

    fn batching(batch_size: usize) -> (BatchingStage<i32>, Frames) {
        let frames = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stage = BatchingStage::new(Box::new(Frames(frames.clone())), batch_size);
        (stage, Frames(frames))
    }

    #[test]
    fn batching_stage_flushes_partial_batch_before_control_elements() {
        let (mut stage, frames) = batching(4);
        stage.push(StreamElement::Record(1));
        stage.push(StreamElement::Record(2));
        stage.push(StreamElement::Watermark(Timestamp(10)));
        stage.push(StreamElement::Record(3));
        stage.push(StreamElement::End);
        assert_eq!(
            *frames.0.lock(),
            vec![
                StreamElement::Batch(vec![1, 2]),
                StreamElement::Watermark(Timestamp(10)),
                StreamElement::Batch(vec![3]),
                StreamElement::End,
            ]
        );
    }

    #[test]
    fn batching_stage_hands_over_full_batches() {
        let (mut stage, frames) = batching(2);
        for i in 0..5 {
            stage.push(StreamElement::Record(i));
        }
        stage.push(StreamElement::End);
        assert_eq!(
            *frames.0.lock(),
            vec![
                StreamElement::Batch(vec![0, 1]),
                StreamElement::Batch(vec![2, 3]),
                StreamElement::Batch(vec![4]),
                StreamElement::End,
            ]
        );
    }

    #[test]
    fn operator_stage_treats_a_batch_like_its_records() {
        let sink = SharedVecSink::new();
        let mut stage = OperatorStage::new(
            MapOperator::new(|x: i32| x + 1),
            Box::new(SinkStage::new(sink.clone())),
        );
        stage.push(StreamElement::Batch(vec![1, 2, 3]));
        stage.push(StreamElement::Batch(vec![]));
        stage.push(StreamElement::Record(9));
        stage.push(StreamElement::End);
        assert_eq!(sink.take(), vec![2, 3, 4, 10]);
    }

    #[test]
    fn panic_inside_a_batch_poisons_the_stage() {
        crate::chaos::install_quiet_panic_hook();
        struct Bomb;
        impl Operator<i32, i32> for Bomb {
            fn on_element(&mut self, r: i32, out: &mut dyn Collector<i32>) {
                if r == 2 {
                    panic!("{} batch bomb", crate::chaos::CHAOS_PANIC_MARKER);
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
        stage.push(StreamElement::Batch(vec![1, 2, 3]));
        stage.push(StreamElement::Batch(vec![4]));
        assert_eq!(cell.get().map(|e| e.stage), Some("stage/01_bomb".into()));
        assert_eq!(sink.take(), vec![1], "records before the panic landed");
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
