//! The fluent `DataStream` pipeline API and its executors.
//!
//! A [`DataStream<T>`] is a *description* of a pipeline, composed
//! back-to-front: each combinator wraps the eventual downstream stage in
//! another [`Stage`](crate::stage::Stage). Calling
//! [`DataStream::execute_into`] materializes the chain and drives the
//! source to completion.
//!
//! Everything runs on the calling thread, in a fully deterministic
//! order — what Icewafl needs for reproducible pollution; no stage
//! starts a thread.

use crate::element::StreamElement;
use crate::fault::{FailureCell, PipelineError, StageError};
use crate::metrics::{SorterMetrics, StageMetrics};
use crate::operator::{FilterOperator, MapOperator, Operator};
use crate::sink::{SharedVecSink, Sink};
use crate::sort::{EventTimeSorter, SortKey};
use crate::source::{Source, VecSource};
use crate::stage::{BoxStage, OperatorStage, SinkStage};
use crate::watermark::WatermarkStrategy;
use icewafl_obs::MetricsRegistry;
use icewafl_types::Timestamp;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs a fully built pipeline's source to completion.
type Driver = Box<dyn FnOnce() + Send>;

/// Deferred pipeline construction: given the downstream stage and the
/// execution context, produce the driver.
type BuildFn<T> = Box<dyn FnOnce(BoxStage<T>, &mut ExecutionContext) -> Driver + Send>;

/// What a pipeline's stages share while it is built and run: the
/// [`MetricsRegistry`] they register their instrumentation against,
/// the stage numbering and the failure cell.
#[derive(Default)]
pub struct ExecutionContext {
    registry: MetricsRegistry,
    stage_seq: u32,
    /// First-failure-wins cell shared with every fault-catching point of
    /// this execution (see [`fault`](crate::fault)).
    failures: FailureCell,
}

impl ExecutionContext {
    /// A context whose stages record into `registry`.
    pub fn with_registry(registry: MetricsRegistry) -> Self {
        ExecutionContext {
            registry,
            ..Default::default()
        }
    }

    /// The registry pipeline stages register their metrics against.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A clone of the run's shared failure cell.
    pub fn failure_cell(&self) -> FailureCell {
        self.failures.clone()
    }

    /// The label for the next stage, e.g. `stage/03_map`. Pipelines are
    /// built back-to-front, so indices count from the **sink** upward.
    pub fn next_stage_label(&mut self, name: &str) -> String {
        let label = format!("stage/{:02}_{}", self.stage_seq, name);
        self.stage_seq += 1;
        label
    }

    /// Runs `driver`, converting a panic that escapes it (e.g. a
    /// panicking `Source::next` before the first stage) into the run's
    /// failure instead of unwinding the caller.
    fn drive(&self, driver: Driver) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(driver)) {
            self.failures
                .record(StageError::from_panic("driver", payload));
        }
    }

    /// The first failure any stage recorded during the run.
    fn finish(&self) -> Result<(), PipelineError> {
        match self.failures.take() {
            Some(error) => Err(PipelineError::from(error)),
            None => Ok(()),
        }
    }
}

/// A lazily composed stream pipeline over records of type `T`.
pub struct DataStream<T: Send + 'static> {
    build: BuildFn<T>,
}

impl<T: Send + 'static> DataStream<T> {
    /// A stream fed by `source`, with watermarks per `strategy`: the
    /// driver pulls `source.next()` until the source ends or the stream
    /// is poisoned.
    ///
    /// The runtime always emits a final `W(MAX)` watermark before the end
    /// marker, so buffering operators flush even under
    /// [`WatermarkStrategy::none`].
    pub fn from_source(source: impl Source<T> + 'static, strategy: WatermarkStrategy<T>) -> Self {
        DataStream {
            build: Box::new(move |down, ctx| {
                let mut source = source;
                let mut step = SourceStep::new(down, strategy, ctx);
                Box::new(move || while step.step(|| source.next()) {})
            }),
        }
    }

    /// A stream over an in-memory vector, without intermediate
    /// watermarks.
    pub fn from_vec(items: Vec<T>) -> Self {
        Self::from_source(VecSource::new(items), WatermarkStrategy::none())
    }

    /// Applies an arbitrary [`Operator`].
    pub fn transform<U: Send + 'static>(self, op: impl Operator<T, U> + 'static) -> DataStream<U> {
        let upstream = self.build;
        DataStream {
            build: Box::new(move |down, ctx| {
                let label = ctx.next_stage_label(Operator::<T, U>::name(&op));
                let metrics = StageMetrics::register(ctx.registry(), &label);
                upstream(
                    Box::new(OperatorStage::with_metrics(op, down, metrics, label)),
                    ctx,
                )
            }),
        }
    }

    /// 1:1 record transformation.
    pub fn map<U: Send + 'static>(self, f: impl FnMut(T) -> U + Send + 'static) -> DataStream<U> {
        self.transform(MapOperator::new(f))
    }

    /// Keeps records matching the predicate.
    pub fn filter(self, predicate: impl FnMut(&T) -> bool + Send + 'static) -> DataStream<T> {
        self.transform(FilterOperator::new(predicate))
    }

    /// Re-orders records by event time, releasing on watermarks.
    pub fn sort_by_event_time(
        self,
        extract: impl FnMut(&T) -> Timestamp + Send + 'static,
    ) -> DataStream<T> {
        self.sort_with(EventTimeSorter::new(extract))
    }

    /// Like [`DataStream::sort_by_event_time`], but over a caller-built
    /// sorter — the hook for a composite [`SortKey`] (an explicit
    /// tie-break next to the event time) and for installing a
    /// state-snapshot codec (see
    /// [`EventTimeSorter::with_state_codec`]) before the sorter enters
    /// the pipeline. One label carries both the generic stage metrics
    /// and the sorter-specific late/lag/buffer metrics.
    pub fn sort_with<F, K>(self, sorter: EventTimeSorter<T, F, K>) -> DataStream<T>
    where
        F: FnMut(&T) -> K + Send + 'static,
        K: SortKey + Send + 'static,
    {
        let upstream = self.build;
        DataStream {
            build: Box::new(move |down, ctx| {
                let label = ctx.next_stage_label("event_time_sorter");
                let stage_metrics = StageMetrics::register(ctx.registry(), &label);
                let sorter = sorter.with_metrics(SorterMetrics::register(ctx.registry(), &label));
                upstream(
                    Box::new(OperatorStage::with_metrics(
                        sorter,
                        down,
                        stage_metrics,
                        label,
                    )),
                    ctx,
                )
            }),
        }
    }

    /// Builds and runs the pipeline, writing results into `sink`.
    ///
    /// Returns `Err` with the first [`StageError`] observed (failing
    /// stage label, failure kind, panic payload) if any stage panicked,
    /// a chaos fault fired, the deadline passed, or a worker died. The
    /// pipeline always terminates — no caller-visible panics, no hangs.
    pub fn execute_into(self, sink: impl Sink<T> + 'static) -> Result<(), PipelineError> {
        self.execute_into_with_registry(sink, &MetricsRegistry::new())
    }

    /// Like [`DataStream::execute_into`], but stages register their
    /// metrics against the given registry, which can be snapshotted
    /// after the run.
    pub fn execute_into_with_registry(
        self,
        sink: impl Sink<T> + 'static,
        registry: &MetricsRegistry,
    ) -> Result<(), PipelineError> {
        let mut ctx = ExecutionContext::with_registry(registry.clone());
        let cell = ctx.failure_cell();
        let driver = (self.build)(Box::new(SinkStage::with_failure_cell(sink, cell)), &mut ctx);
        ctx.drive(driver);
        ctx.finish()
    }

    /// Builds and runs the pipeline, collecting all results.
    pub fn collect(self) -> Result<Vec<T>, PipelineError> {
        let sink = SharedVecSink::new();
        self.execute_into(sink.clone())?;
        Ok(sink.take())
    }

    /// Builds and runs the pipeline, counting results.
    pub fn count(self) -> Result<u64, PipelineError> {
        let sink = crate::sink::CountSink::new();
        self.execute_into(sink.clone())?;
        Ok(sink.count())
    }
}

/// The source driver, one record at a time: record → watermark
/// generator → optional watermark, plus the two ways a source ends
/// (`W(MAX)` + `End`, or poison). A [`Source`] loop drives it
/// ([`DataStream::from_source`]).
struct SourceStep<T> {
    down: BoxStage<T>,
    generator: crate::watermark::WatermarkGenerator<T>,
    label: String,
    failures: FailureCell,
}

impl<T> SourceStep<T> {
    /// The step in front of `down`, labelled as this build's `source`
    /// stage.
    fn new(down: BoxStage<T>, strategy: WatermarkStrategy<T>, ctx: &mut ExecutionContext) -> Self {
        SourceStep {
            down,
            generator: strategy.generator(),
            label: ctx.next_stage_label("source"),
            failures: ctx.failure_cell(),
        }
    }

    /// Takes whatever `pull` yields through the driver: a record goes
    /// downstream with the watermark it closes, `None` ends the stream.
    /// Returns `false` once the stream has terminated.
    ///
    /// `pull` and watermark generation run under `catch_unwind`: a
    /// panicking source poisons the stream instead of unwinding the
    /// driver (which would leave every stage without a terminal marker).
    #[inline]
    fn step(&mut self, pull: impl FnOnce() -> Option<T>) -> bool {
        let pulled = {
            let generator = &mut self.generator;
            catch_unwind(AssertUnwindSafe(move || {
                pull().map(|r| {
                    let wm = generator.on_record(&r);
                    (r, wm)
                })
            }))
        };
        match pulled {
            Ok(Some((record, wm))) => {
                self.down.push(StreamElement::Record(record));
                if let Some(wm) = wm {
                    self.down.push(StreamElement::Watermark(wm));
                }
                true
            }
            Ok(None) => {
                self.down.push(StreamElement::Watermark(Timestamp::MAX));
                self.down.push(StreamElement::End);
                false
            }
            Err(payload) => {
                let error = StageError::from_panic(&self.label, payload);
                self.failures.record(error.clone());
                self.down.push(StreamElement::Failure(error));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_types::Duration;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn map_filter_collect() {
        let out = DataStream::from_vec(vec![1, 2, 3, 4, 5])
            .map(|x| x * 10)
            .filter(|x| *x > 20)
            .collect()
            .unwrap();
        assert_eq!(out, vec![30, 40, 50]);
    }

    #[test]
    fn inspect_and_count() {
        let seen = Arc::new(Mutex::new(0));
        let seen2 = Arc::clone(&seen);
        let n = DataStream::from_vec(vec![1, 2, 3])
            .map(move |x| {
                *seen2.lock() += 1;
                x
            })
            .count()
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(*seen.lock(), 3);
    }

    #[test]
    fn sort_with_ascending_watermarks() {
        // Slightly out-of-order input, bounded disorder of 2.
        let items = vec![3i64, 1, 2, 6, 4, 5];
        let src = VecSource::new(items);
        let strategy = WatermarkStrategy::bounded_out_of_orderness(
            |x: &i64| Timestamp(*x),
            Duration::from_millis(2),
            1,
        );
        let out = DataStream::from_source(src, strategy)
            .sort_by_event_time(|x| Timestamp(*x))
            .collect()
            .unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn pipeline_metrics_count_elements_per_stage() {
        let registry = MetricsRegistry::new();
        let sink = SharedVecSink::new();
        DataStream::from_vec(vec![1i64, 2, 3, 4])
            .map(|x| x + 1)
            .filter(|x| *x % 2 == 0)
            .execute_into_with_registry(sink.clone(), &registry)
            .unwrap();
        assert_eq!(sink.take(), vec![2, 4]);
        let snap = registry.snapshot();
        // Built sink-first: `filter` is stage 00, `map` is stage 01.
        assert_eq!(snap.counter("stage/01_map/elements_in"), 4);
        assert_eq!(snap.counter("stage/01_map/elements_out"), 4);
        assert_eq!(snap.counter("stage/00_filter/elements_in"), 4);
        assert_eq!(snap.counter("stage/00_filter/elements_out"), 2);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn watermark_high_water_mark_excludes_end_sentinel() {
        let registry = MetricsRegistry::new();
        let src = VecSource::new(vec![1i64, 5, 3]);
        let sink = SharedVecSink::new();
        DataStream::from_source(src, WatermarkStrategy::ascending(|x: &i64| Timestamp(*x)))
            .sort_by_event_time(|x| Timestamp(*x))
            .execute_into_with_registry(sink.clone(), &registry)
            .unwrap();
        // 3 arrived after W(5) had already released 5 — it is late and
        // surfaces out of order (exactly what the late counter tracks).
        assert_eq!(sink.take(), vec![1, 5, 3]);
        let snap = registry.snapshot();
        // Highest real watermark was W(5); the closing W(MAX) is excluded.
        assert_eq!(snap.gauge("stage/00_event_time_sorter/watermark_hwm_ms"), 5);
        assert_eq!(
            snap.counter("stage/00_event_time_sorter/late"),
            1,
            "record 3 after W(5)"
        );
    }
}
