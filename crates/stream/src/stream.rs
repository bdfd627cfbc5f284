//! The fluent `DataStream` pipeline API and its executors.
//!
//! A [`DataStream<T>`] is a *description* of a pipeline, composed
//! back-to-front: each combinator wraps the eventual downstream stage in
//! another [`Stage`]. Calling
//! [`DataStream::execute_into`] materializes the chain and drives the
//! source to completion.
//!
//! Everything runs on the calling thread, in a fully deterministic
//! order — what Icewafl needs for reproducible pollution. The fan-out
//! ([`DataStream::split_merge`]) pushes straight into its sub-pipelines
//! and merges them in watermark lockstep; no stage starts a thread.

use crate::checkpoint::{CheckpointBarrier, CheckpointCoordinator, WatermarkGenState};
use crate::element::StreamElement;
use crate::fault::{FailureCell, FailureKind, PipelineError, StageError};
use crate::keyed::KeyedProcessOperator;
use crate::metrics::{SorterMetrics, StageMetrics};
use crate::operator::{
    Collector, FilterOperator, FlatMapOperator, InspectOperator, MapOperator, Operator,
};
use crate::sink::{SharedVecSink, Sink};
use crate::sort::{EventTimeSorter, SortKey};
use crate::source::{Source, VecSource};
use crate::stage::{
    BatchingStage, BoxStage, DiscardStage, OperatorStage, SinkStage, Stage, WatermarkMerger,
};
use crate::watermark::{WatermarkGenerator, WatermarkStrategy};
use crate::window::{MicroBatcher, TumblingWindow, WindowPane};
use icewafl_obs::{Counter, MetricsRegistry};
use icewafl_types::{Duration, Timestamp};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Runs a fully built pipeline's source to completion.
type Driver = Box<dyn FnOnce() + Send>;

/// The source driver checks the wall-clock deadline once per this many
/// records (power-of-two mask), keeping `Instant::now` off the per-record
/// hot path.
const DEADLINE_CHECK_MASK: u64 = 255;

/// Deferred pipeline construction: given the downstream stage and the
/// execution context, produce the driver — or `None` when building left
/// nothing to drive (every head is parked for someone else to push
/// into).
type BuildFn<T> = Box<dyn FnOnce(BoxStage<T>, &mut ExecutionContext) -> Option<Driver> + Send>;

/// Builder for a sub-pipeline inside [`DataStream::split_merge`].
pub type SubPipelineBuilder<T, U> = Box<dyn FnOnce(DataStream<T>) -> DataStream<U> + Send>;

/// What a pipeline's stages share while it is built and run: the
/// [`MetricsRegistry`] they register their instrumentation against,
/// the stage numbering, the failure cell and the deadline.
#[derive(Default)]
pub struct ExecutionContext {
    registry: MetricsRegistry,
    stage_seq: u32,
    /// First-failure-wins cell shared with every fault-catching point of
    /// this execution (see [`fault`](crate::fault)).
    failures: FailureCell,
    /// Wall-clock instant after which source drivers poison the stream
    /// with a [`FailureKind::Deadline`] failure.
    deadline: Option<Instant>,
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

    /// Sets the wall-clock deadline source drivers enforce.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
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
    /// A stream fed by `source`, with watermarks per `strategy`.
    ///
    /// The runtime always emits a final `W(MAX)` watermark before the end
    /// marker, so buffering operators flush even under
    /// [`WatermarkStrategy::none`].
    pub fn from_source(source: impl Source<T> + 'static, strategy: WatermarkStrategy<T>) -> Self {
        Self::pulled(source, strategy, None)
    }

    /// A stream over an in-memory vector, without intermediate
    /// watermarks.
    pub fn from_vec(items: Vec<T>) -> Self {
        Self::from_source(VecSource::new(items), WatermarkStrategy::none())
    }

    /// Like [`DataStream::from_source`], but the driver additionally
    /// injects [`CheckpointBarrier`]s right after epoch-closing
    /// watermarks, as decided by `coordinator`.
    ///
    /// `base_offset` is the absolute record offset the source starts at
    /// (non-zero when resuming a replayable source mid-stream) and
    /// `resume_wm` the watermark-generator position captured at that
    /// offset — together they make a restored run's barrier cadence and
    /// watermark sequence identical to the undisturbed tail.
    pub fn from_source_checkpointed(
        source: impl Source<T> + 'static,
        strategy: WatermarkStrategy<T>,
        coordinator: CheckpointCoordinator,
        base_offset: u64,
        resume_wm: Option<WatermarkGenState>,
    ) -> Self {
        let checkpoint = SourceCheckpoint {
            coordinator,
            base_offset,
            resume_wm,
        };
        Self::pulled(source, strategy, Some(checkpoint))
    }

    /// The pull form of the source driver: a loop of [`SourceStep`]s
    /// over `source.next()` until the source ends or the step poisons
    /// the stream.
    fn pulled(
        source: impl Source<T> + 'static,
        strategy: WatermarkStrategy<T>,
        checkpoint: Option<SourceCheckpoint>,
    ) -> Self {
        DataStream {
            build: Box::new(move |down, ctx| {
                let mut source = source;
                let mut step = SourceStep::new(down, strategy, checkpoint, ctx);
                Some(Box::new(move || while step.step(|| source.next()) {}))
            }),
        }
    }

    /// The push form of the source driver: a stream with no source of
    /// its own, fed by the caller one record at a time through the
    /// [`PushPipeline`] that [`DataStream::open_into`] returns for the
    /// handle given back here. Every pushed record takes the same
    /// step through the driver a pulled one does — watermarks per
    /// `strategy`, barriers per `coordinator` — under the same `source`
    /// stage label, so a pushed run and a pulled run of one topology
    /// are the same sequence of elements.
    pub fn push_source(
        strategy: WatermarkStrategy<T>,
        coordinator: Option<CheckpointCoordinator>,
    ) -> (Self, PushSource<T>) {
        let handle = PushSource(Arc::new(Mutex::new(None)));
        let slot = Arc::clone(&handle.0);
        let checkpoint = coordinator.map(|coordinator| SourceCheckpoint {
            coordinator,
            base_offset: 0,
            resume_wm: None,
        });
        let stream = DataStream {
            // Parked the way `from_router_slot` parks a sub-stream head:
            // nothing is left to drive.
            build: Box::new(move |down, ctx| {
                *slot.lock() = Some(SourceStep::new(down, strategy, checkpoint, ctx));
                None
            }),
        };
        (stream, handle)
    }

    /// Internal: the head of a sub-pipeline that a split router pushes
    /// into directly. Building it parks the sub-pipeline's first stage
    /// in `slot` for the router to pick up; nothing is left to drive.
    fn from_router_slot(slot: HeadSlot<T>) -> Self {
        DataStream {
            build: Box::new(move |down, _ctx| {
                *slot.lock() = Some(down);
                None
            }),
        }
    }

    /// Applies an arbitrary [`Operator`].
    pub fn transform<U: Send + 'static>(self, op: impl Operator<T, U> + 'static) -> DataStream<U> {
        let upstream = self.build;
        DataStream {
            build: Box::new(move |down, ctx| {
                let label = ctx.next_stage_label(Operator::<T, U>::name(&op));
                let metrics = StageMetrics::register(ctx.registry(), &label);
                let deadline = ctx.deadline;
                upstream(
                    Box::new(
                        OperatorStage::with_metrics(op, down, metrics, label)
                            .with_deadline(deadline),
                    ),
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

    /// 1:n record transformation; `f` emits through the collector.
    pub fn flat_map<U: Send + 'static>(
        self,
        f: impl FnMut(T, &mut dyn Collector<U>) + Send + 'static,
    ) -> DataStream<U> {
        self.transform(FlatMapOperator::new(f))
    }

    /// Observes records without changing them.
    pub fn inspect(self, f: impl FnMut(&T) + Send + 'static) -> DataStream<T> {
        self.transform(InspectOperator::new(f))
    }

    /// Keyed stateful processing (see
    /// [`KeyedProcessOperator`]).
    pub fn keyed_process<K, S, U>(
        self,
        key_fn: impl FnMut(&T) -> K + Send + 'static,
        process_fn: impl FnMut(&mut S, T, &mut dyn Collector<U>) + Send + 'static,
    ) -> DataStream<U>
    where
        K: Eq + Hash + Send + 'static,
        S: Default + Send + 'static,
        U: Send + 'static,
    {
        self.transform(KeyedProcessOperator::new(key_fn, process_fn))
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
                let deadline = ctx.deadline;
                upstream(
                    Box::new(
                        OperatorStage::with_metrics(sorter, down, stage_metrics, label)
                            .with_deadline(deadline),
                    ),
                    ctx,
                )
            }),
        }
    }

    /// Coalesces consecutive records into [`StreamElement::Batch`]
    /// frames of up to `batch_size` before the next stage — e.g. so a
    /// sink with a whole-batch fast path (columnar frame encode) sees
    /// batches even behind a per-record emitter like the event-time
    /// sorter. Record order is unchanged and buffered records flush
    /// before any watermark, barrier, or terminal marker, so this is
    /// invisible to event-time and checkpoint semantics. A `batch_size`
    /// of 0 or 1 is the identity.
    pub fn rebatched(self, batch_size: usize) -> DataStream<T> {
        if batch_size <= 1 {
            return self;
        }
        let upstream = self.build;
        DataStream {
            build: Box::new(move |down, ctx| {
                upstream(Box::new(BatchingStage::new(down, batch_size)), ctx)
            }),
        }
    }

    /// Groups records into count-based micro-batches.
    pub fn micro_batch(self, size: usize) -> DataStream<Vec<T>> {
        self.transform(MicroBatcher::new(size))
    }

    /// Groups records into tumbling event-time windows.
    pub fn tumbling_window(
        self,
        size: Duration,
        extract: impl FnMut(&T) -> Timestamp + Send + 'static,
    ) -> DataStream<WindowPane<T>> {
        self.transform(TumblingWindow::new(size, extract))
    }

    /// Merges several streams into one. Watermarks are combined by
    /// minimum; the merged stream ends when all inputs have ended. The
    /// inputs' drivers run one after another on the calling thread.
    pub fn union(streams: Vec<DataStream<T>>) -> DataStream<T> {
        Self::union_batched(streams, 1)
    }

    /// Like [`DataStream::union`], but each input leg coalesces its
    /// records into [`StreamElement::Batch`] frames of up to
    /// `batch_size` before taking the shared merge lock, so the lock is
    /// taken per batch instead of per record.
    pub fn union_batched(streams: Vec<DataStream<T>>, batch_size: usize) -> DataStream<T> {
        DataStream {
            build: Box::new(move |down, ctx| {
                let n = streams.len();
                if n == 0 {
                    let mut down = down;
                    return Some(Box::new(move || {
                        down.push(StreamElement::Watermark(Timestamp::MAX));
                        down.push(StreamElement::End);
                    }));
                }
                let shared = Arc::new(Mutex::new(UnionInner::new(down, n)));
                let drivers: Vec<Driver> = streams
                    .into_iter()
                    .enumerate()
                    .filter_map(|(idx, s)| {
                        let input: BoxStage<T> = Box::new(UnionInput {
                            inner: Arc::clone(&shared),
                            idx,
                        });
                        let input: BoxStage<T> = if batch_size > 1 {
                            Box::new(BatchingStage::new(input, batch_size))
                        } else {
                            input
                        };
                        (s.build)(input, ctx)
                    })
                    .collect();
                if drivers.is_empty() {
                    None
                } else {
                    Some(Box::new(move || {
                        for d in drivers {
                            d();
                        }
                    }))
                }
            }),
        }
    }

    /// Fans the stream out into `builders.len()` sub-pipelines and merges
    /// their outputs — Icewafl's *integration scenario* (§2.2.2).
    ///
    /// For every record, `selector` fills `memberships` with the indices
    /// of the sub-pipelines that should receive it; indices may overlap,
    /// which is how "overlapping sub-streams" (Algorithm 1, line 4)
    /// arise. Every member but the last gets a clone of the record, and
    /// the last gets the record itself.
    ///
    /// Runs deterministically, in *watermark lockstep*: the router hands
    /// every flushed batch, watermark, barrier and end marker straight
    /// to the first stage of the sub-pipeline it is for, on the calling
    /// thread. All sub-streams therefore cross each watermark in the
    /// same step, the union's combined watermark advances once per
    /// source watermark, and at most one watermark period of records per
    /// sub-stream is in flight between the router and whatever follows
    /// the union — nothing is queued per sub-stream.
    pub fn split_merge<U: Send + 'static>(
        self,
        selector: impl FnMut(&T, &mut Vec<usize>) + Send + 'static,
        builders: Vec<SubPipelineBuilder<T, U>>,
    ) -> DataStream<U>
    where
        T: Clone,
    {
        self.split_merge_batched(selector, builders, 1)
    }

    /// Like [`DataStream::split_merge`], but hands records to the
    /// sub-streams in [`StreamElement::Batch`] frames of up to
    /// `batch_size` records (flushed at every watermark and terminal
    /// marker, so event-time semantics are unchanged).
    pub fn split_merge_batched<U: Send + 'static>(
        self,
        selector: impl FnMut(&T, &mut Vec<usize>) + Send + 'static,
        builders: Vec<SubPipelineBuilder<T, U>>,
        batch_size: usize,
    ) -> DataStream<U>
    where
        T: Clone,
    {
        let upstream = self.build;
        let batch_size = batch_size.max(1);
        DataStream {
            build: Box::new(move |down, ctx| {
                let m = builders.len();
                let slots: Vec<HeadSlot<T>> = (0..m).map(|_| HeadSlot::default()).collect();
                let subs: Vec<DataStream<U>> = builders
                    .into_iter()
                    .zip(&slots)
                    .map(|(builder, slot)| builder(DataStream::from_router_slot(Arc::clone(slot))))
                    .collect();
                let label = ctx.next_stage_label("split_router");
                let sends = ctx.registry().counter(&format!("{label}/sends"));
                // Build the union (and with it the sub-pipelines) before
                // the upstream so stage numbering stays sink-first: the
                // source keeps the highest index.
                let union_driver = (DataStream::union_batched(subs, batch_size).build)(down, ctx);
                // Building a sub-pipeline parked its first stage in its
                // slot; one whose builder dropped the routed input has
                // none, and its records go nowhere.
                let heads = slots
                    .into_iter()
                    .map(|slot| slot.lock().take().unwrap_or_else(|| Box::new(DiscardStage)))
                    .collect();
                let router = RouterStage {
                    heads,
                    bufs: (0..m).map(|_| Vec::new()).collect(),
                    batch_size,
                    selector,
                    memberships: Vec::with_capacity(m),
                    sends,
                    label,
                };
                let parent_driver = upstream(Box::new(router), ctx);
                match (parent_driver, union_driver) {
                    // The router feeds every sub-pipeline while the
                    // source runs; a sub-stream that merged in a source
                    // of its own drains it afterwards.
                    (Some(parent_driver), Some(union_driver)) => Some(Box::new(move || {
                        parent_driver();
                        union_driver();
                    })),
                    (parent_driver, union_driver) => parent_driver.or(union_driver),
                }
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
        self.execute_into_with_options(sink, registry, None)
    }

    /// Full-control executor: instrumentation registry plus an optional
    /// wall-clock deadline enforced by the source driver.
    pub fn execute_into_with_options(
        self,
        sink: impl Sink<T> + 'static,
        registry: &MetricsRegistry,
        deadline: Option<Instant>,
    ) -> Result<(), PipelineError> {
        self.execute_into_resumed(sink, registry, deadline, 0)
    }

    /// Like [`DataStream::execute_into_with_options`], but for a
    /// checkpoint-restored attempt whose sink already holds
    /// `committed_base` records from before the restore: barrier commits
    /// record absolute sink offsets (`committed_base` + this attempt's
    /// writes), keeping checkpoint frames valid across nested restores.
    pub fn execute_into_resumed(
        self,
        sink: impl Sink<T> + 'static,
        registry: &MetricsRegistry,
        deadline: Option<Instant>,
        committed_base: u64,
    ) -> Result<(), PipelineError> {
        let mut ctx = ExecutionContext::with_registry(registry.clone());
        ctx.set_deadline(deadline);
        let cell = ctx.failure_cell();
        let driver = (self.build)(
            Box::new(SinkStage::resumed(sink, cell, committed_base)),
            &mut ctx,
        );
        if let Some(driver) = driver {
            ctx.drive(driver);
        }
        ctx.finish()
    }

    /// Builds the pipeline behind a [`DataStream::push_source`] head and
    /// hands it to the caller to feed: the counterpart of
    /// [`DataStream::execute_into_with_registry`] for a source that is
    /// not pulled.
    ///
    /// A topology that merges in a source of its own (a sub-pipeline of
    /// a [`split_merge`](DataStream::split_merge) that ignores its
    /// routed input) leaves that source to drive; it runs in
    /// [`PushPipeline::finish`], after the end marker, which is the
    /// order the pulled form runs it in.
    ///
    /// # Panics
    ///
    /// If `source` is not the handle of this stream's own head.
    pub fn open_into<In: Send + 'static>(
        self,
        source: PushSource<In>,
        sink: impl Sink<T> + 'static,
        registry: &MetricsRegistry,
    ) -> PushPipeline<In> {
        let mut ctx = ExecutionContext::with_registry(registry.clone());
        let cell = ctx.failure_cell();
        let driver = (self.build)(Box::new(SinkStage::with_failure_cell(sink, cell)), &mut ctx);
        let step = source
            .0
            .lock()
            .take()
            .expect("the push source heads the stream being opened");
        PushPipeline {
            step,
            open: true,
            driver,
            ctx,
        }
    }

    /// Builds and runs the pipeline, collecting all results.
    pub fn collect(self) -> Result<Vec<T>, PipelineError> {
        let sink = SharedVecSink::new();
        self.execute_into(sink.clone())?;
        Ok(sink.take())
    }

    /// Like [`DataStream::collect`], but instrumented against `registry`.
    pub fn collect_with_registry(
        self,
        registry: &MetricsRegistry,
    ) -> Result<Vec<T>, PipelineError> {
        let sink = SharedVecSink::new();
        self.execute_into_with_registry(sink.clone(), registry)?;
        Ok(sink.take())
    }

    /// Builds and runs the pipeline, counting results.
    pub fn count(self) -> Result<u64, PipelineError> {
        let sink = crate::sink::CountSink::new();
        self.execute_into(sink.clone())?;
        Ok(sink.count())
    }
}

/// Checkpoint wiring of a source driver: who decides where barriers
/// go, the absolute record offset the source starts at, and the
/// watermark-generator position to resume from.
struct SourceCheckpoint {
    coordinator: CheckpointCoordinator,
    base_offset: u64,
    resume_wm: Option<WatermarkGenState>,
}

/// The source driver, one record at a time: record → watermark
/// generator → optional watermark → optional checkpoint barrier, plus
/// the two ways a source ends (`W(MAX)` + `End`, or poison). A
/// [`Source`] loop drives it ([`DataStream::from_source`]) or the
/// caller does ([`PushPipeline`]).
struct SourceStep<T> {
    down: BoxStage<T>,
    generator: WatermarkGenerator<T>,
    checkpoint: Option<SourceCheckpoint>,
    emitted: u64,
    label: String,
    failures: FailureCell,
    deadline: Option<Instant>,
}

impl<T> SourceStep<T> {
    /// The step in front of `down`, labelled as this build's `source`
    /// stage.
    fn new(
        down: BoxStage<T>,
        strategy: WatermarkStrategy<T>,
        checkpoint: Option<SourceCheckpoint>,
        ctx: &mut ExecutionContext,
    ) -> Self {
        let mut generator = strategy.generator();
        if let Some(state) = checkpoint.as_ref().and_then(|c| c.resume_wm.as_ref()) {
            generator.restore(state);
        }
        SourceStep {
            down,
            generator,
            checkpoint,
            emitted: 0,
            label: ctx.next_stage_label("source"),
            failures: ctx.failure_cell(),
            deadline: ctx.deadline,
        }
    }

    /// Takes whatever `pull` yields through the driver: a record goes
    /// downstream with the watermark and barrier it closes, `None` ends
    /// the stream. Returns `false` once the stream has terminated.
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
                self.emitted += 1;
                if let Some(checkpoint) = &mut self.checkpoint {
                    checkpoint.coordinator.on_record();
                }
                if let Some(wm) = wm {
                    self.down.push(StreamElement::Watermark(wm));
                    if let Some(checkpoint) = &mut self.checkpoint {
                        if let Some(barrier) = checkpoint.coordinator.on_watermark(
                            wm,
                            checkpoint.base_offset + self.emitted,
                            self.generator.state(),
                        ) {
                            self.down.push(StreamElement::Barrier(barrier));
                        }
                    }
                }
                if self.emitted & DEADLINE_CHECK_MASK == 0
                    && self.deadline.is_some_and(|dl| Instant::now() >= dl)
                {
                    self.poison(StageError::deadline(&self.label));
                    return false;
                }
                true
            }
            Ok(None) => {
                self.down.push(StreamElement::Watermark(Timestamp::MAX));
                self.down.push(StreamElement::End);
                false
            }
            Err(payload) => {
                self.poison(StageError::from_panic(&self.label, payload));
                false
            }
        }
    }

    fn poison(&mut self, error: StageError) {
        self.failures.record(error.clone());
        self.down.push(StreamElement::Failure(error));
    }
}

/// The caller's end of a [`DataStream::push_source`] head: names the
/// stream to [`DataStream::open_into`].
pub struct PushSource<T>(Arc<Mutex<Option<SourceStep<T>>>>);

/// A built pipeline whose source is the caller (see
/// [`DataStream::push_source`]): [`push`](PushPipeline::push) runs one
/// record through every stage up to the sink before it returns, so the
/// caller decides when the pipeline works and holds nothing of the
/// stream but the record in hand. [`finish`](PushPipeline::finish) ends
/// the stream; a pipeline dropped unfinished is poisoned.
pub struct PushPipeline<T> {
    step: SourceStep<T>,
    /// Whether the head still takes records (no end, no poison yet).
    open: bool,
    /// What the topology left to drive besides the pushed head, run by
    /// [`finish`](PushPipeline::finish).
    driver: Option<Driver>,
    ctx: ExecutionContext,
}

impl<T> PushPipeline<T> {
    /// Feeds one record. Ignored once the stream has terminated.
    #[inline]
    pub fn push(&mut self, record: T) {
        if self.open {
            self.open = self.step.step(move || Some(record));
        }
    }

    /// Whether some stage has failed; a failed pipeline ignores what it
    /// is fed, so the caller may as well [`finish`](PushPipeline::finish).
    pub fn is_failed(&self) -> bool {
        self.ctx.failures.is_failed()
    }

    /// Ends the stream (`W(MAX)`, then the end marker), runs whatever
    /// else the topology left to drive and reports the first failure,
    /// like [`DataStream::execute_into`] once its driver has returned.
    pub fn finish(mut self) -> Result<(), PipelineError> {
        if std::mem::take(&mut self.open) {
            self.step.step(|| None);
        }
        if let Some(driver) = self.driver.take() {
            self.ctx.drive(driver);
        }
        self.ctx.finish()
    }
}

impl<T> Drop for PushPipeline<T> {
    fn drop(&mut self) {
        if std::mem::take(&mut self.open) {
            self.step.poison(StageError::new(
                &self.step.label,
                FailureKind::Disconnect,
                "push pipeline dropped before the end of its stream",
            ));
        }
    }
}

/// Shared downstream state of a union point.
struct UnionInner<T> {
    down: BoxStage<T>,
    merger: WatermarkMerger,
    pending: usize,
    ended: bool,
    /// Checkpoint-barrier alignment (Chandy–Lamport style): the barrier
    /// in flight, how many inputs have delivered it, which inputs are
    /// blocked waiting for the rest, and the elements those blocked
    /// inputs delivered in the meantime. A consistent snapshot requires
    /// that the barrier reaches downstream state *after* every
    /// pre-barrier record and *before* any post-barrier record, from
    /// every input.
    current_barrier: Option<CheckpointBarrier>,
    arrived: usize,
    blocked: Vec<bool>,
    done: Vec<bool>,
    held: Vec<VecDeque<StreamElement<T>>>,
}

impl<T: Send> UnionInner<T> {
    fn new(down: BoxStage<T>, n: usize) -> Self {
        UnionInner {
            down,
            merger: WatermarkMerger::new(n),
            pending: n,
            ended: false,
            current_barrier: None,
            arrived: 0,
            blocked: vec![false; n],
            done: vec![false; n],
            held: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Entry point for input `idx` (called under the union lock):
    /// elements from barrier-blocked inputs are parked, everything else
    /// merges immediately, then any completed alignment releases.
    fn handle(&mut self, idx: usize, element: StreamElement<T>) {
        if self.ended {
            return;
        }
        if self.blocked[idx] {
            self.held[idx].push_back(element);
        } else {
            self.process(idx, element);
        }
        self.release_aligned();
    }

    fn process(&mut self, idx: usize, element: StreamElement<T>) {
        match element {
            StreamElement::Record(r) => self.down.push(StreamElement::Record(r)),
            // Forwarded intact: one lock acquisition for the whole batch.
            StreamElement::Batch(b) => self.down.push(StreamElement::Batch(b)),
            StreamElement::Watermark(wm) => {
                if let Some(combined) = self.merger.advance(idx, wm) {
                    self.down.push(StreamElement::Watermark(combined));
                }
            }
            StreamElement::Barrier(b) => {
                // First arrival carries the barrier; the input blocks
                // until every live input delivers its copy.
                self.blocked[idx] = true;
                self.arrived += 1;
                if self.current_barrier.is_none() {
                    self.current_barrier = Some(b);
                }
            }
            StreamElement::End => {
                self.done[idx] = true;
                // An ended input can no longer hold the watermark back.
                if let Some(combined) = self.merger.advance(idx, Timestamp::MAX) {
                    self.down.push(StreamElement::Watermark(combined));
                }
                self.pending -= 1;
                if self.pending == 0 {
                    self.ended = true;
                    self.down.push(StreamElement::End);
                }
            }
            StreamElement::Failure(e) => {
                // Poison from any input terminates the merged stream
                // immediately; the other inputs see `ended` and drop
                // whatever they still deliver. An in-flight alignment is
                // abandoned — its checkpoint simply never commits.
                self.ended = true;
                self.down.push(StreamElement::Failure(e));
            }
        }
    }

    /// Forwards the in-flight barrier once every live (non-ended) input
    /// has delivered it, then replays the elements blocked inputs
    /// parked — in input order, each input up to its next barrier.
    /// Loops because the replay may immediately complete the next
    /// alignment.
    fn release_aligned(&mut self) {
        loop {
            if self.ended {
                return;
            }
            let live = self.done.iter().filter(|d| !**d).count();
            if self.current_barrier.is_none() || live == 0 || self.arrived < live {
                return;
            }
            let barrier = self.current_barrier.take().expect("barrier checked above");
            self.arrived = 0;
            for flag in self.blocked.iter_mut() {
                *flag = false;
            }
            self.down.push(StreamElement::Barrier(barrier));
            for idx in 0..self.held.len() {
                while !self.blocked[idx] && !self.ended {
                    let Some(element) = self.held[idx].pop_front() else {
                        break;
                    };
                    self.process(idx, element);
                }
            }
        }
    }
}

/// One input leg of a union.
struct UnionInput<T> {
    inner: Arc<Mutex<UnionInner<T>>>,
    idx: usize,
}

impl<T: Send> Stage<T> for UnionInput<T> {
    fn push(&mut self, element: StreamElement<T>) {
        self.inner.lock().handle(self.idx, element);
    }
}

/// Where a split router finds the first stage of one sub-pipeline:
/// parked by [`DataStream::from_router_slot`] when the sub-pipeline is
/// built, taken by [`DataStream::split_merge_batched`] right after.
type HeadSlot<T> = Arc<Mutex<Option<BoxStage<T>>>>;

/// Routes records to selected sub-streams, broadcasting watermarks,
/// barriers and terminal markers (end or poison) to all of them, by
/// pushing into each sub-stream's first stage on the router's own
/// thread. Records are staged in per-target buffers and handed over as
/// [`StreamElement::Batch`] frames of up to `batch_size`; every buffer
/// is flushed before any watermark or terminal marker is sent, so no
/// control element overtakes a record (and poison never strands a
/// partial batch).
struct RouterStage<T, F> {
    heads: Vec<BoxStage<T>>,
    bufs: Vec<Vec<T>>,
    batch_size: usize,
    selector: F,
    memberships: Vec<usize>,
    /// Elements handed to a sub-stream (in records for batch frames).
    sends: Counter,
    label: String,
}

/// Hands one element to a sub-stream's first stage. The call *is* the
/// sub-stream processing the element — there is no queue to flush into
/// or block on — so the only thing to count is the send.
fn deliver<T>(head: &mut BoxStage<T>, element: StreamElement<T>, sends: &Counter) {
    sends.add(element.record_count().max(1) as u64);
    head.push(element);
}

impl<T: Clone + Send, F> RouterStage<T, F> {
    /// Stages one record for target `i`, handing over a full batch.
    fn route(&mut self, i: usize, r: T) {
        if self.batch_size == 1 {
            deliver(&mut self.heads[i], StreamElement::Record(r), &self.sends);
            return;
        }
        let buf = &mut self.bufs[i];
        if buf.capacity() == 0 {
            buf.reserve_exact(self.batch_size);
        }
        buf.push(r);
        if buf.len() >= self.batch_size {
            let batch = std::mem::replace(buf, Vec::with_capacity(self.batch_size));
            deliver(&mut self.heads[i], StreamElement::Batch(batch), &self.sends);
        }
    }

    /// Flushes every target's staged records.
    fn flush_all(&mut self) {
        for (buf, head) in self.bufs.iter_mut().zip(&mut self.heads) {
            if !buf.is_empty() {
                let batch = std::mem::take(buf);
                deliver(head, StreamElement::Batch(batch), &self.sends);
            }
        }
    }

    /// Flushes, then hands every sub-stream its own copy of a control
    /// element.
    fn broadcast(&mut self, mut element: impl FnMut() -> StreamElement<T>) {
        self.flush_all();
        for head in &mut self.heads {
            deliver(head, element(), &self.sends);
        }
    }

    /// Like [`RouterStage::broadcast`] for a terminal marker: the heads
    /// are dropped with it, so routing stops. Staged records are
    /// flushed first — poison terminates the stream but must not
    /// swallow records that preceded it.
    fn terminate(&mut self, element: impl FnMut() -> StreamElement<T>) {
        self.broadcast(element);
        self.heads.clear();
    }
}

impl<T, F> Stage<T> for RouterStage<T, F>
where
    T: Clone + Send,
    F: FnMut(&T, &mut Vec<usize>) + Send,
{
    fn push(&mut self, element: StreamElement<T>) {
        match element {
            StreamElement::Record(r) => {
                self.memberships.clear();
                // A panicking selector poisons every sub-stream (instead
                // of unwinding the parent driver past the sub-streams
                // without a terminal marker).
                let result = {
                    let selector = &mut self.selector;
                    let memberships = &mut self.memberships;
                    catch_unwind(AssertUnwindSafe(|| (selector)(&r, memberships)))
                };
                if let Err(payload) = result {
                    let error = StageError::from_panic(&self.label, payload);
                    self.terminate(|| StreamElement::Failure(error.clone()));
                    return;
                }
                self.memberships.retain(|&i| i < self.heads.len());
                self.memberships.dedup();
                // Every member but the last gets a clone; the last gets
                // the record itself.
                if let Some(&last) = self.memberships.last() {
                    for k in 0..self.memberships.len() - 1 {
                        let i = self.memberships[k];
                        self.route(i, r.clone());
                    }
                    self.route(last, r);
                }
            }
            StreamElement::Batch(batch) => {
                // Routers sit directly under per-record sources today,
                // but stay batch-transparent like every other stage.
                for r in batch {
                    self.push(StreamElement::Record(r));
                }
            }
            StreamElement::Watermark(wm) => self.broadcast(|| StreamElement::Watermark(wm)),
            // Broadcast like a watermark: clones share one pending
            // snapshot, so every sub-stream contributes to the same
            // frame and the union re-aligns them downstream.
            StreamElement::Barrier(b) => self.broadcast(|| StreamElement::Barrier(b.clone())),
            StreamElement::End => self.terminate(|| StreamElement::End),
            StreamElement::Failure(e) => self.terminate(|| StreamElement::Failure(e.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn flat_map_expands() {
        let out = DataStream::from_vec(vec![2, 0, 1])
            .flat_map(|x, out| {
                for _ in 0..x {
                    out.collect(x);
                }
            })
            .collect()
            .unwrap();
        assert_eq!(out, vec![2, 2, 1]);
    }

    #[test]
    fn inspect_and_count() {
        let seen = Arc::new(Mutex::new(0));
        let seen2 = Arc::clone(&seen);
        let n = DataStream::from_vec(vec![1, 2, 3])
            .inspect(move |_| *seen2.lock() += 1)
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

    #[test]
    fn union_merges_all_records() {
        let a = DataStream::from_vec(vec![1, 2]);
        let b = DataStream::from_vec(vec![3, 4]);
        let out = DataStream::union(vec![a, b]).collect().unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn union_of_nothing_is_empty() {
        let out: Vec<i64> = DataStream::union(vec![]).collect().unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn union_watermarks_are_merged_by_min() {
        // Two sources with ascending watermarks; a sorter downstream of
        // the union sees only combined (min) watermarks, so the merged
        // output is globally sorted.
        let mk = |items: Vec<i64>| {
            DataStream::from_source(
                VecSource::new(items),
                WatermarkStrategy::ascending(|x: &i64| Timestamp(*x)),
            )
        };
        let out = DataStream::union(vec![mk(vec![1, 3, 5]), mk(vec![2, 4, 6])])
            .sort_by_event_time(|x| Timestamp(*x))
            .collect()
            .unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn split_merge_round_robin() {
        let builders: Vec<SubPipelineBuilder<i64, i64>> = vec![
            Box::new(|s| s.map(|x| x + 1000)),
            Box::new(|s| s.map(|x| x + 2000)),
        ];
        let mut out = DataStream::from_vec(vec![0, 1, 2, 3])
            .split_merge(|x, m| m.push((*x % 2) as usize), builders)
            .collect()
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1000, 1002, 2001, 2003]);
    }

    #[test]
    fn split_merge_overlapping_memberships_clone_records() {
        let builders: Vec<SubPipelineBuilder<i64, i64>> = vec![
            Box::new(|s| s.map(|x| x * 10)),
            Box::new(|s| s.map(|x| x * 100)),
        ];
        let mut out = DataStream::from_vec(vec![1, 2])
            .split_merge(
                |_x, m| {
                    m.push(0);
                    m.push(1);
                },
                builders,
            )
            .collect()
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![10, 20, 100, 200]);
    }

    #[test]
    fn split_merge_ignores_out_of_range_and_duplicate_memberships() {
        let builders: Vec<SubPipelineBuilder<i64, i64>> = vec![Box::new(|s| s)];
        let out = DataStream::from_vec(vec![7])
            .split_merge(
                |_x, m| {
                    m.push(0);
                    m.push(0);
                    m.push(5);
                },
                builders,
            )
            .collect()
            .unwrap();
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn split_merge_is_batch_size_invariant() {
        // Overlapping memberships (every tenth record goes to two
        // sub-streams; all but the last get a clone) through a filter:
        // the same records come out whatever the frame size.
        let input: Vec<String> = (0..5_000).map(|x| x.to_string()).collect();
        let run = |batch_size: usize| {
            let builders: Vec<SubPipelineBuilder<String, String>> = vec![
                Box::new(|s| s.map(|x| format!("a{x}"))),
                Box::new(|s| s.filter(|x| x.len() % 2 == 0)),
                Box::new(|s| s.map(|x| format!("c{x}"))),
            ];
            let selector = |x: &String, m: &mut Vec<usize>| {
                let n: usize = x.parse().unwrap();
                m.push(n % 3);
                if n.is_multiple_of(10) {
                    m.push((n + 1) % 3);
                }
            };
            let mut out = DataStream::from_vec(input.clone())
                .split_merge_batched(selector, builders, batch_size)
                .collect()
                .unwrap();
            out.sort_unstable();
            out
        };
        let unbatched = run(1);
        assert!(unbatched.iter().any(|x| x.starts_with('a')));
        assert!(unbatched.iter().any(|x| x.starts_with('c')));
        for batch_size in [7, 256] {
            assert_eq!(run(batch_size), unbatched, "batch {batch_size}");
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn sequential_split_merge_crosses_watermarks_in_lockstep() {
        // One watermark per record: every sub-stream sees each
        // watermark right after its share of the records before it, so
        // the union's combined watermark follows the source and the
        // sorter behind it never holds more than a few records (draining
        // the sub-streams one after another would park n/2 in it).
        let registry = MetricsRegistry::new();
        let input: Vec<i64> = (0..10_000).collect();
        let builders: Vec<SubPipelineBuilder<i64, i64>> =
            vec![Box::new(|s| s), Box::new(|s| s.map(|x| x))];
        let out = DataStream::from_source(
            VecSource::new(input.clone()),
            WatermarkStrategy::ascending(|x: &i64| Timestamp(*x)),
        )
        .split_merge_batched(|x, m| m.push((*x % 2) as usize), builders, 16)
        .sort_by_event_time(|x| Timestamp(*x))
        .collect_with_registry(&registry)
        .unwrap();
        assert_eq!(out, input);
        let snap = registry.snapshot();
        assert!(snap.gauge("stage/00_event_time_sorter/buffer_max") <= 2);
        assert_eq!(snap.counter("stage/00_event_time_sorter/heaped"), 0);
        // The router still counts what it hands over: every record,
        // plus each watermark, W(MAX) and End once per sub-stream.
        assert_eq!(
            snap.counter("stage/01_split_router/sends"),
            10_000 + 2 * (10_000 + 2)
        );
    }

    /// The topology the push-pipeline tests share: a two-way split, a
    /// sorter.
    fn fan_out_and_sort(head: DataStream<i64>) -> DataStream<i64> {
        let builders: Vec<SubPipelineBuilder<i64, i64>> =
            vec![Box::new(|s| s.map(|x| x)), Box::new(|s| s.map(|x| x))];
        head.split_merge_batched(|x, m| m.push((*x % 2) as usize), builders, 16)
            .sort_by_event_time(|x| Timestamp(*x))
    }

    fn every_eighth() -> WatermarkStrategy<i64> {
        WatermarkStrategy::bounded_out_of_orderness(|x: &i64| Timestamp(*x), Duration::ZERO, 8)
    }

    #[test]
    fn pushed_pipeline_is_the_pulled_one_element_for_element() {
        let input: Vec<i64> = (0..1_000).collect();
        let pulled_registry = MetricsRegistry::new();
        let pulled = fan_out_and_sort(DataStream::from_source(
            VecSource::new(input.clone()),
            every_eighth(),
        ))
        .collect_with_registry(&pulled_registry)
        .unwrap();

        let pushed_registry = MetricsRegistry::new();
        let sink = SharedVecSink::new();
        let (head, source) = DataStream::push_source(every_eighth(), None);
        let mut pipeline = fan_out_and_sort(head).open_into(source, sink.clone(), &pushed_registry);
        // Every head is parked: nothing is left to drive.
        assert!(pipeline.driver.is_none());
        for x in &input {
            pipeline.push(*x);
            // Lockstep: all but the open watermark period is out.
            assert!(sink.len() as i64 > *x - 8, "record {x} held back");
        }
        assert!(!pipeline.is_failed());
        pipeline.finish().unwrap();
        assert_eq!(sink.take(), pulled);
        // Same stages under the same labels doing the same work (the
        // histograms hold wall-clock samples).
        let (pushed, pulled) = (pushed_registry.snapshot(), pulled_registry.snapshot());
        assert_eq!(pushed.counters, pulled.counters);
        assert_eq!(pushed.gauges, pulled.gauges);
    }

    #[test]
    fn pushed_pipeline_takes_its_barriers_like_a_pulled_one() {
        let store = Arc::new(crate::checkpoint::CheckpointStore::new());
        let coordinator = CheckpointCoordinator::new(Arc::clone(&store), 2, 0);
        let sink = SharedVecSink::new();
        let (head, source) = DataStream::push_source(every_eighth(), Some(coordinator));
        let mut pipeline =
            fan_out_and_sort(head).open_into(source, sink.clone(), &MetricsRegistry::new());
        for x in 0..64 {
            pipeline.push(x);
        }
        pipeline.finish().unwrap();
        // 8 watermarks, a barrier behind every second one.
        assert_eq!(store.checkpoints_taken(), 4);
        let frame = store.latest().unwrap();
        assert_eq!((frame.epoch, frame.source_offset), (4, 64));
        assert_eq!(sink.len(), 64);
    }

    #[test]
    fn a_pushed_sub_pipeline_with_a_source_of_its_own_matches_the_pulled_one() {
        // The second sub-stream ignores its routed input and merges in
        // a source of its own. The pulled form drives that source after
        // the parent's; the pushed form leaves it to `finish`, on the
        // caller's thread, after the end marker.
        let merged_own_source = |head: DataStream<i64>| {
            let builders: Vec<SubPipelineBuilder<i64, i64>> = vec![
                Box::new(|s| s.map(|x| x * 10)),
                Box::new(|_routed| DataStream::from_vec(vec![-1, 5])),
            ];
            head.split_merge_batched(|x, m| m.push((*x % 2) as usize), builders, 4)
                .sort_by_event_time(|x| Timestamp(*x))
        };
        let input: Vec<i64> = (0..100).collect();
        let pulled = merged_own_source(DataStream::from_source(
            VecSource::new(input.clone()),
            every_eighth(),
        ))
        .collect()
        .unwrap();
        assert_eq!(pulled.len(), 52);

        let sink = SharedVecSink::new();
        let (head, source) = DataStream::push_source(every_eighth(), None);
        let mut pipeline =
            merged_own_source(head).open_into(source, sink.clone(), &MetricsRegistry::new());
        assert!(
            pipeline.driver.is_some(),
            "the merged-in source is left over"
        );
        for x in input {
            pipeline.push(x);
        }
        // The merged-in input has not delivered a watermark yet, so the
        // sorter holds everything back.
        assert_eq!(sink.len(), 0);
        pipeline.finish().unwrap();
        assert_eq!(sink.take(), pulled);
    }

    #[test]
    fn pushed_pipeline_failures_are_typed_and_final() {
        let (head, source) = DataStream::push_source(WatermarkStrategy::none(), None);
        let mut pipeline = head
            .map(|x: i64| if x == 2 { panic!("boom") } else { x })
            .open_into(source, SharedVecSink::new(), &MetricsRegistry::new());
        for x in 0..4 {
            pipeline.push(x);
        }
        assert!(pipeline.is_failed());
        let err = pipeline.finish().unwrap_err();
        assert_eq!((err.stage(), err.message()), ("stage/00_map", "boom"));
    }

    #[test]
    fn dropping_an_unfinished_push_pipeline_closes_its_sink() {
        let finished = Arc::new(Mutex::new(false));
        let flag = Arc::clone(&finished);
        struct FlagSink(Arc<Mutex<bool>>);
        impl Sink<i64> for FlagSink {
            fn write(&mut self, _record: i64) {}
            fn finish(&mut self) {
                *self.0.lock() = true;
            }
        }
        let (head, source) = DataStream::push_source(every_eighth(), None);
        let mut pipeline =
            fan_out_and_sort(head).open_into(source, FlagSink(flag), &MetricsRegistry::new());
        for x in 0..100 {
            pipeline.push(x);
        }
        // The poison reaches the sink before `drop` returns.
        drop(pipeline);
        assert!(*finished.lock(), "the sink was closed on the way out");
    }

    #[test]
    fn sub_pipeline_that_drops_its_routed_input_discards_it() {
        let builders: Vec<SubPipelineBuilder<i64, i64>> = vec![
            Box::new(|s| s.map(|x| x * 10)),
            Box::new(|_routed| DataStream::from_vec(vec![-1])),
        ];
        let mut out = DataStream::from_vec(vec![1, 2, 3, 4])
            .split_merge(|x, m| m.push((*x % 2) as usize), builders)
            .collect()
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![-1, 20, 40]);
    }

    #[test]
    fn keyed_process_through_pipeline() {
        let out = DataStream::from_vec(vec![1, 2, 3, 4, 5, 6])
            .keyed_process(
                |x: &i32| x % 2,
                |sum: &mut i32, x, out: &mut dyn Collector<i32>| {
                    *sum += x;
                    out.collect(*sum);
                },
            )
            .collect()
            .unwrap();
        // odd: 1, 4, 9 — even: 2, 6, 12 — interleaved by arrival
        assert_eq!(out, vec![1, 2, 4, 6, 9, 12]);
    }

    #[test]
    fn micro_batch_through_pipeline() {
        let out = DataStream::from_vec(vec![1, 2, 3, 4, 5])
            .micro_batch(2)
            .collect()
            .unwrap();
        assert_eq!(out, vec![vec![1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn tumbling_window_through_pipeline() {
        let out = DataStream::from_vec(vec![1i64, 5, 12])
            .tumbling_window(Duration::from_millis(10), |x| Timestamp(*x))
            .collect()
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].records, vec![1, 5]);
        assert_eq!(out[1].records, vec![12]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn pipeline_metrics_count_elements_per_stage() {
        let registry = MetricsRegistry::new();
        let out = DataStream::from_vec(vec![1i64, 2, 3, 4])
            .map(|x| x + 1)
            .filter(|x| *x % 2 == 0)
            .collect_with_registry(&registry)
            .unwrap();
        assert_eq!(out, vec![2, 4]);
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
        let out =
            DataStream::from_source(src, WatermarkStrategy::ascending(|x: &i64| Timestamp(*x)))
                .sort_by_event_time(|x| Timestamp(*x))
                .collect_with_registry(&registry)
                .unwrap();
        // 3 arrived after W(5) had already released 5 — it is late and
        // surfaces out of order (exactly what the late counter tracks).
        assert_eq!(out, vec![1, 5, 3]);
        let snap = registry.snapshot();
        // Highest real watermark was W(5); the closing W(MAX) is excluded.
        assert_eq!(snap.gauge("stage/00_event_time_sorter/watermark_hwm_ms"), 5);
        assert_eq!(
            snap.counter("stage/00_event_time_sorter/late"),
            1,
            "record 3 after W(5)"
        );
    }

    #[test]
    fn nested_split_merge() {
        // A split inside a sub-pipeline of another split.
        let inner_builders = || -> Vec<SubPipelineBuilder<i64, i64>> {
            vec![
                Box::new(|s: DataStream<i64>| s.map(|x| x + 1)),
                Box::new(|s: DataStream<i64>| s.map(|x| x + 2)),
            ]
        };
        let outer: Vec<SubPipelineBuilder<i64, i64>> = vec![
            Box::new(move |s: DataStream<i64>| {
                s.split_merge(|x, m| m.push((x % 2) as usize), inner_builders())
            }),
            Box::new(|s: DataStream<i64>| s.map(|x| x * 100)),
        ];
        let mut out = DataStream::from_vec(vec![0, 1])
            .split_merge(
                |_x, m| {
                    m.push(0);
                    m.push(1);
                },
                outer,
            )
            .collect()
            .unwrap();
        out.sort_unstable();
        // inner: 0 -> +1 = 1 ; 1 -> +2 = 3 ; outer2: 0 -> 0, 1 -> 100
        assert_eq!(out, vec![0, 1, 3, 100]);
    }
}
