//! The session loop: Algorithm 1 as one loop over pushed tuples.
//!
//! Every run is a [`StreamingSession`]: offline runs feed it a prepared
//! copy of their input (once per attempt, see [`crate::runner`]), a
//! serve session feeds it what it decodes. Each pushed tuple takes the
//! same path:
//!
//! 1. **prepare** — ids, `τ` and arrival are stamped in arrival order
//!    (Algorithm 1, lines 1–3);
//! 2. the **watermark generator** sees the tuple's `τ` and may close a
//!    watermark period;
//! 3. the **assigner** names the sub-streams the tuple joins (line 4);
//!    each keeps what it is given in a frame of up to `batch_size`
//!    records, handed over when full and before every watermark — the
//!    order in which sub-streams spend a shared chaos budget;
//! 4. **one step per sub-stream** — the chaos injector when the plan has
//!    one, then the sub-stream's pipeline (lines 5–10); a watermark
//!    crosses every sub-stream in turn, which is where scheduled plans
//!    swap in (the epoch boundary);
//! 5. one **event-time sorter** keyed `(arrival, sub_stream)` (line 11)
//!    releases at each watermark what the watermark closes, cut into
//!    chunks of `batch_size`, which the caller [drains](StreamingSession::drain).
//!
//! A sub-stream's pipeline is a row [`PollutionPipeline`] or, in a
//! session opened [lowered](crate::PhysicalPlan::open_streaming_lowered)
//! on a column-exact plan, a [`ColumnPipeline`]: a schema-typed
//! [`ColumnBatch`] pushed whole is then stamped in place, routed row by
//! row and polluted by column kernels in place, and its rows are
//! released as [`ReleasedRow::Column`]s pointing into the buffers the
//! kernels wrote. Rows pushed as tuples are owned by the sorter until
//! they are released.
//!
//! A session runs the loop on the thread that pushes, so it needs no
//! barrier to take a consistent checkpoint: after every `interval`-th
//! watermark it collects the state of every stateful step itself (see
//! [`icewafl_stream::checkpoint`]). Only a run that hands its session
//! its whole input at once may split the loop by stage across two
//! threads, to the same bytes; plans that checkpoint never do (see
//! `session/schedule.rs`).
//!
//! Each step runs under `catch_unwind`. A panic fails the step's stage,
//! labelled as [`PhysicalPlan::stages`](crate::PhysicalPlan::stages)
//! predicts, and the session with it: the sorter takes nothing more and
//! [`finish`](StreamingSession::finish) reports a typed
//! [`icewafl_types::Error::Pipeline`]. The other sub-streams go on
//! taking what is pushed — a retry of an offline run sees the chaos
//! budget a failed attempt spent.

use crate::columnar::{lower_pipeline, pipeline_lowerable, ColumnPipeline};
use crate::log::PollutionLog;
use crate::pipeline::PollutionPipeline;
use crate::plan::{predict_stages, LogicalPlan};
use crate::polluter::Emission;
use crate::prepare::PrepareOperator;
use crate::report::RunReport;
use crate::runner::{run_report, Attempt, ExecSettings, Selector};
use crate::snapshot::StampedWire;
use crate::stats::{merge_by_name, PolluterStatsSnapshot};
use icewafl_obs::{trace, Counter, Gauge, MetricsRegistry, Stopwatch};
use icewafl_stream::chaos::{install_quiet_panic_hook, ChaosOperator};
use icewafl_stream::checkpoint::{
    CheckpointFrame, CheckpointStore, StateSnapshot, CHECKPOINT_VERSION,
};
use icewafl_stream::control::ControlSubscriber;
use icewafl_stream::fault::StageError;
use icewafl_stream::metrics::{ChaosMetrics, SorterMetrics, StageMetrics, SAMPLE_MASK};
use icewafl_stream::sort::{EventTimeSorter, SorterStateCodec};
use icewafl_stream::watermark::{WatermarkGenerator, WatermarkStrategy};
use icewafl_types::{ColumnBatch, Duration, Result, Schema, StampedTuple, Timestamp, Tuple};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

pub(crate) mod schedule;

/// The source checks the wall-clock deadline once per this many tuples
/// (power-of-two mask), keeping `Instant::now` off the per-tuple path.
const DEADLINE_CHECK_MASK: u64 = 255;

/// One released row, where it lives: a row of a batch the kernels ran
/// over, or a tuple.
#[derive(Debug, Clone, Copy)]
pub enum ReleasedRow<'a> {
    /// Row `.1` of a polluted batch.
    Column(&'a ColumnBatch, usize),
    /// A polluted tuple.
    Tuple(&'a StampedTuple),
}

impl ReleasedRow<'_> {
    /// How many values the row has.
    pub fn arity(&self) -> usize {
        match self {
            ReleasedRow::Column(batch, _) => batch.arity(),
            ReleasedRow::Tuple(t) => t.tuple.len(),
        }
    }

    /// The row as a stamped tuple.
    pub fn to_stamped(&self) -> StampedTuple {
        match *self {
            ReleasedRow::Column(batch, row) => {
                let (id, tau, arrival, sub_stream) = batch.stamp(row);
                let values: Tuple = (0..batch.arity())
                    .map(|col| batch.column(col).value_at(row))
                    .collect();
                let mut t = StampedTuple::new(id, tau, values);
                t.arrival = arrival;
                t.sub_stream = sub_stream;
                t
            }
            ReleasedRow::Tuple(t) => t.clone(),
        }
    }
}

/// What the sorter holds for a row: a tuple it owns, or where a row of
/// a polluted batch lives.
enum Held {
    Tuple(StampedTuple),
    Row {
        arrival: Timestamp,
        sub_stream: u32,
        segment: u64,
        row: u32,
    },
}

/// Algorithm 1, line 11: sort by *arrival* time, so delayed tuples
/// surface late. Equal arrivals order by sub-stream, then by emission
/// order within the sub-stream: the merged order is a function of the
/// tuples alone, not of how the loop interleaved the sub-streams.
fn sort_key(held: &Held) -> (Timestamp, u32) {
    match held {
        Held::Tuple(t) => (t.arrival, t.sub_stream),
        Held::Row {
            arrival,
            sub_stream,
            ..
        } => (*arrival, *sub_stream),
    }
}

type Sorter = EventTimeSorter<Held, fn(&Held) -> (Timestamp, u32), (Timestamp, u32)>;

/// The sorter's snapshot codec. Records travel as tagged
/// [`StampedWire`] documents: the derived serde of
/// [`icewafl_types::Value`] is untagged and therefore lossy
/// (`Timestamp(5)` re-parses as `Int(5)`). Plans that checkpoint never
/// lower, so the sorter holds tuples only when a snapshot is taken; a
/// batch row does not encode, and a sorter holding one takes none.
fn held_codec() -> SorterStateCodec<Held> {
    SorterStateCodec::new(
        |held: &Held| match held {
            Held::Tuple(t) => serde_json::to_string(&StampedWire::from_tuple(t)).ok(),
            Held::Row { .. } => None,
        },
        |s: &str| {
            serde_json::from_str::<StampedWire>(s)
                .ok()
                .map(|wire| Held::Tuple(wire.into_tuple()))
        },
    )
}

/// Wire form of one sub-stream's checkpoint state: the full pipeline
/// state document (see [`PollutionPipeline::snapshot_states`]) plus the
/// length of the sub-stream's own ground-truth log segment — the exact
/// point a restore truncates that segment to.
#[derive(Debug, Serialize, Deserialize)]
struct SubstreamState {
    pipeline: Option<String>,
    log_len: u64,
}

/// Every polluted batch some of whose rows are still held or undrained,
/// numbered in push order, and how many of its rows are still to be
/// handed out.
#[derive(Default)]
struct Segments {
    first: u64,
    held: VecDeque<(Option<ColumnBatch>, usize)>,
}

impl Segments {
    fn push(&mut self, batch: ColumnBatch, rows: usize) -> u64 {
        self.held.push_back((Some(batch), rows));
        self.first + self.held.len() as u64 - 1
    }

    fn batch(&self, segment: u64) -> &ColumnBatch {
        self.held[(segment - self.first) as usize]
            .0
            .as_ref()
            .expect("a segment lives until its last row is drained")
    }

    /// One row of `segment` was handed out: the last one drops it.
    fn release(&mut self, segment: u64) {
        let (batch, unreleased) = &mut self.held[(segment - self.first) as usize];
        *unreleased -= 1;
        if *unreleased == 0 {
            *batch = None;
        }
    }

    /// Forgets dropped segments at the front.
    fn trim(&mut self) {
        while self.held.front().is_some_and(|(batch, _)| batch.is_none()) {
            self.held.pop_front();
            self.first += 1;
        }
    }
}

/// The pipeline of one sub-stream.
pub(crate) enum Pipeline {
    Rows(PollutionPipeline),
    Columns(ColumnPipeline),
}

impl Pipeline {
    fn process(
        &mut self,
        mut t: StampedTuple,
        out: &mut Vec<StampedTuple>,
        log: &mut PollutionLog,
    ) {
        match self {
            Pipeline::Rows(p) => p.process(t, &mut Emission::new(out, log)),
            Pipeline::Columns(p) => {
                p.process_row(&mut t, log);
                out.push(t);
            }
        }
    }

    /// A column pipeline's standard polluters hold nothing back, so
    /// only a row pipeline takes watermarks and the end of the stream.
    fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<StampedTuple>, log: &mut PollutionLog) {
        if let Pipeline::Rows(p) = self {
            p.on_watermark(wm, &mut Emission::new(out, log));
        }
    }

    fn finish(&mut self, out: &mut Vec<StampedTuple>, log: &mut PollutionLog) {
        if let Pipeline::Rows(p) = self {
            p.finish(&mut Emission::new(out, log));
        }
    }

    /// Merges what the pipeline's polluters counted into `into`, by
    /// name (see [`merge_by_name`]).
    fn merge_stats_into(&self, into: &mut Vec<PolluterStatsSnapshot>) {
        let mut stats = Vec::new();
        match self {
            Pipeline::Rows(p) => p.append_stats(&mut stats),
            Pipeline::Columns(p) => p.append_stats(&mut stats),
        }
        merge_by_name(into, stats);
    }
}

/// Column pipelines for every sub-stream of `plan`, or `None` when the
/// plan is not column-exact: logging off, no `chaos` and no
/// `checkpoint` section, nothing scheduled on its control channel, and
/// every sub-stream lowering.
pub(crate) fn lowered(
    plan: &LogicalPlan,
    settings: &ExecSettings,
) -> Result<Option<Vec<Pipeline>>> {
    let schema = &settings.schema;
    let exact = !settings.logging
        && settings.chaos.is_none()
        && settings.checkpoint.is_none()
        && settings.control.is_empty()
        && plan.pipelines.iter().all(|p| pipeline_lowerable(p, schema));
    if !exact {
        return Ok(None);
    }
    let mut pipelines = Vec::with_capacity(plan.pipelines.len());
    for (i, polluters) in plan.pipelines.iter().enumerate() {
        match lower_pipeline(plan.seed, i, polluters, schema)? {
            Some(pipeline) => pipelines.push(Pipeline::Columns(pipeline)),
            None => return Ok(None),
        }
    }
    Ok(Some(pipelines))
}

/// One stage of the loop as [`PhysicalPlan::stages`](crate::PhysicalPlan::stages)
/// predicts it: the label a failure in it is attributed to, its
/// metrics, and how many records it has taken (for the 1-in-64 latency
/// samples).
struct Stage {
    label: String,
    metrics: StageMetrics,
    seen: u64,
}

impl Stage {
    fn new(registry: &MetricsRegistry, label: &str) -> Self {
        Stage {
            label: label.to_string(),
            metrics: StageMetrics::register(registry, label),
            seen: 0,
        }
    }

    /// Runs `step` over `len` records: counted in, timed in a `stage`
    /// span whenever the records cover a 1-in-64 sample point (one
    /// histogram entry per point covered), a panic caught as this
    /// stage's failure.
    fn run(&mut self, len: usize, step: impl FnOnce()) -> std::result::Result<(), StageError> {
        let len = len as u64;
        self.metrics.elements_in.add(len);
        let next_sample = (self.seen + SAMPLE_MASK) & !SAMPLE_MASK;
        self.seen += len;
        if next_sample >= self.seen {
            return self.guard(step);
        }
        let mut span = trace::span(&self.label, "stage");
        if let Some(span) = span.as_mut() {
            span.arg("batch", len);
        }
        let sw = Stopwatch::start();
        let result = self.guard(step);
        let elapsed = sw.elapsed_ns();
        for _ in 0..(self.seen - 1 - next_sample) / (SAMPLE_MASK + 1) + 1 {
            self.metrics.latency_ns.record(elapsed);
        }
        result
    }

    /// Runs `step`, a panic caught as this stage's failure.
    fn guard(&self, step: impl FnOnce()) -> std::result::Result<(), StageError> {
        catch_unwind(AssertUnwindSafe(step)).map_err(|payload| {
            self.metrics.failures.inc();
            StageError::from_panic(&self.label, payload)
        })
    }

    /// A watermark reached the stage; the end-of-stream `W(MAX)`
    /// sentinel stays out of the high-water mark.
    fn watermark(&self, wm: Timestamp) {
        if wm != Timestamp::MAX {
            self.metrics.watermark_hwm_ms.set_max(wm.0.max(0) as u64);
        }
    }
}

/// One sub-stream: its chaos injector, its pipeline, its own segment of
/// the ground-truth log, and the frames on either side of it.
struct SubStream {
    chaos: Option<(ChaosOperator<StampedTuple>, Stage)>,
    pipeline: Pipeline,
    /// The statistics of the pipelines a scheduled plan swapped out.
    retired: Vec<PolluterStatsSnapshot>,
    stage: Stage,
    log: PollutionLog,
    control: ControlSubscriber<LogicalPlan>,
    epoch: Gauge,
    /// What the assigner routed here and the sub-stream has not taken.
    inbox: Vec<StampedTuple>,
    /// What the sub-stream emitted and the sorter has not taken.
    outbox: Vec<StampedTuple>,
    scratch: Vec<StampedTuple>,
    /// Which of its stages failed: a failed injector takes nothing
    /// more, a failed pipeline nothing past its injector.
    chaos_failed: bool,
    pipeline_failed: bool,
}

impl SubStream {
    /// Takes the inbox: the injector, then the pipeline, whose output
    /// joins the outbox tagged with sub-stream `i`.
    fn take_inbox(&mut self, i: u32, tuple_rows: &Counter) -> std::result::Result<(), StageError> {
        let mut batch = std::mem::take(&mut self.inbox);
        if let Some((chaos, stage)) = &mut self.chaos {
            if self.chaos_failed {
                return Ok(());
            }
            let passed = &mut self.scratch;
            let result = stage.run(batch.len(), || {
                for t in batch.drain(..) {
                    chaos.on_element(t, passed);
                }
            });
            if let Err(e) = result {
                self.chaos_failed = true;
                return Err(e);
            }
            stage.metrics.elements_out.add(passed.len() as u64);
            batch.clear();
            std::mem::swap(&mut batch, &mut self.scratch);
        }
        if !self.pipeline_failed {
            if matches!(self.pipeline, Pipeline::Columns(_)) {
                tuple_rows.add(batch.len() as u64);
            }
            let result = self.pollute(batch.drain(..));
            self.emit(i, result.map_err(|(_, e)| e))?;
        }
        batch.clear();
        self.inbox = batch;
        Ok(())
    }

    /// The pipeline step over `batch`, its output left in `scratch`. A
    /// panic fails the step with how many records it had taken, the
    /// one that panicked included.
    fn pollute(
        &mut self,
        batch: impl ExactSizeIterator<Item = StampedTuple>,
    ) -> std::result::Result<(), (usize, StageError)> {
        let (pipeline, out, log) = (&mut self.pipeline, &mut self.scratch, &mut self.log);
        let mut taken = 0;
        self.stage
            .run(batch.len(), || {
                for t in batch {
                    taken += 1;
                    pipeline.process(t, out, log);
                }
            })
            .map_err(|e| (taken, e))
    }

    /// Moves what the pipeline step left in `scratch` to the outbox, or
    /// fails the pipeline.
    fn emit<E>(
        &mut self,
        i: u32,
        result: std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        if let Err(e) = result {
            self.pipeline_failed = true;
            self.scratch.clear();
            return Err(e);
        }
        self.stage
            .metrics
            .elements_out
            .add(self.scratch.len() as u64);
        for mut t in self.scratch.drain(..) {
            t.sub_stream = i;
            self.outbox.push(t);
        }
        Ok(())
    }

    /// Watermark `wm` crosses the sub-stream: the pipeline releases what
    /// it closes, then any plan scheduled at or before it swaps in.
    fn cross(
        &mut self,
        i: u32,
        wm: Timestamp,
        schema: &Schema,
    ) -> std::result::Result<(), StageError> {
        if let Some((_, stage)) = &self.chaos {
            if self.chaos_failed {
                return Ok(());
            }
            stage.watermark(wm);
        }
        if self.pipeline_failed {
            return Ok(());
        }
        self.stage.watermark(wm);
        let (pipeline, out, log) = (&mut self.pipeline, &mut self.scratch, &mut self.log);
        let (control, epoch, retired) = (&mut self.control, &self.epoch, &mut self.retired);
        let result = self.stage.guard(|| {
            pipeline.on_watermark(wm, out, log);
            swap_epoch(pipeline, retired, control, epoch, i, wm, schema, out, log);
        });
        self.emit(i, result)
    }

    /// The end of the stream reaches the sub-stream's pipeline.
    fn finish(&mut self, i: u32) -> std::result::Result<(), StageError> {
        if self.chaos_failed || self.pipeline_failed {
            return Ok(());
        }
        let (pipeline, out, log) = (&mut self.pipeline, &mut self.scratch, &mut self.log);
        let result = self.stage.guard(|| pipeline.finish(out, log));
        self.emit(i, result)
    }

    /// The sub-stream's statistics: what its pipeline counted, merged
    /// by name into what the pipelines it swapped out had counted.
    fn stats(&mut self) -> Vec<PolluterStatsSnapshot> {
        let mut stats = std::mem::take(&mut self.retired);
        self.pipeline.merge_stats_into(&mut stats);
        stats
    }
}

/// Applies any reconfiguration due at watermark `wm` to sub-stream `i`:
/// the old pipeline's in-flight state is flushed (as pre-epoch output)
/// and its statistics merge by name into `retired`, then the pipeline
/// is rebuilt from the scheduled plan. Every
/// sub-stream crosses the same watermarks, so all swap at the same
/// boundary — the Fries consistency property. Plans were validated when
/// they were scheduled; a rebuild that fails anyway panics, which fails
/// the sub-stream's stage.
#[allow(clippy::too_many_arguments)]
fn swap_epoch(
    pipeline: &mut Pipeline,
    retired: &mut Vec<PolluterStatsSnapshot>,
    control: &mut ControlSubscriber<LogicalPlan>,
    epoch_gauge: &Gauge,
    i: u32,
    wm: Timestamp,
    schema: &Schema,
    out: &mut Vec<StampedTuple>,
    log: &mut PollutionLog,
) {
    // The end-of-stream sentinel is not an epoch: plans scheduled past
    // the stream simply never apply.
    if wm == Timestamp::MAX {
        return;
    }
    let Some((epoch, plan)) = control.poll(wm) else {
        return;
    };
    pipeline.finish(out, log);
    pipeline.merge_stats_into(retired);
    let mut pipelines = plan
        .build_pipelines(schema)
        .unwrap_or_else(|e| panic!("epoch {epoch} plan failed to rebuild: {e}"));
    let idx = i as usize;
    assert!(
        idx < pipelines.len(),
        "epoch {epoch} plan has {} pipelines, sub-stream {idx} needs one",
        pipelines.len()
    );
    *pipeline = Pipeline::Rows(pipelines.swap_remove(idx));
    epoch_gauge.set(epoch);
    icewafl_obs::trace::instant_with(
        "epoch_swap",
        "control",
        &[("epoch", epoch), ("sub_stream", i as u64)],
    );
}

/// Where a checkpointing session commits frames, and its cadence.
struct Checkpoints {
    store: Arc<CheckpointStore>,
    interval: u64,
    /// Watermarks since the last checkpoint.
    since: u64,
    /// The last epoch closed.
    epoch: u64,
    /// Tuples of the stream before the first one this attempt took.
    base_offset: u64,
}

/// The source end of the loop: the watermark generator and the
/// assigner, with what they have seen.
struct Source {
    watermarks: WatermarkGenerator<Timestamp>,
    selector: Selector,
    /// The sub-streams the last selected tuple joins.
    membership: Vec<usize>,
    substreams: usize,
    sends: Counter,
    label: String,
    router_label: String,
    /// Tuples this attempt has taken through the source step.
    emitted: u64,
    deadline: Option<Instant>,
    /// The source or the assigner failed: nothing more is routed.
    stopped: bool,
}

impl Source {
    /// Fills `membership` with the sub-streams tuple `id` joins, cleaned
    /// of out-of-range and repeated ones, or fails the assigner.
    fn select(&mut self, id: u64) -> std::result::Result<(), StageError> {
        self.membership.clear();
        let (selector, membership) = (&mut self.selector, &mut self.membership);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| selector(id, membership))) {
            return Err(StageError::from_panic(&self.router_label, payload));
        }
        let m = self.substreams;
        self.membership.retain(|&i| i < m);
        self.membership.dedup();
        Ok(())
    }

    /// Past the deadline, the source poisons the stream: checked once
    /// every `DEADLINE_CHECK_MASK + 1` tuples.
    fn check_deadline(&self) -> std::result::Result<(), StageError> {
        if self.emitted & DEADLINE_CHECK_MASK == 0
            && self.deadline.is_some_and(|dl| Instant::now() >= dl)
        {
            return Err(StageError::deadline(&self.label));
        }
        Ok(())
    }
}

/// The merging end of the loop: the one event-time sorter, and what it
/// released that the caller has not drained yet.
struct Merge {
    sorter: Sorter,
    stage: Stage,
    batch_size: usize,
    /// Released rows not yet drained, in release order, and where each
    /// chunk of them ends.
    released: Vec<Held>,
    chunk_ends: Vec<usize>,
    segments: Segments,
    tuples_out: u64,
}

impl Merge {
    /// The sorter takes `records`, tagged with their sub-streams.
    fn take(
        &mut self,
        records: impl ExactSizeIterator<Item = StampedTuple>,
    ) -> std::result::Result<(), StageError> {
        let sorter = &mut self.sorter;
        self.stage.run(records.len(), || {
            for t in records {
                sorter.on_element(Held::Tuple(t));
            }
        })
    }

    /// The sorter releases what watermark `wm` closes (everything, at
    /// the end of the stream: `None`), cut into chunks of at most
    /// `batch_size`.
    fn release(&mut self, wm: Option<Timestamp>) -> std::result::Result<(), StageError> {
        let from = self.released.len();
        let (sorter, released) = (&mut self.sorter, &mut self.released);
        self.stage.guard(|| match wm {
            Some(wm) => sorter.on_watermark(wm, released),
            None => sorter.on_end(released),
        })?;
        let to = self.released.len();
        self.stage.metrics.elements_out.add((to - from) as u64);
        self.tuples_out += (to - from) as u64;
        let mut at = from;
        while at < to {
            at = (at + self.batch_size).min(to);
            self.chunk_ends.push(at);
        }
        Ok(())
    }

    /// Hands every chunk released since the last call to `emit`, in
    /// release order, then drops what no held row needs any more.
    fn drain(&mut self, mut emit: impl FnMut(&[ReleasedRow<'_>])) {
        let mut rows = Vec::with_capacity(self.batch_size.min(self.released.len()));
        let mut start = 0;
        for &end in &self.chunk_ends {
            rows.clear();
            rows.extend(self.released[start..end].iter().map(|held| match held {
                Held::Tuple(t) => ReleasedRow::Tuple(t),
                Held::Row { segment, row, .. } => {
                    ReleasedRow::Column(self.segments.batch(*segment), *row as usize)
                }
            }));
            emit(&rows);
            start = end;
        }
        drop(rows);
        for held in self.released.drain(..) {
            if let Held::Row { segment, .. } = held {
                self.segments.release(segment);
            }
        }
        self.chunk_ends.clear();
        self.segments.trim();
    }

    /// Moves every released row into `out`.
    fn drain_into(&mut self, out: &mut Vec<StampedTuple>) {
        for held in self.released.drain(..) {
            out.push(match held {
                Held::Tuple(t) => t,
                Held::Row { segment, row, .. } => {
                    let t = ReleasedRow::Column(self.segments.batch(segment), row as usize)
                        .to_stamped();
                    self.segments.release(segment);
                    t
                }
            });
        }
        self.chunk_ends.clear();
        self.segments.trim();
    }
}

/// One execution attempt, opened and waiting to be fed: the loop of
/// Algorithm 1 (see the module docs). What the sorter releases waits in
/// the session until the caller [drains](StreamingSession::drain) it,
/// so nothing of the stream is held but what the plan itself holds —
/// one watermark period per sub-stream, plus the tuples a delay
/// polluter keeps back — and what the caller has not drained yet.
///
/// Offline runs are sessions too, so for the same plan and tuple
/// sequence a session releases, in order, the polluted stream of
/// [`PhysicalPlan::execute`](crate::PhysicalPlan::execute).
///
/// A session the caller feeds is a single attempt: a pushed stream
/// cannot be replayed, so supervised restarts do not apply. Plans with a
/// checkpoint section still take epoch-aligned snapshots (reported in
/// `checkpoints_taken`; durable when a WAL dir is set) even though such
/// a session never restores them itself — recovery of a streamed
/// session is an external concern (`CheckpointStore::recover_latest`
/// over the WAL). Sessions sharing a WAL directory overwrite each
/// other; give each session its own.
pub struct StreamingSession {
    prepare: PrepareOperator,
    source: Source,
    subs: Vec<SubStream>,
    merge: Merge,
    kernel_rows: Counter,
    tuple_rows: Counter,
    tuples_in: u64,
    checkpoints: Option<Checkpoints>,
    /// The first failure; with it the sorter takes nothing more.
    failure: Option<StageError>,
    /// The schedule the session ran: `pipelined` once a whole input
    /// was fed on two threads, `sequential` otherwise.
    schedule: &'static str,
    settings: ExecSettings,
    registry: MetricsRegistry,
}

impl StreamingSession {
    /// Opens `attempt` of a run of `pipelines`. Sub-stream pipelines,
    /// their log segments, the chaos injectors, the sorter and the
    /// watermark generator are rewound to the attempt's restore frame
    /// (or start over without one). A resumed session counts the tuples
    /// before the frame's offset as taken in and the rows released
    /// before it as put out, so its report covers the whole run.
    pub(crate) fn open(
        settings: &ExecSettings,
        mut pipelines: Vec<Pipeline>,
        attempt: Attempt,
    ) -> Result<Self> {
        let chaos = settings.chaos.as_ref();
        if chaos.is_some() {
            // Injected panics are expected and caught; keep them from
            // spraying backtraces over the output (a server's included).
            install_quiet_panic_hook();
        }
        let prepare = PrepareOperator::new(&settings.schema)?;
        let Attempt {
            mut segments,
            chaos_budget,
            store,
            deadline,
            restore,
        } = attempt;
        let frame = restore.as_ref();
        // Frames exist only when the run checkpoints, and so do the
        // states of the injectors and the sorter.
        let states = frame.map(|f| &f.states);
        for (i, (pipeline, log)) in pipelines.iter_mut().zip(&mut segments).enumerate() {
            // Without a frame — or without this sub-stream in it — the
            // sub-stream starts over, and so does its log segment.
            let Some(doc) = states.and_then(|s| s.get(&format!("substream_{i}"))) else {
                log.truncate(0);
                continue;
            };
            let state: SubstreamState = serde_json::from_str(doc)
                .map_err(|_| icewafl_types::Error::parse(doc.as_str(), "SubstreamState"))?;
            if let (Some(pipeline_doc), Pipeline::Rows(pipeline)) = (&state.pipeline, pipeline) {
                pipeline.restore_states(pipeline_doc)?;
            }
            log.truncate(state.log_len as usize);
        }

        let m = pipelines.len();
        let registry = MetricsRegistry::new();
        let stages = predict_stages(m, chaos.is_some());
        let label = |k: usize| stages[k].label.as_str();
        let per_sub = if chaos.is_some() { 2 } else { 1 };
        let mut subs = Vec::with_capacity(m);
        for (i, (pipeline, log)) in pipelines.into_iter().zip(segments).enumerate() {
            let chaos = match chaos {
                Some(chaos) => {
                    // Each injector has its own seed but a budget shared
                    // across retries.
                    let mut cfg = chaos.clone();
                    cfg.seed = chaos.seed.wrapping_add(i as u64);
                    let budget = chaos_budget.clone().unwrap_or_else(|| cfg.new_budget());
                    let mut op = ChaosOperator::with_shared_budget(cfg, budget)
                        .with_metrics(ChaosMetrics::register(
                            &registry,
                            &format!("chaos/substream_{i}"),
                        ))
                        .with_malform(|t: &mut StampedTuple| {
                            for v in t.tuple.values_mut() {
                                *v = icewafl_types::Value::Null;
                            }
                        });
                    // A resumed attempt replays the *same* fault
                    // schedule instead of re-rolling it.
                    if let Some(doc) = states.and_then(|s| s.get(&format!("chaos_{i}"))) {
                        op.restore_state(doc)?;
                    }
                    Some((op, Stage::new(&registry, label(3 + 2 * i))))
                }
                None => None,
            };
            subs.push(SubStream {
                chaos,
                pipeline,
                retired: Vec::new(),
                stage: Stage::new(&registry, label(2 + per_sub * i)),
                log,
                control: settings.control.subscriber(),
                epoch: registry.gauge(&format!("plan/substream_{i}/epoch")),
                inbox: Vec::new(),
                outbox: Vec::new(),
                scratch: Vec::new(),
                chaos_failed: false,
                pipeline_failed: false,
            });
        }

        let sorter_label = label(0);
        let mut sorter = EventTimeSorter::new(sort_key as fn(&Held) -> (Timestamp, u32))
            .with_metrics(SorterMetrics::register(&registry, sorter_label))
            .with_state_codec(held_codec());
        if let Some(doc) = states.and_then(|s| s.get("sorter")) {
            sorter.restore_state(doc)?;
        }
        let mut watermarks = WatermarkStrategy::bounded_out_of_orderness(
            |tau: &Timestamp| *tau,
            Duration::ZERO,
            settings.watermark_period,
        )
        .generator();
        if let Some(frame) = frame {
            watermarks.restore(&frame.wm_state);
        }
        let lowered = subs
            .iter()
            .any(|s| matches!(s.pipeline, Pipeline::Columns(_)));
        let (kernel_rows, tuple_rows) = if lowered {
            (
                registry.counter("column_session/kernel_rows"),
                registry.counter("column_session/tuple_rows"),
            )
        } else {
            Default::default()
        };
        let base_offset = frame.map_or(0, |f| f.source_offset);
        Ok(StreamingSession {
            prepare,
            source: Source {
                watermarks,
                selector: settings.assigner.selector(m),
                membership: Vec::with_capacity(m),
                substreams: m,
                sends: registry.counter(&format!("{}/sends", label(1))),
                label: stages[stages.len() - 1].label.clone(),
                router_label: label(1).to_string(),
                emitted: 0,
                deadline,
                stopped: false,
            },
            subs,
            merge: Merge {
                sorter,
                stage: Stage::new(&registry, sorter_label),
                batch_size: settings.batch_size.max(1),
                released: Vec::new(),
                chunk_ends: Vec::new(),
                segments: Segments::default(),
                tuples_out: frame.map_or(0, |f| f.sink_committed),
            },
            kernel_rows,
            tuple_rows,
            tuples_in: base_offset,
            checkpoints: store
                .zip(settings.checkpoint.as_ref())
                .map(|(store, ckpt)| Checkpoints {
                    store,
                    interval: ckpt.interval_epochs.max(1),
                    since: 0,
                    epoch: frame.map_or(0, |f| f.epoch),
                    base_offset,
                }),
            failure: None,
            schedule: "sequential",
            settings: settings.clone(),
            registry,
        })
    }

    /// The schema the session's tuples and batches are typed by.
    pub fn schema(&self) -> &Schema {
        &self.settings.schema
    }

    /// Whether [`push_batch`](StreamingSession::push_batch) runs column
    /// kernels: every sub-stream's pipeline is a [`ColumnPipeline`].
    pub fn lowered(&self) -> bool {
        self.subs
            .iter()
            .all(|s| matches!(s.pipeline, Pipeline::Columns(_)))
    }

    /// Prepares `tuple` and runs it through the plan.
    #[inline]
    pub fn push(&mut self, tuple: Tuple) {
        self.tuples_in += 1;
        let prepared = self.prepare.prepare(tuple);
        self.step(prepared);
    }

    /// Pushes a frame of rows whose values are in place and fit the
    /// session schema (NULL, or of their column's type, in every
    /// column), their stamps yet to be assigned. A
    /// [lowered](StreamingSession::lowered) session stamps the batch in
    /// place, routes it and pollutes it with the column kernels; any
    /// other takes its rows one tuple at a time.
    pub fn push_batch(&mut self, mut batch: ColumnBatch) {
        if !self.lowered() {
            for row in batch.into_rows() {
                self.push(row.tuple);
            }
            return;
        }
        let n = batch.len();
        self.tuples_in += n as u64;
        if self.failure.is_some() {
            return;
        }
        // Tuples pushed before are ahead of the batch in every
        // sub-stream and in the sorter.
        for i in 0..self.subs.len() {
            self.take_inbox(i);
            self.flush_outbox(i, 1);
        }
        let prepare = &mut self.prepare;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| prepare.prepare_batch(&mut batch))) {
            return self.stop(StageError::from_panic(&self.source.label, payload));
        }
        // Each row's memberships as (sub-stream, position in that
        // sub-stream's rows), and where they end.
        let m = self.subs.len();
        let mut routes: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut members: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut member_ends: Vec<usize> = Vec::with_capacity(n);
        for (row, &id) in batch.ids().iter().enumerate() {
            if let Err(e) = self.source.select(id) {
                return self.stop(e);
            }
            for &i in &self.source.membership {
                members.push((i as u32, routes[i].len() as u32));
                routes[i].push(row);
            }
            member_ends.push(members.len());
        }
        self.source.sends.add(members.len() as u64);
        let arrivals: Vec<Timestamp> = batch.arrivals().iter().map(|&ms| Timestamp(ms)).collect();
        // The last sub-stream that takes rows takes the batch itself
        // when it takes all of them; every other one gets its rows
        // copied out — their strings moved, when each row goes one way.
        let last = routes.iter().rposition(|route| !route.is_empty());
        let disjoint = member_ends.iter().enumerate().all(|(k, &end)| end == k + 1);
        let mut batch = Some(batch);
        let mut segment_of = vec![0; m];
        for (i, route) in routes.iter().enumerate() {
            if route.is_empty() {
                continue;
            }
            let all = route.len() == n && route.iter().enumerate().all(|(k, &row)| k == row);
            let mut rows = if all && Some(i) == last {
                batch.take().expect("the last user takes the batch")
            } else {
                let source = batch.as_mut().expect("the last user takes the batch");
                match (all, disjoint) {
                    (true, _) => source.clone(),
                    (false, true) => source.take_rows(route),
                    (false, false) => source.select(route),
                }
            };
            let sub = &mut self.subs[i];
            let Pipeline::Columns(pipeline) = &mut sub.pipeline else {
                unreachable!("a lowered session's sub-streams run columns");
            };
            let log = &mut sub.log;
            if let Err(e) = sub
                .stage
                .run(rows.len(), || pipeline.process_batch(&mut rows, log))
            {
                sub.pipeline_failed = true;
                return self.fail(e);
            }
            sub.stage.metrics.elements_out.add(rows.len() as u64);
            rows.set_sub_stream(i as u32);
            self.kernel_rows.add(rows.len() as u64);
            segment_of[i] = self.merge.segments.push(rows, route.len());
        }
        drop(batch);
        // The rows enter the sorter in row order, each row's
        // memberships in the order the assigner named them, with the
        // watermarks the rows close.
        self.merge
            .stage
            .metrics
            .elements_in
            .add(members.len() as u64);
        let mut start = 0;
        for (row, &end) in member_ends.iter().enumerate() {
            let arrival = arrivals[row];
            for &(i, position) in &members[start..end] {
                let held = Held::Row {
                    arrival,
                    sub_stream: i,
                    segment: segment_of[i as usize],
                    row: position,
                };
                self.merge.sorter.on_element(held);
            }
            start = end;
            self.source_step(arrival);
            if self.failure.is_some() {
                return;
            }
        }
    }

    /// Whether a stage of the plan has failed; the sorter takes nothing
    /// from then on, and [`finish`](StreamingSession::finish) reports
    /// the failure.
    pub fn is_failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Hands every chunk released since the last call to `emit`, in
    /// release order, then drops what no held row needs any more.
    pub fn drain(&mut self, emit: impl FnMut(&[ReleasedRow<'_>])) {
        self.merge.drain(emit);
    }

    /// Ends the stream: everything still held is released and handed to
    /// `emit`, then the run is reported. A stage's failure surfaces as
    /// [`icewafl_types::Error::Pipeline`], after what was released
    /// before it.
    pub fn finish(self, emit: impl FnMut(&[ReleasedRow<'_>])) -> Result<RunReport> {
        self.finish_with(|session| session.drain(emit))
            .map(|(report, _)| report)
            .map_err(|(error, _)| error)
    }

    /// Runs clones of already prepared tuples through the plan, moving
    /// what is released into `out`: how a run feeds each attempt the one
    /// prepared copy of its input. An input that
    /// [`schedule::inline_reason`] finds nothing against runs on two
    /// threads (see [`schedule`]); anything else runs inline, tuple by
    /// tuple.
    pub(crate) fn feed(&mut self, prepared: &[StampedTuple], out: &mut Vec<StampedTuple>) {
        if self.failure.is_none()
            && schedule::inline_reason(&self.settings, Some(prepared.len()), schedule::cores)
                .is_none()
        {
            return schedule::feed(self, prepared, out);
        }
        for tuple in prepared {
            self.tuples_in += 1;
            self.step(tuple.clone());
            if !self.merge.chunk_ends.is_empty() {
                self.merge.drain_into(out);
            }
        }
    }

    /// [`finish`](StreamingSession::finish) for a run: the rows go to
    /// `out`, the log comes back with the report — or, when the attempt
    /// failed, its segments come back for the next attempt to rewind.
    pub(crate) fn finish_into(
        self,
        out: &mut Vec<StampedTuple>,
    ) -> std::result::Result<(RunReport, PollutionLog), (icewafl_types::Error, Vec<PollutionLog>)>
    {
        self.finish_with(|session| session.merge.drain_into(out))
    }

    fn finish_with(
        mut self,
        drain: impl FnOnce(&mut Self),
    ) -> std::result::Result<(RunReport, PollutionLog), (icewafl_types::Error, Vec<PollutionLog>)>
    {
        self.end();
        drain(&mut self);
        let mut polluters = Vec::new();
        let segments: Vec<PollutionLog> = self
            .subs
            .into_iter()
            .map(|mut s| {
                polluters.extend(s.stats());
                s.log
            })
            .collect();
        if let Some(failure) = self.failure {
            return Err((failure.into(), segments));
        }
        let mut segments = segments.into_iter();
        let mut log = segments.next().unwrap_or_default();
        for segment in segments {
            log.merge(segment);
        }
        let report = RunReport {
            checkpoints_taken: self.checkpoints.map_or(0, |c| c.store.checkpoints_taken()),
            ..run_report(
                &self.settings,
                self.schedule,
                polluters,
                &self.registry,
                &log,
                self.tuples_in,
                self.merge.tuples_out,
            )
        };
        Ok((report, log))
    }

    /// The source step of one prepared tuple: the watermark it closes
    /// is taken, the assigner routes it, and the watermark crosses the
    /// plan.
    fn step(&mut self, tuple: StampedTuple) {
        if self.source.stopped {
            return;
        }
        // The generator sees the tuple before it is routed; the
        // watermark crosses after.
        let wm = self.source.watermarks.on_record(&tuple.tau);
        if let Err(e) = self.source.select(tuple.id) {
            return self.stop(e);
        }
        // Every member but the last gets a clone; the last gets the
        // tuple itself.
        if let Some(last) = self.source.membership.len().checked_sub(1) {
            for k in 0..last {
                let i = self.source.membership[k];
                self.route(i, tuple.clone());
            }
            self.route(self.source.membership[last], tuple);
        }
        self.source.emitted += 1;
        if let Some(wm) = wm {
            self.watermark(wm);
        }
        self.check_deadline();
    }

    /// The source step of a batch row, which is already in the sorter.
    fn source_step(&mut self, arrival: Timestamp) {
        self.source.emitted += 1;
        if let Some(wm) = self.source.watermarks.on_record(&arrival) {
            self.watermark(wm);
        }
        self.check_deadline();
    }

    /// Past the deadline, the source poisons the stream.
    fn check_deadline(&mut self) {
        if let Err(e) = self.source.check_deadline() {
            self.stop(e);
        }
    }

    /// Stages a tuple for sub-stream `i`, which takes a full frame.
    fn route(&mut self, i: usize, tuple: StampedTuple) {
        let batch_size = self.merge.batch_size;
        let inbox = &mut self.subs[i].inbox;
        if inbox.capacity() == 0 {
            inbox.reserve_exact(batch_size);
        }
        inbox.push(tuple);
        if inbox.len() >= batch_size {
            self.take_inbox(i);
            self.flush_outbox(i, batch_size);
        }
    }

    /// Sub-stream `i` takes what was routed to it.
    fn take_inbox(&mut self, i: usize) {
        let sub = &mut self.subs[i];
        if sub.inbox.is_empty() {
            return;
        }
        self.source.sends.add(sub.inbox.len() as u64);
        if let Err(e) = sub.take_inbox(i as u32, &self.tuple_rows) {
            self.fail(e);
        }
    }

    /// Hands the sorter sub-stream `i`'s output, in whole frames of
    /// `frame` records (1: all of it).
    fn flush_outbox(&mut self, i: usize, frame: usize) {
        let outbox = &mut self.subs[i].outbox;
        let ready = outbox.len() / frame * frame;
        if ready == 0 {
            return;
        }
        if self.failure.is_some() {
            outbox.clear();
            return;
        }
        if let Err(e) = self.merge.take(outbox.drain(..ready)) {
            self.fail(e);
        }
    }

    /// Watermark `wm` crosses the plan: the sub-streams take what is
    /// staged for them, then cross it one after another, then the
    /// sorter releases what it closes. After every `interval`-th
    /// watermark, a checkpoint.
    fn watermark(&mut self, wm: Timestamp) {
        let m = self.subs.len();
        for i in 0..m {
            self.take_inbox(i);
        }
        self.source.sends.add(m as u64);
        for i in 0..m {
            if let Err(e) = self.subs[i].cross(i as u32, wm, &self.settings.schema) {
                self.fail(e);
            }
            self.flush_outbox(i, 1);
        }
        if self.failure.is_some() {
            return;
        }
        self.merge.stage.watermark(wm);
        self.release(Some(wm));
        if wm != Timestamp::MAX {
            self.checkpoint(wm);
        }
    }

    /// The sorter releases what watermark `wm` closes (everything, at
    /// the end of the stream: `None`).
    fn release(&mut self, wm: Option<Timestamp>) {
        if let Err(e) = self.merge.release(wm) {
            self.fail(e);
        }
    }

    /// Takes a checkpoint when watermark `wm` closes an epoch: every
    /// step has crossed it, so the states collected here are one
    /// consistent cut of the stream.
    fn checkpoint(&mut self, wm: Timestamp) {
        let Some(ck) = &mut self.checkpoints else {
            return;
        };
        ck.since += 1;
        if ck.since < ck.interval {
            return;
        }
        ck.since = 0;
        ck.epoch += 1;
        self.source.sends.add(self.subs.len() as u64);
        let mut states = BTreeMap::new();
        for (i, sub) in self.subs.iter().enumerate() {
            if let Some(doc) = sub.chaos.as_ref().and_then(|(op, _)| op.snapshot_state()) {
                states.insert(format!("chaos_{i}"), doc);
            }
            if let Pipeline::Rows(pipeline) = &sub.pipeline {
                let state = SubstreamState {
                    pipeline: pipeline.snapshot_states(),
                    log_len: sub.log.len() as u64,
                };
                if let Ok(doc) = serde_json::to_string(&state) {
                    states.insert(format!("substream_{i}"), doc);
                }
            }
        }
        if let Some(doc) = self.merge.sorter.snapshot_state() {
            states.insert("sorter".to_string(), doc);
        }
        ck.store.commit(CheckpointFrame {
            version: CHECKPOINT_VERSION,
            epoch: ck.epoch,
            watermark: wm,
            source_offset: ck.base_offset + self.source.emitted,
            sink_committed: self.merge.tuples_out,
            wm_state: self.source.watermarks.state(),
            states,
        });
    }

    /// Ends the stream: `W(MAX)` crosses the plan, then every pipeline
    /// finishes and the sorter releases the rest.
    fn end(&mut self) {
        if self.source.stopped {
            return;
        }
        self.watermark(Timestamp::MAX);
        let m = self.subs.len();
        self.source.sends.add(m as u64);
        for i in 0..m {
            if let Err(e) = self.subs[i].finish(i as u32) {
                self.fail(e);
            }
            self.flush_outbox(i, 1);
        }
        if self.failure.is_none() {
            self.release(None);
        }
    }

    /// A stage failed: the first failure is the session's.
    fn fail(&mut self, error: StageError) {
        self.failure.get_or_insert(error);
    }

    /// The source or the assigner failed: nothing more is routed.
    fn stop(&mut self, error: StageError) {
        self.source.stopped = true;
        self.fail(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        ChaosSectionConfig, CheckpointSectionConfig, ConditionConfig, ErrorConfig, PolluterConfig,
    };
    use crate::plan::PlanDelta;
    use icewafl_types::{DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    fn noise() -> PolluterConfig {
        PolluterConfig::Standard {
            name: "noise".into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::GaussianNoise {
                sigma: 1.0,
                relative: false,
            },
            condition: ConditionConfig::Probability { p: 0.5 },
            pattern: None,
        }
    }

    fn exact_plan() -> LogicalPlan {
        LogicalPlan {
            logging: false,
            ..LogicalPlan::new(3, vec![vec![noise()], vec![noise()]])
        }
    }

    fn lowers(plan: &LogicalPlan) -> bool {
        plan.compile(&schema())
            .unwrap()
            .open_streaming_lowered()
            .unwrap()
            .lowered()
    }

    #[test]
    fn only_column_exact_plans_lower() {
        assert!(lowers(&exact_plan()));
        assert!(!exact_plan()
            .compile(&schema())
            .unwrap()
            .open_streaming()
            .unwrap()
            .lowered());
        assert!(!lowers(&LogicalPlan {
            logging: true,
            ..exact_plan()
        }));
        assert!(!lowers(&LogicalPlan {
            chaos: Some(ChaosSectionConfig::default()),
            ..exact_plan()
        }));
        assert!(!lowers(&LogicalPlan {
            checkpoint: Some(CheckpointSectionConfig {
                dir: None,
                interval_epochs: 1,
            }),
            ..exact_plan()
        }));
        let mut temporal = exact_plan();
        temporal.pipelines[1].push(PolluterConfig::Delay {
            name: "late".into(),
            condition: ConditionConfig::Always,
            delay_ms: 1000,
        });
        assert!(!lowers(&temporal));
        // A reconfiguration it could not follow.
        let physical = exact_plan().compile(&schema()).unwrap();
        physical
            .control_handle()
            .reconfigure_at(Timestamp(5_000), &[PlanDelta::SetSeed { seed: 4 }])
            .unwrap();
        assert!(!physical.open_streaming_lowered().unwrap().lowered());
    }

    #[test]
    fn a_schema_without_event_time_fails_to_open() {
        let schema = Schema::from_pairs([("x", DataType::Float)]).unwrap();
        let physical = exact_plan().compile(&schema).unwrap();
        let rows = physical
            .open_streaming()
            .err()
            .expect("rows need event time");
        let columns = physical
            .open_streaming_lowered()
            .err()
            .expect("so do columns");
        assert_eq!(columns.to_string(), rows.to_string());
    }

    #[test]
    fn a_panic_in_the_kernels_fails_the_session_with_a_typed_error() {
        let physical = exact_plan().compile(&schema()).unwrap();
        let mut session = physical.open_streaming_lowered().unwrap();
        let rows = (0..4)
            .map(|i| {
                StampedTuple::new(
                    0,
                    Timestamp(0),
                    Tuple::new(vec![
                        Value::Timestamp(Timestamp(i * 1000)),
                        Value::Float(i as f64),
                    ]),
                )
            })
            .collect();
        session.push_batch(ColumnBatch::from_rows(&schema(), rows).unwrap());
        assert!(!session.is_failed());
        // A batch that breaks the contract — a column short of the
        // schema — panics in the kernels: the session fails, and what
        // is pushed after is dropped.
        let short = Schema::from_pairs([("Time", DataType::Timestamp)]).unwrap();
        let rows = vec![StampedTuple::new(
            0,
            Timestamp(0),
            Tuple::new(vec![Value::Timestamp(Timestamp(9_000))]),
        )];
        session.push_batch(ColumnBatch::from_rows(&short, rows).unwrap());
        assert!(session.is_failed());
        session.push(Tuple::new(vec![Value::Null, Value::Null]));
        let pipeline = physical.stages()[2].label.clone();
        match session.finish(|_| panic!("a failed session hands out nothing more")) {
            Err(icewafl_types::Error::Pipeline { stage, kind, .. }) => {
                assert_eq!((stage, kind.as_str()), (pipeline, "panic"));
            }
            other => panic!("expected a pipeline failure, got {other:?}"),
        }
    }
}
