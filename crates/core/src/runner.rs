//! The end-to-end pollution process (Algorithm 1).
//!
//! prepare → split into `m` (overlapping) sub-streams → pollute each
//! sub-stream with its pipeline → union with sub-stream ids → sort by
//! arrival time → output the clean stream `D`, the dirty stream `Dᵖ`,
//! and the ground-truth log.
//!
//! The topology is built in one place, [`StreamingSession`]'s opening,
//! behind a push head. A served session is fed by its caller; an
//! offline run ([`pollute_stream`] and the plan's `execute` /
//! `execute_supervised`) is one retry loop that feeds each attempt's
//! session clones of the prepared input, resuming a retry from the
//! latest checkpoint when the plan takes them.

use crate::log::PollutionLog;
use crate::pipeline::PollutionPipeline;
use crate::plan::LogicalPlan;
use crate::polluter::Emission;
use crate::prepare::PrepareOperator;
use crate::report::RunReport;
use crate::snapshot::StampedWire;
use crate::stats::PolluterStatsHandle;
use icewafl_obs::MetricsRegistry;
use icewafl_stream::chaos::{install_quiet_panic_hook, ChaosConfig, ChaosOperator};
use icewafl_stream::checkpoint::{
    CheckpointBarrier, CheckpointCoordinator, CheckpointFrame, CheckpointStore, StateSnapshot,
};
use icewafl_stream::control::{ControlChannel, ControlSubscriber};
use icewafl_stream::metrics::ChaosMetrics;
use icewafl_stream::prelude::*;
use icewafl_stream::sort::{EventTimeSorter, SorterStateCodec};
use icewafl_stream::supervisor::{Supervisor, SupervisorPolicy};
use icewafl_stream::{PushPipeline, SourceCheckpoint, SubPipelineBuilder};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use icewafl_types::{Result, Schema, StampedTuple, Timestamp, Tuple};

/// How tuples are assigned to the `m` sub-streams
/// (`createOverlappingSubStreams`, Algorithm 1 line 4).
#[derive(Debug, Clone)]
pub(crate) enum SubStreamAssigner {
    /// Every tuple goes to every sub-stream (fully overlapping — models
    /// redundant sensor feeds and produces duplicates after the union).
    Broadcast,
    /// Tuple `i` goes to sub-stream `i mod m` (disjoint partition).
    RoundRobin,
    /// Each tuple joins each sub-stream independently with probability
    /// `p` (partially overlapping); a tuple selected by no sub-stream is
    /// routed to one uniformly at random so nothing is silently lost.
    Probabilistic {
        /// Per-sub-stream membership probability.
        p: f64,
        /// Seed for the assignment RNG.
        seed: u64,
    },
}

/// Per-tuple sub-stream membership selector: given a prepared tuple's
/// id, fills in the sub-streams it joins. Ids are all an assigner
/// reads, so rows need not be tuples to be routed.
pub(crate) type Selector = Box<dyn FnMut(u64, &mut Vec<usize>) + Send>;

impl SubStreamAssigner {
    /// Builds the per-tuple membership selector.
    pub(crate) fn selector(&self, m: usize) -> Selector {
        match self {
            SubStreamAssigner::Broadcast => Box::new(move |_, out| out.extend(0..m)),
            SubStreamAssigner::RoundRobin => {
                Box::new(move |id, out| out.push((id % m as u64) as usize))
            }
            SubStreamAssigner::Probabilistic { p, seed } => {
                let p = p.clamp(0.0, 1.0);
                let mut rng = StdRng::seed_from_u64(*seed);
                Box::new(move |_, out| {
                    for i in 0..m {
                        if rng.random_bool(p) {
                            out.push(i);
                        }
                    }
                    if out.is_empty() {
                        out.push(rng.random_range(0..m));
                    }
                })
            }
        }
    }
}

/// Per-operator reconfiguration state: a cursor into the job's control
/// channel plus what is needed to rebuild this sub-stream's pipeline
/// from a scheduled plan.
struct ControlState {
    subscriber: ControlSubscriber<LogicalPlan>,
    schema: Schema,
    epoch_gauge: icewafl_obs::Gauge,
}

/// Wire form of one sub-stream's checkpoint contribution: the full
/// pipeline state document (see
/// [`PollutionPipeline::snapshot_states`]) plus the length of this
/// sub-stream's own ground-truth log segment when the barrier passed
/// its operator — the exact point a restore truncates that segment to.
#[derive(Debug, Serialize, Deserialize)]
struct SubstreamState {
    pipeline: Option<String>,
    log_len: u64,
}

/// A run's ground-truth log as one segment per sub-stream.
///
/// Each [`PipelineOperator`] takes its segment when it is built, owns
/// it for the attempt (no lock on the record path), and hands it back
/// when it is dropped — however the attempt ended. The finished log is
/// the segments concatenated in sub-stream order, which is independent
/// of how a schedule interleaves the sub-streams.
/// A run keeps the segments across its attempts; a retry rewinds each
/// one to the length its own operator recorded at the restored barrier,
/// or empties it when there is none.
#[derive(Clone)]
pub(crate) struct LogSegments(Arc<Mutex<Vec<PollutionLog>>>);

impl LogSegments {
    /// `m` empty segments, recording iff `logging`.
    fn new(m: usize, logging: bool) -> Self {
        let segment = if logging {
            PollutionLog::new()
        } else {
            PollutionLog::disabled()
        };
        LogSegments(Arc::new(Mutex::new(vec![segment; m])))
    }

    /// Moves segment `i` out, leaving an empty placeholder.
    fn take(&self, i: usize) -> PollutionLog {
        std::mem::take(&mut self.0.lock()[i])
    }

    /// Truncates segment `i` to its first `len` entries.
    fn truncate(&self, i: usize, len: usize) {
        self.0.lock()[i].truncate(len);
    }

    /// The whole log: every segment, in sub-stream order. Call after
    /// the run's operators are gone (they hold the segments until
    /// then).
    fn concat(&self) -> PollutionLog {
        let mut segments = std::mem::take(&mut *self.0.lock()).into_iter();
        let mut log = segments.next().unwrap_or_default();
        for segment in segments {
            log.merge(segment);
        }
        log
    }
}

/// A stream [`Operator`] wrapping one sub-stream's pipeline and
/// recording into its own segment of the run's log.
pub struct PipelineOperator {
    pipeline: PollutionPipeline,
    sub_stream: u32,
    /// This sub-stream's log segment, returned to `segments` on drop.
    log: PollutionLog,
    segments: LogSegments,
    scratch: Vec<StampedTuple>,
    control: ControlState,
    /// Checkpoint contribution key (`substream_{i}`); `None` outside
    /// checkpointed runs — barriers then pass through without a
    /// snapshot.
    ckpt_key: Option<String>,
}

impl Drop for PipelineOperator {
    fn drop(&mut self) {
        // `get_mut`: a drop must not panic, even after `concat` emptied
        // the table.
        if let Some(slot) = self.segments.0.lock().get_mut(self.sub_stream as usize) {
            *slot = std::mem::take(&mut self.log);
        }
    }
}

impl PipelineOperator {
    /// Wraps a pipeline as the operator of sub-stream `sub_stream`,
    /// taking that sub-stream's segment of `segments` for as long as
    /// the operator lives. Plans scheduled on `control` are applied at
    /// the first watermark at or past their timestamp.
    fn new(
        pipeline: PollutionPipeline,
        sub_stream: u32,
        segments: &LogSegments,
        control: ControlState,
    ) -> Self {
        PipelineOperator {
            pipeline,
            sub_stream,
            log: segments.take(sub_stream as usize),
            segments: segments.clone(),
            scratch: Vec::new(),
            control,
            ckpt_key: None,
        }
    }

    /// Enables checkpoint snapshots: every passing barrier receives this
    /// sub-stream's exact pipeline state (RNG positions, pending stats,
    /// temporal buffers) under `key`.
    fn with_checkpoint_key(mut self, key: String) -> Self {
        self.ckpt_key = Some(key);
        self
    }

    fn drain_scratch(&mut self, out: &mut dyn Collector<StampedTuple>) {
        for mut t in self.scratch.drain(..) {
            t.sub_stream = self.sub_stream;
            out.collect(t);
        }
    }

    /// Applies any reconfiguration due at watermark `wm`: the old
    /// pipeline's in-flight state is flushed (as pre-epoch output), then
    /// this sub-stream's pipeline is rebuilt from the scheduled plan.
    ///
    /// Every sub-stream sees the same watermark sequence (the router
    /// broadcasts them), so all operators swap at the same boundary —
    /// the Fries consistency property. Plans were validated against the
    /// schema when they were scheduled, so the rebuild cannot fail for a
    /// well-behaved control handle; if it does anyway, the panic is
    /// caught by the stage and surfaces as a typed pipeline error.
    fn apply_due_reconfiguration(&mut self, wm: Timestamp, out: &mut dyn Collector<StampedTuple>) {
        // The end-of-stream sentinel is not an epoch: plans scheduled
        // past the stream simply never apply.
        if wm == Timestamp::MAX {
            return;
        }
        let Some((epoch, plan)) = self.control.subscriber.poll(wm) else {
            return;
        };
        let mut em = Emission::new(&mut self.scratch, &mut self.log);
        self.pipeline.finish(&mut em);
        self.drain_scratch(out);
        let mut pipelines = plan
            .build_pipelines(&self.control.schema)
            .unwrap_or_else(|e| panic!("epoch {epoch} plan failed to rebuild: {e}"));
        let idx = self.sub_stream as usize;
        assert!(
            idx < pipelines.len(),
            "epoch {epoch} plan has {} pipelines, sub-stream {idx} needs one",
            pipelines.len()
        );
        self.pipeline = pipelines.swap_remove(idx);
        self.control.epoch_gauge.set(epoch);
        icewafl_obs::trace::instant_with(
            "epoch_swap",
            "control",
            &[("epoch", epoch), ("sub_stream", self.sub_stream as u64)],
        );
    }
}

impl Operator<StampedTuple, StampedTuple> for PipelineOperator {
    fn on_element(&mut self, record: StampedTuple, out: &mut dyn Collector<StampedTuple>) {
        let mut em = Emission::new(&mut self.scratch, &mut self.log);
        self.pipeline.process(record, &mut em);
        self.drain_scratch(out);
    }

    fn on_batch(&mut self, batch: Vec<StampedTuple>, out: &mut dyn Collector<StampedTuple>) {
        // Tuples are still processed one at a time (batching must not
        // change the ground-truth log order).
        for record in batch {
            let mut em = Emission::new(&mut self.scratch, &mut self.log);
            self.pipeline.process(record, &mut em);
        }
        self.drain_scratch(out);
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut dyn Collector<StampedTuple>) {
        let mut em = Emission::new(&mut self.scratch, &mut self.log);
        self.pipeline.on_watermark(wm, &mut em);
        self.drain_scratch(out);
        self.apply_due_reconfiguration(wm, out);
    }

    fn on_barrier(&mut self, barrier: &CheckpointBarrier) {
        let Some(key) = &self.ckpt_key else { return };
        let state = SubstreamState {
            pipeline: self.pipeline.snapshot_states(),
            log_len: self.log.len() as u64,
        };
        if let Ok(doc) = serde_json::to_string(&state) {
            barrier.contribute(key.clone(), doc);
        }
    }

    fn on_end(&mut self, out: &mut dyn Collector<StampedTuple>) {
        let mut em = Emission::new(&mut self.scratch, &mut self.log);
        self.pipeline.finish(&mut em);
        self.drain_scratch(out);
    }

    fn name(&self) -> &'static str {
        "pollution_pipeline"
    }
}

/// The result of a pollution run: the clean stream, the dirty stream,
/// and the ground-truth log.
#[derive(Debug)]
pub struct PollutionOutput {
    /// The prepared clean stream `D` (ids and `τ` assigned, values
    /// untouched).
    pub clean: Vec<StampedTuple>,
    /// The polluted stream `Dᵖ`, sorted by arrival time.
    pub polluted: Vec<StampedTuple>,
    /// Ground truth of every applied error.
    pub log: PollutionLog,
    /// Aggregated observability data: stream totals, per-polluter
    /// statistics, and the per-stage metrics snapshot. All counts read 0
    /// when the `obs` feature is compiled out.
    pub report: RunReport,
}

/// The physical execution settings of a job. Only
/// [`LogicalPlan::compile`] builds them, so every default lives in
/// [`LogicalPlan`]; compiled plans and [`pollute_stream`] alike run
/// them through [`StreamingSession::open`] — one construction path, one
/// executor.
#[derive(Clone)]
pub(crate) struct ExecSettings {
    pub(crate) schema: Schema,
    pub(crate) assigner: SubStreamAssigner,
    /// Emit a watermark every this many source tuples.
    pub(crate) watermark_period: u64,
    /// Record ground truth (disable for overhead benchmarks).
    pub(crate) logging: bool,
    /// Records per frame on the router → sub-stream edges and on the
    /// output (1 = unbatched).
    pub(crate) batch_size: usize,
    /// Restart policy consulted by supervised runs.
    pub(crate) supervision: SupervisorPolicy,
    /// Runtime fault injection (`None` = disabled).
    pub(crate) chaos: Option<ChaosConfig>,
    /// Epoch-reconfiguration channel; empty unless a
    /// [`ControlHandle`](crate::plan::ControlHandle) schedules a plan.
    pub(crate) control: ControlChannel<LogicalPlan>,
    /// Epoch-aligned checkpointing (`None` = supervised retries restart
    /// from tuple zero).
    pub(crate) checkpoint: Option<CheckpointSettings>,
}

/// How a supervised run checkpoints: snapshot cadence plus an optional
/// directory for the write-ahead checkpoint log (in-memory only when
/// absent).
#[derive(Debug, Clone)]
pub(crate) struct CheckpointSettings {
    pub(crate) dir: Option<PathBuf>,
    pub(crate) interval_epochs: u64,
}

/// What an attempt opens its [`StreamingSession`] with besides the
/// plan: the log segments and the chaos panic budget, both shared by
/// every attempt of a run (so a bounded fault is transient — it heals
/// after a restart instead of re-arming); the checkpoint store (`None`
/// = take no checkpoints); the supervisor's deadline; and the frame
/// the attempt resumes from (`None` = start at tuple zero).
pub(crate) struct Attempt {
    segments: LogSegments,
    chaos_budget: Option<Arc<AtomicU64>>,
    store: Option<Arc<CheckpointStore>>,
    deadline: Option<Instant>,
    restore: Option<CheckpointFrame>,
}

impl Attempt {
    /// The first attempt of a run of `pipelines`, checkpointing iff
    /// `checkpoint` is set and the plan has a checkpoint section. The
    /// job is validated first: opening the store truncates an existing
    /// WAL, which a rejected job must leave alone.
    pub(crate) fn first(
        settings: &ExecSettings,
        pipelines: &[PollutionPipeline],
        checkpoint: bool,
    ) -> Result<Self> {
        validate(settings, pipelines)?;
        let store = match settings.checkpoint.as_ref().filter(|_| checkpoint) {
            Some(CheckpointSettings { dir: Some(dir), .. }) => Some(Arc::new(
                CheckpointStore::with_wal(dir.join("checkpoint.wal"))?,
            )),
            Some(_) => Some(Arc::new(CheckpointStore::new())),
            None => None,
        };
        Ok(Attempt {
            segments: LogSegments::new(pipelines.len(), settings.logging),
            chaos_budget: settings.chaos.as_ref().map(ChaosConfig::new_budget),
            store,
            deadline: None,
            restore: None,
        })
    }
}

/// Runs a job over `tuples` to completion — the one loop behind
/// [`PhysicalPlan::execute`](crate::plan::PhysicalPlan::execute),
/// [`PhysicalPlan::execute_supervised`](crate::plan::PhysicalPlan::execute_supervised)
/// and [`pollute_stream`]. Every attempt is a [`StreamingSession`] fed
/// clones of the prepared clean stream into one shared sink.
///
/// An unsupervised run is a single attempt that takes no checkpoints.
/// A `supervised` one follows the plan's policy: on a retryable failure
/// the job is re-attempted with fresh `pipelines`, up to the per-stage
/// retry budget, with backoff between attempts. With a checkpoint
/// section a retry resumes from the latest *complete* checkpoint: the
/// sink is truncated to the committed prefix, the session restores
/// every operator's state (RNG stream positions included) and is fed
/// the stream from the frame's offset on. The invariant is
/// byte-identical output. A failure before the first checkpoint, or
/// any failure of a run without a checkpoint section, restarts from
/// tuple zero.
pub(crate) fn run<F>(
    settings: &ExecSettings,
    tuples: Vec<Tuple>,
    supervised: bool,
    mut pipelines: F,
) -> Result<PollutionOutput>
where
    F: FnMut() -> Result<Vec<PollutionPipeline>>,
{
    let mut first_build = Some(pipelines()?);
    let mut attempt = Attempt::first(
        settings,
        first_build.as_deref().expect("just built"),
        supervised,
    )?;
    let mut supervisor = Supervisor::new(if supervised {
        settings.supervision.clone()
    } else {
        SupervisorPolicy::default()
    });
    attempt.deadline = supervisor.deadline_instant();
    // Prepare once: every attempt is fed clones of this one copy, and a
    // clone shares the tuple's values until a polluter writes to it.
    let clean = prepare_clean(settings, tuples)?;
    // The sink is shared across attempts: the committed prefix of a
    // failed attempt is kept, not recomputed.
    let sink = SharedVecSink::new();
    let (mut restored_from_epoch, mut replayed_tuples, mut recovery_ms) = (0, 0, 0);
    loop {
        let recover_start = Instant::now();
        attempt.restore = attempt.store.as_ref().and_then(|store| store.latest());
        let from = attempt.restore.as_ref().map_or(0, |f| f.source_offset);
        if supervisor.restarts() > 0 && attempt.store.is_some() {
            // The failed attempt was fed the whole stream (a failed
            // stage drops what follows, the feed goes on); what lies
            // past the restore point is fed again.
            replayed_tuples += (clean.len() as u64).saturating_sub(from);
        }
        sink.truncate(attempt.restore.as_ref().map_or(0, |f| f.sink_committed) as usize);
        let built = match first_build.take() {
            Some(built) => built,
            None => pipelines()?,
        };
        let mut session = StreamingSession::open(settings, sink.clone(), built, &attempt)?;
        if let Some(frame) = &attempt.restore {
            restored_from_epoch = frame.epoch;
            recovery_ms += recover_start.elapsed().as_millis() as u64;
        }
        session.feed(&clean[from as usize..]);
        let (stage, kind, message) = match session.finish_with_log() {
            Ok((report, log)) => {
                return Ok(PollutionOutput {
                    clean,
                    polluted: sink.take(),
                    log,
                    report: RunReport {
                        restarts: supervisor.restarts(),
                        restored_from_epoch,
                        replayed_tuples,
                        recovery_ms,
                        ..report
                    },
                })
            }
            Err(icewafl_types::Error::Pipeline {
                stage,
                kind,
                message,
            }) => (stage, kind, message),
            Err(other) => return Err(other),
        };
        let parsed = icewafl_stream::fault::FailureKind::parse(&kind);
        match supervisor.next_retry_for(&stage, parsed) {
            Some(backoff) if !backoff.is_zero() => std::thread::sleep(backoff),
            Some(_) => {}
            None => {
                return Err(icewafl_types::Error::Pipeline {
                    stage,
                    kind,
                    message,
                })
            }
        }
    }
}

/// The sorter buffers whole [`StampedTuple`]s, so its snapshot codec
/// must round-trip them *exactly*. The derived serde of
/// [`icewafl_types::Value`] is untagged and therefore lossy
/// (`Timestamp(5)` re-parses as `Int(5)`, `Float(5.0)` as `Int(5)`) —
/// records travel as tagged [`StampedWire`] documents instead.
fn stamped_codec() -> SorterStateCodec<StampedTuple> {
    SorterStateCodec::new(
        |t: &StampedTuple| serde_json::to_string(&StampedWire::from_tuple(t)).ok(),
        |s: &str| {
            serde_json::from_str::<StampedWire>(s)
                .ok()
                .map(StampedWire::into_tuple)
        },
    )
}

/// Step 1 (Algorithm 1 lines 1–3): prepare. The prepared tuples are
/// both the clean output and what the run feeds its sessions
/// (watermarks are generated from τ, which only exists after
/// preparation).
fn prepare_clean(settings: &ExecSettings, tuples: Vec<Tuple>) -> Result<Vec<StampedTuple>> {
    let mut prepare = PrepareOperator::new(&settings.schema)?;
    Ok(tuples.into_iter().map(|t| prepare.prepare(t)).collect())
}

/// Rejects what no attempt could run: a job without pipelines, chaos
/// rates that are not probabilities, a schema without the event-time
/// attribute preparing stamps tuples from.
fn validate(settings: &ExecSettings, pipelines: &[PollutionPipeline]) -> Result<()> {
    if pipelines.is_empty() {
        return Err(icewafl_types::Error::config(
            "at least one pipeline is required",
        ));
    }
    if settings.chaos.as_ref().is_some_and(|c| !c.is_valid()) {
        return Err(icewafl_types::Error::config(
            "chaos rates must be probabilities in [0, 1]",
        ));
    }
    settings.schema.require_timestamp().map(|_| ())
}

/// The live stat cells of every polluter in `pipelines`.
fn stat_handles_of(pipelines: &[PollutionPipeline]) -> Vec<PolluterStatsHandle> {
    let mut handles = Vec::new();
    for pipeline in pipelines {
        pipeline.collect_stats(&mut handles);
    }
    handles
}

/// The report of a finished single attempt; supervised runs overwrite
/// the restart and recovery fields.
pub(crate) fn run_report(
    settings: &ExecSettings,
    stat_handles: &[PolluterStatsHandle],
    registry: &MetricsRegistry,
    log: &PollutionLog,
    tuples_in: u64,
    tuples_out: u64,
) -> RunReport {
    // Attribute log entries to polluters by name. Polluters sharing
    // a name (across sub-streams) each report the combined count.
    let log_counts = log.counts_by_polluter();
    let polluters = stat_handles
        .iter()
        .map(|h| {
            let mut snap = h.snapshot();
            snap.log_entries = log_counts.get(&h.name).copied().unwrap_or(0) as u64;
            snap
        })
        .collect();
    RunReport {
        tuples_in,
        tuples_out,
        log_entries: log.len() as u64,
        logging_enabled: settings.logging,
        metrics_compiled_in: icewafl_obs::metrics_compiled_in(),
        restarts: 0,
        strategy: Some("sequential".into()),
        epochs_applied: settings.control.applied(),
        checkpoints_taken: 0,
        restored_from_epoch: 0,
        replayed_tuples: 0,
        recovery_ms: 0,
        polluters,
        metrics: registry.snapshot(),
    }
}

/// A [`Sink`] adapter counting records on their way into the real sink
/// (streamed runs have no collected vector to measure afterwards).
struct CountingSink<K> {
    inner: K,
    count: Arc<AtomicU64>,
}

impl<K: Sink<StampedTuple>> Sink<StampedTuple> for CountingSink<K> {
    fn write(&mut self, record: StampedTuple) {
        self.count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.write(record);
    }

    fn write_batch(&mut self, batch: Vec<StampedTuple>) {
        self.count
            .fetch_add(batch.len() as u64, std::sync::atomic::Ordering::Relaxed);
        self.inner.write_batch(batch);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// One execution attempt, opened and waiting to be fed: the split →
/// pollute → union → sort topology of Algorithm 1 behind a push source.
/// Each [`push`](StreamingSession::push) prepares one raw tuple (ids,
/// `τ` and arrival stamps are assigned in arrival order) and runs it
/// through the plan; what the watermark-driven sorter releases on the
/// way reaches the sink before `push` returns, so nothing of the stream
/// is held but what the plan itself holds: one watermark period per
/// sub-stream, plus the tuples a delay polluter keeps back.
///
/// Offline runs are sessions too: they feed a prepared copy of their
/// input and collect the sink, so for the same plan and tuple sequence
/// a session's output is bit-identical to
/// [`PhysicalPlan::execute`](crate::plan::PhysicalPlan::execute)'s.
///
/// A session the caller feeds is a single attempt: a pushed stream
/// cannot be replayed, so supervised restarts do not apply. Plans with
/// a checkpoint section still take epoch-aligned snapshots (reported
/// in `checkpoints_taken`; durable when a WAL dir is set) even though
/// such a session never restores them itself — recovery of a streamed
/// session is an external concern (`CheckpointStore::recover_latest`
/// over the WAL). Sessions sharing a WAL directory overwrite each
/// other; give each session its own.
pub struct StreamingSession {
    pipeline: PushPipeline<StampedTuple>,
    prepare: PrepareOperator,
    tuples_in: u64,
    tuples_out: Arc<AtomicU64>,
    settings: ExecSettings,
    segments: LogSegments,
    stat_handles: Vec<PolluterStatsHandle>,
    registry: MetricsRegistry,
    store: Option<Arc<CheckpointStore>>,
}

impl StreamingSession {
    /// Opens `attempt` of a run of `pipelines` into `sink`. The
    /// sub-streams' pipelines and log segments are rewound to the
    /// attempt's restore frame (or start over without one); chaos
    /// injectors and the sorter pick up their state as the topology is
    /// built. A resumed session counts the tuples before the frame's
    /// offset as taken in and the records the sink already holds as put
    /// out, so its report covers the whole run.
    pub(crate) fn open(
        settings: &ExecSettings,
        sink: impl Sink<StampedTuple> + 'static,
        mut pipelines: Vec<PollutionPipeline>,
        attempt: &Attempt,
    ) -> Result<Self> {
        if settings.chaos.is_some() {
            // Injected panics are expected and caught; keep them from
            // spraying backtraces over the output (a server's included).
            install_quiet_panic_hook();
        }
        let prepare = PrepareOperator::new(&settings.schema)?;
        let frame = attempt.restore.as_ref();
        for (i, pipeline) in pipelines.iter_mut().enumerate() {
            // Without a frame — or without this sub-stream in it — the
            // sub-stream starts over, and so does its log segment.
            let Some(doc) = frame.and_then(|f| f.states.get(&format!("substream_{i}"))) else {
                attempt.segments.truncate(i, 0);
                continue;
            };
            let state: SubstreamState = serde_json::from_str(doc)
                .map_err(|_| icewafl_types::Error::parse(doc.as_str(), "SubstreamState"))?;
            if let Some(pipeline_doc) = &state.pipeline {
                pipeline.restore_states(pipeline_doc)?;
            }
            attempt.segments.truncate(i, state.log_len as usize);
        }
        let base_offset = frame.map_or(0, |f| f.source_offset);
        let sink_base = frame.map_or(0, |f| f.sink_committed);
        let tuples_out = Arc::new(AtomicU64::new(sink_base));
        let sink = CountingSink {
            inner: sink,
            count: Arc::clone(&tuples_out),
        };
        let stat_handles = stat_handles_of(&pipelines);
        let registry = MetricsRegistry::new();

        let checkpoint = attempt
            .store
            .as_ref()
            .zip(settings.checkpoint.as_ref())
            .map(|(store, ckpt)| SourceCheckpoint {
                coordinator: CheckpointCoordinator::new(
                    Arc::clone(store),
                    ckpt.interval_epochs,
                    frame.map_or(0, |f| f.epoch),
                ),
                base_offset,
                resume_wm: frame.map(|f| f.wm_state.clone()),
            });
        let nothing_restored = BTreeMap::new();
        let ckpt_states = checkpoint
            .is_some()
            .then(|| frame.map_or(&nothing_restored, |f| &f.states));

        let (head, source) = DataStream::push_source(source_watermarks(settings), checkpoint);
        let pipeline = pollution_topology(
            settings,
            head,
            pipelines,
            attempt.chaos_budget.clone(),
            &registry,
            &attempt.segments,
            ckpt_states,
        )?
        .open_into(source, sink, &registry, attempt.deadline, sink_base);
        Ok(StreamingSession {
            pipeline,
            prepare,
            tuples_in: base_offset,
            tuples_out,
            settings: settings.clone(),
            segments: attempt.segments.clone(),
            stat_handles,
            registry,
            store: attempt.store.clone(),
        })
    }

    /// Prepares `tuple` and runs it through the plan.
    #[inline]
    pub fn push(&mut self, tuple: Tuple) {
        self.tuples_in += 1;
        self.pipeline.push(self.prepare.prepare(tuple));
    }

    /// Runs clones of already prepared tuples through the plan: how a
    /// run feeds its attempts the one prepared copy of its input.
    fn feed(&mut self, prepared: &[StampedTuple]) {
        self.tuples_in += prepared.len() as u64;
        for tuple in prepared {
            self.pipeline.push(tuple.clone());
        }
    }

    /// Whether a stage of the plan has failed; what is pushed from then
    /// on is dropped, and [`finish`](StreamingSession::finish) reports
    /// the failure.
    pub fn is_failed(&self) -> bool {
        self.pipeline.is_failed()
    }

    /// Ends the stream: everything the plan still holds is flushed
    /// into the sink, then the run is reported. A stage's failure
    /// surfaces as [`icewafl_types::Error::Pipeline`].
    pub fn finish(self) -> Result<RunReport> {
        self.finish_with_log().map(|(report, _)| report)
    }

    /// [`finish`](StreamingSession::finish), handing back the
    /// ground-truth log as well.
    fn finish_with_log(self) -> Result<(RunReport, PollutionLog)> {
        self.pipeline.finish()?;
        let log = self.segments.concat();
        let report = RunReport {
            checkpoints_taken: self.store.map(|s| s.checkpoints_taken()).unwrap_or(0),
            ..run_report(
                &self.settings,
                &self.stat_handles,
                &self.registry,
                &log,
                self.tuples_in,
                self.tuples_out.load(std::sync::atomic::Ordering::Relaxed),
            )
        };
        Ok((report, log))
    }
}

/// The source's watermark cadence: one watermark at `τ` every
/// `watermark_period` tuples.
fn source_watermarks(settings: &ExecSettings) -> WatermarkStrategy<StampedTuple> {
    WatermarkStrategy::bounded_out_of_orderness(
        |t: &StampedTuple| t.tau,
        icewafl_types::Duration::ZERO,
        settings.watermark_period,
    )
}

/// Algorithm 1 behind `head`, whichever way `head` gets its tuples:
/// split into the `m` sub-streams, pollute each with its pipeline,
/// union, sort by arrival, re-batch. A checkpointing run passes the
/// per-operator states it restores from (empty when it starts fresh);
/// chaos injectors and the sorter pick theirs up here.
fn pollution_topology(
    settings: &ExecSettings,
    head: DataStream<StampedTuple>,
    pipelines: Vec<PollutionPipeline>,
    chaos_budget: Option<Arc<AtomicU64>>,
    registry: &MetricsRegistry,
    segments: &LogSegments,
    ckpt_states: Option<&BTreeMap<String, String>>,
) -> Result<DataStream<StampedTuple>> {
    let m = pipelines.len();
    let mut selector = settings.assigner.selector(m);
    let builders: Vec<SubPipelineBuilder<StampedTuple, StampedTuple>> = pipelines
        .into_iter()
        .enumerate()
        .map(|(i, pipeline)| -> Result<_> {
            // Every sub-stream gets a control subscriber; all
            // subscribers see the same broadcast watermark sequence,
            // which is the epoch barrier.
            let control = ControlState {
                subscriber: settings.control.subscriber(),
                schema: settings.schema.clone(),
                epoch_gauge: registry.gauge(&format!("plan/substream_{i}/epoch")),
            };
            let op = PipelineOperator::new(pipeline, i as u32, segments, control);
            let op = if ckpt_states.is_some() {
                op.with_checkpoint_key(format!("substream_{i}"))
            } else {
                op
            };
            // When chaos is on, splice an injector in front of the
            // pollution operator of every sub-stream, each with its
            // own seed but a budget shared across retries.
            let chaos_op = match settings.chaos.as_ref() {
                Some(chaos) => {
                    let mut cfg = chaos.clone();
                    cfg.seed = chaos.seed.wrapping_add(i as u64);
                    let budget = chaos_budget.clone().unwrap_or_else(|| cfg.new_budget());
                    let mut chaos_op = ChaosOperator::with_shared_budget(cfg, budget)
                        .with_metrics(ChaosMetrics::register(
                            registry,
                            &format!("chaos/substream_{i}"),
                        ))
                        .with_malform(|t: &mut StampedTuple| {
                            for v in t.tuple.values_mut() {
                                *v = icewafl_types::Value::Null;
                            }
                        });
                    if let Some(states) = ckpt_states {
                        let key = format!("chaos_{i}");
                        // Restore the injector's record counter and RNG
                        // position so a resumed attempt replays the
                        // *same* fault schedule instead of re-rolling.
                        if let Some(doc) = states.get(&key) {
                            chaos_op.restore_state(doc)?;
                        }
                        chaos_op = chaos_op.with_checkpoint_key(key);
                    }
                    Some(chaos_op)
                }
                None => None,
            };
            let b: SubPipelineBuilder<StampedTuple, StampedTuple> =
                Box::new(move |s: DataStream<StampedTuple>| match chaos_op {
                    Some(chaos_op) => s.transform(chaos_op).transform(op),
                    None => s.transform(op),
                });
            Ok(b)
        })
        .collect::<Result<_>>()?;

    let batch_size = settings.batch_size.max(1);
    let merged = head.split_merge_batched(
        move |t: &StampedTuple, out: &mut Vec<usize>| selector(t.id, out),
        builders,
        batch_size,
    );
    // Algorithm 1, line 11: sortByTimestamp — by *arrival* time, so
    // delayed tuples surface late (see `StampedTuple::arrival`). Equal
    // arrivals order by sub-stream, then by emission order within the
    // sub-stream: the merged order is a function of the tuples alone,
    // not of how the sub-streams were interleaved on their way here.
    // The snapshot codec is inert unless a barrier arrives.
    let mut sorter = EventTimeSorter::new(|t: &StampedTuple| (t.arrival, t.sub_stream))
        .with_state_codec("sorter", stamped_codec());
    if let Some(doc) = ckpt_states.and_then(|states| states.get("sorter")) {
        sorter.restore_state(doc)?;
    }
    // Re-coalesce the sorter's per-record releases into batch frames so
    // a sink with a whole-batch fast path (e.g. columnar network
    // frames) gets batches; order and barrier placement are untouched.
    Ok(merged.sort_with(sorter).rebatched(batch_size))
}

/// Runs one hand-built pipeline over a stream — the entry point for
/// pipelines assembled from the trait-level API rather than described
/// by a [`LogicalPlan`]. It is a single attempt under the settings
/// `LogicalPlan::new(0, vec![vec![]])` compiles to, so its defaults are
/// the plan's.
///
/// A pipeline is consumed by the run (it holds RNG state); rebuild it
/// to repeat a run, as the experiments do 50 times per scenario. A
/// failing stage surfaces as [`icewafl_types::Error::Pipeline`] naming
/// it.
pub fn pollute_stream(
    schema: &Schema,
    tuples: Vec<Tuple>,
    pipeline: PollutionPipeline,
) -> Result<PollutionOutput> {
    let physical = LogicalPlan::new(0, vec![vec![]]).compile(schema)?;
    let mut pipeline = Some(pipeline);
    run(physical.settings(), tuples, false, || {
        Ok(pipeline.take().into_iter().collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{HourRange, Probability};
    use crate::config::{
        ChaosSectionConfig, CheckpointSectionConfig, ConditionConfig, ErrorConfig, PolluterConfig,
        SupervisionConfig,
    };
    use crate::error_fn::MissingValue;
    use crate::pattern::ChangePattern;
    use crate::plan::AssignerSpec;
    use crate::polluter::StandardPolluter;
    use crate::temporal::DelayPolluter;
    use icewafl_types::{DataType, Duration, Value};
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    fn raw_stream(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 60_000)),
                    Value::Float(i as f64),
                ])
            })
            .collect()
    }

    fn null_pipeline(p: f64, seed: u64) -> PollutionPipeline {
        PollutionPipeline::new(vec![Box::new(
            StandardPolluter::bind(
                "null-x",
                Box::new(MissingValue),
                Box::new(Probability::new(p, StdRng::seed_from_u64(seed))),
                &["x"],
                ChangePattern::Constant,
                &schema(),
                StdRng::seed_from_u64(seed + 1),
            )
            .unwrap(),
        )])
    }

    #[test]
    fn clean_and_polluted_align_by_id() {
        let out = pollute_stream(&schema(), raw_stream(100), null_pipeline(0.5, 1)).unwrap();
        assert_eq!(out.clean.len(), 100);
        assert_eq!(out.polluted.len(), 100);
        // Every polluted tuple joins a clean one with identical tau.
        for p in &out.polluted {
            let c = out
                .clean
                .iter()
                .find(|c| c.id == p.id)
                .expect("clean partner");
            assert_eq!(c.tau, p.tau);
        }
        // The log ids match the actually nulled tuples.
        let nulled: std::collections::HashSet<u64> = out
            .polluted
            .iter()
            .filter(|t| t.tuple.get(1).unwrap().is_null())
            .map(|t| t.id)
            .collect();
        assert_eq!(nulled, out.log.polluted_tuple_ids());
        assert!(!nulled.is_empty());
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = pollute_stream(&schema(), raw_stream(200), null_pipeline(0.3, 7)).unwrap();
        let b = pollute_stream(&schema(), raw_stream(200), null_pipeline(0.3, 7)).unwrap();
        assert_eq!(a.polluted, b.polluted);
        assert_eq!(a.log.entries(), b.log.entries());
        let c = pollute_stream(&schema(), raw_stream(200), null_pipeline(0.3, 8)).unwrap();
        assert_ne!(a.log.entries(), c.log.entries(), "different seed differs");
    }

    #[test]
    fn delay_polluter_reorders_output() {
        // Delay tuples in hour 0 (the first 60 tuples) by 2 hours.
        let pipeline = PollutionPipeline::new(vec![Box::new(
            DelayPolluter::new(
                "net",
                Box::new(HourRange::new(0, 1)),
                Duration::from_hours(2),
            )
            .unwrap(),
        )]);
        let out = pollute_stream(&schema(), raw_stream(240), pipeline).unwrap();
        assert_eq!(out.polluted.len(), 240);
        // Output is sorted by arrival...
        assert!(out
            .polluted
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        // ...but NOT by the Time attribute: delayed tuples surface late.
        let times: Vec<i64> = out
            .polluted
            .iter()
            .map(|t| t.tuple.get(0).unwrap().as_timestamp().unwrap().millis())
            .collect();
        assert!(
            times.windows(2).any(|w| w[0] > w[1]),
            "increasing order must be violated"
        );
        assert_eq!(out.log.len(), 60);
    }

    fn null_spec(p: f64) -> PolluterConfig {
        PolluterConfig::Standard {
            name: "null-x".into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Probability { p },
            pattern: None,
        }
    }

    /// A plan of `m` empty pipelines.
    fn empty_plan(m: usize) -> LogicalPlan {
        LogicalPlan::new(0, vec![vec![]; m])
    }

    fn run(plan: &LogicalPlan, n: i64) -> Result<PollutionOutput> {
        plan.compile(&schema())?.execute(raw_stream(n))
    }

    fn run_supervised(plan: &LogicalPlan, n: i64) -> Result<PollutionOutput> {
        plan.compile(&schema())?.execute_supervised(raw_stream(n))
    }

    fn two_retries() -> Option<SupervisionConfig> {
        Some(SupervisionConfig {
            max_retries: 2,
            deterministic: true,
            ..SupervisionConfig::default()
        })
    }

    #[test]
    fn broadcast_substreams_duplicate_tuples() {
        let plan = LogicalPlan {
            assigner: AssignerSpec::Broadcast,
            ..empty_plan(2)
        };
        let out = run(&plan, 10).unwrap();
        assert_eq!(
            out.polluted.len(),
            20,
            "every tuple through both sub-streams"
        );
        let subs: std::collections::HashSet<u32> =
            out.polluted.iter().map(|t| t.sub_stream).collect();
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn round_robin_partitions() {
        let plan = LogicalPlan {
            assigner: AssignerSpec::RoundRobin,
            ..empty_plan(2)
        };
        let out = run(&plan, 10).unwrap();
        assert_eq!(out.polluted.len(), 10);
        for t in &out.polluted {
            assert_eq!(u64::from(t.sub_stream), t.id % 2);
        }
    }

    #[test]
    fn probabilistic_assignment_loses_nothing() {
        let plan = LogicalPlan {
            seed: 5,
            assigner: AssignerSpec::Probabilistic { p: 0.3 },
            ..empty_plan(2)
        };
        let out = run(&plan, 500).unwrap();
        let ids: std::collections::HashSet<u64> = out.polluted.iter().map(|t| t.id).collect();
        assert_eq!(
            ids.len(),
            500,
            "every tuple reaches at least one sub-stream"
        );
        assert!(
            out.polluted.len() > 500,
            "some overlap expected at p=0.3 per stream"
        );
    }

    #[test]
    fn without_logging_produces_empty_log() {
        let plan = LogicalPlan {
            logging: false,
            ..LogicalPlan::new(1, vec![vec![null_spec(1.0)]])
        };
        let out = run(&plan, 50).unwrap();
        assert!(out.log.is_empty());
        assert!(out
            .polluted
            .iter()
            .all(|t| t.tuple.get(1).unwrap().is_null()));
    }

    #[test]
    fn requires_at_least_one_pipeline() {
        assert!(run(&empty_plan(0), 1).is_err());
    }

    #[test]
    fn chaos_panic_fails_with_stage_attribution() {
        let plan = LogicalPlan {
            chaos: Some(ChaosSectionConfig {
                panic_rate: 1.0,
                ..ChaosSectionConfig::default()
            }),
            ..empty_plan(1)
        };
        match run(&plan, 10).unwrap_err() {
            icewafl_types::Error::Pipeline {
                stage,
                kind,
                message,
            } => {
                assert!(
                    stage.contains("chaos"),
                    "stage `{stage}` names the injector"
                );
                assert_eq!(kind, "injected");
                assert!(message.contains("injected panic"), "message: {message}");
            }
            other => panic!("expected a pipeline error, got {other}"),
        }
    }

    #[test]
    fn invalid_chaos_rates_are_rejected() {
        let plan = LogicalPlan {
            chaos: Some(ChaosSectionConfig {
                panic_rate: 2.0,
                ..ChaosSectionConfig::default()
            }),
            ..empty_plan(1)
        };
        assert!(run(&plan, 1).is_err());
    }

    #[test]
    fn supervised_run_recovers_from_transient_chaos_fault() {
        let plan = LogicalPlan {
            chaos: Some(ChaosSectionConfig {
                panic_rate: 1.0,
                panic_budget: Some(1), // transient: heals after one restart
                ..ChaosSectionConfig::default()
            }),
            supervision: two_retries(),
            ..LogicalPlan::new(9, vec![vec![null_spec(0.5)]])
        };
        let out = run_supervised(&plan, 50).unwrap();
        assert_eq!(out.report.restarts, 1, "exactly one restart consumed");
        assert_eq!(out.polluted.len(), 50, "retry reprocesses the full stream");
    }

    #[test]
    fn supervised_run_gives_up_after_retry_budget() {
        let plan = LogicalPlan {
            chaos: Some(ChaosSectionConfig {
                panic_rate: 1.0, // unbounded budget: every attempt panics
                ..ChaosSectionConfig::default()
            }),
            supervision: two_retries(),
            ..empty_plan(1)
        };
        let err = run_supervised(&plan, 10).unwrap_err();
        assert!(matches!(
            err,
            icewafl_types::Error::Pipeline { ref kind, .. } if kind == "injected"
        ));
    }

    #[test]
    fn checkpointed_retry_resumes_and_is_byte_identical() {
        let calm = LogicalPlan {
            watermark_period: 16,
            ..LogicalPlan::new(42, vec![vec![null_spec(0.5)]])
        };
        let reference = run_supervised(&calm, 200).unwrap();
        let hurt = LogicalPlan {
            chaos: Some(ChaosSectionConfig {
                kill_at_tuple: Some(120),
                panic_budget: Some(1),
                ..ChaosSectionConfig::default()
            }),
            checkpoint: Some(CheckpointSectionConfig {
                dir: None,
                interval_epochs: 1,
            }),
            supervision: two_retries(),
            ..calm
        };
        let recovered = run_supervised(&hurt, 200).unwrap();
        assert_eq!(
            recovered.polluted, reference.polluted,
            "byte-identical output"
        );
        assert_eq!(recovered.log.entries(), reference.log.entries());
        assert_eq!(recovered.report.restarts, 1);
        assert!(recovered.report.checkpoints_taken > 0);
        assert!(
            recovered.report.restored_from_epoch > 0,
            "resumed, not restarted"
        );
        assert!(
            recovered.report.replayed_tuples < 120,
            "replay shorter than the pre-kill prefix: {}",
            recovered.report.replayed_tuples
        );
    }

    #[test]
    fn checkpointing_without_faults_leaves_output_unchanged() {
        let plain_plan = LogicalPlan {
            watermark_period: 16,
            ..LogicalPlan::new(7, vec![vec![null_spec(0.5)]])
        };
        let plain = run_supervised(&plain_plan, 150).unwrap();
        let ckpt_plan = LogicalPlan {
            checkpoint: Some(CheckpointSectionConfig {
                dir: None,
                interval_epochs: 2,
            }),
            ..plain_plan
        };
        let ckpt = run_supervised(&ckpt_plan, 150).unwrap();
        assert_eq!(ckpt.polluted, plain.polluted, "barriers are pass-through");
        assert_eq!(ckpt.log.entries(), plain.log.entries());
        assert_eq!(ckpt.report.restored_from_epoch, 0);
        assert_eq!(ckpt.report.replayed_tuples, 0);
        assert!(ckpt.report.checkpoints_taken > 0);
    }

    #[test]
    fn supervised_run_without_faults_reports_zero_restarts() {
        let plan = LogicalPlan::new(3, vec![vec![null_spec(0.5)]]);
        let out = run_supervised(&plan, 20).unwrap();
        assert_eq!(out.report.restarts, 0);
        assert_eq!(out.polluted.len(), 20);
    }

    #[test]
    fn chaos_drops_and_malforms_are_observable() {
        let chaotic = |chaos| LogicalPlan {
            chaos: Some(chaos),
            ..empty_plan(1)
        };
        let out = run(
            &chaotic(ChaosSectionConfig {
                drop_rate: 1.0,
                ..ChaosSectionConfig::default()
            }),
            30,
        )
        .unwrap();
        assert!(out.polluted.is_empty(), "every record dropped in flight");

        let out = run(
            &chaotic(ChaosSectionConfig {
                malform_rate: 1.0,
                ..ChaosSectionConfig::default()
            }),
            10,
        )
        .unwrap();
        assert_eq!(out.polluted.len(), 10);
        assert!(out
            .polluted
            .iter()
            .all(|t| t.tuple.values().iter().all(|v| v.is_null())));
    }

    #[test]
    fn pollute_then_sort_is_stable_for_value_errors() {
        // Value-only pollution must preserve the input order exactly.
        let out = pollute_stream(&schema(), raw_stream(100), null_pipeline(0.5, 2)).unwrap();
        let ids: Vec<u64> = out.polluted.iter().map(|t| t.id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
    }
}
