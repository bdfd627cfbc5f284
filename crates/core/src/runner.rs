//! The end-to-end pollution process (Algorithm 1).
//!
//! prepare → split into `m` (overlapping) sub-streams → pollute each
//! sub-stream with its pipeline → union with sub-stream ids → sort by
//! arrival time → output the clean stream `D`, the dirty stream `Dᵖ`,
//! and the ground-truth log.

use crate::log::PollutionLog;
use crate::pipeline::PollutionPipeline;
use crate::plan::{LogicalPlan, DEFAULT_BATCH_SIZE};
use crate::polluter::Emission;
use crate::prepare::PrepareOperator;
use crate::report::RunReport;
use crate::snapshot::StampedWire;
use crate::stats::PolluterStatsHandle;
use icewafl_obs::MetricsRegistry;
use icewafl_stream::chaos::{install_quiet_panic_hook, ChaosConfig, ChaosOperator};
use icewafl_stream::checkpoint::{
    CheckpointBarrier, CheckpointCoordinator, CheckpointStore, StateSnapshot, WatermarkGenState,
};
use icewafl_stream::control::{ControlChannel, ControlSubscriber};
use icewafl_stream::metrics::ChaosMetrics;
use icewafl_stream::prelude::*;
use icewafl_stream::sort::{EventTimeSorter, SorterStateCodec};
use icewafl_stream::supervisor::{Supervisor, SupervisorPolicy};
use icewafl_stream::{PushPipeline, SubPipelineBuilder};
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
pub enum SubStreamAssigner {
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

/// Per-tuple sub-stream membership selector.
type Selector = Box<dyn FnMut(&StampedTuple, &mut Vec<usize>) + Send>;

impl SubStreamAssigner {
    /// Builds the per-tuple membership selector.
    fn selector(&self, m: usize) -> Selector {
        match self {
            SubStreamAssigner::Broadcast => Box::new(move |_, out| out.extend(0..m)),
            SubStreamAssigner::RoundRobin => {
                Box::new(move |t, out| out.push((t.id % m as u64) as usize))
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
/// A checkpointed run keeps the segments across attempts and rewinds
/// each one to the length its own operator recorded at the barrier.
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
    control: Option<ControlState>,
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
    /// the operator lives.
    fn new(pipeline: PollutionPipeline, sub_stream: u32, segments: &LogSegments) -> Self {
        PipelineOperator {
            pipeline,
            sub_stream,
            log: segments.take(sub_stream as usize),
            segments: segments.clone(),
            scratch: Vec::new(),
            control: None,
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

    /// Attaches a reconfiguration subscriber: scheduled plans are
    /// applied at the first watermark at or past their timestamp.
    fn with_control(
        mut self,
        subscriber: ControlSubscriber<LogicalPlan>,
        schema: Schema,
        epoch_gauge: icewafl_obs::Gauge,
    ) -> Self {
        self.control = Some(ControlState {
            subscriber,
            schema,
            epoch_gauge,
        });
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
        let due = match self.control.as_mut() {
            // The end-of-stream sentinel is not an epoch: plans
            // scheduled past the stream simply never apply.
            Some(ctrl) if wm != Timestamp::MAX => ctrl.subscriber.poll(wm),
            _ => None,
        };
        let Some((epoch, plan)) = due else { return };
        let mut em = Emission::new(&mut self.scratch, &mut self.log);
        self.pipeline.finish(&mut em);
        self.drain_scratch(out);
        let ctrl = self.control.as_ref().expect("checked above");
        let mut pipelines = plan
            .build_pipelines(&ctrl.schema)
            .unwrap_or_else(|e| panic!("epoch {epoch} plan failed to rebuild: {e}"));
        let idx = self.sub_stream as usize;
        assert!(
            idx < pipelines.len(),
            "epoch {epoch} plan has {} pipelines, sub-stream {idx} needs one",
            pipelines.len()
        );
        self.pipeline = pipelines.swap_remove(idx);
        ctrl.epoch_gauge.set(epoch);
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

/// The physical execution settings shared by every entry point: the
/// builder API ([`PollutionJob`]) and compiled plans
/// ([`crate::plan::PhysicalPlan`]) both lower to this struct and run
/// through [`execute_attempt`] — one construction path, one executor.
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
    /// Epoch-reconfiguration channel (`None` = job is not
    /// reconfigurable; only compiled plans attach one).
    pub(crate) control: Option<ControlChannel<LogicalPlan>>,
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

/// A configured pollution job: `m` pipelines plus a sub-stream
/// assignment strategy over a fixed schema.
///
/// This is the expert/builder entry point. It shares its execution
/// engine with the plan layer: both lower to the same internal
/// `ExecSettings` and the same `execute_attempt` path that
/// [`crate::plan::PhysicalPlan`] uses.
pub struct PollutionJob {
    settings: ExecSettings,
}

impl PollutionJob {
    /// A job over `schema` with a single sub-stream.
    pub fn new(schema: Schema) -> Self {
        PollutionJob {
            settings: ExecSettings {
                schema,
                assigner: SubStreamAssigner::Broadcast,
                watermark_period: 64,
                logging: true,
                batch_size: DEFAULT_BATCH_SIZE,
                supervision: SupervisorPolicy::default(),
                chaos: None,
                control: None,
                checkpoint: None,
            },
        }
    }

    /// Sets the sub-stream assignment strategy (only relevant with
    /// multiple pipelines).
    pub fn with_assigner(mut self, assigner: SubStreamAssigner) -> Self {
        self.settings.assigner = assigner;
        self
    }

    /// Sets the source watermark period (tuples per watermark).
    pub fn with_watermark_period(mut self, period: u64) -> Self {
        self.settings.watermark_period = period.max(1);
        self
    }

    /// Disables ground-truth logging.
    pub fn without_logging(mut self) -> Self {
        self.settings.logging = false;
        self
    }

    /// Sets the transport batch size: how many records the router hands
    /// a sub-stream, and the output carries, per frame. `1` disables
    /// batching; the effective batch is also capped by the watermark
    /// period, since partial batches flush at every watermark. Output
    /// is bit-identical across batch sizes.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.settings.batch_size = batch_size.max(1);
        self
    }

    /// Sets the restart policy for [`PollutionJob::run_supervised`].
    pub fn with_supervision(mut self, policy: SupervisorPolicy) -> Self {
        self.settings.supervision = policy;
        self
    }

    /// Overrides only the per-stage retry budget of the restart policy
    /// (0 = fail-fast) — what the CLI's `--max-retries`/`--fail-fast`
    /// flags set on top of a configured policy.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.settings.supervision.max_retries = max_retries;
        self
    }

    /// The current restart policy.
    pub fn supervision(&self) -> &SupervisorPolicy {
        &self.settings.supervision
    }

    /// Enables chaos injection: a fault injector is spliced in front of
    /// every sub-stream pipeline, seeded `chaos.seed + i` for sub-stream
    /// `i`. Malform faults overwrite every tuple value with NULL.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.settings.chaos = Some(chaos);
        self
    }

    /// Enables epoch-aligned checkpointing for
    /// [`PollutionJob::run_supervised`]: a barrier is injected every
    /// `interval_epochs` watermarks, every stateful operator snapshots
    /// its exact state, and a supervised retry resumes from the latest
    /// complete checkpoint instead of restarting from tuple zero. When
    /// `dir` is set, frames are additionally appended to a versioned
    /// write-ahead log at `dir/checkpoint.wal`.
    pub fn with_checkpointing(
        mut self,
        dir: Option<std::path::PathBuf>,
        interval_epochs: u64,
    ) -> Self {
        self.settings.checkpoint = Some(CheckpointSettings {
            dir,
            interval_epochs: interval_epochs.max(1),
        });
        self
    }

    /// Executes Algorithm 1 over an in-memory stream with the given
    /// pollution pipelines (one per sub-stream; `m = pipelines.len()`).
    ///
    /// Pipelines are consumed by the run (they hold RNG state); rebuild
    /// them — e.g. from a [`JobConfig`](crate::config::JobConfig) — to
    /// repeat a run, as the experiments do 50 times per scenario.
    ///
    /// A worker panic, injected chaos fault, or operator panic surfaces
    /// as [`icewafl_types::Error::Pipeline`] naming the failing stage;
    /// the pipeline drains and terminates cleanly rather than deadlock.
    /// This is a *single attempt* — for restarts, use
    /// [`PollutionJob::run_supervised`].
    pub fn run(
        &self,
        tuples: Vec<Tuple>,
        pipelines: Vec<PollutionPipeline>,
    ) -> Result<PollutionOutput> {
        let budget = self.settings.chaos.as_ref().map(ChaosConfig::new_budget);
        execute_attempt(&self.settings, tuples, pipelines, budget, None)
    }

    /// Runs with supervised restarts: on a retryable failure the job is
    /// re-attempted with fresh pipelines from `pipelines` (rebuilding
    /// restores their RNG state), up to the policy's per-stage retry
    /// budget, with backoff between attempts. The chaos panic budget is
    /// shared across attempts, so a bounded fault is transient — it
    /// heals after restart instead of re-arming. On success the report
    /// records how many restarts were consumed.
    pub fn run_supervised<F>(&self, tuples: Vec<Tuple>, pipelines: F) -> Result<PollutionOutput>
    where
        F: FnMut() -> Result<Vec<PollutionPipeline>>,
    {
        run_supervised_with(&self.settings, tuples, pipelines)
    }
}

/// The supervised-retry loop shared by [`PollutionJob::run_supervised`]
/// and [`crate::plan::PhysicalPlan::execute_supervised`].
pub(crate) fn run_supervised_with<F>(
    settings: &ExecSettings,
    tuples: Vec<Tuple>,
    mut pipelines: F,
) -> Result<PollutionOutput>
where
    F: FnMut() -> Result<Vec<PollutionPipeline>>,
{
    if settings.checkpoint.is_some() {
        return run_supervised_checkpointed(settings, tuples, pipelines);
    }
    let mut supervisor = Supervisor::new(settings.supervision.clone());
    let budget = settings.chaos.as_ref().map(ChaosConfig::new_budget);
    // Prepare once: every attempt replays the same shared clean stream,
    // so a run that never restarts holds one copy of its input.
    let clean = prepare_clean(settings, tuples)?;
    loop {
        let attempt = execute_prepared(
            settings,
            &clean,
            pipelines()?,
            budget.clone(),
            supervisor.deadline_instant(),
        );
        match attempt {
            Ok(mut out) => {
                out.clean = unshare(clean);
                out.report.restarts = supervisor.restarts();
                return Ok(out);
            }
            Err(icewafl_types::Error::Pipeline {
                stage,
                kind,
                message,
            }) => {
                let parsed = icewafl_stream::fault::FailureKind::parse(&kind);
                match supervisor.next_retry_for(&stage, parsed) {
                    Some(backoff) => {
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                    }
                    None => {
                        return Err(icewafl_types::Error::Pipeline {
                            stage,
                            kind,
                            message,
                        })
                    }
                }
            }
            Err(other) => return Err(other),
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

/// The checkpointed supervised loop: instead of re-running from tuple
/// zero, a retry restores the latest *complete* checkpoint — the shared
/// sink is truncated to the committed prefix and every log segment to
/// the length its own sub-stream recorded at the barrier, fresh
/// pipelines are rewound to their snapshotted state (RNG stream
/// positions included), and the replayable source resumes from the
/// frame's offset with the recorded watermark-generator position.
///
/// The invariant is byte-identical output: a recovered run's polluted
/// stream and log must equal an undisturbed run's, which is why
/// snapshots carry exact RNG positions and pending buffers rather than
/// re-seeding. A failure before the first checkpoint falls back to a
/// full restart (offset 0), preserving plain supervised semantics.
fn run_supervised_checkpointed<F>(
    settings: &ExecSettings,
    tuples: Vec<Tuple>,
    mut pipelines: F,
) -> Result<PollutionOutput>
where
    F: FnMut() -> Result<Vec<PollutionPipeline>>,
{
    let ckpt = settings.checkpoint.as_ref().expect("caller checked");
    if settings.chaos.is_some() {
        install_quiet_panic_hook();
    }
    // Validate before the store opens: opening it truncates an existing
    // WAL, which a rejected job must leave alone.
    let mut first_build = Some(pipelines()?);
    validate(settings, first_build.as_deref().expect("just built"))?;
    let store = match &ckpt.dir {
        Some(dir) => Arc::new(CheckpointStore::with_wal(dir.join("checkpoint.wal"))?),
        None => Arc::new(CheckpointStore::new()),
    };
    let mut supervisor = Supervisor::new(settings.supervision.clone());
    let budget = settings.chaos.as_ref().map(ChaosConfig::new_budget);

    // Prepare once: the prepared clean stream doubles as the replayable
    // source, so a restore can slice off the already-checkpointed
    // prefix instead of replaying history.
    let clean = prepare_clean(settings, tuples)?;

    // Sink and log segments are shared across attempts — the committed
    // prefix of a failed attempt is kept, not recomputed. The segment
    // count is fixed by the first build below.
    let mut segments: Option<LogSegments> = None;
    let sink = SharedVecSink::new();

    let mut restored_from_epoch: u64 = 0;
    let mut replayed_tuples: u64 = 0;
    let mut recovery_ms: u64 = 0;
    // Absolute source offset the most recent failed attempt had reached
    // (replay accounting for the next restore).
    let mut processed_abs: u64 = 0;

    loop {
        let frame = store.latest();
        let recover_start = Instant::now();
        let base_offset = frame.as_ref().map(|f| f.source_offset).unwrap_or(0);
        match &frame {
            Some(f) => {
                restored_from_epoch = f.epoch;
                replayed_tuples += processed_abs.saturating_sub(f.source_offset);
                sink.truncate(f.sink_committed as usize);
            }
            None => {
                // No checkpoint yet: full restart (a no-op before the
                // first attempt).
                replayed_tuples += processed_abs;
                sink.truncate(0);
            }
        }
        let mut built = match first_build.take() {
            Some(built) => built,
            None => pipelines()?,
        };
        let segments =
            segments.get_or_insert_with(|| LogSegments::new(built.len(), settings.logging));
        for (i, pipeline) in built.iter_mut().enumerate() {
            // Without a frame — or without this sub-stream in it — the
            // sub-stream starts over, and so does its log segment.
            let Some(doc) = frame
                .as_ref()
                .and_then(|f| f.states.get(&format!("substream_{i}")))
            else {
                segments.truncate(i, 0);
                continue;
            };
            let state: SubstreamState = serde_json::from_str(doc)
                .map_err(|_| icewafl_types::Error::parse(doc.as_str(), "SubstreamState"))?;
            if let Some(pipeline_doc) = &state.pipeline {
                pipeline.restore_states(pipeline_doc)?;
            }
            segments.truncate(i, state.log_len as usize);
        }
        if frame.is_some() {
            recovery_ms += recover_start.elapsed().as_millis() as u64;
        }

        let stat_handles = stat_handles_of(&built);
        let registry = MetricsRegistry::new();
        let coordinator = CheckpointCoordinator::new(
            Arc::clone(&store),
            ckpt.interval_epochs,
            frame.as_ref().map(|f| f.epoch).unwrap_or(0),
        );
        let emitted = coordinator.emitted_counter();
        let drive = CheckpointDrive {
            coordinator,
            base_offset,
            resume_wm: frame.as_ref().map(|f| f.wm_state.clone()),
            states: frame.map(|f| f.states).unwrap_or_default(),
            sink_base: sink.len() as u64,
        };
        let source = replay_source(&clean, base_offset as usize);
        let attempt = drive_pipelines(
            settings,
            source,
            sink.clone(),
            built,
            budget.clone(),
            supervisor.deadline_instant(),
            &registry,
            segments,
            Some(drive),
        );
        match attempt {
            Ok(()) => {
                let polluted = sink.take();
                let log = segments.concat();
                let report = RunReport {
                    restarts: supervisor.restarts(),
                    checkpoints_taken: store.checkpoints_taken(),
                    restored_from_epoch,
                    replayed_tuples,
                    recovery_ms,
                    ..run_report(
                        settings,
                        &stat_handles,
                        &registry,
                        &log,
                        clean.len() as u64,
                        polluted.len() as u64,
                    )
                };
                return Ok(PollutionOutput {
                    clean: unshare(clean),
                    polluted,
                    log,
                    report,
                });
            }
            Err(icewafl_types::Error::Pipeline {
                stage,
                kind,
                message,
            }) => {
                processed_abs = base_offset + emitted.load(std::sync::atomic::Ordering::Relaxed);
                let parsed = icewafl_stream::fault::FailureKind::parse(&kind);
                match supervisor.next_retry_for(&stage, parsed) {
                    Some(backoff) => {
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                    }
                    None => {
                        return Err(icewafl_types::Error::Pipeline {
                            stage,
                            kind,
                            message,
                        })
                    }
                }
            }
            Err(other) => return Err(other),
        }
    }
}

/// One execution attempt — the single construction + execution path
/// behind every entry point. `chaos_budget` carries the panic budget
/// across supervised retries; `deadline` is enforced mid-run by the
/// source drivers.
pub(crate) fn execute_attempt(
    settings: &ExecSettings,
    tuples: Vec<Tuple>,
    pipelines: Vec<PollutionPipeline>,
    chaos_budget: Option<Arc<AtomicU64>>,
    deadline: Option<Instant>,
) -> Result<PollutionOutput> {
    let clean = prepare_clean(settings, tuples)?;
    let mut out = execute_prepared(settings, &clean, pipelines, chaos_budget, deadline)?;
    out.clean = unshare(clean);
    Ok(out)
}

/// Step 1 (Algorithm 1 lines 1–3): prepare. The prepared tuples are
/// both the clean output and the source of the streaming job
/// (watermarks are generated from τ, which only exists after
/// preparation); the handle is shared so that a supervised run's
/// attempts all replay the one copy.
fn prepare_clean(settings: &ExecSettings, tuples: Vec<Tuple>) -> Result<Arc<Vec<StampedTuple>>> {
    let mut prepare = PrepareOperator::new(&settings.schema)?;
    Ok(Arc::new(
        tuples.into_iter().map(|t| prepare.prepare(t)).collect(),
    ))
}

/// Rejects what no attempt could run: a job without pipelines, chaos
/// rates that are not probabilities.
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
    Ok(())
}

/// [`execute_attempt`] over an already prepared stream. The output's
/// `clean` is left empty: the caller holds the shared clean stream and
/// moves it in once the run's source has let go of it.
fn execute_prepared(
    settings: &ExecSettings,
    clean: &Arc<Vec<StampedTuple>>,
    pipelines: Vec<PollutionPipeline>,
    chaos_budget: Option<Arc<AtomicU64>>,
    deadline: Option<Instant>,
) -> Result<PollutionOutput> {
    validate(settings, &pipelines)?;
    if settings.chaos.is_some() {
        // Injected panics are expected and caught; keep them from
        // spraying backtraces over the output.
        install_quiet_panic_hook();
    }

    let segments = LogSegments::new(pipelines.len(), settings.logging);

    // Collect per-polluter stat handles before the builders consume
    // the pipelines — the cells are Arc-shared, so these handles
    // read live values during and after the run.
    let stat_handles = stat_handles_of(&pipelines);
    let registry = MetricsRegistry::new();

    let sink = SharedVecSink::new();
    drive_pipelines(
        settings,
        replay_source(clean, 0),
        sink.clone(),
        pipelines,
        chaos_budget,
        deadline,
        &registry,
        &segments,
        None,
    )?;
    let polluted = sink.take();

    let log = segments.concat();
    let report = run_report(
        settings,
        &stat_handles,
        &registry,
        &log,
        clean.len() as u64,
        polluted.len() as u64,
    );
    Ok(PollutionOutput {
        clean: Vec::new(),
        polluted,
        log,
        report,
    })
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
fn run_report(
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
        epochs_applied: settings
            .control
            .as_ref()
            .map(ControlChannel::applied)
            .unwrap_or(0),
        checkpoints_taken: 0,
        restored_from_epoch: 0,
        replayed_tuples: 0,
        recovery_ms: 0,
        polluters,
        metrics: registry.snapshot(),
    }
}

/// A source over `clean[from..]` that clones each prepared tuple as it
/// is pulled, so `clean` stays the only whole-stream copy of the input
/// (a `VecSource` would need a second one for the length of the run).
fn replay_source(clean: &Arc<Vec<StampedTuple>>, from: usize) -> impl Source<StampedTuple> {
    let clean = Arc::clone(clean);
    IterSource::new((from..clean.len()).map(move |i| clean[i].clone()))
}

/// The prepared clean stream back out of the handle it shared with the
/// run's source; the source is gone by now, so this does not copy.
fn unshare(clean: Arc<Vec<StampedTuple>>) -> Vec<StampedTuple> {
    Arc::try_unwrap(clean).unwrap_or_else(|shared| shared.to_vec())
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

/// One streaming execution attempt, opened and waiting to be fed: the
/// split → pollute → union → sort topology every offline run builds,
/// behind a push source instead of a pulled one. Each
/// [`push`](StreamingSession::push) prepares one raw tuple (ids, `τ`
/// and arrival stamps are assigned in arrival order, exactly as the
/// offline path's eager prepare loop does) and runs it through the
/// plan; what the watermark-driven sorter releases on the way reaches
/// the sink before `push` returns, so nothing of the stream is held
/// but what the plan itself holds: one watermark period per sub-stream,
/// plus the tuples a delay polluter keeps back. Output is bit-identical
/// to the offline path for the same plan and tuple sequence.
///
/// It is a single attempt by construction: a pushed stream cannot be
/// replayed, so supervised restarts do not apply. Plans with a
/// checkpoint section still take epoch-aligned snapshots (reported in
/// `checkpoints_taken`; durable when a WAL dir is set) even though this
/// path never restores them itself — recovery of a streamed session is
/// an external concern (`CheckpointStore::recover_latest` over the
/// WAL). Sessions sharing a WAL directory overwrite each other; give
/// each session its own.
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
    pub(crate) fn open(
        settings: &ExecSettings,
        sink: impl Sink<StampedTuple> + 'static,
        pipelines: Vec<PollutionPipeline>,
    ) -> Result<Self> {
        validate(settings, &pipelines)?;
        // A failing stage poisons the session via a `StageError` panic;
        // a server must not spray a backtrace per failed session.
        install_quiet_panic_hook();
        let prepare = PrepareOperator::new(&settings.schema)?;
        let tuples_out = Arc::new(AtomicU64::new(0));
        let sink = CountingSink {
            inner: sink,
            count: Arc::clone(&tuples_out),
        };
        let segments = LogSegments::new(pipelines.len(), settings.logging);
        let stat_handles = stat_handles_of(&pipelines);
        let registry = MetricsRegistry::new();
        let budget = settings.chaos.as_ref().map(ChaosConfig::new_budget);

        // Streaming sessions opt into checkpointing through their plan:
        // the run still cannot auto-retry (the peer's stream is gone
        // with the connection), but barriers flow and frames commit —
        // with a WAL dir the session leaves durable, externally
        // recoverable state for post-mortem resumption.
        let store = match settings.checkpoint.as_ref() {
            Some(CheckpointSettings { dir: Some(dir), .. }) => Some(Arc::new(
                CheckpointStore::with_wal(dir.join("checkpoint.wal"))?,
            )),
            Some(_) => Some(Arc::new(CheckpointStore::new())),
            None => None,
        };
        let coordinator = store
            .as_ref()
            .zip(settings.checkpoint.as_ref())
            .map(|(store, ckpt)| {
                CheckpointCoordinator::new(Arc::clone(store), ckpt.interval_epochs, 0)
            });
        let nothing_restored = BTreeMap::new();

        let (head, source) = DataStream::push_source(source_watermarks(settings), coordinator);
        let pipeline = pollution_topology(
            settings,
            head,
            pipelines,
            budget,
            &registry,
            &segments,
            store.as_ref().map(|_| &nothing_restored),
        )?
        .open_into(source, sink, &registry);
        Ok(StreamingSession {
            pipeline,
            prepare,
            tuples_in: 0,
            tuples_out,
            settings: settings.clone(),
            segments,
            stat_handles,
            registry,
            store,
        })
    }

    /// Prepares `tuple` and runs it through the plan.
    #[inline]
    pub fn push(&mut self, tuple: Tuple) {
        self.tuples_in += 1;
        self.pipeline.push(self.prepare.prepare(tuple));
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
        self.pipeline.finish()?;
        let log = self.segments.concat();
        Ok(RunReport {
            checkpoints_taken: self.store.map(|s| s.checkpoints_taken()).unwrap_or(0),
            ..run_report(
                &self.settings,
                &self.stat_handles,
                &self.registry,
                &log,
                self.tuples_in,
                self.tuples_out.load(std::sync::atomic::Ordering::Relaxed),
            )
        })
    }
}

/// Checkpoint plumbing for one [`drive_pipelines`] attempt: the barrier
/// coordinator, the absolute offset the (possibly sliced) source starts
/// at, the watermark-generator position to resume from, the restore
/// frame's per-operator states (chaos injectors and the sorter restore
/// from these at build time — pipeline state is restored by the caller,
/// where the rebuild cost is measured as `recovery_ms`), and the number
/// of records already committed to the shared sink.
struct CheckpointDrive {
    coordinator: CheckpointCoordinator,
    base_offset: u64,
    resume_wm: Option<WatermarkGenState>,
    states: BTreeMap<String, String>,
    sink_base: u64,
}

/// Builds the fan-out → pollute → merge → sort topology over a pulled,
/// prepared source and drives it into `sink` to completion — the shared
/// tail of the offline ([`execute_attempt`]) and checkpointed-supervised
/// paths.
#[allow(clippy::too_many_arguments)]
fn drive_pipelines(
    settings: &ExecSettings,
    source: impl Source<StampedTuple> + 'static,
    sink: impl Sink<StampedTuple> + 'static,
    pipelines: Vec<PollutionPipeline>,
    chaos_budget: Option<Arc<AtomicU64>>,
    deadline: Option<Instant>,
    registry: &MetricsRegistry,
    segments: &LogSegments,
    ckpt: Option<CheckpointDrive>,
) -> Result<()> {
    let watermarks = source_watermarks(settings);
    let (head, ckpt_states, sink_base) = match ckpt {
        Some(c) => (
            DataStream::from_source_checkpointed(
                source,
                watermarks,
                c.coordinator,
                c.base_offset,
                c.resume_wm,
            ),
            Some(c.states),
            c.sink_base,
        ),
        None => (DataStream::from_source(source, watermarks), None, 0),
    };
    // A `?` on the run carries a typed stage failure out as
    // `Error::Pipeline` (via `From<PipelineError>`).
    pollution_topology(
        settings,
        head,
        pipelines,
        chaos_budget,
        registry,
        segments,
        ckpt_states.as_ref(),
    )?
    .execute_into_resumed(sink, registry, deadline, sink_base)?;
    Ok(())
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
    let selector = settings.assigner.selector(m);
    let builders: Vec<SubPipelineBuilder<StampedTuple, StampedTuple>> = pipelines
        .into_iter()
        .enumerate()
        .map(|(i, pipeline)| -> Result<_> {
            let op = PipelineOperator::new(pipeline, i as u32, segments);
            // Reconfigurable jobs get a control subscriber per
            // sub-stream; all subscribers see the same broadcast
            // watermark sequence, which is the epoch barrier.
            let op = match &settings.control {
                Some(channel) => op.with_control(
                    channel.subscriber(),
                    settings.schema.clone(),
                    registry.gauge(&format!("plan/substream_{i}/epoch")),
                ),
                None => op,
            };
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
    let merged = head.split_merge_batched(selector, builders, batch_size);
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

/// Convenience: runs a single pipeline over a stream with default
/// settings.
pub fn pollute_stream(
    schema: &Schema,
    tuples: Vec<Tuple>,
    pipeline: PollutionPipeline,
) -> Result<PollutionOutput> {
    PollutionJob::new(schema.clone()).run(tuples, vec![pipeline])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{HourRange, Probability};
    use crate::error_fn::MissingValue;
    use crate::pattern::ChangePattern;
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

    #[test]
    fn broadcast_substreams_duplicate_tuples() {
        let job = PollutionJob::new(schema()).with_assigner(SubStreamAssigner::Broadcast);
        let out = job
            .run(
                raw_stream(10),
                vec![PollutionPipeline::empty(), PollutionPipeline::empty()],
            )
            .unwrap();
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
        let job = PollutionJob::new(schema()).with_assigner(SubStreamAssigner::RoundRobin);
        let out = job
            .run(
                raw_stream(10),
                vec![PollutionPipeline::empty(), PollutionPipeline::empty()],
            )
            .unwrap();
        assert_eq!(out.polluted.len(), 10);
        for t in &out.polluted {
            assert_eq!(u64::from(t.sub_stream), t.id % 2);
        }
    }

    #[test]
    fn probabilistic_assignment_loses_nothing() {
        let job = PollutionJob::new(schema())
            .with_assigner(SubStreamAssigner::Probabilistic { p: 0.3, seed: 5 });
        let out = job
            .run(
                raw_stream(500),
                vec![PollutionPipeline::empty(), PollutionPipeline::empty()],
            )
            .unwrap();
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
        let job = PollutionJob::new(schema()).without_logging();
        let out = job
            .run(raw_stream(50), vec![null_pipeline(1.0, 1)])
            .unwrap();
        assert!(out.log.is_empty());
        assert!(out
            .polluted
            .iter()
            .all(|t| t.tuple.get(1).unwrap().is_null()));
    }

    #[test]
    fn requires_at_least_one_pipeline() {
        assert!(PollutionJob::new(schema())
            .run(raw_stream(1), vec![])
            .is_err());
    }

    #[test]
    fn chaos_panic_fails_with_stage_attribution() {
        let chaos = ChaosConfig {
            panic_rate: 1.0,
            ..ChaosConfig::default()
        };
        let job = PollutionJob::new(schema()).with_chaos(chaos);
        let err = job
            .run(raw_stream(10), vec![PollutionPipeline::empty()])
            .unwrap_err();
        match err {
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
        let chaos = ChaosConfig {
            panic_rate: 2.0,
            ..ChaosConfig::default()
        };
        let job = PollutionJob::new(schema()).with_chaos(chaos);
        assert!(job
            .run(raw_stream(1), vec![PollutionPipeline::empty()])
            .is_err());
    }

    #[test]
    fn supervised_run_recovers_from_transient_chaos_fault() {
        let chaos = ChaosConfig {
            panic_rate: 1.0,
            panic_budget: Some(1), // transient: heals after one restart
            ..ChaosConfig::default()
        };
        let job = PollutionJob::new(schema())
            .with_chaos(chaos)
            .with_supervision(SupervisorPolicy {
                max_retries: 2,
                deterministic: true,
                ..SupervisorPolicy::default()
            });
        let out = job
            .run_supervised(raw_stream(50), || Ok(vec![null_pipeline(0.5, 9)]))
            .unwrap();
        assert_eq!(out.report.restarts, 1, "exactly one restart consumed");
        assert_eq!(out.polluted.len(), 50, "retry reprocesses the full stream");
    }

    #[test]
    fn supervised_run_gives_up_after_retry_budget() {
        let chaos = ChaosConfig {
            panic_rate: 1.0, // unbounded budget: every attempt panics
            ..ChaosConfig::default()
        };
        let job = PollutionJob::new(schema())
            .with_chaos(chaos)
            .with_supervision(SupervisorPolicy {
                max_retries: 2,
                deterministic: true,
                ..SupervisorPolicy::default()
            });
        let err = job
            .run_supervised(raw_stream(10), || Ok(vec![PollutionPipeline::empty()]))
            .unwrap_err();
        assert!(matches!(
            err,
            icewafl_types::Error::Pipeline { ref kind, .. } if kind == "injected"
        ));
    }

    #[test]
    fn checkpointed_retry_resumes_and_is_byte_identical() {
        let reference = PollutionJob::new(schema())
            .with_watermark_period(16)
            .run_supervised(raw_stream(200), || Ok(vec![null_pipeline(0.5, 42)]))
            .unwrap();
        let chaos = ChaosConfig {
            kill_at_tuple: Some(120),
            panic_budget: Some(1),
            ..ChaosConfig::default()
        };
        let recovered = PollutionJob::new(schema())
            .with_watermark_period(16)
            .with_chaos(chaos)
            .with_checkpointing(None, 1)
            .with_supervision(SupervisorPolicy {
                max_retries: 2,
                deterministic: true,
                ..SupervisorPolicy::default()
            })
            .run_supervised(raw_stream(200), || Ok(vec![null_pipeline(0.5, 42)]))
            .unwrap();
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
        let plain = PollutionJob::new(schema())
            .with_watermark_period(16)
            .run_supervised(raw_stream(150), || Ok(vec![null_pipeline(0.5, 7)]))
            .unwrap();
        let ckpt = PollutionJob::new(schema())
            .with_watermark_period(16)
            .with_checkpointing(None, 2)
            .run_supervised(raw_stream(150), || Ok(vec![null_pipeline(0.5, 7)]))
            .unwrap();
        assert_eq!(ckpt.polluted, plain.polluted, "barriers are pass-through");
        assert_eq!(ckpt.log.entries(), plain.log.entries());
        assert_eq!(ckpt.report.restored_from_epoch, 0);
        assert_eq!(ckpt.report.replayed_tuples, 0);
        assert!(ckpt.report.checkpoints_taken > 0);
    }

    #[test]
    fn supervised_run_without_faults_reports_zero_restarts() {
        let job = PollutionJob::new(schema());
        let out = job
            .run_supervised(raw_stream(20), || Ok(vec![null_pipeline(0.5, 3)]))
            .unwrap();
        assert_eq!(out.report.restarts, 0);
        assert_eq!(out.polluted.len(), 20);
    }

    #[test]
    fn chaos_drops_and_malforms_are_observable() {
        let chaos = ChaosConfig {
            drop_rate: 1.0,
            ..ChaosConfig::default()
        };
        let job = PollutionJob::new(schema()).with_chaos(chaos);
        let out = job
            .run(raw_stream(30), vec![PollutionPipeline::empty()])
            .unwrap();
        assert!(out.polluted.is_empty(), "every record dropped in flight");

        let chaos = ChaosConfig {
            malform_rate: 1.0,
            ..ChaosConfig::default()
        };
        let job = PollutionJob::new(schema()).with_chaos(chaos);
        let out = job
            .run(raw_stream(10), vec![PollutionPipeline::empty()])
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
