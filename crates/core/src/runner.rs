//! The end-to-end pollution process (Algorithm 1).
//!
//! prepare → split into `m` (overlapping) sub-streams → pollute each
//! sub-stream with its pipeline → union with sub-stream ids → sort by
//! arrival time → output the clean stream `D`, the dirty stream `Dᵖ`,
//! and the ground-truth log.
//!
//! The loop that does it is the [`StreamingSession`]. A served session
//! is fed by its caller; an offline run ([`pollute_stream`] and the
//! plan's `execute` / `execute_supervised`) is one retry loop, `run`,
//! that feeds each attempt's session clones of the prepared input,
//! resuming a retry from the latest checkpoint when the plan takes
//! them.

use crate::log::PollutionLog;
use crate::pipeline::PollutionPipeline;
use crate::plan::{LogicalPlan, StrategyHint};
use crate::prepare::PrepareOperator;
use crate::report::RunReport;
use crate::session::{Pipeline, StreamingSession};
use crate::stats::PolluterStatsSnapshot;
use icewafl_obs::MetricsRegistry;
use icewafl_stream::chaos::ChaosConfig;
use icewafl_stream::checkpoint::{CheckpointFrame, CheckpointStore};
use icewafl_stream::control::ControlChannel;
use icewafl_stream::supervisor::{Supervisor, SupervisorPolicy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use icewafl_types::{Result, Schema, StampedTuple, Tuple};

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
    /// statistics, and the per-stage metrics snapshot.
    pub report: RunReport,
}

/// The physical execution settings of a job. Only
/// [`LogicalPlan::compile`] builds them, so every default lives in
/// [`LogicalPlan`]; compiled plans and [`pollute_stream`] alike run
/// them through one [`StreamingSession`] loop.
#[derive(Clone)]
pub(crate) struct ExecSettings {
    pub(crate) schema: Schema,
    /// `sequential` keeps a whole input on one thread; `auto` lets the
    /// session pick (see [`crate::session::schedule`]).
    pub(crate) strategy: StrategyHint,
    pub(crate) assigner: SubStreamAssigner,
    /// Emit a watermark every this many source tuples.
    pub(crate) watermark_period: u64,
    /// Record ground truth (disable for overhead benchmarks).
    pub(crate) logging: bool,
    /// Records per frame handed to a sub-stream, and per released chunk
    /// (1 = unbatched).
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
/// plan: the ground-truth log as one segment per sub-stream and the
/// chaos panic budget, both carried across every attempt of a run (so
/// a bounded fault is transient — it heals after a restart instead of
/// re-arming); the checkpoint store (`None` = take no checkpoints); the
/// supervisor's deadline; and the frame the attempt resumes from
/// (`None` = start at tuple zero).
///
/// A session owns its segments while it runs and hands them back when
/// it finishes. The finished log is the segments concatenated in
/// sub-stream order, which is independent of how the loop interleaves
/// the sub-streams; a retry rewinds each segment to the length its
/// sub-stream recorded in the restored checkpoint, or empties it when
/// there is none.
pub(crate) struct Attempt {
    pub(crate) segments: Vec<PollutionLog>,
    pub(crate) chaos_budget: Option<Arc<AtomicU64>>,
    pub(crate) store: Option<Arc<CheckpointStore>>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) restore: Option<CheckpointFrame>,
}

impl Attempt {
    /// The first attempt of a run of `m` sub-streams, checkpointing iff
    /// `checkpoint` is set and the plan has a checkpoint section. The
    /// job is validated first: opening the store truncates an existing
    /// WAL, which a rejected job must leave alone.
    pub(crate) fn first(settings: &ExecSettings, m: usize, checkpoint: bool) -> Result<Self> {
        validate(settings, m)?;
        let store = match settings.checkpoint.as_ref().filter(|_| checkpoint) {
            Some(CheckpointSettings { dir: Some(dir), .. }) => Some(Arc::new(
                CheckpointStore::with_wal(dir.join("checkpoint.wal"))?,
            )),
            Some(_) => Some(Arc::new(CheckpointStore::new())),
            None => None,
        };
        let segment = if settings.logging {
            PollutionLog::new()
        } else {
            PollutionLog::disabled()
        };
        Ok(Attempt {
            segments: vec![segment; m],
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
/// clones of the prepared clean stream, releasing into one output.
///
/// An unsupervised run is a single attempt that takes no checkpoints.
/// A `supervised` one follows the plan's policy: on a retryable failure
/// the job is re-attempted with fresh `pipelines`, up to the per-stage
/// retry budget, with backoff between attempts. With a checkpoint
/// section a retry resumes from the latest checkpoint: the output is
/// truncated to the committed prefix, the session restores every
/// step's state (RNG stream positions included) and is fed the stream
/// from the frame's offset on. The invariant is byte-identical output.
/// A failure before the first checkpoint, or any failure of a run
/// without a checkpoint section, restarts from tuple zero.
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
    let m = first_build.as_ref().map_or(0, Vec::len);
    let Attempt {
        mut segments,
        chaos_budget,
        store,
        ..
    } = Attempt::first(settings, m, supervised)?;
    let mut supervisor = Supervisor::new(if supervised {
        settings.supervision.clone()
    } else {
        SupervisorPolicy::default()
    });
    let deadline = supervisor.deadline_instant();
    // Prepare once: every attempt is fed clones of this one copy, and a
    // clone shares the tuple's values until a polluter writes to it.
    let clean = prepare_clean(settings, tuples)?;
    // The output is kept across attempts: the committed prefix of a
    // failed attempt is kept, not recomputed.
    let mut polluted = Vec::new();
    let (mut restored_from_epoch, mut replayed_tuples, mut recovery_ms) = (0, 0, 0);
    loop {
        let recover_start = Instant::now();
        let restore = store.as_ref().and_then(|store| store.latest());
        let from = restore.as_ref().map_or(0, |f| f.source_offset);
        if supervisor.restarts() > 0 && store.is_some() {
            // The failed attempt was fed the whole stream (a failed
            // stage drops what follows, the feed goes on); what lies
            // past the restore point is fed again.
            replayed_tuples += (clean.len() as u64).saturating_sub(from);
        }
        polluted.truncate(restore.as_ref().map_or(0, |f| f.sink_committed) as usize);
        let built = match first_build.take() {
            Some(built) => built,
            None => pipelines()?,
        };
        let restored = restore.as_ref().map(|f| f.epoch);
        let attempt = Attempt {
            segments,
            chaos_budget: chaos_budget.clone(),
            store: store.clone(),
            deadline,
            restore,
        };
        let mut session = StreamingSession::open(
            settings,
            built.into_iter().map(Pipeline::Rows).collect(),
            attempt,
        )?;
        if let Some(epoch) = restored {
            restored_from_epoch = epoch;
            recovery_ms += recover_start.elapsed().as_millis() as u64;
        }
        session.feed(&clean[from as usize..], &mut polluted);
        let (stage, kind, message) = match session.finish_into(&mut polluted) {
            Ok((report, log)) => {
                return Ok(PollutionOutput {
                    clean,
                    polluted,
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
            Err((
                icewafl_types::Error::Pipeline {
                    stage,
                    kind,
                    message,
                },
                rewound,
            )) => {
                segments = rewound;
                (stage, kind, message)
            }
            Err((other, _)) => return Err(other),
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
fn validate(settings: &ExecSettings, m: usize) -> Result<()> {
    if m == 0 {
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

/// The report of a finished single attempt; supervised runs overwrite
/// the restart and recovery fields.
pub(crate) fn run_report(
    settings: &ExecSettings,
    schedule: &str,
    mut polluters: Vec<PolluterStatsSnapshot>,
    registry: &MetricsRegistry,
    log: &PollutionLog,
    tuples_in: u64,
    tuples_out: u64,
) -> RunReport {
    // Attribute log entries to polluters by name. Polluters sharing
    // a name (across sub-streams) each report the combined count.
    let log_counts = log.counts_by_polluter();
    for snap in &mut polluters {
        snap.log_entries = log_counts.get(&snap.name).copied().unwrap_or(0) as u64;
    }
    RunReport {
        tuples_in,
        tuples_out,
        log_entries: log.len() as u64,
        logging_enabled: settings.logging,
        metrics_compiled_in: true,
        restarts: 0,
        strategy: Some(schedule.into()),
        epochs_applied: settings.control.applied(),
        checkpoints_taken: 0,
        restored_from_epoch: 0,
        replayed_tuples: 0,
        recovery_ms: 0,
        polluters,
        metrics: registry.snapshot(),
    }
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
    use icewafl_types::{DataType, Duration, Timestamp, Value};
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
        assert_eq!(
            ckpt.polluted, plain.polluted,
            "checkpoints are pass-through"
        );
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
