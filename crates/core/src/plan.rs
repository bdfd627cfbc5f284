//! Logical/physical plan split with epoch-based runtime
//! reconfiguration.
//!
//! A pollution job is described one way: as a serializable
//! [`LogicalPlan`] — *what* to pollute (seed, per-sub-stream polluter
//! specs, assigner) and under which execution, fault-tolerance and
//! observability settings. The CLI's `--config` file, a `serve
//! --plans-dir` catalog entry, a session handshake and code all write
//! the same document; CLI flags edit it before it compiles.
//! [`LogicalPlan::compile`] turns it into a [`PhysicalPlan`]: the
//! resolved sub-stream assigner and the predicted stage layout (labels +
//! metric names, rendered by [`PhysicalPlan::explain`]). Execution
//! happens through one loop: [`PhysicalPlan::execute`],
//! [`PhysicalPlan::execute_supervised`],
//! [`PhysicalPlan::open_streaming`] and
//! [`PhysicalPlan::open_streaming_lowered`] all open a
//! [`StreamingSession`] — the first
//! two feed it the prepared input and collect its output, one attempt
//! or as many as the supervision policy grants — and so do the
//! hand-built pipelines of
//! [`pollute_stream`](crate::runner::pollute_stream), under the
//! settings a default plan compiles to.
//!
//! On top of the compile→execute split sits **runtime
//! reconfiguration** in the style of Fries (arXiv:2210.10306): a
//! [`ControlHandle`] accepts [`PlanDelta`]s that are validated by
//! re-deriving the full plan, then applied *atomically at a watermark
//! epoch* inside the running job. Because every watermark crosses all
//! sub-streams, each sub-stream's pipeline observes the same watermark
//! sequence and swaps to the new plan at the same boundary — no tuple
//! ever sees a half-applied configuration.
//!
//! Compile a plan against a schema, inspect it, and run it under the
//! supervision policy:
//!
//! ```
//! use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
//! use icewafl_core::plan::LogicalPlan;
//! use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
//!
//! let schema = Schema::from_pairs([
//!     ("Time", DataType::Timestamp),
//!     ("x", DataType::Float),
//! ]).unwrap();
//!
//! let plan = LogicalPlan::new(7, vec![vec![PolluterConfig::Standard {
//!     name: "noise".into(),
//!     attributes: vec!["x".into()],
//!     error: ErrorConfig::GaussianNoise { sigma: 0.5, relative: false },
//!     condition: ConditionConfig::Probability { p: 0.5 },
//!     pattern: None,
//! }]]);
//!
//! let physical = plan.compile(&schema).unwrap();
//! assert!(physical.explain().contains("sub-streams"));
//!
//! let tuples: Vec<Tuple> = (0..32).map(|i| Tuple::new(vec![
//!     Value::Timestamp(Timestamp(i * 1000)),
//!     Value::Float(1.0),
//! ])).collect();
//! let out = physical.execute_supervised(tuples).unwrap();
//! assert_eq!(out.polluted.len(), 32);
//! ```

use crate::config::{
    build_pipelines, ChaosSectionConfig, CheckpointSectionConfig, ConditionConfig, ErrorConfig,
    PolluterConfig, SupervisionConfig,
};
use crate::pipeline::PollutionPipeline;
use crate::runner::{
    run, Attempt, CheckpointSettings, ExecSettings, PollutionOutput, SubStreamAssigner,
};
use crate::session::{lowered, schedule, Pipeline, StreamingSession};
use icewafl_stream::chaos::ChaosConfig;
use icewafl_stream::control::ControlChannel;
use icewafl_stream::supervisor::SupervisorPolicy;
use icewafl_types::{Error, Result, Schema, Timestamp, Tuple};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::Arc;

/// Default records per frame on the router → sub-stream edges and on
/// the output. Batches amortize per-element stage and metering cost;
/// they are flushed at every watermark, so the *effective* batch is
/// additionally capped by the watermark period. `1` disables batching.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// The largest `batch_size` [`LogicalPlan::compile`] accepts. A session
/// reserves a frame of `batch_size` records per sub-stream up front, so
/// an unbounded value would let one plan exhaust the allocator.
const MAX_BATCH_SIZE: usize = 65_536;

/// The execution strategy a plan asks for. Both run the one
/// watermark-lockstep loop to the same bytes; they differ in how many
/// threads a whole offline input may use (see
/// [`StreamingSession`]). Anything else fails
/// to parse, with an error naming the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum StrategyHint {
    /// A run whose whole input is longer than one span of 64 watermark
    /// periods, on a plan without `chaos`, `checkpoint` or a scheduled
    /// epoch, on two or more cores, runs pipelined on two threads;
    /// anything else runs sequential.
    #[default]
    Auto,
    /// Always one thread: what the repo benchmark's oracle pins.
    Sequential,
}

/// The batch representation a plan asks for. Every sub-stream runs the
/// row pipeline, so the two values are synonyms: `auto` is what
/// existing plan JSON says, `row` what the repo benchmark's oracle
/// pins. The field and both types go with the next change to that
/// benchmark; anything else (`"columnar"`) fails to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum ReprHint {
    /// Rows.
    #[default]
    Auto,
    /// Rows.
    Row,
}

/// The batch representation a sub-stream's pollution stage runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstreamRepr {
    /// Tuples go through the sub-stream's [`PollutionPipeline`] one at
    /// a time.
    Row,
}

impl SubstreamRepr {
    /// `"row"` — the short form for tables and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SubstreamRepr::Row => "row",
        }
    }
}

/// Declarative sub-stream assignment (part of the logical plan);
/// resolved against the pipeline count at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum AssignerSpec {
    /// Round-robin for multiple sub-streams, broadcast for one — the
    /// historical default of the CLI.
    #[default]
    Auto,
    /// Every tuple goes to every sub-stream.
    Broadcast,
    /// Tuple `i` goes to sub-stream `i mod m`.
    RoundRobin,
    /// Each tuple joins each sub-stream with probability `p`.
    Probabilistic {
        /// Per-sub-stream membership probability.
        p: f64,
    },
}

impl AssignerSpec {
    /// Resolves the spec for `m` sub-streams; probabilistic assignment
    /// derives its RNG from the plan's master `seed`.
    pub(crate) fn resolve(self, m: usize, seed: u64) -> SubStreamAssigner {
        match self {
            AssignerSpec::Auto => {
                if m > 1 {
                    SubStreamAssigner::RoundRobin
                } else {
                    SubStreamAssigner::Broadcast
                }
            }
            AssignerSpec::Broadcast => SubStreamAssigner::Broadcast,
            AssignerSpec::RoundRobin => SubStreamAssigner::RoundRobin,
            AssignerSpec::Probabilistic { p } => SubStreamAssigner::Probabilistic { p, seed },
        }
    }

    fn describe(self, m: usize) -> String {
        match self {
            AssignerSpec::Auto if m > 1 => "round_robin (auto)".into(),
            AssignerSpec::Auto => "broadcast (auto)".into(),
            AssignerSpec::Broadcast => "broadcast".into(),
            AssignerSpec::RoundRobin => "round_robin".into(),
            AssignerSpec::Probabilistic { p } => format!("probabilistic(p={p})"),
        }
    }
}

fn default_watermark_period() -> u64 {
    64
}

fn default_batch_size() -> usize {
    DEFAULT_BATCH_SIZE
}

fn default_true() -> bool {
    true
}

/// The serializable description of a pollution job: *what* to run.
///
/// A logical plan is executor-agnostic — it carries polluter specs
/// (not built polluters), a declarative assigner and strategy hint, and
/// the optional supervision/chaos sections. Compile it against a schema
/// with [`LogicalPlan::compile`] to obtain a runnable
/// [`PhysicalPlan`], or derive a modified plan with
/// [`LogicalPlan::apply`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct LogicalPlan {
    /// Master seed; every component RNG derives from it.
    #[serde(default)]
    pub seed: u64,
    /// One polluter list per sub-stream pipeline (`m = pipelines.len()`).
    pub pipelines: Vec<Vec<PolluterConfig>>,
    /// How tuples are assigned to sub-streams.
    #[serde(default)]
    pub assigner: AssignerSpec,
    /// Accepted for compatibility; see [`StrategyHint`].
    #[serde(default)]
    pub strategy: StrategyHint,
    /// Accepted for compatibility; see [`ReprHint`].
    #[serde(default)]
    pub repr: ReprHint,
    /// Emit a source watermark every this many tuples — also the grain
    /// of reconfiguration epochs.
    #[serde(default = "default_watermark_period")]
    pub watermark_period: u64,
    /// Records per frame on the router → sub-stream edges and on the
    /// output (`1` = unbatched, at most 65 536).
    /// Purely a performance knob: batches flush before every watermark,
    /// end marker, and failure, so output is bit-identical across batch
    /// sizes.
    #[serde(default = "default_batch_size")]
    pub batch_size: usize,
    /// Record ground truth (disable for overhead benchmarks).
    #[serde(default = "default_true")]
    pub logging: bool,
    /// Supervised-retry policy (absent = fail-fast).
    #[serde(default)]
    pub supervision: Option<SupervisionConfig>,
    /// Runtime fault injection (absent = disabled).
    #[serde(default)]
    pub chaos: Option<ChaosSectionConfig>,
    /// Epoch-aligned checkpointing for supervised runs (absent =
    /// retries restart from tuple zero).
    #[serde(default)]
    pub checkpoint: Option<CheckpointSectionConfig>,
}

impl LogicalPlan {
    /// A plan with default execution settings.
    pub fn new(seed: u64, pipelines: Vec<Vec<PolluterConfig>>) -> Self {
        LogicalPlan {
            seed,
            pipelines,
            assigner: AssignerSpec::Auto,
            strategy: StrategyHint::Auto,
            repr: ReprHint::Auto,
            watermark_period: default_watermark_period(),
            batch_size: DEFAULT_BATCH_SIZE,
            logging: true,
            supervision: None,
            chaos: None,
            checkpoint: None,
        }
    }

    /// Parses a JSON document. A top-level key that is not a plan field
    /// is an [`Error::Plan`] naming it, so a misspelt or retired setting
    /// cannot be ignored without a word.
    pub fn from_json(json: &str) -> Result<Self> {
        match unknown_top_level_key(json).as_deref() {
            Some("execution") => Err(Error::plan(
                "plan key `execution` is not a section any more: put its keys \
                 (`assigner`, `strategy`, `repr`, `watermark_period`, `batch_size`) \
                 at the top level of the plan",
            )),
            Some(key) => Err(Error::plan(format_args!(
                "unknown plan key `{key}` (expected one of: {})",
                PLAN_KEYS.join(", ")
            ))),
            None => serde_json::from_str(json)
                .map_err(|e| Error::plan(format_args!("bad JSON plan: {e}"))),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan is always serializable")
    }

    /// Number of sub-streams.
    pub fn substreams(&self) -> usize {
        self.pipelines.len()
    }

    /// Builds the runnable pipelines for this plan — deterministic in
    /// `seed`, so rebuilding (for a supervised retry or an epoch swap)
    /// restores identical RNG state.
    pub fn build_pipelines(&self, schema: &Schema) -> Result<Vec<PollutionPipeline>> {
        build_pipelines(self.seed, &self.pipelines, schema)
    }

    /// The supervision policy this plan runs under (fail-fast default
    /// when no section is present).
    pub fn supervisor_policy(&self) -> SupervisorPolicy {
        self.supervision
            .as_ref()
            .map(|s| s.to_policy(self.seed))
            .unwrap_or(SupervisorPolicy {
                seed: self.seed,
                ..SupervisorPolicy::default()
            })
    }

    /// The chaos configuration, if fault injection is enabled.
    pub fn chaos_config(&self) -> Option<ChaosConfig> {
        self.chaos.as_ref().map(|c| c.to_chaos(self.seed))
    }

    /// Returns a new plan with `deltas` applied in order.
    ///
    /// Fails with [`Error::Plan`] if a delta names an unknown polluter,
    /// targets a polluter without the named slot (e.g. a condition swap
    /// on a keyed polluter), or indexes a missing pipeline. The result
    /// is *not* yet validated against a schema — [`LogicalPlan::compile`]
    /// (or [`ControlHandle::reconfigure_at`]) does that.
    pub fn apply(&self, deltas: &[PlanDelta]) -> Result<LogicalPlan> {
        let mut next = self.clone();
        for delta in deltas {
            apply_delta(&mut next, delta)?;
        }
        Ok(next)
    }

    /// Compiles the plan against a schema: validates it end to end
    /// (every polluter builds, chaos rates are sane), resolves the
    /// assigner, and predicts the physical stage layout.
    pub fn compile(&self, schema: &Schema) -> Result<PhysicalPlan> {
        if self.pipelines.is_empty() {
            return Err(Error::plan("at least one pipeline is required"));
        }
        // Validate by building once; the result is discarded (execution
        // rebuilds so pipelines always start from fresh RNG state).
        self.build_pipelines(schema)?;
        let chaos = self.chaos_config();
        if let Some(chaos) = &chaos {
            if !chaos.is_valid() {
                return Err(Error::plan("chaos rates must be probabilities in [0, 1]"));
            }
        }
        if self.batch_size > MAX_BATCH_SIZE {
            return Err(Error::plan(format_args!(
                "batch_size {} exceeds the maximum of {MAX_BATCH_SIZE}",
                self.batch_size
            )));
        }
        let m = self.substreams();
        let stages = predict_stages(m, chaos.is_some());
        let settings = ExecSettings {
            schema: schema.clone(),
            strategy: self.strategy,
            assigner: self.assigner.resolve(m, self.seed),
            watermark_period: self.watermark_period.max(1),
            batch_size: self.batch_size.max(1),
            logging: self.logging,
            supervision: self.supervisor_policy(),
            chaos,
            control: ControlChannel::new(),
            checkpoint: self.checkpoint.as_ref().map(|c| CheckpointSettings {
                dir: c.dir.as_ref().map(std::path::PathBuf::from),
                interval_epochs: c.interval_epochs.max(1),
            }),
        };
        Ok(PhysicalPlan {
            logical: self.clone(),
            settings,
            stages,
            latest: Arc::new(Mutex::new(self.clone())),
        })
    }
}

/// The top-level keys of a [`LogicalPlan`] document: its field names.
/// `plan_serde_round_trip` fails when a field is missing here, since
/// `to_json` writes every field.
const PLAN_KEYS: [&str; 11] = [
    "seed",
    "pipelines",
    "assigner",
    "strategy",
    "repr",
    "watermark_period",
    "batch_size",
    "logging",
    "supervision",
    "chaos",
    "checkpoint",
];

/// The first top-level key of `json` outside [`PLAN_KEYS`]. `None` as
/// well when `json` is not an object or does not lex: the full parse
/// that follows reports that.
fn unknown_top_level_key(json: &str) -> Option<String> {
    let mut lexer = serde_json::Lexer::new(json);
    if lexer.value().ok()? != serde_json::Token::ObjectStart {
        return None;
    }
    while let Some(key) = lexer.key().ok()? {
        if !PLAN_KEYS.contains(&&*key) {
            return Some(key.into_owned());
        }
        lexer.skip_value().ok()?;
    }
    None
}

/// One edit to a [`LogicalPlan`], applied via [`LogicalPlan::apply`] or
/// scheduled mid-run via [`ControlHandle::reconfigure_at`].
///
/// Polluter names are matched recursively (composite/one-of children
/// and keyed templates included); the first match wins.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum PlanDelta {
    /// Re-seed every component RNG.
    SetSeed {
        /// The new master seed.
        seed: u64,
    },
    /// Swap the gating condition of the named polluter (the trigger, for
    /// a propagation polluter).
    SetCondition {
        /// Name of the target polluter.
        polluter: String,
        /// The replacement condition.
        condition: ConditionConfig,
    },
    /// Swap the error function of the named polluter (standard, burst,
    /// or propagation polluters only).
    SetError {
        /// Name of the target polluter.
        polluter: String,
        /// The replacement error function.
        error: ErrorConfig,
    },
    /// Replace the named polluter wholesale.
    ReplacePolluter {
        /// Name of the polluter to replace.
        polluter: String,
        /// Its replacement.
        config: PolluterConfig,
    },
    /// Remove (disable) the named polluter.
    RemovePolluter {
        /// Name of the polluter to remove.
        polluter: String,
    },
    /// Append a polluter to the pipeline at `pipeline`.
    AddPolluter {
        /// Index of the target sub-stream pipeline.
        pipeline: usize,
        /// The polluter to append.
        config: PolluterConfig,
    },
    /// Replace every pipeline. The pipeline count must stay unchanged
    /// when applied to a *running* job (the physical fan-out is fixed).
    ReplacePipelines {
        /// The new per-sub-stream polluter lists.
        pipelines: Vec<Vec<PolluterConfig>>,
    },
}

fn polluter_name(p: &PolluterConfig) -> &str {
    match p {
        PolluterConfig::Standard { name, .. }
        | PolluterConfig::Composite { name, .. }
        | PolluterConfig::OneOf { name, .. }
        | PolluterConfig::Delay { name, .. }
        | PolluterConfig::Drop { name, .. }
        | PolluterConfig::Duplicate { name, .. }
        | PolluterConfig::Freeze { name, .. }
        | PolluterConfig::Burst { name, .. }
        | PolluterConfig::Propagation { name, .. }
        | PolluterConfig::Keyed { name, .. } => name,
    }
}

/// Depth-first search for a polluter by name, descending into
/// composite/one-of children and keyed templates.
fn find_named<'a>(list: &'a mut [PolluterConfig], name: &str) -> Option<&'a mut PolluterConfig> {
    for p in list.iter_mut() {
        if polluter_name(p) == name {
            return Some(p);
        }
        match p {
            PolluterConfig::Composite { children, .. } | PolluterConfig::OneOf { children, .. } => {
                if let Some(found) = find_named(children, name) {
                    return Some(found);
                }
            }
            PolluterConfig::Keyed { inner, .. } => {
                if let Some(found) = find_named(std::slice::from_mut(&mut **inner), name) {
                    return Some(found);
                }
            }
            _ => {}
        }
    }
    None
}

/// Removes the first polluter matching `name`; keeps one-of weights in
/// sync with the surviving children.
fn remove_named(list: &mut Vec<PolluterConfig>, name: &str) -> bool {
    if let Some(pos) = list.iter().position(|p| polluter_name(p) == name) {
        list.remove(pos);
        return true;
    }
    for p in list.iter_mut() {
        let removed = match p {
            PolluterConfig::Composite { children, .. } => remove_named(children, name),
            PolluterConfig::OneOf {
                children, weights, ..
            } => {
                if let Some(pos) = children.iter().position(|c| polluter_name(c) == name) {
                    children.remove(pos);
                    if let Some(w) = weights {
                        if pos < w.len() {
                            w.remove(pos);
                        }
                    }
                    true
                } else {
                    remove_named(children, name)
                }
            }
            _ => false,
        };
        if removed {
            return true;
        }
    }
    false
}

fn unknown_polluter(name: &str) -> Error {
    Error::plan(format_args!("delta names unknown polluter `{name}`"))
}

fn apply_delta(plan: &mut LogicalPlan, delta: &PlanDelta) -> Result<()> {
    match delta {
        PlanDelta::SetSeed { seed } => {
            plan.seed = *seed;
        }
        PlanDelta::SetCondition {
            polluter,
            condition,
        } => {
            let target = plan
                .pipelines
                .iter_mut()
                .find_map(|pipe| find_named(pipe, polluter))
                .ok_or_else(|| unknown_polluter(polluter))?;
            match target {
                PolluterConfig::Standard { condition: c, .. }
                | PolluterConfig::Composite { condition: c, .. }
                | PolluterConfig::OneOf { condition: c, .. }
                | PolluterConfig::Delay { condition: c, .. }
                | PolluterConfig::Drop { condition: c, .. }
                | PolluterConfig::Duplicate { condition: c, .. }
                | PolluterConfig::Freeze { condition: c, .. }
                | PolluterConfig::Burst { condition: c, .. } => *c = condition.clone(),
                PolluterConfig::Propagation { trigger, .. } => *trigger = condition.clone(),
                PolluterConfig::Keyed { .. } => {
                    return Err(Error::plan(format_args!(
                        "polluter `{polluter}` is keyed and has no own condition; \
                         replace its template instead"
                    )))
                }
            }
        }
        PlanDelta::SetError { polluter, error } => {
            let target = plan
                .pipelines
                .iter_mut()
                .find_map(|pipe| find_named(pipe, polluter))
                .ok_or_else(|| unknown_polluter(polluter))?;
            match target {
                PolluterConfig::Standard { error: e, .. }
                | PolluterConfig::Burst { error: e, .. }
                | PolluterConfig::Propagation { error: e, .. } => *e = error.clone(),
                _ => {
                    return Err(Error::plan(format_args!(
                        "polluter `{polluter}` has no error function to swap"
                    )))
                }
            }
        }
        PlanDelta::ReplacePolluter { polluter, config } => {
            let target = plan
                .pipelines
                .iter_mut()
                .find_map(|pipe| find_named(pipe, polluter))
                .ok_or_else(|| unknown_polluter(polluter))?;
            *target = config.clone();
        }
        PlanDelta::RemovePolluter { polluter } => {
            let removed = plan
                .pipelines
                .iter_mut()
                .any(|pipe| remove_named(pipe, polluter));
            if !removed {
                return Err(unknown_polluter(polluter));
            }
        }
        PlanDelta::AddPolluter { pipeline, config } => {
            let m = plan.pipelines.len();
            let pipe = plan.pipelines.get_mut(*pipeline).ok_or_else(|| {
                Error::plan(format_args!(
                    "delta targets pipeline {pipeline} but the plan has {m}"
                ))
            })?;
            pipe.push(config.clone());
        }
        PlanDelta::ReplacePipelines { pipelines } => {
            if pipelines.is_empty() {
                return Err(Error::plan("replacement needs at least one pipeline"));
            }
            plan.pipelines = pipelines.clone();
        }
    }
    Ok(())
}

/// One stage of the predicted physical layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageInfo {
    /// The stage label the runtime will assign, e.g.
    /// `stage/02_pollution_pipeline`. Labels count sink-first.
    pub label: String,
    /// Human-readable role of the stage.
    pub role: String,
    /// Metric names this stage registers (empty when uninstrumented).
    pub metrics: Vec<String>,
}

fn operator_metrics(label: &str) -> Vec<String> {
    [
        "elements_in",
        "elements_out",
        "latency_ns",
        "watermark_hwm_ms",
        "failures",
    ]
    .iter()
    .map(|m| format!("{label}/{m}"))
    .collect()
}

/// The stage layout of the session loop, labels counting sink-first:
/// the sorter is stage 0, the assigner (router) stage 1, then each
/// sub-stream's pipeline followed by its chaos injector, and the source
/// last. The session takes its stage labels from here and registers
/// the metrics listed for each.
pub(crate) fn predict_stages(m: usize, chaos: bool) -> Vec<StageInfo> {
    let mut seq = 0u32;
    let mut label = |name: &str| {
        let l = format!("stage/{seq:02}_{name}");
        seq += 1;
        l
    };
    let mut stages = Vec::new();
    let l = label("event_time_sorter");
    stages.push(StageInfo {
        metrics: {
            let mut v = operator_metrics(&l);
            v.extend(
                [
                    "late",
                    "late_lag_ms",
                    "buffer_max",
                    "heaped",
                    "watermark_lag_ms",
                ]
                .iter()
                .map(|s| format!("{l}/{s}")),
            );
            v
        },
        role: "sort by (arrival time, sub-stream) (Algorithm 1, line 11)".into(),
        label: l,
    });
    let l = label("split_router");
    stages.push(StageInfo {
        metrics: vec![format!("{l}/sends")],
        role: format!(
            "assign to {m} sub-stream(s) in frames of `batch_size`; every watermark \
             crosses each sub-stream in turn (the epoch boundary)"
        ),
        label: l,
    });
    for i in 0..m {
        let l = label("pollution_pipeline");
        stages.push(StageInfo {
            metrics: operator_metrics(&l),
            role: format!("sub-stream {i} polluters"),
            label: l,
        });
        if chaos {
            let l = label("chaos");
            let mut metrics = operator_metrics(&l);
            metrics.extend(
                [
                    "injected_panics",
                    "injected_delays",
                    "injected_drops",
                    "injected_malforms",
                ]
                .iter()
                .map(|s| format!("chaos/substream_{i}/{s}")),
            );
            stages.push(StageInfo {
                metrics,
                role: format!("sub-stream {i} fault injector"),
                label: l,
            });
        }
    }
    let l = label("source");
    stages.push(StageInfo {
        metrics: Vec::new(),
        role: "prepared in-memory source + watermark generator".into(),
        label: l,
    });
    stages
}

/// A compiled, runnable pollution job: the logical plan plus the
/// resolved assigner and predicted stage layout.
///
/// Obtain one via [`LogicalPlan::compile`]; run it with
/// [`PhysicalPlan::execute`] / [`PhysicalPlan::execute_supervised`];
/// reconfigure it mid-run through [`PhysicalPlan::control_handle`].
pub struct PhysicalPlan {
    logical: LogicalPlan,
    settings: ExecSettings,
    stages: Vec<StageInfo>,
    /// The most recently *validated* plan (initial or scheduled); the
    /// base against which the next delta is applied.
    latest: Arc<Mutex<LogicalPlan>>,
}

impl PhysicalPlan {
    /// The logical plan this was compiled from.
    pub fn logical(&self) -> &LogicalPlan {
        &self.logical
    }

    /// The schema the plan was compiled against.
    pub fn schema(&self) -> &Schema {
        &self.settings.schema
    }

    /// The execution settings the plan compiled to.
    pub(crate) fn settings(&self) -> &ExecSettings {
        &self.settings
    }

    /// The predicted stage layout (labels count sink-first).
    pub fn stages(&self) -> &[StageInfo] {
        &self.stages
    }

    /// The batch representation of each sub-stream's pollution stage:
    /// one [`SubstreamRepr::Row`] per sub-stream.
    pub fn substream_reprs(&self) -> Vec<SubstreamRepr> {
        vec![SubstreamRepr::Row; self.logical.substreams()]
    }

    /// Scopes this plan's durable checkpoint state into `sub` below the
    /// configured checkpoint directory. A no-op when the plan does not
    /// checkpoint to disk.
    ///
    /// Multi-tenant hosts (one compiled plan per serve session) call
    /// this with a per-session name: two sessions running the same
    /// checkpointing plan would otherwise overwrite each other's
    /// `checkpoint.wal` in the shared directory.
    pub fn scope_checkpoint_dir(&mut self, sub: &str) {
        if let Some(ckpt) = &mut self.settings.checkpoint {
            if let Some(dir) = &mut ckpt.dir {
                dir.push(sub);
            }
        }
    }

    /// A handle for scheduling epoch-applied reconfigurations. Handles
    /// are cheap to clone and stay valid across
    /// [`PhysicalPlan::execute`] calls.
    pub fn control_handle(&self) -> ControlHandle {
        ControlHandle {
            schema: self.settings.schema.clone(),
            channel: self.settings.control.clone(),
            latest: Arc::clone(&self.latest),
        }
    }

    /// Renders the physical plan: strategy, assigner, stage labels with
    /// their observability metric names, and the fault-tolerance /
    /// reconfiguration setup. This is what the CLI's `--explain` prints.
    pub fn explain(&self) -> String {
        let m = self.logical.substreams();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== physical plan ==\nstrategy:         {}",
            schedule::describe(&self.settings)
        );
        let _ = writeln!(s, "sub-streams:      {m}");
        let _ = writeln!(s, "assigner:         {}", self.logical.assigner.describe(m));
        let _ = writeln!(s, "seed:             {}", self.logical.seed);
        let _ = writeln!(
            s,
            "watermark period: every {} tuples (reconfiguration epoch grain)",
            self.settings.watermark_period
        );
        let _ = writeln!(
            s,
            "batch size:       {} record(s) per transport batch{}",
            self.settings.batch_size,
            if self.settings.batch_size == 1 {
                " (unbatched)"
            } else {
                ""
            }
        );
        let _ = writeln!(
            s,
            "logging:          {}",
            if self.settings.logging { "on" } else { "off" }
        );
        match &self.logical.supervision {
            Some(sup) => {
                let _ = writeln!(
                    s,
                    "supervision:      max_retries={} deterministic={}{}",
                    sup.max_retries,
                    sup.deterministic,
                    sup.deadline_ms
                        .map(|d| format!(" deadline_ms={d}"))
                        .unwrap_or_default()
                );
            }
            None => {
                let _ = writeln!(s, "supervision:      fail-fast (no retries)");
            }
        }
        match &self.logical.chaos {
            Some(chaos) => {
                let _ = writeln!(
                    s,
                    "chaos:            panic_rate={} delay_rate={} drop_rate={} malform_rate={}",
                    chaos.panic_rate, chaos.delay_rate, chaos.drop_rate, chaos.malform_rate
                );
            }
            None => {
                let _ = writeln!(s, "chaos:            off");
            }
        }
        match &self.logical.checkpoint {
            Some(c) => {
                let _ = writeln!(
                    s,
                    "checkpointing:    every {} epoch(s), wal={}",
                    c.interval_epochs.max(1),
                    c.dir.as_deref().unwrap_or("(in-memory)")
                );
            }
            None => {
                let _ = writeln!(s, "checkpointing:    off");
            }
        }
        let _ = writeln!(s, "stages (labels count sink-first):");
        for stage in &self.stages {
            let _ = writeln!(s, "  {:<32} {}", stage.label, stage.role);
            if !stage.metrics.is_empty() {
                let _ = writeln!(s, "      metrics: {}", stage.metrics.join(", "));
            }
        }
        let _ = writeln!(
            s,
            "reconfiguration:  control channel attached; plan deltas apply atomically \
             at the first watermark >= their scheduled timestamp (Fries-style epochs)"
        );
        s
    }

    /// Executes one attempt (no restarts, and no checkpoints: a plan's
    /// checkpoint section applies to supervised runs) over an in-memory
    /// stream.
    ///
    /// Pipelines are built fresh from the logical plan, so repeated
    /// calls are reproducible; scheduled reconfigurations re-apply at
    /// the same epochs on every call.
    pub fn execute(&self, tuples: Vec<Tuple>) -> Result<PollutionOutput> {
        run(&self.settings, tuples, false, || {
            self.logical.build_pipelines(&self.settings.schema)
        })
    }

    /// Executes under the plan's supervision policy: retryable failures
    /// rebuild the pipelines from the logical plan and re-run, up to the
    /// per-stage retry budget.
    pub fn execute_supervised(&self, tuples: Vec<Tuple>) -> Result<PollutionOutput> {
        run(&self.settings, tuples, true, || {
            self.logical.build_pipelines(&self.settings.schema)
        })
    }

    /// Opens one streaming attempt for the caller to feed: every tuple
    /// [pushed](StreamingSession::push) is prepared and polluted at
    /// once, and what the watermark-driven sorter releases waits for
    /// the caller to [drain](StreamingSession::drain) it — nothing is
    /// collected beyond that, so a session is as long as its caller
    /// keeps pushing.
    ///
    /// This is what `icewafl-serve` drives, one decoded frame at a
    /// time. For the same plan and tuple sequence the rows released are
    /// bit-identical to [`PhysicalPlan::execute`]'s `polluted` output.
    /// Streaming runs are single-attempt by construction — a pushed
    /// stream cannot be replayed, so the supervision policy does not
    /// apply.
    pub fn open_streaming(&self) -> Result<StreamingSession> {
        let pipelines = self.logical.build_pipelines(&self.settings.schema)?;
        self.open_session(pipelines.into_iter().map(Pipeline::Rows).collect())
    }

    /// [`open_streaming`](PhysicalPlan::open_streaming), with every
    /// sub-stream lowered to column kernels when the plan is
    /// column-exact: logging off, no `chaos` and no `checkpoint`
    /// section, nothing scheduled on the
    /// [`control_handle`](PhysicalPlan::control_handle), and every
    /// sub-stream lowering (see [`crate::columnar`]). Such a session
    /// runs [pushed batches](StreamingSession::push_batch) through the
    /// kernels in place; fed the same tuples, it releases the same rows
    /// in the same chunks as a session of row pipelines.
    pub fn open_streaming_lowered(&self) -> Result<StreamingSession> {
        match lowered(&self.logical, &self.settings)? {
            Some(pipelines) => self.open_session(pipelines),
            None => self.open_streaming(),
        }
    }

    fn open_session(&self, pipelines: Vec<Pipeline>) -> Result<StreamingSession> {
        let attempt = Attempt::first(&self.settings, pipelines.len(), true)?;
        StreamingSession::open(&self.settings, pipelines, attempt)
    }
}

/// A channel into a (possibly running) compiled plan that schedules
/// epoch-applied reconfigurations.
///
/// [`ControlHandle::reconfigure_at`] validates the delta by deriving and
/// compiling the full successor plan *before* scheduling it, so a
/// running job never has to reject a swap: by the time an epoch fires,
/// its plan is known-good. Consistency is Fries-style: every sub-stream
/// applies the swap at the first watermark at or past the scheduled
/// timestamp, and watermarks are broadcast to all sub-streams, so no
/// tuple is processed under a half-applied configuration.
#[derive(Clone)]
pub struct ControlHandle {
    schema: Schema,
    channel: ControlChannel<LogicalPlan>,
    latest: Arc<Mutex<LogicalPlan>>,
}

impl ControlHandle {
    /// Schedules `deltas` to apply atomically at the first watermark
    /// `>= at`. Returns the validated successor plan.
    ///
    /// Fails — without scheduling anything — if a delta is invalid, the
    /// successor plan does not build against the schema, the delta
    /// changes the number of sub-streams (the physical fan-out of a
    /// running job is fixed), or the plan checkpoints: a snapshot does
    /// not record which epoch's plan built the state it holds, so a
    /// restore would rebuild the original one.
    pub fn reconfigure_at(&self, at: Timestamp, deltas: &[PlanDelta]) -> Result<LogicalPlan> {
        let mut latest = self.latest.lock();
        if latest.checkpoint.is_some() {
            return Err(Error::plan(
                "reconfigure_at cannot steer a plan with a checkpoint section: \
                 a restore would rebuild the original plan, not the epoch's",
            ));
        }
        let next = latest.apply(deltas)?;
        if next.pipelines.len() != latest.pipelines.len() {
            return Err(Error::plan(format_args!(
                "delta changes the sub-stream count from {} to {}; \
                 the physical fan-out of a running job is fixed",
                latest.pipelines.len(),
                next.pipelines.len()
            )));
        }
        next.build_pipelines(&self.schema)?;
        self.channel.schedule(at, next.clone());
        *latest = next.clone();
        Ok(next)
    }

    /// The plan as of the newest scheduled reconfiguration (the initial
    /// plan if none was scheduled).
    pub fn current_plan(&self) -> LogicalPlan {
        self.latest.lock().clone()
    }

    /// Number of reconfiguration epochs the running job has applied so
    /// far (also surfaced as `epochs_applied` in the run report).
    pub fn epochs_applied(&self) -> u64 {
        self.channel.applied()
    }

    /// Number of reconfigurations scheduled (applied or not).
    pub fn scheduled(&self) -> usize {
        self.channel.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::pollute_stream;
    use icewafl_types::{DataType, Tuple, Value};

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 60_000)),
                    Value::Float(i as f64),
                ])
            })
            .collect()
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

    #[test]
    fn plan_serde_round_trip() {
        let plan = LogicalPlan {
            strategy: StrategyHint::Sequential,
            assigner: AssignerSpec::Probabilistic { p: 0.4 },
            watermark_period: 32,
            ..LogicalPlan::new(9, vec![vec![null_spec(0.5)]])
        };
        let back = LogicalPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        // A minimal handwritten plan gets every default.
        let minimal = LogicalPlan::from_json(r#"{ "pipelines": [[]] }"#).unwrap();
        assert_eq!(minimal.watermark_period, 64);
        assert_eq!(minimal.batch_size, DEFAULT_BATCH_SIZE);
        assert!(minimal.logging);
        assert_eq!(minimal.strategy, StrategyHint::Auto);
        assert_eq!(minimal.assigner, AssignerSpec::Auto);
    }

    #[test]
    fn compiled_plan_matches_direct_runner_output() {
        // The plan path and the hand-built pollute_stream path must
        // produce bit-identical pollution for the same seed.
        let plan = LogicalPlan::new(42, vec![vec![null_spec(0.5)]]);
        let direct = pollute_stream(
            &schema(),
            tuples(200),
            plan.build_pipelines(&schema()).unwrap().pop().unwrap(),
        )
        .unwrap();
        let physical = plan.compile(&schema()).unwrap();
        let planned = physical.execute(tuples(200)).unwrap();
        assert_eq!(direct.polluted, planned.polluted);
        assert_eq!(direct.log.entries(), planned.log.entries());
        assert_eq!(planned.report.strategy.as_deref(), Some("sequential"));
        assert_eq!(planned.report.epochs_applied, 0);
    }

    #[test]
    fn unknown_top_level_keys_are_plan_errors() {
        // The retired `execution` section says where its keys went.
        let err =
            LogicalPlan::from_json(r#"{ "pipelines": [[]], "execution": { "batch_size": 1 } }"#)
                .expect_err("nested section parses");
        assert!(matches!(err, Error::Plan { .. }), "{err}");
        let message = err.to_string();
        assert!(
            message.contains("`execution`") && message.contains("top level"),
            "{message}"
        );
        // Any other stray key is named, checked before the fields parse.
        let err = LogicalPlan::from_json(r#"{ "pipelines": 3, "batchsize": 1 }"#).unwrap_err();
        assert!(err.to_string().contains("`batchsize`"), "{err}");
        // Malformed text is still a parse error of the whole document.
        let err = LogicalPlan::from_json(r#"{ "pipelines": [[]], "#).unwrap_err();
        assert!(err.to_string().contains("bad JSON plan"), "{err}");
    }

    #[test]
    fn assigner_resolution() {
        assert!(matches!(
            AssignerSpec::Auto.resolve(2, 0),
            SubStreamAssigner::RoundRobin
        ));
        assert!(matches!(
            AssignerSpec::Auto.resolve(1, 0),
            SubStreamAssigner::Broadcast
        ));
    }

    #[test]
    fn removed_strategies_are_parse_errors() {
        // The threaded strategies are gone: naming one is an unknown
        // variant, and the error names the value.
        for removed in ["pipelined", "split_merge_parallel"] {
            let json = format!(r#"{{ "pipelines": [[]], "strategy": "{removed}" }}"#);
            let err = LogicalPlan::from_json(&json).expect_err("plan parses");
            assert!(matches!(err, Error::Plan { .. }), "{err}");
            assert!(err.to_string().contains(removed), "{err}");
        }
        // The two names left run the same schedule.
        let run = |strategy| {
            let plan = LogicalPlan {
                strategy,
                ..LogicalPlan::new(3, vec![vec![null_spec(0.5)], vec![null_spec(0.5)]])
            };
            let physical = plan.compile(&schema()).unwrap();
            assert!(physical.explain().contains("strategy:         sequential"));
            physical.execute(tuples(300)).unwrap().polluted
        };
        assert_eq!(run(StrategyHint::Auto), run(StrategyHint::Sequential));
    }

    #[test]
    fn oversized_batch_sizes_are_plan_errors() {
        // A session reserves `batch_size` records per frame: a huge value
        // must fail to compile, not overflow a capacity at run time.
        let with = |batch_size| LogicalPlan {
            batch_size,
            ..LogicalPlan::new(1, vec![vec![null_spec(0.5)]])
        };
        for batch_size in [MAX_BATCH_SIZE + 1, 1 << 62, usize::MAX] {
            let err = with(batch_size).compile(&schema()).err().expect("rejected");
            assert!(matches!(err, Error::Plan { .. }), "{err}");
            assert!(err.to_string().contains("batch_size"), "{err}");
        }
        let run = |batch_size| {
            let physical = with(batch_size).compile(&schema()).unwrap();
            physical.execute(tuples(100)).unwrap().polluted
        };
        assert_eq!(run(MAX_BATCH_SIZE), run(1));
    }

    #[test]
    fn explain_names_strategy_and_stages() {
        let plan = LogicalPlan::new(1, vec![vec![null_spec(0.5)]]);
        let physical = plan.compile(&schema()).unwrap();
        let explain = physical.explain();
        assert!(explain.contains("strategy:         sequential"));
        assert!(explain.contains("stage/00_event_time_sorter"));
        assert!(explain.contains("stage/01_split_router"));
        assert!(explain.contains("stage/02_pollution_pipeline"));
        assert!(explain.contains("stage/03_source"));
        assert!(explain.contains("stage/02_pollution_pipeline/elements_in"));
        assert!(explain.contains("Fries-style epochs"));
    }

    #[test]
    fn predicted_stage_labels_match_a_real_run() {
        // The explain output is a *prediction* of runtime labels; verify
        // it against the metrics an actual run registers, with and
        // without chaos spliced in.
        for chaos in [false, true] {
            let plan = LogicalPlan {
                chaos: chaos.then(ChaosSectionConfig::default),
                ..LogicalPlan::new(5, vec![vec![null_spec(0.3)], vec![null_spec(0.3)]])
            };
            let physical = plan.compile(&schema()).unwrap();
            let out = physical.execute(tuples(100)).unwrap();
            for stage in physical.stages() {
                let counter = format!("{}/elements_in", stage.label);
                if stage.metrics.contains(&counter) {
                    assert!(
                        out.report.metrics.counter(&counter) > 0,
                        "predicted stage {} missing in run metrics (chaos={chaos})",
                        stage.label
                    );
                }
            }
            // Every predicted counter is one the run registered.
            for name in physical.stages().iter().flat_map(|s| &s.metrics) {
                let registered = out.report.metrics.counters.contains_key(name)
                    || out.report.metrics.gauges.contains_key(name)
                    || out.report.metrics.histograms.contains_key(name);
                assert!(registered, "predicted metric {name} not registered");
            }
        }
    }

    #[test]
    fn supervised_runs_produce_executes_bytes() {
        // Every attempt replays the one prepared copy of the input; a
        // run that never restarts and a run that restarts once both end
        // with what a plain `execute` gives, clean stream included.
        let calm = LogicalPlan {
            supervision: Some(SupervisionConfig {
                max_retries: 2,
                deterministic: true,
                ..SupervisionConfig::default()
            }),
            ..LogicalPlan::new(11, vec![vec![null_spec(0.4)], vec![null_spec(0.2)]])
        };
        let hurt = LogicalPlan {
            chaos: Some(ChaosSectionConfig {
                kill_at_tuple: Some(40),
                panic_budget: Some(1),
                ..ChaosSectionConfig::default()
            }),
            ..calm.clone()
        };
        let reference = calm
            .compile(&schema())
            .unwrap()
            .execute(tuples(300))
            .unwrap();
        for (plan, restarts) in [(calm, 0), (hurt, 1)] {
            let out = plan
                .compile(&schema())
                .unwrap()
                .execute_supervised(tuples(300))
                .unwrap();
            assert_eq!(out.report.restarts, restarts);
            assert_eq!(out.polluted, reference.polluted);
            assert_eq!(out.clean, reference.clean);
            assert_eq!(out.log.entries(), reference.log.entries());
        }
    }

    #[test]
    fn a_streaming_session_is_the_offline_run_fed_by_hand() {
        // Same topology, same stage labels, same bytes — and output
        // while the input is still arriving.
        let plan = LogicalPlan {
            checkpoint: Some(CheckpointSectionConfig {
                dir: None,
                interval_epochs: 2,
            }),
            ..LogicalPlan::new(5, vec![vec![null_spec(0.3)], vec![null_spec(0.3)]])
        };
        let physical = plan.compile(&schema()).unwrap();
        let offline = physical.execute(tuples(1_000)).unwrap();

        let mut out = Vec::new();
        let keep = |out: &mut Vec<_>, chunk: &[crate::ReleasedRow<'_>]| {
            out.extend(chunk.iter().map(crate::ReleasedRow::to_stamped));
        };
        let mut session = physical.open_streaming().unwrap();
        for (i, tuple) in tuples(1_000).into_iter().enumerate() {
            session.push(tuple);
            session.drain(|chunk| keep(&mut out, chunk));
            // The loop holds back the open watermark period only.
            assert!(out.len() + 64 > i, "tuple {i}: {} out", out.len());
        }
        assert!(!session.is_failed());
        let report = session.finish(|chunk| keep(&mut out, chunk)).unwrap();
        assert_eq!(out, offline.polluted);
        assert_eq!((report.tuples_in, report.tuples_out), (1_000, 1_000));
        assert_eq!(report.log_entries, offline.report.log_entries);
        assert_eq!(report.polluters, offline.report.polluters);
        assert!(report.checkpoints_taken > 0, "a pushed session checkpoints");
        for stage in physical.stages() {
            let counter = format!("{}/elements_in", stage.label);
            if stage.metrics.contains(&counter) {
                assert!(
                    report.metrics.counter(&counter) > 0,
                    "predicted stage {} missing in a streamed run",
                    stage.label
                );
            }
        }
    }

    #[test]
    fn deltas_edit_the_plan() {
        let plan = LogicalPlan::new(
            1,
            vec![vec![
                null_spec(0.5),
                PolluterConfig::Drop {
                    name: "dropper".into(),
                    condition: ConditionConfig::Never,
                },
            ]],
        );
        let next = plan
            .apply(&[
                PlanDelta::SetSeed { seed: 2 },
                PlanDelta::SetError {
                    polluter: "null-x".into(),
                    error: ErrorConfig::Scale { factor: 3.0 },
                },
                PlanDelta::SetCondition {
                    polluter: "dropper".into(),
                    condition: ConditionConfig::Always,
                },
                PlanDelta::RemovePolluter {
                    polluter: "dropper".into(),
                },
                PlanDelta::AddPolluter {
                    pipeline: 0,
                    config: PolluterConfig::Duplicate {
                        name: "dup".into(),
                        condition: ConditionConfig::Always,
                        copies: 1,
                    },
                },
            ])
            .unwrap();
        assert_eq!(next.seed, 2);
        assert_eq!(next.pipelines[0].len(), 2, "dropper removed, dup added");
        assert!(matches!(
            &next.pipelines[0][0],
            PolluterConfig::Standard { error: ErrorConfig::Scale { factor }, .. } if *factor == 3.0
        ));
        // The original is untouched.
        assert_eq!(plan.seed, 1);
        assert_eq!(plan.pipelines[0].len(), 2);
    }

    #[test]
    fn deltas_reach_nested_polluters() {
        let plan = LogicalPlan::new(
            1,
            vec![vec![PolluterConfig::Composite {
                name: "outer".into(),
                condition: ConditionConfig::Always,
                children: vec![PolluterConfig::OneOf {
                    name: "pick".into(),
                    condition: ConditionConfig::Always,
                    children: vec![null_spec(0.5)],
                    weights: Some(vec![1.0]),
                }],
            }]],
        );
        let next = plan
            .apply(&[PlanDelta::SetError {
                polluter: "null-x".into(),
                error: ErrorConfig::Scale { factor: 0.5 },
            }])
            .unwrap();
        assert!(next.to_json().contains("scale"));
        // Removing a one-of child trims its weight too.
        let next = plan
            .apply(&[PlanDelta::RemovePolluter {
                polluter: "null-x".into(),
            }])
            .unwrap();
        let json = next.to_json();
        assert!(!json.contains("null-x"));
        assert!(json.contains("\"weights\": []"), "weight removed: {json}");
    }

    #[test]
    fn bad_deltas_are_typed_plan_errors() {
        let plan = LogicalPlan::new(1, vec![vec![null_spec(0.5)]]);
        let err = plan
            .apply(&[PlanDelta::RemovePolluter {
                polluter: "ghost".into(),
            }])
            .unwrap_err();
        assert!(matches!(err, Error::Plan { .. }));
        assert!(err.to_string().contains("ghost"));
        let err = plan
            .apply(&[PlanDelta::SetError {
                polluter: "null-x".into(),
                error: ErrorConfig::Scale { factor: 1.0 },
            }])
            .map(|p| {
                p.apply(&[PlanDelta::SetError {
                    polluter: "missing".into(),
                    error: ErrorConfig::MissingValue,
                }])
            })
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, Error::Plan { .. }));
        assert!(plan
            .apply(&[PlanDelta::AddPolluter {
                pipeline: 7,
                config: null_spec(0.1),
            }])
            .is_err());
    }

    #[test]
    fn compile_rejects_broken_plans() {
        assert!(LogicalPlan::new(1, vec![]).compile(&schema()).is_err());
        let bad_attr = LogicalPlan::new(
            1,
            vec![vec![PolluterConfig::Standard {
                name: "x".into(),
                attributes: vec!["Nope".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Always,
                pattern: None,
            }]],
        );
        assert!(bad_attr.compile(&schema()).is_err());
        let bad_chaos = LogicalPlan {
            chaos: Some(ChaosSectionConfig {
                panic_rate: 2.0,
                ..ChaosSectionConfig::default()
            }),
            ..LogicalPlan::new(1, vec![vec![]])
        };
        assert!(bad_chaos.compile(&schema()).is_err());
    }

    #[test]
    fn control_handle_validates_before_scheduling() {
        let physical = LogicalPlan::new(1, vec![vec![null_spec(0.5)]])
            .compile(&schema())
            .unwrap();
        let handle = physical.control_handle();
        // Unknown polluter: rejected, nothing scheduled.
        assert!(handle
            .reconfigure_at(
                Timestamp(1000),
                &[PlanDelta::RemovePolluter {
                    polluter: "ghost".into()
                }]
            )
            .is_err());
        assert_eq!(handle.scheduled(), 0);
        // Sub-stream count change: rejected.
        assert!(handle
            .reconfigure_at(
                Timestamp(1000),
                &[PlanDelta::ReplacePipelines {
                    pipelines: vec![vec![], vec![]]
                }]
            )
            .is_err());
        // Unknown attribute in the successor plan: rejected.
        assert!(handle
            .reconfigure_at(
                Timestamp(1000),
                &[PlanDelta::AddPolluter {
                    pipeline: 0,
                    config: PolluterConfig::Standard {
                        name: "bad".into(),
                        attributes: vec!["Nope".into()],
                        error: ErrorConfig::MissingValue,
                        condition: ConditionConfig::Always,
                        pattern: None,
                    }
                }]
            )
            .is_err());
        // A valid delta schedules and becomes the base for the next one.
        let next = handle
            .reconfigure_at(
                Timestamp(1000),
                &[PlanDelta::SetError {
                    polluter: "null-x".into(),
                    error: ErrorConfig::Scale { factor: 2.0 },
                }],
            )
            .unwrap();
        assert_eq!(handle.scheduled(), 1);
        assert_eq!(handle.current_plan(), next);
        assert_eq!(handle.epochs_applied(), 0, "nothing ran yet");
    }

    #[test]
    fn control_handle_rejects_checkpointing_plans() {
        // A restore rebuilds the plan the job was compiled from, so an
        // epoch applied before the fault would be lost: refused up
        // front instead of recovering to subtly different bytes.
        let plan = LogicalPlan {
            checkpoint: Some(CheckpointSectionConfig::default()),
            ..LogicalPlan::new(1, vec![vec![null_spec(0.5)]])
        };
        let handle = plan.compile(&schema()).unwrap().control_handle();
        let err = handle
            .reconfigure_at(
                Timestamp(1000),
                &[PlanDelta::SetError {
                    polluter: "null-x".into(),
                    error: ErrorConfig::Scale { factor: 2.0 },
                }],
            )
            .unwrap_err();
        assert!(matches!(err, Error::Plan { .. }), "{err}");
        let message = err.to_string();
        assert!(
            message.contains("reconfigure_at") && message.contains("checkpoint"),
            "{message}"
        );
        assert_eq!(handle.scheduled(), 0);
    }

    #[test]
    fn repr_columnar_is_a_parse_error() {
        // No plan value selects a second execution path: the retired
        // variant is an unknown one.
        let err = LogicalPlan::from_json(r#"{ "pipelines": [[]], "repr": "columnar" }"#)
            .expect_err("plan parses");
        assert!(matches!(err, Error::Plan { .. }), "{err}");
        assert!(err.to_string().contains("columnar"), "{err}");
        for repr in ["auto", "row"] {
            let json = format!(r#"{{ "pipelines": [[]], "repr": "{repr}" }}"#);
            let physical = LogicalPlan::from_json(&json)
                .unwrap()
                .compile(&schema())
                .unwrap();
            assert_eq!(physical.substream_reprs()[0].as_str(), "row");
        }
    }
}
