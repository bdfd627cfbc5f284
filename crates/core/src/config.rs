//! Declarative pipeline configuration (challenge C3).
//!
//! Inexperienced users configure Icewafl through a JSON document
//! describing conditions, error types, and (possibly nested) polluters;
//! experts drop down to the trait-level API. The document is a
//! [`LogicalPlan`](crate::plan::LogicalPlan); this module holds the
//! serde data model of its parts (polluters, conditions, errors, the
//! fault-tolerance sections) and the builder that binds polluter specs
//! to a schema, deriving a deterministic RNG per component from the
//! master seed and the component's path (see [`crate::rng`]).
//!
//! ```json
//! {
//!   "seed": 42,
//!   "pipelines": [[{
//!     "type": "standard",
//!     "name": "null-distance",
//!     "attributes": ["Distance"],
//!     "error": { "type": "missing_value" },
//!     "condition": { "type": "sinusoidal", "amplitude": 0.25, "offset": 0.25 }
//!   }]]
//! }
//! ```

use crate::condition::{
    Always, AndCondition, BoxCondition, CmpOp, HourRange, LinearRampProbability, Never,
    NotCondition, OrCondition, PatternProbability, Probability, SinusoidalProbability, TimeWindow,
    ValueCondition,
};
use crate::error_fn::{
    Constant, ErrorFunction, GaussianNoise, IncorrectCategory, MissingValue, Outlier, Rounding,
    ScaleByFactor, StringTypo, SwapAttributes, TimestampShift, TypoKind,
    UniformMultiplicativeNoise, UnitConversion,
};
use crate::pattern::ChangePattern;
use crate::pipeline::{CompositePolluter, OneOfPolluter, PollutionPipeline};
use crate::polluter::{BoxPolluter, StandardPolluter};
use crate::rng::{ComponentPath, SeedFactory};
use crate::temporal::{DelayPolluter, DropPolluter, DuplicatePolluter, FreezePolluter};
use icewafl_stream::chaos::ChaosConfig;
use icewafl_stream::supervisor::SupervisorPolicy;
use icewafl_types::{parse_timestamp, Duration, Error, Result, Schema, Value};
use serde::{Deserialize, Serialize};

/// Builds runnable pipelines from polluter specs — the construction
/// behind
/// [`LogicalPlan::build_pipelines`](crate::plan::LogicalPlan::build_pipelines).
/// Deterministic in `seed`: component RNGs derive from the master seed
/// and the component's path.
pub(crate) fn build_pipelines(
    seed: u64,
    pipelines: &[Vec<PolluterConfig>],
    schema: &Schema,
) -> Result<Vec<PollutionPipeline>> {
    let seeds = SeedFactory::new(seed);
    pipelines
        .iter()
        .enumerate()
        .map(|(i, polluters)| {
            let path = ComponentPath::root().child("pipeline").index(i);
            let built: Result<Vec<BoxPolluter>> = polluters
                .iter()
                .enumerate()
                .map(|(j, p)| build_polluter(p, schema, &seeds, &path.index(j)))
                .collect();
            Ok(PollutionPipeline::new(built?))
        })
        .collect()
}

/// Serializable supervised-retry policy (`LogicalPlan::supervision`).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SupervisionConfig {
    /// Retries allowed per stage before the failure becomes final.
    #[serde(default)]
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds; doubles each
    /// retry.
    #[serde(default = "default_backoff_base_ms")]
    pub backoff_base_ms: u64,
    /// Upper bound on the (pre-jitter) backoff, in milliseconds.
    #[serde(default = "default_backoff_max_ms")]
    pub backoff_max_ms: u64,
    /// Retry immediately with no jitter (deterministic mode).
    #[serde(default)]
    pub deterministic: bool,
    /// Wall-clock budget for the whole supervised run, in milliseconds.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        let base = SupervisorPolicy::default();
        SupervisionConfig {
            max_retries: base.max_retries,
            backoff_base_ms: base.backoff_base.as_millis() as u64,
            backoff_max_ms: base.backoff_max.as_millis() as u64,
            deterministic: base.deterministic,
            deadline_ms: None,
        }
    }
}

fn default_backoff_base_ms() -> u64 {
    SupervisorPolicy::default().backoff_base.as_millis() as u64
}

fn default_backoff_max_ms() -> u64 {
    SupervisorPolicy::default().backoff_max.as_millis() as u64
}

impl SupervisionConfig {
    /// Builds the runtime policy; jitter derives from the master seed.
    pub fn to_policy(&self, seed: u64) -> SupervisorPolicy {
        SupervisorPolicy {
            max_retries: self.max_retries,
            backoff_base: std::time::Duration::from_millis(self.backoff_base_ms),
            backoff_max: std::time::Duration::from_millis(self.backoff_max_ms),
            deterministic: self.deterministic,
            deadline: self.deadline_ms.map(std::time::Duration::from_millis),
            seed,
        }
    }
}

/// Serializable checkpointing policy (`LogicalPlan::checkpoint`).
///
/// Enabling it makes supervised retries *resume* from the latest
/// complete epoch-aligned snapshot instead of restarting the whole
/// stream.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CheckpointSectionConfig {
    /// Directory for the write-ahead checkpoint log. Absent =
    /// in-memory checkpoints only (still resumable within a process,
    /// nothing durable on disk).
    #[serde(default)]
    pub dir: Option<String>,
    /// Take a checkpoint every this many epochs (source watermarks);
    /// clamped to at least 1.
    #[serde(default = "one_u64")]
    pub interval_epochs: u64,
}

impl Default for CheckpointSectionConfig {
    fn default() -> Self {
        CheckpointSectionConfig {
            dir: None,
            interval_epochs: 1,
        }
    }
}

/// Serializable chaos-injection rates (`LogicalPlan::chaos`). All rates
/// are per-record probabilities in `[0, 1]`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ChaosSectionConfig {
    /// Probability that processing a record panics.
    #[serde(default)]
    pub panic_rate: f64,
    /// Deterministic kill switch: panic on exactly the n-th record
    /// (1-based) this injector sees, independent of the probabilistic
    /// rates. Consumes a panic token, so with `panic_budget: 1` it
    /// fires once across supervised retries.
    #[serde(default)]
    pub kill_at_tuple: Option<u64>,
    /// Cap on injected panics, shared across supervised retries
    /// (`None` = unbounded). A budget of 1 models a transient fault.
    #[serde(default)]
    pub panic_budget: Option<u64>,
    /// Probability that processing a record sleeps for `delay_ms`.
    #[serde(default)]
    pub delay_rate: f64,
    /// Injected delay duration, in milliseconds.
    #[serde(default = "one_u64")]
    pub delay_ms: u64,
    /// Probability that a record is dropped in flight.
    #[serde(default)]
    pub drop_rate: f64,
    /// Probability that a record's values are overwritten with NULLs.
    #[serde(default)]
    pub malform_rate: f64,
}

impl Default for ChaosSectionConfig {
    fn default() -> Self {
        ChaosSectionConfig {
            panic_rate: 0.0,
            kill_at_tuple: None,
            panic_budget: None,
            delay_rate: 0.0,
            delay_ms: 1,
            drop_rate: 0.0,
            malform_rate: 0.0,
        }
    }
}

fn one_u64() -> u64 {
    1
}

impl ChaosSectionConfig {
    /// Builds the runtime chaos config; the injector RNG derives from
    /// the master seed.
    pub fn to_chaos(&self, seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_rate: self.panic_rate,
            kill_at_tuple: self.kill_at_tuple,
            panic_budget: self.panic_budget,
            delay_rate: self.delay_rate,
            delay_ms: self.delay_ms,
            drop_rate: self.drop_rate,
            malform_rate: self.malform_rate,
        }
    }
}

/// Serializable polluter description.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum PolluterConfig {
    /// A standard polluter `⟨e, c, A_p⟩` with an optional change
    /// pattern.
    Standard {
        /// Polluter name (appears in log entries).
        name: String,
        /// Target attribute names `A_p`.
        attributes: Vec<String>,
        /// The error function.
        error: ErrorConfig,
        /// The gating condition (defaults to `always`).
        #[serde(default)]
        condition: ConditionConfig,
        /// Magnitude modulation over time (defaults to constant).
        #[serde(default)]
        pattern: Option<ChangePattern>,
    },
    /// A composite polluter: children applied in series behind a shared
    /// condition.
    Composite {
        /// Polluter name.
        name: String,
        /// Shared gating condition.
        #[serde(default)]
        condition: ConditionConfig,
        /// Child polluters (may nest arbitrarily).
        children: Vec<PolluterConfig>,
    },
    /// Mutually exclusive children: exactly one fires per matching
    /// tuple.
    OneOf {
        /// Polluter name.
        name: String,
        /// Shared gating condition.
        #[serde(default)]
        condition: ConditionConfig,
        /// Child polluters.
        children: Vec<PolluterConfig>,
        /// Optional weights (uniform if absent).
        #[serde(default)]
        weights: Option<Vec<f64>>,
    },
    /// Native temporal error: delayed tuple.
    Delay {
        /// Polluter name.
        name: String,
        /// Gating condition.
        #[serde(default)]
        condition: ConditionConfig,
        /// Delay in milliseconds.
        delay_ms: i64,
    },
    /// Native temporal error: dropped tuple.
    Drop {
        /// Polluter name.
        name: String,
        /// Gating condition.
        #[serde(default)]
        condition: ConditionConfig,
    },
    /// Native temporal error: duplicated tuple.
    Duplicate {
        /// Polluter name.
        name: String,
        /// Gating condition.
        #[serde(default)]
        condition: ConditionConfig,
        /// Extra copies to emit (≥ 1).
        #[serde(default = "one")]
        copies: u32,
    },
    /// Native temporal error: frozen value.
    Freeze {
        /// Polluter name.
        name: String,
        /// Trigger condition.
        #[serde(default)]
        condition: ConditionConfig,
        /// Attributes to freeze.
        attributes: Vec<String>,
        /// Freeze duration in milliseconds.
        duration_ms: i64,
    },
    /// A time burst: once activated, the error applies to every tuple
    /// for `duration_ms` (the §3.2.1 "scale for four-hour intervals"
    /// pattern).
    Burst {
        /// Polluter name.
        name: String,
        /// Activation condition.
        #[serde(default)]
        condition: ConditionConfig,
        /// Target attributes.
        attributes: Vec<String>,
        /// The error applied during the burst.
        error: ErrorConfig,
        /// Burst duration in milliseconds.
        duration_ms: i64,
    },
    /// Error propagation (the Fig. 1 motivating scenario, §5 item 1): a
    /// trigger at `τ` causes the consequent error on tuples in
    /// `[τ + delay_ms, τ + delay_ms + duration_ms)`.
    Propagation {
        /// Polluter name.
        name: String,
        /// The triggering condition.
        trigger: ConditionConfig,
        /// Optional restriction of which tuples inside the window the
        /// consequent error hits (Fig. 1: trigger on S1, pollute S4).
        #[serde(default)]
        consequent_filter: Option<ConditionConfig>,
        /// Delay before the consequent error starts, in milliseconds.
        #[serde(default)]
        delay_ms: i64,
        /// Length of the consequent window, in milliseconds.
        duration_ms: i64,
        /// The consequent error.
        error: ErrorConfig,
        /// Attributes the consequent error targets.
        attributes: Vec<String>,
    },
    /// Per-key pollution (§5 item 2): the inner polluter is instantiated
    /// independently for every distinct value of `key_attribute`, each
    /// instance with its own key-derived seed.
    Keyed {
        /// Polluter name.
        name: String,
        /// The partitioning attribute.
        key_attribute: String,
        /// The per-key polluter template.
        inner: Box<PolluterConfig>,
    },
}

fn one() -> u32 {
    1
}

/// Serializable error-function description.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ErrorConfig {
    /// Additive or relative Gaussian noise.
    GaussianNoise {
        /// Standard deviation.
        sigma: f64,
        /// Relative (multiplicative) mode.
        #[serde(default)]
        relative: bool,
    },
    /// The paper's equation-(3) uniform multiplicative noise.
    UniformNoise {
        /// Lower bound of `U(a, b)` at full intensity.
        a: f64,
        /// Upper bound of `U(a, b)` at full intensity.
        b: f64,
    },
    /// Multiply by a factor.
    Scale {
        /// The scale factor.
        factor: f64,
    },
    /// Set to NULL.
    MissingValue,
    /// Set to a constant.
    Constant {
        /// The replacement value.
        value: Value,
    },
    /// Replace with a different category.
    IncorrectCategory {
        /// The category domain (≥ 2 entries).
        categories: Vec<String>,
    },
    /// Shift far away from the true value.
    Outlier {
        /// Relative magnitude of the shift.
        magnitude: f64,
    },
    /// Round to a decimal precision.
    Round {
        /// Decimal places to keep.
        precision: u32,
    },
    /// Exact unit conversion (km→cm is factor `100000`).
    UnitConversion {
        /// The conversion factor.
        factor: f64,
    },
    /// Keyboard-style typo.
    Typo {
        /// The typo kind.
        #[serde(default = "any_typo")]
        kind: TypoKind,
    },
    /// Swap attribute pairs.
    SwapAttributes,
    /// Shift the timestamp attribute.
    TimestampShift {
        /// Shift in milliseconds (may be negative).
        delta_ms: i64,
    },
}

fn any_typo() -> TypoKind {
    TypoKind::Any
}

/// Serializable condition description.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ConditionConfig {
    /// Fires always (the default).
    #[default]
    Always,
    /// Never fires.
    Never,
    /// Fires with fixed probability `p`.
    Probability {
        /// The firing probability.
        p: f64,
    },
    /// Fires depending on an attribute value.
    Value {
        /// Attribute name.
        attribute: String,
        /// Comparison operator.
        op: CmpOp,
        /// Reference value (ignored for `is_null` / `not_null`).
        #[serde(default)]
        value: Value,
    },
    /// Fires while `τ ∈ [from, to)`; bounds are `"YYYY-MM-DD[ HH:MM:SS]"`
    /// strings, either may be omitted.
    TimeWindow {
        /// Inclusive lower bound.
        #[serde(default)]
        from: Option<String>,
        /// Exclusive upper bound.
        #[serde(default)]
        to: Option<String>,
    },
    /// Fires during a daily hour range `[start, end)`.
    HourRange {
        /// First hour (inclusive).
        start: u32,
        /// Last hour (exclusive).
        end: u32,
    },
    /// Daily sinusoidal probability `amplitude·cos(π/12·t) + offset`.
    Sinusoidal {
        /// Cosine amplitude.
        amplitude: f64,
        /// Vertical offset.
        offset: f64,
    },
    /// Probability ramping from `p0` at `from` to `p1` at `to`.
    LinearRamp {
        /// Ramp start timestamp string.
        from: String,
        /// Ramp end timestamp string.
        to: String,
        /// Probability at the start.
        #[serde(default)]
        p0: f64,
        /// Probability at the end.
        #[serde(default = "one_f64")]
        p1: f64,
    },
    /// Probability modulated by an arbitrary change pattern.
    Pattern {
        /// The modulation pattern.
        pattern: ChangePattern,
        /// Probability at intensity 0.
        #[serde(default)]
        p_min: f64,
        /// Probability at intensity 1.
        #[serde(default = "one_f64")]
        p_max: f64,
    },
    /// All children must fire.
    And {
        /// Child conditions.
        children: Vec<ConditionConfig>,
    },
    /// At least one child must fire.
    Or {
        /// Child conditions.
        children: Vec<ConditionConfig>,
    },
    /// The child must not fire.
    Not {
        /// The negated condition.
        inner: Box<ConditionConfig>,
    },
}

fn one_f64() -> f64 {
    1.0
}

/// Builds a runtime condition from its configuration.
pub fn build_condition(
    config: &ConditionConfig,
    schema: &Schema,
    seeds: &SeedFactory,
    path: &ComponentPath,
) -> Result<BoxCondition> {
    Ok(match config {
        ConditionConfig::Always => Box::new(Always),
        ConditionConfig::Never => Box::new(Never),
        ConditionConfig::Probability { p } => {
            if !(0.0..=1.0).contains(p) {
                return Err(Error::config(format_args!(
                    "probability {p} outside [0, 1]"
                )));
            }
            Box::new(Probability::new(*p, seeds.rng_for(path.as_str())))
        }
        ConditionConfig::Value {
            attribute,
            op,
            value,
        } => {
            let idx = schema.require(attribute)?;
            Box::new(ValueCondition::new(idx, op.clone(), value.clone()))
        }
        ConditionConfig::TimeWindow { from, to } => {
            let from = from.as_deref().map(parse_timestamp).transpose()?;
            let to = to.as_deref().map(parse_timestamp).transpose()?;
            Box::new(TimeWindow::new(from, to))
        }
        ConditionConfig::HourRange { start, end } => Box::new(HourRange::new(*start, *end)),
        ConditionConfig::Sinusoidal { amplitude, offset } => Box::new(SinusoidalProbability::new(
            *amplitude,
            *offset,
            seeds.rng_for(path.as_str()),
        )),
        ConditionConfig::LinearRamp { from, to, p0, p1 } => Box::new(LinearRampProbability::new(
            parse_timestamp(from)?,
            parse_timestamp(to)?,
            *p0,
            *p1,
            seeds.rng_for(path.as_str()),
        )),
        ConditionConfig::Pattern {
            pattern,
            p_min,
            p_max,
        } => Box::new(PatternProbability::new(
            pattern.clone(),
            *p_min,
            *p_max,
            seeds.rng_for(path.as_str()),
        )),
        ConditionConfig::And { children } => Box::new(AndCondition::new(
            children
                .iter()
                .enumerate()
                .map(|(i, c)| build_condition(c, schema, seeds, &path.index(i)))
                .collect::<Result<_>>()?,
        )),
        ConditionConfig::Or { children } => Box::new(OrCondition::new(
            children
                .iter()
                .enumerate()
                .map(|(i, c)| build_condition(c, schema, seeds, &path.index(i)))
                .collect::<Result<_>>()?,
        )),
        ConditionConfig::Not { inner } => Box::new(NotCondition::new(build_condition(
            inner,
            schema,
            seeds,
            &path.child("not"),
        )?)),
    })
}

/// Builds a runtime error function from its configuration.
pub fn build_error_fn(
    config: &ErrorConfig,
    seeds: &SeedFactory,
    path: &ComponentPath,
) -> Result<Box<dyn ErrorFunction>> {
    Ok(match config {
        ErrorConfig::GaussianNoise { sigma, relative } => {
            let rng = seeds.rng_for(path.as_str());
            if *relative {
                Box::new(GaussianNoise::relative(*sigma, rng))
            } else {
                Box::new(GaussianNoise::additive(*sigma, rng))
            }
        }
        ErrorConfig::UniformNoise { a, b } => Box::new(UniformMultiplicativeNoise::new(
            *a,
            *b,
            seeds.rng_for(path.as_str()),
        )),
        ErrorConfig::Scale { factor } => Box::new(ScaleByFactor::new(*factor)),
        ErrorConfig::MissingValue => Box::new(MissingValue),
        ErrorConfig::Constant { value } => Box::new(Constant::new(value.clone())),
        ErrorConfig::IncorrectCategory { categories } => Box::new(IncorrectCategory::new(
            categories.clone(),
            seeds.rng_for(path.as_str()),
        )),
        ErrorConfig::Outlier { magnitude } => {
            Box::new(Outlier::new(*magnitude, seeds.rng_for(path.as_str())))
        }
        ErrorConfig::Round { precision } => Box::new(Rounding::new(*precision)),
        ErrorConfig::UnitConversion { factor } => Box::new(UnitConversion::new(*factor)),
        ErrorConfig::Typo { kind } => {
            Box::new(StringTypo::new(*kind, seeds.rng_for(path.as_str())))
        }
        ErrorConfig::SwapAttributes => Box::new(SwapAttributes),
        ErrorConfig::TimestampShift { delta_ms } => {
            Box::new(TimestampShift::new(Duration::from_millis(*delta_ms)))
        }
    })
}

/// Builds a concrete [`StandardPolluter`] from its configuration parts —
/// the one construction path shared by [`build_polluter`] and the
/// columnar lowering in [`crate::columnar`]. Both derive component RNGs
/// from the same seed paths (`<path>.cond` / `.error` / `.pattern`), so
/// a polluter built here behaves identically whether it is fed rows or
/// column batches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_standard(
    name: &str,
    attributes: &[String],
    error: &ErrorConfig,
    condition: &ConditionConfig,
    pattern: &Option<ChangePattern>,
    schema: &Schema,
    seeds: &SeedFactory,
    path: &ComponentPath,
) -> Result<StandardPolluter> {
    let cond = build_condition(condition, schema, seeds, &path.child("cond"))?;
    let error_fn = build_error_fn(error, seeds, &path.child("error"))?;
    let attr_refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
    StandardPolluter::bind(
        name.to_string(),
        error_fn,
        cond,
        &attr_refs,
        pattern.clone().unwrap_or(ChangePattern::Constant),
        schema,
        seeds.rng_for(path.child("pattern").as_str()),
    )
}

/// Builds a runtime polluter from its configuration.
pub fn build_polluter(
    config: &PolluterConfig,
    schema: &Schema,
    seeds: &SeedFactory,
    path: &ComponentPath,
) -> Result<BoxPolluter> {
    Ok(match config {
        PolluterConfig::Standard {
            name,
            attributes,
            error,
            condition,
            pattern,
        } => Box::new(build_standard(
            name, attributes, error, condition, pattern, schema, seeds, path,
        )?),
        PolluterConfig::Composite {
            name,
            condition,
            children,
        } => {
            let cond = build_condition(condition, schema, seeds, &path.child("cond"))?;
            let built: Result<Vec<BoxPolluter>> = children
                .iter()
                .enumerate()
                .map(|(i, c)| build_polluter(c, schema, seeds, &path.index(i)))
                .collect();
            Box::new(CompositePolluter::new(name.clone(), cond, built?))
        }
        PolluterConfig::OneOf {
            name,
            condition,
            children,
            weights,
        } => {
            let cond = build_condition(condition, schema, seeds, &path.child("cond"))?;
            let built: Result<Vec<BoxPolluter>> = children
                .iter()
                .enumerate()
                .map(|(i, c)| build_polluter(c, schema, seeds, &path.index(i)))
                .collect();
            let rng = seeds.rng_for(path.child("pick").as_str());
            match weights {
                Some(w) => Box::new(OneOfPolluter::weighted(name.clone(), cond, built?, w, rng)?),
                None => {
                    let built = built?;
                    if built.is_empty() {
                        return Err(Error::config("one_of needs at least one child"));
                    }
                    Box::new(OneOfPolluter::new(name.clone(), cond, built, rng))
                }
            }
        }
        PolluterConfig::Delay {
            name,
            condition,
            delay_ms,
        } => {
            let cond = build_condition(condition, schema, seeds, &path.child("cond"))?;
            Box::new(DelayPolluter::new(
                name.clone(),
                cond,
                Duration::from_millis(*delay_ms),
            )?)
        }
        PolluterConfig::Drop { name, condition } => {
            let cond = build_condition(condition, schema, seeds, &path.child("cond"))?;
            Box::new(DropPolluter::new(name.clone(), cond))
        }
        PolluterConfig::Duplicate {
            name,
            condition,
            copies,
        } => {
            let cond = build_condition(condition, schema, seeds, &path.child("cond"))?;
            Box::new(DuplicatePolluter::new(name.clone(), cond, *copies))
        }
        PolluterConfig::Freeze {
            name,
            condition,
            attributes,
            duration_ms,
        } => {
            let cond = build_condition(condition, schema, seeds, &path.child("cond"))?;
            let attr_refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
            Box::new(FreezePolluter::bind(
                name.clone(),
                cond,
                Duration::from_millis(*duration_ms),
                &attr_refs,
                schema,
            )?)
        }
        PolluterConfig::Burst {
            name,
            condition,
            attributes,
            error,
            duration_ms,
        } => {
            let cond = build_condition(condition, schema, seeds, &path.child("cond"))?;
            let error_fn = build_error_fn(error, seeds, &path.child("error"))?;
            let attr_refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
            Box::new(crate::temporal::BurstPolluter::bind(
                name.clone(),
                cond,
                Duration::from_millis(*duration_ms),
                error_fn,
                &attr_refs,
                schema,
            )?)
        }
        PolluterConfig::Propagation {
            name,
            trigger,
            consequent_filter,
            delay_ms,
            duration_ms,
            error,
            attributes,
        } => {
            let cond = build_condition(trigger, schema, seeds, &path.child("trigger"))?;
            let error_fn = build_error_fn(error, seeds, &path.child("error"))?;
            let attr_refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
            let mut polluter = crate::propagation::PropagationPolluter::bind(
                name.clone(),
                cond,
                Duration::from_millis(*delay_ms),
                Duration::from_millis(*duration_ms),
                error_fn,
                &attr_refs,
                schema,
            )?;
            if let Some(filter) = consequent_filter {
                polluter = polluter.with_consequent_filter(build_condition(
                    filter,
                    schema,
                    seeds,
                    &path.child("filter"),
                )?);
            }
            Box::new(polluter)
        }
        PolluterConfig::Keyed {
            name,
            key_attribute,
            inner,
        } => {
            // Validate the template once against the schema so
            // configuration errors surface at build time, not on the
            // first tuple of each key.
            build_polluter(inner, schema, seeds, &path.child("template"))?;
            let inner = (**inner).clone();
            let schema_for_keys = schema.clone();
            let seeds_for_keys = *seeds;
            let key_path = path.child("key");
            Box::new(crate::propagation::KeyedPolluter::bind(
                name.clone(),
                key_attribute,
                schema,
                move |key: &icewafl_types::Value| {
                    let per_key_path = key_path.child(&key.to_string());
                    build_polluter(&inner, &schema_for_keys, &seeds_for_keys, &per_key_path)
                        .expect("template validated at build time")
                },
            )?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::LogicalPlan;
    use crate::runner::pollute_stream;
    use icewafl_types::{DataType, Timestamp, Tuple};

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("BPM", DataType::Int),
            ("Distance", DataType::Float),
        ])
        .unwrap()
    }

    fn single(seed: u64, polluters: Vec<PolluterConfig>) -> LogicalPlan {
        LogicalPlan::new(seed, vec![polluters])
    }

    fn stream(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 60_000)),
                    Value::Int(70 + (i % 60)),
                    Value::Float(1.0),
                ])
            })
            .collect()
    }

    #[test]
    fn json_round_trip() {
        let cfg = single(
            42,
            vec![PolluterConfig::Standard {
                name: "null-distance".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Sinusoidal {
                    amplitude: 0.25,
                    offset: 0.25,
                },
                pattern: None,
            }],
        );
        let json = cfg.to_json();
        let back = LogicalPlan::from_json(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn parses_handwritten_json() {
        let json = r#"{
            "seed": 7,
            "pipelines": [[
                {
                    "type": "composite",
                    "name": "software-update",
                    "condition": { "type": "time_window", "from": "1970-01-01 00:30:00" },
                    "children": [
                        { "type": "standard", "name": "km-to-cm",
                          "attributes": ["Distance"],
                          "error": { "type": "unit_conversion", "factor": 100000 } },
                        { "type": "standard", "name": "bpm-zero",
                          "attributes": ["BPM"],
                          "error": { "type": "constant", "value": 0 },
                          "condition": { "type": "value", "attribute": "BPM", "op": "gt", "value": 100 } }
                    ]
                }
            ]]
        }"#;
        let cfg = LogicalPlan::from_json(json).unwrap();
        let pipelines = cfg.build_pipelines(&schema()).unwrap();
        assert_eq!(pipelines.len(), 1);
        assert_eq!(pipelines[0].len(), 1);
    }

    #[test]
    fn built_pipeline_executes() {
        let cfg = single(
            3,
            vec![PolluterConfig::Standard {
                name: "null".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Probability { p: 0.5 },
                pattern: None,
            }],
        );
        let mut pipelines = cfg.build_pipelines(&schema()).unwrap();
        let out = pollute_stream(&schema(), stream(1000), pipelines.pop().unwrap()).unwrap();
        let nulls = out
            .polluted
            .iter()
            .filter(|t| t.tuple.get(2).unwrap().is_null())
            .count();
        assert!((400..600).contains(&nulls), "nulls {nulls}");
    }

    #[test]
    fn build_is_deterministic_in_seed() {
        let cfg = single(
            99,
            vec![PolluterConfig::Standard {
                name: "null".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Probability { p: 0.3 },
                pattern: None,
            }],
        );
        let run = |cfg: &LogicalPlan| {
            let mut p = cfg.build_pipelines(&schema()).unwrap();
            pollute_stream(&schema(), stream(500), p.pop().unwrap())
                .unwrap()
                .log
                .len()
        };
        assert_eq!(run(&cfg), run(&cfg));
        let mut other = cfg.clone();
        other.seed = 100;
        // Overwhelmingly likely to differ in which tuples were hit; the
        // count may coincide, so compare polluted ids instead.
        let ids = |cfg: &LogicalPlan| {
            let mut p = cfg.build_pipelines(&schema()).unwrap();
            let out = pollute_stream(&schema(), stream(500), p.pop().unwrap()).unwrap();
            let mut v: Vec<u64> = out.log.polluted_tuple_ids().into_iter().collect();
            v.sort_unstable();
            v
        };
        assert_ne!(ids(&cfg), ids(&other));
    }

    #[test]
    fn rejects_bad_probability() {
        let cfg = single(
            1,
            vec![PolluterConfig::Standard {
                name: "x".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Probability { p: 1.5 },
                pattern: None,
            }],
        );
        assert!(cfg.build_pipelines(&schema()).is_err());
    }

    #[test]
    fn rejects_unknown_attribute() {
        let cfg = single(
            1,
            vec![PolluterConfig::Standard {
                name: "x".into(),
                attributes: vec!["Nope".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Always,
                pattern: None,
            }],
        );
        assert!(cfg.build_pipelines(&schema()).is_err());
    }

    #[test]
    fn rejects_bad_timestamp_string() {
        let cfg = single(
            1,
            vec![PolluterConfig::Delay {
                name: "x".into(),
                condition: ConditionConfig::TimeWindow {
                    from: Some("not a date".into()),
                    to: None,
                },
                delay_ms: 10,
            }],
        );
        assert!(cfg.build_pipelines(&schema()).is_err());
    }

    #[test]
    fn all_error_types_build() {
        let errors = vec![
            ErrorConfig::GaussianNoise {
                sigma: 1.0,
                relative: false,
            },
            ErrorConfig::UniformNoise { a: 0.0, b: 0.5 },
            ErrorConfig::Scale { factor: 0.125 },
            ErrorConfig::MissingValue,
            ErrorConfig::Constant {
                value: Value::Float(0.0),
            },
            ErrorConfig::Outlier { magnitude: 5.0 },
            ErrorConfig::Round { precision: 2 },
            ErrorConfig::UnitConversion { factor: 100_000.0 },
        ];
        for (i, e) in errors.into_iter().enumerate() {
            let cfg = single(
                1,
                vec![PolluterConfig::Standard {
                    name: format!("p{i}"),
                    attributes: vec!["Distance".into()],
                    error: e,
                    condition: ConditionConfig::Always,
                    pattern: None,
                }],
            );
            assert!(cfg.build_pipelines(&schema()).is_ok(), "error config {i}");
        }
    }

    #[test]
    fn all_condition_types_build() {
        let conds = vec![
            ConditionConfig::Always,
            ConditionConfig::Never,
            ConditionConfig::Probability { p: 0.5 },
            ConditionConfig::Value {
                attribute: "BPM".into(),
                op: CmpOp::Gt,
                value: Value::Int(100),
            },
            ConditionConfig::TimeWindow {
                from: Some("2016-02-27".into()),
                to: None,
            },
            ConditionConfig::HourRange { start: 13, end: 15 },
            ConditionConfig::Sinusoidal {
                amplitude: 0.25,
                offset: 0.25,
            },
            ConditionConfig::LinearRamp {
                from: "2016-02-26".into(),
                to: "2016-03-08".into(),
                p0: 0.0,
                p1: 1.0,
            },
            ConditionConfig::Pattern {
                pattern: ChangePattern::Constant,
                p_min: 0.0,
                p_max: 0.5,
            },
            ConditionConfig::And {
                children: vec![
                    ConditionConfig::Always,
                    ConditionConfig::Probability { p: 0.2 },
                ],
            },
            ConditionConfig::Or {
                children: vec![ConditionConfig::Never],
            },
            ConditionConfig::Not {
                inner: Box::new(ConditionConfig::Never),
            },
        ];
        for (i, c) in conds.into_iter().enumerate() {
            let cfg = single(
                1,
                vec![PolluterConfig::Standard {
                    name: format!("p{i}"),
                    attributes: vec!["Distance".into()],
                    error: ErrorConfig::MissingValue,
                    condition: c,
                    pattern: None,
                }],
            );
            assert!(
                cfg.build_pipelines(&schema()).is_ok(),
                "condition config {i}"
            );
        }
    }

    #[test]
    fn supervision_and_chaos_sections_parse_with_defaults() {
        let json = r#"{
            "seed": 11,
            "pipelines": [[]],
            "supervision": { "max_retries": 3, "deterministic": true, "deadline_ms": 5000 },
            "chaos": { "panic_rate": 0.01, "panic_budget": 1, "drop_rate": 0.5 }
        }"#;
        let cfg = LogicalPlan::from_json(json).unwrap();
        let policy = cfg.supervision.as_ref().unwrap().to_policy(cfg.seed);
        assert_eq!(policy.max_retries, 3);
        assert!(policy.deterministic);
        assert_eq!(policy.deadline, Some(std::time::Duration::from_secs(5)));
        assert_eq!(policy.seed, 11);
        // Omitted fields fall back to the policy defaults.
        assert_eq!(
            policy.backoff_base,
            SupervisorPolicy::default().backoff_base
        );
        let chaos = cfg.chaos.as_ref().unwrap().to_chaos(cfg.seed);
        assert!(chaos.is_valid());
        assert_eq!(chaos.seed, 11);
        assert_eq!(chaos.panic_budget, Some(1));
        assert_eq!(chaos.delay_ms, 1, "default delay");
        assert_eq!(chaos.malform_rate, 0.0);
    }

    #[test]
    fn absent_fault_sections_round_trip_and_old_configs_parse() {
        let cfg = single(1, vec![]);
        let back = LogicalPlan::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
        // Configs written before the fault sections existed still parse.
        let old = r#"{ "seed": 2, "pipelines": [[]] }"#;
        let back = LogicalPlan::from_json(old).unwrap();
        assert!(back.supervision.is_none());
        assert!(back.chaos.is_none());
    }

    #[test]
    fn propagation_config_builds_and_cascades() {
        // Trigger: Distance gets nulled at p=0.2; consequent: BPM scaled
        // to 0.5 for the following minute.
        let cfg = single(
            4,
            vec![PolluterConfig::Propagation {
                name: "cascade".into(),
                trigger: ConditionConfig::Probability { p: 0.2 },
                consequent_filter: None,
                delay_ms: 60_000,
                duration_ms: 120_000,
                error: ErrorConfig::Scale { factor: 0.5 },
                attributes: vec!["BPM".into()],
            }],
        );
        let pipeline = cfg.build_pipelines(&schema()).unwrap().pop().unwrap();
        let out = pollute_stream(&schema(), stream(500), pipeline).unwrap();
        assert!(!out.log.is_empty(), "cascades fired");
        assert!(out.log.entries().iter().all(
            |e| matches!(e, crate::log::LogEntry::ValueChanged { attr, .. } if attr == "BPM")
        ));
    }

    #[test]
    fn keyed_config_builds_with_per_key_instances() {
        let keyed_schema = Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("sensor", DataType::Str),
            ("x", DataType::Float),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..200i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 1000)),
                    Value::Str(if i % 2 == 0 { "A" } else { "B" }.into()),
                    Value::Float(i as f64),
                ])
            })
            .collect();
        let cfg = single(
            6,
            vec![PolluterConfig::Keyed {
                name: "per-sensor".into(),
                key_attribute: "sensor".into(),
                inner: Box::new(PolluterConfig::Standard {
                    name: "null-x".into(),
                    attributes: vec!["x".into()],
                    error: ErrorConfig::MissingValue,
                    condition: ConditionConfig::Probability { p: 0.3 },
                    pattern: None,
                }),
            }],
        );
        let pipeline = cfg.build_pipelines(&keyed_schema).unwrap().pop().unwrap();
        let out = pollute_stream(&keyed_schema, tuples, pipeline).unwrap();
        let polluted = out.log.polluted_tuple_ids();
        assert!(
            (30..=90).contains(&polluted.len()),
            "≈30% of 200: {}",
            polluted.len()
        );
        // Both keys were polluted (independent per-key instances).
        let parities: std::collections::HashSet<u64> = polluted.iter().map(|id| id % 2).collect();
        assert_eq!(parities.len(), 2);
    }

    #[test]
    fn keyed_config_rejects_bad_template() {
        let cfg = single(
            1,
            vec![PolluterConfig::Keyed {
                name: "x".into(),
                key_attribute: "BPM".into(),
                inner: Box::new(PolluterConfig::Standard {
                    name: "bad".into(),
                    attributes: vec!["Unknown".into()],
                    error: ErrorConfig::MissingValue,
                    condition: ConditionConfig::Always,
                    pattern: None,
                }),
            }],
        );
        assert!(
            cfg.build_pipelines(&schema()).is_err(),
            "template validated at build time"
        );
    }

    #[test]
    fn temporal_polluters_build_and_run() {
        let cfg = LogicalPlan::new(
            5,
            vec![vec![
                PolluterConfig::Delay {
                    name: "delay".into(),
                    condition: ConditionConfig::Probability { p: 0.1 },
                    delay_ms: 3_600_000,
                },
                PolluterConfig::Drop {
                    name: "drop".into(),
                    condition: ConditionConfig::Probability { p: 0.05 },
                },
                PolluterConfig::Duplicate {
                    name: "dup".into(),
                    condition: ConditionConfig::Probability { p: 0.05 },
                    copies: 1,
                },
                PolluterConfig::Freeze {
                    name: "freeze".into(),
                    condition: ConditionConfig::Probability { p: 0.01 },
                    attributes: vec!["Distance".into()],
                    duration_ms: 600_000,
                },
            ]],
        );
        let mut pipelines = cfg.build_pipelines(&schema()).unwrap();
        let out = pollute_stream(&schema(), stream(2000), pipelines.pop().unwrap()).unwrap();
        assert!(!out.log.is_empty());
        let counts = out.log.counts_by_polluter();
        assert!(counts.contains_key("delay"));
        assert!(counts.contains_key("drop"));
        assert!(counts.contains_key("dup"));
    }
}
