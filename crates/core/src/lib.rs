//! # icewafl-core
//!
//! The pollution model of **Icewafl** ("Inserting Customizable Errors
//! with Apache Flink", EDBT 2025), reimplemented from scratch in Rust on
//! top of the [`icewafl-stream`](icewafl_stream) framework.
//!
//! A *polluter* is a triple `⟨e, c, A_p⟩` of an [error
//! function](error_fn::ErrorFunction), a [condition](condition::Condition)
//! and a target attribute set; the event time `τ` is an additional input
//! to both, which is what enables *temporal* error types:
//!
//! * **static** errors (Gaussian noise, scaling, missing values,
//!   incorrect categories, …) — [`error_fn`];
//! * **native temporal** errors (delayed / dropped / duplicated tuples,
//!   frozen values) — [`temporal`];
//! * **derived temporal** errors = static error × [change
//!   pattern](pattern::ChangePattern) (abrupt, incremental, gradual,
//!   periodic) or × time-varying [condition] (sinusoidal
//!   daily cycles, linear ramps).
//!
//! Polluters compose into [pipelines](pipeline::PollutionPipeline),
//! optionally structured by [composite](pipeline::CompositePolluter) and
//! [one-of](pipeline::OneOfPolluter) polluters. A job is described by a
//! [`LogicalPlan`] — the same document the CLI and the server read — and
//! runs end-to-end once compiled (Algorithm 1 of the paper: prepare →
//! split into `m` overlapping sub-streams → pollute → merge → sort); a
//! pipeline built by hand from the trait-level API runs through
//! [`runner::pollute_stream`]. Every applied error is recorded in a
//! ground-truth [log](log::PollutionLog).
//!
//! ## Quick start
//!
//! ```
//! use icewafl_core::prelude::*;
//! use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
//!
//! let schema = Schema::from_pairs([
//!     ("Time", DataType::Timestamp),
//!     ("Temp", DataType::Float),
//! ]).unwrap();
//!
//! // A one-pipeline plan: null `Temp` with the paper's daily
//! // sinusoidal probability.
//! let plan = LogicalPlan::new(42, vec![vec![PolluterConfig::Standard {
//!     name: "null-temp".into(),
//!     attributes: vec!["Temp".into()],
//!     error: ErrorConfig::MissingValue,
//!     condition: ConditionConfig::Sinusoidal { amplitude: 0.25, offset: 0.25 },
//!     pattern: None,
//! }]]);
//!
//! let tuples: Vec<Tuple> = (0..48).map(|h| Tuple::new(vec![
//!     Value::Timestamp(Timestamp(h * 3_600_000)),
//!     Value::Float(20.0),
//! ])).collect();
//!
//! let out = plan.compile(&schema).unwrap().execute(tuples).unwrap();
//! assert_eq!(out.polluted.len(), 48);
//! assert_eq!(out.log.polluted_tuple_ids().len(),
//!            out.polluted.iter().filter(|t| t.tuple.get(1).unwrap().is_null()).count());
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod columnar;
pub mod condition;
pub mod config;
pub mod error_fn;
pub mod log;
pub mod pattern;
pub mod pipeline;
pub mod plan;
pub mod polluter;
pub mod prepare;
pub mod propagation;
pub mod report;
pub mod rng;
pub mod runner;
pub mod session;
pub(crate) mod snapshot;
pub mod stats;
pub mod temporal;

pub use catalog::PlanCatalog;
pub use columnar::{lower_pipeline, lowering_blocker, pipeline_lowerable, ColumnPipeline};
pub use condition::Condition;
pub use config::{
    ChaosSectionConfig, CheckpointSectionConfig, ConditionConfig, ErrorConfig, PolluterConfig,
    SupervisionConfig,
};
pub use error_fn::ErrorFunction;
pub use log::{LogEntry, PollutionLog};
pub use pattern::ChangePattern;
pub use pipeline::{CompositePolluter, OneOfPolluter, PollutionPipeline};
pub use plan::{
    AssignerSpec, ControlHandle, LogicalPlan, PhysicalPlan, PlanDelta, ReprHint, StageInfo,
    StrategyHint, SubstreamRepr, DEFAULT_BATCH_SIZE,
};
pub use polluter::{BoxPolluter, Emission, Polluter, StandardPolluter};
pub use report::RunReport;
pub use runner::{pollute_stream, PollutionOutput};
pub use session::{ReleasedRow, StreamingSession};
pub use stats::{CountingRng, PolluterStatsSnapshot};

/// Everything needed for typical pollution jobs.
pub mod prelude {
    pub use crate::condition::{
        Always, AndCondition, CmpOp, Condition, HourRange, LinearRampProbability, Never,
        NotCondition, OrCondition, PatternProbability, Probability, SinusoidalProbability,
        TimeWindow, ValueCondition,
    };
    pub use crate::config::{
        ChaosSectionConfig, CheckpointSectionConfig, ConditionConfig, ErrorConfig, PolluterConfig,
        SupervisionConfig,
    };
    pub use crate::error_fn::{
        Constant, ErrorFunction, GaussianNoise, IncorrectCategory, MissingValue, Outlier, Rounding,
        ScaleByFactor, StringTypo, SwapAttributes, TimestampShift, TypoKind,
        UniformMultiplicativeNoise, UnitConversion,
    };
    pub use crate::log::{LogEntry, PollutionLog};
    pub use crate::pattern::ChangePattern;
    pub use crate::pipeline::{CompositePolluter, OneOfPolluter, PollutionPipeline};
    pub use crate::plan::{
        AssignerSpec, ControlHandle, LogicalPlan, PhysicalPlan, PlanDelta, ReprHint, StrategyHint,
        SubstreamRepr, DEFAULT_BATCH_SIZE,
    };
    pub use crate::polluter::{BoxPolluter, Emission, Polluter, StandardPolluter};
    pub use crate::propagation::{KeyedPolluter, PropagationPolluter};
    pub use crate::report::RunReport;
    pub use crate::rng::{ComponentPath, SeedFactory};
    pub use crate::runner::{pollute_stream, PollutionOutput};
    pub use crate::stats::PolluterStatsSnapshot;
    pub use crate::temporal::{
        BurstPolluter, DelayPolluter, DropPolluter, DuplicatePolluter, FreezePolluter,
    };
}

#[cfg(test)]
mod proptests {
    use super::prelude::*;
    use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    fn stream(n: usize) -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 1000)),
                    Value::Float(i as f64),
                ])
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A polluter with a `never` condition is the identity on the
        /// stream.
        #[test]
        fn never_condition_is_identity(n in 0usize..200) {
            let plan = LogicalPlan::new(1, vec![vec![PolluterConfig::Standard {
                name: "noop".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Never,
                pattern: None,
            }]]);
            let out = plan.compile(&schema()).unwrap().execute(stream(n)).unwrap();
            prop_assert_eq!(out.clean, out.polluted);
            prop_assert!(out.log.is_empty());
        }

        /// Value-only polluters never change tuple count, ids, taus, or
        /// order.
        #[test]
        fn value_polluters_preserve_stream_shape(n in 1usize..300, p in 0.0f64..1.0, seed in 0u64..1000) {
            let plan = LogicalPlan::new(seed, vec![vec![PolluterConfig::Standard {
                name: "null".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Probability { p },
                pattern: None,
            }]]);
            let out = plan.compile(&schema()).unwrap().execute(stream(n)).unwrap();
            prop_assert_eq!(out.polluted.len(), n);
            let ids: Vec<u64> = out.polluted.iter().map(|t| t.id).collect();
            prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
            for (c, d) in out.clean.iter().zip(&out.polluted) {
                prop_assert_eq!(c.tau, d.tau);
            }
        }

        /// The pollution log agrees exactly with a clean/dirty diff for
        /// value polluters.
        #[test]
        fn log_matches_diff(n in 1usize..300, p in 0.0f64..1.0, seed in 0u64..1000) {
            let plan = LogicalPlan::new(seed, vec![vec![PolluterConfig::Standard {
                name: "scale".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::Scale { factor: 2.0 },
                condition: ConditionConfig::Probability { p },
                pattern: None,
            }]]);
            let out = plan.compile(&schema()).unwrap().execute(stream(n)).unwrap();
            let diff_ids: std::collections::HashSet<u64> = out
                .clean
                .iter()
                .zip(&out.polluted)
                .filter(|(c, d)| c.tuple != d.tuple)
                .map(|(c, _)| c.id)
                .collect();
            prop_assert_eq!(diff_ids, out.log.polluted_tuple_ids());
        }

        /// Drop + duplicate conserve tuples: |out| = n − dropped +
        /// extra_copies.
        #[test]
        fn drop_duplicate_counting(n in 1usize..300, seed in 0u64..500) {
            let plan = LogicalPlan::new(seed, vec![vec![
                PolluterConfig::Drop {
                    name: "drop".into(),
                    condition: ConditionConfig::Probability { p: 0.1 },
                },
                PolluterConfig::Duplicate {
                    name: "dup".into(),
                    condition: ConditionConfig::Probability { p: 0.1 },
                    copies: 2,
                },
            ]]);
            let out = plan.compile(&schema()).unwrap().execute(stream(n)).unwrap();
            let dropped = out.log.counts_by_polluter().get("drop").copied().unwrap_or(0);
            let duplicated = out.log.counts_by_polluter().get("dup").copied().unwrap_or(0);
            prop_assert_eq!(out.polluted.len(), n - dropped + 2 * duplicated);
        }

        /// Delays never lose tuples and the output stays sorted by
        /// arrival.
        #[test]
        fn delay_conserves_and_sorts(n in 1usize..300, p in 0.0f64..1.0, seed in 0u64..500) {
            let plan = LogicalPlan::new(seed, vec![vec![PolluterConfig::Delay {
                name: "delay".into(),
                condition: ConditionConfig::Probability { p },
                delay_ms: 10_000,
            }]]);
            let out = plan.compile(&schema()).unwrap().execute(stream(n)).unwrap();
            prop_assert_eq!(out.polluted.len(), n);
            prop_assert!(out.polluted.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        }
    }
}
