//! # Icewafl (Rust reproduction)
//!
//! A configurable **data stream polluter**: inject reproducible,
//! *temporal* data errors into data streams to create benchmark
//! datasets for data-quality tools and forecasting methods.
//!
//! This is a from-scratch Rust reproduction of *"Icewafl: A Configurable
//! Data Stream Polluter"* (EDBT 2025), including every substrate the
//! paper builds on:
//!
//! * [`stream`] — the stream-processing parts (the Apache Flink
//!   substitute): watermarks, the event-time sorter, chaos injection,
//!   checkpoints and the supervisor the session loop is built from;
//! * [`core`] — the pollution model itself: conditions, error
//!   functions, native temporal polluters, change patterns, composite
//!   polluters, pipelines, ground-truth logging, and the JSON job
//!   description (`LogicalPlan`);
//! * [`dq`] — an expectation-based data-quality engine (the Great
//!   Expectations substitute), including a from-scratch regex engine;
//! * [`forecast`] — online ARIMA / ARIMAX / Holt-Winters (the River
//!   substitute) with metrics and time-series cross-validation;
//! * [`data`] — synthetic stand-ins for the paper's two evaluation
//!   datasets, CSV I/O, and imputation;
//! * [`serve`] — pollution as a network service: a multi-client TCP
//!   server streaming polluted tuples per-session (`icewafl serve`);
//! * [`obs`] — metrics, sampled spans with a Chrome-trace exporter
//!   (`icewafl pollute --trace-out`), and the live telemetry sampler
//!   behind serve's `telemetry` sessions and `icewafl top`;
//! * [`types`] — the shared data model (values, schemas, tuples, civil
//!   time).
//!
//! `ARCHITECTURE.md` in the repository root maps how these crates fit
//! together and walks a tuple end to end.
//!
//! ## Quick start
//!
//! ```
//! use icewafl::prelude::*;
//!
//! // A stream of hourly sensor readings.
//! let schema = Schema::from_pairs([
//!     ("Time", DataType::Timestamp),
//!     ("Temp", DataType::Float),
//! ]).unwrap();
//! let tuples: Vec<Tuple> = (0..100).map(|h| Tuple::new(vec![
//!     Value::Timestamp(Timestamp(h * 3_600_000)),
//!     Value::Float(20.0 + (h % 24) as f64),
//! ])).collect();
//!
//! // Describe the job: one pipeline, one polluter, 20% missing values.
//! let plan = LogicalPlan::new(42, vec![vec![PolluterConfig::Standard {
//!     name: "dropouts".into(),
//!     attributes: vec!["Temp".into()],
//!     error: ErrorConfig::MissingValue,
//!     condition: ConditionConfig::Probability { p: 0.2 },
//!     pattern: None,
//! }]]);
//!
//! // Run Algorithm 1 and check the ground truth.
//! let out = plan.compile(&schema).unwrap().execute(tuples).unwrap();
//! assert_eq!(out.clean.len(), out.polluted.len());
//!
//! // Detect the injected errors with the DQ engine.
//! let suite = ExpectationSuite::new("qc")
//!     .with(ExpectColumnValuesToNotBeNull::new("Temp"));
//! let report = suite.validate(&schema, &out.polluted).unwrap();
//! assert_eq!(report.total_unexpected(), out.log.len());
//! ```

#![warn(missing_docs)]

pub use icewafl_core as core;
pub use icewafl_data as data;
pub use icewafl_dq as dq;
pub use icewafl_forecast as forecast;
pub use icewafl_obs as obs;
pub use icewafl_serve as serve;
pub use icewafl_stream as stream;
pub use icewafl_types as types;

/// One import for the whole toolkit.
pub mod prelude {
    pub use icewafl_core::prelude::*;
    pub use icewafl_dq::prelude::*;
    pub use icewafl_forecast::prelude::*;
    pub use icewafl_types::{
        DataType, Duration, Field, Schema, StampedTuple, Timestamp, Tuple, Value,
    };
}
