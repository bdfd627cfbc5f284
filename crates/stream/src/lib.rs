//! # icewafl-stream
//!
//! A miniature stream-processing framework — the Apache Flink substitute
//! of the Icewafl reproduction.
//!
//! The original Icewafl is a library of Flink operators; everything it
//! needs from Flink is provided here, from scratch:
//!
//! * typed, stateful [`Operator`]s with event-time
//!   [watermark](watermark::WatermarkStrategy) callbacks;
//! * a fluent, lazily composed [`DataStream`] pipeline API with
//!   `map`/`filter`/sort combinators and tumbling
//!   [windows](window::TumblingWindow);
//! * stream **union** with per-input watermark merging and **fan-out**
//!   into (overlapping) sub-pipelines
//!   ([`DataStream::split_merge`]) — the substrate for Icewafl's
//!   integration scenarios (paper §2.2.2, Algorithm 1);
//! * a deterministic executor that runs every stage on the calling
//!   thread, pulled from a [`Source`] or pushed by the caller
//!   ([`DataStream::push_source`]);
//! * **fault tolerance**: operator panics are caught and propagated as
//!   typed poison elements ([`fault`]), runs can be retried under a
//!   [`Supervisor`] policy, and the
//!   [`chaos`] harness injects faults to prove it all works.
//!
//! ```
//! use icewafl_stream::prelude::*;
//! use icewafl_types::Timestamp;
//!
//! let out = DataStream::from_vec(vec![3i64, 1, 2])
//!     .map(|x| x * 10)
//!     .sort_by_event_time(|x| Timestamp(*x))
//!     .collect()
//!     .unwrap();
//! assert_eq!(out, vec![10, 20, 30]);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod control;
pub mod element;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod operator;
pub mod sink;
pub mod sort;
pub mod source;
pub mod stage;
pub mod stream;
pub mod supervisor;
pub mod watermark;
pub mod window;

pub use chaos::{ChaosConfig, ChaosOperator, CHAOS_PANIC_MARKER};
pub use checkpoint::{
    CheckpointBarrier, CheckpointCoordinator, CheckpointFrame, CheckpointStore, StateSnapshot,
    WatermarkGenState,
};
pub use control::{ControlChannel, ControlSubscriber};
pub use element::StreamElement;
pub use fault::{FailureCell, FailureKind, PipelineError, StageError};
pub use metrics::{ChaosMetrics, SorterMetrics, StageMetrics};
pub use net::{FrameReader, FrameWriter, NetError, NetPoll, WireFormat, WireFrame};
pub use operator::{Collector, Operator};
pub use sink::{CountSink, SharedVecSink, Sink};
pub use sort::{EventTimeSorter, SortKey, SorterStateCodec};
pub use source::{Source, VecSource};
pub use stream::{DataStream, PushPipeline, PushSource, SourceCheckpoint, SubPipelineBuilder};
pub use supervisor::{Supervisor, SupervisorPolicy};
pub use watermark::{WatermarkGenerator, WatermarkStrategy};
pub use window::{TumblingWindow, WindowPane};

/// Everything needed to build and run pipelines.
pub mod prelude {
    pub use crate::chaos::{ChaosConfig, ChaosOperator};
    pub use crate::control::{ControlChannel, ControlSubscriber};
    pub use crate::element::StreamElement;
    pub use crate::fault::{FailureKind, PipelineError, StageError};
    pub use crate::operator::{Collector, Operator};
    pub use crate::sink::{CountSink, SharedVecSink, Sink};
    pub use crate::source::{Source, VecSource};
    pub use crate::stream::{DataStream, SubPipelineBuilder};
    pub use crate::supervisor::{Supervisor, SupervisorPolicy};
    pub use crate::watermark::WatermarkStrategy;
}
