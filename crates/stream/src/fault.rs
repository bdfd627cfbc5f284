//! Fault types and the poison-propagation protocol.
//!
//! Icewafl injects faults into *data*; this module is about faults in
//! the *runtime itself*: a panicking operator must neither unwind the
//! driver past stages that never see a terminal marker nor truncate
//! output with no error surfaced. The protocol implemented across
//! [`stage`](crate::stage) and [`stream`](crate::stream) is:
//!
//! 1. every operator callback, source pull and driver runs under
//!    [`std::panic::catch_unwind`];
//! 2. a caught panic becomes a typed [`StageError`] wrapped in the
//!    poison element [`StreamElement::Failure`](crate::element::StreamElement),
//!    which travels *downstream* exactly like the end marker: stages
//!    stop processing, forward it, and drain;
//! 3. the terminal sink stage records the first failure into the run's
//!    shared [`FailureCell`]; the executor turns it into a
//!    [`PipelineError`] returned from
//!    [`DataStream::execute_into`](crate::stream::DataStream::execute_into).
//!
//! The pipeline therefore always terminates — cleanly on success,
//! loudly on failure. (The session loop in `icewafl-core` types its
//! failures with the same [`StageError`] and reports the first one, with
//! no element to carry it.)

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Why a stage failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// An operator, source, or driver panicked.
    Panic,
    /// A fault deliberately injected by the [`chaos`](crate::chaos)
    /// harness.
    Injected,
    /// The run exceeded its wall-clock deadline.
    Deadline,
    /// The stream's feeder (a network peer) disappeared before the
    /// stream ended.
    Disconnect,
    /// A non-retryable error (bad configuration, exhausted retries).
    Fatal,
}

impl FailureKind {
    /// Stable string form (used when the kind crosses crate boundaries
    /// as part of `icewafl_types::Error::Pipeline`).
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Injected => "injected",
            FailureKind::Deadline => "deadline",
            FailureKind::Disconnect => "disconnect",
            FailureKind::Fatal => "fatal",
        }
    }

    /// Parses the stable string form; unknown strings map to
    /// [`FailureKind::Fatal`] (never silently retried).
    pub fn parse(s: &str) -> Self {
        match s {
            "panic" => FailureKind::Panic,
            "injected" => FailureKind::Injected,
            "deadline" => FailureKind::Deadline,
            "disconnect" => FailureKind::Disconnect,
            _ => FailureKind::Fatal,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed stage failure: which stage failed, why, and the rendered
/// panic payload (or diagnostic message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageError {
    /// Label of the failing stage, e.g. `stage/02_map`.
    pub stage: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable detail — the panic message for panics.
    pub message: String,
}

impl StageError {
    /// A failure of `stage` with an explicit kind and message.
    pub fn new(stage: impl Into<String>, kind: FailureKind, message: impl Into<String>) -> Self {
        StageError {
            stage: stage.into(),
            kind,
            message: message.into(),
        }
    }

    /// Converts a caught panic payload into a `StageError`, extracting
    /// the `&str` / `String` message when present.
    ///
    /// A payload that *is* a `StageError` (thrown via
    /// [`std::panic::panic_any`]) passes its kind and message through
    /// verbatim — this is how sources and sinks raise *typed* failures
    /// (e.g. a network disconnect) instead of a generic panic; only the
    /// stage label is replaced with the label the runtime assigned.
    pub fn from_panic(stage: &str, payload: Box<dyn std::any::Any + Send>) -> Self {
        if let Some(typed) = payload.downcast_ref::<StageError>() {
            return StageError::new(stage, typed.kind, typed.message.clone());
        }
        let message = panic_message(&payload);
        // Faults injected by the chaos harness mark their payload so
        // the supervisor can distinguish deliberate faults from real
        // bugs in retry statistics.
        let kind = if message.contains(crate::chaos::CHAOS_PANIC_MARKER) {
            FailureKind::Injected
        } else {
            FailureKind::Panic
        };
        StageError::new(stage, kind, message)
    }

    /// A wall-clock deadline failure attributed to `stage`.
    pub fn deadline(stage: &str) -> Self {
        StageError::new(stage, FailureKind::Deadline, "run deadline exceeded")
    }
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage `{}` failed ({}): {}",
            self.stage, self.kind, self.message
        )
    }
}

impl std::error::Error for StageError {}

/// Renders a panic payload the way the default hook would.
pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The error returned by pipeline executors: the first [`StageError`]
/// observed during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// The failure that terminated the pipeline.
    pub error: StageError,
}

impl PipelineError {
    /// Label of the failing stage.
    pub fn stage(&self) -> &str {
        &self.error.stage
    }

    /// Failure class.
    pub fn kind(&self) -> FailureKind {
        self.error.kind
    }

    /// Human-readable detail.
    pub fn message(&self) -> &str {
        &self.error.message
    }
}

impl From<StageError> for PipelineError {
    fn from(error: StageError) -> Self {
        PipelineError { error }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline failed: {}", self.error)
    }
}

impl std::error::Error for PipelineError {}

impl From<PipelineError> for icewafl_types::Error {
    fn from(e: PipelineError) -> Self {
        icewafl_types::Error::Pipeline {
            stage: e.error.stage,
            kind: e.error.kind.as_str().to_string(),
            message: e.error.message,
        }
    }
}

/// First-failure-wins cell shared between every fault-catching point of
/// one pipeline execution and the executor that reports the result.
///
/// Cloning shares the cell. Recording is cheap (one short mutex hold)
/// and only ever happens on the failure path.
#[derive(Clone, Default)]
pub struct FailureCell {
    slot: Arc<Mutex<Option<StageError>>>,
}

impl FailureCell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `error` unless a failure was already recorded (the first
    /// failure is the root cause; later ones are usually fallout).
    pub fn record(&self, error: StageError) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    /// A copy of the recorded failure, if any.
    pub fn get(&self) -> Option<StageError> {
        self.slot.lock().clone()
    }

    /// Removes and returns the recorded failure, if any.
    pub fn take(&self) -> Option<StageError> {
        self.slot.lock().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_cell_first_wins() {
        let cell = FailureCell::new();
        assert!(cell.get().is_none());
        cell.record(StageError::new("a", FailureKind::Panic, "first"));
        cell.record(StageError::new("b", FailureKind::Panic, "second"));
        let e = cell.get().unwrap();
        assert_eq!(e.stage, "a");
        assert_eq!(e.message, "first");
        assert!(cell.take().is_some());
        assert!(cell.take().is_none());
    }

    #[test]
    fn from_panic_extracts_str_and_string() {
        let e = StageError::from_panic("s", Box::new("boom"));
        assert_eq!(e.message, "boom");
        assert_eq!(e.kind, FailureKind::Panic);
        let e = StageError::from_panic("s", Box::new("heap".to_string()));
        assert_eq!(e.message, "heap");
        let e = StageError::from_panic("s", Box::new(42u32));
        assert_eq!(e.message, "non-string panic payload");
    }

    #[test]
    fn chaos_marker_is_classified_injected() {
        let e = StageError::from_panic(
            "s",
            Box::new(format!("{} at element 3", crate::chaos::CHAOS_PANIC_MARKER)),
        );
        assert_eq!(e.kind, FailureKind::Injected);
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in [
            FailureKind::Panic,
            FailureKind::Injected,
            FailureKind::Deadline,
            FailureKind::Disconnect,
            FailureKind::Fatal,
        ] {
            assert_eq!(FailureKind::parse(kind.as_str()), kind);
        }
        assert_eq!(FailureKind::parse("???"), FailureKind::Fatal);
    }

    #[test]
    fn display_formats() {
        let e = StageError::new("stage/01_map", FailureKind::Panic, "boom");
        let p: PipelineError = e.into();
        assert_eq!(p.stage(), "stage/01_map");
        assert!(p
            .to_string()
            .contains("stage `stage/01_map` failed (panic): boom"));
    }

    #[test]
    fn converts_into_types_error() {
        let p: PipelineError = StageError::new("s", FailureKind::Deadline, "late").into();
        let e: icewafl_types::Error = p.into();
        match e {
            icewafl_types::Error::Pipeline {
                stage,
                kind,
                message,
            } => {
                assert_eq!(stage, "s");
                assert_eq!(kind, "deadline");
                assert_eq!(message, "late");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
