//! Failure types: which stage failed, and why.
//!
//! Icewafl injects faults into *data*; this module types faults in the
//! *runtime itself*. The session loop in `icewafl-core` runs every step
//! under [`std::panic::catch_unwind`] and turns a caught panic into a
//! [`StageError`] carrying the failing stage's label. The first one
//! fails the session, which reports it as an
//! `icewafl_types::Error::Pipeline`, so a run ends loudly on a failure
//! instead of returning output silently cut short.

use std::fmt;

/// Why a stage failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A step of the session loop panicked.
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
    /// Label of the failing stage, e.g. `stage/02_pollution_pipeline`.
    pub(crate) stage: String,
    /// Failure class.
    pub(crate) kind: FailureKind,
    /// Human-readable detail — the panic message for panics.
    pub(crate) message: String,
}

impl StageError {
    /// A failure of `stage` with an explicit kind and message.
    pub(crate) fn new(
        stage: impl Into<String>,
        kind: FailureKind,
        message: impl Into<String>,
    ) -> Self {
        StageError {
            stage: stage.into(),
            kind,
            message: message.into(),
        }
    }

    /// Converts a caught panic payload into a `StageError`, extracting
    /// the `&str` / `String` message when present.
    pub fn from_panic(stage: &str, payload: Box<dyn std::any::Any + Send>) -> Self {
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

impl From<StageError> for icewafl_types::Error {
    fn from(e: StageError) -> Self {
        icewafl_types::Error::Pipeline {
            stage: e.stage,
            kind: e.kind.as_str().to_string(),
            message: e.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let e = StageError::new("stage/02_pollution_pipeline", FailureKind::Panic, "boom");
        assert_eq!(
            e.to_string(),
            "stage `stage/02_pollution_pipeline` failed (panic): boom"
        );
    }

    #[test]
    fn converts_into_types_error() {
        let e: icewafl_types::Error = StageError::new("s", FailureKind::Deadline, "late").into();
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
