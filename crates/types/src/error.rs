//! Error types shared across the Icewafl workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The unified error type of the Icewafl data model.
///
/// Substrate crates (`icewafl-stream`, `icewafl-core`, …) either reuse this
/// type directly or wrap it in their own error enums.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An attribute name was not found in a [`Schema`](crate::Schema).
    UnknownAttribute(String),
    /// A tuple did not conform to the schema it was validated against.
    SchemaMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A value had an unexpected runtime type for the attempted operation.
    TypeMismatch {
        /// What the operation expected, e.g. `"Float"`.
        expected: &'static str,
        /// What was actually found, e.g. `"Str"`.
        found: &'static str,
    },
    /// A string could not be parsed into the requested type.
    Parse {
        /// The input that failed to parse (possibly truncated).
        input: String,
        /// What the input was being parsed as.
        target: &'static str,
    },
    /// An invalid configuration was supplied (bad probability, empty
    /// pipeline, unknown error-type name, …).
    Config(String),
    /// An I/O error, carried as a string because `std::io::Error` is not
    /// `Clone`/`PartialEq`.
    Io(String),
    /// A pollution plan could not be compiled or reconfigured (unknown
    /// polluter name in a delta, sub-stream count mismatch, a JSON key
    /// that is not a plan field, …).
    Plan {
        /// Human-readable description of the plan problem.
        detail: String,
    },
    /// A stream pipeline terminated abnormally (operator panic, injected
    /// chaos fault, deadline, dead worker). Carries the failing stage
    /// label and the rendered panic payload / diagnostic so callers can
    /// report *where* a run died without a raw backtrace.
    Pipeline {
        /// Label of the failing stage, e.g. `stage/02_pollution_pipeline`.
        stage: String,
        /// Stable failure-kind string (`panic`, `injected`, `deadline`,
        /// `disconnect`, `fatal`) — stringly typed here so `icewafl-types`
        /// stays independent of the stream runtime.
        kind: String,
        /// Human-readable detail (the panic message for panics).
        message: String,
    },
}

impl Error {
    /// Builds a [`Error::Parse`] from any displayable input.
    pub fn parse(input: impl fmt::Display, target: &'static str) -> Self {
        let mut s = input.to_string();
        if s.len() > 64 {
            s.truncate(64);
            s.push('…');
        }
        Error::Parse { input: s, target }
    }

    /// Builds a [`Error::Config`] from any displayable message.
    pub fn config(msg: impl fmt::Display) -> Self {
        Error::Config(msg.to_string())
    }

    /// Builds a [`Error::Plan`] from any displayable message.
    pub fn plan(msg: impl fmt::Display) -> Self {
        Error::Plan {
            detail: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            Error::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Error::Parse { input, target } => {
                write!(f, "cannot parse `{input}` as {target}")
            }
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Plan { detail } => write!(f, "invalid plan: {detail}"),
            Error::Io(msg) => write!(f, "I/O error: {msg}"),
            Error::Pipeline {
                stage,
                kind,
                message,
            } => write!(f, "pipeline failed at stage `{stage}` ({kind}): {message}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_attribute() {
        let e = Error::UnknownAttribute("BPM".into());
        assert_eq!(e.to_string(), "unknown attribute `BPM`");
    }

    #[test]
    fn display_type_mismatch() {
        let e = Error::TypeMismatch {
            expected: "Float",
            found: "Str",
        };
        assert_eq!(e.to_string(), "type mismatch: expected Float, found Str");
    }

    #[test]
    fn parse_truncates_long_input() {
        let long = "x".repeat(200);
        let e = Error::parse(&long, "Int");
        match &e {
            Error::Parse { input, .. } => {
                assert!(input.len() < 80, "input should be truncated");
                assert!(input.ends_with('…'));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn display_pipeline_failure() {
        let e = Error::Pipeline {
            stage: "stage/01_map".into(),
            kind: "panic".into(),
            message: "boom".into(),
        };
        assert_eq!(
            e.to_string(),
            "pipeline failed at stage `stage/01_map` (panic): boom"
        );
    }

    #[test]
    fn display_plan_failure() {
        let e = Error::plan("delta names unknown polluter `ghost`");
        assert_eq!(
            e.to_string(),
            "invalid plan: delta names unknown polluter `ghost`"
        );
    }

    #[test]
    fn config_builder() {
        let e = Error::config(format_args!("bad probability {}", 1.5));
        assert_eq!(e.to_string(), "invalid configuration: bad probability 1.5");
    }
}
