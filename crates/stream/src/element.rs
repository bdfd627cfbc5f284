//! The unit of flow inside a stream pipeline.

use crate::fault::StageError;
use icewafl_types::Timestamp;

/// What travels along a stream edge: data records interleaved with
/// event-time watermarks, terminated by an end-of-stream marker — or,
/// abnormally, by a poison [`StreamElement::Failure`].
///
/// This mirrors Flink's internal `StreamElement`. A watermark `W(t)` is a
/// promise that no later record will carry an event time `≤ t`; stateful
/// operators (sorters, delay buffers) use it to decide when buffered
/// records are safe to release.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamElement<T> {
    /// A data record.
    Record(T),
    /// An event-time watermark.
    Watermark(Timestamp),
    /// End of stream. Always the last element on an edge.
    End,
    /// Poison marker: an upstream stage failed. Terminates the edge like
    /// [`StreamElement::End`], but carries the typed failure so the
    /// executor can surface *which* stage died and why (see
    /// [`fault`](crate::fault) for the protocol).
    Failure(StageError),
}

impl<T> StreamElement<T> {
    /// `true` iff this is the end-of-stream marker.
    pub fn is_end(&self) -> bool {
        matches!(self, StreamElement::End)
    }

    /// `true` iff this element terminates the edge — the end marker or a
    /// poison failure.
    pub fn is_terminal(&self) -> bool {
        matches!(self, StreamElement::End | StreamElement::Failure(_))
    }

    /// Borrows the record payload, if this is a record.
    pub fn record(&self) -> Option<&T> {
        match self {
            StreamElement::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the element, yielding the record payload if present.
    pub fn into_record(self) -> Option<T> {
        match self {
            StreamElement::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Maps the record payload, leaving watermarks, end markers, and
    /// failures alone.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> StreamElement<U> {
        match self {
            StreamElement::Record(r) => StreamElement::Record(f(r)),
            StreamElement::Watermark(w) => StreamElement::Watermark(w),
            StreamElement::End => StreamElement::End,
            StreamElement::Failure(e) => StreamElement::Failure(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accessors() {
        let e = StreamElement::Record(5);
        assert_eq!(e.record(), Some(&5));
        assert!(!e.is_end());
        assert_eq!(e.into_record(), Some(5));
    }

    #[test]
    fn non_records() {
        let w: StreamElement<i32> = StreamElement::Watermark(Timestamp(3));
        assert_eq!(w.record(), None);
        assert_eq!(w.clone().into_record(), None);
        assert!(StreamElement::<i32>::End.is_end());
    }

    #[test]
    fn failure_is_terminal_but_not_end() {
        use crate::fault::{FailureKind, StageError};
        let f: StreamElement<i32> =
            StreamElement::Failure(StageError::new("s", FailureKind::Panic, "boom"));
        assert!(f.is_terminal());
        assert!(!f.is_end());
        assert_eq!(f.record(), None);
        assert!(StreamElement::<i32>::End.is_terminal());
        assert!(!StreamElement::Record(1).is_terminal());
    }

    #[test]
    fn map_preserves_kind() {
        assert_eq!(
            StreamElement::Record(2).map(|x| x * 10),
            StreamElement::Record(20)
        );
        assert_eq!(
            StreamElement::<i32>::Watermark(Timestamp(1)).map(|x| x * 10),
            StreamElement::Watermark(Timestamp(1))
        );
        assert_eq!(
            StreamElement::<i32>::End.map(|x| x * 10),
            StreamElement::End
        );
    }
}
