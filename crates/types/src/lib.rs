//! # icewafl-types
//!
//! Shared data model of the Icewafl workspace: dynamic [`Value`]s, typed
//! [`Schema`]s, [`Tuple`]s and their pollution-process enrichment
//! ([`StampedTuple`]), plus a from-scratch civil-time implementation
//! ([`Timestamp`], [`Duration`], [`DateTime`]).
//!
//! Everything in this crate corresponds to §2.1 of the Icewafl paper
//! ("Data Stream Handling"): a multivariate data stream is a sequence of
//! tuples over a schema of `k` attributes, with a designated timestamp
//! attribute, and each tuple is enriched with a unique identifier and a
//! replicated event time `τ` before pollution starts.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod column;
pub mod error;
pub mod schema;
pub mod text;
pub mod time;
pub mod tuple;
pub mod value;

pub use column::{Column, ColumnBatch, ColumnData};
pub use error::{Error, Result};
pub use schema::{DataType, Field, Schema};
pub use text::Text;
pub use time::{parse_timestamp, DateTime, Duration, Timestamp};
pub use tuple::{StampedTuple, Tuple};
pub use value::Value;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Civil-time round trip over a ±200-year window around the epoch.
        #[test]
        fn timestamp_datetime_round_trip(ms in -6_311_520_000_000i64..6_311_520_000_000i64) {
            let t = Timestamp(ms);
            let dt = t.to_datetime();
            prop_assert!(dt.month >= 1 && dt.month <= 12);
            prop_assert!(dt.day >= 1 && dt.day <= time::days_in_month(dt.year, dt.month));
            prop_assert_eq!(dt.to_timestamp().unwrap(), t);
        }

        /// Parsing the display form of a timestamp recovers it exactly
        /// (sub-second part included).
        #[test]
        fn display_parse_round_trip(ms in 0i64..4_102_444_800_000i64) {
            let t = Timestamp(ms);
            prop_assert_eq!(parse_timestamp(&t.to_string()).unwrap(), t);
        }

        /// Date ordering agrees with timestamp ordering.
        #[test]
        fn ordering_is_consistent(a in -1_000_000_000_000i64..1_000_000_000_000i64,
                                  b in -1_000_000_000_000i64..1_000_000_000_000i64) {
            let (ta, tb) = (Timestamp(a), Timestamp(b));
            prop_assert_eq!(ta.cmp(&tb), ta.to_datetime().cmp(&tb.to_datetime()));
        }

        /// hours_since is the exact inverse of adding hours.
        #[test]
        fn hours_since_inverse(base in -1_000_000_000_000i64..1_000_000_000_000i64,
                               h in -10_000i64..10_000i64) {
            let t = Timestamp(base);
            let u = t + Duration::from_hours(h);
            prop_assert!((u.hours_since(t) - h as f64).abs() < 1e-9);
        }

        /// Value::compare is antisymmetric on numeric values.
        #[test]
        fn compare_antisymmetric(a in proptest::num::f64::NORMAL, b in proptest::num::f64::NORMAL) {
            let (va, vb) = (Value::Float(a), Value::Float(b));
            let fwd = va.compare(&vb);
            let rev = vb.compare(&va);
            prop_assert_eq!(fwd.map(|o| o.reverse()), rev);
        }

        /// with_numeric on an Int never changes the value family.
        #[test]
        fn with_numeric_keeps_family(x in proptest::num::f64::ANY) {
            let v = Value::Int(0).with_numeric(x).unwrap();
            prop_assert!(matches!(v, Value::Int(_)));
        }
    }
}
