//! # icewafl-data
//!
//! Dataset substrate of the Icewafl reproduction: synthetic stand-ins
//! for the paper's two evaluation datasets, plus CSV I/O and
//! missing-value imputation.
//!
//! * [`wearable`] — the PLOS-Biology wearable-device stream (experiment
//!   1): 1059 tuples at 15-minute cadence over 264.75 h, calibrated so
//!   every count the paper reports (1056 post-update tuples, 88 tuples
//!   in the bad-network window, ≈ 33 high-BPM tuples, ≈ 374 moving
//!   tuples, ≈ 960 high-precision calories values, 2 pre-existing
//!   anomalies) holds;
//! * [`airquality`] — the UCI Beijing Multi-Site Air-Quality dataset
//!   (experiment 2): 12 stations × 35,064 hourly tuples with seasonal /
//!   daily / weather structure in the NO2 target;
//! * [`csv`] — RFC 4180 reader/writer (from scratch);
//! * [`impute`] — pandas-style `ffill`/`bfill`, as used in §3.2.1.

#![warn(missing_docs)]

pub mod airquality;
pub mod csv;
pub mod impute;
pub mod wearable;

pub use csv::{read_csv, write_csv};
pub use impute::{bfill, ffill, ffill_bfill};

#[cfg(test)]
mod proptests {
    use super::*;
    use icewafl_types::{DataType, Schema, Tuple, Value};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::from_pairs([("x", DataType::Float), ("s", DataType::Str)]).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CSV write→read is the identity for arbitrary float/string
        /// tuples (including quoting-hostile strings). The only lossy
        /// case is inherent to CSV: an empty string field reads back as
        /// NULL.
        #[test]
        fn csv_round_trip(
            rows in proptest::collection::vec(
                (proptest::option::of(-1e9f64..1e9), "[ -~]{0,20}"),
                0..30,
            )
        ) {
            let tuples: Vec<Tuple> = rows
                .iter()
                .map(|(x, s)| {
                    Tuple::new(vec![
                        x.map_or(Value::Null, Value::Float),
                        Value::Str(s.trim().into()),
                    ])
                })
                .collect();
            let expected: Vec<Tuple> = tuples
                .iter()
                .map(|t| {
                    let mut vals = t.values().to_vec();
                    if vals[1].as_str().is_some_and(str::is_empty)
                        || vals[1].as_str() == Some("NA")
                        || vals[1].as_str() == Some("null")
                        || vals[1].as_str() == Some("NULL")
                        || vals[1].as_str() == Some("NaN")
                    {
                        vals[1] = Value::Null;
                    }
                    Tuple::new(vals)
                })
                .collect();
            let mut buf = Vec::new();
            csv::write_csv(&mut buf, &schema(), &tuples).unwrap();
            let back = csv::read_csv(&mut std::io::Cursor::new(buf), &schema()).unwrap();
            prop_assert_eq!(back, expected);
        }

        /// After ffill+bfill, a column with at least one value has no
        /// NULLs left, and non-NULL values are never modified.
        #[test]
        fn imputation_completeness(
            values in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 1..100)
        ) {
            let s = Schema::from_pairs([("x", DataType::Float)]).unwrap();
            let mut tuples: Vec<Tuple> = values
                .iter()
                .map(|v| Tuple::new(vec![v.map_or(Value::Null, Value::Float)]))
                .collect();
            impute::ffill_bfill(&s, &mut tuples, "x").unwrap();
            let any_value = values.iter().any(Option::is_some);
            for (orig, t) in values.iter().zip(&tuples) {
                let now = t.get(0).unwrap().as_f64();
                match orig {
                    Some(v) => prop_assert_eq!(now, Some(*v), "non-NULLs untouched"),
                    None => prop_assert_eq!(now.is_some(), any_value),
                }
            }
        }
    }
}
