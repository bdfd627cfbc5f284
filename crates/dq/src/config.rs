//! Declarative expectation-suite configuration.
//!
//! Mirrors GX's JSON suite format in spirit: a suite is a named list of
//! expectation descriptions that can be stored next to the pollution
//! configuration and replayed by the CLI.
//!
//! ```json
//! {
//!   "name": "wearable-checks",
//!   "expectations": [
//!     { "type": "not_null", "column": "Distance" },
//!     { "type": "increasing", "column": "Time" },
//!     { "type": "match_regex", "column": "CaloriesBurned",
//!       "pattern": "^\\d+(\\.\\d{4,})?$" }
//!   ]
//! }
//! ```

use crate::expectation::BoxExpectation;
use crate::expectations::{
    ExpectColumnMeanToBeBetween, ExpectColumnPairValuesAToBeGreaterThanB,
    ExpectColumnStdevToBeBetween, ExpectColumnValueLengthsToBeBetween,
    ExpectColumnValuesToBeBetween, ExpectColumnValuesToBeInSet, ExpectColumnValuesToBeIncreasing,
    ExpectColumnValuesToBeNull, ExpectColumnValuesToBeUnique, ExpectColumnValuesToMatchRegex,
    ExpectColumnValuesToNotBeNull, ExpectMulticolumnSumToEqual,
};
use crate::suite::ExpectationSuite;
use icewafl_types::{Error, Result, Value};
use serde::{Deserialize, Serialize};

/// A serializable expectation suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteConfig {
    /// Suite name (appears in validation reports).
    pub name: String,
    /// The expectations, validated in order.
    pub expectations: Vec<ExpectationConfig>,
}

impl SuiteConfig {
    /// Parses a JSON document.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| Error::config(format_args!("bad suite config: {e}")))
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("suite config is always serializable")
    }

    /// Builds the runnable suite.
    pub fn build(&self) -> Result<ExpectationSuite> {
        let mut suite = ExpectationSuite::new(&self.name);
        for e in &self.expectations {
            suite.push(e.build()?);
        }
        Ok(suite)
    }
}

/// One serializable expectation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ExpectationConfig {
    /// `expect_column_values_to_not_be_null`.
    NotNull {
        /// Target column.
        column: String,
        /// Minimum conforming fraction (default 1.0).
        #[serde(default = "one")]
        mostly: f64,
    },
    /// `expect_column_values_to_be_null`.
    Null {
        /// Target column.
        column: String,
    },
    /// `expect_column_values_to_be_between`.
    Between {
        /// Target column.
        column: String,
        /// Inclusive lower bound.
        #[serde(default)]
        min: Option<Value>,
        /// Inclusive upper bound.
        #[serde(default)]
        max: Option<Value>,
        /// Minimum conforming fraction (default 1.0).
        #[serde(default = "one")]
        mostly: f64,
    },
    /// `expect_column_values_to_be_in_set`.
    InSet {
        /// Target column.
        column: String,
        /// Allowed values.
        values: Vec<Value>,
    },
    /// `expect_column_values_to_match_regex`.
    MatchRegex {
        /// Target column.
        column: String,
        /// The pattern (anchored at the value start, Python
        /// `re.match`-style).
        pattern: String,
    },
    /// `expect_column_value_lengths_to_be_between`.
    ValueLengths {
        /// Target column.
        column: String,
        /// Minimum length in chars.
        min: usize,
        /// Maximum length in chars.
        max: usize,
    },
    /// `expect_column_values_to_be_increasing`.
    Increasing {
        /// Target column.
        column: String,
        /// Require strict increase.
        #[serde(default)]
        strictly: bool,
    },
    /// `expect_column_pair_values_a_to_be_greater_than_b`.
    PairGreater {
        /// The larger column.
        column_a: String,
        /// The smaller column.
        column_b: String,
        /// Allow equality.
        #[serde(default)]
        or_equal: bool,
    },
    /// `expect_multicolumn_sum_to_equal`.
    MulticolumnSum {
        /// The summed columns.
        columns: Vec<String>,
        /// The required per-row total.
        total: f64,
    },
    /// `expect_column_values_to_be_unique`.
    Unique {
        /// Target column.
        column: String,
    },
    /// `expect_column_mean_to_be_between`.
    MeanBetween {
        /// Target column.
        column: String,
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// `expect_column_stdev_to_be_between`.
    StdevBetween {
        /// Target column.
        column: String,
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// `expect_table_row_count_to_be_between`.
    RowCountBetween {
        /// Minimum rows.
        min: usize,
        /// Maximum rows.
        max: usize,
    },
    /// `expect_column_median_to_be_between`.
    MedianBetween {
        /// Target column.
        column: String,
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// `expect_column_quantile_values_to_be_between`.
    QuantileBetween {
        /// Target column.
        column: String,
        /// The quantile in `[0, 1]`.
        q: f64,
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// `expect_compound_columns_to_be_unique`.
    CompoundUnique {
        /// The key columns.
        columns: Vec<String>,
    },
}

fn one() -> f64 {
    1.0
}

impl ExpectationConfig {
    /// Builds the runtime expectation.
    pub fn build(&self) -> Result<BoxExpectation> {
        Ok(match self {
            ExpectationConfig::NotNull { column, mostly } => {
                Box::new(ExpectColumnValuesToNotBeNull::new(column).mostly(*mostly))
            }
            ExpectationConfig::Null { column } => Box::new(ExpectColumnValuesToBeNull::new(column)),
            ExpectationConfig::Between {
                column,
                min,
                max,
                mostly,
            } => Box::new(
                ExpectColumnValuesToBeBetween::new(column, min.clone(), max.clone())
                    .mostly(*mostly),
            ),
            ExpectationConfig::InSet { column, values } => {
                Box::new(ExpectColumnValuesToBeInSet::new(column, values.clone()))
            }
            ExpectationConfig::MatchRegex { column, pattern } => {
                Box::new(ExpectColumnValuesToMatchRegex::new(column, pattern)?)
            }
            ExpectationConfig::ValueLengths { column, min, max } => {
                Box::new(ExpectColumnValueLengthsToBeBetween::new(column, *min, *max))
            }
            ExpectationConfig::Increasing { column, strictly } => {
                let e = ExpectColumnValuesToBeIncreasing::new(column);
                Box::new(if *strictly { e.strictly() } else { e })
            }
            ExpectationConfig::PairGreater {
                column_a,
                column_b,
                or_equal,
            } => {
                let e = ExpectColumnPairValuesAToBeGreaterThanB::new(column_a, column_b);
                Box::new(if *or_equal { e.or_equal() } else { e })
            }
            ExpectationConfig::MulticolumnSum { columns, total } => {
                Box::new(ExpectMulticolumnSumToEqual::new(columns.clone(), *total))
            }
            ExpectationConfig::Unique { column } => {
                Box::new(ExpectColumnValuesToBeUnique::new(column))
            }
            ExpectationConfig::MeanBetween { column, min, max } => {
                Box::new(ExpectColumnMeanToBeBetween::new(column, *min, *max))
            }
            ExpectationConfig::StdevBetween { column, min, max } => {
                Box::new(ExpectColumnStdevToBeBetween::new(column, *min, *max))
            }
            ExpectationConfig::RowCountBetween { min, max } => Box::new(
                crate::expectations::ExpectTableRowCountToBeBetween::new(*min, *max),
            ),
            ExpectationConfig::MedianBetween { column, min, max } => Box::new(
                crate::expectations::ExpectColumnMedianToBeBetween::new(column, *min, *max),
            ),
            ExpectationConfig::QuantileBetween {
                column,
                q,
                min,
                max,
            } => Box::new(crate::expectations::ExpectColumnQuantileToBeBetween::new(
                column, *q, *min, *max,
            )),
            ExpectationConfig::CompoundUnique { columns } => Box::new(
                crate::expectations::ExpectCompoundColumnsToBeUnique::new(columns.clone()),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_types::{DataType, Schema, StampedTuple, Timestamp, Tuple};

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("x", DataType::Float),
            ("s", DataType::Str),
        ])
        .unwrap()
    }

    fn rows() -> Vec<StampedTuple> {
        (0..10u64)
            .map(|i| {
                StampedTuple::new(
                    i,
                    Timestamp(i as i64),
                    Tuple::new(vec![
                        Value::Timestamp(Timestamp(i as i64)),
                        if i == 5 {
                            Value::Null
                        } else {
                            Value::Float(i as f64)
                        },
                        Value::Str(format!("v{i}").into()),
                    ]),
                )
            })
            .collect()
    }

    fn full_config() -> SuiteConfig {
        SuiteConfig {
            name: "all-types".into(),
            expectations: vec![
                ExpectationConfig::NotNull {
                    column: "x".into(),
                    mostly: 0.9,
                },
                ExpectationConfig::Between {
                    column: "x".into(),
                    min: Some(Value::Float(0.0)),
                    max: Some(Value::Float(100.0)),
                    mostly: 1.0,
                },
                ExpectationConfig::MatchRegex {
                    column: "s".into(),
                    pattern: "^v".into(),
                },
                ExpectationConfig::Increasing {
                    column: "Time".into(),
                    strictly: true,
                },
                ExpectationConfig::Unique { column: "s".into() },
                ExpectationConfig::ValueLengths {
                    column: "s".into(),
                    min: 2,
                    max: 3,
                },
                ExpectationConfig::MeanBetween {
                    column: "x".into(),
                    min: 0.0,
                    max: 10.0,
                },
                ExpectationConfig::StdevBetween {
                    column: "x".into(),
                    min: 0.0,
                    max: 10.0,
                },
                ExpectationConfig::PairGreater {
                    column_a: "x".into(),
                    column_b: "x".into(),
                    or_equal: true,
                },
                ExpectationConfig::MulticolumnSum {
                    columns: vec!["x".into(), "x".into()],
                    total: 0.0,
                },
                ExpectationConfig::InSet {
                    column: "s".into(),
                    values: (0..10)
                        .map(|i| Value::Str(format!("v{i}").into()))
                        .collect(),
                },
                ExpectationConfig::Null { column: "x".into() },
                ExpectationConfig::RowCountBetween { min: 1, max: 100 },
                ExpectationConfig::MedianBetween {
                    column: "x".into(),
                    min: 0.0,
                    max: 10.0,
                },
                ExpectationConfig::QuantileBetween {
                    column: "x".into(),
                    q: 0.9,
                    min: 0.0,
                    max: 10.0,
                },
                ExpectationConfig::CompoundUnique {
                    columns: vec!["Time".into(), "s".into()],
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let cfg = full_config();
        let back = SuiteConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn builds_and_validates() {
        let suite = full_config().build().unwrap();
        assert_eq!(suite.len(), 16);
        let report = suite.validate(&schema(), &rows()).unwrap();
        // Some expectations pass, some fail — the point is they all run.
        assert_eq!(report.results.len(), 16);
        assert!(
            report.find("not_be_null").unwrap().success,
            "1 of 10 null, mostly 0.9"
        );
        assert!(report.find("match_regex").unwrap().success);
        assert!(!report.find("to_be_null").unwrap().success);
    }

    #[test]
    fn handwritten_json_parses() {
        let json = r#"{
            "name": "wearable-checks",
            "expectations": [
                { "type": "not_null", "column": "Distance" },
                { "type": "increasing", "column": "Time" },
                { "type": "match_regex", "column": "Calories",
                  "pattern": "^\\d+(\\.\\d{4,})?$" }
            ]
        }"#;
        let cfg = SuiteConfig::from_json(json).unwrap();
        assert_eq!(cfg.expectations.len(), 3);
        assert!(cfg.build().is_ok());
    }

    #[test]
    fn bad_regex_fails_at_build() {
        let cfg = SuiteConfig {
            name: "bad".into(),
            expectations: vec![ExpectationConfig::MatchRegex {
                column: "s".into(),
                pattern: "(".into(),
            }],
        };
        assert!(cfg.build().is_err());
    }
}
