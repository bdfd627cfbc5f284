//! Column profiling — the "assistant" half of a DQ tool: compute basic
//! statistics per column and suggest expectations from a clean sample
//! (as GX's profilers do), so a user can bootstrap a suite from the
//! clean stream and validate the polluted one.

use crate::expectation::BoxExpectation;
use crate::expectations::{
    ExpectColumnMeanToBeBetween, ExpectColumnValuesToBeBetween, ExpectColumnValuesToBeInSet,
    ExpectColumnValuesToNotBeNull,
};
use crate::suite::ExpectationSuite;
use icewafl_types::{DataType, Result, Schema, StampedTuple, Value};
use std::collections::BTreeSet;

/// Summary statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Total rows seen.
    pub count: usize,
    /// NULLs seen.
    pub null_count: usize,
    /// Minimum (numeric columns).
    pub min: Option<f64>,
    /// Maximum (numeric columns).
    pub max: Option<f64>,
    /// Mean (numeric columns).
    pub mean: Option<f64>,
    /// Population standard deviation (numeric columns).
    pub stdev: Option<f64>,
    /// Distinct values (string columns, capped at 64).
    pub categories: Vec<String>,
}

impl ColumnProfile {
    /// The fraction of NULL values.
    pub fn null_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.null_count as f64 / self.count as f64
        }
    }
}

/// Profiles every column of a batch.
pub fn profile(schema: &Schema, rows: &[StampedTuple]) -> Vec<ColumnProfile> {
    schema
        .fields()
        .iter()
        .enumerate()
        .map(|(idx, field)| {
            let mut null_count = 0;
            let mut values: Vec<f64> = Vec::new();
            let mut categories: BTreeSet<String> = BTreeSet::new();
            for row in rows {
                match row.tuple.get(idx).unwrap_or(&Value::Null) {
                    Value::Null => null_count += 1,
                    v => {
                        if let Some(x) = v.as_f64() {
                            values.push(x);
                        } else if let Value::Str(s) = v {
                            if categories.len() < 64 {
                                categories.insert(s.to_string());
                            }
                        }
                    }
                }
            }
            let (min, max, mean, stdev) = if values.is_empty() {
                (None, None, None, None)
            } else {
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let var =
                    values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / values.len() as f64;
                (Some(min), Some(max), Some(mean), Some(var.sqrt()))
            };
            ColumnProfile {
                name: field.name.clone(),
                dtype: field.dtype,
                count: rows.len(),
                null_count,
                min,
                max,
                mean,
                stdev,
                categories: categories.into_iter().collect(),
            }
        })
        .collect()
}

/// Builds a suggested expectation suite from a clean sample:
///
/// * columns without NULLs → `not_be_null`;
/// * numeric columns → `values_to_be_between` with margins of one
///   standard deviation beyond the observed range, and
///   `mean_to_be_between` at ±3 standard errors;
/// * low-cardinality string columns → `values_to_be_in_set`.
pub fn suggest_suite(schema: &Schema, clean: &[StampedTuple]) -> Result<ExpectationSuite> {
    let mut suite = ExpectationSuite::new("suggested");
    for p in profile(schema, clean) {
        if p.null_count == 0 && p.count > 0 {
            suite.push(Box::new(ExpectColumnValuesToNotBeNull::new(&p.name)) as BoxExpectation);
        }
        if let (Some(min), Some(max), Some(mean), Some(stdev)) = (p.min, p.max, p.mean, p.stdev) {
            let margin = stdev.max(1e-9);
            suite.push(Box::new(ExpectColumnValuesToBeBetween::new(
                &p.name,
                Some(Value::Float(min - margin)),
                Some(Value::Float(max + margin)),
            )));
            let se = stdev / (p.count.max(1) as f64).sqrt();
            suite.push(Box::new(ExpectColumnMeanToBeBetween::new(
                &p.name,
                mean - 3.0 * se - 1e-9,
                mean + 3.0 * se + 1e-9,
            )));
        }
        if p.dtype == DataType::Str && !p.categories.is_empty() && p.categories.len() < 32 {
            suite.push(Box::new(ExpectColumnValuesToBeInSet::new(
                &p.name,
                p.categories
                    .iter()
                    .map(|c| Value::from(c.as_str()))
                    .collect(),
            )));
        }
    }
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_types::{Timestamp, Tuple};

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("x", DataType::Float),
            ("cat", DataType::Str),
        ])
        .unwrap()
    }

    fn rows() -> Vec<StampedTuple> {
        (0..100)
            .map(|i| {
                StampedTuple::new(
                    i,
                    Timestamp(i as i64),
                    Tuple::new(vec![
                        Value::Timestamp(Timestamp(i as i64)),
                        Value::Float((i % 10) as f64),
                        Value::Str(if i % 2 == 0 { "even" } else { "odd" }.into()),
                    ]),
                )
            })
            .collect()
    }

    #[test]
    fn profile_computes_stats() {
        let profiles = profile(&schema(), &rows());
        assert_eq!(profiles.len(), 3);
        let x = &profiles[1];
        assert_eq!(x.name, "x");
        assert_eq!(x.count, 100);
        assert_eq!(x.null_count, 0);
        assert_eq!(x.min, Some(0.0));
        assert_eq!(x.max, Some(9.0));
        assert!((x.mean.unwrap() - 4.5).abs() < 1e-12);
        assert!(x.stdev.unwrap() > 2.0);
        let cat = &profiles[2];
        assert_eq!(cat.categories, vec!["even".to_string(), "odd".to_string()]);
    }

    #[test]
    fn profile_counts_nulls() {
        let mut rs = rows();
        rs[0].tuple.replace(1, Value::Null);
        let profiles = profile(&schema(), &rs);
        assert_eq!(profiles[1].null_count, 1);
        assert!((profiles[1].null_fraction() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn suggested_suite_passes_on_clean_data() {
        let clean = rows();
        let suite = suggest_suite(&schema(), &clean).unwrap();
        assert!(!suite.is_empty());
        let report = suite.validate(&schema(), &clean).unwrap();
        assert!(report.success(), "{report}");
    }

    #[test]
    fn suggested_suite_catches_pollution() {
        let clean = rows();
        let suite = suggest_suite(&schema(), &clean).unwrap();
        // Pollute: nulls + out-of-range values + a foreign category.
        let mut dirty = clean.clone();
        dirty[5].tuple.replace(1, Value::Null);
        dirty[6].tuple.replace(1, Value::Float(1e9));
        dirty[7].tuple.replace(2, Value::Str("UNKNOWN".into()));
        let report = suite.validate(&schema(), &dirty).unwrap();
        assert!(!report.success());
        assert!(report.unexpected_ids().contains(&5));
        assert!(report.unexpected_ids().contains(&6));
        assert!(report.unexpected_ids().contains(&7));
    }

    #[test]
    fn empty_batch_profile() {
        let profiles = profile(&schema(), &[]);
        assert_eq!(profiles[1].count, 0);
        assert_eq!(profiles[1].min, None);
        assert_eq!(profiles[1].null_fraction(), 0.0);
    }
}
