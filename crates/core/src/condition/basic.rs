//! Random and value-dependent conditions.

use super::Condition;
use crate::rng::fill_bernoulli;
use crate::snapshot::{rng_doc, rng_from_doc};
use icewafl_types::{Column, ColumnBatch, ColumnData, Result, StampedTuple, Value};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Fires on every tuple.
#[derive(Debug, Clone, Copy, Default)]
pub struct Always;

impl Condition for Always {
    fn evaluate(&mut self, _tuple: &StampedTuple) -> bool {
        true
    }

    fn expected_probability(&self, _tuple: &StampedTuple) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "always"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn evaluate_columns(&mut self, _batch: &ColumnBatch, _rows: &[u32], mask: &mut [u8]) {
        mask.fill(1);
    }
}

/// Never fires (useful as a pipeline no-op and in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct Never;

impl Condition for Never {
    fn evaluate(&mut self, _tuple: &StampedTuple) -> bool {
        false
    }

    fn expected_probability(&self, _tuple: &StampedTuple) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "never"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn evaluate_columns(&mut self, _batch: &ColumnBatch, _rows: &[u32], mask: &mut [u8]) {
        mask.fill(0);
    }
}

/// Fires completely at random with a fixed probability — the paper's
/// case (i), "completely at random" (MCAR in the missing-data
/// literature).
pub struct Probability {
    p: f64,
    rng: StdRng,
}

impl Probability {
    /// A condition firing with probability `p` (clamped to `[0, 1]`).
    pub fn new(p: f64, rng: StdRng) -> Self {
        Probability {
            p: p.clamp(0.0, 1.0),
            rng,
        }
    }

    /// The firing probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Condition for Probability {
    fn evaluate(&mut self, _tuple: &StampedTuple) -> bool {
        self.rng.random_bool(self.p)
    }

    fn expected_probability(&self, _tuple: &StampedTuple) -> f64 {
        self.p
    }

    fn name(&self) -> &'static str {
        "probability"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(rng_doc(&self.rng))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        self.rng = rng_from_doc(state)?;
        Ok(())
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn evaluate_columns(&mut self, _batch: &ColumnBatch, _rows: &[u32], mask: &mut [u8]) {
        // `fill_bernoulli` keeps the exact draw discipline of
        // `random_bool`: boundary probabilities consume no randomness,
        // interior ones consume one uniform per row (docs/kernels.md).
        fill_bernoulli(&mut self.rng, self.p, mask);
    }
}

/// Comparison operators for [`ValueCondition`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CmpOp {
    /// Attribute equals the reference value.
    Eq,
    /// Attribute differs from the reference value (NULL counts as
    /// different).
    Ne,
    /// Attribute is strictly less than the reference value.
    Lt,
    /// Attribute is at most the reference value.
    Le,
    /// Attribute is strictly greater than the reference value.
    Gt,
    /// Attribute is at least the reference value.
    Ge,
    /// Attribute is NULL (reference value ignored).
    IsNull,
    /// Attribute is not NULL (reference value ignored).
    NotNull,
    /// Attribute is a member of the given set.
    InSet(Vec<Value>),
}

/// Fires depending on an attribute of the input tuple — the paper's
/// cases (ii) and (iii): the attribute may or may not be one of the
/// polluted attributes `A_p`; the condition does not care.
///
/// Comparisons follow SQL three-valued logic: a comparison against NULL
/// (or across incomparable types) is undefined and the condition does
/// not fire, except for the explicit `IsNull` / `Ne` cases.
pub struct ValueCondition {
    attr: usize,
    op: CmpOp,
    value: Value,
}

impl ValueCondition {
    /// A condition on the attribute at column `attr`.
    pub fn new(attr: usize, op: CmpOp, value: Value) -> Self {
        ValueCondition { attr, op, value }
    }

    fn matches(&self, tuple: &StampedTuple) -> bool {
        let Some(v) = tuple.tuple.get(self.attr) else {
            return false;
        };
        match &self.op {
            CmpOp::IsNull => v.is_null(),
            CmpOp::NotNull => !v.is_null(),
            CmpOp::InSet(set) => set.iter().any(|s| v.compare(s) == Some(Ordering::Equal)),
            CmpOp::Eq => v.compare(&self.value) == Some(Ordering::Equal),
            CmpOp::Ne => match v.compare(&self.value) {
                Some(ord) => ord != Ordering::Equal,
                // NULL vs anything: "different" fires only if exactly one
                // side is NULL.
                None => v.is_null() != self.value.is_null(),
            },
            CmpOp::Lt => v.compare(&self.value) == Some(Ordering::Less),
            CmpOp::Le => {
                matches!(
                    v.compare(&self.value),
                    Some(Ordering::Less | Ordering::Equal)
                )
            }
            CmpOp::Gt => v.compare(&self.value) == Some(Ordering::Greater),
            CmpOp::Ge => {
                matches!(
                    v.compare(&self.value),
                    Some(Ordering::Greater | Ordering::Equal)
                )
            }
        }
    }

    /// Columnar mirror of [`Value::compare`] against `self.value`:
    /// same-typed pairs compare natively, everything else goes through
    /// the numeric (`as_f64`) fallback, and an invalid slot (or a
    /// non-numeric cross-type pair) yields `None`. `accept` maps the
    /// three-valued ordering — plus the slot's validity, which the `Ne`
    /// NULL rule needs — to the mask byte.
    fn fill_cmp_mask(
        &self,
        col: &Column,
        rows: &[u32],
        mask: &mut [u8],
        accept: impl Fn(Option<Ordering>, bool) -> bool,
    ) {
        let selected = mask.iter_mut().zip(rows.iter().map(|&r| r as usize));
        match (col.data(), &self.value) {
            (ColumnData::Str(xs), Value::Str(s)) => {
                for (m, i) in selected {
                    let valid = col.is_valid(i);
                    let ord = valid.then(|| xs[i].as_str().cmp(s.as_str()));
                    *m = u8::from(accept(ord, valid));
                }
            }
            (ColumnData::Timestamp(xs), Value::Timestamp(t)) => {
                for (m, i) in selected {
                    let valid = col.is_valid(i);
                    let ord = valid.then(|| xs[i].cmp(&t.0));
                    *m = u8::from(accept(ord, valid));
                }
            }
            (ColumnData::Bool(xs), Value::Bool(b)) => {
                for (m, i) in selected {
                    let valid = col.is_valid(i);
                    let ord = valid.then(|| xs[i].cmp(b));
                    *m = u8::from(accept(ord, valid));
                }
            }
            _ => {
                let rhs = self.value.as_f64();
                for (m, i) in selected {
                    let ord = match (col.numeric_at(i), rhs) {
                        (Some(a), Some(b)) => a.partial_cmp(&b),
                        _ => None,
                    };
                    *m = u8::from(accept(ord, col.is_valid(i)));
                }
            }
        }
    }
}

impl Condition for ValueCondition {
    fn evaluate(&mut self, tuple: &StampedTuple) -> bool {
        self.matches(tuple)
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        if self.matches(tuple) {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "value"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn evaluate_columns(&mut self, batch: &ColumnBatch, rows: &[u32], mask: &mut [u8]) {
        if self.attr >= batch.arity() {
            // Row path: `tuple.get(attr)` is `None`, never fires.
            mask.fill(0);
            return;
        }
        let col = batch.column(self.attr);
        match &self.op {
            CmpOp::IsNull => {
                col.fill_validity_mask(rows, mask);
                for m in mask.iter_mut() {
                    *m ^= 1;
                }
            }
            CmpOp::NotNull => col.fill_validity_mask(rows, mask),
            CmpOp::InSet(set) => {
                for (m, &r) in mask.iter_mut().zip(rows) {
                    let v = col.value_at(r as usize);
                    *m = u8::from(set.iter().any(|s| v.compare(s) == Some(Ordering::Equal)));
                }
            }
            CmpOp::Eq => self.fill_cmp_mask(col, rows, mask, |ord, _| ord == Some(Ordering::Equal)),
            CmpOp::Ne => {
                let rhs_null = self.value.is_null();
                self.fill_cmp_mask(col, rows, mask, |ord, valid| match ord {
                    Some(ord) => ord != Ordering::Equal,
                    // NULL vs anything: "different" fires only if
                    // exactly one side is NULL (mirrors `matches`) —
                    // i.e. the slot is valid and the operand is NULL,
                    // or vice versa.
                    None => valid == rhs_null,
                });
            }
            CmpOp::Lt => self.fill_cmp_mask(col, rows, mask, |ord, _| ord == Some(Ordering::Less)),
            CmpOp::Le => self.fill_cmp_mask(col, rows, mask, |ord, _| {
                matches!(ord, Some(Ordering::Less | Ordering::Equal))
            }),
            CmpOp::Gt => {
                self.fill_cmp_mask(col, rows, mask, |ord, _| ord == Some(Ordering::Greater))
            }
            CmpOp::Ge => self.fill_cmp_mask(col, rows, mask, |ord, _| {
                matches!(ord, Some(Ordering::Greater | Ordering::Equal))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::test_util::tuple_at;
    use rand::SeedableRng;

    #[test]
    fn always_and_never() {
        let t = tuple_at(0, 1i64);
        assert!(Always.evaluate(&t));
        assert_eq!(Always.expected_probability(&t), 1.0);
        assert!(!Never.evaluate(&t));
        assert_eq!(Never.expected_probability(&t), 0.0);
    }

    #[test]
    fn probability_hits_close_to_p() {
        let mut c = Probability::new(0.2, StdRng::seed_from_u64(1));
        let t = tuple_at(0, 0i64);
        let hits = (0..10_000).filter(|_| c.evaluate(&t)).count();
        assert!((1800..2200).contains(&hits), "hits {hits}");
        assert_eq!(c.expected_probability(&t), 0.2);
        assert_eq!(c.p(), 0.2);
    }

    #[test]
    fn probability_clamps() {
        assert_eq!(Probability::new(1.5, StdRng::seed_from_u64(1)).p(), 1.0);
        assert_eq!(Probability::new(-0.5, StdRng::seed_from_u64(1)).p(), 0.0);
    }

    #[test]
    fn value_condition_gt() {
        // BPM > 100 — the software-update scenario's nested condition.
        let mut c = ValueCondition::new(1, CmpOp::Gt, Value::Int(100));
        assert!(c.evaluate(&tuple_at(0, 101i64)));
        assert!(!c.evaluate(&tuple_at(0, 100i64)));
        assert!(!c.evaluate(&tuple_at(0, 42i64)));
        assert_eq!(c.expected_probability(&tuple_at(0, 150i64)), 1.0);
        assert_eq!(c.expected_probability(&tuple_at(0, 50i64)), 0.0);
    }

    #[test]
    fn value_condition_null_semantics() {
        let mut gt = ValueCondition::new(1, CmpOp::Gt, Value::Int(0));
        assert!(
            !gt.evaluate(&tuple_at(0, Value::Null)),
            "NULL > 0 is not true"
        );
        let mut is_null = ValueCondition::new(1, CmpOp::IsNull, Value::Null);
        assert!(is_null.evaluate(&tuple_at(0, Value::Null)));
        assert!(!is_null.evaluate(&tuple_at(0, 1i64)));
        let mut not_null = ValueCondition::new(1, CmpOp::NotNull, Value::Null);
        assert!(not_null.evaluate(&tuple_at(0, 1i64)));
        assert!(!not_null.evaluate(&tuple_at(0, Value::Null)));
    }

    #[test]
    fn value_condition_ne_with_null() {
        let mut ne = ValueCondition::new(1, CmpOp::Ne, Value::Int(5));
        assert!(ne.evaluate(&tuple_at(0, 6i64)));
        assert!(!ne.evaluate(&tuple_at(0, 5i64)));
        assert!(
            ne.evaluate(&tuple_at(0, Value::Null)),
            "NULL is different from 5"
        );
        let mut ne_null = ValueCondition::new(1, CmpOp::Ne, Value::Null);
        assert!(
            !ne_null.evaluate(&tuple_at(0, Value::Null)),
            "NULL vs NULL: not different"
        );
    }

    #[test]
    fn value_condition_in_set() {
        let set = vec![Value::Str("walk".into()), Value::Str("run".into())];
        let mut c = ValueCondition::new(1, CmpOp::InSet(set), Value::Null);
        assert!(c.evaluate(&tuple_at(0, "walk")));
        assert!(!c.evaluate(&tuple_at(0, "sleep")));
    }

    #[test]
    fn value_condition_all_orderings() {
        let cases: Vec<(CmpOp, i64, bool)> = vec![
            (CmpOp::Eq, 5, true),
            (CmpOp::Eq, 4, false),
            (CmpOp::Lt, 4, true),
            (CmpOp::Lt, 5, false),
            (CmpOp::Le, 5, true),
            (CmpOp::Le, 6, false),
            (CmpOp::Ge, 5, true),
            (CmpOp::Ge, 4, false),
        ];
        for (op, x, expect) in cases {
            let mut c = ValueCondition::new(1, op.clone(), Value::Int(5));
            assert_eq!(c.evaluate(&tuple_at(0, x)), expect, "{op:?} {x}");
        }
    }

    #[test]
    fn out_of_range_attr_never_fires() {
        let mut c = ValueCondition::new(99, CmpOp::NotNull, Value::Null);
        assert!(!c.evaluate(&tuple_at(0, 1i64)));
    }
}
