//! Structural error functions: missing values, constants, attribute
//! swaps, timestamp shifts.

use super::{validate_typed, ErrorFunction};
use icewafl_types::{
    ColumnBatch, DataType, Duration, Error, Result, Schema, Timestamp, Tuple, Value,
};

/// Sets the target attributes to NULL — "Missing Value" in Fig. 3 and
/// the polluter of experiment 3.1.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct MissingValue;

impl ErrorFunction for MissingValue {
    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, _intensity: f64) {
        for &idx in attrs {
            if let Some(v) = tuple.get_mut(idx) {
                *v = Value::Null;
            }
        }
    }

    fn name(&self) -> &'static str {
        "missing_value"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        rows: &[u32],
        attrs: &[usize],
        mask: &[u8],
        _intensities: &[f64],
    ) {
        // The freeze family's columnar form: clearing the selected rows'
        // validity bits is the whole kernel.
        for &idx in attrs {
            batch.column_mut(idx).clear_validity_masked(rows, mask);
        }
    }
}

/// Overwrites the target attributes with a constant — the "BPM set to 0"
/// and "BPM set to null" polluters of the software-update scenario.
#[derive(Debug, Clone)]
pub struct Constant {
    value: Value,
}

impl Constant {
    /// An error writing `value` into every target attribute.
    pub fn new(value: Value) -> Self {
        Constant { value }
    }
}

impl ErrorFunction for Constant {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        for &idx in attrs {
            let field = schema
                .field(idx)
                .ok_or_else(|| Error::config(format_args!("attribute index {idx} out of range")))?;
            if !field.dtype.admits(&self.value) {
                return Err(Error::config(format_args!(
                    "constant {} is not in the domain of `{}` ({})",
                    self.value, field.name, field.dtype
                )));
            }
        }
        Ok(())
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, _intensity: f64) {
        for &idx in attrs {
            if let Some(v) = tuple.get_mut(idx) {
                v.clone_from(&self.value);
            }
        }
    }

    fn name(&self) -> &'static str {
        "constant"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        rows: &[u32],
        attrs: &[usize],
        mask: &[u8],
        _intensities: &[f64],
    ) {
        for &idx in attrs {
            let stored = batch
                .column_mut(idx)
                .overwrite_masked(rows, mask, &self.value);
            // `validate` checked `dtype.admits(value)` at bind time, so
            // the column's type always matches (or the value is NULL).
            debug_assert!(stored, "constant type mismatch escaped validation");
        }
    }
}

/// Swaps the values of attribute pairs: `attrs[0] ↔ attrs[1]`,
/// `attrs[2] ↔ attrs[3]`, … — a classic entry-error pattern (value in
/// the wrong column).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwapAttributes;

impl ErrorFunction for SwapAttributes {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        if attrs.len() < 2 || !attrs.len().is_multiple_of(2) {
            return Err(Error::config(format_args!(
                "swap_attributes needs an even number of target attributes, got {}",
                attrs.len()
            )));
        }
        for pair in attrs.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            let fa = schema
                .field(a)
                .ok_or_else(|| Error::config(format_args!("attribute index {a} out of range")))?;
            let fb = schema
                .field(b)
                .ok_or_else(|| Error::config(format_args!("attribute index {b} out of range")))?;
            if fa.dtype != fb.dtype {
                return Err(Error::config(format_args!(
                    "cannot swap `{}` ({}) with `{}` ({}): different domains",
                    fa.name, fa.dtype, fb.name, fb.dtype
                )));
            }
        }
        Ok(())
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, _intensity: f64) {
        for pair in attrs.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            if a < tuple.len() && b < tuple.len() && a != b {
                tuple.values_mut().swap(a, b);
            }
        }
    }

    fn name(&self) -> &'static str {
        "swap_attributes"
    }
}

/// Shifts timestamp attributes by a fixed offset — the "Timestamp Error"
/// native temporal error type of Fig. 3 (e.g. a device clock running an
/// hour behind).
///
/// Note the difference to a *delayed tuple*: a timestamp error changes
/// the timestamp **attribute** while the tuple stays in place; a delay
/// moves the tuple while its attribute stays.
#[derive(Debug, Clone, Copy)]
pub struct TimestampShift {
    delta: Duration,
}

impl TimestampShift {
    /// A shift of `delta` (may be negative).
    pub fn new(delta: Duration) -> Self {
        TimestampShift { delta }
    }
}

impl ErrorFunction for TimestampShift {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        validate_typed(self.name(), DataType::Timestamp, schema, attrs)
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, _intensity: f64) {
        for &idx in attrs {
            if let Some(Value::Timestamp(ts)) = tuple.get_mut(idx) {
                *ts = ts.saturating_add(self.delta);
            }
        }
    }

    fn name(&self) -> &'static str {
        "timestamp_shift"
    }

    fn has_column_kernel(&self) -> bool {
        true
    }

    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        rows: &[u32],
        attrs: &[usize],
        mask: &[u8],
        _intensities: &[f64],
    ) {
        let delta = self.delta;
        for &idx in attrs {
            // NULL slots are skipped by the validity select, mirroring
            // the row path's `if let Some(Value::Timestamp(..))`.
            batch
                .column_mut(idx)
                .map_timestamps_masked(rows, mask, |t| Timestamp(t).saturating_add(delta).millis());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_fn::test_util::apply_once;

    #[test]
    fn missing_value_nulls_targets_only() {
        let mut f = MissingValue;
        let t = apply_once(&mut f, vec![Value::Int(1), Value::Int(2)], &[1]);
        assert_eq!(t.get(0).unwrap(), &Value::Int(1));
        assert!(t.get(1).unwrap().is_null());
    }

    #[test]
    fn constant_overwrites() {
        let mut f = Constant::new(Value::Int(0));
        let t = apply_once(&mut f, vec![Value::Int(120)], &[0]);
        assert_eq!(t.get(0).unwrap(), &Value::Int(0));
    }

    #[test]
    fn constant_validates_domain() {
        let schema = Schema::from_pairs([("bpm", DataType::Int)]).unwrap();
        assert!(Constant::new(Value::Int(0)).validate(&schema, &[0]).is_ok());
        assert!(
            Constant::new(Value::Null).validate(&schema, &[0]).is_ok(),
            "NULL fits everywhere"
        );
        assert!(Constant::new(Value::Str("x".into()))
            .validate(&schema, &[0])
            .is_err());
    }

    #[test]
    fn swap_exchanges_pairs() {
        let mut f = SwapAttributes;
        let t = apply_once(
            &mut f,
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            &[0, 2],
        );
        assert_eq!(t.values(), &[Value::Int(3), Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn swap_validates_arity_and_types() {
        let schema = Schema::from_pairs([
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Str),
        ])
        .unwrap();
        let f = SwapAttributes;
        assert!(f.validate(&schema, &[0, 1]).is_ok());
        assert!(f.validate(&schema, &[0]).is_err(), "odd arity");
        assert!(f.validate(&schema, &[0, 2]).is_err(), "type mismatch");
    }

    #[test]
    fn timestamp_shift_moves_attribute() {
        let mut f = TimestampShift::new(Duration::from_hours(-1));
        let t = apply_once(&mut f, vec![Value::Timestamp(Timestamp(7_200_000))], &[0]);
        assert_eq!(t.get(0).unwrap(), &Value::Timestamp(Timestamp(3_600_000)));
    }

    #[test]
    fn timestamp_shift_skips_null_and_validates() {
        let mut f = TimestampShift::new(Duration::from_hours(1));
        let t = apply_once(&mut f, vec![Value::Null], &[0]);
        assert!(t.get(0).unwrap().is_null());
        let schema = Schema::from_pairs([("x", DataType::Int)]).unwrap();
        assert!(f.validate(&schema, &[0]).is_err());
    }
}
