//! Error functions — the `e` of a polluter `⟨e, c, A_p⟩`.
//!
//! An error function maps `dom(A) × 2^A × T → dom(A)`: it transforms a
//! tuple on a set of target attributes, with the event time `τ` as an
//! additional argument (§2.2). Static error types ignore `τ`; derived
//! temporal error types receive a pattern-derived *intensity* in
//! `[0, 1]` that scales their magnitude over time — this is how the
//! paper's "noise is added based on the hour of the day" examples work.

mod basic;
mod categorical;
mod numeric;
mod string;

pub use basic::{Constant, MissingValue, SwapAttributes, TimestampShift};
pub use categorical::IncorrectCategory;
pub use numeric::{
    GaussianNoise, Outlier, Rounding, ScaleByFactor, UniformMultiplicativeNoise, UnitConversion,
};
pub use string::{StringTypo, TypoKind};

use icewafl_types::{ColumnBatch, DataType, Error, Result, Schema, Timestamp, Tuple};

/// A transformation applied to the target attributes of a tuple.
///
/// Implementations validate their type requirements once at bind time
/// ([`ErrorFunction::validate`]); at runtime, values that cannot be
/// polluted (e.g. a NULL hit by a noise function) are left unchanged
/// rather than erroring, matching the semantics of pollution on dirty
/// real-world inputs.
pub trait ErrorFunction: Send {
    /// Checks, against the schema, that the function can operate on the
    /// chosen attributes. Called when a pipeline is bound.
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        let _ = (schema, attrs);
        Ok(())
    }

    /// Applies the error to `attrs` of `tuple` at event time `tau`.
    ///
    /// `intensity ∈ [0, 1]` scales the error magnitude for derived
    /// temporal error types; static applications pass `1.0`.
    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], tau: Timestamp, intensity: f64);

    /// A short name used in pollution-log entries.
    fn name(&self) -> &'static str;

    /// This function's mutable runtime state — its RNG stream position,
    /// for stochastic error functions — as a typed JSON document, or
    /// `None` when stateless.
    fn snapshot_state(&self) -> Option<String> {
        None
    }

    /// Restores state captured by [`ErrorFunction::snapshot_state`] on
    /// a freshly built function of the same configuration.
    fn restore_state(&mut self, state: &str) -> Result<()> {
        let _ = state;
        Ok(())
    }

    /// `true` iff [`ErrorFunction::apply_columns`] is implemented and
    /// byte-identical to calling [`ErrorFunction::apply`] on each fired
    /// row in order — same values *and* the same RNG draw sequence.
    /// Functions without a proof of that equivalence (string typos,
    /// category swaps, attribute swaps) leave this `false` and the
    /// columnar pipeline falls back to the row-exact trampoline.
    fn has_column_kernel(&self) -> bool {
        false
    }

    /// Applies the error to every row `rows[k]` of `batch` whose mask
    /// byte `mask[k]` is nonzero, using `intensities[k]` as that row's
    /// pattern intensity, in selection order; rows outside the
    /// selection are not touched. `mask` and `intensities` both have
    /// `rows.len()` entries; masked-off positions' intensities are
    /// unspecified.
    ///
    /// Only called when [`ErrorFunction::has_column_kernel`] is `true`;
    /// the default is unreachable by construction.
    fn apply_columns(
        &mut self,
        batch: &mut ColumnBatch,
        rows: &[u32],
        attrs: &[usize],
        mask: &[u8],
        intensities: &[f64],
    ) {
        let _ = (batch, rows, attrs, mask, intensities);
        unreachable!("apply_columns called on an error function without a column kernel");
    }
}

/// Bind-time check that every target attribute is numeric.
pub(crate) fn validate_numeric(
    fn_name: &'static str,
    schema: &Schema,
    attrs: &[usize],
) -> Result<()> {
    for &idx in attrs {
        let field = schema
            .field(idx)
            .ok_or_else(|| Error::config(format_args!("attribute index {idx} out of range")))?;
        if !field.dtype.is_numeric() {
            return Err(Error::config(format_args!(
                "error function `{fn_name}` requires numeric attributes, but `{}` is {}",
                field.name, field.dtype
            )));
        }
    }
    Ok(())
}

/// Bind-time check that every target attribute has the given type.
pub(crate) fn validate_typed(
    fn_name: &'static str,
    expected: DataType,
    schema: &Schema,
    attrs: &[usize],
) -> Result<()> {
    for &idx in attrs {
        let field = schema
            .field(idx)
            .ok_or_else(|| Error::config(format_args!("attribute index {idx} out of range")))?;
        if field.dtype != expected {
            return Err(Error::config(format_args!(
                "error function `{fn_name}` requires {expected} attributes, but `{}` is {}",
                field.name, field.dtype
            )));
        }
    }
    Ok(())
}

/// Applies a numeric transformation to each target attribute, skipping
/// NULLs and non-numeric values.
pub(crate) fn map_numeric(tuple: &mut Tuple, attrs: &[usize], mut f: impl FnMut(f64) -> f64) {
    for &idx in attrs {
        if let Some(v) = tuple.get_mut(idx) {
            if let Some(x) = v.as_f64() {
                if let Ok(new) = v.with_numeric(f(x)) {
                    *v = new;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use icewafl_types::{Timestamp, Tuple, Value};

    /// Drives an error function over a fresh tuple and returns the
    /// result.
    pub fn apply_once(
        f: &mut dyn super::ErrorFunction,
        values: Vec<Value>,
        attrs: &[usize],
    ) -> Tuple {
        let mut t = Tuple::new(values);
        f.apply(&mut t, attrs, Timestamp(0), 1.0);
        t
    }
}
