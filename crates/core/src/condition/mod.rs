//! Pollution conditions — the `c` of a polluter `⟨e, c, A_p⟩`.
//!
//! §2.2: errors can be inserted (i) completely at random, (ii) depending
//! on the values to be polluted, (iii) depending on other values of the
//! tuple, plus — Icewafl's novelty — (iv) *temporal* conditions over the
//! event time `τ`, and (v) composite conditions conjoining any of the
//! above.

mod basic;
mod composite;
mod temporal;

pub use basic::{Always, CmpOp, Never, Probability, ValueCondition};
pub use composite::{AndCondition, NotCondition, OrCondition};
pub use temporal::{
    HourRange, LinearRampProbability, PatternProbability, SinusoidalProbability, TimeWindow,
};

use icewafl_types::{ColumnBatch, Result, StampedTuple};

/// Decides, per tuple, whether a polluter fires.
///
/// `evaluate` may consume randomness (probability conditions own a
/// seeded RNG), hence `&mut self`. [`Condition::expected_probability`]
/// exposes the *analytic* firing probability, which the experiment
/// harness uses to compute the "expected from pollution process"
/// ground-truth series (Fig. 4 of the paper) without running the
/// polluter.
pub trait Condition: Send {
    /// `true` iff the polluter should fire on this tuple.
    fn evaluate(&mut self, tuple: &StampedTuple) -> bool;

    /// The probability that [`Condition::evaluate`] returns `true` for
    /// this tuple (exactly 0 or 1 for deterministic conditions).
    fn expected_probability(&self, tuple: &StampedTuple) -> f64;

    /// A short name for logs and diagnostics.
    fn name(&self) -> &'static str {
        "condition"
    }

    /// This condition's mutable runtime state — its RNG stream
    /// position, for stochastic conditions — as a typed JSON document,
    /// or `None` when stateless. Composites collect their children's
    /// states positionally.
    fn snapshot_state(&self) -> Option<String> {
        None
    }

    /// Restores state captured by [`Condition::snapshot_state`] on a
    /// freshly built condition of the same shape.
    fn restore_state(&mut self, state: &str) -> Result<()> {
        let _ = state;
        Ok(())
    }

    /// `true` iff [`Condition::evaluate_columns`] is implemented and
    /// byte-identical to calling [`Condition::evaluate`] row by row —
    /// same answers *and* the same RNG draw sequence for stochastic
    /// conditions. Conditions without a proof of that equivalence (the
    /// interleaved-draw [`PatternProbability`], composites) leave this
    /// `false` and the columnar pipeline falls back to the row-exact
    /// trampoline for the whole polluter.
    fn has_column_kernel(&self) -> bool {
        false
    }

    /// Evaluates the condition over the rows of `batch` that `rows`
    /// selects, in selection order, writing one byte per position into
    /// `mask` (`mask[k]` for row `rows[k]`: `1` = fires, `0` = not).
    /// `mask.len()` equals `rows.len()`; prior contents are overwritten.
    /// A stochastic condition draws for the selected rows in selection
    /// order, as [`Condition::evaluate`] over those rows would.
    ///
    /// Only called when [`Condition::has_column_kernel`] is `true`; the
    /// default is unreachable by construction.
    fn evaluate_columns(&mut self, batch: &ColumnBatch, rows: &[u32], mask: &mut [u8]) {
        let _ = (batch, rows, mask);
        unreachable!("evaluate_columns called on a condition without a column kernel");
    }
}

/// Boxed condition, the unit of composition.
pub type BoxCondition = Box<dyn Condition>;

#[cfg(test)]
pub(crate) mod test_util {
    use icewafl_types::{StampedTuple, Timestamp, Tuple, Value};

    /// A two-attribute tuple `(Time, x)` at event time `tau_ms`.
    pub fn tuple_at(tau_ms: i64, x: impl Into<Value>) -> StampedTuple {
        StampedTuple::new(
            0,
            Timestamp(tau_ms),
            Tuple::new(vec![Value::Timestamp(Timestamp(tau_ms)), x.into()]),
        )
    }
}
