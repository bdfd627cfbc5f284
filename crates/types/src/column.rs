//! Columnar batches: a structure-of-arrays alternative to `Vec<StampedTuple>`.
//!
//! A [`ColumnBatch`] holds the same information as a row batch — the
//! stamp fields (`id`, `tau`, `arrival`, `sub_stream`) and every
//! attribute value of every tuple — but laid out per *column*: one typed
//! vector per schema attribute plus a validity bitmap marking which
//! slots hold a value (a cleared bit is SQL `NULL`). Column kernels in
//! `icewafl-core` iterate one attribute vector at a time instead of
//! hopping across per-tuple value slices, and a lowered serve session
//! decodes wire frames into batches and encodes its output from them
//! without a tuple in between.
//!
//! The representation is *lossless but narrower* than rows: a row whose
//! value does not match its column's declared [`DataType`] (and is not
//! `Null`) cannot be stored. [`ColumnBatch::from_rows`] therefore
//! returns the rows back untouched when any value disagrees with the
//! schema, and callers fall back to row execution — the conversion is a
//! checked boundary, never a coercion. `from_rows` followed by
//! [`ColumnBatch::into_rows`] reproduces the input exactly, byte for
//! byte, which is what lets the columnar execution path share the
//! engine's pinned byte-identical-output invariants.
//!
//! # Selections and masks
//!
//! Kernels run over a **row selection** of a batch: `rows: &[u32]`,
//! the row indices a sub-stream owns, in the order it takes them (all
//! of `0..len` when it owns the whole batch). Within a selection they
//! describe row subsets with two representations that this module
//! converts between:
//!
//! * the **validity bitmap** every [`Column`] carries (one bit per row,
//!   little-endian within `u64` words; a set bit means the slot holds a
//!   value), and
//! * **byte masks** (`&[u8]`, one byte per *position in the selection*,
//!   `0` = excluded, non-zero = selected) — the form condition kernels
//!   fill and error kernels consume, chosen so the select loops below
//!   are branch-free instead of per-row bit tests and jumps.
//!
//! [`Column::fill_validity_mask`] expands the bitmap of the selected
//! rows into a byte mask, [`Column::mask_and_validity`] intersects a
//! byte mask with it, and [`Column::clear_validity_masked`] /
//! [`Column::set_validity_masked`] fold a byte mask back into the
//! bitmap. Every masked operation takes the selection and a mask of
//! the same length; `mask[k]` speaks for row `rows[k]`.

use crate::schema::{DataType, Schema};
use crate::text::Text;
use crate::time::Timestamp;
use crate::tuple::{StampedTuple, Tuple};
use crate::value::{round_to_i64, Value};
use serde::{Deserialize, Serialize};

/// The typed values of one column. Invalid (NULL) slots hold the type's
/// default value and are masked by the owning [`Column`]'s validity
/// bitmap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ColumnData {
    /// Boolean attribute values.
    Bool(Vec<bool>),
    /// 64-bit integer attribute values.
    Int(Vec<i64>),
    /// 64-bit float attribute values.
    Float(Vec<f64>),
    /// String attribute values.
    Str(Vec<Text>),
    /// Millisecond timestamps.
    Timestamp(Vec<i64>),
}

impl ColumnData {
    fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
            DataType::Timestamp => ColumnData::Timestamp(Vec::with_capacity(cap)),
        }
    }

    /// The schema type this column stores.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Timestamp(_) => DataType::Timestamp,
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Timestamp(v) => v.len(),
        }
    }

    /// Pushes the type's default value (the slot for a NULL).
    fn push_default(&mut self) {
        match self {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(Text::default()),
            ColumnData::Timestamp(v) => v.push(0),
        }
    }

    /// Pushes a matching value; `false` (nothing pushed) on a type
    /// mismatch.
    fn push_value(&mut self, value: Value) -> bool {
        match (self, value) {
            (ColumnData::Bool(v), Value::Bool(b)) => v.push(b),
            (ColumnData::Int(v), Value::Int(i)) => v.push(i),
            (ColumnData::Float(v), Value::Float(f)) => v.push(f),
            (ColumnData::Str(v), Value::Str(s)) => v.push(s),
            (ColumnData::Timestamp(v), Value::Timestamp(t)) => v.push(t.0),
            _ => return false,
        }
        true
    }

    fn value_at(&self, row: usize) -> Value {
        match self {
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
            ColumnData::Timestamp(v) => Value::Timestamp(Timestamp(v[row])),
        }
    }

    fn take_value_at(&mut self, row: usize) -> Value {
        match self {
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str(v) => Value::Str(std::mem::take(&mut v[row])),
            ColumnData::Timestamp(v) => Value::Timestamp(Timestamp(v[row])),
        }
    }

    /// Overwrites a slot with a matching value; `false` (slot untouched)
    /// on a type mismatch.
    fn set_value(&mut self, row: usize, value: Value) -> bool {
        match (self, value) {
            (ColumnData::Bool(v), Value::Bool(b)) => v[row] = b,
            (ColumnData::Int(v), Value::Int(i)) => v[row] = i,
            (ColumnData::Float(v), Value::Float(f)) => v[row] = f,
            (ColumnData::Str(v), Value::Str(s)) => v[row] = s,
            (ColumnData::Timestamp(v), Value::Timestamp(t)) => v[row] = t.0,
            _ => return false,
        }
        true
    }
}

/// One attribute column: typed values plus a validity bitmap (bit set =
/// the slot holds a value, bit clear = NULL).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    data: ColumnData,
    /// One bit per row, little-endian within each `u64` word.
    validity: Vec<u64>,
}

impl Column {
    fn with_capacity(dtype: DataType, cap: usize) -> Self {
        Column {
            data: ColumnData::with_capacity(dtype, cap),
            validity: Vec::with_capacity(cap.div_ceil(64)),
        }
    }

    /// The typed value vector.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Mutable access to the typed value vector (kernels). Changing a
    /// slot's value does not touch its validity bit; use
    /// [`Column::set_valid`] alongside.
    pub fn data_mut(&mut self) -> &mut ColumnData {
        &mut self.data
    }

    /// The schema type of this column.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// Whether `row` holds a value (`false` = NULL).
    pub fn is_valid(&self, row: usize) -> bool {
        self.validity[row / 64] >> (row % 64) & 1 == 1
    }

    /// Sets or clears `row`'s validity bit.
    pub fn set_valid(&mut self, row: usize, valid: bool) {
        let (word, bit) = (row / 64, row % 64);
        if valid {
            self.validity[word] |= 1 << bit;
        } else {
            self.validity[word] &= !(1 << bit);
        }
    }

    fn push_validity(&mut self, valid: bool) {
        let row = self.data.len() - 1;
        if row.is_multiple_of(64) {
            self.validity.push(0);
        }
        if valid {
            self.validity[row / 64] |= 1 << (row % 64);
        }
    }

    /// A column of `data` with validity bitmap `validity` — one bit per
    /// row, little-endian within each `u64` word, a set bit for a slot
    /// that holds a value; a NULL slot holds the type's default value.
    /// What a decoder that reads typed values straight off a wire
    /// builds a column from.
    ///
    /// # Panics
    ///
    /// If `validity` does not have one word per 64 rows of `data`.
    pub fn from_parts(data: ColumnData, validity: Vec<u64>) -> Column {
        assert_eq!(
            validity.len(),
            data.len().div_ceil(64),
            "a validity bitmap has one word per 64 rows"
        );
        Column { data, validity }
    }

    /// The rows at `rows`, in that order, as a new column; strings are
    /// shared with this one.
    fn gather(&self, rows: &[u32]) -> Column {
        fn pick<T: Clone>(v: &[T], rows: &[u32]) -> Vec<T> {
            rows.iter().map(|&r| v[r as usize].clone()).collect()
        }
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, rows)),
            ColumnData::Int(v) => ColumnData::Int(pick(v, rows)),
            ColumnData::Float(v) => ColumnData::Float(pick(v, rows)),
            ColumnData::Str(v) => ColumnData::Str(pick(v, rows)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(pick(v, rows)),
        };
        Column {
            data,
            validity: self.gather_validity(rows),
        }
    }

    fn gather_validity(&self, rows: &[u32]) -> Vec<u64> {
        let mut validity = vec![0u64; rows.len().div_ceil(64)];
        for (to, &from) in rows.iter().enumerate() {
            validity[to / 64] |= u64::from(self.is_valid(from as usize)) << (to % 64);
        }
        validity
    }

    /// The value at `row` as a dynamic [`Value`] (NULL slots read as
    /// [`Value::Null`]). Strings are cloned.
    pub fn value_at(&self, row: usize) -> Value {
        if self.is_valid(row) {
            self.data.value_at(row)
        } else {
            Value::Null
        }
    }

    /// Like [`Column::value_at`] but *moves* a string out, leaving an
    /// empty slot behind — only safe when the batch is being consumed.
    fn take_value_at(&mut self, row: usize) -> Value {
        if self.is_valid(row) {
            self.data.take_value_at(row)
        } else {
            Value::Null
        }
    }

    /// Writes `value` into `row`. `Null` clears the validity bit; a
    /// matching value overwrites the slot and sets it. Returns `false`
    /// (slot untouched) when the value's type disagrees with the column.
    pub fn set_value(&mut self, row: usize, value: Value) -> bool {
        match value {
            Value::Null => {
                self.set_valid(row, false);
                true
            }
            v => {
                if self.data.set_value(row, v) {
                    self.set_valid(row, true);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Expands the validity bits of the selected rows into a byte mask:
    /// `out[k]` becomes `1` when row `rows[k]` holds a value and `0`
    /// when it is NULL. `out` is as long as `rows`.
    ///
    /// ```
    /// use icewafl_types::{ColumnBatch, DataType, Schema, StampedTuple, Timestamp, Tuple, Value};
    /// let schema = Schema::from_pairs([("x", DataType::Int)]).unwrap();
    /// let rows = vec![
    ///     StampedTuple::new(0, Timestamp(0), Tuple::new(vec![Value::Int(7)])),
    ///     StampedTuple::new(1, Timestamp(1), Tuple::new(vec![Value::Null])),
    /// ];
    /// let batch = ColumnBatch::from_rows(&schema, rows).unwrap();
    /// let mut mask = [0u8; 3];
    /// batch.column(0).fill_validity_mask(&[1, 0, 1], &mut mask);
    /// assert_eq!(mask, [0, 1, 0]);
    /// ```
    pub fn fill_validity_mask(&self, rows: &[u32], out: &mut [u8]) {
        debug_assert_eq!(out.len(), rows.len());
        for (m, &r) in out.iter_mut().zip(rows) {
            *m = u8::from(self.is_valid(r as usize));
        }
    }

    /// Intersects a byte mask with the validity bits of the selected
    /// rows in place: positions whose row is NULL drop out of the mask,
    /// selected ones normalize to `1`.
    pub fn mask_and_validity(&self, rows: &[u32], mask: &mut [u8]) {
        debug_assert_eq!(mask.len(), rows.len());
        for (m, &r) in mask.iter_mut().zip(rows) {
            *m = u8::from(*m != 0) & u8::from(self.is_valid(r as usize));
        }
    }

    /// Clears the validity bit of every selected row — the whole-column
    /// form of writing NULL (what the missing-value kernel does). Slot
    /// values are left in place; a cleared row reads as [`Value::Null`].
    pub fn clear_validity_masked(&mut self, rows: &[u32], mask: &[u8]) {
        debug_assert_eq!(mask.len(), rows.len());
        for (&m, &r) in mask.iter().zip(rows) {
            let r = r as usize;
            self.validity[r / 64] &= !(u64::from(m != 0) << (r % 64));
        }
    }

    /// Sets the validity bit of every selected row — used after a
    /// kernel stores concrete values through [`Column::data_mut`] into
    /// possibly-NULL slots.
    pub fn set_validity_masked(&mut self, rows: &[u32], mask: &[u8]) {
        debug_assert_eq!(mask.len(), rows.len());
        for (&m, &r) in mask.iter().zip(rows) {
            let r = r as usize;
            self.validity[r / 64] |= u64::from(m != 0) << (r % 64);
        }
    }

    /// Applies `f(k, x)` to the slot of every *selected, valid* row
    /// `rows[k]` of a numeric column (`Int`, `Float`, `Bool`),
    /// preserving the column's value family exactly like
    /// [`Value::with_numeric`]: `Int` results round to nearest
    /// (saturating), `Bool` results become `x ≠ 0`. Non-numeric columns
    /// are untouched.
    ///
    /// The inner loops are branch-free selects: `f` is evaluated for
    /// every position and the result discarded on unselected or NULL
    /// lanes, so `f` must be pure (no side effects, no randomness —
    /// stochastic kernels iterate selected rows explicitly instead).
    ///
    /// ```
    /// use icewafl_types::{ColumnBatch, DataType, Schema, StampedTuple, Timestamp, Tuple, Value};
    /// let schema = Schema::from_pairs([("x", DataType::Int)]).unwrap();
    /// let rows = (0..3)
    ///     .map(|i| StampedTuple::new(i, Timestamp(0), Tuple::new(vec![Value::Int(i as i64)])))
    ///     .collect();
    /// let mut batch = ColumnBatch::from_rows(&schema, rows).unwrap();
    /// batch.column_mut(0).map_numeric_masked(&[2, 0, 1], &[1, 1, 0], |_, x| x * 10.0);
    /// let out = batch.into_rows();
    /// assert_eq!(out[0].tuple.get(0), Some(&Value::Int(0)));
    /// assert_eq!(out[1].tuple.get(0), Some(&Value::Int(1)), "unselected row untouched");
    /// assert_eq!(out[2].tuple.get(0), Some(&Value::Int(20)));
    /// ```
    pub fn map_numeric_masked(&mut self, rows: &[u32], mask: &[u8], f: impl Fn(usize, f64) -> f64) {
        debug_assert_eq!(mask.len(), rows.len());
        let validity = &self.validity;
        let live = |k: usize, r: usize| mask[k] != 0 && validity[r / 64] >> (r % 64) & 1 == 1;
        match &mut self.data {
            ColumnData::Float(v) => {
                for (k, &r) in rows.iter().enumerate() {
                    let (r, x) = (r as usize, v[r as usize]);
                    let y = f(k, x);
                    v[r] = if live(k, r) { y } else { x };
                }
            }
            ColumnData::Int(v) => {
                for (k, &r) in rows.iter().enumerate() {
                    let (r, x) = (r as usize, v[r as usize]);
                    let y = round_to_i64(f(k, x as f64));
                    v[r] = if live(k, r) { y } else { x };
                }
            }
            ColumnData::Bool(v) => {
                for (k, &r) in rows.iter().enumerate() {
                    let (r, x) = (r as usize, v[r as usize]);
                    let y = f(k, f64::from(x)) != 0.0;
                    v[r] = if live(k, r) { y } else { x };
                }
            }
            ColumnData::Str(_) | ColumnData::Timestamp(_) => {}
        }
    }

    /// Applies `f(millis)` to every selected, valid slot of a
    /// `Timestamp` column (branch-free select, like
    /// [`Column::map_numeric_masked`]). Other column types are
    /// untouched.
    pub fn map_timestamps_masked(&mut self, rows: &[u32], mask: &[u8], f: impl Fn(i64) -> i64) {
        debug_assert_eq!(mask.len(), rows.len());
        let validity = &self.validity;
        if let ColumnData::Timestamp(v) = &mut self.data {
            for (&m, &r) in mask.iter().zip(rows) {
                let (r, x) = (r as usize, v[r as usize]);
                let live = m != 0 && validity[r / 64] >> (r % 64) & 1 == 1;
                let y = f(x);
                v[r] = if live { y } else { x };
            }
        }
    }

    /// Writes `value` into every selected row — the whole-column form
    /// of [`Column::set_value`], used by the constant kernel. `Null`
    /// clears the selected validity bits; a matching value overwrites
    /// the selected slots (valid or NULL) and sets their bits. Returns
    /// `false` (column untouched) when a non-NULL value's type
    /// disagrees with the column.
    pub fn overwrite_masked(&mut self, rows: &[u32], mask: &[u8], value: &Value) -> bool {
        debug_assert_eq!(mask.len(), rows.len());
        fn fill<T: Clone>(v: &mut [T], rows: &[u32], mask: &[u8], c: &T) {
            for (&m, &r) in mask.iter().zip(rows) {
                if m != 0 {
                    v[r as usize].clone_from(c);
                }
            }
        }
        if matches!(value, Value::Null) {
            self.clear_validity_masked(rows, mask);
            return true;
        }
        match (&mut self.data, value) {
            (ColumnData::Bool(v), Value::Bool(c)) => fill(v, rows, mask, c),
            (ColumnData::Int(v), Value::Int(c)) => fill(v, rows, mask, c),
            (ColumnData::Float(v), Value::Float(c)) => fill(v, rows, mask, c),
            (ColumnData::Timestamp(v), Value::Timestamp(c)) => fill(v, rows, mask, &c.0),
            (ColumnData::Str(v), Value::Str(c)) => fill(v, rows, mask, c),
            _ => return false,
        }
        self.set_validity_masked(rows, mask);
        true
    }

    /// The slot's numeric view, mirroring [`Value::as_f64`] over the
    /// column store: `Some` for valid `Int`/`Float`/`Bool` slots, `None`
    /// for NULLs and non-numeric columns.
    pub fn numeric_at(&self, row: usize) -> Option<f64> {
        if !self.is_valid(row) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[row] as f64),
            ColumnData::Float(v) => Some(v[row]),
            ColumnData::Bool(v) => Some(f64::from(v[row])),
            ColumnData::Str(_) | ColumnData::Timestamp(_) => None,
        }
    }

    /// Writes a numeric result back into a slot, preserving the
    /// column's value family exactly like [`Value::with_numeric`].
    /// Non-numeric columns are untouched; validity is not changed (the
    /// caller read the slot through [`Column::numeric_at`], so it was
    /// valid).
    pub fn set_numeric_at(&mut self, row: usize, x: f64) {
        match &mut self.data {
            ColumnData::Int(v) => v[row] = round_to_i64(x),
            ColumnData::Float(v) => v[row] = x,
            ColumnData::Bool(v) => v[row] = x != 0.0,
            ColumnData::Str(_) | ColumnData::Timestamp(_) => {}
        }
    }
}

/// A batch of stamped tuples in structure-of-arrays layout: parallel
/// stamp vectors plus one [`Column`] per schema attribute.
///
/// Invariant: every vector has the same length, and every row of every
/// column either matches the column's [`DataType`] or is NULL — the
/// type discipline rows lack. See the module docs for the conversion
/// contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnBatch {
    ids: Vec<u64>,
    taus: Vec<i64>,
    arrivals: Vec<i64>,
    sub_streams: Vec<u32>,
    columns: Vec<Column>,
}

impl ColumnBatch {
    /// An empty batch shaped for `schema`, with room for `cap` rows.
    pub fn with_capacity(schema: &Schema, cap: usize) -> Self {
        ColumnBatch {
            ids: Vec::with_capacity(cap),
            taus: Vec::with_capacity(cap),
            arrivals: Vec::with_capacity(cap),
            sub_streams: Vec::with_capacity(cap),
            columns: schema
                .fields()
                .iter()
                .map(|f| Column::with_capacity(f.dtype, cap))
                .collect(),
        }
    }

    /// Converts a row batch, consuming it. Returns `Err(rows)` — the
    /// input handed back untouched — when any tuple's arity differs from
    /// the schema or any non-NULL value disagrees with its column's
    /// type; callers then continue on the row path.
    pub fn from_rows(schema: &Schema, rows: Vec<StampedTuple>) -> Result<Self, Vec<StampedTuple>> {
        // Validate first so the move below cannot fail halfway.
        let fits = rows.iter().all(|t| {
            t.tuple.len() == schema.len()
                && t.tuple
                    .values()
                    .iter()
                    .zip(schema.fields())
                    .all(|(v, f)| matches!(v, Value::Null) || v.dtype() == Some(f.dtype))
        });
        if !fits {
            return Err(rows);
        }
        let mut batch = ColumnBatch::with_capacity(schema, rows.len());
        for t in rows {
            batch.ids.push(t.id);
            batch.taus.push(t.tau.0);
            batch.arrivals.push(t.arrival.0);
            batch.sub_streams.push(t.sub_stream);
            let mut columns = batch.columns.iter_mut();
            t.tuple.for_each_value(|value| {
                let col = columns.next().expect("arity validated above");
                match value {
                    Value::Null => {
                        col.data.push_default();
                        col.push_validity(false);
                    }
                    v => {
                        let pushed = col.data.push_value(v);
                        debug_assert!(pushed, "validated above");
                        col.push_validity(true);
                    }
                }
            });
        }
        Ok(batch)
    }

    /// Reconstructs the row batch this batch was built from, exactly:
    /// same stamps, same values, NULLs where validity bits are clear.
    pub fn into_rows(mut self) -> Vec<StampedTuple> {
        let n = self.len();
        let mut rows = Vec::with_capacity(n);
        for row in 0..n {
            let values: Tuple = self
                .columns
                .iter_mut()
                .map(|c| c.take_value_at(row))
                .collect();
            let mut t = StampedTuple::new(self.ids[row], Timestamp(self.taus[row]), values);
            t.arrival = Timestamp(self.arrivals[row]);
            t.sub_stream = self.sub_streams[row];
            rows.push(t);
        }
        rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of attribute columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The tuple ids, in row order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The event times `τ` (ms), in row order.
    pub fn taus(&self) -> &[i64] {
        &self.taus
    }

    /// The arrival times (ms), in row order.
    pub fn arrivals(&self) -> &[i64] {
        &self.arrivals
    }

    /// The sub-stream assignments, in row order.
    pub fn sub_streams(&self) -> &[u32] {
        &self.sub_streams
    }

    /// A batch of `columns` whose rows are yet to be stamped: every
    /// stamp field zero, sub-stream 0 (what preparation leaves) — see
    /// [`ColumnBatch::set_stamp`].
    ///
    /// # Panics
    ///
    /// If the columns differ in length.
    pub fn from_columns(columns: Vec<Column>) -> ColumnBatch {
        let rows = columns.first().map_or(0, |c| c.data.len());
        assert!(
            columns.iter().all(|c| c.data.len() == rows),
            "every column of a batch has one value per row"
        );
        ColumnBatch {
            ids: vec![0; rows],
            taus: vec![0; rows],
            arrivals: vec![0; rows],
            sub_streams: vec![0; rows],
            columns,
        }
    }

    /// Overwrites the id, event time and arrival time of `row` (what
    /// preparation assigns).
    pub fn set_stamp(&mut self, row: usize, id: u64, tau: Timestamp, arrival: Timestamp) {
        self.ids[row] = id;
        self.taus[row] = tau.0;
        self.arrivals[row] = arrival.0;
    }

    /// The rows at `rows`, in that order, as a new batch: stamps and
    /// values copied, strings shared. A row may be picked more than
    /// once.
    pub fn select(&self, rows: &[u32]) -> ColumnBatch {
        fn pick<T: Copy>(v: &[T], rows: &[u32]) -> Vec<T> {
            rows.iter().map(|&r| v[r as usize]).collect()
        }
        ColumnBatch {
            ids: pick(&self.ids, rows),
            taus: pick(&self.taus, rows),
            arrivals: pick(&self.arrivals, rows),
            sub_streams: pick(&self.sub_streams, rows),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
        }
    }

    /// Overwrites every row's sub-stream (what the pollution operator
    /// does on emit).
    pub fn set_sub_stream(&mut self, sub_stream: u32) {
        self.sub_streams.iter_mut().for_each(|s| *s = sub_stream);
    }

    /// Overwrites the sub-stream of the rows at `rows`: what a session
    /// does on emit for the rows a sub-stream polluted in place.
    pub fn set_sub_stream_of(&mut self, rows: &[u32], sub_stream: u32) {
        for &r in rows {
            self.sub_streams[r as usize] = sub_stream;
        }
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Mutable column access (kernels).
    pub fn column_mut(&mut self, idx: usize) -> &mut Column {
        &mut self.columns[idx]
    }

    /// The stamp fields of one row, without its values.
    pub fn stamp(&self, row: usize) -> (u64, Timestamp, Timestamp, u32) {
        (
            self.ids[row],
            Timestamp(self.taus[row]),
            Timestamp(self.arrivals[row]),
            self.sub_streams[row],
        )
    }
}

impl Value {
    /// The [`DataType`] this value inhabits; `None` for `Null` (a member
    /// of every domain).
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("BPM", DataType::Int),
            ("Distance", DataType::Float),
            ("sensor", DataType::Str),
            ("ok", DataType::Bool),
        ])
        .unwrap()
    }

    fn row(id: u64, values: Vec<Value>) -> StampedTuple {
        let mut t = StampedTuple::new(id, Timestamp(id as i64 * 1000), Tuple::new(values));
        t.arrival = Timestamp(id as i64 * 1000 + 7);
        t.sub_stream = (id % 3) as u32;
        t
    }

    fn rows() -> Vec<StampedTuple> {
        (0..100)
            .map(|i| {
                row(
                    i,
                    vec![
                        Value::Timestamp(Timestamp(i as i64 * 1000)),
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Int(70 + i as i64)
                        },
                        Value::Float(i as f64 * 0.5),
                        Value::Str(format!("s{}", i % 4).into()),
                        Value::Bool(i % 2 == 0),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn round_trip_is_exact() {
        let input = rows();
        let batch = ColumnBatch::from_rows(&schema(), input.clone()).unwrap();
        assert_eq!(batch.len(), 100);
        assert_eq!(batch.arity(), 5);
        assert_eq!(batch.into_rows(), input);
    }

    #[test]
    fn nulls_survive_the_round_trip_per_column() {
        let input = vec![row(
            0,
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
        )];
        let batch = ColumnBatch::from_rows(&schema(), input.clone()).unwrap();
        for col in 0..5 {
            assert!(!batch.column(col).is_valid(0));
            assert_eq!(batch.column(col).value_at(0), Value::Null);
        }
        assert_eq!(batch.into_rows(), input);
    }

    #[test]
    fn mismatched_value_hands_rows_back() {
        let mut input = rows();
        // A string where an Int belongs: not representable.
        input[3].tuple.replace(1, Value::Str("oops".into()));
        let back = ColumnBatch::from_rows(&schema(), input.clone()).unwrap_err();
        assert_eq!(back, input, "input returned untouched");
    }

    #[test]
    fn arity_mismatch_hands_rows_back() {
        let mut input = rows();
        input[0] = row(0, vec![Value::Int(1)]);
        assert!(ColumnBatch::from_rows(&schema(), input).is_err());
    }

    #[test]
    fn set_value_enforces_types_and_tracks_validity() {
        let mut batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        let col = batch.column_mut(2);
        assert!(col.set_value(5, Value::Float(99.5)));
        assert_eq!(col.value_at(5), Value::Float(99.5));
        assert!(col.set_value(5, Value::Null));
        assert!(!col.is_valid(5));
        assert_eq!(col.value_at(5), Value::Null);
        // Nulled slot can be revived.
        assert!(col.set_value(5, Value::Float(1.0)));
        assert!(col.is_valid(5));
        // Wrong type: rejected, slot untouched.
        assert!(!col.set_value(5, Value::Int(3)));
        assert_eq!(col.value_at(5), Value::Float(1.0));
    }

    #[test]
    fn validity_bitmap_crosses_word_boundaries() {
        let input: Vec<StampedTuple> = (0..130)
            .map(|i| {
                row(
                    i,
                    vec![
                        Value::Timestamp(Timestamp(0)),
                        if i % 2 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i as i64)
                        },
                        Value::Float(0.0),
                        Value::Str(Text::default()),
                        Value::Bool(false),
                    ],
                )
            })
            .collect();
        let batch = ColumnBatch::from_rows(&schema(), input.clone()).unwrap();
        for i in 0..130 {
            assert_eq!(batch.column(1).is_valid(i), i % 2 == 1, "row {i}");
        }
        assert_eq!(batch.into_rows(), input);
    }

    #[test]
    fn stamps_are_preserved() {
        let batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        assert_eq!(batch.stamp(9), (9, Timestamp(9000), Timestamp(9007), 0));
        assert_eq!(batch.ids()[42], 42);
        assert_eq!(batch.sub_streams()[5], 2);
    }

    #[test]
    fn serde_round_trip() {
        let batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        let json = serde_json::to_string(&batch).unwrap();
        let back: ColumnBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn empty_batch() {
        let batch = ColumnBatch::from_rows(&schema(), Vec::new()).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.into_rows(), Vec::new());
    }

    /// Every row, in order: the selection of a whole batch.
    fn all(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    #[test]
    fn validity_mask_expansion_and_intersection() {
        let batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        let col = batch.column(1); // BPM: NULL on multiples of 7
        let mut mask = vec![0u8; 100];
        col.fill_validity_mask(&all(100), &mut mask);
        for (i, &m) in mask.iter().enumerate() {
            assert_eq!(m, u8::from(i % 7 != 0), "row {i}");
        }
        // Intersection drops NULL rows and normalizes set bytes to 1.
        let mut every = vec![7u8; 100];
        col.mask_and_validity(&all(100), &mut every);
        assert_eq!(every, mask);
        let mut none = vec![0u8; 100];
        col.mask_and_validity(&all(100), &mut none);
        assert!(none.iter().all(|&m| m == 0));
        // Over a selection, position k speaks for row rows[k].
        let picks = [14, 15, 70, 1];
        let mut picked = [9u8; 4];
        col.fill_validity_mask(&picks, &mut picked);
        assert_eq!(picked, [0, 1, 0, 1]);
    }

    #[test]
    fn masked_validity_updates_touch_only_the_selected_rows() {
        let mut batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        let mask: Vec<u8> = (0..100).map(|i| u8::from(i % 3 == 0)).collect();
        batch.column_mut(2).clear_validity_masked(&all(100), &mask);
        for i in 0..100 {
            assert_eq!(batch.column(2).is_valid(i), i % 3 != 0, "row {i}");
        }
        batch.column_mut(2).set_validity_masked(&all(100), &mask);
        for i in 0..100 {
            assert!(batch.column(2).is_valid(i), "row {i} revived");
        }
        // Over a selection, only the selected rows change.
        batch
            .column_mut(2)
            .clear_validity_masked(&[65, 3, 64], &[1, 0, 1]);
        for i in 0..100 {
            assert_eq!(batch.column(2).is_valid(i), i != 64 && i != 65, "row {i}");
        }
    }

    #[test]
    fn map_numeric_masked_preserves_families_and_nulls() {
        let mut batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        let mask = vec![1u8; 100];
        batch
            .column_mut(1)
            .map_numeric_masked(&all(100), &mask, |_, x| x * 2.5);
        batch
            .column_mut(2)
            .map_numeric_masked(&all(100), &mask, |_, x| x + 0.5);
        for i in 0..100 {
            if i % 7 == 0 {
                assert!(!batch.column(1).is_valid(i), "NULL slots stay NULL");
            } else {
                // Int family: rounds to nearest like Value::with_numeric.
                let expect = ((70 + i as i64) as f64 * 2.5).round() as i64;
                assert_eq!(batch.column(1).value_at(i), Value::Int(expect));
            }
            assert_eq!(
                batch.column(2).value_at(i),
                Value::Float(i as f64 * 0.5 + 0.5)
            );
        }
        // The position in the selection reaches the closure (per-row
        // factors).
        let mut batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        batch
            .column_mut(2)
            .map_numeric_masked(&[9, 4], &[1, 1], |k, x| x + k as f64);
        assert_eq!(batch.column(2).value_at(9), Value::Float(9.0 * 0.5));
        assert_eq!(batch.column(2).value_at(4), Value::Float(4.0 * 0.5 + 1.0));
    }

    #[test]
    fn overwrite_masked_matches_set_value_semantics() {
        let mut batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        let mask: Vec<u8> = (0..100).map(|i| u8::from(i < 50)).collect();
        // Constant over a column with NULLs: selected rows (valid or
        // NULL) all end up holding the constant.
        assert!(batch
            .column_mut(1)
            .overwrite_masked(&all(100), &mask, &Value::Int(9)));
        for i in 0..100 {
            let expect = if i < 50 {
                Value::Int(9)
            } else if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(70 + i as i64)
            };
            assert_eq!(batch.column(1).value_at(i), expect, "row {i}");
        }
        // NULL constant clears validity; type mismatch is rejected.
        assert!(batch
            .column_mut(1)
            .overwrite_masked(&all(100), &mask, &Value::Null));
        assert!(!batch.column(1).is_valid(0));
        assert!(!batch
            .column_mut(1)
            .overwrite_masked(&all(100), &mask, &Value::Str("x".into())));
    }

    #[test]
    fn numeric_slot_round_trip() {
        let mut batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        assert_eq!(batch.column(1).numeric_at(1), Some(71.0));
        assert_eq!(batch.column(1).numeric_at(0), None, "NULL slot");
        assert_eq!(batch.column(3).numeric_at(1), None, "string column");
        batch.column_mut(1).set_numeric_at(1, 99.6);
        assert_eq!(batch.column(1).value_at(1), Value::Int(100), "rounds");
        batch.column_mut(4).set_numeric_at(1, 0.0);
        assert_eq!(batch.column(4).value_at(1), Value::Bool(false));
    }

    #[test]
    fn columns_from_parts_and_set_stamps_build_what_from_rows_builds() {
        let input = rows();
        let reference = ColumnBatch::from_rows(&schema(), input.clone()).unwrap();
        let columns = (0..5)
            .map(|col| {
                let c = reference.column(col);
                Column::from_parts(c.data().clone(), c.validity.clone())
            })
            .collect();
        let mut batch = ColumnBatch::from_columns(columns);
        assert_eq!(batch.len(), 100);
        assert_eq!(batch.stamp(42), (0, Timestamp(0), Timestamp(0), 0));
        for (row, t) in input.iter().enumerate() {
            batch.set_stamp(row, t.id, t.tau, t.arrival);
        }
        let mut expected = reference;
        expected.set_sub_stream(0);
        assert_eq!(batch, expected);
    }

    #[test]
    #[should_panic(expected = "one word per 64 rows")]
    fn a_short_validity_bitmap_is_refused() {
        Column::from_parts(ColumnData::Int(vec![0; 65]), vec![0]);
    }

    #[test]
    fn select_picks_rows_in_the_given_order() {
        let input = rows();
        let batch = ColumnBatch::from_rows(&schema(), input.clone()).unwrap();
        let picks = [70, 0, 7, 64, 99, 7];
        let expected: Vec<StampedTuple> =
            picks.iter().map(|&r| input[r as usize].clone()).collect();
        assert_eq!(batch.select(&picks).into_rows(), expected);
        assert!(batch.select(&[]).is_empty());
    }

    #[test]
    fn sub_streams_are_set_per_selection() {
        let mut batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        batch.set_sub_stream(0);
        batch.set_sub_stream_of(&[3, 97], 5);
        assert_eq!(batch.stamp(3).3, 5);
        assert_eq!(batch.stamp(97).3, 5);
        assert_eq!(batch.sub_streams().iter().filter(|&&s| s == 0).count(), 98);
    }

    #[test]
    fn timestamp_masked_map() {
        let mut batch = ColumnBatch::from_rows(&schema(), rows()).unwrap();
        let mask: Vec<u8> = (0..100).map(|i| u8::from(i % 2 == 0)).collect();
        batch
            .column_mut(0)
            .map_timestamps_masked(&all(100), &mask, |t| t + 500);
        assert_eq!(
            batch.column(0).value_at(2),
            Value::Timestamp(Timestamp(2500))
        );
        assert_eq!(
            batch.column(0).value_at(3),
            Value::Timestamp(Timestamp(3000)),
            "unselected row untouched"
        );
    }
}
