//! Tuples and their pollution-process enrichment.
//!
//! The paper's preparation step (§2.1, Algorithm 1 lines 1–3) wraps each
//! raw tuple with a unique identifier and a *replicated* timestamp `τ`:
//! the original timestamp attribute may be polluted, while `τ` stays
//! pristine and serves as event time for temporal conditions and as the
//! ground-truth join key between the clean and the dirty stream.

use crate::error::Result;
use crate::schema::Schema;
use crate::time::Timestamp;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A raw data tuple: one value per schema attribute.
///
/// The values live in shared copy-on-write storage. Cloning a tuple
/// bumps a reference count; the first write through a tuple whose
/// values are shared ([`values_mut`](Tuple::values_mut),
/// [`get_mut`](Tuple::get_mut), [`replace`](Tuple::replace)) copies
/// them, so the other holders never see it. A polluter writes only the
/// attributes its condition selects, so the clean stream and the
/// polluted one share every tuple no polluter wrote. Serializes as
/// `{"values": [...]}`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple from its values.
    #[inline]
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Number of values (the arity).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` iff the tuple has no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow all values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutably borrow all values, first copying them if another tuple
    /// shares them.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [Value] {
        Arc::make_mut(&mut self.values)
    }

    /// The value at column `idx`, if in range.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Mutable value at column `idx`, if in range; copies shared values
    /// like [`values_mut`](Tuple::values_mut).
    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut Value> {
        if idx >= self.len() {
            return None;
        }
        self.values_mut().get_mut(idx)
    }

    /// Replaces the value at `idx`, returning the previous value;
    /// copies shared values like [`values_mut`](Tuple::values_mut).
    ///
    /// Panics if `idx` is out of range — polluters resolve indices against
    /// the schema at build time, so an out-of-range index is a programmer
    /// error, not a data error.
    #[inline]
    pub fn replace(&mut self, idx: usize, value: Value) -> Value {
        std::mem::replace(&mut self.values_mut()[idx], value)
    }

    /// Looks a value up by attribute name through a schema.
    pub fn by_name<'a>(&'a self, schema: &Schema, name: &str) -> Option<&'a Value> {
        self.get(schema.index_of(name)?)
    }

    /// Consumes the tuple, yielding its values: moved out when this
    /// tuple is their only holder, cloned when they are shared.
    pub fn into_values(self) -> Vec<Value> {
        let mut values = Vec::with_capacity(self.len());
        self.for_each_value(|v| values.push(v));
        values
    }

    /// Consumes the tuple, handing each value to `f` in column order:
    /// moved out when this tuple is their only holder, cloned when they
    /// are shared.
    pub(crate) fn for_each_value(mut self, f: impl FnMut(Value)) {
        match Arc::get_mut(&mut self.values) {
            Some(values) => values.iter_mut().map(std::mem::take).for_each(f),
            None => self.values.iter().cloned().for_each(f),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Collects straight into the tuple's storage: an exact-size iterator
/// (a mapped slice or range, `repeat_n`) allocates it once.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Tuple {
            values: values.into_iter().collect(),
        }
    }
}

/// A tuple enriched by the preparation step: unique `id`, replicated
/// event time `tau`, and (after integration) the sub-stream it was
/// polluted in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StampedTuple {
    /// Unique identifier assigned in Algorithm 1 line 2. Never polluted;
    /// joins dirty tuples back to their clean originals.
    pub id: u64,
    /// Replicated timestamp `τ` (Algorithm 1 line 3). Never polluted;
    /// drives temporal conditions and serves as ground truth.
    pub tau: Timestamp,
    /// The time at which this tuple becomes visible downstream.
    ///
    /// Initially equal to `tau`. A *delayed tuple* polluter pushes it
    /// forward; the final `sortByTimestamp` of Algorithm 1 orders the
    /// merged output by this field, so a delayed tuple shows up late —
    /// with its (unchanged) timestamp attribute now violating the
    /// stream's increasing order, exactly the signal experiment 3.1.3
    /// detects.
    pub arrival: Timestamp,
    /// Identifier of the sub-stream this tuple passed through
    /// (Algorithm 1 line 10); `0` until sub-streams are created.
    pub sub_stream: u32,
    /// The payload tuple — this is what polluters mutate.
    pub tuple: Tuple,
}

impl StampedTuple {
    /// Wraps a raw tuple with its identity and replicated event time.
    /// The arrival time starts equal to `tau`.
    pub fn new(id: u64, tau: Timestamp, tuple: Tuple) -> Self {
        StampedTuple {
            id,
            tau,
            arrival: tau,
            sub_stream: 0,
            tuple,
        }
    }

    /// Reads the (possibly polluted) timestamp *attribute* through the
    /// schema. Contrast with [`StampedTuple::tau`], which is immutable.
    pub fn ts_attribute(&self, schema: &Schema) -> Result<Option<Timestamp>> {
        let idx = schema.require_timestamp()?;
        match &self.tuple.values()[idx] {
            Value::Null => Ok(None),
            v => Ok(Some(v.expect_timestamp()?)),
        }
    }
}

impl fmt::Display for StampedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} @{} {}", self.id, self.tau, self.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("BPM", DataType::Int)]).unwrap()
    }

    #[test]
    fn accessors() {
        let mut t = Tuple::new(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.get(0), Some(&Value::Int(1)));
        assert_eq!(t.get(9), None);
        *t.get_mut(0).unwrap() = Value::Int(2);
        assert_eq!(t.get(0), Some(&Value::Int(2)));
        let old = t.replace(1, Value::Null);
        assert_eq!(old, Value::Str("a".into()));
        assert!(t.get(1).unwrap().is_null());
    }

    #[test]
    #[should_panic]
    fn replace_out_of_range_panics() {
        let mut t = Tuple::new(vec![Value::Int(1)]);
        t.replace(5, Value::Null);
    }

    #[test]
    fn by_name() {
        let s = schema();
        let t = Tuple::new(vec![Value::Timestamp(Timestamp(0)), Value::Int(70)]);
        assert_eq!(t.by_name(&s, "BPM"), Some(&Value::Int(70)));
        assert_eq!(t.by_name(&s, "nope"), None);
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::Int(1), Value::Null, Value::Str("x".into())]);
        assert_eq!(t.to_string(), "(1, , x)");
    }

    #[test]
    fn stamped_preserves_tau_independent_of_attribute() {
        let s = schema();
        let tau = Timestamp::from_ymd(2016, 2, 26).unwrap();
        let mut st = StampedTuple::new(
            7,
            tau,
            Tuple::new(vec![Value::Timestamp(tau), Value::Int(70)]),
        );
        // Pollute the timestamp *attribute*.
        st.tuple.replace(0, Value::Timestamp(Timestamp(0)));
        assert_eq!(st.tau, tau, "replicated event time must not change");
        assert_eq!(st.ts_attribute(&s).unwrap(), Some(Timestamp(0)));
    }

    #[test]
    fn arrival_starts_at_tau_and_can_be_delayed() {
        let tau = Timestamp(1_000);
        let mut st = StampedTuple::new(1, tau, Tuple::new(vec![Value::Int(1)]));
        assert_eq!(st.arrival, tau);
        st.arrival = tau + crate::time::Duration::from_hours(1);
        assert_eq!(st.tau, tau, "tau is immutable ground truth");
        assert!(st.arrival > st.tau);
    }

    #[test]
    fn ts_attribute_null_and_missing_schema() {
        let s = schema();
        let st = StampedTuple::new(
            1,
            Timestamp(5),
            Tuple::new(vec![Value::Null, Value::Int(1)]),
        );
        assert_eq!(st.ts_attribute(&s).unwrap(), None);
        let no_ts = Schema::from_pairs([("x", DataType::Int)]).unwrap();
        let st2 = StampedTuple::new(1, Timestamp(5), Tuple::new(vec![Value::Int(1)]));
        assert!(st2.ts_attribute(&no_ts).is_err());
    }

    #[test]
    fn into_values_and_from() {
        let t: Tuple = vec![Value::Int(1)].into();
        assert_eq!(t.into_values(), vec![Value::Int(1)]);
    }

    #[test]
    fn tuples_of_every_arity_behave_alike() {
        let values: Vec<Value> = (0..7).map(Value::Int).collect();
        let mut wide = Tuple::new(values.clone());
        assert_eq!(wide.len(), 7);
        assert_eq!(wide.get(6), Some(&Value::Int(6)));
        assert_eq!(wide.replace(6, Value::Null), Value::Int(6));
        *wide.get_mut(0).unwrap() = Value::Int(-1);
        assert_eq!(wide.values()[0], Value::Int(-1));
        let narrow = Tuple::new(values[..3].to_vec());
        assert_eq!(narrow.clone().into_values(), values[..3].to_vec());
        assert_ne!(narrow, Tuple::new(values[..2].to_vec()));
        let collected: Tuple = values.iter().cloned().collect();
        assert_eq!(collected, Tuple::new(values));
    }

    #[test]
    fn tuples_serialize_like_a_vec_of_values() {
        for n in [0usize, 1, 4, 5, 9] {
            let t = Tuple::new((0..n as i64).map(Value::Int).collect());
            let json = serde_json::to_string(&t).unwrap();
            let values_json =
                serde_json::to_string(&(0..n as i64).map(Value::Int).collect::<Vec<_>>()).unwrap();
            assert_eq!(json, format!("{{\"values\":{values_json}}}"));
            let back: Tuple = serde_json::from_str(&json).unwrap();
            assert_eq!(back, t);
        }
    }

    fn shared_pair() -> (Tuple, Tuple) {
        let t = Tuple::new(vec![Value::Int(1), Value::Str("a".into())]);
        (t.clone(), t)
    }

    #[test]
    fn a_clone_shares_its_values() {
        let (a, b) = shared_pair();
        assert_eq!(a.values().as_ptr(), b.values().as_ptr());
    }

    #[test]
    fn a_write_to_a_shared_tuple_copies_it_first() {
        let writes: [fn(&mut Tuple); 3] = [
            |t| t.values_mut()[0] = Value::Int(2),
            |t| *t.get_mut(0).unwrap() = Value::Int(2),
            |t| assert_eq!(t.replace(0, Value::Int(2)), Value::Int(1)),
        ];
        for write in writes {
            let (mut written, other) = shared_pair();
            write(&mut written);
            assert_ne!(written.values().as_ptr(), other.values().as_ptr());
            assert_eq!(written.values(), [Value::Int(2), Value::Str("a".into())]);
            assert_eq!(other, shared_pair().1, "the other holder is untouched");
        }
    }

    #[test]
    fn a_write_to_an_unshared_tuple_happens_in_place() {
        let mut t = Tuple::new(vec![Value::Int(1), Value::Null]);
        let at = t.values().as_ptr();
        t.values_mut()[0] = Value::Int(2);
        *t.get_mut(1).unwrap() = Value::Int(3);
        t.replace(0, Value::Int(4));
        assert_eq!(t.values().as_ptr(), at);
        assert_eq!(t.values(), [Value::Int(4), Value::Int(3)]);
        // Dropping the only other holder makes a tuple unshared again.
        let copy = t.clone();
        drop(copy);
        t.replace(1, Value::Null);
        assert_eq!(t.values().as_ptr(), at);
        // An out-of-range `get_mut` copies nothing.
        let (mut a, b) = shared_pair();
        assert!(a.get_mut(2).is_none());
        assert_eq!(a.values().as_ptr(), b.values().as_ptr());
    }

    #[test]
    fn into_values_keeps_every_string_at_its_address() {
        let text = |t: &Tuple| match &t.values()[1] {
            Value::Str(s) => s.as_ptr(),
            v => panic!("not a string: {v:?}"),
        };
        let (shared, other) = shared_pair();
        let at = text(&shared);
        let Value::Str(s) = &shared.into_values()[1] else {
            panic!("a string")
        };
        assert_eq!(s.as_ptr(), at, "a shared tuple's string is shared");
        assert_eq!(text(&other), at);
        let Value::Str(s) = &other.into_values()[1] else {
            panic!("a string")
        };
        assert_eq!(s.as_ptr(), at, "the last holder's string is moved");
    }

    #[test]
    fn stamped_display() {
        let st = StampedTuple::new(3, Timestamp(0), Tuple::new(vec![Value::Int(9)]));
        assert_eq!(st.to_string(), "#3 @1970-01-01 00:00:00 (9)");
    }
}
