//! Shared wire helpers for checkpoint state snapshots.
//!
//! Polluter, condition, and error-function state travels as *typed*
//! JSON documents (each implementor serialises its own state struct,
//! never a dynamic `serde_json::Value`, whose `f64` number model would
//! silently corrupt 64-bit RNG state words). This module holds the two
//! wire shapes everything shares: an exact RNG stream position and the
//! positional child-state slots of composite structures.

use icewafl_types::{Error, Result, StampedTuple, Text, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Exact xoshiro256++ position of an [`StdRng`]. A `Vec` rather than
/// `[u64; 4]` because the vendored serde has no fixed-size-array impls.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RngState {
    pub s: Vec<u64>,
}

/// Serialises an RNG's exact stream position.
pub(crate) fn rng_doc(rng: &StdRng) -> String {
    serde_json::to_string(&RngState {
        s: rng.state().to_vec(),
    })
    .expect("RNG state serialises")
}

/// Rebuilds an RNG at the position captured by [`rng_doc`].
pub(crate) fn rng_from_doc(doc: &str) -> Result<StdRng> {
    let state: RngState = serde_json::from_str(doc).map_err(|_| Error::parse(doc, "RngState"))?;
    rng_from_words(&state.s)
}

/// Rebuilds an RNG from raw state words (exactly four).
pub(crate) fn rng_from_words(s: &[u64]) -> Result<StdRng> {
    let words: [u64; 4] = s
        .try_into()
        .map_err(|_| Error::config("RNG state must have exactly 4 words"))?;
    Ok(StdRng::from_state(words))
}

/// Positional child-state slots of a composite structure (children of
/// `And`/`Or` conditions, pipeline stages, one-of branches): `None`
/// marks a stateless child. Restore requires identical arity, which
/// holds because both sides are built from the same configuration.
#[derive(Debug, Default, Serialize, Deserialize)]
pub(crate) struct SlotState {
    pub slots: Vec<Option<String>>,
}

impl SlotState {
    /// Wraps child slots into a document; `None` when every child is
    /// stateless, so fully stateless composites stay snapshot-free.
    pub(crate) fn doc(slots: Vec<Option<String>>) -> Option<String> {
        if slots.iter().all(Option::is_none) {
            return None;
        }
        Some(serde_json::to_string(&SlotState { slots }).expect("slots serialise"))
    }

    /// Parses a document produced by [`SlotState::doc`], checking it
    /// carries exactly `arity` slots.
    pub(crate) fn parse(doc: &str, arity: usize, what: &str) -> Result<Vec<Option<String>>> {
        let state: SlotState =
            serde_json::from_str(doc).map_err(|_| Error::parse(doc, "SlotState"))?;
        if state.slots.len() != arity {
            return Err(Error::config(format_args!(
                "{what} state has {} slots, expected {arity}",
                state.slots.len()
            )));
        }
        Ok(state.slots)
    }
}

/// Exact, tagged wire form of a [`Value`].
///
/// `Value`'s own derived serde is `untagged` and therefore lossy on the
/// way back in: `Timestamp` (transparent `i64`) and integral `Float`s
/// both re-enter as `Int`. Checkpointed tuples must round-trip
/// bit-exactly, so floats travel as their IEEE-754 bit pattern and every
/// variant carries its tag.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum ValueWire {
    Null,
    Bool(bool),
    Int(i64),
    /// `f64::to_bits` of a float value.
    F(u64),
    Str(Text),
    /// Epoch-millisecond timestamp.
    Ts(i64),
}

impl ValueWire {
    pub(crate) fn from_value(v: &Value) -> Self {
        match v {
            Value::Null => ValueWire::Null,
            Value::Bool(b) => ValueWire::Bool(*b),
            Value::Int(i) => ValueWire::Int(*i),
            Value::Float(f) => ValueWire::F(f.to_bits()),
            Value::Str(s) => ValueWire::Str(s.clone()),
            Value::Timestamp(t) => ValueWire::Ts(t.0),
        }
    }

    pub(crate) fn into_value(self) -> Value {
        match self {
            ValueWire::Null => Value::Null,
            ValueWire::Bool(b) => Value::Bool(b),
            ValueWire::Int(i) => Value::Int(i),
            ValueWire::F(bits) => Value::Float(f64::from_bits(bits)),
            ValueWire::Str(s) => Value::Str(s),
            ValueWire::Ts(ms) => Value::Timestamp(Timestamp(ms)),
        }
    }
}

/// Exact wire form of a [`StampedTuple`] (payload values via
/// [`ValueWire`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StampedWire {
    pub id: u64,
    pub tau: i64,
    pub arrival: i64,
    pub sub_stream: u32,
    pub values: Vec<ValueWire>,
}

impl StampedWire {
    pub(crate) fn from_tuple(t: &StampedTuple) -> Self {
        StampedWire {
            id: t.id,
            tau: t.tau.0,
            arrival: t.arrival.0,
            sub_stream: t.sub_stream,
            values: t.tuple.values().iter().map(ValueWire::from_value).collect(),
        }
    }

    pub(crate) fn into_tuple(self) -> StampedTuple {
        StampedTuple {
            id: self.id,
            tau: Timestamp(self.tau),
            arrival: Timestamp(self.arrival),
            sub_stream: self.sub_stream,
            tuple: Tuple::new(self.values.into_iter().map(ValueWire::into_value).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn rng_doc_round_trips_exact_position() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..17 {
            rng.next_u64();
        }
        let doc = rng_doc(&rng);
        let mut restored = rng_from_doc(&doc).unwrap();
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn rng_doc_rejects_wrong_word_count() {
        assert!(rng_from_doc("{\"s\":[1,2,3]}").is_err());
        assert!(rng_from_doc("not json").is_err());
    }

    #[test]
    fn value_wire_round_trips_every_variant_exactly() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(5.0), // integral float: untagged serde would Int it
            Value::Float(0.1 + 0.2),
            Value::Str("höhe".into()),
            Value::Timestamp(Timestamp(1234)), // untagged serde would Int it
        ];
        let t = StampedTuple::new(9, Timestamp(50), Tuple::new(values.clone()));
        let doc = serde_json::to_string(&StampedWire::from_tuple(&t)).unwrap();
        let back: StampedWire = serde_json::from_str(&doc).unwrap();
        assert_eq!(back.into_tuple(), t);
    }

    #[test]
    fn slot_state_skips_all_stateless() {
        assert_eq!(SlotState::doc(vec![None, None]), None);
        let doc = SlotState::doc(vec![None, Some("x".into())]).unwrap();
        let slots = SlotState::parse(&doc, 2, "test").unwrap();
        assert_eq!(slots, vec![None, Some("x".to_string())]);
        assert!(SlotState::parse(&doc, 3, "test").is_err());
    }
}
