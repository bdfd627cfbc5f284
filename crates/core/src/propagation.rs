//! Inter-tuple error dependencies (the paper's §5 outlook, items 1–2).
//!
//! The motivating example (Fig. 1) shows errors that *propagate*: clouds
//! disturb sensors S1/S2 now and sensor S4 after a time delay, and the
//! logical sensor S3 inherits any error of its sources. The published
//! pollution model can only approximate such patterns; the outlook
//! proposes time-dependent states and per-key state. This module
//! implements both:
//!
//! * [`PropagationPolluter`] — when a trigger condition fires at `τ_t`,
//!   a *consequent* error is applied to all tuples with
//!   `τ ∈ [τ_t + delay, τ_t + delay + duration)` (possibly a different
//!   error on different attributes than the triggering one);
//! * [`KeyedPolluter`] — partitions the stream by a key attribute and
//!   runs an independent inner polluter per key (per-sensor frozen
//!   values, per-station bursts, …), the keyed-state design of §5
//!   item 2.

use crate::condition::BoxCondition;
use crate::error_fn::ErrorFunction;
use crate::log::LogEntry;
use crate::polluter::{BoxPolluter, Emission, Polluter};
use crate::snapshot::ValueWire;
use icewafl_types::{Duration, Error, Result, Schema, StampedTuple, Text, Timestamp, Value};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Propagates an error: a trigger at `τ_t` causes a consequent error on
/// later tuples in `[τ_t + delay, τ_t + delay + duration)`.
///
/// Multiple pending propagations may be active at once (each trigger
/// schedules its own window); overlapping windows apply the error once
/// per tuple.
pub struct PropagationPolluter {
    name: Text,
    trigger: BoxCondition,
    /// Optional restriction of the consequent: only tuples matching
    /// this condition are polluted inside an active window (Fig. 1:
    /// trigger on S1, consequent on S4).
    consequent_filter: Option<BoxCondition>,
    delay: Duration,
    duration: Duration,
    error_fn: Box<dyn ErrorFunction>,
    attrs: Vec<usize>,
    attr_names: Vec<Text>,
    /// Active/future windows `[start, end)`, ordered by insertion (and
    /// therefore by start, since τ is non-decreasing per sub-stream).
    windows: VecDeque<(Timestamp, Timestamp)>,
    before: Vec<Value>,
}

impl PropagationPolluter {
    /// Binds a propagation polluter to a schema.
    ///
    /// `delay` and `duration` must be non-negative; `duration` must be
    /// positive for the consequent to ever fire.
    pub fn bind(
        name: impl Into<Text>,
        trigger: BoxCondition,
        delay: Duration,
        duration: Duration,
        error_fn: Box<dyn ErrorFunction>,
        attr_names: &[&str],
        schema: &Schema,
    ) -> Result<Self> {
        if delay.millis() < 0 {
            return Err(Error::config("propagation delay must be non-negative"));
        }
        if duration.millis() <= 0 {
            return Err(Error::config("propagation duration must be positive"));
        }
        let attrs: Vec<usize> = attr_names
            .iter()
            .map(|n| schema.require(n))
            .collect::<Result<_>>()?;
        error_fn.validate(schema, &attrs)?;
        Ok(PropagationPolluter {
            name: name.into(),
            trigger,
            consequent_filter: None,
            delay,
            duration,
            error_fn,
            attrs,
            attr_names: attr_names.iter().map(|&s| Text::from(s)).collect(),
            windows: VecDeque::new(),
            before: Vec::new(),
        })
    }

    /// Restricts the consequent error to tuples matching `filter` —
    /// the "trigger on S1, pollute S4" pattern of the motivating
    /// example.
    pub fn with_consequent_filter(mut self, filter: BoxCondition) -> Self {
        self.consequent_filter = Some(filter);
        self
    }

    /// Number of scheduled (not yet expired) propagation windows.
    pub fn pending_windows(&self) -> usize {
        self.windows.len()
    }

    fn in_active_window(&mut self, tau: Timestamp) -> bool {
        // Drop fully expired windows from the front.
        while self.windows.front().is_some_and(|(_, end)| tau >= *end) {
            self.windows.pop_front();
        }
        self.windows
            .iter()
            .any(|(start, end)| tau >= *start && tau < *end)
    }
}

impl Polluter for PropagationPolluter {
    fn process(&mut self, mut tuple: StampedTuple, out: &mut Emission) {
        // Trigger evaluation happens on the *unmodified* tuple.
        if self.trigger.evaluate(&tuple) {
            let start = tuple.tau.saturating_add(self.delay);
            let end = start.saturating_add(self.duration);
            self.windows.push_back((start, end));
        }
        let consequent_applies = self.in_active_window(tuple.tau)
            && self
                .consequent_filter
                .as_mut()
                .is_none_or(|f| f.evaluate(&tuple));
        if consequent_applies {
            self.before.clear();
            self.before.extend(
                self.attrs
                    .iter()
                    .map(|&i| tuple.tuple.get(i).cloned().unwrap_or(Value::Null)),
            );
            self.error_fn
                .apply(&mut tuple.tuple, &self.attrs, tuple.tau, 1.0);
            for (k, &idx) in self.attrs.iter().enumerate() {
                let after = tuple.tuple.get(idx).cloned().unwrap_or(Value::Null);
                if self.before[k] != after {
                    out.record(LogEntry::ValueChanged {
                        tuple_id: tuple.id,
                        polluter: self.name.clone(),
                        attr: self.attr_names[k].clone(),
                        before: std::mem::replace(&mut self.before[k], Value::Null),
                        after,
                        tau: tuple.tau,
                    });
                }
            }
        }
        out.emit(tuple);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        // Trigger probability; the consequent's reach depends on
        // history (time-dependent state, §5 item 1).
        self.trigger.expected_probability(tuple)
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(
            serde_json::to_string(&PropagationState {
                trigger: self.trigger.snapshot_state(),
                filter: self
                    .consequent_filter
                    .as_ref()
                    .and_then(|f| f.snapshot_state()),
                error_fn: self.error_fn.snapshot_state(),
                windows: self
                    .windows
                    .iter()
                    .map(|(start, end)| WindowWire {
                        start: start.0,
                        end: end.0,
                    })
                    .collect(),
            })
            .expect("propagation state serialises"),
        )
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let st: PropagationState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "PropagationState"))?;
        if let Some(doc) = &st.trigger {
            self.trigger.restore_state(doc)?;
        }
        if let (Some(filter), Some(doc)) = (self.consequent_filter.as_mut(), &st.filter) {
            filter.restore_state(doc)?;
        }
        if let Some(doc) = &st.error_fn {
            self.error_fn.restore_state(doc)?;
        }
        self.windows = st
            .windows
            .into_iter()
            .map(|w| (Timestamp(w.start), Timestamp(w.end)))
            .collect();
        Ok(())
    }
}

/// Wire form of a [`PropagationPolluter`]'s checkpoint state.
#[derive(Serialize, Deserialize)]
struct PropagationState {
    trigger: Option<String>,
    filter: Option<String>,
    error_fn: Option<String>,
    windows: Vec<WindowWire>,
}

/// One scheduled `[start, end)` propagation window on the wire.
#[derive(Serialize, Deserialize)]
struct WindowWire {
    start: i64,
    end: i64,
}

/// Partitions the stream by a key attribute and runs an independent
/// inner polluter per key.
///
/// This is the keyed-process-function design the outlook proposes for
/// distributed pollution: each key (sensor id, station, device) carries
/// its own polluter state, so a frozen value on station A does not
/// freeze station B.
///
/// Watermarks and end-of-stream are forwarded to every per-key polluter
/// (Flink's keyed timers behave the same way).
pub struct KeyedPolluter {
    name: Text,
    key_attr: usize,
    factory: Box<dyn FnMut(&Value) -> BoxPolluter + Send>,
    /// Ordered: watermarks and end-of-stream visit the keys in this
    /// order, and what the inner polluters release then (tuples, log
    /// entries) must come out the same way on every run.
    per_key: BTreeMap<String, KeyEntry>,
}

/// One key's inner polluter plus the original key value — kept so a
/// checkpoint restore can re-invoke the factory with the exact value
/// (the map key is only its string rendering).
struct KeyEntry {
    value: Value,
    inner: BoxPolluter,
}

impl KeyedPolluter {
    /// Binds a keyed polluter: `factory` creates the inner polluter for
    /// each new key value (receiving the key so per-key seeds can be
    /// derived).
    pub fn bind(
        name: impl Into<Text>,
        key_attribute: &str,
        schema: &Schema,
        factory: impl FnMut(&Value) -> BoxPolluter + Send + 'static,
    ) -> Result<Self> {
        Ok(KeyedPolluter {
            name: name.into(),
            key_attr: schema.require(key_attribute)?,
            factory: Box::new(factory),
            per_key: BTreeMap::new(),
        })
    }

    /// Number of distinct keys seen.
    pub fn key_count(&self) -> usize {
        self.per_key.len()
    }

    fn key_of(&self, tuple: &StampedTuple) -> String {
        tuple
            .tuple
            .get(self.key_attr)
            .map_or_else(String::new, ToString::to_string)
    }
}

impl Polluter for KeyedPolluter {
    fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
        let key = self.key_of(&tuple);
        let entry = match self.per_key.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let value = tuple
                    .tuple
                    .get(self.key_attr)
                    .cloned()
                    .unwrap_or(Value::Null);
                let inner = (self.factory)(&value);
                e.insert(KeyEntry { value, inner })
            }
        };
        entry.inner.process(tuple, out);
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        for entry in self.per_key.values_mut() {
            entry.inner.on_watermark(wm, out);
        }
    }

    fn finish(&mut self, out: &mut Emission) {
        for entry in self.per_key.values_mut() {
            entry.inner.finish(out);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        let key = self.key_of(tuple);
        self.per_key
            .get(&key)
            .map_or(0.0, |entry| entry.inner.expected_probability(tuple))
    }

    fn snapshot_state(&self) -> Option<String> {
        let entries: Vec<KeyedEntryWire> = self
            .per_key
            .iter()
            .map(|(key, entry)| KeyedEntryWire {
                key: key.clone(),
                value: ValueWire::from_value(&entry.value),
                state: entry.inner.snapshot_state(),
            })
            .collect();
        Some(serde_json::to_string(&KeyedState { entries }).expect("keyed state serialises"))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let st: KeyedState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "KeyedState"))?;
        self.per_key.clear();
        for entry in st.entries {
            let value = entry.value.into_value();
            let mut inner = (self.factory)(&value);
            if let Some(doc) = &entry.state {
                inner.restore_state(doc)?;
            }
            self.per_key.insert(entry.key, KeyEntry { value, inner });
        }
        Ok(())
    }
}

/// Wire form of a [`KeyedPolluter`]'s checkpoint state: every key seen
/// so far, its original attribute value, and the inner polluter's state.
#[derive(Serialize, Deserialize)]
struct KeyedState {
    entries: Vec<KeyedEntryWire>,
}

/// One key partition on the wire.
#[derive(Serialize, Deserialize)]
struct KeyedEntryWire {
    key: String,
    value: ValueWire,
    state: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Always, CmpOp, ValueCondition};
    use crate::error_fn::{GaussianNoise, MissingValue, ScaleByFactor};
    use crate::log::PollutionLog;
    use crate::pattern::ChangePattern;
    use crate::polluter::StandardPolluter;
    use crate::temporal::FreezePolluter;
    use icewafl_types::{DataType, Tuple};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("sensor", DataType::Str),
            ("x", DataType::Float),
        ])
        .unwrap()
    }

    fn tuple(id: u64, tau_ms: i64, sensor: &str, x: f64) -> StampedTuple {
        StampedTuple::new(
            id,
            Timestamp(tau_ms),
            Tuple::new(vec![
                Value::Timestamp(Timestamp(tau_ms)),
                Value::Str(sensor.into()),
                Value::Float(x),
            ]),
        )
    }

    fn run(p: &mut dyn Polluter, tuples: Vec<StampedTuple>) -> (Vec<StampedTuple>, PollutionLog) {
        let mut out = Vec::new();
        let mut log = PollutionLog::new();
        for t in tuples {
            let mut em = Emission::new(&mut out, &mut log);
            p.process(t, &mut em);
        }
        let mut em = Emission::new(&mut out, &mut log);
        p.finish(&mut em);
        (out, log)
    }

    #[test]
    fn propagation_fires_after_delay_for_duration() {
        let s = schema();
        // Trigger on x == 99 (the "cloud" passing S1); consequent nulls
        // x for 100 ms, starting 200 ms later (the cloud reaching S4).
        let mut p = PropagationPolluter::bind(
            "drifting-cloud",
            Box::new(ValueCondition::new(2, CmpOp::Eq, Value::Float(99.0))),
            Duration::from_millis(200),
            Duration::from_millis(100),
            Box::new(MissingValue),
            &["x"],
            &s,
        )
        .unwrap();
        let (out, log) = run(
            &mut p,
            vec![
                tuple(1, 0, "S1", 99.0),  // trigger; NOT itself polluted
                tuple(2, 100, "S4", 1.0), // before the window
                tuple(3, 200, "S4", 2.0), // window start
                tuple(4, 299, "S4", 3.0), // inside
                tuple(5, 300, "S4", 4.0), // window end (exclusive)
            ],
        );
        let nulls: Vec<u64> = out
            .iter()
            .filter(|t| t.tuple.get(2).unwrap().is_null())
            .map(|t| t.id)
            .collect();
        assert_eq!(nulls, vec![3, 4]);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn consequent_filter_restricts_targets() {
        let s = schema();
        // Trigger on S1's 99-reading; consequent hits only S4 tuples.
        let mut p = PropagationPolluter::bind(
            "drifting-cloud",
            Box::new(ValueCondition::new(2, CmpOp::Eq, Value::Float(99.0))),
            Duration::from_millis(100),
            Duration::from_millis(100),
            Box::new(MissingValue),
            &["x"],
            &s,
        )
        .unwrap()
        .with_consequent_filter(Box::new(ValueCondition::new(
            1,
            CmpOp::Eq,
            Value::Str("S4".into()),
        )));
        let (out, log) = run(
            &mut p,
            vec![
                tuple(1, 0, "S1", 99.0),  // trigger
                tuple(2, 150, "S2", 1.0), // in window, wrong sensor
                tuple(3, 150, "S4", 2.0), // in window, polluted
            ],
        );
        assert!(!out[1].tuple.get(2).unwrap().is_null(), "S2 untouched");
        assert!(
            out[2].tuple.get(2).unwrap().is_null(),
            "S4 inherits the error"
        );
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn propagation_overlapping_windows_apply_once() {
        let s = schema();
        let mut p = PropagationPolluter::bind(
            "cascade",
            Box::new(ValueCondition::new(2, CmpOp::Eq, Value::Float(99.0))),
            Duration::from_millis(10),
            Duration::from_millis(100),
            Box::new(ScaleByFactor::new(2.0)),
            &["x"],
            &s,
        )
        .unwrap();
        // Two triggers 20 ms apart → overlapping windows; a tuple in the
        // overlap must be scaled once, not twice.
        let (out, _) = run(
            &mut p,
            vec![
                tuple(1, 0, "S1", 99.0),
                tuple(2, 20, "S1", 99.0),
                tuple(3, 50, "S4", 10.0), // in both windows
            ],
        );
        assert_eq!(
            out[2].tuple.get(2).unwrap(),
            &Value::Float(20.0),
            "scaled exactly once"
        );
        assert_eq!(p.pending_windows(), 2);
    }

    #[test]
    fn propagation_expired_windows_are_dropped() {
        let s = schema();
        let mut p = PropagationPolluter::bind(
            "cascade",
            Box::new(ValueCondition::new(2, CmpOp::Eq, Value::Float(99.0))),
            Duration::ZERO,
            Duration::from_millis(10),
            Box::new(MissingValue),
            &["x"],
            &s,
        )
        .unwrap();
        let (out, _) = run(
            &mut p,
            vec![
                tuple(1, 0, "S1", 99.0), // trigger; window [0, 10) — also hits itself
                tuple(2, 100, "S4", 1.0),
            ],
        );
        // Zero delay: the triggering tuple is inside its own window.
        assert!(out[0].tuple.get(2).unwrap().is_null());
        assert!(!out[1].tuple.get(2).unwrap().is_null());
        assert_eq!(p.pending_windows(), 0, "expired window pruned");
    }

    #[test]
    fn propagation_validates_configuration() {
        let s = schema();
        assert!(PropagationPolluter::bind(
            "x",
            Box::new(Always),
            Duration::from_millis(-1),
            Duration::from_millis(10),
            Box::new(MissingValue),
            &["x"],
            &s
        )
        .is_err());
        assert!(PropagationPolluter::bind(
            "x",
            Box::new(Always),
            Duration::ZERO,
            Duration::ZERO,
            Box::new(MissingValue),
            &["x"],
            &s
        )
        .is_err());
        assert!(PropagationPolluter::bind(
            "x",
            Box::new(Always),
            Duration::ZERO,
            Duration::from_millis(1),
            Box::new(GaussianNoise::additive(1.0, StdRng::seed_from_u64(1))),
            &["sensor"], // non-numeric target rejected
            &s
        )
        .is_err());
    }

    #[test]
    fn keyed_polluter_isolates_state_per_key() {
        let s = schema();
        // Per-sensor freeze: when a sensor reports 42, freeze *that
        // sensor's* readings for 1000 ms.
        let schema_for_factory = s.clone();
        let mut p = KeyedPolluter::bind("per-sensor-freeze", "sensor", &s, move |_key| {
            Box::new(
                FreezePolluter::bind(
                    "stuck",
                    Box::new(ValueCondition::new(2, CmpOp::Eq, Value::Float(42.0))),
                    Duration::from_millis(1000),
                    &["x"],
                    &schema_for_factory,
                )
                .unwrap(),
            )
        })
        .unwrap();
        let (out, _) = run(
            &mut p,
            vec![
                tuple(1, 0, "A", 42.0), // A freezes at 42
                tuple(2, 10, "B", 1.0), // B unaffected
                tuple(3, 20, "A", 7.0), // frozen → 42
                tuple(4, 30, "B", 2.0), // still unaffected
            ],
        );
        let xs: Vec<f64> = out
            .iter()
            .map(|t| t.tuple.get(2).unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![42.0, 1.0, 42.0, 2.0]);
        assert_eq!(p.key_count(), 2);
    }

    #[test]
    fn keyed_polluter_per_key_seeds() {
        let s = schema();
        // The factory receives the key, enabling per-key RNG derivation.
        let seeds = crate::rng::SeedFactory::new(5);
        let schema_for_factory = s.clone();
        let mut p = KeyedPolluter::bind("per-key-noise", "sensor", &s, move |key| {
            let path = format!("/keyed/{key}");
            Box::new(
                StandardPolluter::bind(
                    "noise",
                    Box::new(GaussianNoise::additive(1.0, seeds.rng_for(&path))),
                    Box::new(Always),
                    &["x"],
                    ChangePattern::Constant,
                    &schema_for_factory,
                    seeds.rng_for(&format!("{path}/pattern")),
                )
                .unwrap(),
            )
        })
        .unwrap();
        let (out_a, _) = run(&mut p, vec![tuple(1, 0, "A", 10.0)]);
        // A fresh keyed polluter with the same seeds reproduces A's draw.
        let seeds2 = crate::rng::SeedFactory::new(5);
        let schema2 = s.clone();
        let mut p2 = KeyedPolluter::bind("per-key-noise", "sensor", &s, move |key| {
            let path = format!("/keyed/{key}");
            Box::new(
                StandardPolluter::bind(
                    "noise",
                    Box::new(GaussianNoise::additive(1.0, seeds2.rng_for(&path))),
                    Box::new(Always),
                    &["x"],
                    ChangePattern::Constant,
                    &schema2,
                    seeds2.rng_for(&format!("{path}/pattern")),
                )
                .unwrap(),
            )
        })
        .unwrap();
        // Different arrival order must not change A's pollution.
        let (out_b, _) = run(&mut p2, vec![tuple(0, 0, "B", 5.0), tuple(1, 0, "A", 10.0)]);
        assert_eq!(out_a[0].tuple.get(2), out_b[1].tuple.get(2));
    }

    #[test]
    fn keyed_polluter_forwards_watermarks_to_all_keys() {
        let s = schema();
        let schema_for_factory = s.clone();
        let mut p = KeyedPolluter::bind("per-key-delay", "sensor", &s, move |_| {
            Box::new(
                crate::temporal::DelayPolluter::new(
                    "late",
                    Box::new(Always),
                    Duration::from_millis(50),
                )
                .unwrap(),
            ) as BoxPolluter
        })
        .unwrap();
        let _ = schema_for_factory;
        let mut out = Vec::new();
        let mut log = PollutionLog::new();
        {
            let mut em = Emission::new(&mut out, &mut log);
            p.process(tuple(1, 0, "A", 1.0), &mut em);
            p.process(tuple(2, 0, "B", 2.0), &mut em);
        }
        assert!(out.is_empty(), "both delayed");
        {
            let mut em = Emission::new(&mut out, &mut log);
            p.on_watermark(Timestamp(50), &mut em);
        }
        assert_eq!(out.len(), 2, "watermark released both keys");
    }

    #[test]
    fn keyed_polluter_requires_valid_key_attribute() {
        let s = schema();
        assert!(KeyedPolluter::bind("x", "nope", &s, |_| Box::new(
            crate::temporal::DropPolluter::new("d", Box::new(Always))
        ) as BoxPolluter)
        .is_err());
    }
}
