//! Native temporal error types (paper Fig. 3): polluters that are
//! temporal *by definition* because they change the stream's shape or
//! timing rather than a value — delayed, dropped, and duplicated tuples,
//! and frozen values.

use crate::condition::BoxCondition;
use crate::log::LogEntry;
use crate::polluter::{Emission, Polluter};
use crate::snapshot::{StampedWire, ValueWire};
use crate::stats::{PendingStats, PolluterStats, PolluterStatsHandle, StatsTotals};
use icewafl_types::{Duration, Error, Result, Schema, StampedTuple, Text, Timestamp, Value};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wire form of the checkpoint state shared by the simple gate-shaped
/// temporal polluters ([`DropPolluter`], [`DuplicatePolluter`]): the
/// condition's state plus staged and cumulative statistics.
#[derive(Serialize, Deserialize)]
struct GateState {
    condition: Option<String>,
    pending: PendingStats,
    totals: StatsTotals,
}

impl GateState {
    fn capture(condition: &BoxCondition, pending: PendingStats, stats: &PolluterStats) -> String {
        serde_json::to_string(&GateState {
            condition: condition.snapshot_state(),
            pending,
            totals: StatsTotals::capture(stats),
        })
        .expect("gate state serialises")
    }

    fn restore(
        state: &str,
        condition: &mut BoxCondition,
        pending: &mut PendingStats,
        stats: &PolluterStats,
    ) -> Result<()> {
        let st: GateState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "GateState"))?;
        if let Some(doc) = &st.condition {
            condition.restore_state(doc)?;
        }
        *pending = st.pending;
        st.totals.restore_into(stats);
        Ok(())
    }
}

/// Delays matching tuples by a fixed amount — the "bad network
/// connection" error of experiment 3.1.3.
///
/// A delayed tuple keeps all its attribute values (including the
/// timestamp attribute) but its [`arrival`](StampedTuple::arrival) moves
/// to `τ + delay`; it is released once the watermark passes that point,
/// so it shows up *late* in the merged, arrival-sorted output and breaks
/// the stream's increasing timestamp order.
pub struct DelayPolluter {
    name: Text,
    condition: BoxCondition,
    delay: Duration,
    held: BinaryHeap<Reverse<Held>>,
    seq: u64,
    stats: PolluterStats,
    pending: PendingStats,
}

struct Held {
    release: Timestamp,
    seq: u64,
    tuple: StampedTuple,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        (self.release, self.seq) == (other.release, other.seq)
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.release, self.seq).cmp(&(other.release, other.seq))
    }
}

impl DelayPolluter {
    /// A delay of `delay` applied to tuples matching `condition`.
    /// Negative delays are rejected.
    pub fn new(name: impl Into<Text>, condition: BoxCondition, delay: Duration) -> Result<Self> {
        if delay.millis() < 0 {
            return Err(icewafl_types::Error::config("delay must be non-negative"));
        }
        Ok(DelayPolluter {
            name: name.into(),
            condition,
            delay,
            held: BinaryHeap::new(),
            seq: 0,
            stats: PolluterStats::new(),
            pending: PendingStats::default(),
        })
    }

    /// Number of tuples currently held back.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    fn release_up_to(&mut self, wm: Timestamp, out: &mut Emission) {
        while let Some(Reverse(top)) = self.held.peek() {
            if top.release > wm {
                break;
            }
            let Reverse(h) = self.held.pop().expect("peeked entry exists");
            out.emit(h.tuple);
        }
    }
}

impl Polluter for DelayPolluter {
    fn process(&mut self, mut tuple: StampedTuple, out: &mut Emission) {
        self.pending.condition_evals += 1;
        if self.condition.evaluate(&tuple) {
            self.pending.fires += 1;
            let release = tuple.arrival.saturating_add(self.delay);
            if out.logging() {
                out.record(LogEntry::TupleDelayed {
                    tuple_id: tuple.id,
                    polluter: self.name.clone(),
                    by: self.delay,
                    tau: tuple.tau,
                });
            }
            tuple.arrival = release;
            self.held.push(Reverse(Held {
                release,
                seq: self.seq,
                tuple,
            }));
            self.seq += 1;
            self.pending.buffer_peak = self.pending.buffer_peak.max(self.held.len() as u64);
        } else {
            self.pending.skips += 1;
            out.emit(tuple);
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        self.release_up_to(wm, out);
        self.pending.flush(&self.stats);
    }

    fn finish(&mut self, out: &mut Emission) {
        self.release_up_to(Timestamp::MAX, out);
        self.pending.flush(&self.stats);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        self.condition.expected_probability(tuple)
    }

    fn collect_stats(&self, out: &mut Vec<PolluterStatsHandle>) {
        out.push(PolluterStatsHandle {
            name: self.name.to_string(),
            stats: self.stats.clone(),
        });
    }

    fn snapshot_state(&self) -> Option<String> {
        let mut held: Vec<HeldWire> = self
            .held
            .iter()
            .map(|Reverse(h)| HeldWire {
                release: h.release.0,
                seq: h.seq,
                tuple: StampedWire::from_tuple(&h.tuple),
            })
            .collect();
        // The heap iterates in arbitrary order; serialise in release
        // order so equal states produce equal documents.
        held.sort_by_key(|h| (h.release, h.seq));
        Some(
            serde_json::to_string(&DelayState {
                condition: self.condition.snapshot_state(),
                held,
                seq: self.seq,
                pending: self.pending,
                totals: StatsTotals::capture(&self.stats),
            })
            .expect("delay state serialises"),
        )
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let st: DelayState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "DelayState"))?;
        if let Some(doc) = &st.condition {
            self.condition.restore_state(doc)?;
        }
        self.held = st
            .held
            .into_iter()
            .map(|h| {
                Reverse(Held {
                    release: Timestamp(h.release),
                    seq: h.seq,
                    tuple: h.tuple.into_tuple(),
                })
            })
            .collect();
        self.seq = st.seq;
        self.pending = st.pending;
        st.totals.restore_into(&self.stats);
        Ok(())
    }
}

/// Wire form of a [`DelayPolluter`]'s checkpoint state.
#[derive(Serialize, Deserialize)]
struct DelayState {
    condition: Option<String>,
    held: Vec<HeldWire>,
    seq: u64,
    pending: PendingStats,
    totals: StatsTotals,
}

/// One held-back tuple on the wire.
#[derive(Serialize, Deserialize)]
struct HeldWire {
    release: i64,
    seq: u64,
    tuple: StampedWire,
}

/// Drops matching tuples from the stream entirely (lost sensor
/// messages).
pub struct DropPolluter {
    name: Text,
    condition: BoxCondition,
    stats: PolluterStats,
    pending: PendingStats,
}

impl DropPolluter {
    /// Drops tuples matching `condition`.
    pub fn new(name: impl Into<Text>, condition: BoxCondition) -> Self {
        DropPolluter {
            name: name.into(),
            condition,
            stats: PolluterStats::new(),
            pending: PendingStats::default(),
        }
    }
}

impl Polluter for DropPolluter {
    fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
        self.pending.condition_evals += 1;
        if self.condition.evaluate(&tuple) {
            self.pending.fires += 1;
            if out.logging() {
                out.record(LogEntry::TupleDropped {
                    tuple_id: tuple.id,
                    polluter: self.name.clone(),
                    tau: tuple.tau,
                });
            }
        } else {
            self.pending.skips += 1;
            out.emit(tuple);
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        let _ = (wm, out);
        self.pending.flush(&self.stats);
    }

    fn finish(&mut self, out: &mut Emission) {
        let _ = out;
        self.pending.flush(&self.stats);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        self.condition.expected_probability(tuple)
    }

    fn collect_stats(&self, out: &mut Vec<PolluterStatsHandle>) {
        out.push(PolluterStatsHandle {
            name: self.name.to_string(),
            stats: self.stats.clone(),
        });
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(GateState::capture(
            &self.condition,
            self.pending,
            &self.stats,
        ))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        GateState::restore(state, &mut self.condition, &mut self.pending, &self.stats)
    }
}

/// Emits matching tuples multiple times (retransmissions, at-least-once
/// delivery). Copies keep the original id, so the ground-truth join
/// reveals them as exact duplicates; merged across sub-streams they
/// become the "fuzzy duplicates" of §2.2.2.
pub struct DuplicatePolluter {
    name: Text,
    condition: BoxCondition,
    copies: u32,
    stats: PolluterStats,
    pending: PendingStats,
}

impl DuplicatePolluter {
    /// Emits `copies` extra copies (≥ 1) of matching tuples.
    pub fn new(name: impl Into<Text>, condition: BoxCondition, copies: u32) -> Self {
        DuplicatePolluter {
            name: name.into(),
            condition,
            copies: copies.max(1),
            stats: PolluterStats::new(),
            pending: PendingStats::default(),
        }
    }
}

impl Polluter for DuplicatePolluter {
    fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
        self.pending.condition_evals += 1;
        if self.condition.evaluate(&tuple) {
            self.pending.fires += 1;
            if out.logging() {
                out.record(LogEntry::TupleDuplicated {
                    tuple_id: tuple.id,
                    polluter: self.name.clone(),
                    copies: self.copies,
                    tau: tuple.tau,
                });
            }
            for _ in 0..self.copies {
                out.emit(tuple.clone());
            }
            out.emit(tuple);
        } else {
            self.pending.skips += 1;
            out.emit(tuple);
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        let _ = (wm, out);
        self.pending.flush(&self.stats);
    }

    fn finish(&mut self, out: &mut Emission) {
        let _ = out;
        self.pending.flush(&self.stats);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        self.condition.expected_probability(tuple)
    }

    fn collect_stats(&self, out: &mut Vec<PolluterStatsHandle>) {
        out.push(PolluterStatsHandle {
            name: self.name.to_string(),
            stats: self.stats.clone(),
        });
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(GateState::capture(
            &self.condition,
            self.pending,
            &self.stats,
        ))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        GateState::restore(state, &mut self.condition, &mut self.pending, &self.stats)
    }
}

/// Freezes attribute values — "Frozen Value" in Fig. 3: a stuck sensor
/// keeps reporting its last reading.
///
/// When the condition fires at time `τ_f`, the polluter captures the
/// tuple's current values of the target attributes and overwrites those
/// attributes in every subsequent tuple while `τ < τ_f + duration`.
/// Re-triggering during an active freeze extends it from the new tuple.
pub struct FreezePolluter {
    name: Text,
    condition: BoxCondition,
    duration: Duration,
    attrs: Vec<usize>,
    attr_names: Vec<Text>,
    frozen: Option<FrozenState>,
    stats: PolluterStats,
    pending: PendingStats,
}

struct FrozenState {
    until: Timestamp,
    values: Vec<Value>,
}

impl FreezePolluter {
    /// Binds a freeze polluter to a schema.
    pub fn bind(
        name: impl Into<Text>,
        condition: BoxCondition,
        duration: Duration,
        attr_names: &[&str],
        schema: &Schema,
    ) -> Result<Self> {
        let attrs: Vec<usize> = attr_names
            .iter()
            .map(|n| schema.require(n))
            .collect::<Result<_>>()?;
        Ok(FreezePolluter {
            name: name.into(),
            condition,
            duration,
            attrs,
            attr_names: attr_names.iter().map(|&s| Text::from(s)).collect(),
            frozen: None,
            stats: PolluterStats::new(),
            pending: PendingStats::default(),
        })
    }

    /// Whether a freeze is currently active at event time `tau`.
    pub fn is_frozen_at(&self, tau: Timestamp) -> bool {
        self.frozen.as_ref().is_some_and(|f| tau < f.until)
    }
}

impl Polluter for FreezePolluter {
    fn process(&mut self, mut tuple: StampedTuple, out: &mut Emission) {
        // Expire a stale freeze.
        if self.frozen.as_ref().is_some_and(|f| tuple.tau >= f.until) {
            self.frozen = None;
        }
        // The trigger condition sees the tuple's *original* values —
        // otherwise an equality-triggered freeze would re-trigger on its
        // own overwritten output and never expire.
        let triggered = self.condition.evaluate(&tuple);
        self.pending.condition_evals += 1;
        let mut changed = false;
        match &mut self.frozen {
            Some(state) => {
                // Overwrite target attributes with the frozen values.
                for (k, &idx) in self.attrs.iter().enumerate() {
                    if let Some(v) = tuple.tuple.get_mut(idx) {
                        if *v != state.values[k] {
                            changed = true;
                            let before = std::mem::replace(v, state.values[k].clone());
                            if out.logging() {
                                out.record(LogEntry::ValueChanged {
                                    tuple_id: tuple.id,
                                    polluter: self.name.clone(),
                                    attr: self.attr_names[k].clone(),
                                    before,
                                    after: state.values[k].clone(),
                                    tau: tuple.tau,
                                });
                            }
                        }
                    }
                }
                // A genuine re-trigger while frozen extends the window
                // (values stay the originally frozen ones).
                if triggered {
                    state.until = tuple.tau.saturating_add(self.duration);
                }
            }
            None => {
                if triggered {
                    let values: Vec<Value> = self
                        .attrs
                        .iter()
                        .map(|&i| tuple.tuple.get(i).cloned().unwrap_or(Value::Null))
                        .collect();
                    self.frozen = Some(FrozenState {
                        until: tuple.tau.saturating_add(self.duration),
                        values,
                    });
                    // The triggering tuple itself keeps its true values —
                    // the sensor sticks *from now on*.
                }
            }
        }
        // A freeze "fires" per tuple whose values it actually overwrote.
        if changed {
            self.pending.fires += 1;
        } else {
            self.pending.skips += 1;
        }
        out.emit(tuple);
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        let _ = (wm, out);
        self.pending.flush(&self.stats);
    }

    fn finish(&mut self, out: &mut Emission) {
        let _ = out;
        self.pending.flush(&self.stats);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        // The trigger probability; downstream effects depend on history.
        self.condition.expected_probability(tuple)
    }

    fn collect_stats(&self, out: &mut Vec<PolluterStatsHandle>) {
        out.push(PolluterStatsHandle {
            name: self.name.to_string(),
            stats: self.stats.clone(),
        });
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(
            serde_json::to_string(&FreezeState {
                condition: self.condition.snapshot_state(),
                frozen: self.frozen.as_ref().map(|f| FrozenWire {
                    until: f.until.0,
                    values: f.values.iter().map(ValueWire::from_value).collect(),
                }),
                pending: self.pending,
                totals: StatsTotals::capture(&self.stats),
            })
            .expect("freeze state serialises"),
        )
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let st: FreezeState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "FreezeState"))?;
        if let Some(doc) = &st.condition {
            self.condition.restore_state(doc)?;
        }
        self.frozen = st.frozen.map(|f| FrozenState {
            until: Timestamp(f.until),
            values: f.values.into_iter().map(ValueWire::into_value).collect(),
        });
        self.pending = st.pending;
        st.totals.restore_into(&self.stats);
        Ok(())
    }
}

/// Wire form of a [`FreezePolluter`]'s checkpoint state.
#[derive(Serialize, Deserialize)]
struct FreezeState {
    condition: Option<String>,
    frozen: Option<FrozenWire>,
    pending: PendingStats,
    totals: StatsTotals,
}

/// An active freeze on the wire.
#[derive(Serialize, Deserialize)]
struct FrozenWire {
    until: i64,
    values: Vec<ValueWire>,
}

/// Applies a static error to *every* tuple inside a time burst: when
/// the activation condition fires at `τ_a`, the error function is
/// applied to all tuples with `τ ∈ [τ_a, τ_a + duration)`.
///
/// This is the structure of the paper's second forecasting scenario
/// (§3.2.1): "we scaled numerical attribute values with the factor
/// 0.125 for four-hour intervals", activated by a rare probabilistic
/// condition. Re-activation during a burst extends it.
pub struct BurstPolluter {
    name: Text,
    condition: BoxCondition,
    duration: Duration,
    error_fn: Box<dyn crate::error_fn::ErrorFunction>,
    attrs: Vec<usize>,
    attr_names: Vec<Text>,
    active_until: Option<Timestamp>,
    /// Scratch for before-values.
    before: Vec<Value>,
    stats: PolluterStats,
    pending: PendingStats,
}

impl BurstPolluter {
    /// Binds a burst polluter to a schema.
    pub fn bind(
        name: impl Into<Text>,
        condition: BoxCondition,
        duration: Duration,
        error_fn: Box<dyn crate::error_fn::ErrorFunction>,
        attr_names: &[&str],
        schema: &Schema,
    ) -> Result<Self> {
        let attrs: Vec<usize> = attr_names
            .iter()
            .map(|n| schema.require(n))
            .collect::<Result<_>>()?;
        error_fn.validate(schema, &attrs)?;
        Ok(BurstPolluter {
            name: name.into(),
            condition,
            duration,
            error_fn,
            attrs,
            attr_names: attr_names.iter().map(|&s| Text::from(s)).collect(),
            active_until: None,
            before: Vec::new(),
            stats: PolluterStats::new(),
            pending: PendingStats::default(),
        })
    }

    /// Whether a burst is active at event time `tau`.
    pub fn is_active_at(&self, tau: Timestamp) -> bool {
        self.active_until.is_some_and(|u| tau < u)
    }
}

impl Polluter for BurstPolluter {
    fn process(&mut self, mut tuple: StampedTuple, out: &mut Emission) {
        // Expire a finished burst, then evaluate (re-)activation.
        if self.active_until.is_some_and(|u| tuple.tau >= u) {
            self.active_until = None;
        }
        self.pending.condition_evals += 1;
        if self.condition.evaluate(&tuple) {
            self.active_until = Some(tuple.tau.saturating_add(self.duration));
        }
        if self.active_until.is_some() {
            // A burst "fires" per tuple the error function is applied
            // to, i.e. every tuple inside the active window.
            self.pending.fires += 1;
            if out.logging() {
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
            } else {
                self.error_fn
                    .apply(&mut tuple.tuple, &self.attrs, tuple.tau, 1.0);
            }
        } else {
            self.pending.skips += 1;
        }
        out.emit(tuple);
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        let _ = (wm, out);
        self.pending.flush(&self.stats);
    }

    fn finish(&mut self, out: &mut Emission) {
        let _ = out;
        self.pending.flush(&self.stats);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        // Activation probability only; the burst's reach depends on
        // history.
        self.condition.expected_probability(tuple)
    }

    fn collect_stats(&self, out: &mut Vec<PolluterStatsHandle>) {
        out.push(PolluterStatsHandle {
            name: self.name.to_string(),
            stats: self.stats.clone(),
        });
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(
            serde_json::to_string(&BurstState {
                condition: self.condition.snapshot_state(),
                error_fn: self.error_fn.snapshot_state(),
                active_until: self.active_until.map(|t| t.0),
                pending: self.pending,
                totals: StatsTotals::capture(&self.stats),
            })
            .expect("burst state serialises"),
        )
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let st: BurstState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "BurstState"))?;
        if let Some(doc) = &st.condition {
            self.condition.restore_state(doc)?;
        }
        if let Some(doc) = &st.error_fn {
            self.error_fn.restore_state(doc)?;
        }
        self.active_until = st.active_until.map(Timestamp);
        self.pending = st.pending;
        st.totals.restore_into(&self.stats);
        Ok(())
    }
}

/// Wire form of a [`BurstPolluter`]'s checkpoint state.
#[derive(Serialize, Deserialize)]
struct BurstState {
    condition: Option<String>,
    error_fn: Option<String>,
    active_until: Option<i64>,
    pending: PendingStats,
    totals: StatsTotals,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Always, CmpOp, Never, ValueCondition};
    use crate::log::PollutionLog;
    use icewafl_types::{DataType, Tuple};

    fn tuple(id: u64, tau_ms: i64, x: f64) -> StampedTuple {
        StampedTuple::new(
            id,
            Timestamp(tau_ms),
            Tuple::new(vec![Value::Timestamp(Timestamp(tau_ms)), Value::Float(x)]),
        )
    }

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    struct Harness {
        out: Vec<StampedTuple>,
        log: PollutionLog,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                out: Vec::new(),
                log: PollutionLog::new(),
            }
        }
        fn process(&mut self, p: &mut dyn Polluter, t: StampedTuple) {
            let mut em = Emission::new(&mut self.out, &mut self.log);
            p.process(t, &mut em);
        }
        fn watermark(&mut self, p: &mut dyn Polluter, wm: i64) {
            let mut em = Emission::new(&mut self.out, &mut self.log);
            p.on_watermark(Timestamp(wm), &mut em);
        }
        fn finish(&mut self, p: &mut dyn Polluter) {
            let mut em = Emission::new(&mut self.out, &mut self.log);
            p.finish(&mut em);
        }
    }

    #[test]
    fn delay_holds_until_watermark() {
        let mut p =
            DelayPolluter::new("net", Box::new(Always), Duration::from_millis(100)).unwrap();
        let mut h = Harness::new();
        h.process(&mut p, tuple(1, 10, 1.0));
        assert!(h.out.is_empty());
        assert_eq!(p.held(), 1);
        h.watermark(&mut p, 109);
        assert!(h.out.is_empty(), "release at 110, not before");
        h.watermark(&mut p, 110);
        assert_eq!(h.out.len(), 1);
        assert_eq!(
            h.out[0].arrival,
            Timestamp(110),
            "arrival moved by the delay"
        );
        assert_eq!(h.out[0].tau, Timestamp(10), "tau untouched");
        assert_eq!(h.log.len(), 1);
    }

    #[test]
    fn delay_passes_unmatched_through_immediately() {
        let mut p = DelayPolluter::new("net", Box::new(Never), Duration::from_millis(100)).unwrap();
        let mut h = Harness::new();
        h.process(&mut p, tuple(1, 10, 1.0));
        assert_eq!(h.out.len(), 1);
        assert!(h.log.is_empty());
    }

    #[test]
    fn delay_finish_flushes() {
        let mut p = DelayPolluter::new("net", Box::new(Always), Duration::from_hours(1)).unwrap();
        let mut h = Harness::new();
        h.process(&mut p, tuple(1, 0, 1.0));
        h.process(&mut p, tuple(2, 5, 2.0));
        h.finish(&mut p);
        assert_eq!(h.out.len(), 2);
        assert_eq!(h.out[0].id, 1, "released in schedule order");
        assert_eq!(p.held(), 0);
    }

    #[test]
    fn delay_rejects_negative() {
        assert!(DelayPolluter::new("x", Box::new(Always), Duration::from_millis(-1)).is_err());
    }

    #[test]
    fn drop_removes_matching() {
        let mut p = DropPolluter::new(
            "drop-high",
            Box::new(ValueCondition::new(1, CmpOp::Gt, Value::Float(5.0))),
        );
        let mut h = Harness::new();
        h.process(&mut p, tuple(1, 0, 10.0));
        h.process(&mut p, tuple(2, 1, 1.0));
        assert_eq!(h.out.len(), 1);
        assert_eq!(h.out[0].id, 2);
        assert_eq!(h.log.len(), 1);
        assert_eq!(h.log.entries()[0].tuple_id(), 1);
    }

    #[test]
    fn duplicate_emits_copies_with_same_id() {
        let mut p = DuplicatePolluter::new("dup", Box::new(Always), 2);
        let mut h = Harness::new();
        h.process(&mut p, tuple(9, 0, 1.0));
        assert_eq!(h.out.len(), 3);
        assert!(h.out.iter().all(|t| t.id == 9));
        assert_eq!(h.log.len(), 1);
    }

    #[test]
    fn duplicate_copies_clamped_to_one() {
        let p = DuplicatePolluter::new("dup", Box::new(Always), 0);
        assert_eq!(p.copies, 1);
    }

    #[test]
    fn freeze_replays_trigger_values() {
        let s = schema();
        // Trigger when x == 42; freeze x for 100 ms.
        let mut p = FreezePolluter::bind(
            "stuck",
            Box::new(ValueCondition::new(1, CmpOp::Eq, Value::Float(42.0))),
            Duration::from_millis(100),
            &["x"],
            &s,
        )
        .unwrap();
        let mut h = Harness::new();
        h.process(&mut p, tuple(1, 0, 1.0)); // no trigger
        h.process(&mut p, tuple(2, 10, 42.0)); // trigger, keeps own value
        h.process(&mut p, tuple(3, 50, 7.0)); // frozen → 42
        h.process(&mut p, tuple(4, 109, 8.0)); // frozen → 42
        h.process(&mut p, tuple(5, 110, 9.0)); // freeze expired
        let xs: Vec<f64> = h
            .out
            .iter()
            .map(|t| t.tuple.get(1).unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![1.0, 42.0, 42.0, 42.0, 9.0]);
        assert_eq!(h.log.len(), 2, "two overwritten tuples logged");
        assert!(
            !p.is_frozen_at(Timestamp(110)),
            "freeze expired after the last tuple"
        );
    }

    #[test]
    fn freeze_retrigger_extends_window() {
        let s = schema();
        let mut p = FreezePolluter::bind(
            "stuck",
            Box::new(ValueCondition::new(1, CmpOp::Eq, Value::Float(42.0))),
            Duration::from_millis(100),
            &["x"],
            &s,
        )
        .unwrap();
        let mut h = Harness::new();
        h.process(&mut p, tuple(1, 0, 42.0)); // trigger, until 100
        h.process(&mut p, tuple(2, 90, 42.0)); // genuine re-trigger → until 190
        h.process(&mut p, tuple(3, 150, 6.0)); // still frozen
        h.process(&mut p, tuple(4, 200, 7.0)); // expired
        let xs: Vec<f64> = h
            .out
            .iter()
            .map(|t| t.tuple.get(1).unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![42.0, 42.0, 42.0, 7.0]);
    }

    #[test]
    fn burst_scales_a_window_after_activation() {
        let s = schema();
        // Activate when x == 1.0; scale x by 0.5 for 100 ms.
        let mut p = BurstPolluter::bind(
            "burst",
            Box::new(ValueCondition::new(1, CmpOp::Eq, Value::Float(1.0))),
            Duration::from_millis(100),
            Box::new(crate::error_fn::ScaleByFactor::new(0.5)),
            &["x"],
            &s,
        )
        .unwrap();
        let mut h = Harness::new();
        h.process(&mut p, tuple(1, 0, 8.0)); // inactive
        h.process(&mut p, tuple(2, 10, 1.0)); // activates; scaled too
        h.process(&mut p, tuple(3, 50, 8.0)); // in burst
        h.process(&mut p, tuple(4, 109, 8.0)); // in burst
        h.process(&mut p, tuple(5, 110, 8.0)); // expired
        let xs: Vec<f64> = h
            .out
            .iter()
            .map(|t| t.tuple.get(1).unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![8.0, 0.5, 4.0, 4.0, 8.0]);
        assert_eq!(h.log.len(), 3);
        assert!(!p.is_active_at(Timestamp(110)));
    }

    #[test]
    fn burst_reactivation_extends() {
        let s = schema();
        let mut p = BurstPolluter::bind(
            "burst",
            Box::new(ValueCondition::new(1, CmpOp::Eq, Value::Float(1.0))),
            Duration::from_millis(100),
            Box::new(crate::error_fn::ScaleByFactor::new(0.5)),
            &["x"],
            &s,
        )
        .unwrap();
        let mut h = Harness::new();
        h.process(&mut p, tuple(1, 0, 1.0)); // activates until 100
        h.process(&mut p, tuple(2, 90, 1.0)); // re-activates until 190
        h.process(&mut p, tuple(3, 150, 8.0)); // still active
        let xs: Vec<f64> = h
            .out
            .iter()
            .map(|t| t.tuple.get(1).unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![0.5, 0.5, 4.0]);
    }

    #[test]
    fn burst_bind_validates() {
        let s = schema();
        assert!(BurstPolluter::bind(
            "x",
            Box::new(Always),
            Duration::from_millis(1),
            Box::new(crate::error_fn::ScaleByFactor::new(0.5)),
            &["Time"], // non-numeric target rejected by the error fn
            &s,
        )
        .is_err());
    }

    #[test]
    fn freeze_bind_rejects_unknown_attr() {
        let s = schema();
        assert!(FreezePolluter::bind(
            "x",
            Box::new(Always),
            Duration::from_millis(1),
            &["nope"],
            &s
        )
        .is_err());
    }
}
