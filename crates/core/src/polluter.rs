//! The polluter abstraction and the standard polluter `⟨e, c, A_p⟩`.
//!
//! A polluter processes one enriched tuple at a time and may emit zero,
//! one, or many tuples — value errors are 1:1, but the native temporal
//! error types change the stream's shape (a dropped tuple emits nothing,
//! a duplicate emits several, a delayed tuple emits later, from the
//! watermark callback).

use crate::condition::BoxCondition;
use crate::error_fn::ErrorFunction;
use crate::log::{LogEntry, PollutionLog};
use crate::pattern::ChangePattern;
use crate::snapshot::rng_from_words;
use crate::stats::{CountingRng, PolluterCounts, PolluterStatsSnapshot};
use icewafl_types::{ColumnBatch, Error, Result, Schema, StampedTuple, Text, Timestamp, Value};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Where a polluter emits tuples and ground-truth log entries.
pub struct Emission<'a> {
    out: &'a mut Vec<StampedTuple>,
    log: &'a mut PollutionLog,
}

impl<'a> Emission<'a> {
    /// Creates an emission target over an output buffer and a log.
    pub fn new(out: &'a mut Vec<StampedTuple>, log: &'a mut PollutionLog) -> Self {
        Emission { out, log }
    }

    /// Emits a tuple downstream.
    pub fn emit(&mut self, tuple: StampedTuple) {
        self.out.push(tuple);
    }

    /// Records a ground-truth log entry.
    pub fn record(&mut self, entry: LogEntry) {
        self.log.record(entry);
    }

    /// Whether ground-truth logging is enabled. Polluters check this
    /// *before* building a [`LogEntry`] so a disabled log skips the
    /// before-value clones and entry allocation on the hot path, not
    /// just the final push.
    pub fn logging(&self) -> bool {
        self.log.is_enabled()
    }

    /// Re-borrows the emission for a nested scope.
    pub fn reborrow(&mut self) -> Emission<'_> {
        Emission {
            out: self.out,
            log: self.log,
        }
    }

    /// Splits into (fresh buffer, same log) — used by pipeline chaining.
    pub fn with_buffer<'b>(&'b mut self, buf: &'b mut Vec<StampedTuple>) -> Emission<'b> {
        Emission {
            out: buf,
            log: self.log,
        }
    }
}

/// A pollution operator over the enriched tuple stream.
pub trait Polluter: Send {
    /// Processes one tuple, emitting any number of output tuples.
    fn process(&mut self, tuple: StampedTuple, out: &mut Emission);

    /// Event-time progress notification: polluters that hold tuples
    /// back (delay) release the ones it closes here.
    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        let _ = (wm, out);
    }

    /// End of stream: flush everything still held back.
    fn finish(&mut self, out: &mut Emission) {
        let _ = out;
    }

    /// The polluter's configured name (appears in log entries).
    fn name(&self) -> &str;

    /// The probability that this polluter *modifies* the given tuple —
    /// analytic ground truth for expected-error tables.
    fn expected_probability(&self, tuple: &StampedTuple) -> f64;

    /// Appends what this polluter has counted so far, then — for
    /// composites — what its children have, in pipeline order. The
    /// session calls this on the pipelines it owns when it reports. The
    /// default appends nothing, for polluters that keep no statistics.
    fn append_stats(&self, out: &mut Vec<PolluterStatsSnapshot>) {
        let _ = out;
    }

    /// This polluter's complete mutable runtime state — RNG stream
    /// positions, buffered tuples, statistics — as a typed JSON
    /// document, or `None` when stateless. Everything that influences
    /// future output must be captured: the checkpoint-recovery
    /// invariant is byte-identical output, not approximate resumption.
    fn snapshot_state(&self) -> Option<String> {
        None
    }

    /// Restores state captured by [`Polluter::snapshot_state`] on a
    /// freshly built polluter of the same configuration.
    fn restore_state(&mut self, state: &str) -> Result<()> {
        let _ = state;
        Ok(())
    }
}

/// Boxed polluter, the unit of pipeline composition.
pub type BoxPolluter = Box<dyn Polluter>;

/// Wire form of [`StandardPolluter`]'s runtime state.
#[derive(Serialize, Deserialize)]
struct StandardState {
    condition: Option<String>,
    error_fn: Option<String>,
    pattern_rng: Vec<u64>,
    counts: PolluterCounts,
}

/// The paper's standard polluter: an error function `e`, a condition
/// `c`, a target attribute set `A_p`, and (for derived temporal error
/// types) a [`ChangePattern`] modulating the error magnitude over `τ`.
pub struct StandardPolluter {
    name: Text,
    error_fn: Box<dyn ErrorFunction>,
    condition: BoxCondition,
    attrs: Vec<usize>,
    attr_names: Vec<Text>,
    pattern: ChangePattern,
    pattern_rng: CountingRng,
    /// Scratch buffer for before-values, reused across tuples.
    before: Vec<Value>,
    counts: PolluterCounts,
}

impl StandardPolluter {
    /// Binds a polluter to a schema: resolves the attribute names of
    /// `A_p` to column indices and validates them against the error
    /// function's requirements.
    pub fn bind(
        name: impl Into<Text>,
        error_fn: Box<dyn ErrorFunction>,
        condition: BoxCondition,
        attr_names: &[&str],
        pattern: ChangePattern,
        schema: &Schema,
        pattern_rng: StdRng,
    ) -> Result<Self> {
        let attrs: Vec<usize> = attr_names
            .iter()
            .map(|n| schema.require(n))
            .collect::<Result<_>>()?;
        error_fn.validate(schema, &attrs)?;
        Ok(StandardPolluter {
            name: name.into(),
            error_fn,
            condition,
            attr_names: attr_names.iter().map(|&s| Text::from(s)).collect(),
            attrs,
            pattern,
            pattern_rng: CountingRng::new(pattern_rng),
            before: Vec::new(),
            counts: PolluterCounts::default(),
        })
    }

    /// Everything counted so far, the pattern RNG's draws included.
    fn counts(&self) -> PolluterCounts {
        PolluterCounts {
            rng_draws: self.pattern_rng.draws(),
            ..self.counts
        }
    }

    /// The resolved target column indices.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// The 1:1 in-place core of [`Polluter::process`]: evaluates the
    /// condition, draws the pattern intensity, and applies the error
    /// function to `tuple` without emitting it. The column kernels in
    /// [`crate::columnar`] call this per row against a reusable scratch
    /// tuple; `process` is this plus an emit, so the two paths share one
    /// RNG/stats/log sequence by construction.
    pub fn process_in_place(&mut self, tuple: &mut StampedTuple, log: &mut PollutionLog) {
        self.counts.condition_evals += 1;
        let mut fired = false;
        if self.condition.evaluate(tuple) {
            let intensity = self.pattern.intensity(tuple.tau, &mut self.pattern_rng);
            if intensity > 0.0 {
                // A fire = the error function was applied, whether or
                // not it changed the value (identical with logging on
                // and off; ValueChanged entries are per *changed*
                // attribute, so fires <= log entries only holds for
                // single-attribute, always-changing error functions).
                fired = true;
                self.counts.fires += 1;
                if log.is_enabled() {
                    self.before.clear();
                    self.before.extend(
                        self.attrs
                            .iter()
                            .map(|&i| tuple.tuple.get(i).cloned().unwrap_or(Value::Null)),
                    );
                    self.error_fn
                        .apply(&mut tuple.tuple, &self.attrs, tuple.tau, intensity);
                    for (k, &idx) in self.attrs.iter().enumerate() {
                        let after = tuple.tuple.get(idx).cloned().unwrap_or(Value::Null);
                        if self.before[k] != after {
                            log.record(LogEntry::ValueChanged {
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
                    // Logging disabled: no before-value clones, no
                    // entry allocation — just the error itself.
                    self.error_fn
                        .apply(&mut tuple.tuple, &self.attrs, tuple.tau, intensity);
                }
            }
        }
        if !fired {
            self.counts.skips += 1;
        }
    }

    /// Whether both components of this polluter ship a column kernel,
    /// i.e. [`StandardPolluter::process_columns`] is byte-identical to
    /// running [`StandardPolluter::process_in_place`] over the batch row
    /// by row. Lowering checks this per polluter; a `false` keeps the
    /// stage on the row-exact trampoline.
    pub fn has_column_kernels(&self) -> bool {
        self.condition.has_column_kernel() && self.error_fn.has_column_kernel()
    }

    /// The whole-batch form of [`StandardPolluter::process_in_place`]
    /// (logging disabled): evaluate the condition over all rows into a
    /// byte mask, draw pattern intensities for the masked rows in row
    /// order, then hand the surviving mask to the error function's
    /// column kernel. Each component owns a private RNG, so running the
    /// three phases batch-at-a-time instead of interleaved per row
    /// leaves every RNG's draw sequence unchanged — the byte-identity
    /// argument is spelled out in `docs/kernels.md`.
    ///
    /// `mask` and `intensities` are caller-owned scratch, resized to
    /// `batch.len()` here.
    pub fn process_columns(
        &mut self,
        batch: &mut ColumnBatch,
        mask: &mut Vec<u8>,
        intensities: &mut Vec<f64>,
    ) {
        let n = batch.len();
        self.counts.condition_evals += n as u64;
        mask.clear();
        mask.resize(n, 0);
        self.condition.evaluate_columns(batch, mask);
        intensities.clear();
        let mut fires: u64 = 0;
        if matches!(self.pattern, ChangePattern::Constant) {
            // Constant pattern: intensity 1 with no draws, so the whole
            // per-row loop reduces to a popcount of the mask.
            intensities.resize(n, 1.0);
            fires = mask.iter().filter(|&&m| m != 0).count() as u64;
        } else {
            intensities.resize(n, 0.0);
            for row in 0..n {
                if mask[row] == 0 {
                    continue;
                }
                let i = self
                    .pattern
                    .intensity(Timestamp(batch.taus()[row]), &mut self.pattern_rng);
                if i > 0.0 {
                    intensities[row] = i;
                    fires += 1;
                } else {
                    mask[row] = 0;
                }
            }
        }
        self.counts.fires += fires;
        self.counts.skips += n as u64 - fires;
        if fires > 0 {
            self.error_fn
                .apply_columns(batch, &self.attrs, mask, intensities);
        }
    }
}

impl Polluter for StandardPolluter {
    fn process(&mut self, mut tuple: StampedTuple, out: &mut Emission) {
        self.process_in_place(&mut tuple, out.log);
        out.emit(tuple);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        self.condition.expected_probability(tuple)
            * self.pattern.modification_probability(tuple.tau)
    }

    fn append_stats(&self, out: &mut Vec<PolluterStatsSnapshot>) {
        out.push(self.counts().snapshot(&self.name));
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(
            serde_json::to_string(&StandardState {
                condition: self.condition.snapshot_state(),
                error_fn: self.error_fn.snapshot_state(),
                pattern_rng: self.pattern_rng.state().to_vec(),
                counts: self.counts(),
            })
            .expect("standard state serialises"),
        )
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let st: StandardState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "StandardState"))?;
        if let Some(doc) = &st.condition {
            self.condition.restore_state(doc)?;
        }
        if let Some(doc) = &st.error_fn {
            self.error_fn.restore_state(doc)?;
        }
        self.pattern_rng
            .restore(rng_from_words(&st.pattern_rng)?, st.counts.rng_draws);
        self.counts = st.counts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Always, Never, Probability};
    use crate::error_fn::{Constant, MissingValue};
    use icewafl_types::{DataType, Tuple};
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("BPM", DataType::Int),
            ("Distance", DataType::Float),
        ])
        .unwrap()
    }

    fn tuple(id: u64, bpm: i64, dist: f64) -> StampedTuple {
        StampedTuple::new(
            id,
            Timestamp(id as i64 * 1000),
            Tuple::new(vec![
                Value::Timestamp(Timestamp(id as i64 * 1000)),
                Value::Int(bpm),
                Value::Float(dist),
            ]),
        )
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
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
    fn fires_when_condition_true() {
        let s = schema();
        let mut p = StandardPolluter::bind(
            "null-distance",
            Box::new(MissingValue),
            Box::new(Always),
            &["Distance"],
            ChangePattern::Constant,
            &s,
            rng(),
        )
        .unwrap();
        let (out, log) = run(&mut p, vec![tuple(1, 70, 1.5)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].tuple.get(2).unwrap().is_null());
        assert_eq!(
            out[0].tuple.get(1).unwrap(),
            &Value::Int(70),
            "other attrs untouched"
        );
        assert_eq!(log.len(), 1);
        match &log.entries()[0] {
            LogEntry::ValueChanged {
                attr,
                before,
                after,
                polluter,
                ..
            } => {
                assert_eq!(attr, "Distance");
                assert_eq!(before, &Value::Float(1.5));
                assert_eq!(after, &Value::Null);
                assert_eq!(polluter, "null-distance");
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn passes_through_when_condition_false() {
        let s = schema();
        let mut p = StandardPolluter::bind(
            "never",
            Box::new(MissingValue),
            Box::new(Never),
            &["Distance"],
            ChangePattern::Constant,
            &s,
            rng(),
        )
        .unwrap();
        let (out, log) = run(&mut p, vec![tuple(1, 70, 1.5)]);
        assert_eq!(out[0].tuple.get(2).unwrap(), &Value::Float(1.5));
        assert!(log.is_empty());
    }

    #[test]
    fn no_log_entry_when_value_unchanged() {
        // Setting BPM to 0 on a tuple that already has BPM = 0.
        let s = schema();
        let mut p = StandardPolluter::bind(
            "zero",
            Box::new(Constant::new(Value::Int(0))),
            Box::new(Always),
            &["BPM"],
            ChangePattern::Constant,
            &s,
            rng(),
        )
        .unwrap();
        let (_, log) = run(&mut p, vec![tuple(1, 0, 1.0)]);
        assert!(log.is_empty(), "no-op pollution must not be logged");
    }

    #[test]
    fn bind_rejects_unknown_attribute() {
        let s = schema();
        let r = StandardPolluter::bind(
            "x",
            Box::new(MissingValue),
            Box::new(Always),
            &["Nope"],
            ChangePattern::Constant,
            &s,
            rng(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn bind_runs_error_fn_validation() {
        let s = schema();
        // Gaussian noise on a timestamp attribute must be rejected.
        let r = StandardPolluter::bind(
            "x",
            Box::new(crate::error_fn::GaussianNoise::additive(1.0, rng())),
            Box::new(Always),
            &["Time"],
            ChangePattern::Constant,
            &s,
            rng(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn probability_condition_pollutes_fraction() {
        let s = schema();
        let mut p = StandardPolluter::bind(
            "p20",
            Box::new(MissingValue),
            Box::new(Probability::new(0.2, StdRng::seed_from_u64(77))),
            &["BPM"],
            ChangePattern::Constant,
            &s,
            rng(),
        )
        .unwrap();
        let tuples: Vec<_> = (0..10_000).map(|i| tuple(i, 70, 1.0)).collect();
        let (out, log) = run(&mut p, tuples);
        assert_eq!(out.len(), 10_000, "value polluters are 1:1");
        assert!((1800..2200).contains(&log.len()), "log {}", log.len());
        let e = p.expected_probability(&tuple(0, 70, 1.0));
        assert!((e - 0.2).abs() < 1e-12);
    }

    #[test]
    fn abrupt_pattern_gates_pollution_in_time() {
        let s = schema();
        let mut p = StandardPolluter::bind(
            "later",
            Box::new(MissingValue),
            Box::new(Always),
            &["BPM"],
            ChangePattern::Abrupt {
                at: Timestamp(5_000),
            },
            &s,
            rng(),
        )
        .unwrap();
        let (out, log) = run(&mut p, (0..10).map(|i| tuple(i, 70, 1.0)).collect());
        // Tuples 0..4 have tau < 5000 → untouched; 5..9 polluted.
        assert_eq!(log.len(), 5);
        assert!(!out[4].tuple.get(1).unwrap().is_null());
        assert!(out[5].tuple.get(1).unwrap().is_null());
    }

    #[test]
    fn emission_reborrow_and_buffer() {
        let mut out = Vec::new();
        let mut log = PollutionLog::new();
        let mut em = Emission::new(&mut out, &mut log);
        em.reborrow().emit(tuple(1, 1, 1.0));
        let mut buf = Vec::new();
        em.with_buffer(&mut buf).emit(tuple(2, 2, 2.0));
        assert_eq!(out.len(), 1);
        assert_eq!(buf.len(), 1);
    }
}
