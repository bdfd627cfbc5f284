//! Pollution pipelines and composite polluters (§2.2.1).
//!
//! A pollution pipeline `P = p₁, p₂, …, p_o` applies its polluters in
//! sequence: `t′ = p_o(…p₁(t, τ)…, τ)`. Because native temporal
//! polluters emit 0..n tuples, the chain is a true operator chain, not a
//! function composition: everything a stage emits (including tuples
//! released by watermarks) flows through the remaining stages.
//!
//! Composite polluters structure the pipeline (§2.2.1): they gate a
//! group of registered polluters behind a shared condition
//! ([`CompositePolluter`], the "Software Update" pattern of Fig. 5) or
//! make a set of errors mutually exclusive ([`OneOfPolluter`]).

use crate::condition::BoxCondition;
use crate::polluter::{BoxPolluter, Emission, Polluter};
use crate::snapshot::{rng_from_words, SlotState};
use crate::stats::{CountingRng, PolluterCounts, PolluterStatsSnapshot};
use icewafl_types::{Error, Result, StampedTuple, Timestamp};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Initial capacity of the stage-chaining scratch buffers. One tuple in
/// normally yields one tuple out per stage; duplicates and watermark
/// releases fan out a little, so a modest pre-size keeps the reused
/// buffers from reallocating mid-stream.
const SCRATCH_CAPACITY: usize = 16;

/// A sequence of polluters applied in order, with correct temporal
/// (watermark / end-of-stream) plumbing between stages.
pub struct PollutionPipeline {
    stages: Vec<BoxPolluter>,
    scratch_a: Vec<StampedTuple>,
    scratch_b: Vec<StampedTuple>,
}

impl PollutionPipeline {
    /// A pipeline over the given polluters.
    pub fn new(stages: Vec<BoxPolluter>) -> Self {
        PollutionPipeline {
            stages,
            scratch_a: Vec::with_capacity(SCRATCH_CAPACITY),
            scratch_b: Vec::with_capacity(SCRATCH_CAPACITY),
        }
    }

    /// An identity pipeline.
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// Number of polluters (the `l` of the paper's complexity analysis).
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` iff the pipeline has no polluters.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Appends a polluter.
    pub fn push(&mut self, polluter: BoxPolluter) {
        self.stages.push(polluter);
    }

    /// Feeds one tuple through all stages.
    pub fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
        self.scratch_a.clear();
        self.scratch_a.push(tuple);
        self.drain_through_stages(out, |_, _| {});
    }

    /// Advances event time through all stages; tuples released by stage
    /// `i` continue through stages `i+1…`.
    pub fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        self.scratch_a.clear();
        self.drain_through_stages(out, |stage, em| stage.on_watermark(wm, em));
    }

    /// Ends the stream: every stage flushes, and flushed tuples continue
    /// through the remaining stages.
    pub fn finish(&mut self, out: &mut Emission) {
        self.scratch_a.clear();
        self.drain_through_stages(out, |stage, em| stage.finish(em));
    }

    /// The one stage-chaining loop behind `process`/`on_watermark`/
    /// `finish`: whatever is seeded in `scratch_a` flows through every
    /// stage, `event` fires once per stage after its pending tuples
    /// (watermark/finish callbacks), and everything a stage emits —
    /// including tuples the event released — continues through the
    /// remaining stages. Survivors are emitted to `out`; the scratch
    /// buffers are retained for reuse.
    fn drain_through_stages<F>(&mut self, out: &mut Emission, mut event: F)
    where
        F: FnMut(&mut BoxPolluter, &mut Emission),
    {
        let mut current = std::mem::take(&mut self.scratch_a);
        let mut next = std::mem::take(&mut self.scratch_b);
        next.clear();
        for stage in &mut self.stages {
            for t in current.drain(..) {
                let mut em = out.with_buffer(&mut next);
                stage.process(t, &mut em);
            }
            {
                let mut em = out.with_buffer(&mut next);
                event(stage, &mut em);
            }
            std::mem::swap(&mut current, &mut next);
        }
        for t in current.drain(..) {
            out.emit(t);
        }
        self.scratch_a = current;
        self.scratch_b = next;
    }

    /// Probability that at least one stage modifies the tuple, assuming
    /// stage independence (exact for Icewafl's built-in conditions).
    pub fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        1.0 - self
            .stages
            .iter()
            .map(|s| 1.0 - s.expected_probability(tuple))
            .product::<f64>()
    }

    /// Appends what every stage has counted so far, in pipeline order
    /// (composites recurse into their children).
    pub fn append_stats(&self, out: &mut Vec<PolluterStatsSnapshot>) {
        for stage in &self.stages {
            stage.append_stats(out);
        }
    }

    /// Every stage's checkpoint state, positionally (a `SlotState`
    /// document); `None` when every stage is stateless.
    pub fn snapshot_states(&self) -> Option<String> {
        SlotState::doc(self.stages.iter().map(|s| s.snapshot_state()).collect())
    }

    /// Restores per-stage states captured by
    /// [`PollutionPipeline::snapshot_states`] onto a freshly built
    /// pipeline of the same configuration.
    pub fn restore_states(&mut self, state: &str) -> Result<()> {
        let slots = SlotState::parse(state, self.stages.len(), "pollution pipeline")?;
        for (stage, slot) in self.stages.iter_mut().zip(slots) {
            if let Some(doc) = slot {
                stage.restore_state(&doc)?;
            }
        }
        Ok(())
    }
}

/// A composite polluter: a shared condition gating a nested
/// sub-pipeline of registered polluters, applied in series (the
/// "Software Update" structure of Fig. 5).
///
/// Nesting composites inside composites models arbitrarily deep pollution
/// hierarchies — e.g. "two error types that always occur together".
pub struct CompositePolluter {
    name: String,
    condition: BoxCondition,
    children: PollutionPipeline,
    counts: PolluterCounts,
}

impl CompositePolluter {
    /// A composite gating `children` behind `condition`.
    pub fn new(
        name: impl Into<String>,
        condition: BoxCondition,
        children: Vec<BoxPolluter>,
    ) -> Self {
        CompositePolluter {
            name: name.into(),
            condition,
            children: PollutionPipeline::new(children),
            counts: PolluterCounts::default(),
        }
    }
}

impl Polluter for CompositePolluter {
    fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
        self.counts.condition_evals += 1;
        if self.condition.evaluate(&tuple) {
            // The gate opened — whether a child modifies the tuple is
            // counted on the child's own stats.
            self.counts.fires += 1;
            self.children.process(tuple, out);
        } else {
            self.counts.skips += 1;
            out.emit(tuple);
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        self.children.on_watermark(wm, out);
    }

    fn finish(&mut self, out: &mut Emission) {
        self.children.finish(out);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        self.condition.expected_probability(tuple) * self.children.expected_probability(tuple)
    }

    fn append_stats(&self, out: &mut Vec<PolluterStatsSnapshot>) {
        out.push(self.counts.snapshot(&self.name));
        self.children.append_stats(out);
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(
            serde_json::to_string(&CompositeState {
                condition: self.condition.snapshot_state(),
                children: self.children.snapshot_states(),
                counts: self.counts,
            })
            .expect("composite state serialises"),
        )
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let st: CompositeState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "CompositeState"))?;
        if let Some(doc) = &st.condition {
            self.condition.restore_state(doc)?;
        }
        if let Some(doc) = &st.children {
            self.children.restore_states(doc)?;
        }
        self.counts = st.counts;
        Ok(())
    }
}

/// Wire form of a [`CompositePolluter`]'s checkpoint state.
#[derive(Serialize, Deserialize)]
struct CompositeState {
    condition: Option<String>,
    children: Option<String>,
    counts: PolluterCounts,
}

/// A composite whose children are *mutually exclusive*: when the shared
/// condition fires, exactly one child (picked at random, optionally
/// weighted) processes the tuple.
pub struct OneOfPolluter {
    name: String,
    condition: BoxCondition,
    children: Vec<BoxPolluter>,
    /// Cumulative weights, empty for uniform choice.
    cumulative: Vec<f64>,
    rng: CountingRng,
    counts: PolluterCounts,
}

impl OneOfPolluter {
    /// A uniform-choice one-of composite.
    pub fn new(
        name: impl Into<String>,
        condition: BoxCondition,
        children: Vec<BoxPolluter>,
        rng: StdRng,
    ) -> Self {
        OneOfPolluter {
            name: name.into(),
            condition,
            children,
            cumulative: Vec::new(),
            rng: CountingRng::new(rng),
            counts: PolluterCounts::default(),
        }
    }

    /// A weighted one-of composite; `weights` must match the number of
    /// children and sum to a positive value.
    pub fn weighted(
        name: impl Into<String>,
        condition: BoxCondition,
        children: Vec<BoxPolluter>,
        weights: &[f64],
        rng: StdRng,
    ) -> icewafl_types::Result<Self> {
        if weights.len() != children.len() {
            return Err(icewafl_types::Error::config(format_args!(
                "one_of has {} children but {} weights",
                children.len(),
                weights.len()
            )));
        }
        if weights.iter().any(|w| *w < 0.0) || weights.iter().sum::<f64>() <= 0.0 {
            return Err(icewafl_types::Error::config(
                "one_of weights must be non-negative with a positive sum",
            ));
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            cumulative.push(acc);
        }
        Ok(OneOfPolluter {
            name: name.into(),
            condition,
            children,
            cumulative,
            rng: CountingRng::new(rng),
            counts: PolluterCounts::default(),
        })
    }

    /// Everything counted so far, the choice RNG's draws included.
    fn counts(&self) -> PolluterCounts {
        PolluterCounts {
            rng_draws: self.rng.draws(),
            ..self.counts
        }
    }

    fn pick(&mut self) -> usize {
        if self.cumulative.is_empty() {
            self.rng.random_range(0..self.children.len())
        } else {
            let total = *self.cumulative.last().expect("non-empty cumulative");
            let x = self.rng.random_range(0.0..total);
            self.cumulative
                .partition_point(|&c| c <= x)
                .min(self.children.len() - 1)
        }
    }

    fn weight_fraction(&self, idx: usize) -> f64 {
        if self.cumulative.is_empty() {
            1.0 / self.children.len() as f64
        } else {
            let total = *self.cumulative.last().expect("non-empty cumulative");
            let prev = if idx == 0 {
                0.0
            } else {
                self.cumulative[idx - 1]
            };
            (self.cumulative[idx] - prev) / total
        }
    }
}

impl Polluter for OneOfPolluter {
    fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
        self.counts.condition_evals += 1;
        if !self.children.is_empty() && self.condition.evaluate(&tuple) {
            self.counts.fires += 1;
            let idx = self.pick();
            self.children[idx].process(tuple, out);
        } else {
            self.counts.skips += 1;
            out.emit(tuple);
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        for child in &mut self.children {
            child.on_watermark(wm, out);
        }
    }

    fn finish(&mut self, out: &mut Emission) {
        for child in &mut self.children {
            child.finish(out);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_probability(&self, tuple: &StampedTuple) -> f64 {
        if self.children.is_empty() {
            return 0.0;
        }
        let inner: f64 = self
            .children
            .iter()
            .enumerate()
            .map(|(i, c)| self.weight_fraction(i) * c.expected_probability(tuple))
            .sum();
        self.condition.expected_probability(tuple) * inner
    }

    fn append_stats(&self, out: &mut Vec<PolluterStatsSnapshot>) {
        out.push(self.counts().snapshot(&self.name));
        for child in &self.children {
            child.append_stats(out);
        }
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(
            serde_json::to_string(&OneOfState {
                condition: self.condition.snapshot_state(),
                children: SlotState::doc(
                    self.children.iter().map(|c| c.snapshot_state()).collect(),
                ),
                rng: self.rng.state().to_vec(),
                counts: self.counts(),
            })
            .expect("one-of state serialises"),
        )
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let st: OneOfState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "OneOfState"))?;
        if let Some(doc) = &st.condition {
            self.condition.restore_state(doc)?;
        }
        if let Some(doc) = &st.children {
            let slots = SlotState::parse(doc, self.children.len(), "one_of children")?;
            for (child, slot) in self.children.iter_mut().zip(slots) {
                if let Some(doc) = slot {
                    child.restore_state(&doc)?;
                }
            }
        }
        self.rng
            .restore(rng_from_words(&st.rng)?, st.counts.rng_draws);
        self.counts = st.counts;
        Ok(())
    }
}

/// Wire form of a [`OneOfPolluter`]'s checkpoint state.
#[derive(Serialize, Deserialize)]
struct OneOfState {
    condition: Option<String>,
    children: Option<String>,
    rng: Vec<u64>,
    counts: PolluterCounts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Always, CmpOp, Never, Probability, ValueCondition};
    use crate::error_fn::{Constant, MissingValue, ScaleByFactor};
    use crate::log::PollutionLog;
    use crate::pattern::ChangePattern;
    use crate::polluter::StandardPolluter;
    use crate::temporal::DelayPolluter;
    use icewafl_types::{DataType, Duration, Schema, Tuple, Value};
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("BPM", DataType::Int),
            ("Distance", DataType::Float),
        ])
        .unwrap()
    }

    fn tuple(id: u64, tau_ms: i64, bpm: i64, dist: f64) -> StampedTuple {
        StampedTuple::new(
            id,
            Timestamp(tau_ms),
            Tuple::new(vec![
                Value::Timestamp(Timestamp(tau_ms)),
                Value::Int(bpm),
                Value::Float(dist),
            ]),
        )
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn std_polluter(
        name: &str,
        f: Box<dyn crate::error_fn::ErrorFunction>,
        attr: &str,
    ) -> BoxPolluter {
        Box::new(
            StandardPolluter::bind(
                name,
                f,
                Box::new(Always),
                &[attr],
                ChangePattern::Constant,
                &schema(),
                rng(0),
            )
            .unwrap(),
        )
    }

    fn run_pipeline(
        p: &mut PollutionPipeline,
        tuples: Vec<StampedTuple>,
    ) -> (Vec<StampedTuple>, PollutionLog) {
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
    fn stages_apply_in_sequence() {
        // Scale ×2 then ×3 → ×6.
        let mut p = PollutionPipeline::new(vec![
            std_polluter("x2", Box::new(ScaleByFactor::new(2.0)), "Distance"),
            std_polluter("x3", Box::new(ScaleByFactor::new(3.0)), "Distance"),
        ]);
        let (out, log) = run_pipeline(&mut p, vec![tuple(1, 0, 70, 1.0)]);
        assert_eq!(out[0].tuple.get(2).unwrap(), &Value::Float(6.0));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut p = PollutionPipeline::empty();
        assert!(p.is_empty());
        let (out, log) = run_pipeline(&mut p, vec![tuple(1, 0, 70, 1.0)]);
        assert_eq!(out.len(), 1);
        assert!(log.is_empty());
        assert_eq!(out[0], tuple(1, 0, 70, 1.0));
    }

    #[test]
    fn tuples_released_by_watermark_traverse_remaining_stages() {
        // Stage 1 delays everything by 100 ms; stage 2 nulls Distance.
        // A tuple released by stage 1's watermark must still be polluted
        // by stage 2.
        let mut p = PollutionPipeline::new(vec![
            Box::new(
                DelayPolluter::new("delay", Box::new(Always), Duration::from_millis(100)).unwrap(),
            ),
            std_polluter("null", Box::new(MissingValue), "Distance"),
        ]);
        let mut out = Vec::new();
        let mut log = PollutionLog::new();
        let mut em = Emission::new(&mut out, &mut log);
        p.process(tuple(1, 0, 70, 1.5), &mut em);
        assert!(out.is_empty());
        let mut em = Emission::new(&mut out, &mut log);
        p.on_watermark(Timestamp(100), &mut em);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].tuple.get(2).unwrap().is_null(),
            "stage 2 saw the released tuple"
        );
    }

    #[test]
    fn composite_gates_children_behind_condition() {
        // The software-update shape: composite on BPM > 100 with two
        // children in series (set 0, then set null with p=1 for the test).
        let children: Vec<BoxPolluter> = vec![
            std_polluter("bpm-zero", Box::new(Constant::new(Value::Int(0))), "BPM"),
            std_polluter("dist-null", Box::new(MissingValue), "Distance"),
        ];
        let composite = CompositePolluter::new(
            "wrong-bpm",
            Box::new(ValueCondition::new(1, CmpOp::Gt, Value::Int(100))),
            children,
        );
        let mut p = PollutionPipeline::new(vec![Box::new(composite)]);
        let (out, log) = run_pipeline(&mut p, vec![tuple(1, 0, 150, 1.0), tuple(2, 1, 90, 2.0)]);
        // Tuple 1 matched: both children applied.
        assert_eq!(out[0].tuple.get(1).unwrap(), &Value::Int(0));
        assert!(out[0].tuple.get(2).unwrap().is_null());
        // Tuple 2 bypassed entirely.
        assert_eq!(out[1].tuple.get(1).unwrap(), &Value::Int(90));
        assert_eq!(out[1].tuple.get(2).unwrap(), &Value::Float(2.0));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn nested_composites() {
        let inner = CompositePolluter::new(
            "inner",
            Box::new(ValueCondition::new(1, CmpOp::Gt, Value::Int(100))),
            vec![std_polluter(
                "zero",
                Box::new(Constant::new(Value::Int(0))),
                "BPM",
            )],
        );
        let outer = CompositePolluter::new(
            "outer",
            Box::new(crate::condition::TimeWindow::starting_at(Timestamp(10))),
            vec![Box::new(inner)],
        );
        let mut p = PollutionPipeline::new(vec![Box::new(outer)]);
        let (out, _) = run_pipeline(
            &mut p,
            vec![
                tuple(1, 0, 150, 1.0),  // before window: untouched
                tuple(2, 20, 150, 1.0), // in window, BPM>100: polluted
                tuple(3, 20, 90, 1.0),  // in window, BPM<=100: untouched
            ],
        );
        assert_eq!(out[0].tuple.get(1).unwrap(), &Value::Int(150));
        assert_eq!(out[1].tuple.get(1).unwrap(), &Value::Int(0));
        assert_eq!(out[2].tuple.get(1).unwrap(), &Value::Int(90));
    }

    #[test]
    fn composite_expected_probability_multiplies() {
        let children: Vec<BoxPolluter> = vec![Box::new(
            StandardPolluter::bind(
                "p50",
                Box::new(MissingValue),
                Box::new(Probability::new(0.5, rng(1))),
                &["Distance"],
                ChangePattern::Constant,
                &schema(),
                rng(2),
            )
            .unwrap(),
        )];
        let composite =
            CompositePolluter::new("c", Box::new(Probability::new(0.5, rng(3))), children);
        let t = tuple(1, 0, 70, 1.0);
        assert!((composite.expected_probability(&t) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn one_of_runs_exactly_one_child() {
        let children: Vec<BoxPolluter> = vec![
            std_polluter("zero", Box::new(Constant::new(Value::Int(0))), "BPM"),
            std_polluter("null", Box::new(MissingValue), "BPM"),
        ];
        let mut one_of = OneOfPolluter::new("either", Box::new(Always), children, rng(5));
        let mut zeros = 0;
        let mut nulls = 0;
        for i in 0..1000 {
            let mut out = Vec::new();
            let mut log = PollutionLog::new();
            let mut em = Emission::new(&mut out, &mut log);
            one_of.process(tuple(i, 0, 70, 1.0), &mut em);
            assert_eq!(out.len(), 1);
            match out[0].tuple.get(1).unwrap() {
                Value::Int(0) => zeros += 1,
                Value::Null => nulls += 1,
                other => panic!("child did not fire: {other:?}"),
            }
        }
        assert!(
            zeros > 400 && nulls > 400,
            "roughly uniform: {zeros}/{nulls}"
        );
    }

    #[test]
    fn one_of_weighted() {
        let children: Vec<BoxPolluter> = vec![
            std_polluter("zero", Box::new(Constant::new(Value::Int(0))), "BPM"),
            std_polluter("null", Box::new(MissingValue), "BPM"),
        ];
        let mut one_of =
            OneOfPolluter::weighted("either", Box::new(Always), children, &[0.9, 0.1], rng(5))
                .unwrap();
        let mut zeros = 0;
        for i in 0..2000 {
            let mut out = Vec::new();
            let mut log = PollutionLog::new();
            let mut em = Emission::new(&mut out, &mut log);
            one_of.process(tuple(i, 0, 70, 1.0), &mut em);
            if out[0].tuple.get(1).unwrap() == &Value::Int(0) {
                zeros += 1;
            }
        }
        assert!((1650..1950).contains(&zeros), "~90%: {zeros}");
        let t = tuple(0, 0, 70, 1.0);
        assert!((one_of.expected_probability(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_of_rejects_bad_weights() {
        let mk = || -> Vec<BoxPolluter> { vec![std_polluter("a", Box::new(MissingValue), "BPM")] };
        assert!(OneOfPolluter::weighted("x", Box::new(Always), mk(), &[0.5, 0.5], rng(1)).is_err());
        assert!(OneOfPolluter::weighted("x", Box::new(Always), mk(), &[-1.0], rng(1)).is_err());
        assert!(OneOfPolluter::weighted("x", Box::new(Always), mk(), &[0.0], rng(1)).is_err());
    }

    fn one_of_run(weights: &[f64], seed: u64, n: u64) -> Vec<Value> {
        let children: Vec<BoxPolluter> = vec![
            std_polluter("zero", Box::new(Constant::new(Value::Int(0))), "BPM"),
            std_polluter("null", Box::new(MissingValue), "BPM"),
        ];
        let mut one_of =
            OneOfPolluter::weighted("either", Box::new(Always), children, weights, rng(seed))
                .unwrap();
        (0..n)
            .map(|i| {
                let mut out = Vec::new();
                let mut log = PollutionLog::new();
                let mut em = Emission::new(&mut out, &mut log);
                one_of.process(tuple(i, i as i64 * 1000, 70, 1.0), &mut em);
                out.pop().unwrap().tuple.get(1).unwrap().clone()
            })
            .collect()
    }

    #[test]
    fn one_of_weights_normalize() {
        // Only the weight *ratios* matter: [9, 1] and [0.9, 0.1] draw
        // against the same cumulative fractions, so under the same seed
        // every pick is identical.
        assert_eq!(
            one_of_run(&[9.0, 1.0], 5, 500),
            one_of_run(&[0.9, 0.1], 5, 500)
        );
        assert_eq!(
            one_of_run(&[18.0, 2.0], 5, 500),
            one_of_run(&[0.9, 0.1], 5, 500)
        );
    }

    #[test]
    fn one_of_zero_weight_child_never_fires() {
        // Weight 0 on the nulling child: no tuple may come out null.
        let out = one_of_run(&[1.0, 0.0], 7, 1000);
        assert!(
            out.iter().all(|v| *v == Value::Int(0)),
            "zero-weight child fired"
        );
    }

    #[test]
    fn one_of_weighted_is_deterministic_under_fixed_seed() {
        let a = one_of_run(&[0.7, 0.3], 11, 1000);
        let b = one_of_run(&[0.7, 0.3], 11, 1000);
        assert_eq!(a, b, "same seed, same picks");
        // Both children actually participate at these weights.
        assert!(a.contains(&Value::Int(0)) && a.contains(&Value::Null));
        // A different seed produces a different draw sequence.
        assert_ne!(a, one_of_run(&[0.7, 0.3], 12, 1000));
    }

    #[test]
    fn one_of_with_never_condition_passes_through() {
        let children: Vec<BoxPolluter> = vec![std_polluter("null", Box::new(MissingValue), "BPM")];
        let mut one_of = OneOfPolluter::new("x", Box::new(Never), children, rng(1));
        let mut out = Vec::new();
        let mut log = PollutionLog::new();
        let mut em = Emission::new(&mut out, &mut log);
        one_of.process(tuple(1, 0, 70, 1.0), &mut em);
        assert_eq!(out[0].tuple.get(1).unwrap(), &Value::Int(70));
    }

    #[test]
    fn pipeline_expected_probability_composes() {
        let mk = |seed: u64| -> BoxPolluter {
            Box::new(
                StandardPolluter::bind(
                    "p50",
                    Box::new(MissingValue),
                    Box::new(Probability::new(0.5, rng(seed))),
                    &["Distance"],
                    ChangePattern::Constant,
                    &schema(),
                    rng(seed + 100),
                )
                .unwrap(),
            )
        };
        let p = PollutionPipeline::new(vec![mk(1), mk(2)]);
        let t = tuple(1, 0, 70, 1.0);
        assert!((p.expected_probability(&t) - 0.75).abs() < 1e-12);
    }
}
