//! Columnar kernel compilation: lowering standard polluters onto
//! [`ColumnBatch`]es.
//!
//! A plan names, at compile time, exactly which columns each polluter's
//! condition reads and its error function writes. When every polluter in
//! a sub-stream pipeline is a *schema-known, 1:1* stage — a
//! [`StandardPolluter`] whose error function provably writes values of
//! the column's own type — the pipeline lowers to a [`ColumnPipeline`]:
//! a sequence of column kernels that run directly over a batch's typed
//! attribute vectors instead of per-tuple value slices.
//!
//! **Who runs it.** A [lowered](crate::PhysicalPlan::open_streaming_lowered)
//! [`StreamingSession`](crate::StreamingSession), whose sub-streams run
//! these pipelines: a binary serve session on a column-exact plan
//! decodes its frames straight into [`ColumnBatch`]es, runs each
//! sub-stream's kernels over that sub-stream's rows of them in place
//! ([`ColumnPipeline::process_rows`]) and encodes its output from the
//! same buffers, so nothing pivots.
//! Offline runs stay rows: fed rows and asked for rows, a column
//! pipeline would pay two pivots ([`ColumnBatch::from_rows`] /
//! [`ColumnBatch::into_rows`]) that cost more than the kernels save
//! (DESIGN.md decision 12). The repo benchmark's ledger times the
//! kernels on their own.
//!
//! **Exactness by construction.** A kernel does not reimplement the
//! polluter — it *wraps* the very same [`StandardPolluter`] the row path
//! would build (same component seed paths, so identical RNG streams and
//! statistics). Output and ground-truth log are therefore
//! byte-identical to row execution — the property this module's unit
//! tests pin against the row pipelines `build_pipelines` builds.
//!
//! **Two execution modes per stage.** When logging is off and both of a
//! stage's components ship a column kernel
//! ([`StandardPolluter::has_column_kernels`]), the stage runs
//! *vectorized*: the condition fills a branch-free byte mask over the
//! whole row selection ([bulk RNG draws](crate::rng::fill_uniform)
//! service the stochastic conditions), pattern intensities are drawn
//! for masked rows, and the error function's kernel edits the attribute
//! vectors directly — combining the mask with the column validity
//! bitmap, no tuple materialisation at all. Otherwise the stage *trampolines*:
//! each row is staged into one reusable scratch tuple and fed through
//! [`StandardPolluter::process_in_place`] — slower, but exact for every
//! component. The dispatch is per stage, so one typo polluter does not
//! rob its neighbours of their kernels. `docs/kernels.md` derives why
//! both modes emit identical bytes.
//!
//! **Eligibility rules.** Lowering (and vectorization within a lowered
//! pipeline) is governed by three named rules:
//!
//! - `stateless-1to1` — the polluter maps one tuple to one tuple with
//!   no cross-tuple state: native temporal polluters (delay, drop,
//!   duplicate, freeze hold tuples across watermarks), propagation,
//!   burst, keyed, and composites/one-ofs (children may be temporal)
//!   fail it.
//! - `resolved-attributes` — every attribute the polluter names exists
//!   in the schema, so reads and writes bind to column indices.
//! - `schema-typed-writes` — the error function provably writes values
//!   of its target columns' own types (or NULL), so a typed column
//!   store absorbs the output without re-deriving types per row.
//!
//! [`lower_pipeline`] returns `None` when any stage breaks a rule;
//! [`lowering_blocker`] names the polluter *and* the rule it broke.

use crate::config::{build_standard, ConditionConfig, ErrorConfig, PolluterConfig};
use crate::log::PollutionLog;
use crate::polluter::{Polluter, StandardPolluter};
use crate::rng::{ComponentPath, SeedFactory};
use crate::stats::PolluterStatsSnapshot;
use icewafl_types::{ColumnBatch, DataType, Result, Schema, StampedTuple, Timestamp, Tuple, Value};

/// Column indices a condition reads, appended to `out`. Probability-,
/// time-, and pattern-based conditions read only the stamp fields;
/// value conditions read one named column; composites read the union of
/// their children.
fn condition_reads(cond: &ConditionConfig, schema: &Schema, out: &mut Vec<usize>) {
    match cond {
        ConditionConfig::Always
        | ConditionConfig::Never
        | ConditionConfig::Probability { .. }
        | ConditionConfig::TimeWindow { .. }
        | ConditionConfig::HourRange { .. }
        | ConditionConfig::Sinusoidal { .. }
        | ConditionConfig::LinearRamp { .. }
        | ConditionConfig::Pattern { .. } => {}
        ConditionConfig::Value { attribute, .. } => {
            if let Some(idx) = schema.index_of(attribute) {
                out.push(idx);
            }
        }
        ConditionConfig::And { children } | ConditionConfig::Or { children } => {
            for c in children {
                condition_reads(c, schema, out);
            }
        }
        ConditionConfig::Not { inner } => condition_reads(inner, schema, out),
    }
}

/// Whether `error` provably writes values of its target columns' own
/// types (or NULL) — the condition for a typed column store to absorb
/// its output without falling back to rows.
///
/// The numeric family (`map_numeric`-based errors) preserves the value
/// family by construction: an `Int` stays `Int`, a `Float` stays
/// `Float`, a `Bool` stays `Bool`. `SwapAttributes` is safe because
/// `validate` already rejects mixed-domain pairs. Anything whose output
/// type depends on runtime data it might not control is rejected.
fn error_lowerable(error: &ErrorConfig, attrs: &[usize], schema: &Schema) -> bool {
    let dtype = |i: usize| schema.field(i).map(|f| f.dtype);
    match error {
        ErrorConfig::GaussianNoise { .. }
        | ErrorConfig::UniformNoise { .. }
        | ErrorConfig::Scale { .. }
        | ErrorConfig::Outlier { .. }
        | ErrorConfig::Round { .. }
        | ErrorConfig::UnitConversion { .. } => attrs
            .iter()
            .all(|&i| dtype(i).is_some_and(|d| d.is_numeric())),
        ErrorConfig::MissingValue => true,
        ErrorConfig::Constant { value } => match value.dtype() {
            None => true, // a NULL constant clears validity on any column
            Some(d) => attrs.iter().all(|&i| dtype(i) == Some(d)),
        },
        ErrorConfig::Typo { .. } | ErrorConfig::IncorrectCategory { .. } => {
            attrs.iter().all(|&i| dtype(i) == Some(DataType::Str))
        }
        // Validation enforces same-domain pairs, so swaps are
        // type-preserving once bound.
        ErrorConfig::SwapAttributes => true,
        ErrorConfig::TimestampShift { .. } => {
            attrs.iter().all(|&i| dtype(i) == Some(DataType::Timestamp))
        }
    }
}

/// Why `polluter` cannot lower to a column kernel, or `None` if it can.
/// Each message names the polluter, the eligibility rule it broke (see
/// the module docs), and what about the polluter breaks it.
fn polluter_blocker(polluter: &PolluterConfig, schema: &Schema) -> Option<String> {
    match polluter {
        PolluterConfig::Standard {
            name,
            attributes,
            error,
            ..
        } => {
            let attrs: Vec<usize> = match attributes
                .iter()
                .map(|a| schema.require(a))
                .collect::<Result<_>>()
            {
                Ok(v) => v,
                Err(_) => {
                    return Some(format!(
                        "`{name}` breaks rule resolved-attributes: names an attribute \
                         outside the schema"
                    ))
                }
            };
            if error_lowerable(error, &attrs, schema) {
                None
            } else {
                Some(format!(
                    "`{name}` breaks rule schema-typed-writes: error output type not \
                     provable for its columns"
                ))
            }
        }
        PolluterConfig::Composite { name, .. } | PolluterConfig::OneOf { name, .. } => Some(
            format!("`{name}` breaks rule stateless-1to1: composite children may be temporal"),
        ),
        PolluterConfig::Delay { name, .. }
        | PolluterConfig::Drop { name, .. }
        | PolluterConfig::Duplicate { name, .. }
        | PolluterConfig::Freeze { name, .. }
        | PolluterConfig::Burst { name, .. } => Some(format!(
            "`{name}` breaks rule stateless-1to1: stateful temporal polluter holds \
             tuples across watermarks"
        )),
        PolluterConfig::Propagation { name, .. } => Some(format!(
            "`{name}` breaks rule stateless-1to1: stateful temporal polluter repeats \
             earlier values"
        )),
        PolluterConfig::Keyed { name, .. } => Some(format!(
            "`{name}` breaks rule stateless-1to1: per-key state spans tuples"
        )),
    }
}

/// Why a sub-stream pipeline does not lower, or `None` if every stage
/// does.
pub fn lowering_blocker(polluters: &[PolluterConfig], schema: &Schema) -> Option<String> {
    polluters.iter().find_map(|p| polluter_blocker(p, schema))
}

/// Whether a sub-stream pipeline lowers fully to column kernels.
pub fn pipeline_lowerable(polluters: &[PolluterConfig], schema: &Schema) -> bool {
    lowering_blocker(polluters, schema).is_none()
}

/// One column kernel: a real [`StandardPolluter`] plus the column sets
/// its trampoline materialises (reads ∪ writes) and writes back.
struct ColumnStage {
    polluter: StandardPolluter,
    /// Columns copied into the scratch tuple before the row runs —
    /// everything the condition reads plus everything the error writes.
    touched: Vec<usize>,
    /// Columns written back after the row runs (the error's `A_p`).
    writes: Vec<usize>,
    /// Whether both components ship a column kernel, captured at
    /// lowering time ([`StandardPolluter::has_column_kernels`]).
    vectorized: bool,
}

impl ColumnStage {
    /// Runs one row through the kernel: stamp + touched columns into the
    /// scratch tuple, the polluter's exact 1:1 core, written columns
    /// back out.
    #[inline]
    fn apply(
        &mut self,
        batch: &mut ColumnBatch,
        row: usize,
        scratch: &mut StampedTuple,
        log: &mut PollutionLog,
    ) {
        let (id, tau, arrival, sub_stream) = batch.stamp(row);
        scratch.id = id;
        scratch.tau = tau;
        scratch.arrival = arrival;
        scratch.sub_stream = sub_stream;
        for &idx in &self.touched {
            *scratch
                .tuple
                .get_mut(idx)
                .expect("scratch has schema arity") = batch.column(idx).value_at(row);
        }
        self.polluter.process_in_place(scratch, log);
        for &idx in &self.writes {
            let value = std::mem::replace(
                scratch
                    .tuple
                    .get_mut(idx)
                    .expect("scratch has schema arity"),
                Value::Null,
            );
            let stored = batch.column_mut(idx).set_value(row, value);
            debug_assert!(stored, "lowering matrix guarantees type-preserving writes");
        }
    }
}

/// A fully lowered sub-stream pipeline: column kernels applied in stage
/// order over a [`ColumnBatch`], behaviourally identical to feeding each
/// row through the equivalent
/// [`PollutionPipeline`](crate::pipeline::PollutionPipeline).
pub struct ColumnPipeline {
    stages: Vec<ColumnStage>,
    /// One reusable full-arity tuple the trampoline writes rows into;
    /// slots no kernel touches stay NULL forever.
    scratch: StampedTuple,
    /// Condition-mask scratch for the vectorized path, one byte per
    /// selected row, reused across batches and stages.
    mask: Vec<u8>,
    /// Pattern-intensity scratch for the vectorized path.
    intensities: Vec<f64>,
}

impl ColumnPipeline {
    /// Number of kernel stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` iff the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// How many stages run vectorized (condition *and* error ship
    /// column kernels); the remaining `len() - vectorized_stages()`
    /// stages trampoline row by row.
    #[cfg(test)]
    fn vectorized_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.vectorized).count()
    }

    /// Runs a whole batch through every stage in place:
    /// [`ColumnPipeline::process_rows`] over every row, in order.
    pub fn process_batch(&mut self, batch: &mut ColumnBatch, log: &mut PollutionLog) {
        let every: Vec<u32> = (0..batch.len() as u32).collect();
        self.process_rows(batch, &every, log);
    }

    /// Runs the rows of `batch` that `rows` selects through every stage
    /// in place, in selection order; no other row is read or written.
    /// Every component draws its randomness once per selected row in
    /// selection order, as the row pipeline fed those rows as tuples
    /// does.
    ///
    /// With logging enabled the loop is row-major (a row crosses all
    /// stages before the next row starts) so ground-truth log entries
    /// land in exactly the order the row path writes them, every stage
    /// on the trampoline. With logging disabled there is no observable
    /// ordering between rows — each component's RNG sees rows in the
    /// same order either way — so the loop flips to stage-major:
    /// stages with column kernels run them over the whole selection
    /// ([`StandardPolluter::process_columns`]), the rest trampoline one
    /// row at a time.
    pub fn process_rows(&mut self, batch: &mut ColumnBatch, rows: &[u32], log: &mut PollutionLog) {
        if log.is_enabled() {
            for &row in rows {
                for stage in &mut self.stages {
                    stage.apply(batch, row as usize, &mut self.scratch, log);
                }
            }
        } else {
            for stage in &mut self.stages {
                if stage.vectorized {
                    stage.polluter.process_columns(
                        batch,
                        rows,
                        &mut self.mask,
                        &mut self.intensities,
                    );
                } else {
                    for &row in rows {
                        stage.apply(batch, row as usize, &mut self.scratch, log);
                    }
                }
            }
        }
    }

    /// Runs one loose row through every stage in place — the exact
    /// per-tuple sequence the row path executes: how a lowered session
    /// pollutes a row that did not fit a batch.
    pub fn process_row(&mut self, tuple: &mut StampedTuple, log: &mut PollutionLog) {
        for stage in &mut self.stages {
            stage.polluter.process_in_place(tuple, log);
        }
    }

    /// What every stage's polluter has counted so far, in stage order,
    /// appended to `out`: what
    /// [`PollutionPipeline::append_stats`](crate::pipeline::PollutionPipeline::append_stats)
    /// appends for the row pipeline this one re-expresses, so a run on
    /// either reports the same statistics under the same names.
    /// Standard polluters hold no tuples, so a column pipeline needs no
    /// watermark or end-of-stream hook.
    pub fn append_stats(&self, out: &mut Vec<PolluterStatsSnapshot>) {
        for stage in &self.stages {
            Polluter::append_stats(&stage.polluter, out);
        }
    }
}

/// Compiles one sub-stream's polluter configs into a [`ColumnPipeline`],
/// or `None` when any stage cannot lower. `pipeline_idx` must be the
/// sub-stream's index in the plan: component RNGs derive from
/// `pipeline[<idx>][<stage>].{cond,error,pattern}`
/// — the identical paths `build_pipelines` uses — so the lowered
/// pipeline is the row pipeline, re-expressed.
pub fn lower_pipeline(
    seed: u64,
    pipeline_idx: usize,
    polluters: &[PolluterConfig],
    schema: &Schema,
) -> Result<Option<ColumnPipeline>> {
    if !pipeline_lowerable(polluters, schema) {
        return Ok(None);
    }
    let seeds = SeedFactory::new(seed);
    let path = ComponentPath::root().child("pipeline").index(pipeline_idx);
    let mut stages = Vec::with_capacity(polluters.len());
    for (j, p) in polluters.iter().enumerate() {
        let PolluterConfig::Standard {
            name,
            attributes,
            error,
            condition,
            pattern,
        } = p
        else {
            unreachable!("pipeline_lowerable admits only standard polluters");
        };
        let polluter = build_standard(
            name,
            attributes,
            error,
            condition,
            pattern,
            schema,
            &seeds,
            &path.index(j),
        )?;
        let mut touched = polluter.attrs().to_vec();
        condition_reads(condition, schema, &mut touched);
        touched.sort_unstable();
        touched.dedup();
        stages.push(ColumnStage {
            writes: polluter.attrs().to_vec(),
            touched,
            vectorized: polluter.has_column_kernels(),
            polluter,
        });
    }
    Ok(Some(ColumnPipeline {
        stages,
        scratch: StampedTuple::new(0, Timestamp(0), Tuple::new(vec![Value::Null; schema.len()])),
        mask: Vec::new(),
        intensities: Vec::new(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::build_pipelines;
    use crate::pattern::ChangePattern;
    use crate::polluter::Emission;
    use icewafl_types::Timestamp;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("BPM", DataType::Int),
            ("Distance", DataType::Float),
            ("sensor", DataType::Str),
        ])
        .unwrap()
    }

    fn rows(n: u64) -> Vec<StampedTuple> {
        (0..n)
            .map(|i| {
                let mut t = StampedTuple::new(
                    i,
                    Timestamp(i as i64 * 60_000),
                    Tuple::new(vec![
                        Value::Timestamp(Timestamp(i as i64 * 60_000)),
                        Value::Int(60 + (i as i64 % 80)),
                        Value::Float(i as f64 * 0.25),
                        Value::Str(format!("s{}", i % 3).into()),
                    ]),
                );
                t.arrival = Timestamp(i as i64 * 60_000 + 3);
                t.sub_stream = 0;
                t
            })
            .collect()
    }

    fn noisy_pipeline() -> Vec<PolluterConfig> {
        vec![
            PolluterConfig::Standard {
                name: "noise".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::GaussianNoise {
                    sigma: 2.0,
                    relative: false,
                },
                condition: ConditionConfig::Probability { p: 0.5 },
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "bpm-null".into(),
                attributes: vec!["BPM".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Value {
                    attribute: "BPM".into(),
                    op: crate::condition::CmpOp::Gt,
                    value: Value::Int(100),
                },
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "scale-late".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::Scale { factor: 2.0 },
                condition: ConditionConfig::Probability { p: 0.3 },
                pattern: Some(ChangePattern::Gradual {
                    from: Timestamp(0),
                    to: Timestamp(3_600_000),
                }),
            },
        ]
    }

    /// Feeds `rows` through the row pipeline tuple-by-tuple, mirroring
    /// what the pollution operator does per batch.
    fn run_rows(
        polluters: &[PolluterConfig],
        seed: u64,
        input: Vec<StampedTuple>,
        logging: bool,
    ) -> (Vec<StampedTuple>, PollutionLog) {
        let mut pipeline = build_pipelines(seed, &[polluters.to_vec()], &schema())
            .unwrap()
            .pop()
            .unwrap();
        let mut out = Vec::new();
        let mut log = if logging {
            PollutionLog::new()
        } else {
            PollutionLog::disabled()
        };
        for (k, t) in input.into_iter().enumerate() {
            if k > 0 && k % 64 == 0 {
                let wm = Timestamp((k as i64 - 1) * 60_000);
                let mut em = Emission::new(&mut out, &mut log);
                pipeline.on_watermark(wm, &mut em);
            }
            let mut em = Emission::new(&mut out, &mut log);
            pipeline.process(t, &mut em);
        }
        let mut em = Emission::new(&mut out, &mut log);
        pipeline.finish(&mut em);
        (out, log)
    }

    /// Same schedule through the lowered column pipeline.
    fn run_columns(
        polluters: &[PolluterConfig],
        seed: u64,
        input: Vec<StampedTuple>,
        logging: bool,
    ) -> (Vec<StampedTuple>, PollutionLog) {
        let mut pipeline = lower_pipeline(seed, 0, polluters, &schema())
            .unwrap()
            .expect("lowerable");
        let mut log = if logging {
            PollutionLog::new()
        } else {
            PollutionLog::disabled()
        };
        let mut out = Vec::new();
        for chunk in input.chunks(64) {
            let mut batch = ColumnBatch::from_rows(&schema(), chunk.to_vec()).unwrap();
            pipeline.process_batch(&mut batch, &mut log);
            out.extend(batch.into_rows());
        }
        (out, log)
    }

    /// One polluter per vectorized kernel family: every condition kernel
    /// (always, never, probability, value, time-window, hour-range,
    /// sinusoid, ramp) and every error kernel family (scale, noise,
    /// rounding, freeze/missing, constant, outlier, uniform noise, unit
    /// conversion, timestamp shift), plus non-constant change patterns.
    fn every_kernel_family() -> Vec<PolluterConfig> {
        let std = |name: &str,
                   attr: &str,
                   error: ErrorConfig,
                   condition: ConditionConfig,
                   pattern: Option<ChangePattern>| {
            PolluterConfig::Standard {
                name: name.into(),
                attributes: vec![attr.into()],
                error,
                condition,
                pattern,
            }
        };
        vec![
            std(
                "always-round",
                "Distance",
                ErrorConfig::Round { precision: 1 },
                ConditionConfig::Always,
                None,
            ),
            std(
                "window-unit",
                "Distance",
                ErrorConfig::UnitConversion { factor: 1000.0 },
                ConditionConfig::TimeWindow {
                    from: Some("1970-01-01 01:00:00".into()),
                    to: Some("1970-01-01 05:00:00".into()),
                },
                None,
            ),
            std(
                "hours-outlier",
                "BPM",
                ErrorConfig::Outlier { magnitude: 3.0 },
                ConditionConfig::HourRange { start: 2, end: 7 },
                None,
            ),
            std(
                "sin-uniform",
                "Distance",
                ErrorConfig::UniformNoise { a: 0.0, b: 0.3 },
                ConditionConfig::Sinusoidal {
                    amplitude: 0.25,
                    offset: 0.25,
                },
                None,
            ),
            std(
                "ramp-const",
                "sensor",
                ErrorConfig::Constant {
                    value: Value::Str("fixed".into()),
                },
                ConditionConfig::LinearRamp {
                    from: "1970-01-01 00:30:00".into(),
                    to: "1970-01-01 07:00:00".into(),
                    p0: 0.1,
                    p1: 0.9,
                },
                None,
            ),
            std(
                "shift-time",
                "Time",
                ErrorConfig::TimestampShift {
                    delta_ms: -3_600_000,
                },
                ConditionConfig::Probability { p: 0.4 },
                None,
            ),
            std(
                "never-null",
                "BPM",
                ErrorConfig::MissingValue,
                ConditionConfig::Never,
                None,
            ),
            std(
                "gauss-on-big",
                "Distance",
                ErrorConfig::GaussianNoise {
                    sigma: 0.1,
                    relative: true,
                },
                ConditionConfig::Value {
                    attribute: "Distance".into(),
                    op: crate::condition::CmpOp::Gt,
                    value: Value::Float(10.0),
                },
                Some(ChangePattern::Incremental {
                    from: Timestamp(0),
                    to: Timestamp(4 * 3_600_000),
                }),
            ),
            std(
                "scale-gradual",
                "BPM",
                ErrorConfig::Scale { factor: 1.5 },
                ConditionConfig::Probability { p: 0.7 },
                Some(ChangePattern::Gradual {
                    from: Timestamp(0),
                    to: Timestamp(6 * 3_600_000),
                }),
            ),
        ]
    }

    #[test]
    fn every_vectorized_family_matches_row_path() {
        let polluters = every_kernel_family();
        let pipeline = lower_pipeline(23, 0, &polluters, &schema())
            .unwrap()
            .expect("lowerable");
        assert_eq!(
            pipeline.vectorized_stages(),
            polluters.len(),
            "every family lowers onto its column kernels"
        );
        for logging in [true, false] {
            let (rows_out, rows_log) = run_rows(&polluters, 23, rows(500), logging);
            let (cols_out, cols_log) = run_columns(&polluters, 23, rows(500), logging);
            assert_eq!(cols_out, rows_out, "tuples (logging={logging})");
            assert_eq!(
                serde_json::to_string(cols_log.entries()).unwrap(),
                serde_json::to_string(rows_log.entries()).unwrap(),
                "ground-truth log (logging={logging})"
            );
        }
    }

    #[test]
    fn forced_trampoline_matches_vectorized() {
        let polluters = every_kernel_family();
        let run = |vectorized: bool| {
            let mut pipeline = lower_pipeline(5, 0, &polluters, &schema())
                .unwrap()
                .expect("lowerable");
            if !vectorized {
                for stage in &mut pipeline.stages {
                    stage.vectorized = false;
                }
            }
            let mut log = PollutionLog::disabled();
            let mut out = Vec::new();
            for chunk in rows(500).chunks(96) {
                let mut batch = ColumnBatch::from_rows(&schema(), chunk.to_vec()).unwrap();
                pipeline.process_batch(&mut batch, &mut log);
                out.extend(batch.into_rows());
            }
            out
        };
        assert_eq!(run(true), run(false));
    }

    /// The kernel contract over a selection, one family at a time: a
    /// pipeline run over rows `rows` of a batch writes those rows as the
    /// same pipeline run over `select(rows)` writes the copy — values,
    /// validity, counts and the RNG position after — and leaves every
    /// other row alone; on the vectorized path and on the trampoline.
    #[test]
    fn kernels_over_a_selection_equal_kernels_over_its_copy() {
        // Rows with NULLs in every column, so validity is exercised.
        let sparse = |from: usize, n: usize| {
            let mut rows = rows((from + n) as u64).split_off(from);
            for (k, t) in rows.iter_mut().enumerate() {
                t.tuple.replace(k % 4, Value::Null);
            }
            ColumnBatch::from_rows(&schema(), rows).unwrap()
        };
        let input = sparse(0, 300);
        let (rows, rest): (Vec<u32>, Vec<u32>) = (0..300).partition(|i| i % 3 != 1 && i % 7 != 0);
        let next = sparse(300, 200);
        for polluter in every_kernel_family() {
            for vectorized in [true, false] {
                let lowered = || {
                    let mut pipeline =
                        lower_pipeline(17, 0, std::slice::from_ref(&polluter), &schema())
                            .unwrap()
                            .expect("lowerable");
                    pipeline.stages[0].vectorized &= vectorized;
                    pipeline
                };
                let (mut in_place, mut copied) = (lowered(), lowered());
                let mut log = PollutionLog::disabled();
                let mut batch = input.clone();
                in_place.process_rows(&mut batch, &rows, &mut log);
                let mut copy = input.select(&rows);
                copied.process_batch(&mut copy, &mut log);
                let family = format!("{polluter:?} (vectorized: {vectorized})");
                assert_eq!(batch.select(&rows), copy, "{family}: selected rows");
                assert_eq!(
                    batch.select(&rest),
                    input.select(&rest),
                    "{family}: other rows"
                );
                let stats = |p: &ColumnPipeline| {
                    let mut out = Vec::new();
                    p.append_stats(&mut out);
                    serde_json::to_string(&out).unwrap()
                };
                assert_eq!(stats(&in_place), stats(&copied), "{family}: counts");
                // The RNGs stand where they stand: the next batch comes
                // out the same from both.
                let (mut a, mut b) = (next.clone(), next.clone());
                in_place.process_batch(&mut a, &mut log);
                copied.process_batch(&mut b, &mut log);
                assert_eq!(a, b, "{family}: RNG position");
            }
        }
    }

    #[test]
    fn blockers_name_the_broken_rule() {
        let s = schema();
        let delay = PolluterConfig::Delay {
            name: "d".into(),
            condition: ConditionConfig::Always,
            delay_ms: 1000,
        };
        assert!(lowering_blocker(&[delay], &s)
            .unwrap()
            .contains("stateless-1to1"));
        let ghost = PolluterConfig::Standard {
            name: "ghost".into(),
            attributes: vec!["Nope".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[ghost], &s)
            .unwrap()
            .contains("resolved-attributes"));
        let bad = PolluterConfig::Standard {
            name: "bad".into(),
            attributes: vec!["Distance".into()],
            error: ErrorConfig::Constant {
                value: Value::Str("oops".into()),
            },
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[bad], &s)
            .unwrap()
            .contains("schema-typed-writes"));
    }

    #[test]
    fn kernels_match_row_path_byte_for_byte() {
        for logging in [true, false] {
            let (rows_out, rows_log) = run_rows(&noisy_pipeline(), 42, rows(500), logging);
            let (cols_out, cols_log) = run_columns(&noisy_pipeline(), 42, rows(500), logging);
            assert_eq!(cols_out, rows_out, "tuples (logging={logging})");
            assert_eq!(
                serde_json::to_string(cols_log.entries()).unwrap(),
                serde_json::to_string(rows_log.entries()).unwrap(),
                "ground-truth log (logging={logging})"
            );
        }
    }

    #[test]
    fn temporal_and_composite_polluters_block_lowering() {
        let s = schema();
        let delay = PolluterConfig::Delay {
            name: "d".into(),
            condition: ConditionConfig::Always,
            delay_ms: 1000,
        };
        let blocker = lowering_blocker(&[delay], &s).unwrap();
        assert!(blocker.contains("stateful temporal"), "{blocker}");
        let composite = PolluterConfig::Composite {
            name: "c".into(),
            condition: ConditionConfig::Always,
            children: vec![],
        };
        assert!(lowering_blocker(&[composite], &s).is_some());
        assert!(pipeline_lowerable(&noisy_pipeline(), &s));
        assert!(
            lower_pipeline(1, 0, &[], &s).unwrap().is_some(),
            "empty pipeline lowers to the identity"
        );
    }

    #[test]
    fn type_unsafe_constants_block_lowering() {
        let s = schema();
        let bad = PolluterConfig::Standard {
            name: "bad".into(),
            attributes: vec!["Distance".into()],
            error: ErrorConfig::Constant {
                value: Value::Str("oops".into()),
            },
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[bad], &s).is_some());
        let good = PolluterConfig::Standard {
            name: "good".into(),
            attributes: vec!["Distance".into()],
            error: ErrorConfig::Constant {
                value: Value::Float(0.0),
            },
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[good], &s).is_none());
        // Typos lower on Str columns only.
        let typo = |attr: &str| PolluterConfig::Standard {
            name: "typo".into(),
            attributes: vec![attr.into()],
            error: ErrorConfig::Typo {
                kind: crate::error_fn::TypoKind::Any,
            },
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[typo("sensor")], &s).is_none());
        assert!(lowering_blocker(&[typo("Distance")], &s).is_some());
    }

    #[test]
    fn string_kernels_match_row_path() {
        let polluters = vec![PolluterConfig::Standard {
            name: "typo".into(),
            attributes: vec!["sensor".into()],
            error: ErrorConfig::Typo {
                kind: crate::error_fn::TypoKind::Any,
            },
            condition: ConditionConfig::Probability { p: 0.4 },
            pattern: None,
        }];
        let (rows_out, rows_log) = run_rows(&polluters, 9, rows(300), true);
        let (cols_out, cols_log) = run_columns(&polluters, 9, rows(300), true);
        assert_eq!(cols_out, rows_out);
        assert_eq!(cols_log.len(), rows_log.len());
    }

    #[test]
    fn value_condition_reads_are_materialised() {
        // A condition on a column a *previous* stage writes: the kernel
        // must see the updated value, as the row path does.
        let polluters = vec![
            PolluterConfig::Standard {
                name: "bpm-zero".into(),
                attributes: vec!["BPM".into()],
                error: ErrorConfig::Constant {
                    value: Value::Int(0),
                },
                condition: ConditionConfig::Probability { p: 0.5 },
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "null-if-zero".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Value {
                    attribute: "BPM".into(),
                    op: crate::condition::CmpOp::Eq,
                    value: Value::Int(0),
                },
                pattern: None,
            },
        ];
        for logging in [true, false] {
            let (rows_out, _) = run_rows(&polluters, 11, rows(400), logging);
            let (cols_out, _) = run_columns(&polluters, 11, rows(400), logging);
            assert_eq!(cols_out, rows_out, "logging={logging}");
        }
    }
}
