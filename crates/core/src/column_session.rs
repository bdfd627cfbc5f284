//! Column sessions: a pushed stream that stays in columns from the
//! caller's decoder to its encoder.
//!
//! Between Algorithm 1's preparation (lines 1–3) and its sort by
//! arrival (line 11), a plan of value polluters with the log off only
//! edits attribute values: every sub-stream maps each tuple to exactly
//! one tuple and holds none back. Such a plan is *column-exact* — its
//! logging is off, it has no `chaos` and no `checkpoint` section, no
//! reconfiguration is scheduled on it, and every sub-stream lowers to a
//! [`ColumnPipeline`] — and a column session runs it without a
//! [`Tuple`] per row:
//!
//! - a caller that decodes a frame of rows straight into a schema-typed
//!   [`ColumnBatch`] pushes it whole ([`ColumnSession::push_batch`]); it
//!   is stamped in place, routed row by row with the plan's own
//!   assigner, and each sub-stream's share runs through that
//!   sub-stream's column kernels in place;
//! - rows that did not fit a batch (another arity, a value of another
//!   type than its column's) are pushed as tuples
//!   ([`ColumnSession::push_tuples`]) and run through the same
//!   pipelines one at a time ([`ColumnPipeline::process_row`]), so each
//!   sub-stream keeps one RNG and one set of statistics whatever its
//!   rows arrive as;
//! - what the watermarks release is handed to the caller as chunks of
//!   [`ReleasedRow`]s that point into the buffers the kernels wrote
//!   ([`ColumnSession::drain`]); a buffer is dropped once its last row
//!   has been handed out.
//!
//! **Exactness.** The pipelines are built by [`lower_pipeline`] from
//! the same component seeds the row pipelines use; stamps follow
//! [`PrepareOperator`]; the assigner is called in row order; watermarks
//! come from the stream runtime's generator with the plan's period, and
//! the stream runtime's [`EventTimeSorter`], keyed `(arrival,
//! sub_stream)` as the row topology keys it, orders handles to the
//! rows. Each release is cut into chunks of the plan's `batch_size`, as
//! the row topology's output rebatching cuts it. For the same plan and
//! tuples, the chunks, the tuples in them and the report's tuple counts
//! and polluter statistics are those a
//! [`StreamingSession`](crate::StreamingSession) writes into its sink
//! (`tests/batch_determinism.rs` compares the two on generated plans).
//! The report's stage metrics differ: they count the rows that went
//! through the kernels and the rows that went one at a time.

use crate::columnar::{lower_pipeline, pipeline_lowerable, ColumnPipeline};
use crate::log::PollutionLog;
use crate::plan::LogicalPlan;
use crate::prepare::PrepareOperator;
use crate::report::RunReport;
use crate::runner::{run_report, ExecSettings, Selector};
use crate::stats::PolluterStatsHandle;
use icewafl_obs::{trace, Counter, MetricsRegistry};
use icewafl_stream::{
    EventTimeSorter, Operator, PipelineError, SorterMetrics, StageError, WatermarkGenerator,
    WatermarkStrategy,
};
use icewafl_types::{ColumnBatch, Duration, Result, Schema, StampedTuple, Timestamp, Tuple};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a failure in the column step is attributed to.
const STAGE: &str = "column_session";

/// One released row, where it lives: a row of a batch the kernels ran
/// over, or a tuple that went through the pipelines on its own.
#[derive(Debug, Clone, Copy)]
pub enum ReleasedRow<'a> {
    /// Row `.1` of a polluted batch.
    Column(&'a ColumnBatch, usize),
    /// A polluted tuple.
    Tuple(&'a StampedTuple),
}

impl ReleasedRow<'_> {
    /// How many values the row has.
    pub fn arity(&self) -> usize {
        match self {
            ReleasedRow::Column(batch, _) => batch.arity(),
            ReleasedRow::Tuple(t) => t.tuple.len(),
        }
    }
}

/// What the sorter holds for a row: its sort key and where it lives.
#[derive(Clone, Copy)]
struct Handle {
    arrival: Timestamp,
    sub_stream: u32,
    /// Position in its segment.
    row: u32,
    /// Which segment.
    segment: u64,
}

/// The row topology's sort key.
fn sort_key(h: &Handle) -> (Timestamp, u32) {
    (h.arrival, h.sub_stream)
}

type Sorter = EventTimeSorter<Handle, fn(&Handle) -> (Timestamp, u32), (Timestamp, u32)>;

/// The polluted rows one sub-stream made of one pushed frame.
enum Rows {
    Columns(ColumnBatch),
    Tuples(Vec<StampedTuple>),
}

/// A segment and how many of its rows are still to be handed out.
struct Segment {
    rows: Option<Rows>,
    unreleased: usize,
}

/// Every segment some of whose rows are still held or undrained,
/// numbered in push order.
#[derive(Default)]
struct Segments {
    first: u64,
    held: VecDeque<Segment>,
}

impl Segments {
    fn push(&mut self, rows: Rows, len: usize) -> u64 {
        self.held.push_back(Segment {
            rows: Some(rows),
            unreleased: len,
        });
        self.first + self.held.len() as u64 - 1
    }

    fn row(&self, h: &Handle) -> ReleasedRow<'_> {
        let row = h.row as usize;
        match self.held[(h.segment - self.first) as usize].rows.as_ref() {
            Some(Rows::Columns(batch)) => ReleasedRow::Column(batch, row),
            Some(Rows::Tuples(tuples)) => ReleasedRow::Tuple(&tuples[row]),
            None => unreachable!("a segment lives until its last row is drained"),
        }
    }

    /// One row of `segment` was handed out: the last one drops it.
    fn release(&mut self, segment: u64) {
        let s = &mut self.held[(segment - self.first) as usize];
        s.unreleased -= 1;
        if s.unreleased == 0 {
            s.rows = None;
        }
    }

    /// Forgets dropped segments at the front.
    fn trim(&mut self) {
        while self.held.front().is_some_and(|s| s.rows.is_none()) {
            self.held.pop_front();
            self.first += 1;
        }
    }
}

/// A column-exact plan, opened and waiting to be fed (see the module
/// docs). Open one with
/// [`PhysicalPlan::open_column_session`](crate::PhysicalPlan::open_column_session).
///
/// Like a [`StreamingSession`](crate::StreamingSession) it is a single
/// attempt: a panic in the column step fails the session, what is
/// pushed from then on is dropped, and [`finish`](ColumnSession::finish)
/// reports the failure as a typed [`icewafl_types::Error::Pipeline`].
pub struct ColumnSession {
    prepare: PrepareOperator,
    selector: Selector,
    pipelines: Vec<ColumnPipeline>,
    /// Disabled: column-exact plans do not log.
    log: PollutionLog,
    watermarks: WatermarkGenerator<Timestamp>,
    sorter: Sorter,
    batch_size: usize,
    segments: Segments,
    /// Released rows not yet drained, in release order, and where each
    /// chunk of them ends.
    released: Vec<Handle>,
    chunk_ends: Vec<usize>,
    // Per-push scratch: each sub-stream's rows of the pushed frame, each
    // row's memberships as (sub-stream, position in that sub-stream's
    // rows) and where they end, what the selector filled in, each row's
    // arrival, and each sub-stream's segment.
    routes: Vec<Vec<usize>>,
    members: Vec<(u32, u32)>,
    member_ends: Vec<usize>,
    membership: Vec<usize>,
    arrivals: Vec<Timestamp>,
    segment_of: Vec<u64>,
    tuples_in: u64,
    tuples_out: u64,
    settings: ExecSettings,
    stat_handles: Vec<PolluterStatsHandle>,
    registry: MetricsRegistry,
    kernel_rows: Counter,
    tuple_rows: Counter,
    failure: Option<StageError>,
}

impl ColumnSession {
    /// Opens a session on `plan` compiled to `settings`, or `None` when
    /// the plan is not column-exact. Fails where
    /// [`PhysicalPlan::open_streaming`](crate::PhysicalPlan::open_streaming)
    /// would: a schema without an event-time attribute.
    pub(crate) fn open(plan: &LogicalPlan, settings: &ExecSettings) -> Result<Option<Self>> {
        let schema = &settings.schema;
        let exact = !settings.logging
            && settings.chaos.is_none()
            && settings.checkpoint.is_none()
            && settings.control.is_empty()
            && plan.pipelines.iter().all(|p| pipeline_lowerable(p, schema));
        if !exact {
            return Ok(None);
        }
        let prepare = PrepareOperator::new(schema)?;
        let mut pipelines = Vec::with_capacity(plan.pipelines.len());
        for (i, polluters) in plan.pipelines.iter().enumerate() {
            match lower_pipeline(plan.seed, i, polluters, schema)? {
                Some(pipeline) => pipelines.push(pipeline),
                None => return Ok(None),
            }
        }
        let mut stat_handles = Vec::new();
        for pipeline in &pipelines {
            pipeline.collect_stats(&mut stat_handles);
        }
        let m = pipelines.len();
        let registry = MetricsRegistry::new();
        let sorter =
            EventTimeSorter::new(sort_key as fn(&Handle) -> (Timestamp, u32)).with_metrics(
                SorterMetrics::register(&registry, &format!("{STAGE}/event_time_sorter")),
            );
        Ok(Some(ColumnSession {
            prepare,
            selector: settings.assigner.selector(m),
            pipelines,
            log: PollutionLog::disabled(),
            watermarks: WatermarkStrategy::bounded_out_of_orderness(
                |tau: &Timestamp| *tau,
                Duration::ZERO,
                settings.watermark_period,
            )
            .generator(),
            sorter,
            batch_size: settings.batch_size.max(1),
            segments: Segments::default(),
            released: Vec::new(),
            chunk_ends: Vec::new(),
            routes: vec![Vec::new(); m],
            members: Vec::new(),
            member_ends: Vec::new(),
            membership: Vec::with_capacity(m),
            arrivals: Vec::new(),
            segment_of: vec![0; m],
            tuples_in: 0,
            tuples_out: 0,
            settings: settings.clone(),
            stat_handles,
            kernel_rows: registry.counter(&format!("{STAGE}/kernel_rows")),
            tuple_rows: registry.counter(&format!("{STAGE}/tuple_rows")),
            registry,
            failure: None,
        }))
    }

    /// The schema the session's batches are typed by.
    pub fn schema(&self) -> &Schema {
        &self.settings.schema
    }

    /// Pushes a frame of rows whose values are in place and fit the
    /// session schema (NULL, or of their column's type, in every
    /// column), their stamps yet to be assigned: the batch is prepared,
    /// routed, and polluted by the column kernels.
    pub fn push_batch(&mut self, batch: ColumnBatch) {
        let rows = batch.len();
        self.guarded(rows, move |s| s.run_batch(batch));
    }

    /// Pushes a frame of tuples that did not fit a batch: each is
    /// prepared, routed and polluted on its own.
    pub fn push_tuples(&mut self, tuples: Vec<Tuple>) {
        let rows = tuples.len();
        self.guarded(rows, move |s| s.run_tuples(tuples));
    }

    /// Whether the column step has failed; what is pushed from then on
    /// is dropped, and [`finish`](ColumnSession::finish) reports the
    /// failure.
    pub fn is_failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Hands every chunk released since the last call to `emit`, in
    /// release order, then drops what no held row needs any more.
    pub fn drain(&mut self, mut emit: impl FnMut(&[ReleasedRow<'_>])) {
        let mut rows = Vec::with_capacity(self.batch_size.min(self.released.len()));
        let mut start = 0;
        for &end in &self.chunk_ends {
            rows.clear();
            rows.extend(
                self.released[start..end]
                    .iter()
                    .map(|h| self.segments.row(h)),
            );
            emit(&rows);
            start = end;
        }
        drop(rows);
        for h in self.released.drain(..) {
            self.segments.release(h.segment);
        }
        self.chunk_ends.clear();
        self.segments.trim();
    }

    /// Ends the stream: everything still held is released and handed to
    /// `emit`, then the run is reported. A failure of the column step
    /// surfaces as [`icewafl_types::Error::Pipeline`].
    pub fn finish(mut self, emit: impl FnMut(&[ReleasedRow<'_>])) -> Result<RunReport> {
        self.guarded(0, |s| {
            s.watermark(Timestamp::MAX);
            for pipeline in &mut s.pipelines {
                pipeline.finish(&mut s.log);
            }
        });
        if let Some(failure) = self.failure.take() {
            return Err(PipelineError::from(failure).into());
        }
        self.drain(emit);
        Ok(run_report(
            &self.settings,
            &self.stat_handles,
            &self.registry,
            &self.log,
            self.tuples_in,
            self.tuples_out,
        ))
    }

    /// Runs `step` in a `stage` trace span, unless the session has
    /// failed; a panic in it fails the session.
    fn guarded(&mut self, rows: usize, step: impl FnOnce(&mut Self)) {
        if self.failure.is_some() {
            return;
        }
        let mut span = trace::span(STAGE, "stage");
        if let Some(span) = span.as_mut() {
            span.arg("batch", rows as u64);
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| step(self))) {
            self.failure = Some(StageError::from_panic(STAGE, payload));
        }
    }

    fn run_batch(&mut self, mut batch: ColumnBatch) {
        let n = batch.len();
        self.tuples_in += n as u64;
        self.prepare.prepare_batch(&mut batch);
        self.route(batch.ids());
        self.arrivals.clear();
        self.arrivals
            .extend(batch.arrivals().iter().map(|&ms| Timestamp(ms)));
        // The last sub-stream that takes rows takes the batch itself
        // when it takes all of them; every other one gets its rows
        // copied out — their strings moved, when each row goes one way.
        let last = self.routes.iter().rposition(|route| !route.is_empty());
        let disjoint = self
            .member_ends
            .iter()
            .enumerate()
            .all(|(k, &end)| end == k + 1);
        let mut batch = Some(batch);
        for (i, route) in self.routes.iter().enumerate() {
            if route.is_empty() {
                continue;
            }
            let all = route.len() == n && route.iter().enumerate().all(|(k, &row)| k == row);
            let mut rows = if all && Some(i) == last {
                batch.take().expect("the last user takes the batch")
            } else {
                let source = batch.as_mut().expect("the last user takes the batch");
                match (all, disjoint) {
                    (true, _) => source.clone(),
                    (false, true) => source.take_rows(route),
                    (false, false) => source.select(route),
                }
            };
            self.pipelines[i].process_batch(&mut rows, &mut self.log);
            rows.set_sub_stream(i as u32);
            self.kernel_rows.add(rows.len() as u64);
            self.segment_of[i] = self.segments.push(Rows::Columns(rows), route.len());
        }
        drop(batch);
        self.feed_sorter();
    }

    fn run_tuples(&mut self, tuples: Vec<Tuple>) {
        self.tuples_in += tuples.len() as u64;
        let prepared: Vec<StampedTuple> = tuples
            .into_iter()
            .map(|t| self.prepare.prepare(t))
            .collect();
        let ids: Vec<u64> = prepared.iter().map(|t| t.id).collect();
        self.route(&ids);
        self.arrivals.clear();
        self.arrivals.extend(prepared.iter().map(|t| t.arrival));
        let mut polluted: Vec<Vec<StampedTuple>> = self
            .routes
            .iter()
            .map(|route| Vec::with_capacity(route.len()))
            .collect();
        let mut start = 0;
        for (tuple, &end) in prepared.into_iter().zip(&self.member_ends) {
            // Every member but the last gets a clone, as the row
            // topology's router hands them out.
            let members = &self.members[start..end];
            let mut tuple = Some(tuple);
            for (k, &(i, _)) in members.iter().enumerate() {
                let mut t = if k + 1 == members.len() {
                    tuple.take().expect("the last member takes the tuple")
                } else {
                    tuple.clone().expect("taken by the last member only")
                };
                self.pipelines[i as usize].process_row(&mut t, &mut self.log);
                t.sub_stream = i;
                polluted[i as usize].push(t);
            }
            start = end;
        }
        for (i, rows) in polluted.into_iter().enumerate() {
            if !rows.is_empty() {
                self.tuple_rows.add(rows.len() as u64);
                let len = rows.len();
                self.segment_of[i] = self.segments.push(Rows::Tuples(rows), len);
            }
        }
        self.feed_sorter();
    }

    /// Fills the per-push routing scratch for rows with these ids: the
    /// selector in row order, its memberships cleaned as the row
    /// topology's router cleans them.
    fn route(&mut self, ids: &[u64]) {
        for route in &mut self.routes {
            route.clear();
        }
        self.members.clear();
        self.member_ends.clear();
        let m = self.routes.len();
        for (row, &id) in ids.iter().enumerate() {
            self.membership.clear();
            (self.selector)(id, &mut self.membership);
            self.membership.retain(|&i| i < m);
            self.membership.dedup();
            for &i in &self.membership {
                let route = &mut self.routes[i];
                self.members.push((i as u32, route.len() as u32));
                route.push(row);
            }
            self.member_ends.push(self.members.len());
        }
    }

    /// Hands the pushed rows to the sorter in row order, each row's
    /// memberships in the order the selector named them, with the
    /// watermarks the rows close.
    fn feed_sorter(&mut self) {
        let mut start = 0;
        for row in 0..self.member_ends.len() {
            let arrival = self.arrivals[row];
            let end = self.member_ends[row];
            for &(i, position) in &self.members[start..end] {
                let handle = Handle {
                    arrival,
                    sub_stream: i,
                    row: position,
                    segment: self.segment_of[i as usize],
                };
                self.sorter.on_element(handle, &mut self.released);
            }
            start = end;
            // Preparation set arrival = τ, which is what watermarks
            // are generated from.
            if let Some(wm) = self.watermarks.on_record(&arrival) {
                self.watermark(wm);
            }
        }
    }

    /// Crosses watermark `wm`: every pipeline sees it, and what the
    /// sorter releases becomes chunks of at most `batch_size`.
    fn watermark(&mut self, wm: Timestamp) {
        for pipeline in &mut self.pipelines {
            pipeline.on_watermark(wm, &mut self.log);
        }
        let from = self.released.len();
        self.sorter.on_watermark(wm, &mut self.released);
        let to = self.released.len();
        self.tuples_out += (to - from) as u64;
        let mut at = from;
        while at < to {
            at = (at + self.batch_size).min(to);
            self.chunk_ends.push(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        ChaosSectionConfig, CheckpointSectionConfig, ConditionConfig, ErrorConfig, PolluterConfig,
    };
    use crate::plan::PlanDelta;
    use icewafl_types::{DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    fn noise() -> PolluterConfig {
        PolluterConfig::Standard {
            name: "noise".into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::GaussianNoise {
                sigma: 1.0,
                relative: false,
            },
            condition: ConditionConfig::Probability { p: 0.5 },
            pattern: None,
        }
    }

    fn exact_plan() -> LogicalPlan {
        LogicalPlan {
            logging: false,
            ..LogicalPlan::new(3, vec![vec![noise()], vec![noise()]])
        }
    }

    fn opens(plan: &LogicalPlan) -> bool {
        plan.compile(&schema())
            .unwrap()
            .open_column_session()
            .unwrap()
            .is_some()
    }

    #[test]
    fn only_column_exact_plans_open() {
        assert!(opens(&exact_plan()));
        assert!(!opens(&LogicalPlan {
            logging: true,
            ..exact_plan()
        }));
        assert!(!opens(&LogicalPlan {
            chaos: Some(ChaosSectionConfig::default()),
            ..exact_plan()
        }));
        assert!(!opens(&LogicalPlan {
            checkpoint: Some(CheckpointSectionConfig {
                dir: None,
                interval_epochs: 1,
            }),
            ..exact_plan()
        }));
        let mut temporal = exact_plan();
        temporal.pipelines[1].push(PolluterConfig::Delay {
            name: "late".into(),
            condition: ConditionConfig::Always,
            delay_ms: 1000,
        });
        assert!(!opens(&temporal));
        // A reconfiguration it could not follow.
        let physical = exact_plan().compile(&schema()).unwrap();
        physical
            .control_handle()
            .reconfigure_at(Timestamp(5_000), &[PlanDelta::SetSeed { seed: 4 }])
            .unwrap();
        assert!(physical.open_column_session().unwrap().is_none());
    }

    #[test]
    fn a_schema_without_event_time_fails_as_the_row_session_does() {
        let schema = Schema::from_pairs([("x", DataType::Float)]).unwrap();
        let physical = exact_plan().compile(&schema).unwrap();
        let row = physical
            .open_streaming(icewafl_stream::SharedVecSink::new())
            .err()
            .expect("a row session needs event time");
        let column = physical
            .open_column_session()
            .err()
            .expect("so does a column session");
        assert_eq!(column.to_string(), row.to_string());
    }

    #[test]
    fn a_panic_in_the_column_step_fails_the_session_with_a_typed_error() {
        let physical = exact_plan().compile(&schema()).unwrap();
        let mut session = physical.open_column_session().unwrap().unwrap();
        let rows = (0..4)
            .map(|i| {
                StampedTuple::new(
                    0,
                    Timestamp(0),
                    Tuple::new(vec![
                        Value::Timestamp(Timestamp(i * 1000)),
                        Value::Float(i as f64),
                    ]),
                )
            })
            .collect();
        session.push_batch(ColumnBatch::from_rows(&schema(), rows).unwrap());
        assert!(!session.is_failed());
        // A batch that breaks the contract — a column short of the
        // schema — panics in the kernels: the session fails, and what
        // is pushed after is dropped.
        let short = Schema::from_pairs([("Time", DataType::Timestamp)]).unwrap();
        let rows = vec![StampedTuple::new(
            0,
            Timestamp(0),
            Tuple::new(vec![Value::Timestamp(Timestamp(9_000))]),
        )];
        session.push_batch(ColumnBatch::from_rows(&short, rows).unwrap());
        assert!(session.is_failed());
        session.push_tuples(vec![Tuple::new(vec![Value::Null, Value::Null])]);
        match session.finish(|_| panic!("a failed session hands out nothing more")) {
            Err(icewafl_types::Error::Pipeline { stage, kind, .. }) => {
                assert_eq!((stage.as_str(), kind.as_str()), (STAGE, "panic"));
            }
            other => panic!("expected a pipeline failure, got {other:?}"),
        }
    }
}
