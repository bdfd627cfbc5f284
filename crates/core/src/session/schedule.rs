//! The two schedules of [`StreamingSession::feed`], the call through
//! which a run hands its session its whole prepared input.
//!
//! The **inline** schedule is the loop of the module docs, tuple by
//! tuple on the calling thread; `push`, `push_batch` and every served
//! session run it too. The **pipelined** schedule cuts the input into
//! spans of [`SPAN_PERIODS`] watermark periods and splits the loop by
//! stage across two threads. While the calling thread clones the tuples
//! of span s each sub-stream takes and runs its pipeline over them, one
//! scoped helper thread runs
//!
//! - the **back** of span s−1: the sorter takes each period's output in
//!   sub-stream order and releases at the period's watermark, and the
//!   released rows are moved into the run's output;
//! - the **front** of span s+1: watermark generation and assignment,
//!   which name the input positions each sub-stream takes.
//!
//! A bounded channel of one span runs each way, so at most two spans
//! are in flight, and a span's buffers are reused two spans later.
//! Everything a polluter allocates — copy-on-write rows, log entries,
//! the span's output vectors — is allocated on the calling thread, and
//! a tuple's reference count is touched only there.
//!
//! The bytes are the inline schedule's. Each pipeline sees the same
//! tuples and watermarks in the same order; the sorter holds the same
//! records at every release, because its key `(arrival, sub_stream)`
//! orders across sub-streams and each sub-stream's output enters in
//! emission order; and the log is the per-sub-stream segments
//! concatenated either way. A failing stage is the one the inline loop
//! would have met first: each failure is placed in that loop's order
//! (see [`Order`]) and the earliest one is the session's.
//!
//! [`inline_reason`] picks the schedule from what the run can observe;
//! there is no option for it.

use super::{Merge, Source, StreamingSession, SubStream};
use crate::plan::StrategyHint;
use crate::runner::ExecSettings;
use icewafl_stream::fault::StageError;
use icewafl_types::{Schema, StampedTuple, Timestamp};
use std::sync::mpsc::{sync_channel, SyncSender};

/// Watermark periods per span of the pipelined schedule: long enough
/// that the two threads meet once per some thousand tuples, short
/// enough that the spans in flight stay small next to the input.
pub(crate) const SPAN_PERIODS: u64 = 64;

/// Source tuples per span under `settings`.
pub(crate) fn span_len(settings: &ExecSettings) -> usize {
    usize::try_from(SPAN_PERIODS.saturating_mul(settings.watermark_period)).unwrap_or(usize::MAX)
}

/// The cores the process may run on, as the standard library sees them
/// (one when it cannot tell).
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Why a run of `settings` over `input` tuples (`None`: not known yet)
/// feeds its input inline: the first rule the run fails, or `None` when
/// it runs pipelined. `cores` is asked last, and only for an input
/// longer than one span.
pub(crate) fn inline_reason(
    settings: &ExecSettings,
    input: Option<usize>,
    cores: fn() -> usize,
) -> Option<String> {
    if settings.strategy == StrategyHint::Sequential {
        return Some("the plan's strategy is `sequential`".into());
    }
    if settings.chaos.is_some() {
        // Injectors share one panic budget, spent in the inline loop's
        // interleaved order.
        return Some("the plan has a `chaos` section".into());
    }
    if settings.checkpoint.is_some() {
        return Some("the plan has a `checkpoint` section".into());
    }
    if !settings.control.is_empty() {
        return Some("a plan is scheduled on the control channel".into());
    }
    let span = span_len(settings);
    if input.is_some_and(|n| n <= span) {
        return Some(format!("the input is one span ({span} tuples) or shorter"));
    }
    if cores() < 2 {
        return Some("one core is available".into());
    }
    None
}

/// The schedule a run of `settings` takes, for `--explain`: the input's
/// length is not known there.
pub(crate) fn describe(settings: &ExecSettings) -> String {
    match inline_reason(settings, None, cores) {
        Some(reason) => format!("sequential ({reason})"),
        None => format!(
            "sequential up to {} input tuples (one span), pipelined past them",
            span_len(settings)
        ),
    }
}

/// The steps of the inline loop at one source position, in the order
/// it runs them: the assigner, the frames the tuple fills, then at a
/// watermark every sub-stream's take and crossing and the sorter's
/// release, then the deadline check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Assign,
    Frame,
    Take,
    Cross,
    Release,
    Deadline,
}

/// Where a failure falls in the inline loop's order: the source
/// position of the tuple whose step met it (the input's length for the
/// end of the stream), the step, and the sub-stream.
type Order = (u64, Step, u32);

/// The earliest failure seen, by [`Order`].
#[derive(Default)]
struct First(Option<(Order, StageError)>);

impl First {
    fn note(&mut self, order: Order, error: StageError) {
        if self.0.as_ref().is_none_or(|(first, _)| order < *first) {
            self.0 = Some((order, error));
        }
    }

    fn merge(&mut self, other: First) {
        if let Some((order, error)) = other.0 {
            self.note(order, error);
        }
    }
}

/// One span on its way through the pipeline: routed by the front,
/// polluted on the calling thread, merged by the back, then cleared for
/// a later span. Every per-sub-stream vector has one entry per
/// sub-stream.
struct Span {
    /// The watermarks the span's tuples close, each with the source
    /// position of the tuple that closed it. Every span but the last
    /// ends at one.
    marks: Vec<(u64, Timestamp)>,
    /// The input positions of the tuples routed to each sub-stream, in
    /// routing order,
    routed: Vec<Vec<usize>>,
    /// how many of them precede each mark,
    routed_ends: Vec<Vec<usize>>,
    /// and the source positions at which the inline loop would hand
    /// the sub-stream a full frame.
    fills: Vec<Vec<u64>>,
    /// What each sub-stream's pipeline emitted over the span,
    polluted: Vec<Vec<StampedTuple>>,
    /// and how much of it the sorter takes before each mark's release.
    polluted_ends: Vec<Vec<usize>>,
    /// A stage failed on the calling thread: the sorter takes nothing
    /// more.
    failed: bool,
}

impl Span {
    fn new(m: usize) -> Self {
        Span {
            marks: Vec::new(),
            routed: vec![Vec::new(); m],
            routed_ends: vec![Vec::new(); m],
            fills: vec![Vec::new(); m],
            polluted: vec![Vec::new(); m],
            polluted_ends: vec![Vec::new(); m],
            failed: false,
        }
    }

    /// Empties the span, keeping its buffers.
    fn clear(&mut self) {
        self.marks.clear();
        for v in &mut self.routed_ends {
            v.clear();
        }
        for v in &mut self.fills {
            v.clear();
        }
        for v in &mut self.polluted_ends {
            v.clear();
        }
        // `routed` and `polluted` are drained where they are consumed.
        self.failed = false;
    }
}

/// The front of the pipeline: the source step of every tuple.
struct Front<'a> {
    source: &'a mut Source,
    /// Where routed spans go; `None` once nothing is left to route.
    to_caller: Option<SyncSender<Span>>,
    input: &'a [StampedTuple],
    /// The position of the next tuple to route.
    next: usize,
    span_len: usize,
    batch_size: usize,
    /// Tuples routed to each sub-stream since the last watermark.
    since_watermark: Vec<usize>,
}

impl Front<'_> {
    /// Routes the next span into `spare` (or a new span) and hands it to
    /// the calling thread.
    fn route_next(&mut self, spare: Option<Span>, failure: &mut First) {
        let Some(to_caller) = self.to_caller.take() else {
            return;
        };
        let mut span = spare.unwrap_or_else(|| Span::new(self.since_watermark.len()));
        if self.route(&mut span, failure) && to_caller.send(span).is_ok() {
            self.to_caller = Some(to_caller);
        }
    }

    /// Routes the next span into `span`; `false` when nothing is left
    /// to route.
    fn route(&mut self, span: &mut Span, failure: &mut First) -> bool {
        if self.source.stopped || self.next == self.input.len() {
            return false;
        }
        let start = self.next;
        let m = span.routed.len();
        let mut sends = 0;
        while let Some(tuple) = self.input.get(self.next) {
            let pos = self.next as u64;
            self.next += 1;
            let wm = self.source.watermarks.on_record(&tuple.tau);
            if let Err(e) = self.source.select(tuple.id) {
                self.source.stopped = true;
                failure.note((pos, Step::Assign, 0), e);
                break;
            }
            for &i in &self.source.membership {
                span.routed[i].push(self.next - 1);
                self.since_watermark[i] += 1;
                if self.since_watermark[i].is_multiple_of(self.batch_size) {
                    span.fills[i].push(pos);
                }
            }
            sends += self.source.membership.len();
            self.source.emitted += 1;
            if let Some(wm) = wm {
                span.marks.push((pos, wm));
                for (ends, routed) in span.routed_ends.iter_mut().zip(&span.routed) {
                    ends.push(routed.len());
                }
                self.since_watermark.fill(0);
                sends += m;
            }
            if let Err(e) = self.source.check_deadline() {
                self.source.stopped = true;
                failure.note((pos, Step::Deadline, 0), e);
                break;
            }
            if wm.is_some() && self.next - start >= self.span_len {
                break;
            }
        }
        self.source.sends.add(sends as u64);
        true
    }
}

/// Every sub-stream's pipeline over `span`, period by period, each
/// period's watermark crossing it after the period's tuples.
fn pollute(
    subs: &mut [SubStream],
    span: &mut Span,
    input: &[StampedTuple],
    schema: &Schema,
    batch_size: usize,
    failure: &mut First,
) {
    let end = input.len() as u64;
    for (i, sub) in subs.iter_mut().enumerate() {
        let tag = i as u32;
        let routed = &mut span.routed[i];
        let (ends, fills) = (&span.routed_ends[i], &span.fills[i]);
        let total = routed.len();
        // The routing clone, made here: a tuple's reference count is
        // then only touched on the thread that pollutes it.
        let mut tuples = routed.drain(..).map(|pos| input[pos].clone());
        // The span's output vector collects what the pipeline emits.
        std::mem::swap(&mut sub.outbox, &mut span.polluted[i]);
        let (mut from, mut fills_before) = (0, 0);
        for k in 0..=span.marks.len() {
            let mark = span.marks.get(k);
            let to = ends.get(k).copied().unwrap_or(total);
            let period = (&mut tuples).take(to - from);
            if sub.pipeline_failed {
                period.for_each(drop);
            } else {
                let result = sub.pollute(period);
                if let Err((taken, e)) = sub.emit(tag, result) {
                    // The inline loop took the record in a full frame,
                    // or with the rest of the period at its watermark.
                    let frame = (taken - 1) / batch_size;
                    let order = match fills.get(fills_before + frame) {
                        Some(&pos) if (frame + 1) * batch_size <= to - from => {
                            (pos, Step::Frame, tag)
                        }
                        // The end of the stream takes a trailing
                        // partial frame.
                        _ => (mark.map_or(end, |&(pos, _)| pos), Step::Take, tag),
                    };
                    failure.note(order, e);
                }
            }
            fills_before += (to - from) / batch_size;
            from = to;
            if let Some(&(pos, wm)) = mark {
                if let Err(e) = sub.cross(tag, wm, schema) {
                    failure.note((pos, Step::Cross, tag), e);
                }
                span.polluted_ends[i].push(sub.outbox.len());
            }
        }
        std::mem::swap(&mut sub.outbox, &mut span.polluted[i]);
    }
    span.failed = failure.0.is_some();
}

/// The back of the pipeline: the sorter takes `span`'s output period by
/// period, each period's in sub-stream order, and releases into `out`
/// at each of the span's watermarks.
fn merge_span(
    merge: &mut Merge,
    span: &mut Span,
    out: &mut Vec<StampedTuple>,
    failure: &mut First,
) {
    if span.failed || failure.0.is_some() {
        for polluted in &mut span.polluted {
            polluted.clear();
        }
        return;
    }
    let mut outputs: Vec<_> = span.polluted.iter_mut().map(|v| v.drain(..)).collect();
    for (k, &(pos, wm)) in span.marks.iter().enumerate() {
        for (output, ends) in outputs.iter_mut().zip(&span.polluted_ends) {
            let n = ends[k] - k.checked_sub(1).map_or(0, |before| ends[before]);
            if n == 0 {
                continue;
            }
            if let Err(e) = merge.take(output.by_ref().take(n)) {
                return failure.note((pos, Step::Release, 0), e);
            }
        }
        merge.stage.watermark(wm);
        if let Err(e) = merge.release(Some(wm)) {
            return failure.note((pos, Step::Release, 0), e);
        }
        merge.drain_into(out);
    }
    // What the span emitted after its last watermark waits in the
    // sorter for the next one.
    for output in outputs {
        if output.len() > 0 {
            let pos = span.marks.last().map_or(0, |&(pos, _)| pos);
            if let Err(e) = merge.take(output) {
                return failure.note((pos, Step::Release, 0), e);
            }
        }
    }
}

/// [`StreamingSession::feed`] on two threads (see the module docs).
pub(super) fn feed(
    session: &mut StreamingSession,
    input: &[StampedTuple],
    out: &mut Vec<StampedTuple>,
) {
    session.schedule = "pipelined";
    session.tuples_in += input.len() as u64;
    // Sized here for a tuple out per tuple in: the helper grows it only
    // when the assigner duplicates tuples.
    out.reserve(input.len());
    let StreamingSession {
        source,
        subs,
        merge,
        settings,
        failure,
        ..
    } = session;
    let m = subs.len();
    let batch_size = merge.batch_size;
    let span_len = span_len(settings);
    let (to_caller, from_helper) = sync_channel::<Span>(1);
    let (to_helper, from_caller) = sync_channel::<Span>(1);
    let mut first = First::default();
    let helper_first = std::thread::scope(|scope| {
        let helper = scope.spawn(move || {
            let mut failure = First::default();
            let mut front = Front {
                source,
                to_caller: Some(to_caller),
                input,
                next: 0,
                span_len,
                batch_size,
                since_watermark: vec![0; m],
            };
            front.route_next(None, &mut failure);
            let mut spare = None;
            loop {
                // The front of span s+1 while the caller pollutes span s,
                front.route_next(spare.take(), &mut failure);
                // then the back of span s while it pollutes span s+1.
                let Ok(mut span) = from_caller.recv() else {
                    break;
                };
                merge_span(merge, &mut span, out, &mut failure);
                span.clear();
                spare = Some(span);
            }
            failure
        });
        while let Ok(mut span) = from_helper.recv() {
            pollute(
                subs,
                &mut span,
                input,
                &settings.schema,
                batch_size,
                &mut first,
            );
            if to_helper.send(span).is_err() {
                break;
            }
        }
        drop(to_helper);
        helper
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    });
    first.merge(helper_first);
    if let Some((_, error)) = first.0 {
        failure.get_or_insert(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        ChaosSectionConfig, CheckpointSectionConfig, ConditionConfig, ErrorConfig, PolluterConfig,
    };
    use crate::pipeline::PollutionPipeline;
    use crate::plan::{LogicalPlan, PlanDelta};
    use crate::polluter::{Emission, Polluter};
    use crate::runner::{run, PollutionOutput};
    use icewafl_types::{DataType, Result, Tuple, Value};

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 1000)),
                    Value::Float(i as f64),
                ])
            })
            .collect()
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

    /// Watermarks every 4 tuples: a span is 256 of them.
    fn plan(strategy: StrategyHint) -> LogicalPlan {
        LogicalPlan {
            strategy,
            watermark_period: 4,
            ..LogicalPlan::new(3, vec![vec![noise()], vec![noise()]])
        }
    }

    fn two_cores() -> usize {
        2
    }

    fn one_core() -> usize {
        1
    }

    fn reason(plan: &LogicalPlan, input: usize, cores: fn() -> usize) -> Option<String> {
        let physical = plan.compile(&schema()).unwrap();
        inline_reason(physical.settings(), Some(input), cores)
    }

    #[test]
    fn every_rule_names_itself_and_only_an_eligible_run_pipelines() {
        let auto = plan(StrategyHint::Auto);
        assert_eq!(span_len(auto.compile(&schema()).unwrap().settings()), 256);
        assert_eq!(reason(&auto, 257, two_cores), None);
        let inline =
            |plan: &LogicalPlan, input, cores| reason(plan, input, cores).expect("runs inline");
        assert!(inline(&plan(StrategyHint::Sequential), 257, two_cores).contains("`sequential`"));
        let chaos = LogicalPlan {
            chaos: Some(ChaosSectionConfig::default()),
            ..auto.clone()
        };
        assert!(inline(&chaos, 257, two_cores).contains("`chaos`"));
        let checkpoint = LogicalPlan {
            checkpoint: Some(CheckpointSectionConfig {
                dir: None,
                interval_epochs: 1,
            }),
            ..auto.clone()
        };
        assert!(inline(&checkpoint, 257, two_cores).contains("`checkpoint`"));
        assert!(inline(&auto, 256, two_cores).contains("one span (256 tuples)"));
        assert!(inline(&auto, 257, one_core).contains("one core"));
        let physical = auto.compile(&schema()).unwrap();
        physical
            .control_handle()
            .reconfigure_at(Timestamp(5_000), &[PlanDelta::SetSeed { seed: 4 }])
            .unwrap();
        assert!(inline_reason(physical.settings(), Some(257), two_cores)
            .unwrap()
            .contains("control channel"));
    }

    #[test]
    fn ineligible_runs_report_the_sequential_schedule() {
        let run = |plan: &LogicalPlan, n| {
            let physical = plan.compile(&schema()).unwrap();
            physical.execute(tuples(n)).unwrap().report.strategy
        };
        let auto = plan(StrategyHint::Auto);
        let sequential = Some("sequential".to_string());
        assert_eq!(run(&auto, 256), sequential);
        assert_eq!(run(&plan(StrategyHint::Sequential), 2000), sequential);
        let chaos = LogicalPlan {
            chaos: Some(ChaosSectionConfig::default()),
            ..auto.clone()
        };
        assert_eq!(run(&chaos, 2000), sequential);
        let checkpoint = LogicalPlan {
            checkpoint: Some(CheckpointSectionConfig {
                dir: None,
                interval_epochs: 1,
            }),
            ..auto.clone()
        };
        assert_eq!(run(&checkpoint, 2000), sequential);
        let scheduled = auto.compile(&schema()).unwrap();
        scheduled
            .control_handle()
            .reconfigure_at(Timestamp(5_000), &[PlanDelta::SetSeed { seed: 4 }])
            .unwrap();
        assert_eq!(
            scheduled.execute(tuples(2000)).unwrap().report.strategy,
            sequential
        );
        if cores() >= 2 {
            assert_eq!(run(&auto, 2000), Some("pipelined".to_string()));
        }
    }

    /// Passes tuples through, panicking at tuple `at` or at the first
    /// watermark at or past `watermark`.
    struct Panicker {
        at: u64,
        watermark: Timestamp,
    }

    impl Polluter for Panicker {
        fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
            assert_ne!(tuple.id, self.at, "tuple {} is poison", tuple.id);
            out.emit(tuple);
        }

        fn on_watermark(&mut self, wm: Timestamp, _: &mut Emission) {
            assert!(wm < self.watermark, "watermark {wm:?} is poison");
        }

        fn name(&self) -> &str {
            "panicker"
        }

        fn expected_probability(&self, _: &StampedTuple) -> f64 {
            0.0
        }
    }

    /// A run of one panicking pipeline per `(tuple, watermark)` pair
    /// under `strategy`.
    fn panicking(
        strategy: StrategyHint,
        batch_size: usize,
        poison: &[(u64, i64)],
        n: i64,
    ) -> Result<PollutionOutput> {
        let physical = LogicalPlan {
            batch_size,
            ..plan(strategy)
        }
        .compile(&schema())?;
        let mut settings = physical.settings().clone();
        settings.assigner = crate::runner::SubStreamAssigner::RoundRobin;
        let build = || {
            Ok(poison
                .iter()
                .map(|&(at, wm)| {
                    PollutionPipeline::new(vec![Box::new(Panicker {
                        at,
                        watermark: Timestamp(wm),
                    })])
                })
                .collect())
        };
        run(&settings, tuples(n), false, build)
    }

    fn failure(result: Result<PollutionOutput>) -> (String, String) {
        match result {
            Err(icewafl_types::Error::Pipeline { stage, kind, .. }) => (stage, kind),
            other => panic!(
                "expected a pipeline failure, got {:?}",
                other.map(|o| o.report)
            ),
        }
    }

    #[test]
    fn a_failure_is_the_one_the_sequential_schedule_meets_first() {
        // Round robin: sub-stream 0 takes the even tuples, 1 the odd
        // ones. A watermark closes every 4 tuples (at tuples 3, 7, …),
        // span 0 ends at tuple 255, and tuples 1000 and 1001 are the
        // partial period the end of the stream takes.
        let n = 1002;
        let never = (u64::MAX, i64::MAX);
        let at = |tuple| (tuple, i64::MAX);
        let at_watermark = |wm| (u64::MAX, wm);
        let cases = [
            // One poisoned pipeline.
            [at(300), never],
            [never, at_watermark(100_000)],
            // Two, in different periods.
            [at(298), at(301)],
            [at(40), at(37)],
            // In one period: batch 1 meets tuple 1 first, a frame of 3
            // or 256 meets both at the watermark, sub-stream 0 first.
            [at(2), at(1)],
            // Across the edge of span 0.
            [at(254), at(257)],
            [at(258), at(255)],
            // A tuple against a watermark crossing.
            [at_watermark(3_000), at(3)],
            [at(102), at_watermark(100_000)],
            [at(104), at_watermark(100_000)],
            // The last period against the end of the stream.
            [at(1000), at(999)],
            [at(1000), at(1001)],
        ];
        for poison in &cases {
            for batch_size in [1, 3, 256] {
                let sequential =
                    failure(panicking(StrategyHint::Sequential, batch_size, poison, n));
                let auto = failure(panicking(StrategyHint::Auto, batch_size, poison, n));
                assert_eq!(auto, sequential, "poison {poison:?}, batch {batch_size}");
            }
        }
    }
}
