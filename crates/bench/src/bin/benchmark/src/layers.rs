//! The per-layer ledger: a separate, traced pass that never runs
//! inside the timed end-to-end measurement.
//!
//! Three kinds of figure, all taken from this side of the API:
//!
//! * **standalone** — the workload's own tuples replayed through one
//!   layer's public function, median of at least five passes;
//! * **spans** — the program's existing trace spans, recorded while
//!   end-to-end reps run inside a `bench.e2e` span, reduced to self
//!   time (duration minus children on the same thread) per category;
//! * **observed** — exact counts from `RunReport`, process memory, and
//!   the client-side phase boundaries of served sessions.
//!
//! No span is added inside the program; every `bench.*` span wraps a
//! call made from here.

use crate::api::{self, trace, ColumnBatch, StampedTuple};
use crate::offline;
use crate::procfs::Pid;
use crate::reference::Inputs;
use crate::report::{Ledger, Outcome, PER_LAYER};
use crate::serve::{self, Pick};
use crate::stats::{median, tail};
use crate::workloads::{plan_seeds, Mode, PAPER_TUPLES};
use crate::Options;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Most tuples a standalone pass replays (a quarter of the paper's
/// dataset): per-tuple costs do not need more to settle.
const SAMPLE_TUPLES: usize = PAPER_TUPLES / 4;
/// Rows per batch in the pivot and kernel passes.
const PIVOT_CHUNK: usize = 4096;
/// Bytes handed to the frame splitter at a time.
const SPLIT_SLICE: usize = 64 * 1024;
/// End-to-end reps (or sessions) run with tracing on.
const TRACED_REPS: usize = 3;
/// Capacity of the trace session, events.
const TRACE_CAPACITY: usize = 1 << 21;

/// Median seconds per pass of `pass`, which times its own hot part so
/// input clones stay outside. At least five passes, more while the
/// total stays under 50 ms (small inputs get many passes).
fn median_pass(layer: &str, mut pass: impl FnMut() -> Duration) -> f64 {
    let _span = trace::span(&format!("bench.{layer}"), "bench");
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    while times.len() < 5 || (total < Duration::from_millis(50) && times.len() < 200) {
        let took = pass();
        total += took;
        times.push(took.as_secs_f64());
    }
    median(&times).expect("passes ran")
}

fn timed<T>(work: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = work();
    (result, start.elapsed())
}

/// Self time of the program's spans inside `bench.e2e` windows, by the
/// layer that emitted them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub stage_busy_ns: u64,
    pub flush_ns: u64,
    pub wait_ns: u64,
    pub sort_release_ns: u64,
}

impl SpanTotals {
    fn total_ns(&self) -> u64 {
        self.stage_busy_ns + self.flush_ns + self.wait_ns + self.sort_release_ns
    }
}

/// Reduces a trace dump to per-layer self time. Only complete spans of
/// the program (`cat != "bench"`) that lie inside a `bench.e2e` span
/// count; a span's self time is its duration minus the spans nested in
/// it on the same thread.
pub fn aggregate(dump: &trace::TraceDump) -> SpanTotals {
    let windows: Vec<(u64, u64)> = dump
        .events
        .iter()
        .filter(|e| e.name == "bench.e2e")
        .map(|e| (e.ts_ns, e.ts_ns + e.dur_ns))
        .collect();
    let mut by_thread: BTreeMap<u64, Vec<&trace::TraceEvent>> = BTreeMap::new();
    for e in &dump.events {
        let inside = windows
            .iter()
            .any(|&(from, to)| e.ts_ns >= from && e.ts_ns + e.dur_ns <= to);
        if e.ph == 'X' && e.cat != "bench" && inside {
            by_thread.entry(e.tid).or_default().push(e);
        }
    }
    let mut totals = SpanTotals::default();
    for spans in by_thread.values_mut() {
        // Parents before children: earlier start first, longer first.
        spans.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        let mut self_ns: Vec<u64> = spans.iter().map(|e| e.dur_ns).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            while open
                .last()
                .is_some_and(|&p| spans[p].ts_ns + spans[p].dur_ns <= span.ts_ns)
            {
                open.pop();
            }
            if let Some(&parent) = open.last() {
                self_ns[parent] = self_ns[parent].saturating_sub(span.dur_ns);
            }
            open.push(i);
        }
        for (span, ns) in spans.iter().zip(self_ns) {
            match (span.cat, span.name.as_str()) {
                ("stage", "sorter_release") => totals.sort_release_ns += ns,
                ("stage", _) => totals.stage_busy_ns += ns,
                ("channel", _) => totals.flush_ns += ns,
                ("backpressure", _) => totals.wait_ns += ns,
                _ => {}
            }
        }
    }
    totals
}

/// Standalone timings of the in-process layers on `inputs`.
fn core_layers(ledger: &mut Ledger, inputs: &Inputs, logging: bool) {
    let schema = &inputs.schema;
    let plan = &inputs.plans[0];
    let sample = &inputs.data[..inputs.data.len().min(SAMPLE_TUPLES)];
    let per_tuple = |seconds: f64| seconds * 1e9 / sample.len() as f64;

    let stamp = median_pass("core.prepare", || {
        let input = sample.to_vec();
        timed(|| api::stamp(schema, input)).1
    });
    ledger.set(
        "core.prepare.stamp_ns_per_tuple",
        per_tuple(stamp),
        "prepare_all",
    );

    let compile = {
        let _span = trace::span("bench.core.plan", "bench");
        let times: Vec<f64> = (0..50)
            .map(|_| timed(|| api::compile(plan, schema)).1.as_secs_f64())
            .collect();
        median(&times).expect("50 compiles ran")
    };
    ledger.set(
        "core.plan.compile_us",
        compile * 1e6,
        "LogicalPlan::compile, median of 50",
    );

    let rows: Vec<StampedTuple> = api::stamp(schema, sample.to_vec());
    let chunks: Vec<Vec<StampedTuple>> = rows.chunks(PIVOT_CHUNK).map(<[_]>::to_vec).collect();
    let pivot_all = |chunks: Vec<Vec<StampedTuple>>| -> Vec<ColumnBatch> {
        chunks.into_iter().map(|c| api::pivot(schema, c)).collect()
    };
    let from_rows = median_pass("types.column.from_rows", || {
        let input = chunks.clone();
        timed(|| pivot_all(input)).1
    });
    ledger.set(
        "types.column.from_rows_ns_per_tuple",
        per_tuple(from_rows),
        "ColumnBatch::from_rows, chunks of 4096",
    );
    let batches = pivot_all(chunks);
    let into_rows = median_pass("types.column.into_rows", || {
        let input = batches.clone();
        timed(|| {
            input
                .into_iter()
                .map(api::unpivot)
                .map(|r| r.len())
                .sum::<usize>()
        })
        .1
    });
    ledger.set(
        "types.column.into_rows_ns_per_tuple",
        per_tuple(into_rows),
        "ColumnBatch::into_rows, chunks of 4096",
    );

    if let Some(mut kernels) = api::first_kernel_pipeline(plan, schema) {
        let kernel = median_pass("core.columnar", || {
            let mut input = batches.clone();
            timed(|| api::run_kernels(&mut kernels, &mut input)).1
        });
        ledger.set(
            "core.columnar.kernel_ns_per_tuple",
            per_tuple(kernel),
            "first lowerable sub-stream's ColumnPipeline::process_batch, log off",
        );
    }

    let row = median_pass("core.pipeline", || {
        let mut pipelines = api::row_pipelines(plan, schema);
        let input = rows.clone();
        timed(|| api::run_rows(&mut pipelines, input, logging)).1
    });
    ledger.set(
        "core.pipeline.row_ns_per_tuple",
        per_tuple(row),
        "PollutionPipeline::process over all sub-streams, no transport",
    );
}

/// Standalone timings of the wire layers on the workload's tuples in
/// the workload's format (offline workloads: the format they are served
/// in by their served twin).
fn wire_layers(ledger: &mut Ledger, opts: &Options, inputs: &Inputs) {
    let format = opts.workload.format;
    let schema = &inputs.schema;
    let sample = &inputs.data[..inputs.data.len().min(SAMPLE_TUPLES)];
    let per_tuple = |seconds: f64| seconds * 1e9 / sample.len() as f64;

    let upload = api::upload_frames(sample, format);
    let bytes_in: usize = upload.iter().map(Vec::len).sum();
    ledger.set(
        "serve.protocol.bytes_in_per_tuple",
        bytes_in as f64 / sample.len() as f64,
        "upload frames, exact",
    );
    let stream = upload.concat();
    let split = |stream: &[u8]| -> Vec<api::WireFrame> {
        let mut splitter = api::Splitter::for_data(format);
        let mut frames = Vec::new();
        for slice in stream.chunks(SPLIT_SLICE) {
            splitter.push(slice);
            while let Some(frame) = splitter.next().expect("own upload frames split") {
                frames.push(frame);
            }
        }
        frames
    };
    let frame_split = median_pass("stream.net", || timed(|| split(&stream).len()).1);
    ledger.set(
        "stream.net.frame_split_ns_per_tuple",
        per_tuple(frame_split),
        "FrameDecoder push/next over the upload stream, 64 KiB slices",
    );

    let frames = split(&stream);
    let decode = median_pass("serve.protocol.decode", || {
        let input = frames.clone();
        timed(|| api::decode_upload(input).len()).1
    });
    ledger.set(
        "serve.protocol.upload_decode_ns_per_tuple",
        per_tuple(decode),
        "decode_client_frame over the frames the client sends",
    );
    let decoded = api::decode_upload(frames);
    let coerce = median_pass("serve.protocol.coerce", || {
        let input = decoded.clone();
        timed(|| api::coerce_all(schema, input).len()).1
    });
    ledger.set(
        "serve.protocol.coerce_ns_per_tuple",
        per_tuple(coerce),
        "coerce_tuple",
    );

    let rows = api::stamp(schema, sample.to_vec());
    let mut bytes_out = 0usize;
    let encode = median_pass("serve.protocol.encode", || {
        let (frames, took) = timed(|| api::output_frames(&rows, format));
        bytes_out = frames.iter().map(Vec::len).sum();
        took
    });
    ledger.set(
        "serve.protocol.output_encode_ns_per_tuple",
        per_tuple(encode),
        "encode_columns_frame per 256 rows (binary) / encode_stamped_frame (ndjson)",
    );
    ledger.set(
        "serve.protocol.bytes_out_per_tuple",
        bytes_out as f64 / sample.len() as f64,
        "output frames, exact",
    );
}

/// Walls of repeated calls to `work` (which returns its own wall, s):
/// at least `min` calls, more until `budget` is spent.
fn sample_walls(
    min: usize,
    budget: Duration,
    mut work: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut walls = Vec::new();
    let window = Instant::now();
    while walls.len() < min || window.elapsed() < budget {
        walls.push(work()?);
    }
    Ok(walls)
}

/// The first `execute` of this process, before anything but the
/// generated data is resident: memory growth and the exact counts.
fn first_execute(ledger: &mut Ledger, opts: &Options) -> Result<(), String> {
    let w = &opts.workload;
    let schema = api::schema_of(&w.shape.fields());
    let data = w.shape.generate(opts.seed, opts.scale.tuples(w));
    let seed = plan_seeds(opts.seed, 1)[0];
    let physical = api::compile(&api::plan_of(&w.shape.plan_json(), seed), &schema);
    let n = data.len() as f64;
    let rss_before = Pid::Own.rss_mib().unwrap_or(0.0);
    let out = api::execute(&physical, data)?;
    let grown_mib = Pid::Own.peak_rss_mib().unwrap_or(0.0) - rss_before;
    ledger.set(
        "core.runner.rss_bytes_per_tuple",
        grown_mib * 1024.0 * 1024.0 / n,
        "(VmHWM after - VmRSS before) the first execute / n",
    );
    let (fires, draws, _) = api::report_counts(&out.report);
    ledger.set(
        "core.polluter.fires_per_tuple",
        fires as f64 / n,
        "RunReport, exact",
    );
    ledger.set(
        "core.rng.draws_per_tuple",
        draws as f64 / n,
        "RunReport, exact",
    );
    ledger.set(
        "core.plan.columnar_substreams",
        api::columnar_substreams(&physical) as f64,
        "substream_reprs() == columnar",
    );
    Ok(())
}

/// Logging on against logging off (one rep each) and n against n/4.
fn log_and_scaling(ledger: &mut Ledger, inputs: &Inputs, untraced_wall: f64) -> Result<(), String> {
    let plan = &inputs.plans[0];
    let n = inputs.data.len() as f64;
    let rep_of = |plan: &api::LogicalPlan, input: Vec<api::Tuple>| -> Result<(f64, u64), String> {
        let physical = api::compile(plan, &inputs.schema);
        let (out, took) = timed(|| api::execute(&physical, input));
        Ok((took.as_secs_f64(), api::report_counts(&out?.report).2))
    };
    {
        let _span = trace::span("bench.core.log", "bench");
        let (on, entries) = rep_of(&api::with_logging(plan, true), inputs.data.clone())?;
        let (off, _) = rep_of(&api::with_logging(plan, false), inputs.data.clone())?;
        ledger.set(
            "core.log.cost_share",
            1.0 - off / on,
            "1 - wall(log off) / wall(log on), one rep each",
        );
        ledger.set(
            "core.log.entries_per_tuple",
            entries as f64 / n,
            "RunReport, exact",
        );
    }
    let _span = trace::span("bench.core.runner.scaling", "bench");
    let quarter = &inputs.data[..inputs.data.len() / 4];
    let quarter_walls = sample_walls(3, Duration::ZERO, || Ok(rep_of(plan, quarter.to_vec())?.0))?;
    let quarter_rate = quarter.len() as f64 / median(&quarter_walls).expect("reps ran");
    ledger.set(
        "core.runner.scaling_ratio",
        (n / untraced_wall) / quarter_rate,
        "(t/s at n) / (t/s at n/4, median of 3 reps); 1.0 = linear",
    );
    Ok(())
}

/// A window of sessions against the server child: client-observed
/// phases, tails, and what the server spent.
fn served_window(
    ledger: &mut Ledger,
    opts: &Options,
    served: &serve::Ready,
    untraced_wall: f64,
) -> (u64, Vec<String>) {
    let mode = opts.workload.mode;
    let n = served.inputs.data.len() as f64;
    let window = serve::drive(served, mode, opts.seconds / 3.0);
    let sessions = window.sessions.len();
    // (metric, what to read off a session, tail instead of median)
    let figures: [(&str, Pick, bool); 7] = [
        ("serve.session.handshake_ms_p50", |s| s.handshake_ms, false),
        ("serve.session.upload_ms_p50", |s| s.upload_ms, false),
        (
            "serve.session.execute_gap_ms_p50",
            |s| s.execute_gap_ms,
            false,
        ),
        ("serve.session.drain_ms_p50", |s| s.drain_ms, false),
        ("serve.session_ms_p99", |s| s.session_ms, true),
        ("serve.first_output_ms_p99", |s| s.first_output_ms, true),
        ("serve.gen.late_ms_p99", |s| s.late_ms, true),
    ];
    for (name, pick, is_tail) in figures {
        if name == "serve.gen.late_ms_p99" && mode != Mode::ServeOpen {
            continue; // a closed loop has no schedule to be late for
        }
        let values = window.series(pick);
        let (value, detail) = if is_tail {
            (
                tail(&values, 99.0),
                "p99, or the highest percentile the count supports",
            )
        } else {
            (median(&values), "median, client-observed")
        };
        if let Some(value) = value {
            ledger.set(name, value, format!("{detail}; n={sessions}"));
        }
    }
    ledger.set(
        "serve.server.rss_mb_idle",
        served.idle_rss_mib,
        "child VmRSS after warm-up, no session open",
    );
    let tuples_in = sessions as f64 * n;
    if tuples_in > 0.0 && window.elapsed_s > 0.0 {
        let server_ns = window.server_cpu_s * 1e9 / tuples_in;
        ledger.set(
            "serve.server.cpu_ns_per_tuple",
            server_ns,
            "child user+sys / input tuples",
        );
        // An open loop's aggregate rate is the offered rate; what it
        // can be compared by is the rate of one session.
        let served_rate = match median(&window.series(|s| s.session_ms)) {
            Some(session_ms) if mode == Mode::ServeOpen => n / (session_ms / 1e3),
            _ => tuples_in / window.elapsed_s,
        };
        ledger.set(
            "serve.offline_ratio",
            served_rate / (n / untraced_wall),
            "served tuples/s (open loop: of one session) / in-process execute tuples/s, same plan and input",
        );
        let explained: f64 = [
            "serve.protocol.upload_decode_ns_per_tuple",
            "serve.protocol.coerce_ns_per_tuple",
            "serve.protocol.output_encode_ns_per_tuple",
            "core.runner.execute_ns_per_tuple",
        ]
        .iter()
        .filter_map(|name| ledger.get(name))
        .sum();
        ledger.set(
            "serve.reactor.residual_ns_per_tuple",
            server_ns - explained,
            "server CPU - (decode + coerce + execute + encode): pivots, sorter, rebatch, epoll, syscalls",
        );
    }
    ((sessions + window.failures.len()) as u64, window.failures)
}

/// The span metrics, and what all layers together explain of one
/// end-to-end operation of `e2e_ns_per_tuple`.
fn span_layers(
    ledger: &mut Ledger,
    spans: &SpanTotals,
    traced_tuples: f64,
    e2e_ns_per_tuple: f64,
    served: bool,
    substreams: usize,
) {
    for (name, ns, what) in [
        (
            "stream.stage.busy_ns_per_tuple",
            spans.stage_busy_ns,
            "`stage` spans",
        ),
        (
            "stream.channel.flush_ns_per_tuple",
            spans.flush_ns,
            "`batch_flush` spans",
        ),
        (
            "stream.backpressure.wait_ns_per_tuple",
            spans.wait_ns,
            "`blocked_send` + `recv_wait` spans",
        ),
        (
            "stream.sort.release_ns_per_tuple",
            spans.sort_release_ns,
            "`sorter_release` spans",
        ),
    ] {
        ledger.set(
            name,
            ns as f64 / traced_tuples,
            format!("self time of {what} inside bench.e2e"),
        );
    }
    // With spans, the stage spans already contain the pivots and
    // kernels of the channel driver; without (direct drive), the
    // standalone columnar layers stand in for the lowered share of
    // sub-streams and the row layer for the rest.
    let layer = |name: &str| ledger.get(name).unwrap_or(0.0);
    let lowered = layer("core.plan.columnar_substreams") / substreams as f64;
    let in_process = if spans.total_ns() > 0 {
        spans.total_ns() as f64 / traced_tuples
    } else {
        lowered
            * (layer("types.column.from_rows_ns_per_tuple")
                + layer("core.columnar.kernel_ns_per_tuple")
                + layer("types.column.into_rows_ns_per_tuple"))
            + (1.0 - lowered) * layer("core.pipeline.row_ns_per_tuple")
    };
    let wire = if served {
        layer("stream.net.frame_split_ns_per_tuple")
            + layer("serve.protocol.upload_decode_ns_per_tuple")
            + layer("serve.protocol.coerce_ns_per_tuple")
            + layer("serve.protocol.output_encode_ns_per_tuple")
    } else {
        0.0
    };
    let explained = layer("core.prepare.stamp_ns_per_tuple") + in_process + wire;
    ledger.set(
        "core.runner.unattributed_share",
        1.0 - explained / e2e_ns_per_tuple,
        "1 - (stamp + spans or standalone columnar/row layers + wire layers) / end-to-end ns per tuple",
    );
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = &opts.workload;
    let mut ledger = Ledger::new(&PER_LAYER);
    first_execute(&mut ledger, opts)?;

    // Everything untraced first: the oracle, a verified warm-up rep,
    // and the in-process reps.
    let ready = offline::Ready::set_up(opts)?;
    let n = ready.tuples() as f64;
    let budget = Duration::from_secs_f64(opts.seconds / 3.0);
    let rep = || ready.rep().map(|r| r.wall_s);
    let walls = sample_walls(3, budget, rep)?;
    let mut attempted = walls.len() as u64;
    let untraced_wall = median(&walls).expect("reps ran");
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    ledger.set(
        "core.runner.rep_ms_p90",
        tail(&walls_ms, 90.0).expect("reps ran"),
        format!(
            "p90, or the highest percentile n={} supports (max if none)",
            walls.len()
        ),
    );
    ledger.set(
        "core.runner.execute_ns_per_tuple",
        untraced_wall * 1e9 / n,
        "median untraced in-process rep wall / n",
    );

    // Served workloads get two servers: the child process, whose CPU
    // and memory are measured, and one inside this process, whose
    // spans the trace session can see.
    let served = if w.mode == Mode::Offline {
        None
    } else {
        Some((serve::Ready::set_up(opts)?, api::LocalServer::start()?))
    };
    // One end-to-end operation of this workload: a rep, or a session
    // against the in-process server. Returns its wall, s.
    let end_to_end = || -> Result<f64, String> {
        match &served {
            None => rep(),
            Some((served, local)) => serve::run_session(
                &local.addr,
                &served.scripts[0],
                &served.inputs.schema,
                served.format,
                Instant::now(),
            )
            .map(|times| times.session_ms / 1e3),
        }
    };
    let untraced_e2e = match &served {
        None => untraced_wall,
        Some(_) => {
            end_to_end()?; // warm-up
            median(&sample_walls(TRACED_REPS, budget / 4, end_to_end)?).expect("sessions ran")
        }
    };

    // From here on the trace session is live. The traced end-to-end
    // operations come first, next to their untraced twins in time and
    // process state; the program's own spans nest under `bench.e2e`.
    let session = trace::TraceSession::start(TRACE_CAPACITY);
    let traced_walls = sample_walls(TRACED_REPS, budget / 4, || {
        let _span = trace::span("bench.e2e", "bench");
        end_to_end()
    })?;
    attempted += traced_walls.len() as u64;
    // Each layer call below sits in its own `bench.<layer>` span.
    core_layers(&mut ledger, &ready.inputs, w.shape.logging());
    wire_layers(&mut ledger, opts, &ready.inputs);
    log_and_scaling(&mut ledger, &ready.inputs, untraced_wall)?;
    let mut failures = Vec::new();
    if let Some((served, _)) = &served {
        let (sessions, failed) = served_window(&mut ledger, opts, served, untraced_wall);
        attempted += sessions;
        failures = failed;
    }
    let dump = session.map(trace::TraceSession::finish).unwrap_or_default();
    drop(served);

    let traced_e2e = median(&traced_walls).expect("traced operations ran");
    ledger.set(
        "trace.overhead_share",
        traced_e2e / untraced_e2e - 1.0,
        format!(
            "traced / untraced wall - 1, {} traced operations",
            traced_walls.len()
        ),
    );
    ledger.set(
        "trace.dropped_events",
        dump.dropped as f64,
        format!("{} events kept", dump.events.len()),
    );
    span_layers(
        &mut ledger,
        &aggregate(&dump),
        traced_walls.len() as f64 * n,
        untraced_e2e * 1e9 / n,
        w.mode != Mode::Offline,
        ready.inputs.plans[0].pipelines.len(),
    );

    if let Some(path) = &opts.trace_out {
        let mut file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        dump.write_chrome_trace(&mut file)
            .map_err(|e| format!("write {path}: {e}"))?;
    }

    let failed = failures.len() as u64;
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics: ledger.finish(),
        notes: failures.into_iter().take(3).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::trace::{TraceDump, TraceEvent};

    fn span(name: &str, cat: &'static str, tid: u64, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat,
            ph: 'X',
            ts_ns,
            dur_ns,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_on_the_same_thread() {
        let dump = TraceDump {
            // Recording order is drop order: children before parents.
            events: vec![
                span("sorter_release", "stage", 1, 1_200, 100),
                span("batch_flush", "channel", 1, 1_400, 50),
                span("recv_wait", "backpressure", 1, 1_420, 10), // inside the flush
                span("stage/00_sorter", "stage", 1, 1_100, 500), // parent of the three above
                span("stage/02_pipeline", "stage", 2, 1_150, 300), // other thread: no nesting
                span("blocked_send", "backpressure", 2, 1_500, 40), // sibling, after it
                span("stage/09_late", "stage", 1, 5_000, 70),    // outside every window
                span("bench.core.log", "bench", 1, 1_000, 900),  // benchmark's own span
                span("bench.e2e", "bench", 3, 1_000, 1_000),
                TraceEvent {
                    ph: 'i',
                    ..span("epoch_swap", "control", 1, 1_300, 0)
                },
            ],
            dropped: 0,
        };
        assert_eq!(
            aggregate(&dump),
            SpanTotals {
                // 500 - (100 + 50) on thread 1, plus 300 on thread 2.
                stage_busy_ns: 350 + 300,
                flush_ns: 50 - 10,
                wait_ns: 10 + 40,
                sort_release_ns: 100,
            }
        );
    }

    #[test]
    fn spans_outside_every_e2e_window_do_not_count() {
        let dump = TraceDump {
            events: vec![span("stage/00", "stage", 1, 10, 5)],
            dropped: 0,
        };
        assert_eq!(aggregate(&dump), SpanTotals::default());
    }
}
