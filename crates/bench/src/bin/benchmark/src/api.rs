//! Every call into the program under test goes through this module,
//! so the surface a later change must keep is visible in one place.
//!
//! Allowed (the roadmap does not plan to delete them):
//! `LogicalPlan::{from_json, compile, build_pipelines}` and its `seed` /
//! `logging` fields, `PhysicalPlan::{execute, substream_reprs}`,
//! `RunReport` fields, `prepare_all`, `ColumnBatch::{from_rows,
//! into_rows}`, `lower_pipeline` + `ColumnPipeline::process_batch`,
//! `PollutionPipeline::{process, on_watermark, finish}`, the
//! `serve::protocol` frame functions and `coerce_tuple`, `FrameDecoder`
//! and `frame_bytes`, `Server` / `ServeConfig`, `obs::trace`.
//!
//! Never used: `set_vectorized`, `StrategyHint::Pipelined` /
//! `SplitMergeParallel`, `ReprHint::Columnar`, `PollutionJob`,
//! `JobConfig`, `ReplayBuffer`, `client::run_session`.
//! `StrategyHint::Sequential` + `ReprHint::Row` + `batch_size = 1`
//! appear once, in [`oracle_of`].

use crate::stats::Fnv;
use icewafl_core::columnar::lower_pipeline;
use icewafl_core::log::PollutionLog;
use icewafl_core::plan::{ReprHint, StrategyHint};
use icewafl_core::polluter::Emission;
use icewafl_core::prepare::prepare_all;
use icewafl_core::report::RunReport;
use icewafl_serve::protocol::{
    coerce_tuple, decode_client_frame, decode_server_frame, encode_columns_frame, encode_end_frame,
    encode_stamped, encode_stamped_frame, encode_tuple_columns_frame, encode_tuple_frame,
    Handshake, HandshakeReply, ServerEvent,
};
use icewafl_serve::{ServeConfig, Server};
use icewafl_stream::net::{
    frame_bytes, FrameDecoder, NetPoll, WireFormat, DEFAULT_MAX_FRAME_BYTES,
};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub use icewafl_core::columnar::ColumnPipeline;
pub use icewafl_core::pipeline::PollutionPipeline;
pub use icewafl_core::plan::{LogicalPlan, PhysicalPlan};
pub use icewafl_core::runner::PollutionOutput;
pub use icewafl_obs::trace;
pub use icewafl_stream::net::WireFrame;
pub use icewafl_types::{ColumnBatch, DataType, Schema, StampedTuple, Timestamp, Tuple, Value};

use crate::workloads::Format;

pub fn schema_of(fields: &[(&str, DataType)]) -> Schema {
    Schema::from_pairs(fields.iter().copied()).expect("workload field names are unique")
}

/// A workload's plan: its JSON (execution knobs at their defaults) with
/// the seed filled in.
pub fn plan_of(json: &str, seed: u64) -> LogicalPlan {
    let mut plan = LogicalPlan::from_json(json).expect("workload plan JSON parses");
    plan.seed = seed;
    plan
}

pub fn with_logging(plan: &LogicalPlan, logging: bool) -> LogicalPlan {
    let mut plan = plan.clone();
    plan.logging = logging;
    plan
}

/// The reference configuration of `tests/batch_determinism.rs`: rows,
/// one thread, no transport batching. The only place that pins *how*.
pub fn oracle_of(plan: &LogicalPlan) -> LogicalPlan {
    let mut plan = plan.clone();
    plan.strategy = StrategyHint::Sequential;
    plan.repr = ReprHint::Row;
    plan.batch_size = 1;
    plan
}

pub fn compile(plan: &LogicalPlan, schema: &Schema) -> PhysicalPlan {
    plan.compile(schema)
        .expect("workload plan compiles against its schema")
}

pub fn execute(physical: &PhysicalPlan, input: Vec<Tuple>) -> Result<PollutionOutput, String> {
    physical.execute(input).map_err(|e| e.to_string())
}

/// How many sub-streams the compiler lowered to column kernels.
pub fn columnar_substreams(physical: &PhysicalPlan) -> usize {
    physical
        .substream_reprs()
        .iter()
        .filter(|r| r.as_str() == "columnar")
        .count()
}

/// Exact per-run counts from the report: (fires, RNG draws, log entries).
pub fn report_counts(report: &RunReport) -> (u64, u64, u64) {
    let fires = report.polluters.iter().map(|p| p.fires).sum();
    let draws = report.polluters.iter().map(|p| p.rng_draws).sum();
    (fires, draws, report.log_entries)
}

/// Feeds the wire encoding of each tuple, in order, to the digest.
pub fn digest_tuples(digest: &mut Fnv, tuples: &[StampedTuple]) {
    for t in tuples {
        digest.write(&encode_stamped(t));
    }
}

/// Digest of a whole run: the polluted stream, then the serialized
/// ground-truth log when the plan records one.
pub fn digest_output(out: &PollutionOutput) -> u64 {
    let mut digest = Fnv::default();
    digest_tuples(&mut digest, &out.polluted);
    if out.report.logging_enabled {
        let log = serde_json::to_string(&out.log).expect("the log serializes");
        digest.write(log.as_bytes());
    }
    digest.0
}

// ---------------------------------------------------------------------
// Single layers, for the ledger
// ---------------------------------------------------------------------

pub fn stamp(schema: &Schema, tuples: Vec<Tuple>) -> Vec<StampedTuple> {
    prepare_all(schema, tuples).expect("workload schema has an event-time attribute")
}

pub fn pivot(schema: &Schema, rows: Vec<StampedTuple>) -> ColumnBatch {
    ColumnBatch::from_rows(schema, rows)
        .unwrap_or_else(|_| panic!("workload rows fit their schema"))
}

pub fn unpivot(batch: ColumnBatch) -> Vec<StampedTuple> {
    batch.into_rows()
}

/// The column-kernel pipeline of the first sub-stream that lowers;
/// `None` when no sub-stream does.
pub fn first_kernel_pipeline(plan: &LogicalPlan, schema: &Schema) -> Option<ColumnPipeline> {
    plan.pipelines.iter().enumerate().find_map(|(k, stages)| {
        lower_pipeline(plan.seed, k, stages, schema).expect("workload polluters build")
    })
}

/// Runs pre-pivoted batches through the kernels with the log disabled.
pub fn run_kernels(pipeline: &mut ColumnPipeline, batches: &mut [ColumnBatch]) {
    let mut log = PollutionLog::disabled();
    for batch in batches {
        pipeline.process_batch(batch, &mut log);
    }
}

pub fn row_pipelines(plan: &LogicalPlan, schema: &Schema) -> Vec<PollutionPipeline> {
    plan.build_pipelines(schema)
        .expect("workload polluters build")
}

/// Row path of the whole plan without any transport: tuple `i` goes to
/// pipeline `i mod m`, a watermark follows every 64 tuples as in the
/// runner, and every pipeline is flushed at the end. Returns the number
/// of tuples emitted.
pub fn run_rows(
    pipelines: &mut [PollutionPipeline],
    rows: Vec<StampedTuple>,
    logging: bool,
) -> usize {
    let mut log = if logging {
        PollutionLog::new()
    } else {
        PollutionLog::disabled()
    };
    let mut out = Vec::with_capacity(rows.len());
    let m = pipelines.len();
    for (i, row) in rows.into_iter().enumerate() {
        let tau = row.tau;
        let mut emission = Emission::new(&mut out, &mut log);
        pipelines[i % m].process(row, &mut emission);
        if i % 64 == 63 {
            for p in pipelines.iter_mut() {
                p.on_watermark(tau, &mut emission);
            }
        }
    }
    let mut emission = Emission::new(&mut out, &mut log);
    for p in pipelines.iter_mut() {
        p.finish(&mut emission);
    }
    out.len()
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

fn wire(format: Format) -> WireFormat {
    match format {
        Format::Binary => WireFormat::Binary,
        Format::Ndjson => WireFormat::Ndjson,
    }
}

/// Tuples per column-major upload frame, as the reference client sends.
const UPLOAD_BATCH: usize = 512;
/// Rows per column-major output frame, as the server's rebatcher emits.
const OUTPUT_BATCH: usize = 256;

/// The handshake line (newline included) opening a session that ships
/// `plan` and `schema` inline.
pub fn handshake_line(plan: &LogicalPlan, schema: &Schema, format: Format) -> Vec<u8> {
    let handshake = Handshake {
        plan_inline: Some(plan.clone()),
        schema_inline: Some(schema.clone()),
        format: Some(format.as_str().into()),
        ..Handshake::default()
    };
    let mut line = serde_json::to_string(&handshake)
        .expect("handshake serializes")
        .into_bytes();
    line.push(b'\n');
    line
}

/// `Ok(())` when the server accepted the session, else its reason.
pub fn parse_handshake_reply(line: &str) -> Result<(), String> {
    let reply: HandshakeReply =
        serde_json::from_str(line).map_err(|e| format!("bad handshake reply: {e}"))?;
    if reply.ok {
        Ok(())
    } else {
        Err(reply.error.unwrap_or_else(|| "rejected".into()))
    }
}

/// The upload frames of one session, each already in wire bytes: what
/// the client writes after the handshake, end frame excluded.
pub fn upload_frames(tuples: &[Tuple], format: Format) -> Vec<Vec<u8>> {
    match format {
        Format::Binary => tuples
            .chunks(UPLOAD_BATCH)
            .map(|chunk| frame_bytes(&encode_tuple_columns_frame(chunk)))
            .collect(),
        Format::Ndjson => tuples
            .iter()
            .map(|t| frame_bytes(&encode_tuple_frame(t, WireFormat::Ndjson)))
            .collect(),
    }
}

pub fn end_frame(format: Format) -> Vec<u8> {
    frame_bytes(&encode_end_frame(wire(format)))
}

/// The output frames the server would send for `rows`, in wire bytes.
pub fn output_frames(rows: &[StampedTuple], format: Format) -> Vec<Vec<u8>> {
    match format {
        Format::Binary => rows
            .chunks(OUTPUT_BATCH)
            .map(|chunk| frame_bytes(&encode_columns_frame(chunk)))
            .collect(),
        Format::Ndjson => rows
            .iter()
            .map(|t| frame_bytes(&encode_stamped_frame(t, WireFormat::Ndjson)))
            .collect(),
    }
}

/// Incremental frame splitter over a byte stream in one wire format.
pub struct Splitter(FrameDecoder);

impl Splitter {
    /// A splitter for a session's server side: the handshake reply is
    /// always an NDJSON line, whatever the data format.
    pub fn for_handshake() -> Self {
        Splitter(FrameDecoder::new(
            WireFormat::Ndjson,
            DEFAULT_MAX_FRAME_BYTES,
        ))
    }

    pub fn for_data(format: Format) -> Self {
        Splitter(FrameDecoder::new(wire(format), DEFAULT_MAX_FRAME_BYTES))
    }

    pub fn switch_to(&mut self, format: Format) {
        self.0.set_format(wire(format));
    }

    pub fn push(&mut self, bytes: &[u8]) {
        self.0.push(bytes);
    }

    pub fn next(&mut self) -> Result<Option<WireFrame>, String> {
        self.0.next().map_err(|e| e.to_string())
    }
}

/// What one server frame means to the client.
pub enum Served {
    Data(Vec<StampedTuple>),
    Report,
    Failed(String),
}

/// Decodes a server frame; NDJSON payloads are coerced back to the
/// schema's column types, as the reference client does.
pub fn decode_served(frame: WireFrame, schema: &Schema, format: Format) -> Result<Served, String> {
    match decode_server_frame(frame).map_err(|e| e.to_string())? {
        ServerEvent::Tuple(mut t) => {
            if format == Format::Ndjson {
                t.tuple = coerce_tuple(schema, t.tuple);
            }
            Ok(Served::Data(vec![t]))
        }
        ServerEvent::Batch(batch) => Ok(Served::Data(batch)),
        ServerEvent::Report(_) => Ok(Served::Report),
        ServerEvent::Error(e) => Ok(Served::Failed(format!(
            "{} ({}): {}",
            e.stage, e.kind, e.message
        ))),
        ServerEvent::Telemetry(_) => Err("telemetry frame in a pollute session".into()),
    }
}

/// Server-side decode of upload bytes already split into frames:
/// returns the tuples, uncoerced.
pub fn decode_upload(frames: Vec<WireFrame>) -> Vec<Tuple> {
    let mut tuples = Vec::new();
    for frame in frames {
        match decode_client_frame(frame).expect("own upload frames decode") {
            NetPoll::Record(t) => tuples.push(t),
            NetPoll::Batch(batch) => tuples.extend(batch),
            _ => {}
        }
    }
    tuples
}

pub fn coerce_all(schema: &Schema, tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples
        .into_iter()
        .map(|t| coerce_tuple(schema, t))
        .collect()
}

// ---------------------------------------------------------------------
// The server: a child process for measurement, in-process for tracing
// ---------------------------------------------------------------------

/// Session cap of the benchmark's servers: far above `conns`, so a
/// session the server is still tearing down never gets the next one
/// refused.
const MAX_SESSIONS: usize = 64;

fn bind() -> Result<Server, String> {
    Server::bind(ServeConfig {
        max_sessions: MAX_SESSIONS,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// A server on a thread of this process, so the spans its sessions emit
/// land in this process's trace session. Used by the traced pass only:
/// CPU and memory figures always come from the child process.
pub struct LocalServer {
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl LocalServer {
    pub fn start() -> Result<LocalServer, String> {
        let server = bind()?;
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
        Ok(LocalServer {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

impl Drop for LocalServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Body of `benchmark serve-child`: binds with the default config (only
/// the session cap raised), announces the address on stdout and serves
/// until stdin reaches end of file — so a parent that dies, or drops
/// the pipe, takes the server with it.
pub fn serve_child() -> Result<(), String> {
    let server = bind()?;
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_handle();
    let watcher = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        shutdown.store(true, Ordering::SeqCst);
    });
    let served = server.run().map_err(|e| e.to_string());
    // `run` returns once the watcher has raised the flag (or on SIGINT,
    // which reaches the parent too and closes the pipe).
    watcher.join().map_err(|_| "stdin watcher panicked")?;
    served
}
