//! The `icewafl` command-line tool: pollute, validate, profile, and
//! generate — the end-to-end workflow of Figure 2 without writing any
//! Rust.
//!
//! ```console
//! $ icewafl generate --dataset wearable --output clean.csv
//! $ icewafl pollute --schema wearable --config scenario.json \
//!       --input clean.csv --output dirty.csv --log groundtruth.json
//! $ icewafl validate --schema wearable --input dirty.csv --suite checks.json
//! $ icewafl profile --schema wearable --input dirty.csv
//! ```
//!
//! `--schema` accepts either the name of a built-in dataset schema
//! (`wearable`, `airquality`) or the path to a schema JSON file.

use icewafl::data::{airquality, read_csv, wearable, write_csv};
use icewafl::prelude::*;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once the reader of the command's stdout has closed the pipe.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout: the one way every command prints. A reader that
/// closes the pipe early (`icewafl pollute … | head`) is no error: the
/// rest of the output is dropped, and the command goes on to finish its
/// files and exit as it would have. Any other write error fails the
/// command.
fn write_out(args: std::fmt::Arguments<'_>) -> Result<()> {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        result => Ok(result?),
    }
}

/// `print!` through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_out(format_args!($($arg)*))
    };
}

/// `println!` through [`write_out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    let result = match command {
        Some("pollute") => cmd_pollute(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("example-config") => cmd_example_config(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => print_usage(),
        Some(other) => Err(icewafl::types::Error::config(format_args!(
            "unknown command `{other}` (try `icewafl help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("icewafl: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() -> Result<()> {
    outln!(
        "icewafl — a configurable data stream polluter

USAGE:
  icewafl pollute  --schema S --config CFG.json --input IN.csv --output OUT.csv
                   [--clean CLEAN.csv] [--log LOG.json] [--seed N]
                   [--batch-size N] [--explain] [--report]
                   [--metrics-json METRICS.json] [--max-retries N] [--fail-fast]
                   [--checkpoint-dir DIR] [--checkpoint-interval-epochs N]
                   [--trace-out TRACE.json]
  icewafl validate --schema S --input IN.csv --suite SUITE.json
  icewafl profile  --schema S --input IN.csv
  icewafl generate --dataset wearable|airquality[:STATION] --output OUT.csv [--seed N]
  icewafl serve    [--addr HOST:PORT] [--plans-dir DIR] [--max-sessions N]
                   [--max-frame-bytes N] [--metrics-json METRICS.json]
                   [--telemetry-interval-ms N] [--workers N]
  icewafl top      HOST:PORT [--frames N] [--plain]
  icewafl example-config

  --schema S        a built-in schema name (wearable, airquality) or a schema JSON file
  --batch-size N    records per frame from the router to each sub-stream and
                    per output frame (1 = unbatched; performance-only, output
                    is identical)
  --explain         print the compiled physical plan (strategy, stages,
                    metric names) and exit without polluting anything
  --report          print the run report (per-polluter and per-stage metrics)
  --metrics-json F  write the run report as JSON to F
  --max-retries N   allow N supervised restarts per failing stage
  --fail-fast       disable restarts even if the config enables them
  --checkpoint-dir DIR
                    enable epoch-aligned checkpointing with a write-ahead
                    log at DIR/checkpoint.wal: supervised retries resume
                    from the latest checkpoint instead of restarting
  --checkpoint-interval-epochs N
                    take a checkpoint every N source epochs (default 1;
                    implies in-memory checkpointing when --checkpoint-dir
                    is absent)
  --trace-out F     capture a Chrome trace of the run (stage spans, epoch
                    swaps) — open F in Perfetto or chrome://tracing

  serve             stream pollution over TCP: each connection handshakes with a
                    plan (preloaded by name from --plans-dir, or inlined) and a
                    schema, streams tuples in, and receives polluted tuples plus
                    a final run report; SIGINT drains in-flight sessions first;
                    --telemetry-interval-ms sets the sampling cadence of the
                    telemetry stream (default 250); --workers N sizes the
                    event-loop worker pool (default: one per CPU core)

  top               watch a running server: subscribe to its telemetry stream
                    and render a refreshing table of sessions and hot metrics
                    (--frames N stops after N frames, --plain skips the screen
                    clearing between frames); past 20 live sessions the table
                    keeps the top 20 by bytes sent and folds the rest into
                    one summary row

A stage failure (panic, injected fault, deadline) exits non-zero with a
one-line diagnostic naming the failing stage; so does a flag the command
does not know."
    )
}

/// Rejects every argument of `icewafl {command}` that is neither one of
/// `values` (a flag taking the argument after it) nor one of `switches`.
fn check_flags(command: &str, args: &[String], values: &[&str], switches: &[&str]) -> Result<()> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if values.contains(&arg.as_str()) {
            rest.next();
        } else if !switches.contains(&arg.as_str()) {
            let what = if arg.starts_with('-') {
                "flag"
            } else {
                "argument"
            };
            return Err(Error::config(format_args!(
                "unknown {what} `{arg}` for `icewafl {command}` (try `icewafl help`)"
            )));
        }
    }
    Ok(())
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn require(args: &[String], name: &str) -> Result<String> {
    flag(args, name).ok_or_else(|| Error::config(format_args!("missing required flag {name}")))
}

use icewafl::types::{Error, Result};

fn load_schema(spec: &str) -> Result<Schema> {
    match spec {
        "wearable" => Ok(wearable::schema()),
        "airquality" => Ok(airquality::schema()),
        path => {
            let text = std::fs::read_to_string(path)?;
            serde_json::from_str(&text)
                .map_err(|e| Error::config(format_args!("bad schema file `{path}`: {e}")))
        }
    }
}

fn load_tuples(path: &str, schema: &Schema) -> Result<Vec<Tuple>> {
    let file = File::open(path).map_err(|e| Error::Io(format!("cannot open `{path}`: {e}")))?;
    read_csv(&mut BufReader::new(file), schema)
}

fn cmd_pollute(args: &[String]) -> Result<()> {
    check_flags(
        "pollute",
        args,
        &[
            "--schema",
            "--config",
            "--input",
            "--output",
            "--clean",
            "--log",
            "--seed",
            "--batch-size",
            "--metrics-json",
            "--max-retries",
            "--checkpoint-dir",
            "--checkpoint-interval-epochs",
            "--trace-out",
        ],
        &["--explain", "--report", "--fail-fast"],
    )?;
    let schema = load_schema(&require(args, "--schema")?)?;
    let config_path = require(args, "--config")?;

    // The config file is a logical plan; flags edit it before it
    // compiles.
    let mut plan = LogicalPlan::from_json(&std::fs::read_to_string(&config_path)?)?;
    if let Some(seed) = flag(args, "--seed") {
        plan.seed = seed
            .parse()
            .map_err(|_| Error::config(format_args!("bad --seed `{seed}`")))?;
    }
    if let Some(batch) = flag(args, "--batch-size") {
        let batch: usize = batch
            .parse()
            .map_err(|_| Error::config(format_args!("bad --batch-size `{batch}`")))?;
        plan.batch_size = batch.max(1);
    }
    if let Some(retries) = flag(args, "--max-retries") {
        let retries = retries
            .parse()
            .map_err(|_| Error::config(format_args!("bad --max-retries `{retries}`")))?;
        let mut supervision = plan.supervision.unwrap_or_default();
        supervision.max_retries = retries;
        plan.supervision = Some(supervision);
    }
    if present(args, "--fail-fast") {
        let mut supervision = plan.supervision.unwrap_or_default();
        supervision.max_retries = 0;
        plan.supervision = Some(supervision);
    }
    if let Some(dir) = flag(args, "--checkpoint-dir") {
        let mut ckpt = plan.checkpoint.clone().unwrap_or_default();
        ckpt.dir = Some(dir);
        plan.checkpoint = Some(ckpt);
    }
    if let Some(every) = flag(args, "--checkpoint-interval-epochs") {
        let every: u64 = every.parse().map_err(|_| {
            Error::config(format_args!("bad --checkpoint-interval-epochs `{every}`"))
        })?;
        let mut ckpt = plan.checkpoint.clone().unwrap_or_default();
        ckpt.interval_epochs = every.max(1);
        plan.checkpoint = Some(ckpt);
    }
    let physical = plan.compile(&schema)?;
    if present(args, "--explain") {
        // Show the compiled physical plan and stop: no input required.
        out!("{}", physical.explain())?;
        return Ok(());
    }

    let input = require(args, "--input")?;
    let output = require(args, "--output")?;
    let tuples = load_tuples(&input, &schema)?;
    let n = tuples.len();
    // Tracing brackets exactly the execution: spans are only recorded
    // while the run is in flight, so the export below is one run's
    // timeline.
    let trace_out = flag(args, "--trace-out");
    let trace = trace_out
        .as_deref()
        .and_then(|_| icewafl::obs::TraceSession::start(1 << 20));
    // Supervised even at 0 retries: a failing stage then surfaces as a
    // one-line `icewafl: pipeline failed …` diagnostic and exit code 1.
    let out = physical.execute_supervised(tuples)?;
    if let Some(path) = &trace_out {
        let dump = trace
            .map(icewafl::obs::TraceSession::finish)
            .unwrap_or_default();
        let file =
            File::create(path).map_err(|e| Error::Io(format!("cannot create `{path}`: {e}")))?;
        let mut w = BufWriter::new(file);
        dump.write_chrome_trace(&mut w)?;
        w.flush()?;
        outln!(
            "trace: {} event(s), {} dropped -> {path}",
            dump.events.len(),
            dump.dropped
        )?;
    }

    write_csv_file(&output, &schema, out.polluted.iter().map(|t| &t.tuple))?;
    outln!(
        "polluted {n} tuples -> {} output tuples, {} ground-truth entries -> {output}",
        out.polluted.len(),
        out.log.len()
    )?;

    if let Some(clean_path) = flag(args, "--clean") {
        write_csv_file(&clean_path, &schema, out.clean.iter().map(|t| &t.tuple))?;
        outln!("clean stream -> {clean_path}")?;
    }
    if let Some(log_path) = flag(args, "--log") {
        let json = serde_json::to_string_pretty(&out.log)
            .map_err(|e| Error::config(format_args!("log serialization: {e}")))?;
        std::fs::write(&log_path, json)?;
        outln!("ground truth -> {log_path}")?;
    }
    if present(args, "--report") {
        out!("{}", out.report.render())?;
    }
    if let Some(metrics_path) = flag(args, "--metrics-json") {
        let json = serde_json::to_string_pretty(&out.report)
            .map_err(|e| Error::config(format_args!("report serialization: {e}")))?;
        std::fs::write(&metrics_path, json)?;
        outln!("run report -> {metrics_path}")?;
    }
    Ok(())
}

fn write_csv_file<'a>(
    path: &str,
    schema: &Schema,
    tuples: impl IntoIterator<Item = &'a Tuple>,
) -> Result<()> {
    let file = File::create(path).map_err(|e| Error::Io(format!("cannot create `{path}`: {e}")))?;
    let mut w = BufWriter::new(file);
    write_csv(&mut w, schema, tuples)?;
    w.flush()?;
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<()> {
    check_flags("validate", args, &["--schema", "--input", "--suite"], &[])?;
    let schema = load_schema(&require(args, "--schema")?)?;
    let input = require(args, "--input")?;
    let suite_path = require(args, "--suite")?;
    let suite = SuiteConfig::from_json(&std::fs::read_to_string(&suite_path)?)?.build()?;
    let tuples = load_tuples(&input, &schema)?;
    // Validation runs on prepared tuples (ids for reporting).
    let prepared = icewafl::core::prepare::prepare_all(&schema, tuples)?;
    let report = suite.validate(&schema, &prepared)?;
    out!("{report}")?;
    if report.success() {
        Ok(())
    } else {
        Err(Error::config(format_args!(
            "{} expectation(s) failed with {} unexpected rows",
            report.results.iter().filter(|r| !r.success).count(),
            report.total_unexpected()
        )))
    }
}

fn cmd_profile(args: &[String]) -> Result<()> {
    check_flags("profile", args, &["--schema", "--input"], &[])?;
    let schema = load_schema(&require(args, "--schema")?)?;
    let input = require(args, "--input")?;
    let tuples = load_tuples(&input, &schema)?;
    let prepared = icewafl::core::prepare::prepare_all(&schema, tuples)?;
    outln!("{} rows", prepared.len())?;
    outln!(
        "{:<16} {:>10} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "column",
        "type",
        "nulls",
        "min",
        "max",
        "mean",
        "stdev"
    )?;
    for p in profile(&schema, &prepared) {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.3}"));
        outln!(
            "{:<16} {:>10} {:>8} {:>12} {:>12} {:>12} {:>12}",
            p.name,
            p.dtype.to_string(),
            p.null_count,
            fmt(p.min),
            fmt(p.max),
            fmt(p.mean),
            fmt(p.stdev),
        )?;
        if !p.categories.is_empty() {
            outln!("{:<16} categories: {}", "", p.categories.join(", "))?;
        }
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<()> {
    check_flags("generate", args, &["--dataset", "--output", "--seed"], &[])?;
    let dataset = require(args, "--dataset")?;
    let output = require(args, "--output")?;
    let seed: Option<u64> = flag(args, "--seed").and_then(|s| s.parse().ok());
    let (schema, tuples) = match dataset.split_once(':') {
        None if dataset == "wearable" => (
            wearable::schema(),
            seed.map_or_else(wearable::generate, wearable::generate_seeded),
        ),
        None if dataset == "airquality" => (
            airquality::schema(),
            airquality::generate_station_seeded(
                "Wanshouxigong",
                seed.unwrap_or(2013),
                airquality::TUPLES_PER_STATION,
            ),
        ),
        Some(("airquality", station)) => (
            airquality::schema(),
            airquality::generate_station_seeded(
                station,
                seed.unwrap_or(2013),
                airquality::TUPLES_PER_STATION,
            ),
        ),
        _ => {
            return Err(Error::config(format_args!(
                "unknown dataset `{dataset}` (wearable, airquality[:STATION])"
            )))
        }
    };
    write_csv_file(&output, &schema, &tuples)?;
    outln!("generated {} tuples -> {output}", tuples.len())?;
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<()> {
    use icewafl::serve::{server::ServeConfig, signal, Server};

    check_flags(
        "serve",
        args,
        &[
            "--addr",
            "--plans-dir",
            "--max-sessions",
            "--max-frame-bytes",
            "--metrics-json",
            "--telemetry-interval-ms",
            "--workers",
        ],
        &[],
    )?;
    let mut config = ServeConfig::default();
    if let Some(addr) = flag(args, "--addr") {
        config.addr = addr;
    }
    if let Some(dir) = flag(args, "--plans-dir") {
        config.plans = icewafl::core::PlanCatalog::load_dir(&dir)?;
        outln!(
            "loaded {} plan(s) from {dir}: {}",
            config.plans.len(),
            config.plans.names().join(", ")
        )?;
    }
    if let Some(n) = flag(args, "--max-sessions") {
        config.max_sessions = n
            .parse()
            .map_err(|_| Error::config(format_args!("bad --max-sessions `{n}`")))?;
    }
    if let Some(n) = flag(args, "--max-frame-bytes") {
        config.max_frame_bytes = n
            .parse()
            .map_err(|_| Error::config(format_args!("bad --max-frame-bytes `{n}`")))?;
    }
    if let Some(n) = flag(args, "--telemetry-interval-ms") {
        config.telemetry_interval_ms = n
            .parse()
            .map_err(|_| Error::config(format_args!("bad --telemetry-interval-ms `{n}`")))?;
    }
    if let Some(n) = flag(args, "--workers") {
        config.workers =
            n.parse::<usize>().ok().filter(|&w| w > 0).ok_or_else(|| {
                Error::config(format_args!("bad --workers `{n}` (want a count > 0)"))
            })?;
    }

    let server = Server::bind(config)?;
    signal::install();
    // The exact line the client harness and the CI smoke test parse.
    outln!("listening on {}", server.local_addr())?;
    server.run()?;
    outln!("drained; goodbye")?;

    if let Some(metrics_path) = flag(args, "--metrics-json") {
        let json = serde_json::to_string_pretty(&server.registry().snapshot())
            .map_err(|e| Error::config(format_args!("metrics serialization: {e}")))?;
        std::fs::write(&metrics_path, json)?;
        outln!("serve metrics -> {metrics_path}")?;
    }
    Ok(())
}

fn cmd_top(args: &[String]) -> Result<()> {
    use icewafl::serve::client;

    let addr = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .ok_or_else(|| {
            Error::config(format_args!(
                "usage: icewafl top HOST:PORT [--frames N] [--plain]"
            ))
        })?;
    check_flags("top", &args[1..], &["--frames"], &["--plain"])?;
    let frames: usize = match flag(args, "--frames") {
        Some(n) => n
            .parse()
            .map_err(|_| Error::config(format_args!("bad --frames `{n}`")))?,
        // 0 = watch until the server drains.
        None => 0,
    };
    let plain = present(args, "--plain");
    let seen = client::watch_telemetry(&addr, None, frames, |frame| {
        // Clear the screen and home the cursor: a refreshing table.
        let clear = if plain { "" } else { "\x1b[2J\x1b[H" };
        if let Err(e) = out!("{clear}{}", render_top_frame(frame)) {
            eprintln!("icewafl: {e}");
            std::process::exit(1);
        }
        // Nobody reads the table any more: stop watching.
        if STDOUT_CLOSED.load(Ordering::Relaxed) {
            std::process::exit(0);
        }
    })
    .map_err(|e| Error::Io(format!("telemetry stream from {addr}: {e}")))?;
    if seen == 0 {
        outln!("no telemetry frames received before the server drained")?;
    }
    Ok(())
}

/// Live session rows shown before `icewafl top` folds the remainder
/// into one summary line — a 1000-session server must not scroll the
/// terminal through a thousand rows per refresh.
const TOP_SESSION_ROWS: usize = 20;

/// One `icewafl top` screen: the session table (top
/// [`TOP_SESSION_ROWS`] by bytes sent, the rest summarized) plus the
/// metrics that moved during the last sampling interval.
fn render_top_frame(f: &icewafl::serve::TelemetryFrame) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "icewafl top — frame {} at {} ms (every {} ms)",
        f.seq, f.at_ms, f.interval_ms
    );
    let _ = writeln!(out, "sessions ({}):", f.sessions.len());
    let _ = writeln!(
        out,
        "  {:>4}  {:<10} {:<7} {:>10} {:>11} {:>12} {:>11} {:>17} {:>23}",
        "id",
        "kind",
        "format",
        "frames_in",
        "frames_out",
        "bytes_out",
        "encode_ms",
        "blocked_write_ms",
        "held_max(in/rows/out)"
    );
    let mut ranked: Vec<_> = f.sessions.iter().collect();
    ranked.sort_by(|a, b| b.bytes_out.cmp(&a.bytes_out).then(a.id.cmp(&b.id)));
    for s in ranked.iter().take(TOP_SESSION_ROWS) {
        let dash = |v: &str| if v.is_empty() { "-" } else { v }.to_string();
        let _ = writeln!(
            out,
            "  {:>4}  {:<10} {:<7} {:>10} {:>11} {:>12} {:>11.3} {:>17.3} {:>23}",
            s.id,
            s.kind,
            dash(&s.format),
            s.frames_in,
            s.frames_out,
            s.bytes_out,
            s.encode_ns as f64 / 1e6,
            s.blocked_write_ns as f64 / 1e6,
            format!(
                "{}/{}/{}",
                s.input_hwm_bytes, s.queued_hwm_rows, s.outbox_hwm_bytes
            )
        );
    }
    let rest = &ranked[ranked.len().min(TOP_SESSION_ROWS)..];
    if !rest.is_empty() {
        let (frames_in, frames_out, bytes_out) =
            rest.iter().fold((0u64, 0u64, 0u64), |(fi, fo, bo), s| {
                (fi + s.frames_in, fo + s.frames_out, bo + s.bytes_out)
            });
        let _ = writeln!(
            out,
            "  ...and {} more session(s) totalling {:>10} {:>11} {:>12}",
            rest.len(),
            frames_in,
            frames_out,
            bytes_out
        );
    }
    let Some(delta) = &f.delta else {
        return out;
    };
    let mut hot: Vec<_> = delta.deltas.iter().collect();
    hot.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    if !hot.is_empty() {
        let _ = writeln!(out, "hot counters (change this tick):");
        for (name, d) in hot.into_iter().take(10) {
            let rate = *d as f64 * 1000.0 / delta.interval_ms.max(1) as f64;
            let _ = writeln!(out, "  {name:<44} +{d:>10}  ({rate:>10.1}/s)");
        }
    }
    if !delta.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in delta.gauges.iter().take(10) {
            let _ = writeln!(out, "  {name:<44} {v:>10}");
        }
    }
    out
}

fn cmd_example_config(args: &[String]) -> Result<()> {
    check_flags("example-config", args, &[], &[])?;
    let plan = LogicalPlan::new(
        42,
        vec![vec![
            PolluterConfig::Standard {
                name: "nightly-dropouts".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Sinusoidal {
                    amplitude: 0.25,
                    offset: 0.25,
                },
                pattern: None,
            },
            PolluterConfig::Delay {
                name: "bad-network".into(),
                condition: ConditionConfig::And {
                    children: vec![
                        ConditionConfig::HourRange { start: 13, end: 15 },
                        ConditionConfig::Probability { p: 0.2 },
                    ],
                },
                delay_ms: 3_600_000,
            },
        ]],
    );
    outln!("{}", plan.to_json())?;
    Ok(())
}
