//! Machine-readable throughput harness (`cargo run -p icewafl-bench
//! --release --bin throughput`).
//!
//! Runs the §2.3 reference workload — `n` tuples through `m = 4`
//! sub-streams of pipeline length `ℓ = 4` — at every transport batch
//! size and emits a `BENCH_throughput.json` report with
//! tuples/second per configuration. Unlike the criterion benches this
//! harness is cheap enough for CI, produces a stable JSON artifact for
//! regression gating (`--check`), and needs no statistics framework:
//! it reports the best of `--reps` wall-clock runs.
//!
//! Usage:
//!   throughput [--n 10000] [--reps 5] [--out BENCH_throughput.json]
//!              [--check BASELINE.json] [--tolerance 0.30] [--relative]
//!              [--serve] [--serve-sessions 4]
//!
//! Every run also measures the per-kernel-family microbench: each
//! vectorized kernel family runs on a single-stage pipeline in three
//! modes — loose-row `process_row`, column batches with the row
//! trampoline forced, and the vectorized kernels — and the element/s
//! land under a `kernels` key. In `--relative` mode the geometric mean
//! of the vectorized/trampoline speedups from the same run is gated
//! against `KERNEL_SPEEDUP_FLOOR`, so the kernels cannot silently
//! degenerate into the per-row loop.
//!
//! With `--serve`, the harness additionally measures end-to-end network
//! throughput: it starts an in-process `icewafl-serve` server and
//! drives concurrent sessions of the same workload through it, once per
//! wire format. Serve numbers land under a separate `serve` key in the
//! JSON — absolute network rates are machine-dependent and stay outside
//! the `results` array the `--check` gate iterates — but in `--relative`
//! mode the binary serve / offline sequential *ratio* from the same run
//! is gated against a floor (see `SERVE_BINARY_RATIO_FLOOR`).
//!
//! Every run also measures checkpointed recovery: a chaos kill halfway
//! through the reference workload, restored from the latest
//! epoch-aligned checkpoint and byte-diffed against an undisturbed
//! run. `recovery_ms` / `replayed_tuples` land under a separate
//! `recovery` key — wall-clock cost on this machine, also outside the
//! `--check` gate.
//!
//! With `--check`, every configuration present in the baseline's
//! `results` array must reach at least `(1 - tolerance)` of its
//! baseline throughput or the process exits non-zero. `--relative`
//! normalizes both sides by their own `sequential/batch_1` throughput
//! before comparing, so the gate measures *speedup shape* (does
//! batching still pay off?) rather than absolute tuples/sec — the only
//! comparison that is stable across differently-sized machines, and
//! the mode CI uses against the committed baseline.

use std::time::Instant;

use icewafl_core::columnar::lower_pipeline;
use icewafl_core::condition::CmpOp;
use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::log::PollutionLog;
use icewafl_core::plan::{AssignerSpec, LogicalPlan};
use icewafl_types::{DataType, Schema, StampedTuple, Timestamp, Tuple, Value};

/// Pipeline length ℓ of the reference workload.
const PIPELINE_LEN: usize = 4;
/// Sub-stream count m of the reference workload.
const SUB_STREAMS: usize = 4;
/// Batch sizes swept (1 = unbatched transport).
const BATCH_SIZES: [usize; 3] = [1, 64, 256];

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

/// One sub-stream pipeline: ℓ gaussian-noise polluters gated at p=0.5.
fn pipeline() -> Vec<PolluterConfig> {
    (0..PIPELINE_LEN)
        .map(|i| PolluterConfig::Standard {
            name: format!("noise-{i}"),
            attributes: vec!["x".into()],
            error: ErrorConfig::GaussianNoise {
                sigma: 1.0,
                relative: false,
            },
            condition: ConditionConfig::Probability { p: 0.5 },
            pattern: None,
        })
        .collect()
}

fn plan(batch_size: usize) -> LogicalPlan {
    let mut plan = LogicalPlan::new(42, vec![pipeline(); SUB_STREAMS]);
    plan.assigner = AssignerSpec::RoundRobin;
    plan.logging = false;
    plan.batch_size = batch_size;
    plan
}

struct Measurement {
    name: String,
    strategy: String,
    batch_size: usize,
    tuples_per_sec: f64,
    best_ms: f64,
}

fn measure(batch_size: usize, n: i64, reps: u32) -> Measurement {
    let schema = schema();
    let physical = plan(batch_size)
        .compile(&schema)
        .expect("reference plan compiles");
    let data = tuples(n);
    // One warm-up run outside the timed loop.
    let warm = physical.execute(data.clone()).expect("warm-up succeeds");
    assert_eq!(warm.polluted.len(), n as usize, "workload is lossless");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let input = data.clone();
        let start = Instant::now();
        let out = physical.execute(input).expect("run succeeds");
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(out.polluted.len(), n as usize);
        best = best.min(elapsed);
    }
    Measurement {
        name: format!("sequential/batch_{batch_size}"),
        strategy: "sequential".to_string(),
        batch_size,
        tuples_per_sec: n as f64 / best,
        best_ms: best * 1e3,
    }
}

/// Rows per pre-pivoted [`ColumnBatch`](icewafl_types::ColumnBatch) the
/// kernel microbench feeds `process_batch`.
const KERNEL_CHUNK: usize = 4096;

/// Per-kernel-family throughput in the three execution modes the
/// columnar layer supports. All three run the *same* single-stage
/// [`ColumnPipeline`](icewafl_core::ColumnPipeline) object, so the
/// numbers isolate the kernel itself:
///
/// * `row` — `process_row` over loose tuples: the tuple-at-a-time loop
///   every sub-stream executes.
/// * `trampoline` — `process_batch` with `set_vectorized(false)`:
///   column batches, but each stage walks the batch row by row.
/// * `vectorized` — `process_batch` with kernels on: bulk RNG draws,
///   branch-free masked selects.
struct KernelMeasurement {
    family: String,
    row_elems_per_sec: f64,
    trampoline_elems_per_sec: f64,
    vectorized_elems_per_sec: f64,
}

impl KernelMeasurement {
    /// The machine-independent number the `--relative` gate consumes:
    /// same pipeline, same machine, same run — only the inner loop
    /// differs.
    fn speedup(&self) -> f64 {
        self.vectorized_elems_per_sec / self.trampoline_elems_per_sec
    }
}

/// Four-column schema exercising every column layout the kernels
/// handle: timestamps, ints, floats, and strings.
fn kernel_schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("BPM", DataType::Int),
        ("Distance", DataType::Float),
        ("sensor", DataType::Str),
    ])
    .unwrap()
}

/// One row per minute (so hour-of-day conditions cycle over the run),
/// with a sprinkling of NULLs so the validity-mask intersection is on
/// every kernel's hot path.
fn kernel_rows(n: i64) -> Vec<StampedTuple> {
    (0..n)
        .map(|i| {
            let bpm = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int(60 + i % 90)
            };
            StampedTuple::new(
                i as u64,
                Timestamp(i * 60_000),
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 60_000)),
                    bpm,
                    Value::Float(5.0 + (i % 1000) as f64 * 0.01),
                    Value::Str(format!("s{}", i % 8).into()),
                ]),
            )
        })
        .collect()
}

/// One polluter per vectorized kernel family, paired with a condition
/// kernel that fires on a substantial share of rows — a microbench over
/// an all-zero mask would measure mask evaluation, not the error
/// kernel.
fn kernel_families() -> Vec<(&'static str, PolluterConfig)> {
    let std = |name: &'static str, attr: &str, error: ErrorConfig, condition: ConditionConfig| {
        (
            name,
            PolluterConfig::Standard {
                name: name.into(),
                attributes: vec![attr.into()],
                error,
                condition,
                pattern: None,
            },
        )
    };
    vec![
        std(
            "round",
            "Distance",
            ErrorConfig::Round { precision: 1 },
            ConditionConfig::Always,
        ),
        std(
            "unit_conversion",
            "Distance",
            ErrorConfig::UnitConversion { factor: 1.60934 },
            ConditionConfig::TimeWindow {
                from: Some("1970-01-01 12:00:00".into()),
                to: None,
            },
        ),
        std(
            "outlier",
            "BPM",
            ErrorConfig::Outlier { magnitude: 3.0 },
            ConditionConfig::HourRange { start: 6, end: 18 },
        ),
        std(
            "uniform_noise",
            "Distance",
            ErrorConfig::UniformNoise { a: 0.0, b: 0.3 },
            ConditionConfig::Sinusoidal {
                amplitude: 0.25,
                offset: 0.5,
            },
        ),
        std(
            "constant",
            "sensor",
            ErrorConfig::Constant {
                value: Value::Str("fixed".into()),
            },
            ConditionConfig::LinearRamp {
                from: "1970-01-01 00:00:00".into(),
                to: "1970-01-08 00:00:00".into(),
                p0: 0.2,
                p1: 0.8,
            },
        ),
        std(
            "timestamp_shift",
            "Time",
            ErrorConfig::TimestampShift {
                delta_ms: -3_600_000,
            },
            ConditionConfig::Probability { p: 0.5 },
        ),
        std(
            "missing_value",
            "BPM",
            ErrorConfig::MissingValue,
            ConditionConfig::Probability { p: 0.3 },
        ),
        std(
            "gaussian_noise",
            "Distance",
            ErrorConfig::GaussianNoise {
                sigma: 0.1,
                relative: true,
            },
            ConditionConfig::Value {
                attribute: "Distance".into(),
                op: CmpOp::Gt,
                value: Value::Float(10.0),
            },
        ),
        std(
            "scale",
            "BPM",
            ErrorConfig::Scale { factor: 1.5 },
            ConditionConfig::Probability { p: 0.7 },
        ),
    ]
}

/// Best wall-clock of `reps` timed runs, after one untimed warm-up.
fn best_secs(reps: u32, mut run: impl FnMut() -> f64) -> f64 {
    run();
    (0..reps).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Measures every kernel family in all three modes. Element counts are
/// rows (each family targets one attribute), so the three rates are
/// directly comparable per family.
fn measure_kernels(n: i64, reps: u32) -> Vec<KernelMeasurement> {
    use icewafl_types::ColumnBatch;

    let schema = kernel_schema();
    let rows = kernel_rows(n);
    // Batches are converted ONCE, outside every timed region: the
    // microbench isolates the stage inner loop, so rows↔columns
    // conversion — identical in both columnar modes, and measured by
    // the repo benchmark's `types.column.*` ledger rows — must not
    // dilute the ratio.
    let batches: Vec<ColumnBatch> = rows
        .chunks(KERNEL_CHUNK)
        .map(|chunk| {
            ColumnBatch::from_rows(&schema, chunk.to_vec()).expect("bench rows fit the schema")
        })
        .collect();
    let mut log = PollutionLog::disabled();
    let mut out = Vec::new();
    for (family, config) in kernel_families() {
        let mut pipeline = lower_pipeline(42, 0, std::slice::from_ref(&config), &schema)
            .expect("kernel family compiles")
            .expect("kernel family lowers to columns");
        assert_eq!(
            pipeline.vectorized_stages(),
            1,
            "`{family}` must ship a column kernel"
        );

        // Row mode: loose tuples through `process_row`, no conversion.
        let best_row = best_secs(reps, || {
            let mut input = rows.clone();
            let start = Instant::now();
            for tuple in &mut input {
                pipeline.process_row(tuple, &mut log);
            }
            start.elapsed().as_secs_f64()
        });

        // Columnar batches, per-row trampoline inner loop.
        pipeline.set_vectorized(false);
        let best_tramp = best_secs(reps, || {
            let mut input = batches.clone();
            let start = Instant::now();
            for batch in &mut input {
                pipeline.process_batch(batch, &mut log);
            }
            start.elapsed().as_secs_f64()
        });

        // Columnar batches, vectorized kernels.
        pipeline.set_vectorized(true);
        let best_vec = best_secs(reps, || {
            let mut input = batches.clone();
            let start = Instant::now();
            for batch in &mut input {
                pipeline.process_batch(batch, &mut log);
            }
            start.elapsed().as_secs_f64()
        });

        out.push(KernelMeasurement {
            family: family.to_string(),
            row_elems_per_sec: n as f64 / best_row,
            trampoline_elems_per_sec: n as f64 / best_tramp,
            vectorized_elems_per_sec: n as f64 / best_vec,
        });
    }
    out
}

/// Geometric mean of the per-family vectorized/trampoline speedups —
/// one number summarizing whether the kernels still beat the row-by-row
/// inner loop. Geometric (not arithmetic) so one huge bitmap-kernel
/// ratio cannot mask a regression in the compute-bound families.
fn kernel_speedup_geomean(kernels: &[KernelMeasurement]) -> f64 {
    if kernels.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = kernels.iter().map(|k| k.speedup().ln()).sum();
    (log_sum / kernels.len() as f64).exp()
}

/// Network throughput of one serve configuration: an in-process server
/// and `sessions` concurrent clients streaming the reference workload.
fn measure_serve(n: i64, sessions: usize, format: &str) -> Measurement {
    use icewafl_serve::{client, ClientConfig, Handshake, ServeConfig, Server};
    use std::sync::Arc;

    let server = Arc::new(
        Server::bind(ServeConfig {
            max_sessions: sessions.max(1),
            ..ServeConfig::default()
        })
        .expect("bind serve listener"),
    );
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let runner = Arc::clone(&server);
    let accept_loop = std::thread::spawn(move || runner.run());

    let handshake = Handshake {
        plan_inline: Some(plan(64)),
        schema_inline: Some(schema()),
        format: Some(format.to_string()),
        ..Handshake::default()
    };
    let input = tuples(n);
    let start = Instant::now();
    let workers: Vec<_> = (0..sessions)
        .map(|_| {
            let config = ClientConfig::new(addr.clone(), handshake.clone());
            let input = input.clone();
            std::thread::spawn(move || client::run_session(&config, input).expect("serve session"))
        })
        .collect();
    for worker in workers {
        let outcome = worker.join().expect("session thread");
        assert!(
            outcome.completed(),
            "serve session failed: {:?}",
            outcome.error
        );
        assert_eq!(outcome.tuples.len(), n as usize, "workload is lossless");
    }
    let elapsed = start.elapsed().as_secs_f64();
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    accept_loop
        .join()
        .expect("accept loop")
        .expect("server run");

    Measurement {
        name: format!("serve/{format}_x{sessions}"),
        strategy: format!("serve_{format}"),
        batch_size: 64,
        tuples_per_sec: (sessions as i64 * n) as f64 / elapsed,
        best_ms: elapsed * 1e3,
    }
}

/// Recovery cost of the reference workload: a chaos kill halfway
/// through, under epoch-aligned checkpointing and supervised retry.
/// Returns the recovered run's `RunReport` after asserting the
/// recovered output is byte-identical to an undisturbed run — the same
/// invariant `tests/checkpoint_recovery.rs` pins, exercised here on
/// the bench workload so `recovery_ms` / `replayed_tuples` land in the
/// artifact next to the throughput numbers.
fn measure_recovery(n: i64) -> icewafl_core::report::RunReport {
    use icewafl_core::config::{ChaosSectionConfig, CheckpointSectionConfig, SupervisionConfig};

    let schema = schema();
    let base = {
        let mut p = plan(64);
        p.logging = true;
        p.supervision = Some(SupervisionConfig {
            max_retries: 2,
            deterministic: true,
            ..SupervisionConfig::default()
        });
        p.checkpoint = Some(CheckpointSectionConfig::default());
        p
    };
    let calm = base
        .clone()
        .compile(&schema)
        .expect("calm plan compiles")
        .execute_supervised(tuples(n))
        .expect("calm run succeeds");

    let mut hurt_plan = base;
    // `kill_at_tuple` counts records *per injector*, and each of the m
    // sub-stream injectors sees ~n/m records — aim for halfway through
    // one sub-stream so the kill actually fires.
    hurt_plan.chaos = Some(ChaosSectionConfig {
        kill_at_tuple: Some((n as u64 / (SUB_STREAMS as u64 * 2)).max(1)),
        panic_budget: Some(1),
        ..ChaosSectionConfig::default()
    });
    let hurt = hurt_plan
        .compile(&schema)
        .expect("hurt plan compiles")
        .execute_supervised(tuples(n))
        .expect("supervised run recovers");

    assert_eq!(
        calm.polluted, hurt.polluted,
        "recovered output must be byte-identical to the undisturbed run"
    );
    assert!(
        hurt.report.restored_from_epoch > 0,
        "run restored from a checkpoint"
    );
    hurt.report
}

fn render(
    n: i64,
    reps: u32,
    results: &[Measurement],
    kernels: &[KernelMeasurement],
    serve: &[Measurement],
    recovery: Option<&icewafl_core::report::RunReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"workload\": {\n");
    out.push_str(&format!("    \"n\": {n},\n"));
    out.push_str(&format!("    \"pipeline_length\": {PIPELINE_LEN},\n"));
    out.push_str(&format!("    \"sub_streams\": {SUB_STREAMS},\n"));
    out.push_str(&format!("    \"reps\": {reps}\n"));
    out.push_str("  },\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"strategy\": \"{}\", \"batch_size\": {}, \
             \"tuples_per_sec\": {:.0}, \"best_ms\": {:.2} }}{}\n",
            m.name,
            m.strategy,
            m.batch_size,
            m.tuples_per_sec,
            m.best_ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if !kernels.is_empty() {
        // Absolute element/s are machine-dependent and stay outside the
        // `results` array the `--check` gate iterates; the `--relative`
        // gate consumes only the same-run speedup ratio.
        out.push_str(",\n  \"kernels\": [\n");
        for (i, k) in kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"family\": \"{}\", \"row_elems_per_sec\": {:.0}, \
                 \"trampoline_elems_per_sec\": {:.0}, \"vectorized_elems_per_sec\": {:.0}, \
                 \"speedup\": {:.2} }}{}\n",
                k.family,
                k.row_elems_per_sec,
                k.trampoline_elems_per_sec,
                k.vectorized_elems_per_sec,
                k.speedup(),
                if i + 1 < kernels.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
    }
    if !serve.is_empty() {
        // Outside `results` on purpose: the --check gate must not
        // compare network numbers across machines.
        out.push_str(",\n  \"serve\": [\n");
        for (i, m) in serve.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"strategy\": \"{}\", \"batch_size\": {}, \
                 \"tuples_per_sec\": {:.0}, \"best_ms\": {:.2} }}{}\n",
                m.name,
                m.strategy,
                m.batch_size,
                m.tuples_per_sec,
                m.best_ms,
                if i + 1 < serve.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
    }
    if let Some(report) = recovery {
        // Also outside `results`: recovery cost is wall-clock on this
        // machine, not a cross-machine comparable throughput.
        out.push_str(&format!(
            ",\n  \"recovery\": {{ \"checkpoints_taken\": {}, \"restored_from_epoch\": {}, \
             \"replayed_tuples\": {}, \"recovery_ms\": {} }}",
            report.checkpoints_taken,
            report.restored_from_epoch,
            report.replayed_tuples,
            report.recovery_ms
        ));
    }
    out.push_str("\n}\n");
    out
}

/// Name of the configuration used as the normalization reference in
/// `--relative` mode: no batching, so its throughput tracks raw machine
/// speed.
const REFERENCE_CONFIG: &str = "sequential/batch_1";

/// Minimum binary-serve over offline-sequential throughput ratio the
/// `--relative` gate accepts when this run measured serve (`--serve`).
/// Both sides run on the same machine in the same process, so the ratio
/// is hardware-independent; the floor guards the event-driven serving
/// path against regressing back toward the ~0.3x the old blocking
/// thread-per-connection server measured, while staying far enough under the measured ratio
/// that scheduler noise cannot flake CI.
///
/// Re-derived with the linear channel driver, which both sides of the
/// ratio run (a session is a streaming session over the same topology):
/// the reference rose 1.54 M → 2.57–2.93 M tuples/s, binary serve
/// 0.84 M → 1.44–1.75 M, and the measured ratio moved from 0.55–0.61x
/// to 0.60–0.78x (six captures). The floor stays at 0.5: still a sixth
/// under the lowest capture and well above that blocking server's level.
/// Sessions that execute while they upload did not move this figure
/// (four sessions saturate the two cores it was taken on either way:
/// 1.31–1.97 M against 1.62–1.88 M the same hour); what they moved is
/// first-output latency and server memory, which the repo benchmark's
/// `serve_binary_long` measures.
const SERVE_BINARY_RATIO_FLOOR: f64 = 0.5;

/// Minimum geometric-mean vectorized/trampoline kernel speedup the
/// `--relative` gate accepts. Both inner loops run on the same pipeline
/// object in the same process, so the ratio is hardware-independent.
/// The bitmap and select kernels measure well above this; the floor's
/// job is to catch the kernels silently degenerating into the per-row
/// trampoline (geomean ~1.0), while sitting far enough under the
/// measured geomean that the branchy stochastic families (gaussian,
/// outlier) cannot flake CI on a noisy machine.
const KERNEL_SPEEDUP_FLOOR: f64 = 1.3;

/// Compares measured throughput against a committed baseline; returns
/// the names of configurations that regressed beyond `tolerance`. In
/// relative mode both sides are divided by their own
/// [`REFERENCE_CONFIG`] throughput first, comparing speedup ratios
/// instead of machine-dependent absolute rates — and, when this run
/// measured serve, the binary serve/offline ratio is gated against
/// [`SERVE_BINARY_RATIO_FLOOR`].
fn check(
    baseline_json: &str,
    results: &[Measurement],
    kernels: &[KernelMeasurement],
    serve: &[Measurement],
    tolerance: f64,
    relative: bool,
) -> Vec<String> {
    let baseline: serde_json::Value =
        serde_json::from_str(baseline_json).expect("baseline parses as JSON");
    let entries = baseline
        .get("results")
        .and_then(|r| r.as_array())
        .expect("baseline has a results array");
    let base_tps_of = |name: &str| {
        entries.iter().find_map(|e| {
            (e.get("name").and_then(|v| v.as_str()) == Some(name))
                .then(|| e.get("tuples_per_sec").and_then(|v| v.as_f64()))
                .flatten()
        })
    };
    let (base_ref, measured_ref) = if relative {
        let base = base_tps_of(REFERENCE_CONFIG)
            .expect("baseline contains the sequential/batch_1 reference");
        let measured = results
            .iter()
            .find(|m| m.name == REFERENCE_CONFIG)
            .expect("this run contains the sequential/batch_1 reference")
            .tuples_per_sec;
        (base, measured)
    } else {
        (1.0, 1.0)
    };
    let mut regressions = Vec::new();
    for entry in entries {
        let (Some(name), Some(base_tps)) = (
            entry.get("name").and_then(|v| v.as_str()),
            entry.get("tuples_per_sec").and_then(|v| v.as_f64()),
        ) else {
            continue;
        };
        if relative && name == REFERENCE_CONFIG {
            continue; // its ratio is 1.0 on both sides by construction
        }
        let Some(measured) = results.iter().find(|m| m.name == name) else {
            continue;
        };
        let baseline_score = base_tps / base_ref;
        let measured_score = measured.tuples_per_sec / measured_ref;
        let floor = baseline_score * (1.0 - tolerance);
        if measured_score < floor {
            let unit = if relative { "x reference" } else { " tuples/s" };
            regressions.push(format!(
                "{name}: {measured_score:.2}{unit} < floor {floor:.2} \
                 (baseline {baseline_score:.2})"
            ));
        }
    }
    if relative {
        // No macro configuration runs the kernels, so gate their inner
        // loops directly: a kernel that quietly falls back to the
        // row-by-row trampoline shows up nowhere else.
        let geomean = kernel_speedup_geomean(kernels);
        if geomean.is_finite() {
            eprintln!(
                "vectorized/trampoline kernel speedup (geomean): {geomean:.2}x \
                 (floor {KERNEL_SPEEDUP_FLOOR:.1}x)"
            );
            if geomean < KERNEL_SPEEDUP_FLOOR {
                regressions.push(format!(
                    "kernel speedup geomean: {geomean:.2}x < floor {KERNEL_SPEEDUP_FLOOR:.1}x"
                ));
            }
        }
        // A binary session runs the same plan as the offline reference,
        // so the gap between the two is what the wire codec, the socket
        // and the reactor add. Gate the best binary serve configuration
        // against the offline sequential reference from the same run:
        // under the floor, serving a tuple costs more than polluting it.
        // Only active when this run measured serve.
        let serve_binary = serve
            .iter()
            .filter(|m| m.strategy == "serve_binary")
            .map(|m| m.tuples_per_sec)
            .fold(f64::NAN, f64::max);
        let serve_ratio = serve_binary / measured_ref;
        if serve_ratio.is_finite() {
            eprintln!(
                "binary serve / offline sequential: {serve_ratio:.2}x \
                 (floor {SERVE_BINARY_RATIO_FLOOR:.1}x)"
            );
            if serve_ratio < SERVE_BINARY_RATIO_FLOOR {
                regressions.push(format!(
                    "binary serve/offline ratio: {serve_ratio:.2}x < floor \
                     {SERVE_BINARY_RATIO_FLOOR:.1}x"
                ));
            }
        }
    }
    regressions
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: i64 = arg_value(&args, "--n")
        .map(|v| v.parse().expect("--n takes an integer"))
        .unwrap_or(10_000);
    let reps: u32 = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps takes an integer"))
        .unwrap_or(5);
    let out_path = arg_value(&args, "--out");
    let check_path = arg_value(&args, "--check");
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a float"))
        .unwrap_or(0.30);
    let relative = args.iter().any(|a| a == "--relative");

    let mut results = Vec::new();
    for batch_size in BATCH_SIZES {
        let m = measure(batch_size, n, reps);
        eprintln!(
            "{:<32} {:>12.0} tuples/s  (best {:.2} ms)",
            m.name, m.tuples_per_sec, m.best_ms
        );
        results.push(m);
    }
    // Kernel microbench: every vectorized kernel family, element/s in
    // row vs trampoline vs vectorized mode on one pipeline object.
    let kernels = measure_kernels(n, reps);
    for k in &kernels {
        eprintln!(
            "kernel/{:<24} {:>12.0} row  {:>12.0} tramp  {:>12.0} vec elems/s  ({:.2}x)",
            k.family,
            k.row_elems_per_sec,
            k.trampoline_elems_per_sec,
            k.vectorized_elems_per_sec,
            k.speedup()
        );
    }

    let mut serve_results = Vec::new();
    if args.iter().any(|a| a == "--serve") {
        let sessions: usize = arg_value(&args, "--serve-sessions")
            .map(|v| v.parse().expect("--serve-sessions takes an integer"))
            .unwrap_or(4);
        for format in ["ndjson", "binary"] {
            let m = measure_serve(n, sessions, format);
            eprintln!(
                "{:<32} {:>12.0} tuples/s  (wall {:.2} ms)",
                m.name, m.tuples_per_sec, m.best_ms
            );
            serve_results.push(m);
        }
    }

    let recovery = measure_recovery(n);
    eprintln!(
        "{:<32} restored from epoch {} (replayed {} tuples, {} ms restoring)",
        "recovery/sequential_batch_64",
        recovery.restored_from_epoch,
        recovery.replayed_tuples,
        recovery.recovery_ms
    );

    let report = render(n, reps, &results, &kernels, &serve_results, Some(&recovery));
    match &out_path {
        Some(path) => std::fs::write(path, &report).expect("write report"),
        None => print!("{report}"),
    }

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        let regressions = check(
            &baseline,
            &results,
            &kernels,
            &serve_results,
            tolerance,
            relative,
        );
        if !regressions.is_empty() {
            eprintln!("throughput regressions beyond {:.0}%:", tolerance * 100.0);
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        eprintln!("no regressions beyond {:.0}%", tolerance * 100.0);
    }
}
