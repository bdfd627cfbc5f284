//! Client harness for `icewafl serve` (`cargo run -p icewafl-bench
//! --release --bin serve_client`).
//!
//! Drives N concurrent sessions against a running server with the §2.3
//! reference workload (or a plan file), reporting per-session and
//! aggregate throughput. With `--out` the polluted stream of session 0
//! is written as JSON; with `--offline` the same plan runs in-process
//! instead and writes the identical artifact — diffing the two files is
//! the CI smoke check that served output matches offline output byte
//! for byte.
//!
//! Usage:
//!   serve_client --addr HOST:PORT [--sessions 4] [--tuples 10000]
//!                [--format ndjson|binary] [--plan NAME | --plan-file F]
//!                [--slow-reader-ms N] [--out OUT.json] [--seed 42]
//!                [--shared STREAM] [--verify | --verify-offline FILE]
//!   serve_client --offline [--tuples 10000] [--plan-file F]
//!                [--out OUT.json] [--seed 42]
//!
//! `--slow-reader-ms N` throttles session 0's reads by N ms per tuple to
//! exercise server-side backpressure. Without `--plan`/`--plan-file` the
//! harness inlines its reference plan (4 sub-streams of 4
//! gaussian-noise polluters) and its 2-column schema.
//!
//! `--shared STREAM` switches to shared-plan fan-out: session 0
//! publishes its output on the named stream and every other session
//! subscribes to it, so the server encodes each frame once and fans the
//! bytes out. `--verify` byte-compares every session's polluted stream
//! against an in-process offline run of the same plan (exit 1 on any
//! divergence); `--verify-offline FILE` compares against a previously
//! written `--offline --out` artifact instead. Sessions scale to 1000+
//! (connects are staggered so the listener backlog is never the limit).

use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::plan::{AssignerSpec, LogicalPlan};
use icewafl_serve::{client, ClientConfig, Handshake};
use icewafl_types::{DataType, Schema, StampedTuple, Timestamp, Tuple, Value};
use std::time::{Duration, Instant};

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

/// The client's reference plan, the §2.3 workload shape: m = 4
/// sub-streams of ℓ = 4 gaussian-noise polluters, round-robin, logging
/// off.
fn reference_plan(seed: u64) -> LogicalPlan {
    let pipeline: Vec<PolluterConfig> = (0..4)
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
        .collect();
    let mut plan = LogicalPlan::new(seed, vec![pipeline; 4]);
    plan.assigner = AssignerSpec::RoundRobin;
    plan.logging = false;
    plan
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn write_polluted(path: &str, polluted: &[StampedTuple]) {
    let json = serde_json::to_string(polluted).expect("polluted stream serializes");
    std::fs::write(path, json).expect("write --out file");
    eprintln!("polluted stream ({} tuples) -> {path}", polluted.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: i64 = arg_value(&args, "--tuples")
        .map(|v| v.parse().expect("--tuples takes an integer"))
        .unwrap_or(10_000);
    let sessions: usize = arg_value(&args, "--sessions")
        .map(|v| v.parse().expect("--sessions takes an integer"))
        .unwrap_or(4);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(42);
    let format = arg_value(&args, "--format").unwrap_or_else(|| "ndjson".into());
    let out_path = arg_value(&args, "--out");
    let slow_reader = arg_value(&args, "--slow-reader-ms")
        .map(|v| Duration::from_millis(v.parse().expect("--slow-reader-ms takes an integer")));

    let plan = match arg_value(&args, "--plan-file") {
        Some(path) => LogicalPlan::from_json(&std::fs::read_to_string(&path).expect("read plan"))
            .expect("plan file parses"),
        None => reference_plan(seed),
    };
    let plan_name = arg_value(&args, "--plan");
    let input = tuples(n);

    if args.iter().any(|a| a == "--offline") {
        // The reference side of the smoke diff: same plan, same input,
        // no network.
        let out = plan
            .compile(&schema())
            .expect("plan compiles")
            .execute(input)
            .expect("offline run succeeds");
        eprintln!("offline: {} tuples -> {} polluted", n, out.polluted.len());
        if let Some(path) = &out_path {
            write_polluted(path, &out.polluted);
        }
        return;
    }

    let addr = arg_value(&args, "--addr").expect("--addr is required (or use --offline)");
    let shared_stream = arg_value(&args, "--shared");
    // The byte-identity reference every session is held against: an
    // in-process offline run (`--verify`) or a prior `--offline --out`
    // artifact (`--verify-offline FILE`).
    let reference_bytes: Option<String> = if let Some(path) = arg_value(&args, "--verify-offline") {
        Some(std::fs::read_to_string(&path).expect("read --verify-offline artifact"))
    } else if args.iter().any(|a| a == "--verify") {
        let out = plan
            .clone()
            .compile(&schema())
            .expect("plan compiles")
            .execute(input.clone())
            .expect("offline run succeeds");
        Some(serde_json::to_string(&out.polluted).expect("polluted stream serializes"))
    } else {
        None
    };

    let handshake = Handshake {
        // A named plan refers to the server's --plans-dir; otherwise the
        // plan ships inline.
        plan: plan_name.clone(),
        plan_inline: plan_name.is_none().then(|| plan.clone()),
        schema_inline: Some(schema()),
        format: Some(format.clone()),
        // In shared mode session 0 publishes on the named stream.
        stream: shared_stream.clone(),
        ..Handshake::default()
    };
    let subscribe = Handshake {
        session: Some("subscribe".into()),
        stream: shared_stream.clone(),
        format: Some(format.clone()),
        ..Handshake::default()
    };

    let start = Instant::now();
    let workers: Vec<_> = (0..sessions)
        .map(|i| {
            let handshake = if shared_stream.is_some() && i > 0 {
                subscribe.clone()
            } else {
                handshake.clone()
            };
            let mut config = ClientConfig::new(addr.clone(), handshake);
            if i == 0 {
                config.slow_reader = slow_reader;
            }
            let input = if shared_stream.is_some() && i > 0 {
                Vec::new()
            } else {
                input.clone()
            };
            let publisher_delay = shared_stream.is_some() && i == 0;
            std::thread::spawn(move || {
                if publisher_delay {
                    // Let the subscribers attach first: the stream's hub
                    // is retired once the publisher closes.
                    std::thread::sleep(Duration::from_millis(150));
                } else {
                    // Stagger connects so the listener backlog never
                    // throttles a 1000-session run.
                    std::thread::sleep(Duration::from_millis((i % 64) as u64));
                }
                let t0 = Instant::now();
                let outcome = client::run_session(&config, input).expect("session transport");
                (outcome, t0.elapsed())
            })
        })
        .collect();

    let mut first_output: Option<Vec<StampedTuple>> = None;
    let mut failed = 0usize;
    let mut diverged = 0usize;
    let quiet = sessions > 16;
    for (i, worker) in workers.into_iter().enumerate() {
        let (outcome, elapsed) = worker.join().expect("session thread");
        if !outcome.reply.ok {
            eprintln!(
                "session {i}: rejected: {}",
                outcome.reply.error.as_deref().unwrap_or("?")
            );
            failed += 1;
            continue;
        }
        if let Some(error) = &outcome.error {
            eprintln!(
                "session {i}: failed at {} ({}): {}",
                error.stage, error.kind, error.message
            );
            failed += 1;
            continue;
        }
        if !quiet {
            eprintln!(
                "session {i}: {} tuples in {:.2} ms ({:.0} tuples/s){}",
                outcome.tuples.len(),
                elapsed.as_secs_f64() * 1e3,
                outcome.tuples.len() as f64 / elapsed.as_secs_f64(),
                if i == 0 && slow_reader.is_some() {
                    "  [slow reader]"
                } else {
                    ""
                }
            );
        }
        if let Some(expected) = &reference_bytes {
            let served =
                serde_json::to_string(&outcome.tuples).expect("polluted stream serializes");
            if &served != expected {
                eprintln!("session {i}: output diverged from the offline reference");
                diverged += 1;
            }
        }
        if i == 0 {
            first_output = Some(outcome.tuples);
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "total: {} sessions x {} tuples in {:.2} s ({:.0} tuples/s aggregate), {} failed{}",
        sessions,
        n,
        elapsed,
        (sessions as i64 * n) as f64 / elapsed,
        failed,
        if reference_bytes.is_some() {
            format!(", {diverged} diverged")
        } else {
            String::new()
        }
    );
    if reference_bytes.is_some() && diverged == 0 && failed == 0 {
        eprintln!("verify: all {sessions} sessions byte-identical to offline");
    }
    if let (Some(path), Some(polluted)) = (&out_path, &first_output) {
        write_polluted(path, polluted);
    }
    if failed > 0 || diverged > 0 {
        std::process::exit(1);
    }
}
