//! Integration tests of the `icewafl` command-line tool: the full
//! generate → pollute → validate → profile workflow through the real
//! binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn icewafl(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_icewafl"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icewafl-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).to_string()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).to_string()
}

#[test]
fn help_lists_commands() {
    let dir = temp_dir("help");
    let out = icewafl(&["help"], &dir);
    assert!(out.status.success());
    for cmd in ["pollute", "validate", "profile", "generate"] {
        assert!(stdout(&out).contains(cmd), "help mentions {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let dir = temp_dir("unknown");
    let out = icewafl(&["frobnicate"], &dir);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn example_config_is_valid_json() {
    let dir = temp_dir("config");
    let out = icewafl(&["example-config"], &dir);
    assert!(out.status.success());
    let parsed: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert!(parsed["pipelines"].is_array());
}

#[test]
fn full_workflow_generate_pollute_validate_profile() {
    let dir = temp_dir("workflow");

    // generate
    let out = icewafl(
        &["generate", "--dataset", "wearable", "--output", "clean.csv"],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("1059 tuples"));

    // pollute with the example config
    let cfg = icewafl(&["example-config"], &dir);
    std::fs::write(dir.join("scenario.json"), &cfg.stdout).unwrap();
    let out = icewafl(
        &[
            "pollute",
            "--schema",
            "wearable",
            "--config",
            "scenario.json",
            "--input",
            "clean.csv",
            "--output",
            "dirty.csv",
            "--log",
            "gt.json",
            "--seed",
            "7",
        ],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(dir.join("dirty.csv").exists());
    let log: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("gt.json")).unwrap()).unwrap();
    let entries = log["entries"].as_array().unwrap().len();
    assert!(
        entries > 100,
        "the sinusoid nulls ≈ 25 % of 1059 tuples: {entries}"
    );

    // validate: the dirty stream must FAIL the not-null check (exit 1)
    std::fs::write(
        dir.join("suite.json"),
        r#"{ "name": "checks", "expectations": [
            { "type": "not_null", "column": "Distance" } ] }"#,
    )
    .unwrap();
    let out = icewafl(
        &[
            "validate",
            "--schema",
            "wearable",
            "--input",
            "dirty.csv",
            "--suite",
            "suite.json",
        ],
        &dir,
    );
    assert!(!out.status.success(), "dirty data must fail validation");
    assert!(stdout(&out).contains("not_be_null"));

    // ...and the clean stream must pass it (exit 0).
    let out = icewafl(
        &[
            "validate",
            "--schema",
            "wearable",
            "--input",
            "clean.csv",
            "--suite",
            "suite.json",
        ],
        &dir,
    );
    assert!(out.status.success(), "clean data passes: {}", stdout(&out));

    // profile prints per-column stats
    let out = icewafl(
        &["profile", "--schema", "wearable", "--input", "dirty.csv"],
        &dir,
    );
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Distance"));
    assert!(text.contains("1059 rows"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pollute_emits_run_report_and_metrics_json() {
    let dir = temp_dir("metrics");
    icewafl(
        &[
            "generate",
            "--dataset",
            "wearable",
            "--output",
            "clean.csv",
            "--seed",
            "1",
        ],
        &dir,
    );
    let cfg = icewafl(&["example-config"], &dir);
    std::fs::write(dir.join("scenario.json"), &cfg.stdout).unwrap();
    let out = icewafl(
        &[
            "pollute",
            "--schema",
            "wearable",
            "--config",
            "scenario.json",
            "--input",
            "clean.csv",
            "--output",
            "dirty.csv",
            "--log",
            "gt.json",
            "--seed",
            "9",
            "--report",
            "--metrics-json",
            "metrics.json",
        ],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));

    // Human-readable report on stdout.
    let text = stdout(&out);
    assert!(text.contains("== run report =="));
    assert!(text.contains("nightly-dropouts") && text.contains("bad-network"));

    // Machine-readable report: per-polluter and per-stage counts.
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("metrics.json")).unwrap()).unwrap();
    assert_eq!(report["tuples_in"].as_u64(), Some(1059));
    let polluters = report["polluters"].as_array().unwrap();
    assert_eq!(polluters.len(), 2);
    for p in polluters {
        assert_eq!(
            p["fires"].as_u64().unwrap() + p["skips"].as_u64().unwrap(),
            p["condition_evals"].as_u64().unwrap()
        );
    }

    // Per-polluter log_entries agree with the ground-truth log, and so
    // do the fire counters.
    let log: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("gt.json")).unwrap()).unwrap();
    let entries = log["entries"].as_array().unwrap();
    for p in polluters {
        let name = p["name"].as_str().unwrap();
        // Entries are internally tagged ({"event": ..., "polluter": ...}).
        let logged = entries
            .iter()
            .filter(|e| e["polluter"].as_str() == Some(name))
            .count() as u64;
        assert_eq!(
            p["log_entries"].as_u64().unwrap(),
            logged,
            "log_entries for {name}"
        );
        assert_eq!(p["fires"].as_u64().unwrap(), logged, "fires for {name}");
    }

    // Stream stage metrics: element counts, latency histogram, and the
    // watermark high-water mark.
    let counters = &report["metrics"]["counters"];
    assert_eq!(
        counters["stage/02_pollution_pipeline/elements_in"].as_u64(),
        Some(1059)
    );
    assert!(counters["stage/02_pollution_pipeline/elements_out"]
        .as_u64()
        .is_some());
    let latency = &report["metrics"]["histograms"]["stage/02_pollution_pipeline/latency_ns"];
    assert!(
        latency["count"].as_u64().is_some(),
        "latency histogram present"
    );
    let hwm = &report["metrics"]["gauges"]["stage/02_pollution_pipeline/watermark_hwm_ms"];
    assert!(hwm.as_u64().is_some(), "watermark high-water mark present");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_prints_the_compiled_plan_without_running() {
    let dir = temp_dir("explain");
    let cfg = icewafl(&["example-config"], &dir);
    std::fs::write(dir.join("scenario.json"), &cfg.stdout).unwrap();
    // --explain needs no --input/--output: it compiles and prints only.
    let out = icewafl(
        &[
            "pollute",
            "--schema",
            "wearable",
            "--config",
            "scenario.json",
            "--explain",
        ],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("== physical plan =="));
    assert!(text.contains("strategy:"));
    for stage in [
        "stage/00_event_time_sorter",
        "stage/01_split_router",
        "stage/02_pollution_pipeline",
    ] {
        assert!(text.contains(stage), "explain lists {stage}");
    }
    assert!(
        !dir.join("dirty.csv").exists(),
        "--explain must not execute the job"
    );

    // One strategy: the compiled plan always names it.
    assert!(text.contains("strategy:         sequential"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pollute_config_is_a_logical_plan() {
    let dir = temp_dir("plan-config");
    // The same flat document `serve --plans-dir` loads: every execution
    // key sits at the top level and takes effect.
    std::fs::write(
        dir.join("flat.json"),
        r#"{"pipelines":[[]],"batch_size":1,"watermark_period":7,"logging":false}"#,
    )
    .unwrap();
    let out = icewafl(
        &[
            "pollute",
            "--schema",
            "wearable",
            "--config",
            "flat.json",
            "--explain",
        ],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for line in [
        "batch size:       1 ",
        "every 7 tuples",
        "logging:          off",
    ] {
        assert!(text.contains(line), "explain lacks `{line}`:\n{text}");
    }

    // The old nested section is refused by name, not silently ignored.
    std::fs::write(
        dir.join("nested.json"),
        r#"{"pipelines":[[]],"execution":{"batch_size":1}}"#,
    )
    .unwrap();
    let out = icewafl(
        &[
            "pollute",
            "--schema",
            "wearable",
            "--config",
            "nested.json",
            "--explain",
        ],
        &dir,
    );
    assert!(!out.status.success(), "a nested execution section ran");
    let err = stderr(&out);
    assert!(err.contains("`execution`"), "{err}");
    assert!(stdout(&out).is_empty(), "nothing ran: {}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_rejected_with_their_name() {
    let dir = temp_dir("unknown-flags");
    let cfg = icewafl(&["example-config"], &dir);
    std::fs::write(dir.join("scenario.json"), &cfg.stdout).unwrap();
    // A misspelling, and the flag that selected the removed threaded
    // strategy: neither may run as if it were absent.
    for bad in ["--paralel", "--parallel"] {
        let out = icewafl(
            &[
                "pollute",
                "--schema",
                "wearable",
                "--config",
                "scenario.json",
                bad,
                "--explain",
            ],
            &dir,
        );
        assert!(!out.status.success(), "{bad} was accepted");
        let err = stderr(&out);
        assert!(
            err.contains("invalid configuration") && err.contains(&format!("`{bad}`")),
            "{err}"
        );
        assert!(stdout(&out).is_empty(), "nothing ran: {}", stdout(&out));
    }
    // Every subcommand checks its own flags: one command's flag is
    // another's unknown one.
    for args in [
        &["validate", "--schema", "wearable", "--report"][..],
        &["profile", "--schema", "wearable", "--seed", "1"],
        &[
            "generate",
            "--dataset",
            "wearable",
            "--output",
            "x.csv",
            "--fast",
        ],
        &["serve", "--addr", "127.0.0.1:0", "--threads", "2"],
        &["top", "127.0.0.1:1", "--frames", "1", "--follow"],
        &["example-config", "--seed", "3"],
    ] {
        let out = icewafl(args, &dir);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(
            stderr(&out).contains("unknown flag"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    assert!(!dir.join("x.csv").exists(), "generate ran anyway");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pollute_is_reproducible_per_seed() {
    let dir = temp_dir("repro");
    icewafl(
        &[
            "generate",
            "--dataset",
            "wearable",
            "--output",
            "clean.csv",
            "--seed",
            "1",
        ],
        &dir,
    );
    let cfg = icewafl(&["example-config"], &dir);
    std::fs::write(dir.join("scenario.json"), &cfg.stdout).unwrap();
    let run = |out_name: &str, seed: &str| {
        let out = icewafl(
            &[
                "pollute",
                "--schema",
                "wearable",
                "--config",
                "scenario.json",
                "--input",
                "clean.csv",
                "--output",
                out_name,
                "--seed",
                seed,
            ],
            &dir,
        );
        assert!(out.status.success(), "{}", stderr(&out));
        std::fs::read_to_string(dir.join(out_name)).unwrap()
    };
    let a = run("a.csv", "9");
    let b = run("b.csv", "9");
    let c = run("c.csv", "10");
    assert_eq!(a, b, "same seed, same dirty stream");
    assert_ne!(a, c, "different seed, different stream");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_flags_are_reported() {
    let dir = temp_dir("flags");
    let out = icewafl(&["pollute", "--schema", "wearable"], &dir);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--config"));
}

#[test]
fn schema_can_be_loaded_from_file() {
    let dir = temp_dir("schemafile");
    // Serialize the wearable schema to a file and use it by path.
    let schema = icewafl::data::wearable::schema();
    std::fs::write(
        dir.join("schema.json"),
        serde_json::to_string(&schema).unwrap(),
    )
    .unwrap();
    icewafl(
        &["generate", "--dataset", "wearable", "--output", "clean.csv"],
        &dir,
    );
    let out = icewafl(
        &["profile", "--schema", "schema.json", "--input", "clean.csv"],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("CaloriesBurned"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pollute_trace_out_emits_perfetto_loadable_chrome_trace() {
    let dir = temp_dir("trace");
    icewafl(
        &[
            "generate",
            "--dataset",
            "wearable",
            "--output",
            "clean.csv",
            "--seed",
            "1",
        ],
        &dir,
    );
    let cfg = icewafl(&["example-config"], &dir);
    std::fs::write(dir.join("scenario.json"), &cfg.stdout).unwrap();
    let out = icewafl(
        &[
            "pollute",
            "--schema",
            "wearable",
            "--config",
            "scenario.json",
            "--input",
            "clean.csv",
            "--output",
            "dirty.csv",
            "--seed",
            "9",
            "--trace-out",
            "trace.json",
        ],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("trace:"), "{}", stdout(&out));

    // The export is the Chrome trace-event object form: parseable JSON
    // with a traceEvents array, which is what Perfetto loads.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
    let events = trace["traceEvents"].as_array().unwrap();
    assert!(!events.is_empty(), "trace captured no events");
    for ev in events {
        assert!(ev["name"].as_str().is_some());
        assert!(ev["ph"].as_str().is_some());
        assert!(ev["ts"].as_f64().is_some());
    }

    // Sampled stage spans from the pipeline's own stages. Every stage
    // runs on the calling thread, so there is no channel to block on
    // and no backpressure span.
    assert!(
        events.iter().any(|e| {
            e["ph"].as_str() == Some("X")
                && e["cat"].as_str() == Some("stage")
                && e["name"].as_str().is_some_and(|n| n.starts_with("stage/"))
        }),
        "no stage span in the trace"
    );
    assert!(
        !events
            .iter()
            .any(|e| e["cat"].as_str() == Some("backpressure")),
        "a backpressure span from a run with nothing to wait on"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn top_renders_a_session_table_from_a_live_server() {
    use std::io::BufRead;

    let dir = temp_dir("top");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_icewafl"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--telemetry-interval-ms",
            "25",
        ])
        .current_dir(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines.next().expect("server announces itself").unwrap();
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };

    // --plain keeps the output appendable (no ANSI clears), --frames
    // bounds the watch so the test terminates.
    let out = icewafl(&["top", &addr, "--frames", "2", "--plain"], &dir);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("icewafl top — frame 1"), "{text}");
    assert!(text.contains("icewafl top — frame 2"), "{text}");
    assert!(
        text.contains("sessions (") && text.contains("frames_out"),
        "{text}"
    );
    // The watcher's own session shows up in the table it renders.
    assert!(text.contains("telemetry"), "{text}");

    let pid = child.id().to_string();
    let killed = std::process::Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server exited non-zero after SIGINT");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_smoke_session_then_sigint_drain() {
    use icewafl::core::plan::LogicalPlan;
    use icewafl::prelude::*;
    use icewafl::serve::{client, ClientConfig, Handshake};
    use std::io::BufRead;

    let dir = temp_dir("serve");

    // Preload one plan: null 20% of `x` values.
    let plan = LogicalPlan::new(
        7,
        vec![vec![PolluterConfig::Standard {
            name: "null".into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Probability { p: 0.2 },
            pattern: None,
        }]],
    );
    std::fs::create_dir_all(dir.join("plans")).unwrap();
    std::fs::write(dir.join("plans/nulls.json"), plan.to_json()).unwrap();

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_icewafl"))
        .args(["serve", "--addr", "127.0.0.1:0", "--plans-dir", "plans"])
        .current_dir(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines.next().expect("server announces itself").unwrap();
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };

    let schema =
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap();
    let tuples: Vec<Tuple> = (0..200)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 1000)),
                Value::Float(i as f64),
            ])
        })
        .collect();
    let handshake = Handshake {
        plan: Some("nulls".into()),
        schema_inline: Some(schema.clone()),
        ..Handshake::default()
    };
    let outcome = client::run_session(&ClientConfig::new(addr, handshake), tuples.clone())
        .expect("session transport");
    assert!(outcome.completed(), "session failed: {:?}", outcome.error);

    // Served output matches the same plan run offline in this process.
    let offline = plan.compile(&schema).unwrap().execute(tuples).unwrap();
    assert_eq!(outcome.tuples, offline.polluted);

    // SIGINT drains: the server exits 0 and says goodbye.
    let pid = child.id().to_string();
    let killed = std::process::Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server exited non-zero after SIGINT");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        rest.iter().any(|l| l.contains("drained")),
        "drain message missing: {rest:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
