//! Checkpointed-recovery acceptance tests (the ISSUE's contract):
//!
//! 1. a chaos-killed run restored from the latest epoch-aligned
//!    checkpoint produces **byte-identical** output to an undisturbed
//!    run — under both strategy names and across transport batch sizes;
//! 2. the `RunReport` proves the retry *resumed* rather than restarted:
//!    `restored_from_epoch > 0` and `replayed_tuples` strictly less
//!    than the tuples processed before the kill;
//! 3. the on-disk WAL holds parseable, monotonically numbered frames;
//! 4. a retry granted just before the wall-clock deadline must not
//!    start an attempt that outlives it (`FailureKind::Deadline`
//!    attribution is pinned);
//! 5. a job rejected at validation leaves an existing WAL untouched.
//!
//! Everything is seeded; outputs are reproducible bit-for-bit.

use icewafl::prelude::*;
use icewafl::stream::checkpoint::CheckpointStore;
use icewafl::types::{DataType, Error, Timestamp, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Source tuple the deterministic kill switch fires on (1-based).
const KILL_AT: u64 = 120;
/// Tuples per source watermark — the epoch (and checkpoint) grain.
const WM_PERIOD: u64 = 16;

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

fn tuples(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 60_000)),
                Value::Float(i as f64),
            ])
        })
        .collect()
}

/// A checkpointed job: a value polluter plus a delay polluter (so the
/// restore path covers both RNG positions *and* pending temporal
/// buffers), checkpointing every epoch, and — when `kill` is set — a
/// chaos section that panics exactly once at tuple [`KILL_AT`].
fn config(strategy: &str, batch_size: usize, kill: bool) -> JobConfig {
    let chaos = if kill {
        format!(r#""chaos": {{ "kill_at_tuple": {KILL_AT}, "panic_budget": 1 }},"#)
    } else {
        String::new()
    };
    JobConfig::from_json(&format!(
        r#"{{
            "seed": 42,
            "pipelines": [[
                {{
                    "type": "standard",
                    "name": "null-x",
                    "attributes": ["x"],
                    "error": {{ "type": "missing_value" }},
                    "condition": {{ "type": "probability", "p": 0.5 }}
                }},
                {{
                    "type": "delay",
                    "name": "lag",
                    "condition": {{ "type": "probability", "p": 0.2 }},
                    "delay_ms": 120000
                }}
            ]],
            "supervision": {{ "max_retries": 2, "deterministic": true }},
            {chaos}
            "checkpoint": {{ "interval_epochs": 1 }},
            "execution": {{
                "strategy": "{strategy}",
                "watermark_period": {WM_PERIOD},
                "batch_size": {batch_size}
            }}
        }}"#
    ))
    .expect("config parses")
}

fn compiled(cfg: &JobConfig) -> PhysicalPlan {
    cfg.to_plan().compile(&schema()).expect("plan compiles")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icewafl-ckpt-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn recovery_is_byte_identical_across_strategies_and_batch_sizes() {
    // `auto` and `sequential` name the one schedule there is.
    for strategy in ["auto", "sequential"] {
        for batch_size in [1usize, 256] {
            let calm = compiled(&config(strategy, batch_size, false))
                .execute_supervised(tuples(200))
                .expect("undisturbed run succeeds");
            let hurt = compiled(&config(strategy, batch_size, true))
                .execute_supervised(tuples(200))
                .expect("transient kill heals via checkpoint restore");

            // The non-negotiable invariant: recovery changes nothing
            // about *what* was computed.
            assert_eq!(
                hurt.polluted, calm.polluted,
                "polluted stream diverged ({strategy}, batch {batch_size})"
            );
            assert_eq!(
                hurt.log.entries(),
                calm.log.entries(),
                "ground-truth log diverged ({strategy}, batch {batch_size})"
            );

            // And the report proves it *resumed*, not restarted.
            let r = &hurt.report;
            assert_eq!(r.restarts, 1, "exactly one restart ({strategy})");
            assert!(r.checkpoints_taken > 0, "checkpoints committed");
            assert!(
                r.restored_from_epoch > 0,
                "restored from a real checkpoint epoch ({strategy}, batch {batch_size})"
            );
            assert!(
                r.replayed_tuples < KILL_AT,
                "replayed {} tuples — not fewer than the {} processed \
                 before the kill, so this was a restart ({strategy})",
                r.replayed_tuples,
                KILL_AT
            );
            assert_eq!(calm.report.restored_from_epoch, 0);
            assert_eq!(calm.report.replayed_tuples, 0);
        }
    }
}

/// Four round-robin sub-streams, each with a value polluter and a
/// delay polluter named after the sub-stream, so a log entry says which
/// segment it belongs to.
fn fanned_out_config(kill: bool, dir: &std::path::Path) -> JobConfig {
    let mut cfg = config("sequential", 256, kill);
    let template = cfg.pipelines.remove(0);
    cfg.pipelines = (0..4)
        .map(|i| {
            let mut stages = template.clone();
            for stage in &mut stages {
                match stage {
                    PolluterConfig::Standard { name, .. } | PolluterConfig::Delay { name, .. } => {
                        name.push_str(&format!("-{i}"));
                    }
                    _ => unreachable!("the template has a standard and a delay polluter"),
                }
            }
            stages
        })
        .collect();
    cfg.execution.as_mut().unwrap().assigner = AssignerSpec::RoundRobin;
    cfg.checkpoint.as_mut().unwrap().dir = Some(dir.to_string_lossy().into_owned());
    if let Some(chaos) = cfg.chaos.as_mut() {
        // Per injector: sub-stream 0 sees its 30th tuple at source
        // tuple 117, between the barriers at 112 and 128.
        chaos.kill_at_tuple = Some(30);
    }
    cfg
}

#[test]
fn fan_out_log_rewind_is_exact_per_sub_stream() {
    let calm_dir = temp_dir("fan-calm");
    let hurt_dir = temp_dir("fan-hurt");
    let calm = compiled(&fanned_out_config(false, &calm_dir))
        .execute_supervised(tuples(400))
        .expect("undisturbed run succeeds");
    let hurt = compiled(&fanned_out_config(true, &hurt_dir))
        .execute_supervised(tuples(400))
        .expect("transient kill heals via checkpoint restore");
    assert_eq!(hurt.report.restarts, 1);
    assert!(
        hurt.report.restored_from_epoch > 0,
        "resumed, not restarted"
    );
    assert_eq!(hurt.polluted, calm.polluted, "polluted stream diverged");
    assert_eq!(
        hurt.log.entries(),
        calm.log.entries(),
        "ground-truth log diverged"
    );

    // The frame the retry restored from recorded, per sub-stream, the
    // length of that sub-stream's own log segment at the barrier:
    // exactly its entries for tuples the source had emitted by then.
    let frames = CheckpointStore::read_wal(hurt_dir.join("checkpoint.wal")).unwrap();
    let frame = frames
        .iter()
        .find(|f| f.epoch == hurt.report.restored_from_epoch)
        .expect("the restored frame is in the WAL");
    assert_eq!(frame.source_offset, 112, "last barrier before the kill");
    for i in 0..4 {
        let doc: serde_json::Value =
            serde_json::from_str(&frame.states[&format!("substream_{i}")]).unwrap();
        let expected = calm
            .log
            .entries()
            .iter()
            .filter(|e| e.polluter().ends_with(&format!("-{i}")))
            .filter(|e| e.tuple_id() < frame.source_offset)
            .count() as u64;
        assert!(expected > 0, "sub-stream {i} logged before the barrier");
        assert_eq!(
            doc["log_len"].as_u64(),
            Some(expected),
            "sub-stream {i} segment length at the barrier"
        );
    }
    let _ = std::fs::remove_dir_all(&calm_dir);
    let _ = std::fs::remove_dir_all(&hurt_dir);
}

#[test]
fn recovery_report_renders_and_round_trips() {
    let out = compiled(&config("sequential", 1, true))
        .execute_supervised(tuples(200))
        .unwrap();
    let text = out.report.render();
    assert!(text.contains("checkpoints taken:"), "report: {text}");
    assert!(
        text.contains("recovered from checkpoint epoch"),
        "report: {text}"
    );
    // The new fields survive a JSON round trip (the CLI's
    // `--metrics-json` path).
    let json = serde_json::to_string(&out.report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.restored_from_epoch, out.report.restored_from_epoch);
    assert_eq!(back.replayed_tuples, out.report.replayed_tuples);
    assert_eq!(back.checkpoints_taken, out.report.checkpoints_taken);
}

#[test]
fn wal_backed_recovery_leaves_parseable_frames_on_disk() {
    let dir = temp_dir("wal");
    let mut cfg = config("sequential", 1, true);
    cfg.checkpoint.as_mut().unwrap().dir = Some(dir.to_string_lossy().into_owned());

    let hurt = compiled(&cfg).execute_supervised(tuples(200)).unwrap();
    assert!(hurt.report.restored_from_epoch > 0);

    let wal = dir.join("checkpoint.wal");
    assert!(wal.is_file(), "WAL written at {}", wal.display());
    let frames = CheckpointStore::read_wal(&wal).expect("WAL parses");
    assert!(!frames.is_empty(), "at least one committed frame");
    assert!(
        frames.windows(2).all(|w| w[0].epoch < w[1].epoch),
        "epochs strictly increase across frames"
    );
    assert!(
        frames.iter().all(|f| f.source_offset % WM_PERIOD == 0),
        "checkpoints are epoch-aligned: offsets land on watermark
         boundaries"
    );
    // The last complete frame is exactly what recover_latest sees.
    let latest = CheckpointStore::recover_latest(&wal).unwrap().unwrap();
    assert_eq!(latest.epoch, frames.last().unwrap().epoch);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opening the checkpoint store truncates `checkpoint.wal`, so a job
/// rejected at validation must be rejected before it gets that far: an
/// earlier run's WAL survives a job with out-of-range chaos rates.
#[test]
fn rejected_job_leaves_an_existing_wal_untouched() {
    let dir = temp_dir("rejected");
    let mut cfg = config("sequential", 1, false);
    cfg.checkpoint.as_mut().unwrap().dir = Some(dir.to_string_lossy().into_owned());
    compiled(&cfg).execute_supervised(tuples(200)).unwrap();
    let wal = dir.join("checkpoint.wal");
    let before = std::fs::read(&wal).expect("the calm run wrote a WAL");
    assert!(!before.is_empty());

    let job = PollutionJob::new(schema())
        .with_chaos(ChaosConfig {
            panic_rate: 1.5,
            ..ChaosConfig::default()
        })
        .with_checkpointing(Some(dir.clone()), 1);
    let err = job
        .run_supervised(tuples(200), || Ok(vec![PollutionPipeline::empty()]))
        .unwrap_err();
    assert!(matches!(err, Error::Config(_)), "got: {err}");
    let after = std::fs::read(&wal).unwrap();
    assert!(
        after == before,
        "the WAL was rewritten ({} -> {} bytes)",
        before.len(),
        after.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointing_without_faults_changes_nothing() {
    // Checkpointing must be a pure observer on a healthy run: same
    // bytes out as the uncheckpointed plan path.
    let mut plain_cfg = config("sequential", 1, false);
    plain_cfg.checkpoint = None;
    let plain = compiled(&plain_cfg)
        .execute_supervised(tuples(200))
        .unwrap();
    let ckpt = compiled(&config("sequential", 1, false))
        .execute_supervised(tuples(200))
        .unwrap();
    assert_eq!(plain.polluted, ckpt.polluted);
    assert_eq!(plain.log.entries(), ckpt.log.entries());
    assert!(ckpt.report.checkpoints_taken > 0);
    assert_eq!(ckpt.report.restored_from_epoch, 0);
    assert_eq!(ckpt.report.replayed_tuples, 0);
}

/// Satellite: a retry granted just before the wall-clock deadline must
/// not start an attempt that outlives it. Every record carries a 2 ms
/// injected delay, so a complete attempt needs ≥ 2 s of sleeps — far
/// past the 250 ms run deadline. The first attempt dies quickly at the
/// kill switch, the supervisor grants a retry with most of the deadline
/// spent, and the resumed attempt must then be cut *at* the deadline
/// (`FailureKind::Deadline`), which is never retried.
#[test]
fn retry_granted_near_deadline_does_not_outlive_it() {
    let mut cfg = config("sequential", 1, false);
    cfg.chaos = Some(icewafl::core::config::ChaosSectionConfig {
        kill_at_tuple: Some(10),
        panic_budget: Some(1),
        delay_rate: 1.0,
        delay_ms: 2,
        ..Default::default()
    });
    let supervision = cfg.supervision.as_mut().unwrap();
    supervision.max_retries = 5;
    supervision.deadline_ms = Some(250);

    let start = Instant::now();
    let err = compiled(&cfg)
        .execute_supervised(tuples(1_000))
        .unwrap_err();
    let elapsed = start.elapsed();

    match err {
        Error::Pipeline { kind, .. } => assert_eq!(
            kind, "deadline",
            "the resumed attempt is attributed to the deadline, not the chaos fault"
        ),
        other => panic!("expected deadline failure, got: {other}"),
    }
    // A completed attempt would sleep ≥ 2 s on injected delays alone;
    // finishing this fast proves the attempt was cut at the deadline
    // instead of running out the stream.
    assert!(
        elapsed < Duration::from_millis(1_900),
        "attempt outlived the deadline: ran {elapsed:?}"
    );
}
