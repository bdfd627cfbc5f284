//! End-of-run observability report.
//!
//! [`RunReport`] bundles everything a run measured: stream-level totals,
//! the per-polluter statistics collected via
//! [`Polluter::collect_stats`](crate::polluter::Polluter::collect_stats),
//! and the raw [`MetricsSnapshot`] of the per-stage metrics
//! registry. It serializes to JSON (the CLI's `--metrics-json` output)
//! and renders as a human-readable text block.

use crate::stats::PolluterStatsSnapshot;
use icewafl_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregated observability data for one pollution run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Clean tuples fed into the job.
    pub tuples_in: u64,
    /// Polluted tuples that came out of the job.
    pub tuples_out: u64,
    /// Total ground-truth log entries recorded.
    pub log_entries: u64,
    /// Whether ground-truth logging was enabled for the run.
    pub logging_enabled: bool,
    /// Always `true`: metrics are always collected. The key stays so
    /// serialized reports keep their shape.
    pub metrics_compiled_in: bool,
    /// Supervised restarts consumed before the run succeeded (0 for
    /// unsupervised runs and runs that succeed on the first attempt).
    #[serde(default)]
    pub restarts: u64,
    /// The schedule the run took: `pipelined` when its input was fed on
    /// two threads, `sequential` otherwise (`None` in reports from
    /// before the plan layer existed).
    #[serde(default)]
    pub strategy: Option<String>,
    /// Reconfiguration epochs applied mid-run (0 when no plan delta was
    /// scheduled or reached).
    #[serde(default)]
    pub epochs_applied: u64,
    /// Epoch-aligned checkpoints committed during the run (0 when
    /// checkpointing was disabled).
    #[serde(default)]
    pub checkpoints_taken: u64,
    /// The epoch of the checkpoint the last supervised retry restored
    /// from (0 = the run never restored — it either never failed or
    /// fell back to a full restart).
    #[serde(default)]
    pub restored_from_epoch: u64,
    /// Source tuples re-processed across all recoveries: what each
    /// failed attempt had consumed beyond the restore point (the whole
    /// attempt, for a pre-checkpoint failure).
    #[serde(default)]
    pub replayed_tuples: u64,
    /// Wall-clock milliseconds spent restoring state across all
    /// recoveries (sink/log truncation, pipeline rebuild, snapshot
    /// restore) — excludes supervisor backoff sleeps.
    #[serde(default)]
    pub recovery_ms: u64,
    /// Per-polluter statistics, in pipeline order.
    pub polluters: Vec<PolluterStatsSnapshot>,
    /// Per-stage stream metrics.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Looks up a polluter's stats by name.
    pub fn polluter(&self, name: &str) -> Option<&PolluterStatsSnapshot> {
        self.polluters.iter().find(|p| p.name == name)
    }

    /// Total fires across all polluters.
    pub fn total_fires(&self) -> u64 {
        self.polluters.iter().map(|p| p.fires).sum()
    }

    /// Renders the report as a human-readable text block (what the CLI
    /// prints with `--report`).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("== run report ==\n");
        s.push_str(&format!(
            "tuples: {} in -> {} out; log entries: {}{}\n",
            self.tuples_in,
            self.tuples_out,
            self.log_entries,
            if self.logging_enabled {
                ""
            } else {
                " (logging disabled)"
            },
        ));
        if let Some(strategy) = &self.strategy {
            s.push_str(&format!("strategy: {strategy}\n"));
        }
        if self.restarts > 0 {
            s.push_str(&format!("supervised restarts: {}\n", self.restarts));
        }
        if self.epochs_applied > 0 {
            s.push_str(&format!(
                "reconfiguration epochs applied: {}\n",
                self.epochs_applied
            ));
        }
        if self.checkpoints_taken > 0 {
            s.push_str(&format!("checkpoints taken: {}\n", self.checkpoints_taken));
        }
        if self.restored_from_epoch > 0 {
            s.push_str(&format!(
                "recovered from checkpoint epoch {} (replayed {} tuples, {} ms restoring)\n",
                self.restored_from_epoch, self.replayed_tuples, self.recovery_ms
            ));
        }
        if !self.polluters.is_empty() {
            s.push_str("polluters:\n");
            for p in &self.polluters {
                s.push_str(&format!(
                    "  {:<24} fires={:<8} skips={:<8} cond_evals={:<8} rng_draws={:<8} buffer_max={:<6} log_entries={}\n",
                    p.name, p.fires, p.skips, p.condition_evals, p.rng_draws, p.buffer_max, p.log_entries,
                ));
            }
        }
        if !self.metrics.is_empty() {
            s.push_str("stream stages (sink-first numbering):\n");
            for (name, v) in &self.metrics.counters {
                s.push_str(&format!("  {name} = {v}\n"));
            }
            for (name, v) in &self.metrics.gauges {
                s.push_str(&format!("  {name} = {v} (gauge)\n"));
            }
            for (name, h) in &self.metrics.histograms {
                s.push_str(&format!(
                    "  {name}: count={} sum={} mean={:.0} p50={:.0} p95={:.0} p99={:.0}\n",
                    h.count,
                    h.sum,
                    if h.count == 0 {
                        0.0
                    } else {
                        h.sum as f64 / h.count as f64
                    },
                    h.p50(),
                    h.p95(),
                    h.p99(),
                ));
            }
        }
        s
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            tuples_in: 10,
            tuples_out: 9,
            log_entries: 4,
            logging_enabled: true,
            metrics_compiled_in: true,
            restarts: 0,
            strategy: Some("sequential".into()),
            epochs_applied: 0,
            checkpoints_taken: 0,
            restored_from_epoch: 0,
            replayed_tuples: 0,
            recovery_ms: 0,
            polluters: vec![PolluterStatsSnapshot {
                name: "missing".into(),
                fires: 4,
                skips: 6,
                condition_evals: 10,
                rng_draws: 10,
                buffer_max: 0,
                log_entries: 4,
            }],
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn json_round_trip() {
        let report = sample();
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tuples_in, 10);
        assert_eq!(back.polluters, report.polluters);
        assert_eq!(back.total_fires(), 4);
    }

    #[test]
    fn render_mentions_polluters_and_totals() {
        let text = sample().render();
        assert!(text.contains("10 in -> 9 out"));
        assert!(text.contains("missing"));
        assert!(text.contains("fires=4"));
        assert!(!text.contains("restarts"), "zero restarts stay silent");
    }

    #[test]
    fn render_includes_latency_quantiles() {
        let mut report = sample();
        report.metrics.histograms.insert(
            "stage/00_map/latency_ns".into(),
            icewafl_obs::HistogramSnapshot {
                bounds: vec![100, 200],
                counts: vec![50, 50, 0],
                count: 100,
                sum: 15000,
            },
        );
        let text = report.render();
        assert!(text.contains("p50="), "quantiles rendered: {text}");
        assert!(text.contains("p95="));
        assert!(text.contains("p99="));
    }

    #[test]
    fn render_reports_restarts_and_old_json_defaults_to_zero() {
        let mut report = sample();
        report.restarts = 2;
        assert!(report.render().contains("supervised restarts: 2"));
        // Reports serialized before the field existed still deserialize.
        let old = r#"{"tuples_in":1,"tuples_out":1,"log_entries":0,
            "logging_enabled":true,"metrics_compiled_in":false,
            "polluters":[],"metrics":{"counters":{},"gauges":{},"histograms":{}}}"#;
        let back: RunReport = serde_json::from_str(old).unwrap();
        assert_eq!(back.restarts, 0);
    }
}
