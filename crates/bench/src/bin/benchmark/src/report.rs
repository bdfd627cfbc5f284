//! What a run reports: the metric tables, the machine stamp, the human
//! listing, and the one-line JSON result the driver reads.

use crate::stats::{highest_supported_percentile, percentile};
use crate::workloads::{Scale, Workload};
use std::fmt::Write as _;
use std::process::Command;

/// A metric's name and unit. The two tables below are the benchmark's
/// vocabulary; `BENCHMARK.json` lists exactly these (a unit test holds
/// the two in step).
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, reported by every workload on every untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    ("tuples_per_s", "tuples/s"),
    ("session_ms_p50", "ms"),
    ("first_output_ms_p50", "ms"),
    ("cpu_s_per_mtuple", "s/Mtuple"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload on every traced run.
/// A layer a workload never enters reports 0: no time was spent there.
pub const PER_LAYER: [MetricDef; 39] = [
    ("core.prepare.stamp_ns_per_tuple", "ns/tuple"),
    ("core.plan.compile_us", "us"),
    ("core.plan.columnar_substreams", "count"),
    ("types.column.from_rows_ns_per_tuple", "ns/tuple"),
    ("types.column.into_rows_ns_per_tuple", "ns/tuple"),
    ("core.columnar.kernel_ns_per_tuple", "ns/tuple"),
    ("core.pipeline.row_ns_per_tuple", "ns/tuple"),
    ("core.log.cost_share", "ratio"),
    ("core.log.entries_per_tuple", "1/tuple"),
    ("core.polluter.fires_per_tuple", "1/tuple"),
    ("core.rng.draws_per_tuple", "1/tuple"),
    ("core.runner.scaling_ratio", "ratio"),
    ("core.runner.rss_bytes_per_tuple", "B/tuple"),
    ("core.runner.rep_ms_p90", "ms"),
    ("core.runner.execute_ns_per_tuple", "ns/tuple"),
    ("stream.stage.busy_ns_per_tuple", "ns/tuple"),
    ("stream.channel.flush_ns_per_tuple", "ns/tuple"),
    ("stream.backpressure.wait_ns_per_tuple", "ns/tuple"),
    ("stream.sort.release_ns_per_tuple", "ns/tuple"),
    ("core.runner.unattributed_share", "ratio"),
    ("serve.protocol.upload_decode_ns_per_tuple", "ns/tuple"),
    ("serve.protocol.coerce_ns_per_tuple", "ns/tuple"),
    ("serve.protocol.output_encode_ns_per_tuple", "ns/tuple"),
    ("serve.protocol.bytes_in_per_tuple", "B/tuple"),
    ("serve.protocol.bytes_out_per_tuple", "B/tuple"),
    ("stream.net.frame_split_ns_per_tuple", "ns/tuple"),
    ("serve.session.handshake_ms_p50", "ms"),
    ("serve.session.upload_ms_p50", "ms"),
    ("serve.session.execute_gap_ms_p50", "ms"),
    ("serve.session.drain_ms_p50", "ms"),
    ("serve.session_ms_p99", "ms"),
    ("serve.first_output_ms_p99", "ms"),
    ("serve.gen.late_ms_p99", "ms"),
    ("serve.offline_ratio", "ratio"),
    ("serve.reactor.residual_ns_per_tuple", "ns/tuple"),
    ("serve.server.rss_mb_idle", "MiB"),
    ("serve.server.cpu_ns_per_tuple", "ns/tuple"),
    ("trace.overhead_share", "ratio"),
    ("trace.dropped_events", "count"),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count and tail, or how the figure was derived.
    pub detail: String,
}

/// Collects metric values against one of the tables above, so a typo in
/// a name fails at once instead of silently dropping a figure.
pub struct Ledger {
    table: &'static [MetricDef],
    values: Vec<Metric>,
}

impl Ledger {
    pub fn new(table: &'static [MetricDef]) -> Self {
        Ledger {
            table,
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a metric of this table"));
        self.values.retain(|m| m.name != name);
        self.values.push(Metric {
            name,
            unit,
            value,
            detail: detail.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every metric of the table in table order; a layer the workload
    /// never entered reads 0.
    pub fn finish(self) -> Vec<Metric> {
        self.table
            .iter()
            .map(|&(name, unit)| {
                self.values
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or(Metric {
                        name,
                        unit,
                        value: 0.0,
                        detail: "layer not entered by this workload".into(),
                    })
            })
            .collect()
    }
}

/// The result of one run of one workload.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output matched the oracle (and `golden.json` where pinned).
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Free-form findings worth a line in the listing (first failure, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The driver's contract: the last stdout line of a run. A run in
    /// which nothing was attempted, or a figure came out non-finite, is
    /// not a correct one, whatever the digests said.
    pub fn json_line(&self) -> String {
        let measured = self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct && measured,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest text that parses back to the
            // same f64: every measured digit. JSON has no `NaN`.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                out,
                r#"{sep}"{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    pub fn listing(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<44} {:>16.4} {:<9} {}",
                m.name, m.value, m.unit, m.detail
            );
        }
        let _ = writeln!(
            out,
            "  ops_attempted = {}  ops_failed = {}  correct = {}",
            self.attempted, self.failed, self.correct
        );
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }
}

/// Summary line for a latency-like series: sample count and the highest
/// percentile the count supports.
pub fn series_detail(values: &[f64], unit: &str) -> String {
    match highest_supported_percentile(values.len()) {
        Some(p) => format!(
            "n={} p{p}={:.3} {unit}",
            values.len(),
            percentile(values, p).unwrap_or(0.0)
        ),
        None => format!("n={} (too few for a tail percentile)", values.len()),
    }
}

/// Connections the load generator opens: half the cores, 1 to 4.
pub fn connections() -> usize {
    (cores() / 2).clamp(1, 4)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken; printed with every result.
pub fn machine_stamp(w: &Workload, scale: Scale, seed: u64, seconds: f64) -> String {
    format!(
        "workload={} scale={} seed={seed} tuples={} window_s={seconds} nproc={} conns={} rustc=\"{}\" git={}",
        w.name,
        scale.label(),
        scale.tuples(w),
        cores(),
        connections(),
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_fills_layers_not_entered_with_zero() {
        let mut ledger = Ledger::new(&END_TO_END);
        ledger.set("setup_s", 1.5, "");
        ledger.set("setup_s", 2.5, "median of 3");
        assert_eq!(ledger.get("setup_s"), Some(2.5));
        let metrics = ledger.finish();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[5].value, 2.5);
        assert_eq!(metrics[0].value, 0.0);
    }

    #[test]
    #[should_panic(expected = "not a metric")]
    fn ledger_rejects_unknown_names() {
        Ledger::new(&END_TO_END).set("tuples_per_sec", 1.0, "");
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys_and_all_digits() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            correct: true,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.812_734_561_2,
                detail: String::new(),
            }],
            notes: vec![],
        };
        assert_eq!(
            outcome.json_line(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.8127345612, "unit": "s"}}}"#
        );
    }

    #[test]
    fn json_line_is_not_correct_without_an_op_or_with_a_non_finite_figure() {
        let metric = |value| Metric {
            name: "setup_s",
            unit: "s",
            value,
            detail: String::new(),
        };
        let mut outcome = Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: vec![metric(1.0)],
            notes: vec![],
        };
        assert!(outcome
            .json_line()
            .starts_with(r#"{"correct": false, "attempted": 0,"#));
        outcome.attempted = 2;
        outcome.metrics = vec![metric(f64::NAN)];
        assert_eq!(
            outcome.json_line(),
            r#"{"correct": false, "attempted": 2, "failed": 0, "metrics": {"setup_s": {"value": null, "unit": "s"}}}"#
        );
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics and workloads this binary reports.
    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // built outside the repository
        };
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_owned(),
                        m["unit"].as_str().unwrap_or("").to_owned(),
                    )
                })
                .collect()
        };
        let own = |table: &[MetricDef]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let own_workloads: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own_workloads);
    }
}
