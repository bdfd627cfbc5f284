//! The offline workloads: `PhysicalPlan::execute` in this process, rep
//! after rep, every output verified against the oracle.

use crate::api::{self, PhysicalPlan};
use crate::procfs::{own_cpu_seconds, reset_own_peak_rss, Pid};
use crate::reference::{self, Inputs};
use crate::report::{series_detail, Ledger, Outcome, END_TO_END};
use crate::stats::median;
use crate::workloads::Workload;
use crate::{median_setup, Options};
use std::time::Instant;

/// Fewest timed reps, however short the window.
const MIN_REPS: usize = 3;

pub struct Ready {
    pub inputs: Inputs,
    pub physical: PhysicalPlan,
    workload: Workload,
}

/// One rep of the default plan: wall and CPU of `execute` alone. The
/// input clone, the digest check and the output drop sit outside both.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Ready {
    /// Data generation, oracle run, plan compile and one verified
    /// warm-up rep.
    pub fn set_up(opts: &Options) -> Result<Ready, String> {
        let inputs = reference::prepare(&opts.workload, opts.scale, opts.seed)?;
        let physical = api::compile(&inputs.plans[0], &inputs.schema);
        let ready = Ready {
            inputs,
            physical,
            workload: opts.workload,
        };
        ready.rep()?;
        Ok(ready)
    }

    pub fn tuples(&self) -> usize {
        self.inputs.data.len()
    }

    pub fn rep(&self) -> Result<Rep, String> {
        let input = self.inputs.data.clone();
        let cpu_before = own_cpu_seconds();
        let start = Instant::now();
        let out = api::execute(&self.physical, input);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = own_cpu_seconds() - cpu_before;
        let digest = reference::digest_of(&self.workload, &out?);
        let expected = self.inputs.expected[0].digest;
        if digest != expected {
            return Err(format!(
                "output digest {digest:016x} differs from the oracle's {expected:016x}"
            ));
        }
        Ok(Rep { wall_s, cpu_s })
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (ready, setup_s) = median_setup(opts, Ready::set_up)?;
    // Set-up generated the data and ran the row/sequential oracle, whose
    // peak is not the default path's: start the high-water mark afresh.
    let peak_is_of_window = reset_own_peak_rss();
    let held_mib = Pid::Own.rss_mib().unwrap_or(0.0);

    let n = ready.tuples() as f64;
    let mut walls = Vec::new();
    let mut cpu_s = 0.0;
    let mut failed = 0u64;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < opts.seconds
        || walls.len() + (failed as usize) < MIN_REPS
    {
        match ready.rep() {
            Ok(rep) => {
                walls.push(rep.wall_s);
                cpu_s += rep.cpu_s;
            }
            Err(e) => {
                failed += 1;
                if notes.len() < 3 {
                    notes.push(e);
                }
            }
        }
    }

    let mut ledger = Ledger::new(&END_TO_END);
    if let Some(wall) = median(&walls) {
        let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let detail = series_detail(&walls_ms, "ms");
        ledger.set(
            "tuples_per_s",
            n / wall,
            format!("n / median rep wall; {detail}"),
        );
        // A batch job hands over its whole result at once: input to
        // complete result and input to first output are the rep wall.
        ledger.set("session_ms_p50", wall * 1e3, detail.clone());
        ledger.set("first_output_ms_p50", wall * 1e3, detail);
        ledger.set(
            "cpu_s_per_mtuple",
            cpu_s / (walls.len() as f64 * n / 1e6),
            "user+sys of this process inside execute",
        );
    }
    ledger.set(
        "peak_rss_mb",
        Pid::Own.peak_rss_mib().unwrap_or(0.0),
        if peak_is_of_window {
            format!(
                "VmHWM of this process, reset after set-up (which left {held_mib:.1} MiB resident)"
            )
        } else {
            "VmHWM of this process, set-up included (no /proc/self/clear_refs)".to_owned()
        },
    );
    ledger.set("setup_s", setup_s, "median of the set-ups made");
    Ok(Outcome {
        attempted: walls.len() as u64 + failed,
        failed,
        correct: failed == 0,
        metrics: ledger.finish(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, Scale};

    /// A `--quick` end-to-end run of `offline_value`: every rep of the
    /// default plan reproduces the oracle's digest.
    #[test]
    fn quick_offline_value_reproduces_the_oracle() {
        let opts = Options {
            workload: find("offline_value").expect("a workload"),
            scale: Scale::Quick,
            seed: 11,
            seconds: 0.2,
            setups: 1,
            trace_out: None,
        };
        let ready = Ready::set_up(&opts).expect("set-up verifies the warm-up rep");
        let out = api::execute(&ready.physical, ready.inputs.data.clone()).expect("runs");
        assert_eq!(out.polluted.len(), ready.inputs.expected[0].tuples);
        assert_eq!(
            reference::digest_of(&opts.workload, &out),
            ready.inputs.expected[0].digest
        );
        let outcome = run(&opts).expect("runs");
        assert!(outcome.correct && outcome.failed == 0 && outcome.attempted >= 3);
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{outcome:?}");
    }
}
