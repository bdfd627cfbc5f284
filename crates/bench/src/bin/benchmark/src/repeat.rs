//! `benchmark all [--repeat K]`: every workload, each in a process of
//! its own (so peak memory and CPU belong to one workload), K times
//! over with the workload order alternating, and a spread table at the
//! end — the tool for setting and re-checking the bounds in
//! `BENCHMARK.json`.

use crate::report::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, relative_spread};
use crate::workloads::{DEFAULT_SEED, WORKLOADS};
use crate::Args;
use std::process::{Command, Stdio};

/// Runs `benchmark <command> --workload ...` as a child, passing its
/// listing through, and returns the metric values of its result line.
fn run_child(
    command: &str,
    workload: &str,
    seed: u64,
    args: &Args,
    table: &[MetricDef],
) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe);
    child.args([command, "--workload", workload, "--seed", &seed.to_string()]);
    if let Some(seconds) = args.value("--seconds") {
        child.args(["--seconds", seconds]);
    }
    if args.has("--quick") {
        child.arg("--quick");
    }
    // `output` waits for the child, so none outlives this call.
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {command} {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{command} {workload} exited with {}",
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    let doc: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if doc["correct"].as_bool() != Some(true) {
        return Err(format!("{command} {workload}: outputs were not correct"));
    }
    table
        .iter()
        .map(|(name, _)| {
            doc["metrics"][*name]["value"]
                .as_f64()
                .ok_or_else(|| format!("{workload}: result line lacks `{name}`"))
        })
        .collect()
}

fn spread_table(title: &str, table: &[MetricDef], runs: &[Vec<Vec<f64>>]) {
    println!(
        "\n== {title}: median [q1, q3] iqr/median (max-min)/median over {} runs ==",
        runs.len()
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        println!("{}", workload.name);
        for (m, (name, unit)) in table.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|run| run[w][m]).collect();
            match quartiles(&values) {
                Some([q1, q2, q3]) => {
                    let range = values.iter().copied().fold(f64::MIN, f64::max)
                        - values.iter().copied().fold(f64::MAX, f64::min);
                    println!(
                        "  {name:<44} {q2:>16.4} [{q1:.4}, {q3:.4}] {unit:<9} {:>6.2}% {:>6.2}%",
                        relative_spread(&values).unwrap_or(0.0) * 100.0,
                        if q2 != 0.0 {
                            range / q2.abs() * 100.0
                        } else {
                            0.0
                        },
                    );
                }
                None => println!("  {name:<44} {:>16.4} {unit}", values[0]),
            }
        }
    }
}

pub fn all(args: &Args) -> Result<(), String> {
    let repeat: usize = args.parsed("--repeat")?.unwrap_or(1).max(1);
    let seed: u64 = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let with_layers = args.has("--layers");
    // runs[k][w] = metric values of workload w in repeat k.
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for k in 0..repeat {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if k % 2 == 1 {
            order.reverse();
        }
        let mut e2e = vec![Vec::new(); WORKLOADS.len()];
        let mut layer = vec![Vec::new(); WORKLOADS.len()];
        for w in order {
            // Another seed each repeat, as the acceptance check does.
            let seed = seed + k as u64;
            e2e[w] = run_child("run", WORKLOADS[w].name, seed, args, &END_TO_END)?;
            if with_layers {
                layer[w] = run_child("layers", WORKLOADS[w].name, seed, args, &PER_LAYER)?;
            }
        }
        end_to_end.push(e2e);
        per_layer.push(layer);
    }
    spread_table("end to end", &END_TO_END, &end_to_end);
    if with_layers {
        spread_table("per layer", &PER_LAYER, &per_layer);
    }
    Ok(())
}
