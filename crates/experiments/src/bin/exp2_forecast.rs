//! **Figures 6 & 7** — robustness of forecasting methods (§3.2).
//!
//! Forecasts the NO2 concentration of one region 12 hours ahead with
//! ARIMA, Holt-Winters, and ARIMAX (all online), over three versions of
//! the evaluation year (Table 2):
//!
//! * `clean` — `D_eval` unpolluted (baseline);
//! * `noise` — `D_noise`, temporally increasing multiplicative uniform
//!   noise per equation (3) → **Figure 6**;
//! * `scale` — `D_scale`, ×0.125 scale bursts with ramping activation
//!   per equation (4) → **Figure 7**.
//!
//! Pollution is non-deterministic, so each scenario is repeated
//! (default 10×) with fresh seeds and mean MAEs are reported, bucketed
//! into ~3-week spans like the paper's x-axis.
//!
//! Usage: `exp2_forecast [noise|scale|clean|all] [--region R] [--reps N]
//!         [--seed S] [--pi-max F] [--full] [--grid]`

use icewafl_core::prelude::*;
use icewafl_experiments::{arg_num, arg_present, arg_value, forecast_harness as fh, stats};
use icewafl_forecast::prelude::*;
use icewafl_types::{StampedTuple, Timestamp};

fn main() {
    let scenario = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let region = arg_value("--region").unwrap_or_else(|| "Wanshouxigong".into());
    let reps: u64 = arg_num("--reps", 10);
    let base_seed: u64 = arg_num("--seed", 1);
    let pi_max: f64 = arg_num("--pi-max", 1.0);

    println!("=== Experiment 2: forecasting robustness, region {region} ===");
    let (schema, tuples) = fh::load_region(&region);
    let splits = fh::splits(tuples.len());
    println!(
        "splits (Table 2): train 0..{}, valid ..{}, eval {}..{}",
        splits.train_end, splits.valid_end, splits.eval_start, splits.n
    );

    // Prepare the clean stream once; slices by Table 2.
    let clean =
        pollute_stream(&schema, tuples, PollutionPipeline::empty()).expect("identity pollution");
    let train = &clean.polluted[..splits.train_end];
    let eval_tuples: Vec<icewafl_types::Tuple> = clean.polluted[splits.eval_start..]
        .iter()
        .map(|t| t.tuple.clone())
        .collect();
    let eval_start_ts = clean.polluted[splits.eval_start].tau;
    let eval_end_ts = clean.polluted[splits.n - 1].tau;

    if arg_present("--grid") {
        grid_search_report(&schema, train);
    }

    let scenarios: Vec<&str> = match scenario.as_str() {
        "all" => vec!["clean", "noise", "scale"],
        s => vec![s],
    };
    for s in scenarios {
        run_scenario(
            s,
            &schema,
            train,
            &eval_tuples,
            eval_start_ts,
            eval_end_ts,
            reps,
            base_seed,
            pi_max,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    scenario: &str,
    schema: &icewafl_types::Schema,
    train: &[StampedTuple],
    eval_tuples: &[icewafl_types::Tuple],
    eval_start: Timestamp,
    eval_end: Timestamp,
    reps: u64,
    base_seed: u64,
    pi_max: f64,
) {
    let figure = match scenario {
        "noise" => " (Figure 6)",
        "scale" => " (Figure 7)",
        _ => " (baseline)",
    };
    let reps = if scenario == "clean" { 1 } else { reps };
    println!("\n--- scenario `{scenario}`{figure}, reps = {reps} ---");

    // Accumulate MAE per window per model across repetitions.
    let mut sums: Vec<Vec<f64>> = Vec::new();
    let mut starts: Vec<Timestamp> = Vec::new();
    for rep in 0..reps {
        let seed = base_seed + rep;
        let eval_rows: Vec<StampedTuple> = match scenario {
            "clean" => {
                pollute_stream(schema, eval_tuples.to_vec(), PollutionPipeline::empty())
                    .expect("identity pollution")
                    .polluted
            }
            "noise" => {
                let p = fh::noise_config(seed, eval_start, eval_end, pi_max)
                    .build_pipelines(schema)
                    .expect("config builds")
                    .pop()
                    .unwrap();
                pollute_stream(schema, eval_tuples.to_vec(), p)
                    .expect("pollution runs")
                    .polluted
            }
            "scale" => {
                let p = fh::scale_config(seed, eval_start, eval_end)
                    .build_pipelines(schema)
                    .expect("config builds")
                    .pop()
                    .unwrap();
                pollute_stream(schema, eval_tuples.to_vec(), p)
                    .expect("pollution runs")
                    .polluted
            }
            other => {
                eprintln!("unknown scenario `{other}` (use clean|noise|scale|all)");
                std::process::exit(2);
            }
        };
        let mut models = fh::make_models();
        let windows = fh::run_protocol(schema, train, &eval_rows, &mut models);
        if sums.is_empty() {
            sums = windows.iter().map(|w| vec![0.0; w.mae.len()]).collect();
            starts = windows.iter().map(|w| w.start).collect();
        }
        for (acc, w) in sums.iter_mut().zip(&windows) {
            for (a, m) in acc.iter_mut().zip(&w.mae) {
                *a += m;
            }
        }
    }
    for acc in &mut sums {
        for a in acc.iter_mut() {
            *a /= reps as f64;
        }
    }

    let names = ["arima", "holt_winters", "arimax"];
    if arg_present("--full") {
        let rows: Vec<Vec<String>> = starts
            .iter()
            .zip(&sums)
            .map(|(ts, mae)| {
                let dt = ts.to_datetime();
                let mut row = vec![format!("{:02}-{:02}", dt.month, dt.day)];
                row.extend(mae.iter().map(|m| format!("{m:.2}")));
                row
            })
            .collect();
        stats::print_table(&["window", names[0], names[1], names[2]], &rows);
    } else {
        // Bucket into ~3-week spans (42 windows of 12 h), like the
        // paper's x-axis ticks.
        const BUCKET: usize = 42;
        let rows: Vec<Vec<String>> = sums
            .chunks(BUCKET)
            .zip(starts.chunks(BUCKET))
            .map(|(chunk, ts)| {
                let dt = ts[0].to_datetime();
                let mut row = vec![format!("{:02}-{:02}", dt.month, dt.day)];
                for k in 0..names.len() {
                    let vals: Vec<f64> = chunk.iter().map(|m| m[k]).collect();
                    row.push(format!("{:.2}", stats::mean(&vals)));
                }
                row
            })
            .collect();
        stats::print_table(&["window start", names[0], names[1], names[2]], &rows);
    }

    // Trend summary: first vs. last quarter of the evaluation year.
    let quarter = sums.len() / 4;
    println!("\nmean MAE, first vs. last quarter of the evaluation year:");
    for (k, name) in names.iter().enumerate() {
        let early: Vec<f64> = sums[..quarter].iter().map(|m| m[k]).collect();
        let late: Vec<f64> = sums[sums.len() - quarter..].iter().map(|m| m[k]).collect();
        println!(
            "  {name:<13} {:.2} -> {:.2}  ({:+.1} %)",
            stats::mean(&early),
            stats::mean(&late),
            100.0 * (stats::mean(&late) / stats::mean(&early) - 1.0),
        );
    }
}

/// Reruns the §3.2.2 hyper-parameter grid search on the training year.
fn grid_search_report(schema: &icewafl_types::Schema, train: &[StampedTuple]) {
    println!("\n--- hyper-parameter grid search (5-fold time-series CV) ---");
    let mut last = 0.0;
    let series: Vec<f64> = train
        .iter()
        .map(|t| {
            let (y, _) = fh::target_and_features(schema, t);
            last = y.unwrap_or(last);
            last
        })
        .collect();
    // A compact but real grid; extend freely.
    let mut candidates: Vec<icewafl_forecast::cv::NamedFactory> = Vec::new();
    for p in [12usize, 24, 48] {
        for q in [0usize, 2] {
            candidates.push((
                format!("arima(p={p},d=0,q={q})"),
                Box::new(move || Box::new(Snarimax::arima(p, 0, q, 0.05)) as _),
            ));
        }
    }
    for alpha in [0.15, 0.25, 0.4] {
        for gamma in [0.1, 0.25] {
            candidates.push((
                format!("holt_winters(a={alpha},g={gamma})"),
                Box::new(move || Box::new(HoltWinters::new(alpha, 0.02, gamma, 24)) as _),
            ));
        }
    }
    let ranked = grid_search(candidates, &series, None, 5);
    let rows: Vec<Vec<String>> = ranked
        .iter()
        .map(|(n, s)| vec![n.clone(), format!("{s:.3}")])
        .collect();
    stats::print_table(&["candidate", "CV MAE"], &rows);
}
