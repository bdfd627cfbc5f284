//! The Icewafl-RS repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark [run]   --workload W [--seed S] [--seconds N] [--quick] [--trace 0|1] [--trace-out F]
//! benchmark layers  --workload W [--seed S] [--seconds N] [--quick] [--trace-out F]
//! benchmark all     [--repeat K] [--layers] [--seed S] [--seconds N] [--quick]
//! benchmark golden  [--write]
//! benchmark serve-child                         (internal: the server process)
//! ```
//!
//! `run` measures the end-to-end metrics of one workload with tracing
//! off; `layers` (= `--trace 1`) produces the per-layer ledger in a
//! separate traced pass. Each prints a listing and, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod api;
mod layers;
mod offline;
mod procfs;
mod reference;
mod repeat;
mod report;
mod serve;
mod stats;
mod workloads;

use std::time::Instant;
use workloads::{Mode, Scale, Workload, DEFAULT_SEED};

/// Set-ups made per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Options {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// How many times set-up runs (the last one is kept).
    pub setups: usize,
    pub trace_out: Option<String>,
}

/// Runs `set_up` `opts.setups` times — tearing the previous one down
/// first — and returns the last result with the median set-up time.
pub fn median_setup<T>(
    opts: &Options,
    set_up: impl Fn(&Options) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..opts.setups.max(1) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(set_up(opts)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up ran");
    Ok((kept.expect("at least one set-up ran"), median))
}

pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read `{v}`")),
        }
    }

    fn scale(&self) -> Scale {
        if self.has("--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Window length: `--seconds`, else 30 s (2 s with `--quick`).
    fn seconds(&self) -> Result<f64, String> {
        let default = match self.scale() {
            Scale::Full => 30.0,
            Scale::Quick => 2.0,
        };
        let seconds = self.parsed("--seconds")?.unwrap_or(default);
        if seconds > 0.0 {
            Ok(seconds)
        } else {
            Err("--seconds must be positive".into())
        }
    }

    fn options(&self) -> Result<Options, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        let workload = workloads::find(name).ok_or_else(|| {
            let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; known: {known:?}")
        })?;
        Ok(Options {
            workload,
            scale: self.scale(),
            seed: self.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
            seconds: self.seconds()?,
            setups: if self.scale() == Scale::Quick {
                1
            } else {
                SETUPS
            },
            trace_out: self.value("--trace-out").map(str::to_owned),
        })
    }
}

/// One workload, one process: measures and prints. `traced` selects the
/// per-layer pass.
fn run_one(opts: &Options, traced: bool) -> Result<(), String> {
    println!(
        "== {} ==",
        report::machine_stamp(&opts.workload, opts.scale, opts.seed, opts.seconds)
    );
    println!("   why: {}", opts.workload.why);
    let outcome = if traced {
        layers::run(opts)?
    } else if opts.workload.mode == Mode::Offline {
        offline::run(opts)?
    } else {
        serve::run(opts)?
    };
    print!("{}", outcome.listing());
    println!("{}", outcome.json_line());
    Ok(())
}

fn dispatch(args: Args) -> Result<(), String> {
    let command = match args.0.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => c.to_owned(),
        // The driver's form: flags only.
        _ => "run".to_owned(),
    };
    match command.as_str() {
        "run" | "layers" => {
            let traced = command == "layers" || args.parsed::<u8>("--trace")? == Some(1);
            run_one(&args.options()?, traced)
        }
        "all" => repeat::all(&args),
        "golden" => reference::golden(args.has("--write")),
        "serve-child" => api::serve_child(),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() {
    if let Err(e) = dispatch(Args(std::env::args().skip(1).collect())) {
        eprintln!("benchmark: {e}");
        std::process::exit(2);
    }
}
