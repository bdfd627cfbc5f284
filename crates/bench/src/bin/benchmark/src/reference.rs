//! The inputs of a run and the digests its outputs must reproduce.
//!
//! The reference is an *oracle* run of the same plan — rows, one
//! thread, no transport batching — made during set-up. For the default
//! seed the digests are additionally pinned in `golden.json`, so a
//! change that alters bytes in both the default path and the oracle
//! still fails.

use crate::api::{self, LogicalPlan, PollutionOutput, Schema, Tuple};
use crate::stats::Fnv;
use crate::workloads::{self, Mode, Scale, Workload, DEFAULT_SEED, PLAN_SEED_CYCLE, WORKLOADS};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../golden.json");

pub struct Inputs {
    pub schema: Schema,
    pub data: Vec<Tuple>,
    /// One plan per cycled plan seed (a single one unless the workload
    /// cycles), each with what a run of it must reproduce.
    pub plans: Vec<LogicalPlan>,
    pub expected: Vec<Expected>,
}

/// What the oracle produced for one plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub digest: u64,
    /// Output tuples (temporal polluters drop and duplicate).
    pub tuples: usize,
}

impl Inputs {
    fn digests(&self) -> Vec<u64> {
        self.expected.iter().map(|e| e.digest).collect()
    }
}

/// The digest a workload's outputs are compared by: offline, the whole
/// run (tuples, then the log); served, the tuple stream only — served =
/// offline is the serve contract, and a session sees no log.
pub fn digest_of(w: &Workload, out: &PollutionOutput) -> u64 {
    if w.mode == Mode::Offline {
        api::digest_output(out)
    } else {
        let mut digest = Fnv::default();
        api::digest_tuples(&mut digest, &out.polluted);
        digest.0
    }
}

/// Generates the inputs and runs the oracle once per plan.
fn build(w: &Workload, scale: Scale, seed: u64) -> Result<Inputs, String> {
    let schema = api::schema_of(&w.shape.fields());
    let data = w.shape.generate(seed, scale.tuples(w));
    let cycle = if w.mode == Mode::ServeClosed {
        PLAN_SEED_CYCLE
    } else {
        1
    };
    let json = w.shape.plan_json();
    let plans: Vec<LogicalPlan> = workloads::plan_seeds(seed, cycle)
        .into_iter()
        .map(|s| api::plan_of(&json, s))
        .collect();
    let mut expected = Vec::with_capacity(plans.len());
    for plan in &plans {
        let oracle = api::compile(&api::oracle_of(plan), &schema);
        let out = api::execute(&oracle, data.clone()).map_err(|e| format!("oracle run: {e}"))?;
        expected.push(Expected {
            digest: digest_of(w, &out),
            tuples: out.polluted.len(),
        });
    }
    Ok(Inputs {
        schema,
        data,
        plans,
        expected,
    })
}

/// [`build`], plus the pinned digests where they apply: the default
/// seed at full scale.
pub fn prepare(w: &Workload, scale: Scale, seed: u64) -> Result<Inputs, String> {
    let inputs = build(w, scale, seed)?;
    if seed == DEFAULT_SEED && scale == Scale::Full {
        let pinned = pinned(w.name).ok_or("golden.json has no entry for this workload")?;
        if pinned != inputs.digests() {
            return Err(format!(
                "oracle digests {} differ from golden.json {}",
                hex_list(&inputs.digests()),
                hex_list(&pinned)
            ));
        }
    }
    Ok(inputs)
}

fn hex_list(digests: &[u64]) -> String {
    let items: Vec<String> = digests.iter().map(|d| format!("\"{d:016x}\"")).collect();
    format!("[{}]", items.join(", "))
}

/// The digests `golden.json` pins for `workload` at the default seed.
fn pinned(workload: &str) -> Option<Vec<u64>> {
    let doc: serde_json::Value = serde_json::from_str(GOLDEN).ok()?;
    doc["digests"][workload]
        .as_array()?
        .iter()
        .map(|d| u64::from_str_radix(d.as_str()?, 16).ok())
        .collect()
}

/// `benchmark golden`: recomputes the default-seed digests; with
/// `write` stores them (the only code path that writes the file),
/// otherwise compares them with the embedded file.
pub fn golden(write: bool) -> Result<(), String> {
    let mut body = String::new();
    let mut stale = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let digests = build(w, Scale::Full, DEFAULT_SEED)?.digests();
        if pinned(w.name).as_deref() != Some(&digests[..]) {
            stale.push(w.name);
        }
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(body, "    \"{}\": {}{sep}", w.name, hex_list(&digests));
    }
    let text = format!("{{\n  \"seed\": {DEFAULT_SEED},\n  \"digests\": {{\n{body}  }}\n}}\n");
    if write {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");
        std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}; rebuild to embed it");
        Ok(())
    } else if stale.is_empty() {
        println!("golden.json matches the oracle for seed {DEFAULT_SEED}");
        Ok(())
    } else {
        print!("{text}");
        Err(format!("golden.json is stale for {stale:?}"))
    }
}
