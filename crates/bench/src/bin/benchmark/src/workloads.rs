//! The four workloads: what each one feeds the program — schema, data,
//! polluters, logging, wire format — and never *how* the program runs
//! it. No strategy, representation, batch size or worker count is set
//! anywhere in this file, so a change to what the plan defaults pick is
//! measured, not bypassed.
//!
//! Data comes from the generators below (seeded by `--seed` alone), not
//! from `icewafl-data`: a generator change elsewhere in the repository
//! cannot move a workload.

use crate::api::{DataType, Timestamp, Tuple, Value};
use crate::stats::SplitMix;

/// Seed used when `--seed` is absent; the only seed `golden.json` pins.
pub const DEFAULT_SEED: u64 = 420_768;

/// Size of the paper's evaluation dataset (Beijing multi-site air
/// quality, 12 stations × 35 064 hourly readings).
pub const PAPER_TUPLES: usize = 420_768;

/// Sessions per second the open-loop workload schedules.
pub const OPEN_LOOP_RATE: f64 = 32.0;

/// How many plan seeds `serve_binary_long` cycles through, session by
/// session, so consecutive sessions do not replay one RNG stream.
pub const PLAN_SEED_CYCLE: usize = 4;

/// Tuple shape + polluter set. Two shapes, each used offline and served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 14 attributes, value polluters with column kernels, logging off.
    AirQualityValue,
    /// 4 attributes, temporal + value polluters, ground-truth log on.
    WearableLogged,
}

/// How load reaches the program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// `PhysicalPlan::execute` in this process, rep after rep.
    Offline,
    /// Closed loop: each connection starts its next session when the
    /// previous one has completed.
    ServeClosed,
    /// Open loop: a session is due every `1 / OPEN_LOOP_RATE` seconds
    /// whether or not earlier ones have completed.
    ServeOpen,
}

/// Wire format of a served workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Binary,
    Ndjson,
}

impl Format {
    pub fn as_str(self) -> &'static str {
        match self {
            Format::Binary => "binary",
            Format::Ndjson => "ndjson",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub mode: Mode,
    /// Wire format: the negotiated one when served, the one the codec
    /// layers are timed with when offline.
    pub format: Format,
    /// Tuples per rep (offline) or per session (served), full size.
    pub tuples: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "offline_value",
        why: "execute, 420768 wide tuples, value polluters with column kernels, log off: kernels and pivots do the work",
        shape: Shape::AirQualityValue,
        mode: Mode::Offline,
        format: Format::Binary,
        tuples: PAPER_TUPLES,
    },
    Workload {
        name: "offline_logged",
        why: "execute, 420768 narrow tuples, temporal polluters, log on: row path, channels, sorter and log do the work",
        shape: Shape::WearableLogged,
        mode: Mode::Offline,
        format: Format::Ndjson,
        tuples: PAPER_TUPLES,
    },
    Workload {
        name: "serve_binary_long",
        why: "closed loop of 100000-tuple binary sessions on the offline_value plan: wire codec, pivots and reactor dominate",
        shape: Shape::AirQualityValue,
        mode: Mode::ServeClosed,
        format: Format::Binary,
        tuples: 100_000,
    },
    Workload {
        name: "serve_ndjson_short",
        why: "open loop, 32 sessions/s of 2000 NDJSON tuples on the offline_logged plan: text codec, handshake, plan compile",
        shape: Shape::WearableLogged,
        mode: Mode::ServeOpen,
        format: Format::Ndjson,
        tuples: 2_000,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Scale of a run: `--quick` divides every size by 20 for a smoke test
/// whose numbers are never comparable to a full run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }

    pub fn tuples(self, w: &Workload) -> usize {
        match self {
            Scale::Full => w.tuples,
            Scale::Quick => w.tuples / 20,
        }
    }
}

/// 2013-03-01 00:00:00 UTC, where the Beijing series starts.
const T0_MS: i64 = 1_362_096_000_000;
/// Twelve stations report every hour, interleaved five minutes apart.
const AIR_STEP_MS: i64 = 300_000;
/// One wearable reading a minute.
const WEARABLE_STEP_MS: i64 = 60_000;

impl Shape {
    pub fn fields(self) -> Vec<(&'static str, DataType)> {
        match self {
            Shape::AirQualityValue => {
                let mut f = vec![
                    ("time", DataType::Timestamp),
                    ("station", DataType::Str),
                    ("wd", DataType::Str),
                ];
                f.extend(AIR_FLOATS.iter().map(|c| (c.name, DataType::Float)));
                f
            }
            Shape::WearableLogged => vec![
                ("Time", DataType::Timestamp),
                ("BPM", DataType::Int),
                ("Distance", DataType::Float),
                ("Activity", DataType::Str),
            ],
        }
    }

    /// Whether the plan records the ground-truth log.
    pub fn logging(self) -> bool {
        self == Shape::WearableLogged
    }

    /// `n` input tuples, a pure function of `(self, seed, n)`. Event
    /// times strictly increase, as a sensor stream's do.
    pub fn generate(self, seed: u64, n: usize) -> Vec<Tuple> {
        let mut rng = SplitMix(seed ^ 0x01ce_0af1);
        match self {
            Shape::AirQualityValue => (0..n).map(|i| air_quality_tuple(i, &mut rng)).collect(),
            Shape::WearableLogged => {
                let mut bpm = 72i64;
                (0..n)
                    .map(|i| wearable_tuple(i, &mut bpm, &mut rng))
                    .collect()
            }
        }
    }

    /// The logical plan as JSON, without a seed: four round-robin
    /// sub-streams. Everything not named here keeps its plan default.
    pub fn plan_json(self) -> String {
        let pipelines: Vec<String> = (0..4)
            .map(|k| match self {
                Shape::AirQualityValue => value_pipeline(k),
                Shape::WearableLogged if k < 2 => temporal_pipeline(k),
                Shape::WearableLogged => wearable_value_pipeline(k),
            })
            .collect();
        format!(
            r#"{{"pipelines":[{}],"assigner":{{"type":"round_robin"}},"logging":{}}}"#,
            pipelines.join(","),
            self.logging()
        )
    }
}

/// The plan seeds a workload cycles through, derived from `--seed`.
/// Kept below 2^53 so they survive any JSON number representation.
pub fn plan_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix(seed ^ 0x091a_2eed);
    (0..count).map(|_| rng.next_u64() >> 11).collect()
}

struct AirFloat {
    name: &'static str,
    base: f64,
    daily: f64,
    noise: f64,
}

/// The eleven measurements of the Beijing air-quality schema with
/// plausible levels, daily swing and scatter.
const AIR_FLOATS: [AirFloat; 11] = [
    AirFloat {
        name: "PM2.5",
        base: 80.0,
        daily: 30.0,
        noise: 60.0,
    },
    AirFloat {
        name: "PM10",
        base: 105.0,
        daily: 35.0,
        noise: 70.0,
    },
    AirFloat {
        name: "SO2",
        base: 16.0,
        daily: 6.0,
        noise: 14.0,
    },
    AirFloat {
        name: "NO2",
        base: 50.0,
        daily: 18.0,
        noise: 30.0,
    },
    AirFloat {
        name: "CO",
        base: 1230.0,
        daily: 400.0,
        noise: 900.0,
    },
    AirFloat {
        name: "O3",
        base: 57.0,
        daily: 45.0,
        noise: 40.0,
    },
    AirFloat {
        name: "TEMP",
        base: 13.5,
        daily: 6.0,
        noise: 8.0,
    },
    AirFloat {
        name: "PRES",
        base: 1010.7,
        daily: 1.5,
        noise: 9.0,
    },
    AirFloat {
        name: "DEWP",
        base: 2.5,
        daily: 2.0,
        noise: 12.0,
    },
    AirFloat {
        name: "RAIN",
        base: 0.0,
        daily: 0.0,
        noise: 4.0,
    },
    AirFloat {
        name: "WSPM",
        base: 1.7,
        daily: 0.8,
        noise: 1.6,
    },
];

const STATIONS: [&str; 12] = [
    "Aotizhongxin",
    "Changping",
    "Dingling",
    "Dongsi",
    "Guanyuan",
    "Gucheng",
    "Huairou",
    "Nongzhanguan",
    "Shunyi",
    "Tiantan",
    "Wanliu",
    "Wanshouxigong",
];

const WIND: [&str; 16] = [
    "N", "NNE", "NE", "ENE", "E", "ESE", "SE", "SSE", "S", "SSW", "SW", "WSW", "W", "WNW", "NW",
    "NNW",
];

/// Triangle wave over the day in `[-1, 1]`, peak at noon. Plain
/// arithmetic only: no libm call may sit between a seed and its inputs.
fn daily_wave(ts_ms: i64) -> f64 {
    let day_fraction = (ts_ms.rem_euclid(86_400_000)) as f64 / 86_400_000.0;
    1.0 - 4.0 * (day_fraction - 0.5).abs()
}

fn air_quality_tuple(i: usize, rng: &mut SplitMix) -> Tuple {
    let ts = T0_MS + i as i64 * AIR_STEP_MS;
    let wave = daily_wave(ts);
    let mut values = Vec::with_capacity(3 + AIR_FLOATS.len());
    values.push(Value::Timestamp(Timestamp(ts)));
    values.push(Value::Str(STATIONS[i % STATIONS.len()].into()));
    values.push(Value::Str(
        WIND[rng.below(WIND.len() as u64) as usize].into(),
    ));
    for c in &AIR_FLOATS {
        let draw = rng.unit();
        let null = rng.unit() < 0.02;
        let x = if c.name == "RAIN" {
            // Dry nine hours in ten.
            if draw < 0.9 {
                0.0
            } else {
                (draw - 0.9) * 10.0 * c.noise
            }
        } else {
            c.base + c.daily * wave + c.noise * (draw - 0.5)
        };
        values.push(if null { Value::Null } else { Value::Float(x) });
    }
    Tuple::new(values)
}

const ACTIVITIES: [&str; 4] = ["sleep", "idle", "walk", "run"];

/// Heart rate as a bounded random walk with sensor drop-outs, distance
/// accumulating over the day.
fn wearable_tuple(i: usize, bpm: &mut i64, rng: &mut SplitMix) -> Tuple {
    let ts = T0_MS + i as i64 * WEARABLE_STEP_MS;
    *bpm = (*bpm + rng.below(7) as i64 - 3).clamp(45, 180);
    let minute_of_day = (i % 1440) as f64;
    let activity = ACTIVITIES[((daily_wave(ts) + 1.0) * 1.5 + rng.unit()) as usize % 4];
    Tuple::new(vec![
        Value::Timestamp(Timestamp(ts)),
        if rng.unit() < 0.03 {
            Value::Null
        } else {
            Value::Int(*bpm)
        },
        Value::Float(minute_of_day * 4.2 + rng.unit() * 3.0),
        Value::Str(activity.into()),
    ])
}

fn standard(name: &str, k: usize, attr: &str, error: &str, condition: &str) -> String {
    format!(
        r#"{{"type":"standard","name":"{name}-{k}","attributes":["{attr}"],"error":{error},"condition":{condition}}}"#
    )
}

/// [`standard`] whose error sets in gradually (the paper's *gradual*
/// change pattern) over the `tuples` first tuples at `step_ms` apart —
/// the one pattern that draws from the polluter's own generator.
fn gradual(polluter: String, tuples: usize, step_ms: i64) -> String {
    let to = T0_MS + tuples as i64 * step_ms;
    let pattern = format!(r#","pattern":{{"kind":"gradual","from":{T0_MS},"to":{to}}}}}"#);
    format!(
        "{}{pattern}",
        polluter.strip_suffix('}').expect("a JSON object")
    )
}

fn probability(p: f64) -> String {
    format!(r#"{{"type":"probability","p":{p}}}"#)
}

/// Four value polluters whose condition *and* error ship column
/// kernels, one per kernel family the hot path distinguishes: fixed
/// probability, time-varying probability, validity-bitmap write, and a
/// pure time predicate.
fn value_pipeline(k: usize) -> String {
    pipeline(&[
        gradual(
            standard(
                "scale",
                k,
                "TEMP",
                r#"{"type":"scale","factor":1.8}"#,
                &probability(0.2),
            ),
            PAPER_TUPLES,
            AIR_STEP_MS,
        ),
        standard(
            "noise",
            k,
            "PM2.5",
            r#"{"type":"gaussian_noise","sigma":0.1,"relative":true}"#,
            r#"{"type":"sinusoidal","amplitude":0.25,"offset":0.5}"#,
        ),
        standard(
            "missing",
            k,
            "NO2",
            r#"{"type":"missing_value"}"#,
            &probability(0.05),
        ),
        standard(
            "round",
            k,
            "PRES",
            r#"{"type":"round","precision":0}"#,
            r#"{"type":"hour_range","start":6,"end":18}"#,
        ),
    ])
}

/// The paper's native use: tuples arrive late, freeze, repeat or
/// vanish, and every change lands in the ground-truth log.
fn temporal_pipeline(k: usize) -> String {
    pipeline(&[
        format!(
            r#"{{"type":"delay","name":"delay-{k}","condition":{},"delay_ms":10800000}}"#,
            probability(0.05)
        ),
        format!(
            r#"{{"type":"freeze","name":"freeze-{k}","condition":{},"attributes":["BPM"],"duration_ms":600000}}"#,
            probability(0.01)
        ),
        format!(
            r#"{{"type":"duplicate","name":"duplicate-{k}","condition":{},"copies":1}}"#,
            probability(0.02)
        ),
        format!(
            r#"{{"type":"drop","name":"drop-{k}","condition":{}}}"#,
            probability(0.02)
        ),
        standard(
            "noise",
            k,
            "Distance",
            r#"{"type":"gaussian_noise","sigma":0.5,"relative":false}"#,
            &probability(0.3),
        ),
    ])
}

fn wearable_value_pipeline(k: usize) -> String {
    pipeline(&[
        gradual(
            standard(
                "scale",
                k,
                "Distance",
                r#"{"type":"scale","factor":0.001}"#,
                &probability(0.1),
            ),
            PAPER_TUPLES,
            WEARABLE_STEP_MS,
        ),
        standard(
            "round",
            k,
            "Distance",
            r#"{"type":"round","precision":0}"#,
            &probability(0.2),
        ),
        standard(
            "missing",
            k,
            "BPM",
            r#"{"type":"missing_value"}"#,
            &probability(0.05),
        ),
        standard(
            "constant",
            k,
            "Activity",
            r#"{"type":"constant","value":"unknown"}"#,
            &probability(0.05),
        ),
    ])
}

fn pipeline(stages: &[String]) -> String {
    format!("[{}]", stages.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for shape in [Shape::AirQualityValue, Shape::WearableLogged] {
            let a = shape.generate(7, 500);
            assert_eq!(a, shape.generate(7, 500));
            assert_ne!(a, shape.generate(8, 500));
            // A prefix of a longer run is the shorter run.
            assert_eq!(a[..100], shape.generate(7, 100)[..]);
            assert!(a.iter().all(|t| t.len() == shape.fields().len()));
        }
    }

    #[test]
    fn air_quality_has_about_two_percent_nulls() {
        let tuples = Shape::AirQualityValue.generate(DEFAULT_SEED, 5_000);
        let nulls = tuples
            .iter()
            .flat_map(|t| t.values())
            .filter(|v| v.is_null())
            .count();
        let share = nulls as f64 / (5_000.0 * 11.0);
        assert!((0.015..0.025).contains(&share), "{share}");
    }

    #[test]
    fn plan_seeds_follow_the_run_seed() {
        assert_eq!(plan_seeds(1, 4), plan_seeds(1, 4));
        assert_ne!(plan_seeds(1, 4), plan_seeds(2, 4));
        assert!(plan_seeds(1, 4).iter().all(|s| *s < 1 << 53));
    }
}
