//! Chaos-injection harness: deliberately breaking the runtime to prove
//! the fault-tolerance layer works.
//!
//! Icewafl pollutes *data*; this module pollutes the *runtime*. A
//! [`ChaosOperator`] is an identity stage that, at configurable
//! per-record rates drawn from a seeded deterministic RNG (SplitMix64),
//! injects:
//!
//! * **panics** — marked with `[chaos-injected]` so the fault layer
//!   classifies them as [`FailureKind::Injected`](crate::fault::FailureKind)
//!   rather than real bugs;
//! * **delays** — a blocking sleep, exercising backpressure and
//!   deadline enforcement;
//! * **drops** — the record is silently lost in flight, as if a channel
//!   dropped it;
//! * **malformed records** — a caller-supplied mutator corrupts the
//!   record in place.
//!
//! Panic injection can be bounded by a *budget* shared across supervised
//! retries ([`ChaosConfig::panic_budget`]): a budget of 1 models a
//! transient fault that heals after the first restart — exactly what the
//! `chaos_recovery` integration suite asserts recovers.

use crate::checkpoint::StateSnapshot;
use crate::metrics::ChaosMetrics;
use icewafl_types::{Error, Result};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Marker embedded in every injected panic's payload. The fault layer
/// uses it to classify the failure as
/// [`FailureKind::Injected`](crate::fault::FailureKind), and the quiet
/// panic hook uses it to suppress backtrace noise in tests.
pub(crate) const CHAOS_PANIC_MARKER: &str = "[chaos-injected]";

/// A tiny, dependency-free, deterministic RNG (SplitMix64). Good enough
/// for fault scheduling and backoff jitter; not for cryptography.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (equal seeds ⇒ equal sequences).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The generator's exact position. SplitMix64's state *is* its
    /// counter, so `SplitMix64::new(state)` reproduces the stream from
    /// here — captured into checkpoint frames.
    pub fn state(&self) -> u64 {
        self.state
    }
}

/// What faults to inject, and how often.
///
/// All rates are per-record probabilities in `[0, 1]`. The default
/// config injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the injector's deterministic RNG.
    pub seed: u64,
    /// Probability that processing a record panics.
    pub panic_rate: f64,
    /// Deterministic fault point: panic exactly when the `n`-th record
    /// (1-based) reaches this injector, regardless of `panic_rate`. The
    /// kill draws nothing from the RNG (probabilistic decisions for
    /// surrounding records are unchanged) but does consume a panic
    /// token, so with a budget of 1 it fires once across supervised
    /// retries — the exact-offset kill the recovery tests need.
    pub kill_at_tuple: Option<u64>,
    /// At most this many panics are actually injected (`None` =
    /// unbounded). The budget is shared across supervised retries, so a
    /// budget of 1 models a transient fault that heals after restart.
    pub panic_budget: Option<u64>,
    /// Probability that processing a record sleeps for
    /// [`ChaosConfig::delay_ms`].
    pub delay_rate: f64,
    /// Injected delay duration, in milliseconds.
    pub delay_ms: u64,
    /// Probability that a record is dropped in flight.
    pub drop_rate: f64,
    /// Probability that a record is malformed (requires a mutator, see
    /// [`ChaosOperator::with_malform`]).
    pub malform_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            panic_rate: 0.0,
            kill_at_tuple: None,
            panic_budget: None,
            delay_rate: 0.0,
            delay_ms: 1,
            drop_rate: 0.0,
            malform_rate: 0.0,
        }
    }
}

impl ChaosConfig {
    /// `true` iff every rate is a valid probability.
    pub fn is_valid(&self) -> bool {
        [
            self.panic_rate,
            self.delay_rate,
            self.drop_rate,
            self.malform_rate,
        ]
        .iter()
        .all(|r| (0.0..=1.0).contains(r) && r.is_finite())
    }

    /// A fresh atomic panic budget matching
    /// [`ChaosConfig::panic_budget`] (`u64::MAX` when unbounded).
    /// Create it **once per job** and share it across retries via
    /// [`ChaosOperator::with_shared_budget`] so a bounded fault is
    /// transient rather than re-armed on every restart.
    pub fn new_budget(&self) -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(self.panic_budget.unwrap_or(u64::MAX)))
    }
}

/// The fault chosen for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Panic,
    Delay,
    Drop,
    Malform,
}

/// The fault decisions behind a [`ChaosOperator`].
struct FaultPlan {
    cfg: ChaosConfig,
    rng: SplitMix64,
    budget: Arc<AtomicU64>,
    metrics: ChaosMetrics,
    seen: u64,
}

impl FaultPlan {
    fn new(cfg: ChaosConfig, budget: Arc<AtomicU64>, metrics: ChaosMetrics) -> Self {
        let rng = SplitMix64::new(cfg.seed);
        FaultPlan {
            cfg,
            rng,
            budget,
            metrics,
            seen: 0,
        }
    }

    /// Tries to take one panic token from the shared budget.
    fn take_panic_token(&self) -> bool {
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok()
    }

    /// Decides the fault for the next record and updates the counters.
    /// The faults are checked in severity order; at most one fires per
    /// record.
    fn decide(&mut self) -> Fault {
        self.seen += 1;
        if self.cfg.kill_at_tuple == Some(self.seen) && self.take_panic_token() {
            self.metrics.injected_panics.inc();
            return Fault::Panic;
        }
        if self.cfg.panic_rate > 0.0
            && self.rng.next_f64() < self.cfg.panic_rate
            && self.take_panic_token()
        {
            self.metrics.injected_panics.inc();
            return Fault::Panic;
        }
        if self.cfg.delay_rate > 0.0 && self.rng.next_f64() < self.cfg.delay_rate {
            self.metrics.injected_delays.inc();
            return Fault::Delay;
        }
        if self.cfg.drop_rate > 0.0 && self.rng.next_f64() < self.cfg.drop_rate {
            self.metrics.injected_drops.inc();
            return Fault::Drop;
        }
        if self.cfg.malform_rate > 0.0 && self.rng.next_f64() < self.cfg.malform_rate {
            self.metrics.injected_malforms.inc();
            return Fault::Malform;
        }
        Fault::None
    }

    fn panic_now(&self) -> ! {
        panic!(
            "{CHAOS_PANIC_MARKER} injected panic at record {}",
            self.seen
        );
    }

    fn delay_now(&self) {
        std::thread::sleep(std::time::Duration::from_millis(self.cfg.delay_ms));
    }
}

/// Record mutator used for malformed-record faults.
type MalformFn<T> = Box<dyn FnMut(&mut T) + Send>;

/// Identity step that injects faults per [`ChaosConfig`]; the session
/// loop runs one in front of each sub-stream's pipeline.
pub struct ChaosOperator<T> {
    plan: FaultPlan,
    malform: Option<MalformFn<T>>,
}

/// Wire form of a chaos injector snapshot: the record counter and the
/// RNG position (everything `decide` depends on besides the shared
/// budget, which lives outside the attempt and survives it).
#[derive(Debug, Serialize, Deserialize)]
struct ChaosState {
    seen: u64,
    rng: u64,
}

impl<T> ChaosOperator<T> {
    /// An injector whose panic budget is shared (typically across
    /// supervised retries of the same job), with detached metrics.
    pub fn with_shared_budget(cfg: ChaosConfig, budget: Arc<AtomicU64>) -> Self {
        ChaosOperator {
            plan: FaultPlan::new(cfg, budget, ChaosMetrics::detached()),
            malform: None,
        }
    }

    /// Records injection counters into the given metric handles.
    pub fn with_metrics(mut self, metrics: ChaosMetrics) -> Self {
        self.plan.metrics = metrics;
        self
    }

    /// Sets the mutator applied on malformed-record faults.
    pub fn with_malform(mut self, f: impl FnMut(&mut T) + Send + 'static) -> Self {
        self.malform = Some(Box::new(f));
        self
    }

    /// Passes one record through, appending what survives its fault to
    /// `out`; a panic fault unwinds out of this call.
    pub fn on_element(&mut self, mut record: T, out: &mut Vec<T>) {
        match self.plan.decide() {
            Fault::Panic => self.plan.panic_now(),
            Fault::Delay => {
                self.plan.delay_now();
                out.push(record);
            }
            Fault::Drop => {}
            Fault::Malform => {
                if let Some(f) = self.malform.as_mut() {
                    f(&mut record);
                }
                out.push(record);
            }
            Fault::None => out.push(record),
        }
    }
}

/// The injector's record counter and RNG position: a restored attempt
/// replays the *same* fault schedule instead of re-rolling it.
impl<T> StateSnapshot for ChaosOperator<T> {
    fn snapshot_state(&self) -> Option<String> {
        serde_json::to_string(&ChaosState {
            seen: self.plan.seen,
            rng: self.plan.rng.state(),
        })
        .ok()
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        let s: ChaosState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "ChaosState"))?;
        self.plan.seen = s.seen;
        self.plan.rng = SplitMix64::new(s.rng);
        Ok(())
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default "thread panicked" report for chaos-injected panics — they are
/// expected, caught, and converted into typed errors; printing a
/// backtrace per injection would drown test output. Real panics still
/// report through the previous hook.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains(CHAOS_PANIC_MARKER) {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An injector with its own panic budget.
    fn injector(cfg: ChaosConfig) -> ChaosOperator<i64> {
        let budget = cfg.new_budget();
        ChaosOperator::with_shared_budget(cfg, budget)
    }

    /// Every record through `op`, in order; what survives.
    fn drive(mut op: ChaosOperator<i64>, records: Vec<i64>) -> Vec<i64> {
        let mut out = Vec::new();
        for r in records {
            op.on_element(r, &mut out);
        }
        out
    }

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], c.next_u64());
        for _ in 0..1000 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn default_config_injects_nothing() {
        let out: Vec<i64> = drive(injector(ChaosConfig::default()), (0..100).collect());
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn config_validation_rejects_bad_rates() {
        assert!(ChaosConfig::default().is_valid());
        let bad = ChaosConfig {
            panic_rate: 1.5,
            ..ChaosConfig::default()
        };
        assert!(!bad.is_valid());
        let nan = ChaosConfig {
            drop_rate: f64::NAN,
            ..ChaosConfig::default()
        };
        assert!(!nan.is_valid());
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let cfg = ChaosConfig {
            drop_rate: 1.0,
            ..ChaosConfig::default()
        };
        let out: Vec<i64> = drive(injector(cfg), (0..50).collect());
        assert!(out.is_empty());
    }

    #[test]
    fn malform_mutates_records() {
        let cfg = ChaosConfig {
            malform_rate: 1.0,
            ..ChaosConfig::default()
        };
        let op = injector(cfg).with_malform(|x: &mut i64| *x = -1);
        let out: Vec<i64> = drive(op, vec![1, 2, 3]);
        assert_eq!(out, vec![-1, -1, -1]);
    }

    #[test]
    fn panic_budget_limits_injections() {
        install_quiet_panic_hook();
        let cfg = ChaosConfig {
            panic_rate: 1.0,
            panic_budget: Some(1),
            ..ChaosConfig::default()
        };
        let budget = cfg.new_budget();
        // First run panics (budget 1 -> 0)…
        let op = ChaosOperator::<i64>::with_shared_budget(cfg.clone(), Arc::clone(&budget));
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive(op, vec![1]))).is_err();
        assert!(panicked);
        // …the retry with the same shared budget heals.
        let op = ChaosOperator::<i64>::with_shared_budget(cfg, budget);
        let out: Vec<i64> = drive(op, vec![1, 2]);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn kill_at_tuple_fires_exactly_once_at_exact_offset() {
        install_quiet_panic_hook();
        let cfg = ChaosConfig {
            kill_at_tuple: Some(3),
            panic_budget: Some(1),
            ..ChaosConfig::default()
        };
        let budget = cfg.new_budget();
        let mut op = ChaosOperator::<i64>::with_shared_budget(cfg.clone(), Arc::clone(&budget));
        let mut out = Vec::new();
        // Records 1 and 2 pass; record 3 kills.
        op.on_element(1, &mut out);
        op.on_element(2, &mut out);
        assert_eq!(out, vec![1, 2]);
        let killed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op.on_element(3, &mut out)))
                .is_err();
        assert!(killed);
        // The retry with the shared budget passes record 3 through.
        let op = ChaosOperator::<i64>::with_shared_budget(cfg, budget);
        let out: Vec<i64> = drive(op, vec![1, 2, 3, 4]);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn chaos_snapshot_restores_fault_schedule_position() {
        let cfg = ChaosConfig {
            drop_rate: 0.3,
            seed: 7,
            ..ChaosConfig::default()
        };
        let mut a = injector(cfg.clone());
        let mut sink = Vec::new();
        for x in 0..50 {
            a.on_element(x, &mut sink);
        }
        let doc = a.snapshot_state().expect("the state serializes");
        // A fresh injector restored from the snapshot continues the
        // exact drop schedule the original would have produced.
        let mut b = injector(cfg);
        b.restore_state(&doc).unwrap();
        let (mut ya, mut yb) = (Vec::new(), Vec::new());
        for x in 50..100 {
            a.on_element(x, &mut ya);
            b.on_element(x, &mut yb);
        }
        assert_eq!(ya, yb);
        assert!(ya.len() < 50, "some records must have dropped");
    }
}
