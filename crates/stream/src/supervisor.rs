//! Supervised retries: per-stage restart budgets, exponential backoff
//! with jitter, and a per-run wall-clock deadline.
//!
//! The [`Supervisor`] does not run anything itself — it is the *policy
//! oracle* a retry loop consults after each failed attempt:
//!
//! ```
//! use icewafl_stream::supervisor::{Supervisor, SupervisorPolicy};
//! use icewafl_stream::fault::FailureKind;
//!
//! let mut sup = Supervisor::new(SupervisorPolicy {
//!     max_retries: 2,
//!     deterministic: true, // no sleeping, no jitter: tests stay fast
//!     ..SupervisorPolicy::default()
//! });
//! let stage = "stage/02_pollution_pipeline";
//! assert!(sup.next_retry_for(stage, FailureKind::Panic).is_some()); // retry 1
//! assert!(sup.next_retry_for(stage, FailureKind::Panic).is_some()); // retry 2
//! assert!(sup.next_retry_for(stage, FailureKind::Panic).is_none()); // budget exhausted
//! assert_eq!(sup.restarts(), 2);
//! ```
//!
//! Deadline ([`SupervisorPolicy::deadline`]) and fatal failures are
//! never retried; everything else (panics, injected chaos faults,
//! disconnects) is retried up to [`SupervisorPolicy::max_retries`]
//! times *per stage*, with backoff `min(base · 2^(n−1), max)` scaled by
//! a jitter factor in `[0.5, 1.5)` drawn from a seeded
//! SplitMix64 — deterministic across runs with equal seeds. In
//! `deterministic` mode the backoff is zero so single-threaded runs
//! stay reproducible and fast.

use crate::chaos::SplitMix64;
use crate::fault::FailureKind;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Restart policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Retries allowed *per stage* before the failure becomes fatal.
    /// `0` disables retries ("fail-fast").
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub backoff_base: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub backoff_max: Duration,
    /// When `true`, retries happen immediately with no jitter —
    /// the deterministic single-threaded mode.
    pub deterministic: bool,
    /// Wall-clock budget for the whole supervised run (attempts and
    /// backoff included). `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(5),
            deterministic: false,
            deadline: None,
            seed: 0,
        }
    }
}

/// Tracks retry budgets across the attempts of one supervised run.
pub struct Supervisor {
    policy: SupervisorPolicy,
    started: Instant,
    retries: HashMap<String, u32>,
    restarts: u64,
    rng: SplitMix64,
}

impl Supervisor {
    /// A supervisor for one run; the deadline clock starts now.
    pub fn new(policy: SupervisorPolicy) -> Self {
        let rng = SplitMix64::new(policy.seed);
        Supervisor {
            policy,
            started: Instant::now(),
            retries: HashMap::new(),
            restarts: 0,
            rng,
        }
    }

    /// Total restarts granted so far (across all stages).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The absolute instant of the run deadline, if one is configured —
    /// what a run hands its attempts to enforce mid-run.
    pub fn deadline_instant(&self) -> Option<Instant> {
        self.policy.deadline.map(|d| self.started + d)
    }

    /// `true` iff the run deadline has passed.
    fn deadline_exceeded(&self) -> bool {
        matches!(self.deadline_instant(), Some(dl) if Instant::now() >= dl)
    }

    /// Consulted after a failed attempt of `stage` with failure `kind`
    /// (callers holding an `icewafl_types::Error::Pipeline` get it from
    /// [`FailureKind::parse`]): `Some(backoff)` grants a retry after
    /// sleeping `backoff` (zero in deterministic mode), `None` means the
    /// failure is final.
    pub fn next_retry_for(&mut self, stage: &str, kind: FailureKind) -> Option<Duration> {
        match kind {
            // Retrying past the deadline can only blow it further; a
            // fatal failure is by definition not transient.
            FailureKind::Deadline | FailureKind::Fatal => return None,
            FailureKind::Panic | FailureKind::Injected | FailureKind::Disconnect => {}
        }
        if self.deadline_exceeded() {
            return None;
        }
        let count = self.retries.entry(stage.to_string()).or_insert(0);
        if *count >= self.policy.max_retries {
            return None;
        }
        *count += 1;
        let attempt = *count;
        self.restarts += 1;
        Some(self.backoff(attempt))
    }

    /// Pre-jitter backoff in nanoseconds: `min(base · 2^(n−1), max)`,
    /// saturating at `max` for any attempt count. Once the doubling
    /// count reaches 127 the shift itself would overflow `u128`, so the
    /// cap is taken *before* shifting — high attempt counts can never
    /// wrap into a short (or zero) sleep.
    fn raw_backoff_nanos(&self, attempt: u32) -> u128 {
        let base = self.policy.backoff_base.as_nanos();
        let max = self.policy.backoff_max.as_nanos();
        if base == 0 {
            return 0;
        }
        let doublings = attempt.saturating_sub(1);
        if doublings >= 127 {
            return max;
        }
        base.checked_mul(1u128 << doublings)
            .map_or(max, |exp| exp.min(max))
    }

    /// `min(base · 2^(n−1), max)` scaled by jitter in `[0.5, 1.5)`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        if self.policy.deterministic {
            return Duration::ZERO;
        }
        let capped = self.raw_backoff_nanos(attempt).min(u64::MAX as u128) as f64;
        let jitter = 0.5 + self.rng.next_f64();
        Duration::from_nanos((capped * jitter).min(u64::MAX as f64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_is_per_stage() {
        let mut sup = Supervisor::new(SupervisorPolicy {
            max_retries: 1,
            deterministic: true,
            ..SupervisorPolicy::default()
        });
        assert_eq!(
            sup.next_retry_for("a", FailureKind::Panic),
            Some(Duration::ZERO)
        );
        assert_eq!(sup.next_retry_for("a", FailureKind::Panic), None);
        // A different stage has its own budget.
        assert_eq!(
            sup.next_retry_for("b", FailureKind::Panic),
            Some(Duration::ZERO)
        );
        assert_eq!(sup.restarts(), 2);
    }

    #[test]
    fn fail_fast_policy_never_retries() {
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        assert_eq!(sup.next_retry_for("a", FailureKind::Panic), None);
        assert_eq!(sup.restarts(), 0);
    }

    #[test]
    fn deadline_and_fatal_failures_are_final() {
        let mut sup = Supervisor::new(SupervisorPolicy {
            max_retries: 10,
            deterministic: true,
            ..SupervisorPolicy::default()
        });
        assert_eq!(sup.next_retry_for("s", FailureKind::Deadline), None);
        assert_eq!(sup.next_retry_for("s", FailureKind::Fatal), None);
        // Injected chaos faults and disconnects *are* retryable.
        assert!(sup.next_retry_for("s", FailureKind::Injected).is_some());
    }

    #[test]
    fn expired_deadline_stops_retries() {
        let mut sup = Supervisor::new(SupervisorPolicy {
            max_retries: 10,
            deterministic: true,
            deadline: Some(Duration::ZERO),
            ..SupervisorPolicy::default()
        });
        assert!(sup.deadline_exceeded());
        assert_eq!(sup.next_retry_for("a", FailureKind::Panic), None);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let mut sup = Supervisor::new(SupervisorPolicy {
            max_retries: 16,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(80),
            seed: 7,
            ..SupervisorPolicy::default()
        });
        let expect_ms = [10.0, 20.0, 40.0, 80.0, 80.0];
        for &base_ms in &expect_ms {
            let d = sup.next_retry_for("s", FailureKind::Panic).unwrap();
            let ms = d.as_secs_f64() * 1e3;
            assert!(
                (0.5 * base_ms..1.5 * base_ms).contains(&ms),
                "backoff {ms}ms outside [{}, {})",
                0.5 * base_ms,
                1.5 * base_ms
            );
        }
    }

    #[test]
    fn raw_backoff_table_is_pinned() {
        let sup = Supervisor::new(SupervisorPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(80),
            ..SupervisorPolicy::default()
        });
        let ms = |n: u32| sup.raw_backoff_nanos(n) / 1_000_000;
        // Exact pre-jitter schedule: doubling until the cap, then flat.
        let table: Vec<u128> = (1..=8).map(ms).collect();
        assert_eq!(table, vec![10, 20, 40, 80, 80, 80, 80, 80]);
        // Attempt 0 behaves like attempt 1 (no negative doubling).
        assert_eq!(ms(0), 10);
    }

    #[test]
    fn backoff_saturates_at_high_attempt_counts() {
        let sup = Supervisor::new(SupervisorPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(5),
            ..SupervisorPolicy::default()
        });
        let cap = Duration::from_secs(5).as_nanos();
        // Past the doubling range the backoff is exactly the cap — it
        // must never wrap around to a short or zero sleep.
        for attempt in [64, 65, 127, 128, 1_000, u32::MAX] {
            assert_eq!(sup.raw_backoff_nanos(attempt), cap, "attempt {attempt}");
        }
        // A zero base stays zero at any attempt (no backoff configured).
        let zero = Supervisor::new(SupervisorPolicy {
            backoff_base: Duration::ZERO,
            ..SupervisorPolicy::default()
        });
        assert_eq!(zero.raw_backoff_nanos(u32::MAX), 0);
    }

    #[test]
    fn jittered_backoff_is_bounded_even_at_extreme_attempts() {
        let mut sup = Supervisor::new(SupervisorPolicy {
            max_retries: u32::MAX,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(40),
            seed: 3,
            ..SupervisorPolicy::default()
        });
        for attempt in [1, 63, 64, 65, 500, u32::MAX] {
            let d = sup.backoff(attempt);
            assert!(
                d <= Duration::from_millis(60),
                "attempt {attempt}: {d:?} exceeds 1.5 × cap"
            );
        }
    }

    #[test]
    fn equal_seeds_give_equal_backoff_sequences() {
        let mk = || {
            Supervisor::new(SupervisorPolicy {
                max_retries: 5,
                seed: 99,
                ..SupervisorPolicy::default()
            })
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..5 {
            assert_eq!(
                a.next_retry_for("s", FailureKind::Panic),
                b.next_retry_for("s", FailureKind::Panic)
            );
        }
    }
}
