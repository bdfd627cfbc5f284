//! Per-polluter runtime statistics.
//!
//! Every polluter keeps its own `PolluterCounts`: plain integers it
//! bumps where it does the work, and serialises inside its own
//! checkpoint state, so a restored polluter counts on from where the
//! checkpoint left it. Nothing is shared and nothing is flushed: the
//! session reads the counts from the pipelines it owns when it reports
//! (see [`Polluter::append_stats`](crate::polluter::Polluter::append_stats)).

use rand::rngs::StdRng;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// What one polluter counted while it ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct PolluterCounts {
    /// Times the polluter modified the stream: the error function was
    /// applied, or a tuple was delayed / dropped / duplicated / frozen.
    pub fires: u64,
    /// Times the polluter saw a tuple and passed it through untouched.
    pub skips: u64,
    /// Condition evaluations (one per tuple seen).
    pub condition_evals: u64,
    /// Random draws consumed by the polluter's own RNG (change-pattern
    /// and one-of choice draws; condition RNGs are owned by the
    /// conditions themselves).
    pub rng_draws: u64,
    /// High-water mark of the polluter's temporal buffer (delayed
    /// tuples held back), 0 for stateless polluters.
    pub buffer_max: u64,
}

impl PolluterCounts {
    /// The counts as the report lists them under `name`.
    pub(crate) fn snapshot(&self, name: &str) -> PolluterStatsSnapshot {
        PolluterStatsSnapshot {
            name: name.to_string(),
            fires: self.fires,
            skips: self.skips,
            condition_evals: self.condition_evals,
            rng_draws: self.rng_draws,
            buffer_max: self.buffer_max,
            log_entries: 0,
        }
    }
}

/// Statistics of one polluter, as reported in a
/// [`RunReport`](crate::report::RunReport).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolluterStatsSnapshot {
    /// The polluter's configured name.
    pub name: String,
    /// Stream modifications (error applications / shape changes).
    pub fires: u64,
    /// Tuples passed through untouched.
    pub skips: u64,
    /// Condition evaluations.
    pub condition_evals: u64,
    /// RNG draws by the polluter's own generator.
    pub rng_draws: u64,
    /// Temporal-buffer occupancy high-water mark.
    pub buffer_max: u64,
    /// Ground-truth log entries attributed to this polluter (filled in
    /// by the run report from the [`PollutionLog`](crate::log::PollutionLog)).
    pub log_entries: u64,
}

/// Folds the statistics of a pipeline (`from`, in stage order) into
/// what a sub-stream reported before (`into`): the k-th entry of a name
/// in `from` merges into the k-th entry of that name in `into` —
/// counters summed, `buffer_max` the larger — and an entry with no
/// match is appended. Into an empty `into` this is a plain copy, so a
/// sub-stream that never swapped its pipeline reports exactly what the
/// pipeline counted; one that did reports each polluter once, over
/// every epoch it ran in.
pub(crate) fn merge_by_name(
    into: &mut Vec<PolluterStatsSnapshot>,
    from: Vec<PolluterStatsSnapshot>,
) {
    let mut merged = vec![false; into.len()];
    for snap in from {
        let slot = (0..merged.len()).find(|&k| !merged[k] && into[k].name == snap.name);
        match slot {
            Some(k) => {
                merged[k] = true;
                let acc = &mut into[k];
                acc.fires += snap.fires;
                acc.skips += snap.skips;
                acc.condition_evals += snap.condition_evals;
                acc.rng_draws += snap.rng_draws;
                acc.buffer_max = acc.buffer_max.max(snap.buffer_max);
            }
            None => into.push(snap),
        }
    }
}

/// An [`StdRng`] wrapper that counts every draw — the polluter-side
/// half of the "RNG draw counts" instrumentation. Deterministic: the
/// wrapped stream is bit-identical to the bare [`StdRng`]'s.
#[derive(Clone, Debug)]
pub struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl CountingRng {
    /// Wraps `inner`, counting from zero.
    pub fn new(inner: StdRng) -> Self {
        CountingRng { inner, draws: 0 }
    }

    /// Draws taken so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The wrapped generator's exact stream position.
    pub fn state(&self) -> [u64; 4] {
        self.inner.state()
    }

    /// Restores a position captured by [`CountingRng::state`] and the
    /// draw count taken up to it.
    pub fn restore(&mut self, inner: StdRng, draws: u64) {
        self.inner = inner;
        self.draws = draws;
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn counting_rng_is_transparent() {
        let mut bare = StdRng::seed_from_u64(9);
        let mut counted = CountingRng::new(StdRng::seed_from_u64(9));
        for _ in 0..100 {
            assert_eq!(bare.next_u64(), counted.next_u64());
        }
    }

    #[test]
    fn counting_rng_counts_draws() {
        use rand::RngExt;
        let mut rng = CountingRng::new(StdRng::seed_from_u64(1));
        let _ = rng.next_u64();
        let _ = rng.random_bool(0.5);
        assert!(rng.draws() >= 2);
    }

    fn snap(name: &str, fires: u64, buffer_max: u64) -> PolluterStatsSnapshot {
        PolluterCounts {
            fires,
            skips: 1,
            condition_evals: fires + 1,
            rng_draws: 2,
            buffer_max,
        }
        .snapshot(name)
    }

    #[test]
    fn merging_into_nothing_copies_in_order() {
        let from = vec![snap("b", 1, 0), snap("a", 2, 0), snap("b", 3, 0)];
        let mut into = Vec::new();
        merge_by_name(&mut into, from.clone());
        assert_eq!(into, from);
    }

    #[test]
    fn merging_sums_counters_by_name_and_appends_newcomers() {
        let mut into = vec![snap("a", 5, 4), snap("b", 1, 0), snap("a", 7, 0)];
        merge_by_name(
            &mut into,
            vec![snap("a", 1, 2), snap("c", 9, 0), snap("a", 2, 3)],
        );
        let names: Vec<&str> = into.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "a", "c"]);
        assert_eq!((into[0].fires, into[0].buffer_max), (6, 4));
        assert_eq!((into[2].fires, into[2].buffer_max), (9, 3));
        assert_eq!(into[0].skips, 2);
        assert_eq!(into[0].rng_draws, 4);
        assert_eq!(into[1], snap("b", 1, 0), "untouched");
        assert_eq!(into[3], snap("c", 9, 0));
    }
}
