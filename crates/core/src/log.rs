//! The pollution log — ground truth for every injected error.
//!
//! Figure 2 of the paper shows an optional "Log Data" output next to the
//! dirty stream: a record of what was polluted, enabling (a) exact
//! reproduction and (b) the "expected from pollution process" series the
//! experiments compare DQ-tool measurements against.

use icewafl_types::{Duration, Text, Timestamp, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// One ground-truth record of an applied error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum LogEntry {
    /// A value error: `polluter` changed `attr` of tuple `tuple_id`.
    ValueChanged {
        /// The affected tuple's immutable id.
        tuple_id: u64,
        /// Name of the polluter that fired.
        polluter: Text,
        /// Name of the changed attribute.
        attr: Text,
        /// Value before pollution.
        before: Value,
        /// Value after pollution.
        after: Value,
        /// Event time of the tuple.
        tau: Timestamp,
    },
    /// A tuple was delayed by `by`.
    TupleDelayed {
        /// The affected tuple's id.
        tuple_id: u64,
        /// Name of the polluter.
        polluter: Text,
        /// Delay amount.
        by: Duration,
        /// Event time of the tuple.
        tau: Timestamp,
    },
    /// A tuple was dropped from the stream.
    TupleDropped {
        /// The affected tuple's id.
        tuple_id: u64,
        /// Name of the polluter.
        polluter: Text,
        /// Event time of the tuple.
        tau: Timestamp,
    },
    /// A tuple was emitted `copies` extra times.
    TupleDuplicated {
        /// The affected tuple's id.
        tuple_id: u64,
        /// Name of the polluter.
        polluter: Text,
        /// Number of extra copies.
        copies: u32,
        /// Event time of the tuple.
        tau: Timestamp,
    },
}

impl LogEntry {
    /// The id of the tuple this entry refers to.
    pub fn tuple_id(&self) -> u64 {
        match self {
            LogEntry::ValueChanged { tuple_id, .. }
            | LogEntry::TupleDelayed { tuple_id, .. }
            | LogEntry::TupleDropped { tuple_id, .. }
            | LogEntry::TupleDuplicated { tuple_id, .. } => *tuple_id,
        }
    }

    /// The polluter that produced this entry.
    pub fn polluter(&self) -> &str {
        self.polluter_text()
    }

    fn polluter_text(&self) -> &Text {
        match self {
            LogEntry::ValueChanged { polluter, .. }
            | LogEntry::TupleDelayed { polluter, .. }
            | LogEntry::TupleDropped { polluter, .. }
            | LogEntry::TupleDuplicated { polluter, .. } => polluter,
        }
    }

    /// The event time of the affected tuple.
    pub fn tau(&self) -> Timestamp {
        match self {
            LogEntry::ValueChanged { tau, .. }
            | LogEntry::TupleDelayed { tau, .. }
            | LogEntry::TupleDropped { tau, .. }
            | LogEntry::TupleDuplicated { tau, .. } => *tau,
        }
    }
}

/// Ground-truth log of an entire pollution run.
///
/// Logging is enabled by default; disable it for overhead benchmarks
/// with [`PollutionLog::disabled`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PollutionLog {
    entries: Vec<LogEntry>,
    #[serde(default = "default_true")]
    enabled: bool,
}

fn default_true() -> bool {
    true
}

impl PollutionLog {
    /// An empty, enabled log.
    pub fn new() -> Self {
        PollutionLog {
            entries: Vec::new(),
            enabled: true,
        }
    }

    /// A log that silently drops all entries (for overhead
    /// measurements).
    pub fn disabled() -> Self {
        PollutionLog {
            entries: Vec::new(),
            enabled: false,
        }
    }

    /// Whether entries are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one entry (no-op when disabled).
    pub fn record(&mut self, entry: LogEntry) {
        if self.enabled {
            self.entries.push(entry);
        }
    }

    /// All recorded entries, in application order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Discards entries recorded after the first `len` — checkpoint
    /// recovery rewinds the log to the length captured at the barrier
    /// before replaying. No-op when `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// The distinct ids of polluted tuples.
    pub fn polluted_tuple_ids(&self) -> HashSet<u64> {
        self.entries.iter().map(LogEntry::tuple_id).collect()
    }

    /// Entry counts per polluter name.
    pub fn counts_by_polluter(&self) -> BTreeMap<String, usize> {
        count_names(self.entries.iter().map(LogEntry::polluter_text))
    }

    /// Entry counts per changed attribute (value errors only).
    pub fn counts_by_attribute(&self) -> BTreeMap<String, usize> {
        count_names(self.entries.iter().filter_map(|e| match e {
            LogEntry::ValueChanged { attr, .. } => Some(attr),
            _ => None,
        }))
    }

    /// Entry counts per hour of day of `τ` — the x-axis of Fig. 4.
    pub fn counts_by_hour_of_day(&self) -> [usize; 24] {
        let mut counts = [0usize; 24];
        for e in &self.entries {
            counts[e.tau().hour_of_day() as usize] += 1;
        }
        counts
    }

    /// Merges another log's entries into this one (used when sub-stream
    /// pipelines keep separate logs).
    pub fn merge(&mut self, other: PollutionLog) {
        if self.enabled {
            self.entries.extend(other.entries);
        }
    }
}

/// How often each name occurs, allocating per distinct name rather than
/// per occurrence. A polluter logs clones of one [`Text`], so a run of
/// entries from one polluter is counted by pointer comparison alone.
fn count_names<'a>(names: impl Iterator<Item = &'a Text>) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut run: Option<(&Text, usize)> = None;
    for name in names {
        match &mut run {
            Some((last, n)) if Text::ptr_eq(last, name) => *n += 1,
            _ => {
                if let Some((last, n)) = run.replace((name, 1)) {
                    *counts.entry(last).or_insert(0) += n;
                }
            }
        }
    }
    if let Some((last, n)) = run {
        *counts.entry(last).or_insert(0) += n;
    }
    counts
        .into_iter()
        .map(|(name, n)| (name.to_owned(), n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_entry(id: u64, polluter: &str, attr: &str, tau_ms: i64) -> LogEntry {
        LogEntry::ValueChanged {
            tuple_id: id,
            polluter: polluter.into(),
            attr: attr.into(),
            before: Value::Int(1),
            after: Value::Null,
            tau: Timestamp(tau_ms),
        }
    }

    #[test]
    fn records_and_counts() {
        let mut log = PollutionLog::new();
        log.record(value_entry(1, "p1", "a", 0));
        log.record(value_entry(2, "p1", "b", 0));
        log.record(value_entry(1, "p2", "a", 0));
        assert_eq!(log.len(), 3);
        assert_eq!(log.polluted_tuple_ids().len(), 2);
        assert_eq!(log.counts_by_polluter()["p1"], 2);
        assert_eq!(log.counts_by_polluter()["p2"], 1);
        assert_eq!(log.counts_by_attribute()["a"], 2);
    }

    #[test]
    fn disabled_log_drops_entries() {
        let mut log = PollutionLog::disabled();
        log.record(value_entry(1, "p", "a", 0));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn counts_by_hour() {
        let mut log = PollutionLog::new();
        let hour = icewafl_types::time::MILLIS_PER_HOUR;
        log.record(value_entry(1, "p", "a", 0));
        log.record(value_entry(2, "p", "a", 13 * hour));
        log.record(value_entry(3, "p", "a", 13 * hour + 59 * 60_000));
        let counts = log.counts_by_hour_of_day();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[13], 2);
        assert_eq!(counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn entry_accessors() {
        let e = LogEntry::TupleDelayed {
            tuple_id: 7,
            polluter: "net".into(),
            by: Duration::from_hours(1),
            tau: Timestamp(5),
        };
        assert_eq!(e.tuple_id(), 7);
        assert_eq!(e.polluter(), "net");
        assert_eq!(e.tau(), Timestamp(5));
    }

    #[test]
    fn merge_combines() {
        let mut a = PollutionLog::new();
        a.record(value_entry(1, "p", "x", 0));
        let mut b = PollutionLog::new();
        b.record(value_entry(2, "q", "y", 0));
        a.merge(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let mut log = PollutionLog::new();
        log.record(value_entry(1, "p", "a", 0));
        log.record(LogEntry::TupleDropped {
            tuple_id: 2,
            polluter: "d".into(),
            tau: Timestamp(1),
        });
        let json = serde_json::to_string(&log).unwrap();
        let back: PollutionLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries(), log.entries());
    }
}
