//! Watermark-driven event-time sorting.
//!
//! Algorithm 1, step 3 of the paper ends with `sortByTimestamp(Dᵖ)`:
//! after the polluted sub-streams are merged, the output is re-ordered by
//! timestamp. In a streaming setting the sort cannot wait for the end of
//! the (possibly unbounded) stream; instead the sorter buffers records
//! and releases everything at or below each incoming watermark, in
//! timestamp order. A delayed-tuple polluter upstream together with this
//! sorter reproduces exactly the "late tuple disturbs the strictly
//! increasing order" effect that experiment 3.1.3 detects.

use crate::checkpoint::StateSnapshot;
use crate::metrics::SorterMetrics;
use icewafl_obs::trace;
use icewafl_types::{Error, Result, Timestamp};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Initial reorder-buffer capacity, reserved on the first record. Sized
/// to a few source watermark periods (default 64), since the buffer
/// drains at every watermark and only delayed tuples accumulate beyond
/// one period.
const INITIAL_BUFFER_CAPACITY: usize = 256;

/// Furthest a record may land from the nearer end of the ring and still
/// be inserted in place. Beyond this the element shift dominates (a long
/// sorted run arriving behind the buffer — e.g. sub-streams handing
/// over whole frames one after another — would degrade to O(n²)), so
/// the record goes to the overflow heap instead.
const MAX_INSERT_SHIFT: usize = 64;

/// What an [`EventTimeSorter`] orders by: an event time, optionally
/// refined by a secondary component that decides ties between records
/// of equal event time. Watermarks only ever compare against
/// [`SortKey::event_time`]; the full key decides the release order.
pub trait SortKey: Copy + Ord {
    /// The event time a watermark is compared against. Must be
    /// monotone in the key order (`a <= b ⇒ a.event_time() <=
    /// b.event_time()`), which the provided impls guarantee by putting
    /// the time first.
    fn event_time(&self) -> Timestamp;
}

impl SortKey for Timestamp {
    fn event_time(&self) -> Timestamp {
        *self
    }
}

/// Event time first, then an explicit tie-break — e.g. the runner's
/// `(arrival, sub_stream)`, which makes the merged order independent of
/// the order in which a schedule happens to deliver sub-streams.
impl<S: Copy + Ord> SortKey for (Timestamp, S) {
    fn event_time(&self) -> Timestamp {
        self.0
    }
}

/// Buffers records and emits them in key order as the watermark
/// advances. Records with equal keys leave in arrival order (the sort
/// is stable).
///
/// The primary buffer is a ring (`VecDeque`) kept sorted ascending by
/// key. The dominant case — records arriving in key order — appends in
/// O(1), and releasing at a watermark pops a prefix in O(released): no
/// per-record comparisons and, unlike a `Vec`, no shifting of whatever
/// stays behind. A mildly out-of-order record (a delayed tuple, or the
/// fine interleaving of sub-streams that cross each watermark in
/// lockstep) pays a binary search plus a short in-ring insert. Only a
/// record landing further than `MAX_INSERT_SHIFT` slots from both ends
/// — whole sorted runs arriving far behind the tail, the pattern
/// independent sources handed over one after another produce — falls back to a
/// min-heap, and a release stream-merges the heap with the ring prefix.
/// Nothing is ever bulk re-sorted.
pub struct EventTimeSorter<T, F, K = Timestamp> {
    extract: F,
    /// Sorted ascending by `(key, seq)`: an insertion lands *after*
    /// existing equal-key entries.
    buf: VecDeque<Entry<T, K>>,
    /// Overflow min-heap for far-out-of-order records.
    overflow: BinaryHeap<Reverse<Entry<T, K>>>,
    /// Arrival counter: the last component of the total order, so equal
    /// keys stay in arrival order wherever the two buffers meet.
    seq: u64,
    last_wm: Timestamp,
    /// Freshest event time seen, for the watermark-lag gauge.
    max_event_ts: Timestamp,
    metrics: SorterMetrics,
    /// Buffer-occupancy peak staged locally; pushed to the shared gauge
    /// only at watermark/end boundaries (a per-record atomic `set_max`
    /// is too expensive for the hot path).
    buffer_peak: u64,
    /// Record codec for checkpoint snapshots; `None` leaves the sorter
    /// un-snapshotted.
    codec: Option<SorterStateCodec<T>>,
}

/// Encodes/decodes the sorter's buffered records for checkpointing.
///
/// The sorter is generic over its record type, so snapshot support is
/// installed explicitly: the runner supplies a codec for the concrete
/// record type it sorts. Records travel as typed JSON documents (see
/// [`StateSnapshot`] for why dynamic values are out).
pub struct SorterStateCodec<T> {
    encode: EncodeFn<T>,
    decode: DecodeFn<T>,
}

/// Boxed record encoder of a [`SorterStateCodec`].
type EncodeFn<T> = Box<dyn Fn(&T) -> Option<String> + Send>;
/// Boxed record decoder of a [`SorterStateCodec`].
type DecodeFn<T> = Box<dyn Fn(&str) -> Option<T> + Send>;

impl<T> SorterStateCodec<T> {
    /// A codec from explicit encode/decode functions.
    pub fn new(
        encode: impl Fn(&T) -> Option<String> + Send + 'static,
        decode: impl Fn(&str) -> Option<T> + Send + 'static,
    ) -> Self {
        SorterStateCodec {
            encode: Box::new(encode),
            decode: Box::new(decode),
        }
    }
}

/// Wire form of a sorter snapshot: every held record (ring and heap
/// alike) in release order with its arrival number, as parallel arrays
/// (the vendored serde has no tuple impls). Keys are not stored — a
/// restore re-extracts them from the records.
#[derive(Debug, Default, Serialize, Deserialize)]
struct SorterState {
    records: Vec<String>,
    seqs: Vec<u64>,
    seq: u64,
    last_wm: i64,
    max_event_ts: i64,
    buffer_peak: u64,
}

/// A held record; ordered by `(key, seq)`.
struct Entry<T, K> {
    key: K,
    seq: u64,
    record: T,
}

impl<T, K: Ord> PartialEq for Entry<T, K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T, K: Ord> Eq for Entry<T, K> {}

impl<T, K: Ord> PartialOrd for Entry<T, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T, K: Ord> Ord for Entry<T, K> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&self.key, self.seq).cmp(&(&other.key, other.seq))
    }
}

impl<T, F, K> EventTimeSorter<T, F, K>
where
    F: FnMut(&T) -> K,
    K: SortKey,
{
    /// Creates a sorter that orders records by the extracted key — a
    /// plain [`Timestamp`], or a `(Timestamp, tie_break)` pair.
    pub fn new(extract: F) -> Self {
        EventTimeSorter {
            extract,
            buf: VecDeque::new(),
            overflow: BinaryHeap::new(),
            seq: 0,
            last_wm: Timestamp::MIN,
            max_event_ts: Timestamp::MIN,
            metrics: SorterMetrics::detached(),
            buffer_peak: 0,
            codec: None,
        }
    }

    /// Attaches metric handles (late records, lag, buffer occupancy).
    pub fn with_metrics(mut self, metrics: SorterMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Enables checkpoint snapshots: with a codec, the sorter's
    /// [`StateSnapshot`] captures its exact state (every held record,
    /// tie-break counter, watermark position).
    pub fn with_state_codec(mut self, codec: SorterStateCodec<T>) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Number of records currently held back.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() + self.overflow.len()
    }

    /// Emits every held record with an event time `<= wm` in `(key,
    /// seq)` order: the sorted ring prefix stream-merged with the
    /// overflow heap.
    fn release_up_to(&mut self, wm: Timestamp, out: &mut Vec<T>) {
        let ready = self.buf.partition_point(|e| e.key.event_time() <= wm);
        if self
            .overflow
            .peek()
            .is_none_or(|h| h.0.key.event_time() > wm)
        {
            // Fast path: nothing heaped is due, pop the prefix.
            out.extend(self.buf.drain(..ready).map(|e| e.record));
            return;
        }
        let mut from_buf = self.buf.drain(..ready).peekable();
        loop {
            let heap_due = self.overflow.peek().filter(|h| h.0.key.event_time() <= wm);
            let record = match (from_buf.peek(), heap_due) {
                (Some(b), Some(h)) if h.0 < *b => self.overflow.pop().map(|h| h.0.record),
                (Some(_), _) => from_buf.next().map(|b| b.record),
                (None, Some(_)) => self.overflow.pop().map(|h| h.0.record),
                (None, None) => break,
            };
            out.push(record.expect("peeked entry is there"));
        }
    }

    /// Releases up to `wm` inside a `sorter_release` trace span and
    /// publishes the staged occupancy peak.
    fn traced_release(&mut self, wm: Timestamp, out: &mut Vec<T>) {
        let held = self.buffered() as u64;
        let mut span = trace::span("sorter_release", "stage");
        if let Some(s) = span.as_mut() {
            s.arg("held", held);
        }
        self.release_up_to(wm, out);
        drop(span);
        self.metrics.buffer_max.set_max(self.buffer_peak);
    }
}

impl<T, F, K> StateSnapshot for EventTimeSorter<T, F, K>
where
    F: FnMut(&T) -> K,
    K: SortKey,
{
    /// `None` without a codec, or when any record fails to encode (a
    /// snapshot with holes would violate the byte-identical recovery
    /// invariant, so none is taken at all).
    fn snapshot_state(&self) -> Option<String> {
        let codec = self.codec.as_ref()?;
        let mut state = SorterState {
            seq: self.seq,
            last_wm: self.last_wm.millis(),
            max_event_ts: self.max_event_ts.millis(),
            buffer_peak: self.buffer_peak,
            ..SorterState::default()
        };
        // Release order is the one canonical order of the held set:
        // `BinaryHeap` iteration is arbitrary, and equal runs must
        // produce byte-identical frames. The ring is already sorted, so
        // this sort only places the (few) heaped entries.
        let mut held: Vec<&Entry<T, K>> = self
            .buf
            .iter()
            .chain(self.overflow.iter().map(|h| &h.0))
            .collect();
        held.sort();
        for e in held {
            state.records.push((codec.encode)(&e.record)?);
            state.seqs.push(e.seq);
        }
        serde_json::to_string(&state).ok()
    }

    /// Restores every held record into the ring (a sorted ring with an
    /// empty heap releases exactly like the ring + heap it was
    /// captured from).
    fn restore_state(&mut self, state: &str) -> Result<()> {
        let Some(codec) = self.codec.as_ref() else {
            return Err(Error::config("sorter restore requires a state codec"));
        };
        let s: SorterState =
            serde_json::from_str(state).map_err(|_| Error::parse(state, "SorterState"))?;
        if s.records.len() != s.seqs.len() {
            return Err(Error::parse(state, "SorterState"));
        }
        self.buf.clear();
        self.overflow.clear();
        for (doc, seq) in s.records.iter().zip(&s.seqs) {
            let record =
                (codec.decode)(doc).ok_or_else(|| Error::parse(doc.as_str(), "sorter record"))?;
            let entry = Entry {
                key: (self.extract)(&record),
                seq: *seq,
                record,
            };
            if self.buf.back().is_some_and(|tail| *tail > entry) {
                return Err(Error::parse(state, "SorterState (records out of order)"));
            }
            self.buf.push_back(entry);
        }
        self.seq = s.seq;
        self.last_wm = Timestamp(s.last_wm);
        self.max_event_ts = Timestamp(s.max_event_ts);
        self.buffer_peak = s.buffer_peak;
        Ok(())
    }
}

impl<T, F, K> EventTimeSorter<T, F, K>
where
    F: FnMut(&T) -> K,
    K: SortKey,
{
    /// Takes one record into the buffer, to leave at the watermark
    /// that closes its event time.
    pub fn on_element(&mut self, record: T) {
        let key = (self.extract)(&record);
        let ts = key.event_time();
        if ts > self.max_event_ts {
            self.max_event_ts = ts;
        }
        // A record at or below the current watermark broke the
        // watermark's promise: it is late. It is never dropped — it goes
        // into the buffer and surfaces out of order downstream — but it
        // is counted, with its lag behind the watermark.
        if ts <= self.last_wm && self.last_wm != Timestamp::MIN {
            self.metrics.late.inc();
            self.metrics
                .late_lag_ms
                .record((self.last_wm.0.saturating_sub(ts.0)).max(0) as u64);
        }
        if self.buf.capacity() == 0 {
            self.buf.reserve(INITIAL_BUFFER_CAPACITY);
        }
        self.seq += 1;
        let entry = Entry {
            key,
            seq: self.seq,
            record,
        };
        match self.buf.back() {
            // Out of order: a short in-ring insert after all
            // equal-or-earlier keys, or — when the slot is far from
            // both ends — the overflow heap.
            Some(tail) if tail.key > key => {
                let at = self.buf.partition_point(|e| e.key <= key);
                if at.min(self.buf.len() - at) <= MAX_INSERT_SHIFT {
                    self.buf.insert(at, entry);
                } else {
                    self.metrics.heaped.inc();
                    self.overflow.push(Reverse(entry));
                }
            }
            // In order (the common case): append.
            _ => self.buf.push_back(entry),
        }
        self.buffer_peak = self.buffer_peak.max(self.buffered() as u64);
    }

    /// The watermark advances to `wm`: every held record with an event
    /// time `<= wm` is appended to `out`, in key order.
    pub fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<T>) {
        if wm > self.last_wm {
            self.last_wm = wm;
        }
        // How far the watermark trails the freshest event time seen —
        // the live reorder-latency signal the telemetry sampler turns
        // into a time series. The end-of-stream `W(MAX)` sentinel and
        // the pre-first-record state are excluded.
        if self.max_event_ts != Timestamp::MIN && wm != Timestamp::MAX {
            self.metrics
                .watermark_lag_ms
                .set(self.max_event_ts.0.saturating_sub(wm.0).max(0) as u64);
        }
        self.traced_release(wm, out);
    }

    /// End of stream: everything still held is appended to `out`.
    pub fn on_end(&mut self, out: &mut Vec<T>) {
        self.traced_release(Timestamp::MAX, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorter(
    ) -> EventTimeSorter<(i64, &'static str), impl FnMut(&(i64, &'static str)) -> Timestamp> {
        EventTimeSorter::new(|r: &(i64, &'static str)| Timestamp(r.0))
    }

    #[test]
    fn holds_until_watermark() {
        let mut s = sorter();
        let mut out = Vec::new();
        s.on_element((5, "a"));
        s.on_element((3, "b"));
        assert!(out.is_empty());
        assert_eq!(s.buffered(), 2);
        s.on_watermark(Timestamp(4), &mut out);
        assert_eq!(out, vec![(3, "b")]);
        assert_eq!(s.buffered(), 1);
    }

    #[test]
    fn emits_in_timestamp_order() {
        let mut s = sorter();
        let mut out = Vec::new();
        for r in [(5, "a"), (1, "b"), (3, "c"), (2, "d")] {
            s.on_element(r);
        }
        s.on_watermark(Timestamp(10), &mut out);
        assert_eq!(out, vec![(1, "b"), (2, "d"), (3, "c"), (5, "a")]);
    }

    #[test]
    fn stable_on_equal_timestamps() {
        let mut s = sorter();
        let mut out = Vec::new();
        for r in [(1, "first"), (1, "second"), (1, "third")] {
            s.on_element(r);
        }
        s.on_end(&mut out);
        assert_eq!(out, vec![(1, "first"), (1, "second"), (1, "third")]);
    }

    #[test]
    fn end_flushes_everything() {
        let mut s = sorter();
        let mut out = Vec::new();
        s.on_element((9, "z"));
        s.on_element((2, "y"));
        s.on_end(&mut out);
        assert_eq!(out, vec![(2, "y"), (9, "z")]);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn records_arriving_between_watermarks_interleave_correctly() {
        let mut s = sorter();
        let mut out = Vec::new();
        s.on_element((1, "a"));
        s.on_watermark(Timestamp(1), &mut out);
        s.on_element((3, "c"));
        s.on_element((2, "b"));
        s.on_watermark(Timestamp(3), &mut out);
        assert_eq!(out, vec![(1, "a"), (2, "b"), (3, "c")]);
    }

    type I64Sorter = EventTimeSorter<i64, fn(&i64) -> Timestamp>;

    fn i64_sorter() -> I64Sorter {
        fn ts(x: &i64) -> Timestamp {
            Timestamp(*x)
        }
        EventTimeSorter::new(ts as fn(&i64) -> Timestamp).with_state_codec(SorterStateCodec::new(
            |x: &i64| Some(x.to_string()),
            |s: &str| s.parse().ok(),
        ))
    }

    /// Snapshot → restore → snapshot is the identity, and both sorters
    /// drain identically from there on.
    fn assert_round_trip(mut s: I64Sorter, wm: i64) {
        let doc = s.snapshot_state().expect("codec installed");
        let mut r = i64_sorter();
        r.restore_state(&doc).unwrap();
        assert_eq!(r.buffered(), s.buffered());
        assert_eq!(r.snapshot_state().unwrap(), doc);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        s.on_watermark(Timestamp(wm), &mut a);
        r.on_watermark(Timestamp(wm), &mut b);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "the watermark must release something");
        s.on_end(&mut a);
        r.on_end(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_round_trips_buffer_heap_and_position() {
        let mut s = i64_sorter();
        let mut out = Vec::new();
        // Populate the sorted ring…
        for x in 0..200i64 {
            s.on_element(x * 10);
        }
        s.on_watermark(Timestamp(5), &mut out);
        // …and force two entries into the overflow heap (landing more
        // than MAX_INSERT_SHIFT slots from both ends).
        s.on_element(995);
        s.on_element(995);
        assert!(s.overflow.len() == 2, "test must exercise the heap path");
        assert_round_trip(s, 1_200);
    }

    #[test]
    fn snapshot_round_trips_a_wrapped_ring() {
        let mut s = i64_sorter();
        let mut out = Vec::new();
        // Fill the initial allocation, release most of it, and refill
        // past the physical end: the live entries now straddle the
        // wrap-around point of the ring's storage.
        for x in 0..250i64 {
            s.on_element(x);
        }
        s.on_watermark(Timestamp(199), &mut out);
        for x in 250..400i64 {
            s.on_element(x);
        }
        let (front, back) = s.buf.as_slices();
        assert!(
            !front.is_empty() && !back.is_empty(),
            "test must snapshot a wrapped ring"
        );
        assert_eq!(out, (0..200).collect::<Vec<i64>>());
        assert_round_trip(s, 300);
    }

    #[test]
    fn restore_rejects_records_out_of_release_order() {
        let mut s = i64_sorter();
        s.on_element(1);
        s.on_element(2);
        let doc = s.snapshot_state().unwrap();
        let swapped = doc.replacen("[\"1\",\"2\"]", "[\"2\",\"1\"]", 1);
        assert_ne!(swapped, doc, "the fixture must contain the record list");
        assert!(i64_sorter().restore_state(&swapped).is_err());
    }

    #[test]
    fn secondary_key_orders_ties_independently_of_arrival() {
        // (ts, lane, tag): lane 1 delivers before lane 0, as a schedule
        // might; the key puts lane 0 first anyway, and records of
        // one lane keep their arrival order.
        let mut s = EventTimeSorter::new(|r: &(i64, u32, &'static str)| (Timestamp(r.0), r.1));
        let mut out = Vec::new();
        for r in [
            (5, 1, "b1"),
            (5, 1, "b2"),
            (5, 0, "a1"),
            (4, 1, "b0"),
            (5, 0, "a2"),
        ] {
            s.on_element(r);
        }
        s.on_end(&mut out);
        let tags: Vec<&str> = out.iter().map(|r| r.2).collect();
        assert_eq!(tags, vec!["b0", "a1", "a2", "b1", "b2"]);
    }

    #[test]
    fn snapshot_is_none_without_codec() {
        let mut s = sorter();
        s.on_element((5, "a"));
        assert!(s.snapshot_state().is_none());
        assert!(s.restore_state("{}").is_err());
    }

    #[test]
    fn counts_late_records_and_buffer_high_water() {
        use icewafl_obs::MetricsRegistry;
        let r = MetricsRegistry::new();
        let mut s = EventTimeSorter::new(|r: &(i64, &'static str)| Timestamp(r.0))
            .with_metrics(SorterMetrics::register(&r, "sorter"));
        let mut out = Vec::new();
        s.on_element((1, "a"));
        s.on_element((2, "b"));
        s.on_watermark(Timestamp(5), &mut out);
        // ts 3 <= wm 5: late by 2 ms, but still emitted at the end.
        s.on_element((3, "late"));
        s.on_end(&mut out);
        assert_eq!(out, vec![(1, "a"), (2, "b"), (3, "late")]);
        let snap = r.snapshot();
        assert_eq!(snap.counter("sorter/late"), 1);
        assert_eq!(snap.histogram("sorter/late_lag_ms").unwrap().sum, 2);
        assert_eq!(snap.gauge("sorter/buffer_max"), 2);
    }

    #[test]
    fn tracks_watermark_lag_behind_freshest_event() {
        use icewafl_obs::MetricsRegistry;
        let r = MetricsRegistry::new();
        let mut s = EventTimeSorter::new(|r: &(i64, &'static str)| Timestamp(r.0))
            .with_metrics(SorterMetrics::register(&r, "sorter"));
        let mut out = Vec::new();
        s.on_element((10, "a"));
        s.on_watermark(Timestamp(4), &mut out);
        assert_eq!(r.snapshot().gauge("sorter/watermark_lag_ms"), 6);
        s.on_watermark(Timestamp(10), &mut out);
        assert_eq!(r.snapshot().gauge("sorter/watermark_lag_ms"), 0);
        // The end-of-stream sentinel release leaves the gauge untouched.
        s.on_end(&mut out);
        assert_eq!(r.snapshot().gauge("sorter/watermark_lag_ms"), 0);
    }

    #[cfg(test)]
    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Feeds `records` (ts, lane, payload) with a *valid* watermark
        /// every `wm_every` records; returns the emission order and the
        /// most records the overflow heap held at once.
        fn run_keyed(
            records: &[(i64, u32, u32)],
            wm_every: usize,
        ) -> (Vec<(i64, u32, u32)>, usize) {
            let mut s = EventTimeSorter::new(|r: &(i64, u32, u32)| (Timestamp(r.0), r.1));
            let mut out = Vec::new();
            let mut heaped = 0;
            for (i, r) in records.iter().enumerate() {
                s.on_element(*r);
                heaped = heaped.max(s.overflow.len());
                if (i + 1) % wm_every == 0 {
                    // A valid watermark promises no future record has
                    // ts <= wm: cap the max-seen watermark by the
                    // smallest future timestamp minus one.
                    let seen = records[..=i].iter().map(|r| r.0).max().unwrap();
                    let future_min = records[i + 1..]
                        .iter()
                        .map(|r| r.0)
                        .min()
                        .unwrap_or(i64::MAX - 1);
                    s.on_watermark(Timestamp(seen.min(future_min - 1)), &mut out);
                }
            }
            s.on_end(&mut out);
            (out, heaped)
        }

        proptest! {
            /// The sorter emits its input stably sorted by the full
            /// `(ts, lane)` key — exactly `slice::sort_by_key` —
            /// regardless of watermark placement.
            #[test]
            fn emits_the_stable_sort_of_its_input(
                records in proptest::collection::vec((0i64..100, 0u32..4, 0u32..1000), 0..200),
                wm_every in 1usize..10,
            ) {
                let (out, _) = run_keyed(&records, wm_every);
                let mut expected = records.clone();
                expected.sort_by_key(|r| (r.0, r.1));
                prop_assert_eq!(out, expected);
            }

            /// Whole sorted runs arriving far behind the tail — what
            /// inputs handed over one after another deliver — go through the
            /// overflow heap and still come out as the stable sort.
            #[test]
            fn sorted_runs_behind_the_tail_merge_stably(
                run_len in 140usize..300,
                runs in 3usize..6,
                step in 1i64..4,
                wm_every in 1usize..50,
            ) {
                let records: Vec<(i64, u32, u32)> = (0..runs)
                    .flat_map(|run| {
                        (0..run_len).map(move |i| {
                            (i as i64 / step, (run % 2) as u32, (run * run_len + i) as u32)
                        })
                    })
                    .collect();
                let (out, heaped) = run_keyed(&records, wm_every);
                prop_assert!(heaped > 0, "the runs must reach the overflow heap");
                let mut expected = records.clone();
                expected.sort_by_key(|r| (r.0, r.1));
                prop_assert_eq!(out, expected);
            }
        }
    }
}
