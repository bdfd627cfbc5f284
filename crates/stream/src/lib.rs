//! # icewafl-stream
//!
//! The stream-processing parts of the Icewafl reproduction: what the
//! original, a library of Apache Flink operators, takes from Flink.
//!
//! Algorithm 1 runs as one session loop in `icewafl-core`, built from
//! these parts:
//!
//! * a [watermark generator](watermark::WatermarkGenerator) per
//!   [`WatermarkStrategy`](watermark::WatermarkStrategy), closing
//!   event-time periods as records pass;
//! * the [`EventTimeSorter`](sort::EventTimeSorter), which holds
//!   records back and releases them in event-time order as watermarks
//!   advance (line 11's `sortByTimestamp`);
//! * the [`chaos`] injector, which breaks the runtime on purpose, the
//!   typed [`fault`]s a failed step reports, and the
//!   [`Supervisor`](supervisor::Supervisor) policy that retries them;
//! * [`checkpoint`] frames with their write-ahead log, and the
//!   [`ControlChannel`](control::ControlChannel) reconfigurations ride
//!   on.
//!
//! Next to them sit tumbling event-time
//! [windows](window::TumblingWindow), which the DQ monitor validates,
//! and the [`net`] framing serve sessions speak. Each part is a plain type its caller drives in a loop, writing
//! what it emits into a `Vec`:
//!
//! ```
//! use icewafl_stream::sort::EventTimeSorter;
//! use icewafl_stream::watermark::WatermarkStrategy;
//! use icewafl_types::{Duration, Timestamp};
//!
//! // Records up to 2 ms out of order, a watermark after every record.
//! let mut watermarks = WatermarkStrategy::bounded_out_of_orderness(
//!     |x: &i64| Timestamp(*x),
//!     Duration::from_millis(2),
//!     1,
//! )
//! .generator();
//! let mut sorter = EventTimeSorter::new(|x: &i64| Timestamp(*x));
//! let mut out = Vec::new();
//! for x in [3i64, 1, 2, 6, 4, 5] {
//!     let wm = watermarks.on_record(&x);
//!     sorter.on_element(x);
//!     if let Some(wm) = wm {
//!         sorter.on_watermark(wm, &mut out);
//!     }
//! }
//! // W(4), after record 6, released what it closed; the end of the
//! // stream releases the rest.
//! assert_eq!(out, vec![1, 2, 3]);
//! sorter.on_end(&mut out);
//! assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod control;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod sort;
pub mod supervisor;
pub mod watermark;
pub mod window;
