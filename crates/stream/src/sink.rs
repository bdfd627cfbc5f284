//! Stream sinks.

use parking_lot::Mutex;
use std::sync::Arc;

/// Consumes the records that reach the end of a pipeline.
pub trait Sink<T>: Send {
    /// Accepts one record.
    fn write(&mut self, record: T);

    /// Called once after the last record.
    fn finish(&mut self) {}
}

/// Collects records into a shared vector that outlives the pipeline.
///
/// `SharedVecSink` is cloneable; [`SharedVecSink::take`] extracts the
/// collected records after execution.
pub struct SharedVecSink<T> {
    items: Arc<Mutex<Vec<T>>>,
}

impl<T> SharedVecSink<T> {
    /// Creates an empty shared sink.
    pub fn new() -> Self {
        SharedVecSink {
            items: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Removes and returns everything collected so far.
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut self.items.lock())
    }
}

impl<T> Default for SharedVecSink<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Clone for SharedVecSink<T> {
    fn clone(&self) -> Self {
        SharedVecSink {
            items: Arc::clone(&self.items),
        }
    }
}

impl<T: Send> Sink<T> for SharedVecSink<T> {
    fn write(&mut self, record: T) {
        self.items.lock().push(record);
    }
}

/// Counts records, sharing the count with the caller.
pub struct CountSink {
    count: Arc<Mutex<u64>>,
}

impl CountSink {
    /// Creates a zeroed counting sink.
    pub fn new() -> Self {
        CountSink {
            count: Arc::new(Mutex::new(0)),
        }
    }

    /// The number of records seen so far.
    pub fn count(&self) -> u64 {
        *self.count.lock()
    }
}

impl Default for CountSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for CountSink {
    fn clone(&self) -> Self {
        CountSink {
            count: Arc::clone(&self.count),
        }
    }
}

impl<T: Send> Sink<T> for CountSink {
    fn write(&mut self, _record: T) {
        *self.count.lock() += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_vec_sink_collects_across_clones() {
        let sink = SharedVecSink::new();
        let mut writer = sink.clone();
        writer.write(1);
        writer.write(2);
        assert_eq!(sink.take(), vec![1, 2]);
        assert_eq!(sink.take(), Vec::<i32>::new());
    }

    #[test]
    fn count_sink_counts() {
        let sink = CountSink::new();
        let mut writer = sink.clone();
        for i in 0..5 {
            Sink::<i32>::write(&mut writer, i);
        }
        assert_eq!(sink.count(), 5);
    }
}
