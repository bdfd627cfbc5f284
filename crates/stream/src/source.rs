//! Stream sources.

/// Produces the records of a stream, pull-style.
///
/// Sources are deliberately minimal: the runtime drives them to
/// exhaustion and handles watermarking separately (see
/// [`crate::watermark`]).
pub trait Source<T>: Send {
    /// The next record, or `None` when the source is exhausted.
    fn next(&mut self) -> Option<T>;

    /// A hint of how many records remain, if known (used by sinks to
    /// pre-allocate).
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// A source over an in-memory vector (test and batch workhorse).
pub struct VecSource<T> {
    items: std::vec::IntoIter<T>,
}

impl<T> VecSource<T> {
    /// Creates a source that yields the vector's items in order.
    pub fn new(items: Vec<T>) -> Self {
        VecSource {
            items: items.into_iter(),
        }
    }
}

impl<T: Send> Source<T> for VecSource<T> {
    fn next(&mut self) -> Option<T> {
        self.items.next()
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.items.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(mut s: impl Source<T>) -> Vec<T> {
        let mut v = Vec::new();
        while let Some(x) = s.next() {
            v.push(x);
        }
        v
    }

    #[test]
    fn vec_source_yields_in_order() {
        let s = VecSource::new(vec![1, 2, 3]);
        assert_eq!(s.size_hint(), Some(3));
        assert_eq!(drain(s), vec![1, 2, 3]);
    }

    #[test]
    fn empty_sources() {
        assert!(drain(VecSource::<i32>::new(vec![])).is_empty());
    }
}
