//! The operator abstraction and the basic stateless operators.

use icewafl_types::Timestamp;

/// Receives the records an operator emits.
///
/// Operators never talk to channels or downstream stages directly — they
/// emit through a `Collector`, which keeps them testable in isolation
/// (collect into a `Vec`) and lets the runtime decide where records go.
pub trait Collector<T> {
    /// Emits one record downstream.
    fn collect(&mut self, record: T);
}

impl<T> Collector<T> for Vec<T> {
    fn collect(&mut self, record: T) {
        self.push(record);
    }
}

/// A (possibly stateful) stream transformation from `In` records to `Out`
/// records.
///
/// An operator may emit zero, one, or many records per input — that is
/// exactly the freedom Icewafl's temporal polluters need (a *dropped
/// tuple* emits zero, a *duplicate* emits two, a *delayed tuple* emits
/// later, from [`on_watermark`](Operator::on_watermark)).
///
/// The runtime forwards watermarks and the end marker downstream *after*
/// the respective callback, so operators only need to flush state they
/// hold back.
pub trait Operator<In, Out>: Send {
    /// Processes one input record.
    fn on_element(&mut self, record: In, out: &mut dyn Collector<Out>);

    /// Called when the event-time watermark advances to `wm`. Operators
    /// holding back records release everything with event time `≤ wm`
    /// here.
    fn on_watermark(&mut self, wm: Timestamp, out: &mut dyn Collector<Out>) {
        let _ = (wm, out);
    }

    /// Called once when the input is exhausted; flush any remaining
    /// state.
    fn on_end(&mut self, out: &mut dyn Collector<Out>) {
        let _ = out;
    }

    /// A short name for diagnostics.
    fn name(&self) -> &'static str {
        "operator"
    }
}

/// 1:1 record transformation.
pub struct MapOperator<F> {
    f: F,
}

impl<F> MapOperator<F> {
    /// Wraps a mapping function.
    pub fn new(f: F) -> Self {
        MapOperator { f }
    }
}

impl<In, Out, F> Operator<In, Out> for MapOperator<F>
where
    F: FnMut(In) -> Out + Send,
{
    fn on_element(&mut self, record: In, out: &mut dyn Collector<Out>) {
        out.collect((self.f)(record));
    }

    fn name(&self) -> &'static str {
        "map"
    }
}

/// Keeps records matching a predicate.
pub struct FilterOperator<F> {
    predicate: F,
}

impl<F> FilterOperator<F> {
    /// Wraps a predicate.
    pub fn new(predicate: F) -> Self {
        FilterOperator { predicate }
    }
}

impl<T, F> Operator<T, T> for FilterOperator<F>
where
    F: FnMut(&T) -> bool + Send,
{
    fn on_element(&mut self, record: T, out: &mut dyn Collector<T>) {
        if (self.predicate)(&record) {
            out.collect(record);
        }
    }

    fn name(&self) -> &'static str {
        "filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<O: Operator<i32, i32>>(op: &mut O, input: &[i32]) -> Vec<i32> {
        let mut out = Vec::new();
        for &x in input {
            op.on_element(x, &mut out);
        }
        op.on_end(&mut out);
        out
    }

    #[test]
    fn map_transforms_every_record() {
        let mut op = MapOperator::new(|x: i32| x * 2);
        assert_eq!(drive(&mut op, &[1, 2, 3]), vec![2, 4, 6]);
        assert_eq!(Operator::<i32, i32>::name(&op), "map");
    }

    #[test]
    fn filter_keeps_matching() {
        let mut op = FilterOperator::new(|x: &i32| x % 2 == 0);
        assert_eq!(drive(&mut op, &[1, 2, 3, 4]), vec![2, 4]);
    }

    #[test]
    fn default_watermark_and_end_are_noops() {
        struct Identity;
        impl Operator<i32, i32> for Identity {
            fn on_element(&mut self, r: i32, out: &mut dyn Collector<i32>) {
                out.collect(r);
            }
        }
        let mut op = Identity;
        let mut out = Vec::new();
        op.on_watermark(Timestamp(5), &mut out);
        op.on_end(&mut out);
        assert!(out.is_empty());
        assert_eq!(op.name(), "operator");
    }
}
