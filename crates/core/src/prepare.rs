//! The preparation step (Algorithm 1, lines 1–3).
//!
//! Each raw tuple receives a unique identifier and a replicated
//! timestamp `τ`. The id joins dirty tuples back to their clean
//! originals (ground truth); `τ` drives temporal conditions and is not
//! part of the final output.

use icewafl_stream::{Collector, Operator};
use icewafl_types::{
    ColumnBatch, ColumnData, Result, Schema, StampedTuple, Timestamp, Tuple, Value,
};

/// Stream operator performing the preparation step.
///
/// Tuples whose timestamp attribute is NULL or missing are stamped with
/// the previous tuple's `τ` (or the epoch for a leading NULL), so a
/// dirty input cannot derail event time.
pub struct PrepareOperator {
    ts_idx: usize,
    next_id: u64,
    last_tau: Timestamp,
}

impl PrepareOperator {
    /// Builds the operator for a schema (which must have a timestamp
    /// attribute).
    pub fn new(schema: &Schema) -> Result<Self> {
        Ok(PrepareOperator {
            ts_idx: schema.require_timestamp()?,
            next_id: 0,
            last_tau: Timestamp(0),
        })
    }

    /// Enriches a single tuple.
    pub fn prepare(&mut self, tuple: Tuple) -> StampedTuple {
        let tau = match tuple.get(self.ts_idx) {
            Some(Value::Timestamp(ts)) => *ts,
            _ => self.last_tau,
        };
        self.last_tau = tau;
        let id = self.next_id;
        self.next_id += 1;
        StampedTuple::new(id, tau, tuple)
    }

    /// Stamps every row of a batch whose values are in place, in row
    /// order and exactly as [`prepare`](PrepareOperator::prepare)
    /// stamps a tuple of the same values: the next id, `τ` from the
    /// event-time column (the previous `τ` where it is NULL) and an
    /// arrival time equal to `τ`. One operator may stamp tuples and
    /// batches in any interleaving; the ids and `τ`s continue across
    /// them.
    pub fn prepare_batch(&mut self, batch: &mut ColumnBatch) {
        for row in 0..batch.len() {
            let column = batch.column(self.ts_idx);
            let tau = match column.data() {
                ColumnData::Timestamp(ms) if column.is_valid(row) => Timestamp(ms[row]),
                _ => self.last_tau,
            };
            self.last_tau = tau;
            batch.set_stamp(row, self.next_id, tau, tau);
            self.next_id += 1;
        }
    }
}

impl Operator<Tuple, StampedTuple> for PrepareOperator {
    fn on_element(&mut self, record: Tuple, out: &mut dyn Collector<StampedTuple>) {
        out.collect(self.prepare(record));
    }

    fn name(&self) -> &'static str {
        "prepare"
    }
}

/// Batch helper: prepares a whole vector of tuples.
pub fn prepare_all(schema: &Schema, tuples: Vec<Tuple>) -> Result<Vec<StampedTuple>> {
    let mut op = PrepareOperator::new(schema)?;
    Ok(tuples.into_iter().map(|t| op.prepare(t)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_types::DataType;

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Int)]).unwrap()
    }

    fn raw(ts: i64, x: i64) -> Tuple {
        Tuple::new(vec![Value::Timestamp(Timestamp(ts)), Value::Int(x)])
    }

    #[test]
    fn assigns_sequential_ids_and_tau() {
        let prepared = prepare_all(&schema(), vec![raw(100, 1), raw(200, 2), raw(300, 3)]).unwrap();
        assert_eq!(prepared.len(), 3);
        for (i, t) in prepared.iter().enumerate() {
            assert_eq!(t.id, i as u64);
            assert_eq!(t.tau, Timestamp(100 * (i as i64 + 1)));
            assert_eq!(t.arrival, t.tau);
        }
    }

    #[test]
    fn null_timestamp_inherits_previous_tau() {
        let tuples = vec![
            raw(100, 1),
            Tuple::new(vec![Value::Null, Value::Int(2)]),
            raw(300, 3),
        ];
        let prepared = prepare_all(&schema(), tuples).unwrap();
        assert_eq!(prepared[1].tau, Timestamp(100));
        assert_eq!(prepared[2].tau, Timestamp(300));
    }

    #[test]
    fn leading_null_timestamp_gets_epoch() {
        let tuples = vec![Tuple::new(vec![Value::Null, Value::Int(1)])];
        let prepared = prepare_all(&schema(), tuples).unwrap();
        assert_eq!(prepared[0].tau, Timestamp(0));
    }

    #[test]
    fn requires_timestamp_attribute() {
        let no_ts = Schema::from_pairs([("x", DataType::Int)]).unwrap();
        assert!(PrepareOperator::new(&no_ts).is_err());
    }

    #[test]
    fn batches_are_stamped_as_their_tuples_would_be() {
        let tuples = vec![
            Tuple::new(vec![Value::Null, Value::Int(0)]),
            raw(300, 1),
            Tuple::new(vec![Value::Null, Value::Int(2)]),
            raw(100, 3),
            raw(500, 4),
        ];
        let expected = prepare_all(&schema(), tuples.clone()).unwrap();
        // Stamp the first two as tuples and the rest as a batch.
        let mut op = PrepareOperator::new(&schema()).unwrap();
        let mut got: Vec<StampedTuple> =
            tuples[..2].iter().map(|t| op.prepare(t.clone())).collect();
        let unstamped = tuples[2..]
            .iter()
            .map(|t| StampedTuple::new(0, Timestamp(0), t.clone()))
            .collect();
        let mut batch = ColumnBatch::from_rows(&schema(), unstamped).unwrap();
        op.prepare_batch(&mut batch);
        got.extend(batch.into_rows());
        assert_eq!(got, expected);
    }

    #[test]
    fn works_as_stream_operator() {
        use icewafl_stream::stage::run_operator_simple;
        let op = PrepareOperator::new(&schema()).unwrap();
        let out: Vec<StampedTuple> = run_operator_simple(op, vec![raw(5, 1), raw(6, 2)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].id, 1);
        assert_eq!(out[1].tau, Timestamp(6));
    }
}
