//! The polluted stream shares every value no polluter writes with the
//! clean stream and the caller's input: preparing and replaying a tuple
//! costs a reference count, not a copy, and a polluter's first write
//! copies the tuple it writes, never the one the clean stream holds.
//!
//! One `#[test]` only: the allocation counter is process-wide.

use icewafl_core::prelude::*;
use icewafl_types::{DataType, Schema, Timestamp, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts calls that hand out memory: `alloc`s and `realloc`s.
struct Counted;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter beside it touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was allocated above by `System` with `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `p` was allocated above by `System` with `layout`;
        // the caller vouches for `new_size`.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counted = Counted;

fn schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("x", DataType::Float),
        ("tag", DataType::Str),
    ])
    .unwrap()
}

fn stream(n: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 1000)),
                Value::Float(i as f64),
                Value::Str(format!("t{}", i % 7)),
            ])
        })
        .collect()
}

/// Two value polluters on one sub-stream, both firing with
/// probability `p`. The ground-truth log is off, so a run that fires
/// nothing has nothing per tuple to record; the watermark period is
/// long, because the runtime allocates a few frame buffers per
/// watermark, and the count here is about what it allocates per tuple.
fn plan(p: f64) -> PhysicalPlan {
    let polluter = |name: &str, attr: &str, error| PolluterConfig::Standard {
        name: name.into(),
        attributes: vec![attr.into()],
        error,
        condition: ConditionConfig::Probability { p },
        pattern: None,
    };
    let plan = LogicalPlan::new(
        3,
        vec![vec![
            polluter("null-x", "x", ErrorConfig::MissingValue),
            polluter("null-tag", "tag", ErrorConfig::MissingValue),
        ]],
    );
    LogicalPlan {
        logging: false,
        watermark_period: 4096,
        ..plan
    }
    .compile(&schema())
    .unwrap()
}

/// Allocations made by executing `plan` over `n` tuples, counting
/// neither building the input nor dropping the output.
fn allocations(plan: &PhysicalPlan, n: usize) -> usize {
    let input = stream(n);
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = plan.execute(input).unwrap();
    let made = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(out.polluted.len(), n);
    made
}

#[test]
fn unwritten_values_are_shared_and_written_ones_copied() {
    // No polluter fires: the run's allocations do not grow per tuple.
    // A copy of each tuple would cost a block for its values and one
    // for its string, 6n more for the larger run.
    let silent = plan(0.0);
    let n = 10_000;
    let small = allocations(&silent, n);
    let large = allocations(&silent, 4 * n);
    assert!(
        large.saturating_sub(small) < n / 16,
        "{small} allocations for {n} tuples, {large} for {}",
        4 * n
    );

    // Every polluted tuple holds its clean twin's values.
    let input = stream(1_000);
    let out = silent.execute(input.clone()).unwrap();
    assert_eq!(out.polluted.len(), out.clean.len());
    for polluted in &out.polluted {
        let clean = &out.clean[polluted.id as usize];
        assert_eq!(clean.id, polluted.id);
        assert_eq!(
            polluted.tuple.values().as_ptr(),
            clean.tuple.values().as_ptr(),
            "tuple {} was copied though nothing wrote it",
            polluted.id
        );
    }

    // Every tuple written: the writes land in copies, while the clean
    // stream and the input the caller kept still hold the values it
    // prepared.
    let out = plan(1.0).execute(input.clone()).unwrap();
    assert_eq!(out.clean.len(), input.len());
    for (clean, kept) in out.clean.iter().zip(&input) {
        assert_eq!(&clean.tuple, kept);
        assert_eq!(clean.tuple.values().as_ptr(), kept.values().as_ptr());
    }
    assert_eq!(input, stream(1_000));
    for polluted in &out.polluted {
        assert_eq!(polluted.tuple.values()[1], Value::Null);
        assert_eq!(polluted.tuple.values()[2], Value::Null);
    }
}
