//! The polluted stream shares every value no polluter writes with the
//! clean stream and the caller's input: preparing and replaying a tuple
//! costs a reference count, not a copy, and a polluter's first write
//! copies the tuple it writes, never the one the clean stream holds.
//!
//! Strings are shared the same way: a copied tuple holds its clean
//! twin's strings, and the ground-truth log names a polluter by a clone
//! of one shared text.
//!
//! One `#[test]` only: the allocation counter is process-wide.

use icewafl_core::log::{LogEntry, PollutionLog};
use icewafl_core::prelude::*;
use icewafl_types::{DataType, Schema, Text, Timestamp, Tuple, Value};
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
                Value::Str(format!("t{}", i % 7).into()),
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
    allocations_over(plan, stream(n))
}

fn allocations_over(plan: &PhysicalPlan, input: Vec<Tuple>) -> usize {
    let n = input.len();
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = plan.execute(input).unwrap();
    let made = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(out.polluted.len(), n);
    made
}

/// A schema with two categorical string columns, as in the air-quality
/// data, and a stream whose every tuple holds two strings.
fn categorical_schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("x", DataType::Float),
        ("station", DataType::Str),
        ("wd", DataType::Str),
    ])
    .unwrap()
}

fn categorical_stream(n: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 1000)),
                Value::Float(i as f64),
                Value::Str(format!("station-{}", i % 12).into()),
                Value::Str(format!("wd-{}", i % 16).into()),
            ])
        })
        .collect()
}

/// Writes `x` of every tuple and leaves both strings alone.
fn write_every_tuple() -> PhysicalPlan {
    let plan = LogicalPlan::new(
        5,
        vec![vec![PolluterConfig::Standard {
            name: "null-x".into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Always,
            pattern: None,
        }]],
    );
    LogicalPlan {
        logging: false,
        watermark_period: 4096,
        ..plan
    }
    .compile(&categorical_schema())
    .unwrap()
}

/// A polluter's log entries name it by clones of one text, so counting
/// them allocates per distinct name, however many entries there are;
/// so does a log whose names share nothing (one read back from JSON).
fn log_counts_allocate_per_name_not_per_entry() {
    let names: Vec<Text> = ["drop", "dup", "null-x"].map(Text::from).to_vec();
    let log = |n: usize| {
        let mut log = PollutionLog::new();
        for i in 0..n {
            log.record(LogEntry::TupleDropped {
                tuple_id: i as u64,
                polluter: names[i % 7 % 3].clone(),
                tau: Timestamp(i as i64),
            });
        }
        log
    };
    let counted = |log: &PollutionLog| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let counts = log.counts_by_polluter();
        (counts, ALLOCS.load(Ordering::Relaxed) - before)
    };
    let (small, small_allocs) = counted(&log(1_000));
    let (large, large_allocs) = counted(&log(16_000));
    assert_eq!(small.values().sum::<usize>(), 1_000);
    assert_eq!(large.values().sum::<usize>(), 16_000);
    assert_eq!(large.keys().collect::<Vec<_>>(), ["drop", "dup", "null-x"]);
    assert_eq!(small_allocs, large_allocs, "allocations per entry");
    assert!(large_allocs <= 8, "{large_allocs} allocations for 3 names");

    let unshared: PollutionLog =
        serde_json::from_str(&serde_json::to_string(&log(16_000)).unwrap()).unwrap();
    let (counts, allocs) = counted(&unshared);
    assert_eq!(counts, large);
    assert_eq!(allocs, large_allocs);
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

    // Every tuple written, two strings each: the copy of a written
    // tuple is one block, its strings shared with the clean twin. A
    // copy that cloned the strings would cost 3 blocks per tuple.
    let writer = write_every_tuple();
    let n = 10_000;
    let small = allocations_over(&writer, categorical_stream(n));
    let large = allocations_over(&writer, categorical_stream(2 * n));
    assert!(
        large.saturating_sub(small) <= n + n / 10,
        "{small} allocations for {n} written tuples, {large} for {}",
        2 * n
    );
    let out = writer.execute(categorical_stream(1_000)).unwrap();
    for polluted in &out.polluted {
        let clean = &out.clean[polluted.id as usize];
        assert_eq!(polluted.tuple.values()[1], Value::Null);
        assert_ne!(
            polluted.tuple.values().as_ptr(),
            clean.tuple.values().as_ptr()
        );
        for col in [2, 3] {
            let (Value::Str(dirty), Value::Str(twin)) =
                (&polluted.tuple.values()[col], &clean.tuple.values()[col])
            else {
                panic!("tuple {} lost a string", polluted.id);
            };
            assert!(
                Text::ptr_eq(dirty, twin),
                "tuple {}: column {col} was copied",
                polluted.id
            );
        }
    }

    log_counts_allocate_per_name_not_per_entry();
}
