//! `Text`: a clone shares its allocation, the allocation is freed once,
//! by whichever holder goes last, and the text behaves as the `str` it
//! holds wherever one is compared, hashed, printed or serialized.
//!
//! The allocator counts per thread, so the tests of this file can run
//! in parallel without seeing each other's allocations.

use icewafl_types::{StampedTuple, Text, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

thread_local! {
    /// Allocations and frees made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

/// An address to watch, and how many frees, on any thread, released
/// the block holding it.
static WATCHED: AtomicUsize = AtomicUsize::new(0);
static WATCHED_FREES: AtomicUsize = AtomicUsize::new(0);

struct Counted;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the thread-local counters beside it are
// const-initialised, need no destructor and allocate nothing.
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        FREES.with(|n| n.set(n.get() + 1));
        let block = p as usize..p as usize + layout.size();
        if block.contains(&WATCHED.load(Ordering::Relaxed)) {
            WATCHED_FREES.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `p` was allocated above by `System` with `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `p` was allocated above by `System` with `layout`;
        // the caller vouches for `new_size`.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counted = Counted;

/// What `work` returns, and the allocations and frees this thread made
/// doing it.
fn counting<T>(work: impl FnOnce() -> T) -> (T, usize, usize) {
    let (allocs, frees) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = work();
    (
        out,
        ALLOCS.with(Cell::get) - allocs,
        FREES.with(Cell::get) - frees,
    )
}

const _: () = assert!(
    size_of::<Value>() == 16,
    "a value is a tag word and a payload word"
);
const _: () = assert!(size_of::<Text>() == 8, "a text is one pointer");
const _: () = assert!(size_of::<StampedTuple>() == 48);

#[test]
fn a_clone_shares_its_pointer() {
    let a = Text::from("Aotizhongxin");
    let (b, allocs, _) = counting(|| a.clone());
    assert_eq!(allocs, 0);
    assert!(Text::ptr_eq(&a, &b));
    assert_eq!(a.as_ptr(), b.as_ptr());
    let c = Text::from("Aotizhongxin");
    assert!(
        !Text::ptr_eq(&a, &c),
        "equal text built twice is two allocations"
    );
    assert_eq!(a, c);
}

#[test]
fn a_text_is_freed_exactly_once() {
    let ((), allocs, frees) = counting(|| {
        let text = Text::from("Dongsi");
        let clones: Vec<Text> = (0..5).map(|_| text.clone()).collect();
        drop(text);
        for clone in &clones {
            assert_eq!(clone, "Dongsi");
        }
    });
    // One text and the vector of clones.
    assert_eq!((allocs, frees), (2, 2));
    let (_, allocs, frees) = counting(|| drop(Text::from(String::from("Wanliu"))));
    assert_eq!((allocs, frees), (2, 2), "the string and the text");
}

#[test]
fn empty_and_default_texts_allocate_nothing() {
    let (texts, allocs, _) = counting(|| {
        [
            Text::default(),
            Text::from(""),
            Text::from(String::new()),
            Text::fill_utf8(0, |_| unreachable!("nothing to fill")).unwrap(),
        ]
    });
    assert_eq!(allocs, 0);
    let (_, allocs, frees) = counting(|| {
        for text in &texts {
            assert_eq!(text.as_str(), "");
            assert!(text.is_empty());
            drop(text.clone());
        }
        drop(texts);
    });
    assert_eq!((allocs, frees), (0, 0));
    let mut slot = Value::from("taken");
    let (taken, allocs, _) = counting(|| std::mem::take(&mut slot));
    assert_eq!((taken, allocs), (Value::from("taken"), 0));
}

#[test]
fn filled_texts_are_checked_utf8() {
    // The euro sign cut after two of its three bytes.
    let error = Text::fill_utf8(3, |b| b.copy_from_slice(&"a€".as_bytes()[..3])).unwrap_err();
    assert_eq!(error.valid_up_to(), 1);
    let (text, allocs, _) = counting(|| Text::fill_utf8(4, |b| b.copy_from_slice("a€".as_bytes())));
    assert_eq!(text.unwrap(), "a€");
    assert_eq!(allocs, 1);
}

#[test]
fn threads_cloning_and_dropping_one_text_leave_it_intact() {
    const THREADS: usize = 8;
    let text = Text::from("Nongzhanguan");
    WATCHED.store(text.as_ptr() as usize, Ordering::Relaxed);
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..10_000 {
                    let mut clones = vec![text.clone(), text.clone()];
                    clones.push(clones[0].clone());
                    assert_eq!(clones[2], "Nongzhanguan");
                }
            });
        }
    });
    assert_eq!(WATCHED_FREES.load(Ordering::Relaxed), 0, "freed while held");
    assert_eq!(text, "Nongzhanguan");
    drop(text);
    assert_eq!(WATCHED_FREES.load(Ordering::Relaxed), 1);
}

#[test]
fn serde_round_trips_a_text_as_a_json_string() {
    for s in ["", "Huairou", "a\"b\\c\n😀"] {
        let text = Text::from(s);
        let json = serde_json::to_string(&text).unwrap();
        assert_eq!(json, serde_json::to_string(s).unwrap());
        let back: Text = serde_json::from_str(&json).unwrap();
        assert_eq!(back, text);
    }
    assert!(serde_json::from_str::<Text>("7").is_err());
}

#[test]
fn eq_ord_hash_and_display_agree_with_str() {
    let hash = |h: &dyn Fn(&mut DefaultHasher)| {
        let mut hasher = DefaultHasher::new();
        h(&mut hasher);
        hasher.finish()
    };
    let words = ["", "E", "ENE", "N", "NE", "Shunyi", "é"];
    for a in words {
        let ta = Text::from(a);
        assert_eq!(
            hash(&|h| ta.hash(h)),
            hash(&|h| a.hash(h)),
            "{a:?} hashes as its str"
        );
        assert_eq!(ta.to_string(), a);
        assert_eq!(format!("{ta:?}"), format!("{a:?}"));
        for b in words {
            let tb = Text::from(b);
            assert_eq!(ta == tb, a == b);
            assert_eq!(ta.cmp(&tb), a.cmp(b), "{a:?} vs {b:?}");
            assert_eq!(ta.partial_cmp(&tb), a.partial_cmp(b));
        }
    }
    let counts: HashMap<Text, usize> = words.iter().map(|&w| (Text::from(w), w.len())).collect();
    assert_eq!(counts.get("Shunyi"), Some(&6));
    assert_eq!(counts.get("Gucheng"), None);
}
