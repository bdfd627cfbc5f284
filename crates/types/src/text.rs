//! Shared immutable strings.
//!
//! A [`Text`] is a UTF-8 string behind one pointer to a single
//! allocation holding a reference count, the length and the bytes.
//! Cloning bumps the count, so the clean and the polluted copy of a
//! tuple, a decoded frame's repeated categories and a polluter's name
//! in every log entry it writes all share one allocation. It is one
//! word wide, which keeps [`Value`](crate::Value) at two words.
//!
//! The header is 8 bytes (a `u32` count and a `u32` length), so a
//! string of up to 16 bytes fits glibc's smallest 32-byte chunk, as a
//! `String`'s buffer does. Empty texts, [`Text::default`] among them,
//! point at one shared static header and allocate nothing.

use std::alloc::{self, Layout};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::{align_of, size_of};
use std::ops::Deref;
use std::ptr::NonNull;
use std::str::Utf8Error;
use std::sync::atomic::{fence, AtomicU32, Ordering as Atomic};

/// What the allocation starts with; the bytes follow it directly.
#[repr(C)]
struct Header {
    /// Holders of this allocation. Never touched on the static empty
    /// header.
    count: AtomicU32,
    /// Byte length of the string. `0` only on the static empty header.
    len: u32,
}

/// The header every empty text points at. Its count is never read or
/// written: clones and drops of an empty text return before reaching it.
static EMPTY: Header = Header {
    count: AtomicU32::new(1),
    len: 0,
};

/// A count above this aborts the process, as `Arc` does: so many live
/// clones mean leaked ones, and the next increments would wrap.
const MAX_COUNT: u32 = i32::MAX as u32;

/// An immutable, reference-counted UTF-8 string one pointer wide.
///
/// It dereferences to `str`, and compares, orders, hashes, prints and
/// serializes exactly as that `str` does, so a `HashMap<Text, _>` can
/// be looked up by `&str`.
///
/// ```
/// use icewafl_types::Text;
/// let a = Text::from("Aotizhongxin");
/// let b = a.clone();
/// assert!(Text::ptr_eq(&a, &b), "a clone shares the allocation");
/// assert_eq!(b, "Aotizhongxin");
/// assert_eq!(b.len(), 12);
/// ```
pub struct Text {
    ptr: NonNull<Header>,
}

// SAFETY: a `Text` is a shared handle to bytes nobody mutates after
// construction; the only shared mutable state is the atomic count,
// updated with atomic operations. So it may be sent to and shared
// between threads, like `Arc<str>`.
unsafe impl Send for Text {}
// SAFETY: as for `Send`: `&Text` only reads the immutable bytes and
// length, and `clone` updates the count atomically.
unsafe impl Sync for Text {}

/// The layout of an allocation holding `len` bytes.
fn layout(len: usize) -> Layout {
    Layout::from_size_align(size_of::<Header>() + len, align_of::<Header>())
        .expect("a text no longer than u32::MAX bytes has a valid layout")
}

impl Text {
    /// A text of `len` bytes, the only holder of its allocation; the
    /// bytes are zeros when `zeroed`, otherwise uninitialised.
    ///
    /// # Safety
    ///
    /// Unless `zeroed`, the caller must write all `len` bytes, as UTF-8,
    /// before the text is read.
    unsafe fn allocate(len: usize, zeroed: bool) -> Text {
        if len == 0 {
            return Text::default();
        }
        let Ok(len32) = u32::try_from(len) else {
            panic!("text length {len} overflows u32");
        };
        let layout = layout(len);
        // SAFETY: the layout's size is at least the header's 8 bytes,
        // so it is non-zero.
        let raw = unsafe {
            if zeroed {
                alloc::alloc_zeroed(layout)
            } else {
                alloc::alloc(layout)
            }
        };
        let Some(ptr) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `ptr` is a fresh allocation of `layout`, large and
        // aligned enough for a `Header`, and nothing else refers to it.
        unsafe {
            ptr.as_ptr().write(Header {
                count: AtomicU32::new(1),
                len: len32,
            })
        };
        Text { ptr }
    }

    /// A text of `len` bytes that `fill` writes, starting from zeros.
    /// The bytes `fill` leaves must be UTF-8; otherwise the text is
    /// dropped and the error returned. Decoders that know a string's
    /// exact length before they have its bytes (an escaped JSON string)
    /// build it in its one allocation this way.
    ///
    /// Panics if `len` exceeds `u32::MAX`.
    pub fn fill_utf8(len: usize, fill: impl FnOnce(&mut [u8])) -> Result<Text, Utf8Error> {
        // SAFETY: zeroed bytes are UTF-8.
        let mut text = unsafe { Text::allocate(len, true) };
        if len > 0 {
            // SAFETY: `text` was just allocated with `len` initialised
            // (zero) bytes after its header and is their only holder,
            // so no other reference to them exists while `bytes` lives.
            let bytes = unsafe { std::slice::from_raw_parts_mut(text.bytes_ptr_mut(), len) };
            fill(bytes);
            std::str::from_utf8(bytes)?;
        }
        Ok(text)
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        let len = self.header().len as usize;
        // SAFETY: the `len` bytes after the header were initialised from
        // a `str` or checked to be UTF-8 when the text was built, and
        // are never written again. The empty text's pointer is one past
        // its static header, which is valid for a read of zero bytes.
        unsafe {
            let bytes = self.ptr.as_ptr().cast::<u8>().add(size_of::<Header>());
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(bytes, len))
        }
    }

    /// Whether two texts share one allocation. Every empty text shares
    /// the static one.
    #[inline]
    pub fn ptr_eq(a: &Text, b: &Text) -> bool {
        a.ptr == b.ptr
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: `ptr` points at a live header (the static one, or an
        // allocation this handle keeps alive through its count).
        unsafe { self.ptr.as_ref() }
    }

    /// Where the bytes start, for the constructors.
    ///
    /// # Safety
    ///
    /// The text must not be the static empty one.
    unsafe fn bytes_ptr_mut(&mut self) -> *mut u8 {
        // SAFETY: the caller guarantees an allocation of at least the
        // header plus one byte, so one past the header is in bounds.
        unsafe { self.ptr.as_ptr().cast::<u8>().add(size_of::<Header>()) }
    }
}

impl Default for Text {
    /// The empty text; allocates nothing.
    #[inline]
    fn default() -> Self {
        Text {
            ptr: NonNull::from(&EMPTY),
        }
    }
}

impl Clone for Text {
    #[inline]
    fn clone(&self) -> Self {
        let header = self.header();
        if header.len != 0 {
            // Relaxed suffices, as in `Arc`: a new holder is made from an
            // existing one, which keeps the allocation alive meanwhile.
            let old = header.count.fetch_add(1, Atomic::Relaxed);
            if old > MAX_COUNT {
                std::process::abort();
            }
        }
        Text { ptr: self.ptr }
    }
}

impl Drop for Text {
    #[inline]
    fn drop(&mut self) {
        let header = self.header();
        let len = header.len as usize;
        if len == 0 {
            return;
        }
        // A count of one means no other handle exists, so none can be
        // cloned meanwhile: free without a locked instruction. The
        // acquire load pairs with the release decrements of the holders
        // dropped before, as the fence below does for the last holder.
        if header.count.load(Atomic::Acquire) != 1 {
            if header.count.fetch_sub(1, Atomic::Release) != 1 {
                return;
            }
            fence(Atomic::Acquire);
        }
        // SAFETY: this was the last handle to a heap allocation (the
        // static empty text returned above), made by `allocate` with the
        // layout of `len` bytes; nothing reads it after this.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), layout(len)) }
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        // SAFETY: the bytes are copied from `s` below, before `text` is
        // returned.
        let mut text = unsafe { Text::allocate(s.len(), false) };
        if !s.is_empty() {
            // SAFETY: `text` is a fresh non-empty allocation of exactly
            // `s.len()` bytes after its header, held only by `text`.
            unsafe {
                std::ptr::copy_nonoverlapping(s.as_ptr(), text.bytes_ptr_mut(), s.len());
            }
        }
        text
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text::from(s.as_str())
    }
}

impl From<&String> for Text {
    fn from(s: &String) -> Self {
        Text::from(s.as_str())
    }
}

impl PartialEq for Text {
    #[inline]
    fn eq(&self, other: &Text) -> bool {
        Text::ptr_eq(self, other) || self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl serde::Serialize for Text {
    fn to_content(&self) -> serde::Content {
        self.as_str().to_content()
    }
}

impl serde::Deserialize for Text {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        match content {
            serde::Content::Str(s) => Ok(Text::from(s.as_str())),
            other => Err(serde::Error::unexpected("a string", other)),
        }
    }
}
