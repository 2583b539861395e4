//! Offline stand-in for the `bytes` crate (see `shims/README.md`).
//!
//! Provides a cheaply cloneable, sliceable, immutable byte buffer. What
//! backs a [`Bytes`] depends on how it was made, and so does what is and
//! is not a copy:
//!
//! * [`Bytes::from`]`(Vec<u8>)` **adopts** the vector: the `Vec` is moved
//!   behind an `Arc`, its heap allocation is kept, and no payload byte is
//!   copied (the one allocation is the `Arc`'s small control block).
//! * [`Bytes::copy_from_slice`] is one allocation and one copy
//!   (`Arc<[u8]>`, counts and bytes in the same block).
//! * [`Bytes::new`], [`Bytes::default`], [`Bytes::from_static`] and an
//!   empty `Vec` borrow a `'static` slice and allocate nothing.
//! * `clone` and [`Bytes::slice`] bump a refcount and share the backing
//!   store; [`Bytes::to_vec`] is the only way bytes leave by copy.
//!
//! That is the property the message fabric relies on: a payload encoded
//! into a `Vec` is handed to the transport by move, a broadcast buffer is
//! reference-counted rather than copied per destination, and a receiver
//! reads the very allocation the sender filled.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The backing store; see the module docs for which constructor picks
/// which.
#[derive(Clone)]
enum Backing {
    Static(&'static [u8]),
    Slice(Arc<[u8]>),
    Vec(Arc<Vec<u8>>),
}

/// An immutable, reference-counted byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Backing,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer. Does not allocate.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Buffer viewing a static slice. Neither allocates nor copies.
    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: Backing::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Buffer holding a copy of `data`: one allocation, one copy.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes {
            data: Backing::Slice(Arc::from(data)),
            start: 0,
            end: data.len(),
        }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this buffer sharing the same backing allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted, matching the
    /// real crate's contract.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice range {lo}..{hi} out of bounds for length {len}"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The view as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        let whole: &[u8] = match &self.data {
            Backing::Static(s) => s,
            Backing::Slice(a) => a,
            Backing::Vec(v) => v,
        };
        &whole[self.start..self.end]
    }

    /// Copy the view out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Adopts the vector: its allocation becomes the backing store, no byte
/// is copied. An empty vector becomes [`Bytes::new`].
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        let end = v.len();
        Bytes {
            data: Backing::Vec(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod test_alloc {
    //! A counting global allocator for the shim's unit tests, so what each
    //! constructor allocates is measured rather than asserted. Counts are
    //! per-thread so concurrently running tests don't pollute each other.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct CountingAlloc;

    // SAFETY: delegates entirely to `System`; the counter uses
    // `try_with` so allocation during thread-local teardown is safe.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: Layout,
            new_size: usize,
        ) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// Heap allocations (including reallocations) `f` makes on this thread.
    pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let count = || ALLOCS.try_with(Cell::get).unwrap_or(0);
        let before = count();
        let out = f();
        (out, count() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::test_alloc::allocations_in;
    use super::*;

    #[test]
    fn slice_shares_backing() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[1, 2, 3]);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[2, 3]);
        assert_eq!(s2.as_ptr(), b[2..].as_ptr());
    }

    #[test]
    fn from_vec_adopts_the_vectors_allocation() {
        let v = vec![7u8; 4096];
        let at = v.as_ptr();
        let (b, allocs) = allocations_in(|| Bytes::from(v));
        assert_eq!(b.as_ptr(), at);
        // The `Arc`'s control block; the 4 KiB are not reallocated.
        assert_eq!(allocs, 1);
        let (views, allocs) = allocations_in(|| (b.clone(), b.slice(16..)));
        assert_eq!(allocs, 0);
        assert_eq!(views.0.as_ptr(), at);
        assert_eq!(views.1.as_ptr(), at.wrapping_add(16));
        // The views keep the allocation alive after the original is gone.
        drop(b);
        assert_eq!(views.1, vec![7u8; 4096 - 16]);
    }

    #[test]
    fn empty_and_static_buffers_allocate_nothing() {
        static TEXT: &[u8] = b"static";
        let (made, allocs) = allocations_in(|| {
            [
                Bytes::new(),
                Bytes::default(),
                Bytes::from(Vec::new()),
                Bytes::copy_from_slice(&[]),
                Bytes::from_static(TEXT),
            ]
        });
        assert_eq!(allocs, 0);
        assert!(made[..4].iter().all(Bytes::is_empty));
        assert_eq!(made[4].as_ptr(), TEXT.as_ptr());
    }

    #[test]
    fn copy_from_slice_is_one_allocation() {
        let src = [3u8; 1024];
        let (b, allocs) = allocations_in(|| Bytes::copy_from_slice(&src));
        assert_eq!(allocs, 1);
        assert_eq!(b, src[..]);
        assert_ne!(b.as_ptr(), src.as_ptr());
    }

    #[test]
    fn equality_and_indexing() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        let a = Bytes::copy_from_slice(b"he\"llo\n");
        let b = Bytes::from_static(b"he\"llo\n");
        let c = Bytes::from(b"xhe\"llo\n".to_vec()).slice(1..);
        for other in [&b, &c] {
            assert_eq!(&a, other);
            assert_eq!(hash(&a), hash(other));
            assert_eq!(format!("{a:?}"), format!("{other:?}"));
        }
        assert_eq!(format!("{a:?}"), r#"b"he\"llo\n""#);
        assert_eq!(&a[..2], b"he");
        assert_eq!(a.len(), 7);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1u8, 2]);
        let _ = b.slice(0..3);
    }
}
