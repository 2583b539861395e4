//! Managed heap with address-stable allocation (Sections 5.1.3 and 5.1.4).
//!
//! The paper's precompiler supplies its own heap manager so that, on
//! restart, every live object is restored to the virtual address it had in
//! the original process, letting pointers be checkpointed as plain data. We
//! reproduce that with an arena whose "virtual addresses" are stable
//! offsets: an [`HPtr`] is an offset into the arena, so an `HPtr` stored
//! *inside* another heap object round-trips through a checkpoint
//! byte-identically and still points at the same object afterwards.
//!
//! The object table is the paper's Heap Object Structure (HOS): a map from
//! offset to length of every live object. Checkpointing saves the HOS, the
//! free list, and only the live object bytes; restore rebuilds an identical
//! arena.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use ckptstore::codec::{CodecError, Decoder, Encoder, SaveLoad};

/// Scalar types storable in the managed heap and in [`crate::Frame`] slots.
/// Little-endian fixed-width encoding keeps saved bytes portable.
pub trait Scalar: Copy + 'static {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Write the little-endian encoding into `out` (exactly `WIDTH` bytes).
    fn store(self, out: &mut [u8]);
    /// Read a value back from exactly `WIDTH` bytes.
    fn fetch(bytes: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $w:expr) => {
        impl Scalar for $t {
            const WIDTH: usize = $w;
            fn store(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn fetch(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().unwrap())
            }
        }
    };
}

impl_scalar!(u8, 1);
impl_scalar!(u32, 4);
impl_scalar!(i32, 4);
impl_scalar!(u64, 8);
impl_scalar!(i64, 8);
impl_scalar!(f32, 4);
impl_scalar!(f64, 8);

/// A typed "pointer" into the managed heap: a stable offset. `HPtr` values
/// may themselves be stored in heap objects (via [`ManagedHeap::write_ptr`])
/// and remain valid across checkpoint/restore — the paper's Section 5.1.4
/// property.
pub struct HPtr<T: Scalar> {
    off: u32,
    _marker: PhantomData<T>,
}

// Manual impls: derive would bound them on `T: Clone`/`T: Copy`, which is
// unnecessary for an offset.
impl<T: Scalar> Clone for HPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for HPtr<T> {}
impl<T: Scalar> std::fmt::Debug for HPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HPtr({})", self.off)
    }
}
impl<T: Scalar> PartialEq for HPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.off == other.off
    }
}
impl<T: Scalar> Eq for HPtr<T> {}

impl<T: Scalar> HPtr<T> {
    /// The raw stable offset (what actually gets stored in checkpoints).
    pub fn raw(self) -> u32 {
        self.off
    }

    /// Rebuild a pointer from a raw offset previously obtained via
    /// [`HPtr::raw`] or read out of a heap object.
    pub fn from_raw(off: u32) -> Self {
        HPtr {
            off,
            _marker: PhantomData,
        }
    }
}

/// Errors from heap operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The arena has no free extent large enough.
    OutOfMemory {
        /// Bytes the failed allocation asked for.
        requested: usize,
    },
    /// An offset did not name a live object (or the access overran it).
    BadAccess {
        /// The offending offset.
        off: u32,
        /// What was wrong with the access.
        detail: &'static str,
    },
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(
                    f,
                    "managed heap exhausted allocating {requested} bytes"
                )
            }
            HeapError::BadAccess { off, detail } => {
                write!(f, "bad heap access at offset {off}: {detail}")
            }
        }
    }
}

impl std::error::Error for HeapError {}

/// The managed heap: arena + HOS + free list.
#[derive(Debug, Clone)]
pub struct ManagedHeap {
    arena: Vec<u8>,
    /// HOS: offset → length of each live object.
    objects: BTreeMap<u32, u32>,
    /// Free extents (offset → length), kept coalesced.
    free: BTreeMap<u32, u32>,
}

/// Semantic equality: capacity, allocation structure, and the bytes of
/// *live* objects. Dead arena regions are not part of the heap's meaning —
/// checkpoints do not save them (Section 5.1.3 copies only what the HOS
/// describes), so they may differ after a restore.
impl PartialEq for ManagedHeap {
    fn eq(&self, other: &Self) -> bool {
        self.arena.len() == other.arena.len()
            && self.objects == other.objects
            && self.free == other.free
            && self.objects.iter().all(|(&off, &len)| {
                let r = off as usize..(off + len) as usize;
                self.arena[r.clone()] == other.arena[r]
            })
    }
}

impl Eq for ManagedHeap {}

impl ManagedHeap {
    /// Create a heap with a fixed arena capacity (the paper requests "the
    /// same chunk of virtual address space" on restart; fixing capacity up
    /// front models that).
    pub fn new(capacity: usize) -> Self {
        let capacity = u32::try_from(capacity).expect("arena too large");
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        ManagedHeap {
            arena: vec![0; capacity as usize],
            objects: BTreeMap::new(),
            free,
        }
    }

    /// Arena capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.arena.len()
    }

    /// Number of live objects (HOS entries).
    pub fn live_objects(&self) -> usize {
        self.objects.len()
    }

    /// Total bytes in live objects.
    pub fn live_bytes(&self) -> usize {
        self.objects.values().map(|&l| l as usize).sum()
    }

    /// Allocate `len` bytes (zero-initialized); first-fit.
    pub fn alloc_bytes(&mut self, len: usize) -> Result<u32, HeapError> {
        let len32 = u32::try_from(len.max(1))
            .map_err(|_| HeapError::OutOfMemory { requested: len })?;
        let fit = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= len32)
            .map(|(&off, &flen)| (off, flen));
        let (off, flen) =
            fit.ok_or(HeapError::OutOfMemory { requested: len })?;
        self.free.remove(&off);
        if flen > len32 {
            self.free.insert(off + len32, flen - len32);
        }
        self.objects.insert(off, len32);
        self.arena[off as usize..(off + len32) as usize].fill(0);
        Ok(off)
    }

    /// Free the object at `off`, coalescing adjacent free extents.
    pub fn free(&mut self, off: u32) -> Result<(), HeapError> {
        let len = self.objects.remove(&off).ok_or(HeapError::BadAccess {
            off,
            detail: "free of a non-live object",
        })?;
        let mut start = off;
        let mut length = len;
        // Coalesce with the predecessor extent if adjacent.
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            if poff + plen == off {
                self.free.remove(&poff);
                start = poff;
                length += plen;
            }
        }
        // Coalesce with the successor extent if adjacent.
        if let Some(&slen) = self.free.get(&(off + len)) {
            self.free.remove(&(off + len));
            length += slen;
        }
        self.free.insert(start, length);
        Ok(())
    }

    fn object_slice(
        &self,
        off: u32,
        at: usize,
        len: usize,
    ) -> Result<std::ops::Range<usize>, HeapError> {
        let obj_len = *self.objects.get(&off).ok_or(HeapError::BadAccess {
            off,
            detail: "access to a non-live object",
        })? as usize;
        if at + len > obj_len {
            return Err(HeapError::BadAccess {
                off,
                detail: "access overruns the object",
            });
        }
        let base = off as usize + at;
        Ok(base..base + len)
    }

    /// Read raw bytes from within the object at `off`.
    pub fn read_bytes(
        &self,
        off: u32,
        at: usize,
        len: usize,
    ) -> Result<&[u8], HeapError> {
        let range = self.object_slice(off, at, len)?;
        Ok(&self.arena[range])
    }

    /// Write raw bytes into the object at `off`.
    pub fn write_bytes(
        &mut self,
        off: u32,
        at: usize,
        data: &[u8],
    ) -> Result<(), HeapError> {
        let range = self.object_slice(off, at, data.len())?;
        self.arena[range].copy_from_slice(data);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Typed convenience layer
    // ------------------------------------------------------------------

    /// Allocate an array of `n` scalars, returning its typed pointer.
    pub fn alloc_array<T: Scalar>(
        &mut self,
        n: usize,
    ) -> Result<HPtr<T>, HeapError> {
        Ok(HPtr::from_raw(self.alloc_bytes(n * T::WIDTH)?))
    }

    /// Number of `T` elements in the object behind `ptr`.
    pub fn array_len<T: Scalar>(
        &self,
        ptr: HPtr<T>,
    ) -> Result<usize, HeapError> {
        let len =
            *self.objects.get(&ptr.raw()).ok_or(HeapError::BadAccess {
                off: ptr.raw(),
                detail: "length of a non-live object",
            })?;
        Ok(len as usize / T::WIDTH)
    }

    /// Read element `i` of the array behind `ptr`.
    pub fn get<T: Scalar>(
        &self,
        ptr: HPtr<T>,
        i: usize,
    ) -> Result<T, HeapError> {
        Ok(T::fetch(self.read_bytes(
            ptr.raw(),
            i * T::WIDTH,
            T::WIDTH,
        )?))
    }

    /// Write element `i` of the array behind `ptr`.
    pub fn set<T: Scalar>(
        &mut self,
        ptr: HPtr<T>,
        i: usize,
        v: T,
    ) -> Result<(), HeapError> {
        let mut buf = [0u8; 8];
        v.store(&mut buf[..T::WIDTH]);
        self.write_bytes(ptr.raw(), i * T::WIDTH, &buf[..T::WIDTH])
    }

    /// Store a pointer value at byte offset `at` inside the object at
    /// `holder` — pointers are just `u32` data (Section 5.1.4).
    pub fn write_ptr<T: Scalar>(
        &mut self,
        holder: u32,
        at: usize,
        ptr: HPtr<T>,
    ) -> Result<(), HeapError> {
        self.write_bytes(holder, at, &ptr.raw().to_le_bytes())
    }

    /// Load a pointer value from byte offset `at` inside `holder`.
    pub fn read_ptr<T: Scalar>(
        &self,
        holder: u32,
        at: usize,
    ) -> Result<HPtr<T>, HeapError> {
        let bytes = self.read_bytes(holder, at, 4)?;
        Ok(HPtr::from_raw(u32::from_le_bytes(
            bytes.try_into().unwrap(),
        )))
    }
}

impl SaveLoad for ManagedHeap {
    /// Save capacity, HOS, free list, and **live object bytes only** — dead
    /// arena regions are not written, mirroring the paper's use of the HOS
    /// to copy out just the live heap.
    fn save(&self, enc: &mut Encoder) {
        enc.put_usize(self.arena.len());
        enc.put(&self.free);
        enc.put_usize(self.objects.len());
        for (&off, &len) in &self.objects {
            enc.put_u32(off);
            enc.put_u32(len);
            enc.put_bytes(&self.arena[off as usize..(off + len) as usize]);
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let capacity = dec.get_usize()?;
        if u32::try_from(capacity).is_err() {
            return Err(CodecError::new(format!(
                "heap capacity {capacity} exceeds the u32 arena"
            )));
        }
        let mut heap = ManagedHeap::new(capacity);
        heap.free = dec.get()?;
        let nobj = dec.get_usize()?;
        for _ in 0..nobj {
            let off = dec.get_u32()?;
            let len = dec.get_u32()?;
            let bytes = dec.get_bytes()?;
            if bytes.len() != len as usize
                || (off as usize) + bytes.len() > capacity
            {
                return Err(CodecError::new(format!(
                    "heap object at {off} does not fit its record"
                )));
            }
            heap.objects.insert(off, len);
            heap.arena[off as usize..off as usize + bytes.len()]
                .copy_from_slice(bytes);
        }
        // Every extent, free or live, lies in the arena and shares no
        // byte with another: else a later allocation indexes past the
        // arena or hands out a live object's bytes.
        let mut extents: Vec<_> =
            heap.free.iter().chain(&heap.objects).collect();
        extents.sort_unstable();
        let mut end = 0;
        for (&off, &len) in extents {
            if u64::from(off) < end {
                return Err(CodecError::new(format!(
                    "heap extent at {off} overlaps the one before it"
                )));
            }
            end = u64::from(off) + u64::from(len);
        }
        if end > capacity as u64 {
            return Err(CodecError::new("heap extents run past the arena"));
        }
        Ok(heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckptstore::codec::{decode_exact, encode};

    #[test]
    fn alloc_free_reuse() {
        let mut h = ManagedHeap::new(64);
        let a = h.alloc_bytes(16).unwrap();
        let b = h.alloc_bytes(16).unwrap();
        assert_ne!(a, b);
        assert_eq!(h.live_objects(), 2);
        h.free(a).unwrap();
        // First-fit reuses the freed extent.
        let c = h.alloc_bytes(8).unwrap();
        assert_eq!(c, a);
        assert_eq!(h.live_bytes(), 16 + 8);
    }

    #[test]
    fn oom_is_reported() {
        let mut h = ManagedHeap::new(16);
        h.alloc_bytes(16).unwrap();
        assert_eq!(
            h.alloc_bytes(1).unwrap_err(),
            HeapError::OutOfMemory { requested: 1 }
        );
    }

    #[test]
    fn free_coalesces_neighbors() {
        let mut h = ManagedHeap::new(48);
        let a = h.alloc_bytes(16).unwrap();
        let b = h.alloc_bytes(16).unwrap();
        let c = h.alloc_bytes(16).unwrap();
        h.free(a).unwrap();
        h.free(c).unwrap();
        h.free(b).unwrap(); // middle free must merge all three
        assert_eq!(h.free.len(), 1);
        // Whole arena available again.
        let big = h.alloc_bytes(48).unwrap();
        assert_eq!(big, 0);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut h = ManagedHeap::new(16);
        let a = h.alloc_bytes(8).unwrap();
        h.free(a).unwrap();
        assert!(h.free(a).is_err());
    }

    #[test]
    fn typed_array_access_and_bounds() {
        let mut h = ManagedHeap::new(256);
        let xs = h.alloc_array::<f64>(4).unwrap();
        assert_eq!(h.array_len(xs).unwrap(), 4);
        for i in 0..4 {
            h.set(xs, i, i as f64 * 1.5).unwrap();
        }
        assert_eq!(h.get(xs, 2).unwrap(), 3.0);
        assert!(h.get(xs, 4).is_err(), "out of bounds");
        assert!(h.set(xs, 4, 0.0).is_err());
    }

    #[test]
    fn fresh_allocation_is_zeroed_even_after_reuse() {
        let mut h = ManagedHeap::new(32);
        let a = h.alloc_array::<u64>(2).unwrap();
        h.set(a, 0, u64::MAX).unwrap();
        h.free(a.raw()).unwrap();
        let b = h.alloc_array::<u64>(2).unwrap();
        assert_eq!(b, a, "extent reused");
        assert_eq!(h.get(b, 0).unwrap(), 0, "reused memory is zeroed");
    }

    #[test]
    fn save_restore_preserves_objects_and_free_structure() {
        let mut h = ManagedHeap::new(128);
        let a = h.alloc_array::<u64>(3).unwrap();
        let b = h.alloc_array::<f64>(2).unwrap();
        let dead = h.alloc_bytes(16).unwrap();
        h.free(dead).unwrap();
        h.set(a, 0, 11).unwrap();
        h.set(a, 2, 33).unwrap();
        h.set(b, 1, 2.5).unwrap();

        let restored: ManagedHeap = decode_exact(&encode(&h), "heap").unwrap();

        assert_eq!(restored, h);
        assert_eq!(restored.get(a, 2).unwrap(), 33);
        assert_eq!(restored.get(b, 1).unwrap(), 2.5);
    }

    #[test]
    fn pointers_survive_checkpoints_as_plain_data() {
        // Build a 3-node linked list in the heap: node = [value u64, next u32].
        let mut h = ManagedHeap::new(256);
        let node = |h: &mut ManagedHeap, v: u64, next: u32| {
            let off = h.alloc_bytes(12).unwrap();
            h.write_bytes(off, 0, &v.to_le_bytes()).unwrap();
            h.write_bytes(off, 8, &next.to_le_bytes()).unwrap();
            off
        };
        let n3 = node(&mut h, 30, u32::MAX);
        let n2 = node(&mut h, 20, n3);
        let n1 = node(&mut h, 10, n2);

        // Checkpoint and restore.
        let r: ManagedHeap = decode_exact(&encode(&h), "heap").unwrap();

        // Walk the restored list through stored pointers.
        let mut cur = n1;
        let mut values = Vec::new();
        while cur != u32::MAX {
            let v = u64::from_le_bytes(
                r.read_bytes(cur, 0, 8).unwrap().try_into().unwrap(),
            );
            values.push(v);
            cur = u32::from_le_bytes(
                r.read_bytes(cur, 8, 4).unwrap().try_into().unwrap(),
            );
        }
        assert_eq!(values, vec![10, 20, 30]);
    }

    #[test]
    fn corrupt_heap_blob_is_an_error() {
        let mut h = ManagedHeap::new(64);
        h.alloc_bytes(8).unwrap();
        let bytes = encode(&h);
        let cut = &bytes[..bytes.len() - 3];
        assert!(decode_exact::<ManagedHeap>(cut, "heap").is_err());
    }

    /// Decode a heap record laid out as `save` writes one.
    fn load(
        capacity: u64,
        free: &[(u32, u32)],
        objects: &[(u32, u32, Vec<u8>)],
    ) -> Result<ManagedHeap, CodecError> {
        let mut enc = Encoder::new();
        enc.put(&capacity);
        enc.put(&free.to_vec());
        enc.put(&objects.to_vec());
        decode_exact(&enc.into_bytes(), "heap")
    }

    #[test]
    fn capacity_beyond_the_u32_arena_is_an_error() {
        let err = load(1 << 32, &[], &[]).unwrap_err();
        assert!(err.detail.contains("exceeds the u32 arena"), "{err}");
    }

    #[test]
    fn free_extent_outside_the_arena_is_an_error() {
        assert!(load(64, &[(56, 8)], &[]).is_ok());
        let err = load(64, &[(60, 8)], &[]).unwrap_err();
        assert!(err.detail.contains("past the arena"), "{err}");
    }

    #[test]
    fn free_extent_overlapping_an_object_is_an_error() {
        let object = [(8, 8, vec![7; 8])];
        assert!(load(64, &[(0, 8), (16, 48)], &object).is_ok());
        let err = load(64, &[(0, 16)], &object).unwrap_err();
        assert!(err.detail.contains("overlaps"), "{err}");
    }
}
