//! Global-variable segment (Section 5.1.2, last paragraph).
//!
//! "A similar mechanism can be used to handle global variables. In order to
//! discover all of a program's global variables, either the precompiler
//! must have access to all source files of the program at once, or this
//! discovery must be done during linking. We are currently using the former
//! approach."
//!
//! [`Globals`] is that mechanism one level up: a named registry of
//! scalar/array slots that exists for the whole program run (unlike a
//! [`crate::Frame`], which is pushed and popped per activation). The
//! "discovery" step is the program registering each global once at startup;
//! re-registration after a restore is idempotent and type-checked, so the
//! restored values win — mirroring how the precompiler's generated code
//! knows the full global set statically.

use std::collections::BTreeMap;

use ckptstore::impl_saveload_struct;

use crate::heap::Scalar;

#[derive(Debug, Clone, PartialEq, Eq)]
struct GlobalSlot {
    bytes: Vec<u8>,
}

impl_saveload_struct!(GlobalSlot { bytes: Vec<u8> });

/// The program's global-variable segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Globals {
    slots: BTreeMap<String, GlobalSlot>,
}

impl_saveload_struct!(Globals { slots: BTreeMap<String, GlobalSlot> });

impl Globals {
    /// An empty segment (program start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a scalar global with an initial value. If the name already
    /// exists (e.g. after a restore), the existing value is kept and only
    /// the size is validated — restored state wins over initializers.
    ///
    /// # Panics
    /// If the name exists with a different size (a type confusion the
    /// precompiler would have rejected at compile time).
    pub fn register<T: Scalar>(&mut self, name: &str, init: T) {
        if let Some(slot) = self.slots.get(name) {
            assert_eq!(
                slot.bytes.len(),
                T::WIDTH,
                "global {name:?} re-registered with a different type size"
            );
            return;
        }
        let mut bytes = vec![0u8; T::WIDTH];
        init.store(&mut bytes);
        self.slots.insert(name.to_owned(), GlobalSlot { bytes });
    }

    /// Register an array global; same idempotence rules as
    /// [`Globals::register`].
    pub fn register_array<T: Scalar>(&mut self, name: &str, init: &[T]) {
        if let Some(slot) = self.slots.get(name) {
            assert_eq!(
                slot.bytes.len(),
                init.len() * T::WIDTH,
                "global array {name:?} re-registered with a different size"
            );
            return;
        }
        let mut bytes = vec![0u8; init.len() * T::WIDTH];
        for (i, &v) in init.iter().enumerate() {
            v.store(&mut bytes[i * T::WIDTH..(i + 1) * T::WIDTH]);
        }
        self.slots.insert(name.to_owned(), GlobalSlot { bytes });
    }

    fn slot(&self, name: &str) -> &GlobalSlot {
        self.slots
            .get(name)
            .unwrap_or_else(|| panic!("unregistered global {name:?}"))
    }

    /// Read a scalar global.
    pub fn get<T: Scalar>(&self, name: &str) -> T {
        let s = self.slot(name);
        assert_eq!(s.bytes.len(), T::WIDTH, "type/size mismatch on {name}");
        T::fetch(&s.bytes)
    }

    /// Write a scalar global.
    pub fn set<T: Scalar>(&mut self, name: &str, v: T) {
        let s = self
            .slots
            .get_mut(name)
            .unwrap_or_else(|| panic!("unregistered global {name:?}"));
        assert_eq!(s.bytes.len(), T::WIDTH, "type/size mismatch on {name}");
        v.store(&mut s.bytes);
    }

    /// Read element `i` of an array global.
    pub fn get_elem<T: Scalar>(&self, name: &str, i: usize) -> T {
        let s = self.slot(name);
        T::fetch(&s.bytes[i * T::WIDTH..(i + 1) * T::WIDTH])
    }

    /// Write element `i` of an array global.
    pub fn set_elem<T: Scalar>(&mut self, name: &str, i: usize, v: T) {
        let s = self
            .slots
            .get_mut(name)
            .unwrap_or_else(|| panic!("unregistered global {name:?}"));
        v.store(&mut s.bytes[i * T::WIDTH..(i + 1) * T::WIDTH]);
    }

    /// Number of registered globals.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total bytes described by the segment.
    pub fn byte_size(&self) -> usize {
        self.slots.values().map(|s| s.bytes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckptstore::codec::{decode_exact, encode};

    #[test]
    fn register_get_set() {
        let mut g = Globals::new();
        g.register::<u64>("counter", 7);
        g.register_array::<f64>("grid", &[1.0, 2.0]);
        assert_eq!(g.get::<u64>("counter"), 7);
        g.set::<u64>("counter", 9);
        assert_eq!(g.get::<u64>("counter"), 9);
        g.set_elem::<f64>("grid", 1, 4.5);
        assert_eq!(g.get_elem::<f64>("grid", 1), 4.5);
        assert_eq!(g.len(), 2);
        assert_eq!(g.byte_size(), 8 + 16);
    }

    #[test]
    fn reregistration_after_restore_keeps_restored_values() {
        let mut g = Globals::new();
        g.register::<u64>("epoch", 0);
        g.set::<u64>("epoch", 42);

        let mut restored: Globals =
            decode_exact(&encode(&g), "globals").unwrap();

        // Program startup code runs again and re-registers with the
        // initializer — the restored value must win.
        restored.register::<u64>("epoch", 0);
        assert_eq!(restored.get::<u64>("epoch"), 42);
    }

    #[test]
    #[should_panic(expected = "different type size")]
    fn type_confusion_is_rejected() {
        let mut g = Globals::new();
        g.register::<u64>("x", 0);
        g.register::<u32>("x", 0);
    }

    #[test]
    #[should_panic(expected = "unregistered global")]
    fn unregistered_access_panics() {
        Globals::new().get::<u64>("nope");
    }
}
