//! Per-function variable frames — the Variable Descriptor Stack (VDS) of
//! Section 5.1.2 / Figure 7.
//!
//! The paper's VDS records `(address, size)` of every live stack variable;
//! at checkpoint time the described bytes are copied out, and on restart
//! copied back over the rebuilt stack. Rust forbids aliasing live locals
//! with raw copies, so a [`Frame`] *owns* its variables' storage: a slot is
//! declared (pushed) when the variable enters scope, accessed through a
//! [`VarId`], and popped when it leaves scope. Saving a frame is exactly
//! the paper's VDS walk: name, size, raw bytes per slot.

use ckptstore::impl_saveload_struct;

use crate::heap::Scalar;

/// Index of a declared variable within its frame (declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarId(pub usize);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    name: String,
    bytes: Vec<u8>,
}

impl_saveload_struct!(Slot { name: String, bytes: Vec<u8> });

/// One function activation's variables, in VDS declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    slots: Vec<Slot>,
}

impl_saveload_struct!(Frame { slots: Vec<Slot> });

impl Frame {
    /// An empty frame (function entry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a scalar variable with an initial value; the VDS push of
    /// Figure 7. Returns its id (stable = declaration order).
    pub fn declare<T: Scalar>(&mut self, name: &str, init: T) -> VarId {
        let mut bytes = vec![0u8; T::WIDTH];
        init.store(&mut bytes);
        self.slots.push(Slot {
            name: name.to_owned(),
            bytes,
        });
        VarId(self.slots.len() - 1)
    }

    /// Declare an array variable (`int b[10]` in Figure 7).
    pub fn declare_array<T: Scalar>(
        &mut self,
        name: &str,
        init: &[T],
    ) -> VarId {
        let mut bytes = vec![0u8; init.len() * T::WIDTH];
        for (i, &v) in init.iter().enumerate() {
            v.store(&mut bytes[i * T::WIDTH..(i + 1) * T::WIDTH]);
        }
        self.slots.push(Slot {
            name: name.to_owned(),
            bytes,
        });
        VarId(self.slots.len() - 1)
    }

    /// Remove the most recently declared variable; the VDS pop at scope
    /// exit in Figure 7.
    ///
    /// # Panics
    /// If the frame is empty (unbalanced instrumentation).
    pub fn pop(&mut self) {
        self.slots.pop().expect("Frame::pop on empty frame");
    }

    /// Number of live variables.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no variables are declared.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Look up a variable id by name (first match in declaration order).
    pub fn id_of(&self, name: &str) -> Option<VarId> {
        self.slots.iter().position(|s| s.name == name).map(VarId)
    }

    fn slot(&self, id: VarId) -> &Slot {
        &self.slots[id.0]
    }

    /// Read a scalar variable.
    ///
    /// # Panics
    /// On id out of range or size mismatch (instrumentation bugs).
    pub fn get<T: Scalar>(&self, id: VarId) -> T {
        let s = self.slot(id);
        assert_eq!(
            s.bytes.len(),
            T::WIDTH,
            "type/size mismatch on {}",
            s.name
        );
        T::fetch(&s.bytes)
    }

    /// Write a scalar variable.
    pub fn set<T: Scalar>(&mut self, id: VarId, v: T) {
        let s = &mut self.slots[id.0];
        assert_eq!(
            s.bytes.len(),
            T::WIDTH,
            "type/size mismatch on {}",
            s.name
        );
        v.store(&mut s.bytes);
    }

    /// Read element `i` of an array variable.
    pub fn get_elem<T: Scalar>(&self, id: VarId, i: usize) -> T {
        let s = self.slot(id);
        T::fetch(&s.bytes[i * T::WIDTH..(i + 1) * T::WIDTH])
    }

    /// Write element `i` of an array variable.
    pub fn set_elem<T: Scalar>(&mut self, id: VarId, i: usize, v: T) {
        let s = &mut self.slots[id.0];
        v.store(&mut s.bytes[i * T::WIDTH..(i + 1) * T::WIDTH]);
    }

    /// Element count of an array variable.
    pub fn elem_count<T: Scalar>(&self, id: VarId) -> usize {
        self.slot(id).bytes.len() / T::WIDTH
    }

    /// Total bytes described by this frame's VDS records.
    pub fn byte_size(&self) -> usize {
        self.slots.iter().map(|s| s.bytes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_get_set() {
        let mut f = Frame::new();
        let a = f.declare::<u64>("a", 5);
        let b = f.declare::<f64>("b", 1.5);
        assert_eq!(f.get::<u64>(a), 5);
        assert_eq!(f.get::<f64>(b), 1.5);
        f.set(a, 7u64);
        assert_eq!(f.get::<u64>(a), 7);
        assert_eq!(f.id_of("b"), Some(b));
        assert_eq!(f.id_of("zzz"), None);
    }

    #[test]
    fn scoped_declarations_mirror_figure_7() {
        // function(int a) { int b[10]; { int c; ... } }
        let mut f = Frame::new();
        let _a = f.declare::<i32>("a", 1);
        let _b = f.declare_array::<i32>("b", &[0; 10]);
        {
            let c = f.declare::<i32>("c", 3);
            assert_eq!(f.get::<i32>(c), 3);
            f.pop(); // c leaves scope
        }
        assert_eq!(f.len(), 2);
        f.pop();
        f.pop();
        assert!(f.is_empty());
    }

    #[test]
    fn array_elements() {
        let mut f = Frame::new();
        let xs = f.declare_array::<f64>("xs", &[1.0, 2.0, 3.0]);
        assert_eq!(f.elem_count::<f64>(xs), 3);
        f.set_elem(xs, 1, 20.0);
        assert_eq!(f.get_elem::<f64>(xs, 1), 20.0);
        assert_eq!(f.byte_size(), 24);
    }

    #[test]
    #[should_panic(expected = "type/size mismatch")]
    fn wrong_width_access_panics() {
        let mut f = Frame::new();
        let a = f.declare::<u64>("a", 5);
        let _: u32 = f.get(a);
    }
}
