//! `statesave` — application state saving, emulating the C³ precompiler.
//!
//! The paper's CCIFT precompiler (Section 5.1) rewrites a C program so that
//! it can save and restore its own position, stack variables, globals, and
//! heap at `potentialCheckpoint` call sites. The runtime mechanisms the
//! rewritten program uses are:
//!
//! * a **Position Stack (PS)** recording which call chain is active, so the
//!   activation stack can be rebuilt on restart by re-entering each function
//!   and jumping to the recorded label (Figure 6);
//! * a **Variable Descriptor Stack (VDS)** recording the address and size of
//!   every live stack variable, so values can be copied out at checkpoint
//!   time and back in on restart (Figure 7);
//! * a **Heap Object Structure (HOS)** inside a custom heap manager, so live
//!   heap objects are saved and restored to the *same virtual addresses*,
//!   which makes pointers checkpointable as plain data (Sections 5.1.3-4).
//!
//! Rust has no `goto` and no sanctioned way to overwrite a live stack frame,
//! so this crate implements the same mechanisms one level up, as a library
//! the "post-precompiler" program is written against:
//!
//! * [`position::PositionStack`] — the PS, with the restart cursor
//!   semantics of Figure 6.
//! * [`heap::ManagedHeap`] — an arena allocator whose addresses are stable
//!   *offsets*; its object table is the HOS, and [`heap::HPtr`] values
//!   (offsets) can be stored inside other heap objects and survive
//!   save/restore byte-identically, reproducing the paper's
//!   pointers-as-plain-data property.
//! * [`frame::Frame`] — per-function variable slots registered in VDS
//!   order; slot contents are memcpy'd out/in like the paper's VDS records.
//! * [`globals::Globals`] — the program-lifetime global-variable segment
//!   (the "similar mechanism ... for global variables" of Section 5.1.2).
//! * [`exec::CkptProgram`] — a block-structured executor that re-enters
//!   checkpointable functions and resumes at the recorded label, emulating
//!   the `if (restart) goto PS.item(i++)` preamble of Figure 6.
//! * [`snapshot`] — the [`snapshot::SaveState`] trait plus a driver used by
//!   applications that manage their state as ordinary Rust structs (the
//!   form most of the evaluation codes use), and [`Tracked`] for the
//!   fields of such a struct that rarely change.

#![deny(missing_docs)]

pub mod exec;
pub mod frame;
pub mod globals;
pub mod heap;
pub mod position;
pub mod snapshot;

pub use exec::{CkptCtx, CkptOutcome, CkptProgram, FuncId};
pub use frame::Frame;
pub use globals::Globals;
pub use heap::{HPtr, ManagedHeap};
pub use position::PositionStack;
pub use snapshot::{SaveState, Tracked};
