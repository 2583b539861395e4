//! Whole-state snapshots for applications that keep their state in ordinary
//! Rust structs.
//!
//! The evaluation applications (dense CG, Laplace, Neurosys) hold their
//! state in numeric arrays plus an iteration counter. Rather than routing
//! every array through the managed heap, they implement [`SaveState`]
//! (an alias of the checkpoint codec's `SaveLoad`) and snapshot through a
//! small versioned envelope that recovery can validate. This corresponds to
//! the paper's observation that the instrumented code "saves the entire
//! state" — the envelope *is* the per-process local checkpoint payload.
//!
//! Saving the entire state need not mean *writing* it: a field wrapped in
//! [`Tracked`] carries a version that changes with every mutable access,
//! and the protocol layer encodes the envelope ([`snapshot_into`])
//! against the line the rank last wrote, so a field that line already
//! holds goes into the checkpoint as a reference. The envelope's bytes —
//! what [`snapshot_to_bytes`] returns and [`restore_from_bytes`] reads —
//! are the same either way.

use ckptstore::codec::{CodecError, Decoder, Encoder, TrackedSpan};

/// Trait applications implement so the protocol layer can capture and
/// restore their state at `potentialCheckpoint` sites.
pub use ckptstore::codec::SaveLoad as SaveState;
/// Wrapper for a state field that is large and rarely written.
pub use ckptstore::codec::Tracked;

/// Magic marking a state envelope.
const MAGIC: u32 = 0xC3C3_0001;

/// Append a state value's versioned envelope to `enc`.
pub fn snapshot_into<T: SaveState>(state: &T, enc: &mut Encoder) {
    enc.put_u32(MAGIC);
    state.save(enc);
}

/// Serialize a state value into a versioned envelope.
pub fn snapshot_to_bytes<T: SaveState>(state: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    snapshot_into(state, &mut enc);
    enc.into_bytes()
}

/// Decode a state envelope produced by [`snapshot_to_bytes`]. Rejects
/// envelopes with the wrong magic or trailing bytes, both of which indicate
/// schema drift between save and load.
pub fn restore_from_bytes<T: SaveState>(
    bytes: &[u8],
) -> Result<T, CodecError> {
    restore_tracked(bytes).map(|(state, _)| state)
}

/// [`restore_from_bytes`], also yielding where in `bytes` each tracked
/// field of the state was decoded from, under the version it now carries.
/// The protocol layer hands these to the write pipeline after a restart,
/// so the first line it writes names those fields by reference too.
pub fn restore_tracked<T: SaveState>(
    bytes: &[u8],
) -> Result<(T, Vec<TrackedSpan>), CodecError> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.get_u32()?;
    if magic != MAGIC {
        return Err(CodecError::new(format!(
            "bad state envelope magic {magic:#x}"
        )));
    }
    let state = T::load(&mut dec)?;
    dec.finish("state envelope")?;
    Ok((state, dec.tracked_spans().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckptstore::impl_saveload_struct;

    #[derive(Debug, PartialEq)]
    struct SolverState {
        iter: u64,
        x: Vec<f64>,
        r: Vec<f64>,
    }
    impl_saveload_struct!(SolverState { iter: u64, x: Vec<f64>, r: Vec<f64> });

    #[test]
    fn envelope_round_trip() {
        let s = SolverState {
            iter: 17,
            x: vec![1.0, 2.0],
            r: vec![-0.25; 8],
        };
        let bytes = snapshot_to_bytes(&s);
        let back: SolverState = restore_from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let s = SolverState {
            iter: 0,
            x: vec![],
            r: vec![],
        };
        let mut bytes = snapshot_to_bytes(&s);
        bytes[0] ^= 0xFF;
        assert!(restore_from_bytes::<SolverState>(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let s = SolverState {
            iter: 0,
            x: vec![],
            r: vec![],
        };
        let mut bytes = snapshot_to_bytes(&s);
        bytes.push(0);
        assert!(restore_from_bytes::<SolverState>(&bytes).is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let s = SolverState {
            iter: 3,
            x: vec![9.0; 4],
            r: vec![],
        };
        let bytes = snapshot_to_bytes(&s);
        assert!(restore_from_bytes::<SolverState>(&bytes[..bytes.len() - 2])
            .is_err());
    }
}
