//! The Position Stack (PS) of Section 5.1.1 / Figure 6.
//!
//! During normal execution the instrumented program pushes a label before
//! every call that can lead to a `potentialCheckpoint`, and pops it on
//! return. The stack therefore always names the active instrumented call
//! chain. At checkpoint time the PS is saved; on restart each function
//! consults the PS (via a cursor, the paper's `PS.item(i++)`) to learn
//! which label to jump to, rebuilding the activation stack.

use ckptstore::codec::{CodecError, Decoder, Encoder, SaveLoad};

/// A label inside one instrumented function (Figure 6's `label_1`, ...).
pub type Label = u32;

/// The Position Stack with its restart cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PositionStack {
    items: Vec<Label>,
    /// Restart cursor: index of the next label to be consumed by a
    /// re-entering function (`i` in Figure 6). Meaningful only while
    /// `restarting` is true.
    cursor: usize,
    restarting: bool,
}

impl PositionStack {
    /// An empty PS (program start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record entry into a labelled region (Figure 6's `PS.push(n)`).
    pub fn push(&mut self, label: Label) {
        self.items.push(label);
    }

    /// Record exit from the region (Figure 6's `PS.pop()`).
    ///
    /// # Panics
    /// If the PS is empty — an instrumentation bug, matching the paper's
    /// invariant that pushes and pops are balanced.
    pub fn pop(&mut self) -> Label {
        self.items.pop().expect("PositionStack::pop on empty stack")
    }

    /// The label most recently pushed, if any.
    pub fn top(&self) -> Option<Label> {
        self.items.last().copied()
    }

    /// Current depth of the recorded call chain.
    pub fn depth(&self) -> usize {
        self.items.len()
    }

    /// True if a restart replay is in progress.
    pub fn is_restarting(&self) -> bool {
        self.restarting
    }

    /// Begin a restart replay: reset the cursor to the outermost frame.
    pub fn begin_restart(&mut self) {
        self.cursor = 0;
        self.restarting = self.cursor < self.items.len();
    }

    /// Consume and return the next recorded label (the paper's
    /// `goto PS.item(i++)` read). Returns `None` once the recorded chain is
    /// exhausted, at which point normal execution resumes.
    pub fn next_restart_label(&mut self) -> Option<Label> {
        if !self.restarting {
            return None;
        }
        let label = self.items.get(self.cursor).copied();
        if label.is_some() {
            self.cursor += 1;
            if self.cursor >= self.items.len() {
                // The innermost recorded frame is being re-entered; after
                // this, execution is live again.
                self.restarting = false;
            }
        } else {
            self.restarting = false;
        }
        label
    }

    /// Peek at the label the cursor would consume next, without advancing.
    pub fn peek_restart_label(&self) -> Option<Label> {
        if !self.restarting {
            return None;
        }
        self.items.get(self.cursor).copied()
    }
}

impl SaveLoad for PositionStack {
    fn save(&self, enc: &mut Encoder) {
        enc.put(&self.items);
        // The cursor and restart flag are transient; a freshly loaded PS
        // always starts a new replay.
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(PositionStack {
            items: dec.get()?,
            cursor: 0,
            restarting: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckptstore::codec::{decode_exact, encode};

    #[test]
    fn push_pop_tracks_call_chain() {
        let mut ps = PositionStack::new();
        ps.push(1);
        ps.push(4);
        assert_eq!(ps.depth(), 2);
        assert_eq!(ps.top(), Some(4));
        assert_eq!(ps.pop(), 4);
        assert_eq!(ps.pop(), 1);
        assert_eq!(ps.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "empty stack")]
    fn unbalanced_pop_panics() {
        PositionStack::new().pop();
    }

    #[test]
    fn restart_replays_labels_outermost_first() {
        // Simulate: main pushes label 2 (call to f), f pushes label 5
        // (potentialCheckpoint site), checkpoint taken.
        let mut ps = PositionStack::new();
        ps.push(2);
        ps.push(5);

        let mut restored: PositionStack =
            decode_exact(&encode(&ps), "position stack").unwrap();

        restored.begin_restart();
        assert!(restored.is_restarting());
        assert_eq!(restored.peek_restart_label(), Some(2));
        assert_eq!(restored.next_restart_label(), Some(2));
        // Innermost label: replay ends after consuming it.
        assert_eq!(restored.next_restart_label(), Some(5));
        assert!(!restored.is_restarting());
        assert_eq!(restored.next_restart_label(), None);
        // The stack itself still holds the chain (functions re-push as they
        // re-enter in the paper's scheme; here the chain is retained).
        assert_eq!(restored.depth(), 2);
    }

    #[test]
    fn empty_ps_restart_is_a_noop() {
        let mut ps = PositionStack::new();
        ps.begin_restart();
        assert!(!ps.is_restarting());
        assert_eq!(ps.next_restart_label(), None);
    }

    #[test]
    fn save_load_round_trip() {
        let mut ps = PositionStack::new();
        for l in [3, 1, 4, 1, 5] {
            ps.push(l);
        }
        let loaded: PositionStack =
            decode_exact(&encode(&ps), "position stack").unwrap();
        assert_eq!(loaded.depth(), 5);
        assert_eq!(loaded.top(), Some(5));
    }
}
