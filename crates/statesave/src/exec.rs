//! Block-structured re-entry executor — the runtime counterpart of the
//! precompiler's label/goto instrumentation (Section 5.1.1, Figure 6).
//!
//! A *checkpointable program* is a set of functions, each a sequence of
//! steps: straight-line blocks, labelled calls to other checkpointable
//! functions, labelled loops and branches, and labelled
//! `potentialCheckpoint` sites. During normal execution the
//! executor maintains the Position Stack exactly as the generated code in
//! Figure 6 does: push the label before descending, pop after returning.
//!
//! On restart, the executor re-enters the entry function and, instead of
//! running from the top, consumes the saved PS cursor: it jumps to the
//! recorded label in each function down the saved call chain (adopting the
//! saved VDS frame for that activation), until the innermost
//! `potentialCheckpoint` site is reached — after which execution continues
//! live. This is `if (restart) goto PS.item(i++)` without `goto`.

use ckptstore::codec::{decode_exact, Encoder};
use std::collections::BTreeMap;

use crate::frame::{Frame, VarId};
use crate::heap::{ManagedHeap, Scalar};
use crate::position::{Label, PositionStack};

/// Identifier of a checkpointable function within a program.
pub type FuncId = u32;

/// Errors from building or executing a checkpointable program.
#[derive(Debug)]
pub enum ExecError {
    /// A step referenced a function id that was never defined.
    UnknownFunc(FuncId),
    /// A restart label was not found in the function being re-entered —
    /// the snapshot does not match the program.
    UnknownLabel {
        /// Function being re-entered.
        func: FuncId,
        /// The recorded label that was not found.
        label: Label,
    },
    /// The snapshot had fewer frames than the recorded call chain needs.
    MissingFrame {
        /// The call depth that had no saved frame.
        depth: usize,
    },
    /// The snapshot bytes failed to decode.
    Corrupt(String),
    /// Two steps in one function carry the same label.
    DuplicateLabel {
        /// Function whose definition is invalid.
        func: FuncId,
        /// The label used twice.
        label: Label,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownFunc(id) => write!(f, "unknown function {id}"),
            ExecError::UnknownLabel { func, label } => {
                write!(f, "label {label} not found in function {func}")
            }
            ExecError::MissingFrame { depth } => {
                write!(f, "snapshot has no frame for call depth {depth}")
            }
            ExecError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            ExecError::DuplicateLabel { func, label } => {
                write!(f, "duplicate label {label} in function {func}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Outcome of running a program to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptOutcome {
    /// The entry function returned normally.
    Finished,
}

type BlockFn = Box<dyn Fn(&mut CkptCtx)>;
type CondFn = Box<dyn Fn(&mut CkptCtx) -> bool>;

enum Step {
    /// Straight-line instrumented code; never a resume target (its effects
    /// are part of the restored state).
    Block(BlockFn),
    /// `PS.push(label); f(); PS.pop();` — Figure 6's call instrumentation.
    Call { label: Label, func: FuncId },
    /// A while-loop whose body is a checkpointable function; each iteration
    /// is entered under `label`.
    Loop {
        label: Label,
        cond: CondFn,
        body: FuncId,
    },
    /// A two-way branch whose arms are checkpointable functions. Each arm
    /// carries its own label (the precompiler labels each call site), so a
    /// restart knows which arm was active.
    IfElse {
        /// Label of the then-arm call site.
        then_label: Label,
        /// Function run when the condition holds.
        then_f: FuncId,
        /// Label of the else-arm call site.
        else_label: Label,
        /// Function run when the condition fails (`None` = empty arm).
        else_f: Option<FuncId>,
        /// The branch condition.
        cond: CondFn,
    },
    /// `PS.push(label); potentialCheckpoint(); PS.pop();` — a site where a
    /// requested checkpoint is taken.
    PotentialCheckpoint { label: Label },
}

impl Step {
    /// Every label this step can leave on the Position Stack.
    fn labels(&self) -> Vec<Label> {
        match self {
            Step::Block(_) => Vec::new(),
            Step::IfElse {
                then_label,
                else_label,
                ..
            } => {
                vec![*then_label, *else_label]
            }
            Step::Call { label, .. }
            | Step::Loop { label, .. }
            | Step::PotentialCheckpoint { label } => vec![*label],
        }
    }
}

struct Func {
    /// Declares the frame's variables; run on fresh entry only (on restart
    /// the frame is adopted from the snapshot's VDS instead).
    init: Option<BlockFn>,
    steps: Vec<Step>,
}

/// Mutable execution context: the managed heap, the PS, the VDS (one frame
/// per active checkpointable function), and checkpoint plumbing.
pub struct CkptCtx {
    /// The application's managed heap (Section 5.1.3).
    pub heap: ManagedHeap,
    ps: PositionStack,
    vds: Vec<Frame>,
    /// Frames recovered from a snapshot, adopted by depth during restart.
    restored: Vec<Frame>,
    checkpoint_requested: bool,
    /// Snapshots taken during this run, in order.
    snapshots: Vec<Vec<u8>>,
}

impl CkptCtx {
    /// Fresh context with a heap of the given capacity.
    pub fn new(heap_capacity: usize) -> Self {
        CkptCtx {
            heap: ManagedHeap::new(heap_capacity),
            ps: PositionStack::new(),
            vds: Vec::new(),
            restored: Vec::new(),
            checkpoint_requested: false,
            snapshots: Vec::new(),
        }
    }

    /// Ask for a checkpoint at the next `potentialCheckpoint` site — the
    /// executor-level analogue of the protocol's `pleaseCheckpoint`.
    pub fn request_checkpoint(&mut self) {
        self.checkpoint_requested = true;
    }

    /// Snapshots taken so far in this run.
    pub fn snapshots(&self) -> &[Vec<u8>] {
        &self.snapshots
    }

    /// The current function's frame.
    pub fn frame(&self) -> &Frame {
        self.vds.last().expect("no active frame")
    }

    /// The current function's frame, mutably.
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.vds.last_mut().expect("no active frame")
    }

    /// Declare a variable in the current frame (init blocks use this).
    pub fn declare<T: Scalar>(&mut self, name: &str, init: T) -> VarId {
        self.frame_mut().declare(name, init)
    }

    /// Read a variable of the current frame.
    pub fn get<T: Scalar>(&self, id: VarId) -> T {
        self.frame().get(id)
    }

    /// Write a variable of the current frame.
    pub fn set<T: Scalar>(&mut self, id: VarId, v: T) {
        self.frame_mut().set(id, v)
    }

    /// Current checkpointable-call depth.
    pub fn depth(&self) -> usize {
        self.vds.len()
    }

    fn take_snapshot(&mut self) {
        let mut enc = Encoder::new();
        enc.put(&self.ps);
        enc.put(&self.vds);
        enc.put(&self.heap);
        self.snapshots.push(enc.into_bytes());
        self.checkpoint_requested = false;
    }

    fn load_snapshot(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
        (self.ps, self.restored, self.heap) = decode_exact(bytes, "snapshot")
            .map_err(|e| ExecError::Corrupt(e.to_string()))?;
        self.vds.clear();
        self.ps.begin_restart();
        Ok(())
    }
}

/// A set of checkpointable functions forming a program.
#[derive(Default)]
pub struct CkptProgram {
    funcs: BTreeMap<FuncId, Func>,
}

/// Builder for one checkpointable function.
pub struct FuncBuilder<'p> {
    program: &'p mut CkptProgram,
    id: FuncId,
    init: Option<BlockFn>,
    steps: Vec<Step>,
}

impl<'p> FuncBuilder<'p> {
    /// Set the variable-declaration prologue (runs on fresh entry only).
    pub fn init(mut self, f: impl Fn(&mut CkptCtx) + 'static) -> Self {
        self.init = Some(Box::new(f));
        self
    }

    /// Append a straight-line block.
    pub fn block(mut self, f: impl Fn(&mut CkptCtx) + 'static) -> Self {
        self.steps.push(Step::Block(Box::new(f)));
        self
    }

    /// Append a labelled call to another checkpointable function.
    pub fn call(mut self, label: Label, func: FuncId) -> Self {
        self.steps.push(Step::Call { label, func });
        self
    }

    /// Append a labelled loop whose body is a checkpointable function.
    pub fn while_loop(
        mut self,
        label: Label,
        cond: impl Fn(&mut CkptCtx) -> bool + 'static,
        body: FuncId,
    ) -> Self {
        self.steps.push(Step::Loop {
            label,
            cond: Box::new(cond),
            body,
        });
        self
    }

    /// Append a labelled `potentialCheckpoint` site.
    pub fn potential_checkpoint(mut self, label: Label) -> Self {
        self.steps.push(Step::PotentialCheckpoint { label });
        self
    }

    /// Append a two-way branch; each arm is a checkpointable function with
    /// its own call-site label.
    pub fn if_else(
        mut self,
        cond: impl Fn(&mut CkptCtx) -> bool + 'static,
        then_label: Label,
        then_f: FuncId,
        else_label: Label,
        else_f: Option<FuncId>,
    ) -> Self {
        self.steps.push(Step::IfElse {
            then_label,
            then_f,
            else_label,
            else_f,
            cond: Box::new(cond),
        });
        self
    }

    /// Finish the function, validating label uniqueness.
    pub fn build(self) -> Result<(), ExecError> {
        let mut seen = std::collections::BTreeSet::new();
        for step in &self.steps {
            for l in step.labels() {
                if !seen.insert(l) {
                    return Err(ExecError::DuplicateLabel {
                        func: self.id,
                        label: l,
                    });
                }
            }
        }
        self.program.funcs.insert(
            self.id,
            Func {
                init: self.init,
                steps: self.steps,
            },
        );
        Ok(())
    }
}

impl CkptProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin defining function `id` (replacing any previous definition).
    pub fn define(&mut self, id: FuncId) -> FuncBuilder<'_> {
        FuncBuilder {
            program: self,
            id,
            init: None,
            steps: Vec::new(),
        }
    }

    /// Run the program from `entry` on a fresh context.
    pub fn run(
        &self,
        entry: FuncId,
        ctx: &mut CkptCtx,
    ) -> Result<CkptOutcome, ExecError> {
        self.exec(entry, ctx, false)?;
        Ok(CkptOutcome::Finished)
    }

    /// Restore `snapshot` into `ctx` and resume execution from the recorded
    /// position, running to completion.
    pub fn restart(
        &self,
        entry: FuncId,
        ctx: &mut CkptCtx,
        snapshot: &[u8],
    ) -> Result<CkptOutcome, ExecError> {
        ctx.load_snapshot(snapshot)?;
        let resuming = ctx.ps.is_restarting();
        self.exec(entry, ctx, resuming)?;
        Ok(CkptOutcome::Finished)
    }

    fn exec(
        &self,
        id: FuncId,
        ctx: &mut CkptCtx,
        resume: bool,
    ) -> Result<(), ExecError> {
        let func = self.funcs.get(&id).ok_or(ExecError::UnknownFunc(id))?;

        // Frame entry: fresh declaration, or adoption of the saved frame
        // for this activation (the VDS restore of Section 5.1.2).
        let (start_index, resume_label) = if resume {
            let depth = ctx.vds.len();
            let frame = ctx
                .restored
                .get(depth)
                .cloned()
                .ok_or(ExecError::MissingFrame { depth })?;
            ctx.vds.push(frame);
            let label = ctx
                .ps
                .next_restart_label()
                .ok_or(ExecError::MissingFrame { depth })?;
            let idx = func
                .steps
                .iter()
                .position(|s| s.labels().contains(&label))
                .ok_or(ExecError::UnknownLabel { func: id, label })?;
            (idx, Some(label))
        } else {
            ctx.vds.push(Frame::new());
            if let Some(init) = &func.init {
                init(ctx);
            }
            (0, None)
        };

        let result = self.exec_steps(id, func, ctx, start_index, resume_label);
        ctx.vds.pop();
        result
    }

    fn exec_steps(
        &self,
        id: FuncId,
        func: &Func,
        ctx: &mut CkptCtx,
        start_index: usize,
        resume_label: Option<Label>,
    ) -> Result<(), ExecError> {
        let _ = id;
        for (i, step) in func.steps.iter().enumerate().skip(start_index) {
            let resuming_here = resume_label.is_some() && i == start_index;
            match step {
                Step::Block(f) => f(ctx),
                Step::Call {
                    label,
                    func: callee,
                } => {
                    if resuming_here {
                        // The label is already on the retained PS from the
                        // snapshot; descend in resume mode, then pop it as
                        // the normal return path would.
                        self.exec(*callee, ctx, true)?;
                        ctx.ps.pop();
                    } else {
                        ctx.ps.push(*label);
                        self.exec(*callee, ctx, false)?;
                        ctx.ps.pop();
                    }
                }
                Step::Loop { label, cond, body } => {
                    if resuming_here {
                        // Mid-loop restart: finish the interrupted
                        // iteration first (its frame/PS entries are saved),
                        // then fall into the normal loop.
                        self.exec(*body, ctx, true)?;
                        ctx.ps.pop();
                    }
                    while cond(ctx) {
                        ctx.ps.push(*label);
                        self.exec(*body, ctx, false)?;
                        ctx.ps.pop();
                    }
                }
                Step::IfElse {
                    then_label,
                    then_f,
                    else_label,
                    else_f,
                    cond,
                } => {
                    if resuming_here {
                        // The recorded label names the arm that was active.
                        let label = resume_label.expect("resuming");
                        let arm = if label == *then_label {
                            Some(*then_f)
                        } else if label == *else_label {
                            *else_f
                        } else {
                            unreachable!("label matched this step")
                        };
                        if let Some(f) = arm {
                            self.exec(f, ctx, true)?;
                            ctx.ps.pop();
                        }
                        continue;
                    }
                    if cond(ctx) {
                        ctx.ps.push(*then_label);
                        self.exec(*then_f, ctx, false)?;
                        ctx.ps.pop();
                    } else if let Some(f) = *else_f {
                        ctx.ps.push(*else_label);
                        self.exec(f, ctx, false)?;
                        ctx.ps.pop();
                    }
                }
                Step::PotentialCheckpoint { label } => {
                    if resuming_here {
                        // This is the site where the snapshot was taken;
                        // recovery resumes immediately after it (Figure 6's
                        // label placement *after* potentialCheckpoint). The
                        // snapshot was taken with this label pushed, so the
                        // retained entry is popped here, exactly where the
                        // original execution's `PS.pop()` ran.
                        ctx.ps.pop();
                        continue;
                    }
                    ctx.ps.push(*label);
                    if ctx.checkpoint_requested {
                        ctx.take_snapshot();
                    }
                    ctx.ps.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A program computing sum of squares 1..=N with a checkpoint site per
    /// iteration; state (accumulator, i) lives in the heap.
    fn sum_program() -> CkptProgram {
        let mut p = CkptProgram::new();
        // Function 1: loop body — one iteration of work + checkpoint site.
        p.define(1)
            .block(|ctx| {
                // acc (heap cell 0) += i^2; i (heap cell 1) += 1
                let acc_ptr = crate::heap::HPtr::<u64>::from_raw(0);
                let i = ctx.heap.get(acc_ptr, 1).unwrap();
                let acc = ctx.heap.get(acc_ptr, 0).unwrap();
                ctx.heap.set(acc_ptr, 0, acc + i * i).unwrap();
                ctx.heap.set(acc_ptr, 1, i + 1).unwrap();
            })
            .potential_checkpoint(7)
            .build()
            .unwrap();
        // Function 0: main — allocate state, loop while i <= N.
        p.define(0)
            .init(|_ctx| {})
            .block(|ctx| {
                let cells = ctx.heap.alloc_array::<u64>(3).unwrap();
                assert_eq!(cells.raw(), 0);
                ctx.heap.set(cells, 0, 0).unwrap(); // acc
                ctx.heap.set(cells, 1, 1).unwrap(); // i
                ctx.heap.set(cells, 2, 10).unwrap(); // N
            })
            .while_loop(
                3,
                |ctx| {
                    let c = crate::heap::HPtr::<u64>::from_raw(0);
                    ctx.heap.get(c, 1).unwrap() <= ctx.heap.get(c, 2).unwrap()
                },
                1,
            )
            .build()
            .unwrap();
        p
    }

    fn acc_of(ctx: &CkptCtx) -> u64 {
        ctx.heap
            .get(crate::heap::HPtr::<u64>::from_raw(0), 0)
            .unwrap()
    }

    #[test]
    fn uninterrupted_run_computes_sum_of_squares() {
        let p = sum_program();
        let mut ctx = CkptCtx::new(256);
        p.run(0, &mut ctx).unwrap();
        assert_eq!(acc_of(&ctx), (1..=10u64).map(|i| i * i).sum());
        assert!(ctx.snapshots().is_empty());
    }

    #[test]
    fn checkpoint_and_restart_mid_loop_reach_the_same_result() {
        let p = sum_program();

        // Run with a checkpoint requested before iteration 4's site.
        let mut ctx = CkptCtx::new(256);
        // Request after 3 iterations by planting the request eagerly: the
        // first potentialCheckpoint will take it (iteration 1).
        ctx.request_checkpoint();
        p.run(0, &mut ctx).unwrap();
        assert_eq!(ctx.snapshots().len(), 1);
        let snap = ctx.snapshots()[0].clone();
        let full = acc_of(&ctx);

        // "Crash" and restart from the snapshot; iterations 2..=10 replay.
        let mut ctx2 = CkptCtx::new(1); // heap is replaced by the snapshot's
        p.restart(0, &mut ctx2, &snap).unwrap();
        assert_eq!(acc_of(&ctx2), full);
    }

    #[test]
    fn restart_from_each_checkpoint_of_a_multi_checkpoint_run() {
        let p = sum_program();
        // Take a checkpoint at every iteration by re-requesting in a
        // wrapper... simplest: request between runs via snapshots loop.
        let mut ctx = CkptCtx::new(256);
        ctx.request_checkpoint();
        p.run(0, &mut ctx).unwrap();
        let after_first = ctx.snapshots()[0].clone();

        // Restart, request again immediately: the resumed run checkpoints
        // at its first live site (iteration 2's site).
        let mut ctx2 = CkptCtx::new(1);
        ctx2.request_checkpoint();
        p.restart(0, &mut ctx2, &after_first).unwrap();
        assert_eq!(ctx2.snapshots().len(), 1);
        let after_second = ctx2.snapshots()[0].clone();
        let expect = acc_of(&ctx2);

        let mut ctx3 = CkptCtx::new(1);
        p.restart(0, &mut ctx3, &after_second).unwrap();
        assert_eq!(acc_of(&ctx3), expect);
    }

    #[test]
    fn nested_calls_resume_down_the_recorded_chain() {
        // main -> middle -> leaf(potential_checkpoint), with frame vars at
        // each level proving VDS adoption.
        let mut p = CkptProgram::new();
        p.define(2) // leaf
            .init(|ctx| {
                ctx.declare::<u64>("leaf_v", 0);
            })
            .block(|ctx| {
                let id = ctx.frame().id_of("leaf_v").unwrap();
                ctx.set::<u64>(id, 222);
            })
            .potential_checkpoint(9)
            .block(|ctx| {
                // After resume this must still see 222 (adopted frame).
                let id = ctx.frame().id_of("leaf_v").unwrap();
                let v = ctx.get::<u64>(id);
                let out = crate::heap::HPtr::<u64>::from_raw(0);
                ctx.heap.set(out, 1, v).unwrap();
            })
            .build()
            .unwrap();
        p.define(1) // middle
            .init(|ctx| {
                ctx.declare::<u64>("mid_v", 0);
            })
            .block(|ctx| {
                let id = ctx.frame().id_of("mid_v").unwrap();
                ctx.set::<u64>(id, 111);
            })
            .call(4, 2)
            .block(|ctx| {
                let id = ctx.frame().id_of("mid_v").unwrap();
                let v = ctx.get::<u64>(id);
                let out = crate::heap::HPtr::<u64>::from_raw(0);
                ctx.heap.set(out, 0, v).unwrap();
            })
            .build()
            .unwrap();
        p.define(0) // main
            .block(|ctx| {
                let out = ctx.heap.alloc_array::<u64>(2).unwrap();
                assert_eq!(out.raw(), 0);
            })
            .call(1, 1)
            .build()
            .unwrap();

        let mut ctx = CkptCtx::new(128);
        ctx.request_checkpoint();
        p.run(0, &mut ctx).unwrap();
        let snap = ctx.snapshots()[0].clone();

        let mut ctx2 = CkptCtx::new(1);
        p.restart(0, &mut ctx2, &snap).unwrap();
        let out = crate::heap::HPtr::<u64>::from_raw(0);
        // Both frames' values flowed into the heap after resume.
        assert_eq!(ctx2.heap.get(out, 0).unwrap(), 111);
        assert_eq!(ctx2.heap.get(out, 1).unwrap(), 222);
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let mut p = CkptProgram::new();
        let err = p
            .define(0)
            .potential_checkpoint(5)
            .potential_checkpoint(5)
            .build()
            .unwrap_err();
        assert!(matches!(err, ExecError::DuplicateLabel { label: 5, .. }));
    }

    #[test]
    fn unknown_function_is_an_error() {
        let mut p = CkptProgram::new();
        p.define(0).call(1, 99).build().unwrap();
        let mut ctx = CkptCtx::new(16);
        assert!(matches!(
            p.run(0, &mut ctx).unwrap_err(),
            ExecError::UnknownFunc(99)
        ));
    }

    #[test]
    fn corrupt_snapshot_is_an_error() {
        let p = sum_program();
        let mut ctx = CkptCtx::new(16);
        assert!(matches!(
            p.restart(0, &mut ctx, &[1, 2, 3]).unwrap_err(),
            ExecError::Corrupt(_)
        ));
    }

    #[test]
    fn snapshot_from_wrong_program_is_detected() {
        let p = sum_program();
        let mut ctx = CkptCtx::new(256);
        ctx.request_checkpoint();
        p.run(0, &mut ctx).unwrap();
        let snap = ctx.snapshots()[0].clone();

        // A program whose labels differ cannot resume this snapshot.
        let mut other = CkptProgram::new();
        other.define(1).potential_checkpoint(8).build().unwrap();
        other.define(0).while_loop(2, |_| false, 1).build().unwrap();
        let mut ctx2 = CkptCtx::new(1);
        assert!(matches!(
            other.restart(0, &mut ctx2, &snap).unwrap_err(),
            ExecError::UnknownLabel { .. }
        ));
    }
}

#[cfg(test)]
mod ifelse_tests {
    use super::*;
    use crate::heap::HPtr;

    /// Program: for i in 1..=6 { if i odd { acc += i (ckpt site) } else
    /// { acc += 100*i (ckpt site) } } — with both arms containing a
    /// potentialCheckpoint so restarts land inside either branch.
    fn branchy_program() -> CkptProgram {
        let mut p = CkptProgram::new();
        let cells = || HPtr::<u64>::from_raw(0);
        // Function 2: odd arm.
        p.define(2)
            .block(move |ctx| {
                let i = ctx.heap.get(cells(), 1).unwrap();
                let acc = ctx.heap.get(cells(), 0).unwrap();
                ctx.heap.set(cells(), 0, acc + i).unwrap();
            })
            .potential_checkpoint(21)
            .build()
            .unwrap();
        // Function 3: even arm.
        p.define(3)
            .block(move |ctx| {
                let i = ctx.heap.get(cells(), 1).unwrap();
                let acc = ctx.heap.get(cells(), 0).unwrap();
                ctx.heap.set(cells(), 0, acc + 100 * i).unwrap();
            })
            .potential_checkpoint(31)
            .build()
            .unwrap();
        // Function 1: loop body — branch on parity, then i += 1.
        p.define(1)
            .if_else(
                move |ctx| ctx.heap.get(cells(), 1).unwrap() % 2 == 1,
                11,
                2,
                12,
                Some(3),
            )
            .block(move |ctx| {
                let i = ctx.heap.get(cells(), 1).unwrap();
                ctx.heap.set(cells(), 1, i + 1).unwrap();
            })
            .build()
            .unwrap();
        // Function 0: main.
        p.define(0)
            .block(move |ctx| {
                let c = ctx.heap.alloc_array::<u64>(2).unwrap();
                assert_eq!(c.raw(), 0);
                ctx.heap.set(c, 0, 0).unwrap(); // acc
                ctx.heap.set(c, 1, 1).unwrap(); // i
            })
            .while_loop(
                1,
                move |ctx| ctx.heap.get(cells(), 1).unwrap() <= 6,
                1,
            )
            .build()
            .unwrap();
        p
    }

    fn expected() -> u64 {
        (1..=6u64)
            .map(|i| if i % 2 == 1 { i } else { 100 * i })
            .sum()
    }

    #[test]
    fn branches_execute_correctly() {
        let p = branchy_program();
        let mut ctx = CkptCtx::new(128);
        p.run(0, &mut ctx).unwrap();
        assert_eq!(
            ctx.heap.get(HPtr::<u64>::from_raw(0), 0).unwrap(),
            expected()
        );
    }

    #[test]
    fn restart_inside_either_arm_resumes_correctly() {
        let p = branchy_program();
        // First checkpoint fires in the odd arm (i = 1, site 21).
        let mut ctx = CkptCtx::new(128);
        ctx.request_checkpoint();
        p.run(0, &mut ctx).unwrap();
        let snap_odd = ctx.snapshots()[0].clone();

        let mut resumed = CkptCtx::new(1);
        p.restart(0, &mut resumed, &snap_odd).unwrap();
        assert_eq!(
            resumed.heap.get(HPtr::<u64>::from_raw(0), 0).unwrap(),
            expected()
        );

        // Resume from a snapshot taken inside the even arm: request a
        // checkpoint on the resumed run, whose first live site is in the
        // even arm (i = 2, site 31).
        let mut ctx2 = CkptCtx::new(1);
        ctx2.request_checkpoint();
        p.restart(0, &mut ctx2, &snap_odd).unwrap();
        let snap_even = ctx2.snapshots()[0].clone();
        let mut resumed2 = CkptCtx::new(1);
        p.restart(0, &mut resumed2, &snap_even).unwrap();
        assert_eq!(
            resumed2.heap.get(HPtr::<u64>::from_raw(0), 0).unwrap(),
            expected()
        );
    }

    #[test]
    fn empty_else_arm_is_skipped() {
        let mut p = CkptProgram::new();
        let cells = || HPtr::<u64>::from_raw(0);
        p.define(2)
            .block(move |ctx| {
                let acc = ctx.heap.get(cells(), 0).unwrap();
                ctx.heap.set(cells(), 0, acc + 1).unwrap();
            })
            .build()
            .unwrap();
        p.define(0)
            .block(move |ctx| {
                let c = ctx.heap.alloc_array::<u64>(1).unwrap();
                ctx.heap.set(c, 0, 0).unwrap();
            })
            .if_else(|_| false, 5, 2, 6, None)
            .if_else(|_| true, 7, 2, 8, None)
            .build()
            .unwrap();
        let mut ctx = CkptCtx::new(64);
        p.run(0, &mut ctx).unwrap();
        assert_eq!(ctx.heap.get(HPtr::<u64>::from_raw(0), 0).unwrap(), 1);
    }

    #[test]
    fn duplicate_arm_labels_rejected() {
        let mut p = CkptProgram::new();
        let err = p
            .define(0)
            .if_else(|_| true, 5, 1, 5, Some(2))
            .build()
            .unwrap_err();
        assert!(matches!(err, ExecError::DuplicateLabel { label: 5, .. }));
    }
}
