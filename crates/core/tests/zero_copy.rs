//! Regression guard for the zero-copy message hot path: on the plain
//! intra-epoch send/receive path, the protocol layer must not copy
//! payload bytes or allocate per message. The [`c3_core::ProcStats`]
//! counters `payload_bytes_copied` and `allocs_on_send_path` are
//! tripwires — nothing on the hot path increments them today, and this
//! test pins them at zero for both piggyback wire representations so a
//! future change that reintroduces an O(payload) copy (and dutifully
//! counts it) fails loudly instead of silently regressing Figure 8.

use bytes::Bytes;
use c3_core::{
    run_job, C3App, C3Config, C3Result, CheckpointTrigger,
    InstrumentationLevel, PiggybackMode, Process,
};

/// Two ranks exchanging both borrowed (`send`) and owned (`send_bytes`)
/// payloads in a ring of rounds, never checkpointing.
struct Exchange {
    rounds: u64,
}

/// A payload built in a `Vec` that opens with that vector's own address.
/// The counters are kept by hand; this lets a receiver measure the bytes.
fn self_addressed() -> Bytes {
    let mut filled = vec![0x5Au8; 4096];
    let at = filled.as_ptr() as usize;
    filled[..8].copy_from_slice(&at.to_le_bytes());
    Bytes::from(filled)
}

/// Asserts that `payload` is the very allocation its sender filled (ranks
/// are threads, so the addresses compare); returns its length.
fn arrived_in_place(payload: &Bytes) -> u64 {
    let at = payload.as_ptr() as usize;
    assert_eq!(payload[..8], at.to_le_bytes(), "the payload was copied");
    payload.len() as u64
}

impl C3App for Exchange {
    type State = u64;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<u64> {
        Ok(0)
    }

    fn run(&self, p: &mut Process<'_>, state: &mut u64) -> C3Result<u64> {
        let world = p.world();
        let peer = 1 - p.rank();
        let owned = self_addressed();
        let borrowed = [0xA5u8; 512];
        let mut sum = 0u64;
        while *state < self.rounds {
            if p.rank() == 0 {
                p.send_bytes(world, peer, 1, owned.clone())?;
                p.send(world, peer, 2, &borrowed)?;
                sum += arrived_in_place(&p.recv(world, peer, 3)?.payload);
            } else {
                sum += arrived_in_place(&p.recv(world, peer, 1)?.payload);
                sum += p.recv(world, peer, 2)?.payload.len() as u64;
                p.send_bytes(world, peer, 3, owned.clone())?;
            }
            *state += 1;
            p.potential_checkpoint(state)?;
        }
        Ok(sum)
    }
}

fn assert_zero_copies(level: InstrumentationLevel, mode: PiggybackMode) {
    let mut cfg = C3Config::default().with_piggyback(mode);
    cfg.level = level;
    if level.checkpoints() {
        cfg.trigger = CheckpointTrigger::EveryOps(16);
    }
    let job = run_job(2, &cfg, None, &Exchange { rounds: 24 })
        .unwrap_or_else(|e| panic!("{level:?}/{mode:?}: job failed: {e:?}"));
    // The traffic actually flowed.
    assert!(job.outputs.iter().all(|&s| s > 0));
    for (rank, s) in job.stats.iter().enumerate() {
        assert_eq!(
            s.payload_bytes_copied, 0,
            "{level:?}/{mode:?}: rank {rank} copied payload bytes on the \
             protocol hot path"
        );
        assert_eq!(
            s.allocs_on_send_path, 0,
            "{level:?}/{mode:?}: rank {rank} allocated on the send path"
        );
    }
}

#[test]
fn intra_epoch_path_is_zero_copy_packed() {
    assert_zero_copies(InstrumentationLevel::Piggyback, PiggybackMode::Packed);
}

#[test]
fn intra_epoch_path_is_zero_copy_explicit() {
    assert_zero_copies(
        InstrumentationLevel::Piggyback,
        PiggybackMode::Explicit,
    );
}

#[test]
fn hot_path_stays_zero_copy_with_checkpoints_running() {
    // Even with the full protocol active (epochs advance, messages are
    // logged), logging shares the refcounted payload — the counters must
    // stay pinned.
    for mode in [PiggybackMode::Packed, PiggybackMode::Explicit] {
        assert_zero_copies(InstrumentationLevel::Full, mode);
    }
}

/// The frame's inline header segment is the only place a control word
/// can arrive: a raw `simmpi` send (empty header segment) reaching a
/// piggybacking `Process` is a protocol violation, not four payload
/// bytes to be read as a control word.
#[test]
fn unheaded_frame_is_rejected_at_a_piggybacking_level() {
    use c3_core::C3Error;
    use simmpi::World;

    for mode in [PiggybackMode::Packed, PiggybackMode::Explicit] {
        let outputs = World::run(2, |mpi| {
            let mut cfg = C3Config::default().with_piggyback(mode);
            cfg.level = InstrumentationLevel::Piggyback;
            // Process construction is collective (the shadow control
            // communicator is dup'ed), so rank 0 builds the layer too —
            // then drops it and sends below it.
            let mut p = Process::new(mpi, cfg, None, 1, None).unwrap();
            if p.rank() == 0 {
                drop(p);
                let world = mpi.world();
                mpi.send_bytes(&world, 1, 7, Bytes::from(vec![0x11u8; 64]))?;
                Ok(None)
            } else {
                let world = p.world();
                Ok(Some(p.recv(world, 0, 7).map(|m| m.payload.len())))
            }
        })
        .unwrap();
        let got = outputs[1].as_ref().expect("rank 1 reports its receive");
        assert!(
            matches!(got, Err(C3Error::Protocol(_))),
            "{mode:?}: expected a protocol violation, got {got:?}"
        );
    }
}

/// The late-message log shares the received payload, and replay hands
/// that same allocation back — the sender's, when it was sent owned.
#[test]
fn late_log_replays_the_logged_allocation() {
    use c3_core::logrec::{LateMessage, RecoveryLog};
    use c3_core::recovery::Replay;

    let mut log = RecoveryLog::new();
    log.push_late(LateMessage {
        comm: 0,
        src: 1,
        message_id: 0,
        tag: 7,
        payload: self_addressed(),
    });
    let replayed = Replay::new(log).take_late(0, Some(1), Some(7)).unwrap();
    arrived_in_place(&replayed.payload);
}
