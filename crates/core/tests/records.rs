//! Every checkpoint and control record in one place: the bytes each one
//! encodes to are pinned, each round-trips through `decode_exact`, and no
//! truncation, bit flip or trailing byte of it makes a decoder panic.

use std::fmt::Debug;
use std::panic::{catch_unwind, RefUnwindSafe};

use c3_core::control::ControlMsg::*;
use c3_core::control::SuppressList;
use c3_core::counters::ChannelCounters;
use c3_core::epoch::MsgClass;
use c3_core::logrec::{coll_kind, LateMessage, RecoveryLog};
use c3_core::pending::{
    PendingKind as Kind, PendingTable, PersistentCall, PersistentJournal,
};
use c3_core::recovery::RankCheckpoint;
use c3_core::trace::{decode_trace, encode_trace};
use c3_core::{TraceEvent, TraceRecord};
use ckptstore::codec::{decode_exact, encode, CodecError, Encoder, SaveLoad};
use ckptstore::manifest::{decode_run, encode_run};
use ckptstore::store::CommitRecord;
use ckptstore::{ChunkRef, Form, Manifest};
use statesave::{Frame, Globals, ManagedHeap, PositionStack};

fn decode<T: SaveLoad>(bytes: &[u8]) -> Result<T, CodecError> {
    decode_exact(bytes, "record")
}

/// Feed `decode` `bytes`, every truncation and single-bit flip of it, and
/// it plus one trailing byte: each gives an error or a value, never a
/// panic. `bytes` must decode; the trailing byte must not.
fn sweep(
    what: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> bool + RefUnwindSafe,
) {
    let run = |input: &[u8], how: String| {
        catch_unwind(|| decode(input))
            .unwrap_or_else(|_| panic!("{what}: {how} panicked"))
    };
    assert!(run(bytes, "the record".into()), "{what} must decode");
    for cut in 0..bytes.len() {
        run(&bytes[..cut], format!("a cut at {cut}"));
    }
    for (i, bit) in (0..bytes.len()).flat_map(|i| (0..8).map(move |b| (i, b)))
    {
        let mut flipped = bytes.to_vec();
        flipped[i] ^= 1 << bit;
        run(&flipped, format!("bit {bit} of byte {i} flipped"));
    }
    let longer = [bytes, &[0]].concat();
    assert!(
        !run(&longer, "a trailing byte".into()),
        "{what}: trailing byte"
    );
}

/// `value` round-trips, and its encoding survives [`sweep`].
fn check<T: SaveLoad + PartialEq + Debug>(value: &T) -> Vec<u8> {
    let bytes = encode(value);
    assert_eq!(&decode::<T>(&bytes).unwrap(), value);
    sweep(std::any::type_name::<T>(), &bytes, |b| {
        decode::<T>(b).is_ok()
    });
    bytes
}

fn pin<T: SaveLoad + PartialEq + Debug>(value: &T, hex: &str) {
    let bytes = check(value);
    let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(got, hex, "{value:?}");
}

fn pending_table() -> PendingTable {
    let mut t = PendingTable::new();
    t.insert(Kind::Send);
    t.insert(Kind::Recv {
        comm: 2,
        src: usize::MAX,
        tag: i32::MIN,
    });
    t
}

/// The bytes each record encoded to before it was declared through the
/// `impl_saveload_*!` tables, one literal per value.
#[test]
fn records_encode_to_the_pinned_bytes() {
    pin(&pending_table(), "020000000000000002000000000000000000000000000000000100000000000000010200000000000000ffffffffffffffff00000080");
    let mut journal = PersistentJournal::new();
    journal.record(PersistentCall::CommDup { parent: 3 });
    journal.record(PersistentCall::CommSplit {
        parent: 1,
        color: -1,
        key: 7,
    });
    pin(
        &journal,
        "0200000000000000000300000000000000010100000000000000ffffffff07000000",
    );
    let mut log = RecoveryLog::new();
    log.push_nondet(0xdead_beef);
    log.push_nondet(42);
    pin(&log, "00000000000000000200000000000000efbeadde000000002a000000000000000000000000000000");
    // A collective record leads with its communicator.
    let mut log = RecoveryLog::new();
    log.push_collective(2, coll_kind::ALLGATHER, vec![7, 8].into());
    pin(&log, "00000000000000000000000000000000010000000000000002000000000000000302000000000000000708");
    pin(&MsgClass::Late, "01");
    pin(&MsgClass::IntraEpoch, "00");
    pin(&MsgClass::Early, "02");
    pin(&PleaseCheckpoint { ckpt: 7 }, "000700000000000000");
    pin(&MySendCount { count: 12345 }, "013930000000000000");
    pin(&ReadyToStopLogging, "02");
    pin(&StopLogging, "03");
    pin(&StoppedLogging, "04");
    pin(&RecoveryComplete, "05");
    let ids = SuppressList {
        ids: vec![0, 5, 17],
    };
    pin(&ids, "0300000000000000000000000500000011000000");
    let mut frame = Frame::new();
    frame.declare::<u64>("a", 5);
    frame.declare::<f64>("b", 1.5);
    pin(&frame, "0200000000000000010000000000000061080000000000000005000000000000000100000000000000620800000000000000000000000000f83f");
    let mut globals = Globals::new();
    globals.register::<u64>("counter", 7);
    globals.register_array::<f64>("grid", &[1.0, 2.0]);
    pin(&globals, "02000000000000000700000000000000636f756e746572080000000000000007000000000000000400000000000000677269641000000000000000000000000000f03f0000000000000040");
}

#[test]
fn every_record_round_trips_and_no_corruption_panics() {
    // A table with a gap in its handles.
    let mut table = pending_table();
    table.insert(Kind::Send);
    table.remove(1);
    check(&table);
    let mut log = RecoveryLog::new();
    check(&log);
    log.push_nondet(0xdead_beef);
    log.push_nondet(42);
    let payload = vec![1, 2, 3].into();
    log.push_late(LateMessage {
        comm: 0,
        src: 3,
        message_id: 17,
        tag: -5,
        payload,
    });
    log.push_collective(1, coll_kind::ALLREDUCE, vec![9; 16].into());
    assert!(!log.is_empty());
    check(&log);
    let mut counters = ChannelCounters::new(3);
    counters.on_send(1);
    counters.set_total_sent(2, 5);
    check(&counters);
    let mut globals = Globals::new();
    globals.register_array::<i32>("xs", &[1, -2, 3]);
    globals.register::<f64>("t", 0.5);
    check(&globals);
    let mut frame = Frame::new();
    let iter = frame.declare::<u64>("iter", 41);
    let xs = frame.declare_array::<f64>("xs", &[0.5, -0.5]);
    let back: Frame = decode(&check(&frame)).unwrap();
    assert_eq!(
        (back.get::<u64>(iter), back.get_elem::<f64>(xs, 1)),
        (41, -0.5)
    );
    let mut ps = PositionStack::new();
    ps.push(3);
    ps.push(1);
    check(&ps);
    let mut heap = ManagedHeap::new(256);
    let a = heap.alloc_array::<u64>(3).unwrap();
    let dead = heap.alloc_bytes(16).unwrap();
    heap.alloc_bytes(5).unwrap();
    heap.free(dead).unwrap();
    heap.set(a, 2, 33).unwrap();
    check(&heap);

    let event = TraceEvent::CheckpointTaken {
        ckpt: 2,
        send_counts: vec![1, 4],
        early_counts: vec![2, 0],
    };
    let record = TraceRecord {
        rank: 1,
        attempt: 2,
        incarnation: 1,
        seq: 5,
        event,
    };
    check(&record);
    sweep("trace", &encode_trace(&[record]), |b| {
        decode_trace(b).is_ok()
    });
    let rc = RankCheckpoint {
        ckpt: 3,
        early_ids: vec![vec![], vec![1, 4]],
        pending: table,
    };
    let mut enc = Encoder::new();
    rc.save(&mut enc, |enc| enc.put_u64(77));
    sweep("state blob", &enc.into_bytes(), |b| {
        RankCheckpoint::load(b).is_ok()
    });

    pin(
        &CommitRecord { ckpt: 4, nranks: 2 },
        "04000000000000000200000000000000",
    );
    let chunk = |seed: u8, len: u32| ChunkRef {
        stored_len: len / 2,
        form: Form::Lz4,
        ..ChunkRef::for_piece(&vec![seed; len as usize])
    };
    let mut chunks = vec![chunk(1, 100), chunk(2, 60), chunk(3, 40)];
    // Form id 4 (`Lz4Predicted`) both directly in the manifest and
    // inside the run.
    chunks[0].form = Form::Lz4Predicted;
    chunks[2].form = Form::Lz4Predicted;
    check(&chunks[0]);
    check(&chunks[1]);
    sweep("run", &encode_run(&chunks), |b| decode_run(b, 200).is_ok());
    let mut manifest = Manifest {
        total_len: 200,
        chunks,
        ..Manifest::default()
    };
    manifest.push_run(1, Some(chunk(9, 50)));
    sweep("manifest", &manifest.encode(), |b| {
        Manifest::decode(b).is_ok()
    });
}
