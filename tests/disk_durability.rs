//! Durability semantics of the on-disk checkpoint store under the commit
//! protocol: partial checkpoints are invisible, committed ones are
//! recoverable by a *fresh* store instance (simulating whole-job restart,
//! not just rank restart), and garbage collection keeps exactly the
//! recovery line.

use std::sync::Arc;

use ckptstore::{CheckpointStore, DiskBackend, RankBlobKind, StorageBackend};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("c3rs-disk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn full_checkpoint(store: &CheckpointStore, ckpt: u64, payload: &[u8]) {
    for r in 0..store.nranks() {
        store
            .put_rank_blob(ckpt, r, RankBlobKind::State, payload)
            .unwrap();
        store
            .put_rank_blob(ckpt, r, RankBlobKind::Log, b"log")
            .unwrap();
    }
}

#[test]
fn committed_checkpoints_survive_process_restart() {
    let dir = temp_dir("restart");
    {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(DiskBackend::new(&dir).unwrap());
        let store = CheckpointStore::new(backend, 2);
        full_checkpoint(&store, 1, b"epoch-one");
        store.commit(1).unwrap();
        // Checkpoint 2 is in progress when the "machine dies".
        store
            .put_rank_blob(2, 0, RankBlobKind::State, b"partial")
            .unwrap();
    }
    // A brand-new store over the same directory — as after a cluster-wide
    // restart — sees exactly the committed line.
    let backend: Arc<dyn StorageBackend> =
        Arc::new(DiskBackend::new(&dir).unwrap());
    let store = CheckpointStore::new(backend, 2);
    assert_eq!(store.latest_recoverable().unwrap(), Some(1));
    assert_eq!(
        store.get_rank_blob(1, 0, RankBlobKind::State).unwrap(),
        b"epoch-one"
    );
    assert_eq!(
        store.get_rank_blob(1, 1, RankBlobKind::State).unwrap(),
        b"epoch-one"
    );
    // The partial checkpoint is visible as data but never as a commit.
    assert!(!store.is_committed(2).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_after_commit_leaves_only_the_recovery_line() {
    let dir = temp_dir("gc");
    let backend: Arc<dyn StorageBackend> =
        Arc::new(DiskBackend::new(&dir).unwrap());
    let store = CheckpointStore::new(backend.clone(), 1);
    for ckpt in 1..=3 {
        full_checkpoint(&store, ckpt, &[ckpt as u8; 64]);
        store.commit(ckpt).unwrap();
        store.gc_keeping(ckpt).unwrap();
    }
    assert_eq!(store.latest_recoverable().unwrap(), Some(3));
    assert!(store.get_rank_blob(1, 0, RankBlobKind::State).is_err());
    assert!(store.get_rank_blob(2, 0, RankBlobKind::State).is_err());
    assert_eq!(
        store.get_rank_blob(3, 0, RankBlobKind::State).unwrap(),
        vec![3u8; 64]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_rank_writers_on_disk() {
    // All ranks write their blobs concurrently (as they do in a real
    // checkpoint); the commit sees a complete, uncorrupted set.
    let dir = temp_dir("conc");
    let backend: Arc<dyn StorageBackend> =
        Arc::new(DiskBackend::new(&dir).unwrap());
    let nranks = 8;
    let store = CheckpointStore::new(backend, nranks);
    std::thread::scope(|scope| {
        for r in 0..nranks {
            let store = store.clone();
            scope.spawn(move || {
                let payload = vec![r as u8; 1024 * (r + 1)];
                store
                    .put_rank_blob(1, r, RankBlobKind::State, &payload)
                    .unwrap();
                store
                    .put_rank_blob(1, r, RankBlobKind::Log, &[r as u8])
                    .unwrap();
            });
        }
    });
    store.commit(1).unwrap();
    for r in 0..nranks {
        assert_eq!(
            store.get_rank_blob(1, r, RankBlobKind::State).unwrap(),
            vec![r as u8; 1024 * (r + 1)]
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
