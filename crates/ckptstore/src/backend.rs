//! Pluggable stable-storage backends.
//!
//! The protocol layer never touches a backend directly — it goes through
//! [`crate::store::CheckpointStore`] — but the backend choice determines the
//! I/O cost model of the experiments: [`MemoryBackend`] isolates protocol
//! overhead, while [`DiskBackend`] reproduces the paper's
//! write-checkpoints-to-local-disk configuration (Section 6.1).

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{StoreError, StoreResult};

/// Abstract key/value blob storage with the durability semantics the
/// protocol requires: a `put` that has returned is visible to every future
/// `get`, across simulated process restarts.
///
/// Keys are `/`-separated paths, e.g. `ckpt/3/rank2/state`.
pub trait StorageBackend: Send + Sync {
    /// Durably store `value` under `key`, replacing any previous blob.
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()>;
    /// Durably store a batch of blobs. Semantically a loop of [`put`]s —
    /// and that is the default implementation — but backends that pay a
    /// per-operation cost (lock acquisition, directory sync, RPC) can
    /// amortize it across the batch. Not atomic: on error, a prefix of
    /// the batch may already be stored; the store layer's recovery
    /// treats such partial writes exactly like any interrupted put
    /// sequence (chunks without a committed manifest are garbage).
    ///
    /// [`put`]: StorageBackend::put
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> StoreResult<()> {
        for (key, value) in items {
            self.put(key, value)?;
        }
        Ok(())
    }
    /// Fetch the blob stored under `key`.
    fn get(&self, key: &str) -> StoreResult<Vec<u8>>;
    /// True if a blob exists under `key`.
    fn contains(&self, key: &str) -> StoreResult<bool>;
    /// Remove the blob under `key`, if present (idempotent).
    fn delete(&self, key: &str) -> StoreResult<()>;
    /// All keys beginning with `prefix`, in lexicographic order.
    fn list(&self, prefix: &str) -> StoreResult<Vec<String>>;
    /// Net bytes written through this backend since creation: overwriting a
    /// key subtracts the replaced blob's size, so the counter reflects what
    /// the checkpoints actually cost on storage rather than double-counting
    /// replaced blobs. Experiments use this to report checkpoint sizes (the
    /// numbers above the bars in the paper's Figure 8).
    fn bytes_written(&self) -> u64;

    /// Downcast hook for the multi-level hierarchy: returns the
    /// [`TieredBackend`](crate::tier::TieredBackend) behind this backend,
    /// if any. Decorators ([`crate::fault::FaultInjectingBackend`], the
    /// `obs` wrapper) forward to their inner backend, so the pipeline's
    /// tier-drain mover and the store's tier probes find the hierarchy
    /// through any stack of wrappers. Plain backends return `None`.
    fn as_tiered(&self) -> Option<&crate::tier::TieredBackend> {
        None
    }
}

/// In-memory backend: a locked ordered map.
///
/// "Stable" relative to the simulated cluster — rank threads come and go
/// across injected failures, while the backend outlives them, exactly like a
/// file server outliving compute nodes.
#[derive(Default)]
pub struct MemoryBackend {
    blobs: Mutex<BTreeMap<String, Arc<[u8]>>>,
    written: AtomicU64,
}

impl MemoryBackend {
    /// Create an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blobs currently stored.
    pub fn blob_count(&self) -> usize {
        self.blobs.lock().len()
    }
}

impl StorageBackend for MemoryBackend {
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        let replaced = self.blobs.lock().insert(key.to_owned(), value.into());
        // Net accounting: a replaced blob no longer counts. The subtraction
        // cannot underflow because the replaced blob's size was added when
        // it was written.
        self.written
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        if let Some(old) = replaced {
            self.written.fetch_sub(old.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> StoreResult<()> {
        // One lock acquisition for the whole batch (the per-op cost this
        // backend pays is the mutex).
        let mut blobs = self.blobs.lock();
        let mut delta = 0i64;
        for (key, value) in items {
            let replaced = blobs.insert(key.clone(), value.as_slice().into());
            delta += value.len() as i64;
            if let Some(old) = replaced {
                delta -= old.len() as i64;
            }
        }
        drop(blobs);
        if delta >= 0 {
            self.written.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            self.written.fetch_sub((-delta) as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        self.blobs
            .lock()
            .get(key)
            .map(|v| v.to_vec())
            .ok_or_else(|| StoreError::Missing(key.to_owned()))
    }

    fn contains(&self, key: &str) -> StoreResult<bool> {
        Ok(self.blobs.lock().contains_key(key))
    }

    fn delete(&self, key: &str) -> StoreResult<()> {
        self.blobs.lock().remove(key);
        Ok(())
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        Ok(self
            .blobs
            .lock()
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

/// On-disk backend rooted at a directory.
///
/// Writes go to a temporary file followed by an atomic rename, so a blob is
/// either absent or complete — the property the two-phase commit in
/// [`crate::store`] builds on. Key path components map to subdirectories.
pub struct DiskBackend {
    root: PathBuf,
    written: AtomicU64,
    tmp_counter: AtomicU64,
}

impl DiskBackend {
    /// Open (creating if needed) a disk backend rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> StoreResult<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(DiskBackend {
            root,
            written: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    fn key_path(&self, key: &str) -> StoreResult<PathBuf> {
        // Reject path escapes; keys are internal but this backend may be
        // pointed at a shared scratch directory.
        if key.is_empty()
            || key
                .split('/')
                .any(|c| c.is_empty() || c == "." || c == "..")
        {
            return Err(StoreError::Commit(format!("invalid key: {key:?}")));
        }
        Ok(self.root.join(key))
    }
}

impl StorageBackend for DiskBackend {
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        let path = self.key_path(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = self.root.join(format!(
            ".tmp.{}.{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(value)?;
            f.sync_all()?;
        }
        let replaced = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        fs::rename(&tmp, &path)?;
        // POSIX durability: the rename itself lives in the parent
        // directory's data, so a host crash can forget the new name (and
        // the tmp file's disappearance) unless the directory is synced
        // too. Without this, a "committed" checkpoint could vanish.
        #[cfg(unix)]
        if let Some(parent) = path.parent() {
            fs::File::open(parent)?.sync_all()?;
        }
        self.written
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        self.written.fetch_sub(replaced, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        let path = self.key_path(key)?;
        match fs::read(&path) {
            Ok(v) => Ok(v),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::Missing(key.to_owned()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn contains(&self, key: &str) -> StoreResult<bool> {
        Ok(self.key_path(key)?.is_file())
    }

    fn delete(&self, key: &str) -> StoreResult<()> {
        let path = self.key_path(key)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        let mut keys = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            for entry in entries {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if let Ok(rel) = path.strip_prefix(&self.root) {
                    let key = rel
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/");
                    if key.starts_with(prefix) && !key.starts_with(".tmp.") {
                        keys.push(key);
                    }
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn StorageBackend) {
        backend.put("ckpt/1/rank0/state", b"alpha").unwrap();
        backend.put("ckpt/1/rank1/state", b"beta").unwrap();
        backend.put("ckpt/2/rank0/state", b"gamma").unwrap();

        assert_eq!(backend.get("ckpt/1/rank0/state").unwrap(), b"alpha");
        assert!(backend.contains("ckpt/1/rank1/state").unwrap());
        assert!(!backend.contains("ckpt/9/rank0/state").unwrap());
        assert!(matches!(
            backend.get("missing/key").unwrap_err(),
            StoreError::Missing(_)
        ));

        let keys = backend.list("ckpt/1/").unwrap();
        assert_eq!(keys, vec!["ckpt/1/rank0/state", "ckpt/1/rank1/state"]);

        // Overwrite is a replace.
        backend.put("ckpt/1/rank0/state", b"alpha2").unwrap();
        assert_eq!(backend.get("ckpt/1/rank0/state").unwrap(), b"alpha2");

        // Delete is idempotent.
        backend.delete("ckpt/1/rank0/state").unwrap();
        backend.delete("ckpt/1/rank0/state").unwrap();
        assert!(!backend.contains("ckpt/1/rank0/state").unwrap());

        // Net accounting: "alpha" (5 bytes) was replaced by "alpha2"
        // (6 bytes), so only the replacement counts: 4 + 5 + 6.
        assert_eq!(backend.bytes_written(), 15);
    }

    // Regression: `bytes_written` used to double-count replaced blobs —
    // an overwrite added the new size without retiring the old one.
    fn exercise_net_accounting(backend: &dyn StorageBackend) {
        backend.put("k", &[1u8; 100]).unwrap();
        assert_eq!(backend.bytes_written(), 100);
        backend.put("k", &[2u8; 100]).unwrap();
        assert_eq!(backend.bytes_written(), 100, "overwrite double-counted");
        backend.put("k", &[3u8; 40]).unwrap();
        assert_eq!(backend.bytes_written(), 40);
        backend.put("other", &[4u8; 7]).unwrap();
        assert_eq!(backend.bytes_written(), 47);
    }

    #[test]
    fn memory_backend_counts_net_bytes_on_overwrite() {
        exercise_net_accounting(&MemoryBackend::new());
    }

    #[test]
    fn disk_backend_counts_net_bytes_on_overwrite() {
        let dir = std::env::temp_dir()
            .join(format!("ckptstore-net-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise_net_accounting(&DiskBackend::new(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backend_keys_survive_reopen() {
        // Companion to the parent-directory fsync in `put`: after dropping
        // the backend entirely, a fresh instance over the same root must
        // list every key (rename visible in the directory, tmp files
        // gone). The fsync itself cannot be unit-tested without crashing
        // the host; listing across a reopen is the observable contract.
        let dir = std::env::temp_dir()
            .join(format!("ckptstore-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let b = DiskBackend::new(&dir).unwrap();
            b.put("ckpt/1/rank0/state", b"s0").unwrap();
            b.put("ckpt/1/rank1/state", b"s1").unwrap();
            b.put("ckpt/1/COMMIT", b"c").unwrap();
        }
        let b = DiskBackend::new(&dir).unwrap();
        assert_eq!(
            b.list("ckpt/").unwrap(),
            vec!["ckpt/1/COMMIT", "ckpt/1/rank0/state", "ckpt/1/rank1/state"]
        );
        assert_eq!(b.get("ckpt/1/rank1/state").unwrap(), b"s1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn exercise_put_many(backend: &dyn StorageBackend) {
        backend.put("pm/keep", b"old").unwrap();
        let batch: Vec<(String, Vec<u8>)> = vec![
            ("pm/a".into(), b"aaaa".to_vec()),
            ("pm/b".into(), b"bb".to_vec()),
            ("pm/keep".into(), b"new!".to_vec()),
        ];
        backend.put_many(&batch).unwrap();
        assert_eq!(backend.get("pm/a").unwrap(), b"aaaa");
        assert_eq!(backend.get("pm/b").unwrap(), b"bb");
        assert_eq!(backend.get("pm/keep").unwrap(), b"new!");
        // Net accounting matches a loop of puts: 3 + 4 + 2 + 4 - 3.
        assert_eq!(backend.bytes_written(), 10);
        backend.put_many(&[]).unwrap();
        assert_eq!(backend.bytes_written(), 10);
    }

    #[test]
    fn memory_backend_put_many_matches_put_loop() {
        exercise_put_many(&MemoryBackend::new());
    }

    #[test]
    fn disk_backend_put_many_matches_put_loop() {
        let dir = std::env::temp_dir()
            .join(format!("ckptstore-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise_put_many(&DiskBackend::new(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&MemoryBackend::new());
    }

    #[test]
    fn disk_backend_contract() {
        let dir = std::env::temp_dir().join(format!(
            "ckptstore-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&DiskBackend::new(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backend_rejects_escaping_keys() {
        let dir = std::env::temp_dir()
            .join(format!("ckptstore-esc-{}", std::process::id()));
        let backend = DiskBackend::new(&dir).unwrap();
        assert!(backend.put("../evil", b"x").is_err());
        assert!(backend.put("a//b", b"x").is_err());
        assert!(backend.put("", b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_backend_is_shareable_across_threads() {
        let backend = Arc::new(MemoryBackend::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let b = Arc::clone(&backend);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let key = format!("t{t}/blob{i}");
                    b.put(&key, &[t as u8; 16]).unwrap();
                    assert_eq!(b.get(&key).unwrap(), vec![t as u8; 16]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(backend.blob_count(), 8 * 50);
    }
}
