//! Multi-level stable storage: a tier hierarchy with per-tier write
//! policies and fall-through recovery (SCR/FTI-style).
//!
//! The paper treats "stable storage" as a primitive; production systems
//! realize it as a *hierarchy*: ranks checkpoint fast to a node-local
//! tier, an asynchronous mover drains committed checkpoints down to
//! partner replicas and a durable global tier, and restart reads from
//! the fastest tier that still holds the data. [`TieredBackend`] is that
//! hierarchy behind the ordinary [`StorageBackend`] trait, so the rest
//! of the stack (store, pipeline, GC) is unchanged:
//!
//! * **put** lands on tier 0 only (the staging tier, always
//!   [`WritePolicy::Direct`]). Commit latency therefore covers
//!   tier-local durability only.
//! * **promotion** ([`TieredBackend::promote`]) copies a key down to a
//!   lower tier under that tier's write policy — verbatim
//!   ([`WritePolicy::Direct`]), replicated onto `k` neighbor ranks'
//!   slots ([`WritePolicy::Partner`]), or split into Reed–Solomon
//!   `(n, k)` shards ([`WritePolicy::Erasure`], see [`crate::erasure`]).
//!   The `ckptpipe` mover calls this for every key of a committed
//!   checkpoint.
//! * **get / contains** fall through tiers in order. A partner tier
//!   serves from any surviving replica slot; an erasure tier
//!   reconstructs from any `k` of `n` surviving shards. Only when every
//!   tier fails is the key reported missing.
//! * **delete** cascades to the derived keys (replica slots, shards) on
//!   every tier, so manifest-aware GC releases space in the whole
//!   hierarchy without orphaning replicas.
//!
//! Derived-key layout (all on the owning tier's backend):
//!
//! ```text
//! tier t, Direct:          {key}
//! tier t, Partner{k}:      rep/{(owner+1+i) % nranks}/{key}   i in 0..k
//! tier t, Erasure{k,m}:    ec/{i}/{key}                       i in 0..k+m
//! ```
//!
//! Erasure shards are self-describing: a sealed header records the
//! original length and the `(i, k, n)` geometry, so a reader never
//! trusts a shard that disagrees with the tier's configuration.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backend::StorageBackend;
use crate::codec::{Decoder, Encoder};
use crate::erasure;
use crate::error::{StoreError, StoreResult};
use crate::integrity::{seal, unseal};

/// How writes (promotions) materialize a key on a given tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Store the key verbatim. Mandatory for tier 0 (the staging tier).
    Direct,
    /// Replicate the full value onto `replicas` neighbor ranks' slots;
    /// any one surviving replica serves a read.
    Partner {
        /// Number of replica slots (neighbors `owner+1 ..= owner+replicas`).
        replicas: usize,
    },
    /// Reed–Solomon erasure coding: `data` data shards plus `parity`
    /// parity shards; any `data` of the `data + parity` shards
    /// reconstruct the value.
    Erasure {
        /// Data shard count (`k`).
        data: u8,
        /// Parity shard count (`m`); up to `m` shards may be lost.
        parity: u8,
    },
}

/// One level of the hierarchy: a backend plus the policy promotions use
/// when writing to it.
#[derive(Clone)]
pub struct TierSpec {
    /// The tier's storage backend (memory, disk, or a fault-injecting
    /// wrapper simulating a slow remote).
    pub backend: Arc<dyn StorageBackend>,
    /// Write policy applied when a key is promoted to this tier.
    pub policy: WritePolicy,
}

impl TierSpec {
    /// A tier storing keys verbatim.
    pub fn direct(backend: Arc<dyn StorageBackend>) -> Self {
        TierSpec {
            backend,
            policy: WritePolicy::Direct,
        }
    }

    /// A partner-replication tier with `replicas` neighbor slots.
    pub fn partner(backend: Arc<dyn StorageBackend>, replicas: usize) -> Self {
        TierSpec {
            backend,
            policy: WritePolicy::Partner { replicas },
        }
    }

    /// An erasure-coded tier with `data` + `parity` shards per key.
    pub fn erasure(
        backend: Arc<dyn StorageBackend>,
        data: u8,
        parity: u8,
    ) -> Self {
        TierSpec {
            backend,
            policy: WritePolicy::Erasure { data, parity },
        }
    }
}

struct TierObs {
    put_ns: Vec<c3obs::Histogram>,
    get_ns: Vec<c3obs::Histogram>,
    promote_ns: Vec<c3obs::Histogram>,
    promotes: c3obs::Counter,
    reconstructions: c3obs::Counter,
}

/// A multi-level [`StorageBackend`]: tier 0 takes the writes, lower
/// tiers hold promoted copies, reads fall through until a tier can
/// serve. See the [module docs](self) for the layout and semantics.
pub struct TieredBackend {
    tiers: Vec<TierSpec>,
    nranks: usize,
    reconstructions: AtomicU64,
    obs: std::sync::OnceLock<TierObs>,
}

fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Strip a two-component derived prefix (`rep/{d}/` or `ec/{i}/`),
/// returning the base key.
fn strip_derived(derived: &str) -> Option<&str> {
    let rest = derived.split_once('/')?.1;
    Some(rest.split_once('/')?.1)
}

impl TieredBackend {
    /// Build a hierarchy over `tiers` for a job of `nranks` ranks
    /// (partner slots are rank indices modulo `nranks`).
    ///
    /// Panics on an invalid topology: no tiers, a non-`Direct` tier 0,
    /// zero replicas, zero data shards, or more than
    /// [`erasure::MAX_SHARDS`] total shards.
    pub fn new(tiers: Vec<TierSpec>, nranks: usize) -> Self {
        assert!(!tiers.is_empty(), "at least one tier");
        assert!(nranks >= 1, "at least one rank");
        assert!(
            matches!(tiers[0].policy, WritePolicy::Direct),
            "tier 0 is the staging tier and must be Direct"
        );
        for t in &tiers {
            match t.policy {
                WritePolicy::Direct => {}
                WritePolicy::Partner { replicas } => {
                    assert!(replicas >= 1, "at least one partner replica");
                }
                WritePolicy::Erasure { data, parity } => {
                    assert!(data >= 1, "at least one data shard");
                    assert!(
                        data as usize + parity as usize <= erasure::MAX_SHARDS,
                        "at most {} shards",
                        erasure::MAX_SHARDS
                    );
                }
            }
        }
        TieredBackend {
            tiers,
            nranks,
            reconstructions: AtomicU64::new(0),
            obs: std::sync::OnceLock::new(),
        }
    }

    /// Number of tiers in the hierarchy.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Rank count the partner mapping is defined over.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// How many erasure-tier reads had to *reconstruct* (at least one
    /// data shard was lost) since construction.
    pub fn reconstructions(&self) -> u64 {
        self.reconstructions.load(Ordering::Relaxed)
    }

    /// Register per-tier metric handles in `reg` (first call wins).
    /// Records `tier_put_ns` / `tier_get_ns` / `tier_drain_ns`
    /// histograms labelled by tier, plus `tier_promotes_total` and
    /// `tier_shard_reconstructions_total` counters.
    pub fn attach_obs(&self, reg: &c3obs::Registry) {
        let _ = self.obs.get_or_init(|| {
            let mut put_ns = Vec::new();
            let mut get_ns = Vec::new();
            let mut promote_ns = Vec::new();
            for t in 0..self.tiers.len() {
                let tl = t.to_string();
                let labels: &[(&str, &str)] = &[("tier", tl.as_str())];
                put_ns.push(reg.histogram_with("tier_put_ns", labels));
                get_ns.push(reg.histogram_with("tier_get_ns", labels));
                promote_ns.push(reg.histogram_with("tier_drain_ns", labels));
            }
            TierObs {
                put_ns,
                get_ns,
                promote_ns,
                promotes: reg.counter("tier_promotes_total"),
                reconstructions: reg
                    .counter("tier_shard_reconstructions_total"),
            }
        });
    }

    /// The rank that owns `key` for partner placement: the `rank{N}`
    /// path component when present (rank blobs), else a stable hash of
    /// the key (content-addressed chunks).
    pub fn owner_of(&self, key: &str) -> usize {
        for comp in key.split('/') {
            if let Some(num) = comp.strip_prefix("rank") {
                if let Ok(r) = num.parse::<usize>() {
                    return r % self.nranks;
                }
            }
        }
        (fnv1a(key) % self.nranks as u64) as usize
    }

    fn replica_key(&self, key: &str, slot: usize) -> String {
        let owner = self.owner_of(key);
        format!("rep/{}/{key}", (owner + 1 + slot) % self.nranks)
    }

    fn shard_key(key: &str, idx: usize) -> String {
        format!("ec/{idx}/{key}")
    }

    fn encode_shard(
        value_len: usize,
        idx: usize,
        k: u8,
        n: u8,
        shard: &[u8],
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(value_len as u64);
        enc.put_u8(idx as u8);
        enc.put_u8(k);
        enc.put_u8(n);
        enc.put_bytes(shard);
        seal(&enc.into_bytes())
    }

    /// Decode a shard blob, validating the `(idx, k, n)` geometry.
    /// Returns `(orig_len, shard_data)`.
    fn decode_shard(
        raw: &[u8],
        idx: usize,
        k: u8,
        n: u8,
    ) -> Option<(usize, Vec<u8>)> {
        let payload = unseal(raw)?;
        let mut dec = Decoder::new(payload);
        let orig = dec.get_u64().ok()? as usize;
        let got_idx = dec.get_u8().ok()?;
        let got_k = dec.get_u8().ok()?;
        let got_n = dec.get_u8().ok()?;
        let data = dec.get_bytes().ok()?;
        dec.finish("shard").ok()?;
        if got_idx as usize != idx || got_k != k || got_n != n {
            return None;
        }
        Some((orig, data.to_vec()))
    }

    /// Write `value` for `key` onto tier `t` under that tier's policy.
    fn write_tier(
        &self,
        t: usize,
        key: &str,
        value: &[u8],
    ) -> StoreResult<()> {
        let tier = &self.tiers[t];
        match tier.policy {
            WritePolicy::Direct => tier.backend.put(key, value),
            WritePolicy::Partner { replicas } => {
                for slot in 0..replicas {
                    tier.backend.put(&self.replica_key(key, slot), value)?;
                }
                Ok(())
            }
            WritePolicy::Erasure { data, parity } => {
                let shards =
                    erasure::encode(value, data as usize, parity as usize);
                let n = data + parity;
                for (i, shard) in shards.iter().enumerate() {
                    let blob =
                        Self::encode_shard(value.len(), i, data, n, shard);
                    tier.backend.put(&Self::shard_key(key, i), &blob)?;
                }
                Ok(())
            }
        }
    }

    /// Read `key` from tier `t` alone (no fall-through).
    fn read_tier(&self, t: usize, key: &str) -> StoreResult<Vec<u8>> {
        let tier = &self.tiers[t];
        match tier.policy {
            WritePolicy::Direct => tier.backend.get(key),
            WritePolicy::Partner { replicas } => {
                for slot in 0..replicas {
                    if let Ok(v) =
                        tier.backend.get(&self.replica_key(key, slot))
                    {
                        return Ok(v);
                    }
                }
                Err(StoreError::Missing(key.to_string()))
            }
            WritePolicy::Erasure { data, parity } => {
                let k = data as usize;
                let n = k + parity as usize;
                let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
                let mut orig_len: Option<usize> = None;
                let mut have = 0usize;
                for (i, slot) in shards.iter_mut().enumerate() {
                    let Ok(raw) = tier.backend.get(&Self::shard_key(key, i))
                    else {
                        continue;
                    };
                    let Some((orig, shard_data)) =
                        Self::decode_shard(&raw, i, data, data + parity)
                    else {
                        continue; // corrupt shard == lost shard
                    };
                    if *orig_len.get_or_insert(orig) != orig {
                        continue; // geometry disagreement == lost shard
                    }
                    *slot = Some(shard_data);
                    have += 1;
                    if have == k {
                        break; // any k shards suffice
                    }
                }
                if have < k {
                    return Err(StoreError::Missing(key.to_string()));
                }
                let orig = orig_len.unwrap_or(0);
                let rebuilt = shards[..k].iter().any(|s| s.is_none());
                match erasure::decode(&shards, k, orig) {
                    Some(blob) => {
                        if rebuilt {
                            self.reconstructions
                                .fetch_add(1, Ordering::Relaxed);
                            if let Some(o) = self.obs.get() {
                                o.reconstructions.inc();
                            }
                        }
                        Ok(blob)
                    }
                    None => Err(StoreError::Corrupt {
                        key: key.to_string(),
                        detail: "erasure reconstruction failed".to_string(),
                    }),
                }
            }
        }
    }

    /// Availability of `key` on tier `t` alone, under that tier's
    /// policy (an erasure tier answers true iff ≥ `k` shards survive).
    fn tier_contains(&self, t: usize, key: &str) -> StoreResult<bool> {
        let tier = &self.tiers[t];
        match tier.policy {
            WritePolicy::Direct => tier.backend.contains(key),
            WritePolicy::Partner { replicas } => {
                for slot in 0..replicas {
                    if tier.backend.contains(&self.replica_key(key, slot))? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            WritePolicy::Erasure { data, parity } => {
                let n = data as usize + parity as usize;
                let mut have = 0usize;
                for i in 0..n {
                    if tier.backend.contains(&Self::shard_key(key, i))? {
                        have += 1;
                        if have == data as usize {
                            return Ok(true);
                        }
                    }
                }
                Ok(false)
            }
        }
    }

    /// Copy `key` down to tier `t` under that tier's write policy,
    /// reading the value through the normal fall-through path. The
    /// `ckptpipe` mover drives this for every key of a committed
    /// checkpoint.
    pub fn promote(&self, key: &str, t: usize) -> StoreResult<()> {
        assert!(t < self.tiers.len(), "tier {t} out of range");
        let value = self.get(key)?;
        let sw = c3obs::Stopwatch::start();
        let res = self.write_tier(t, key, &value);
        if let Some(o) = self.obs.get() {
            o.promote_ns[t].record(sw.elapsed_ns());
            o.promotes.inc();
        }
        res
    }

    /// The shallowest tier able to serve `key`, or `None` if every tier
    /// fails. Mirrors the order [`StorageBackend::get`] falls through,
    /// so this is the tier a recovery read would hit.
    pub fn probe_tier(&self, key: &str) -> Option<u8> {
        (0..self.tiers.len())
            .find(|&t| self.tier_contains(t, key).unwrap_or(false))
            .map(|t| t as u8)
    }

    /// The deepest tier able to serve `key` — the durability level the
    /// key has reached (recorded per rank in the commit record).
    pub fn deepest_tier(&self, key: &str) -> Option<u8> {
        (0..self.tiers.len())
            .rev()
            .find(|&t| self.tier_contains(t, key).unwrap_or(false))
            .map(|t| t as u8)
    }

    /// Chaos helper: erase *everything* on tier `t` (a lost local SSD, a
    /// wiped burst buffer). Returns the number of keys deleted.
    pub fn wipe_tier(&self, t: usize) -> StoreResult<u64> {
        let backend = &self.tiers[t].backend;
        let keys = backend.list("")?;
        let n = keys.len() as u64;
        for k in &keys {
            backend.delete(k)?;
        }
        Ok(n)
    }

    /// Chaos helper: erase every tier-0 key owned by `rank` (a single
    /// node's local storage lost). Returns the number of keys deleted.
    pub fn wipe_rank_local(&self, rank: usize) -> StoreResult<u64> {
        let backend = &self.tiers[0].backend;
        let mut n = 0;
        for key in backend.list("")? {
            if self.owner_of(&key) == rank {
                backend.delete(&key)?;
                n += 1;
            }
        }
        Ok(n)
    }

    /// Chaos helper: delete `lose` shards of `key` on erasure tier `t`
    /// (lowest indices first, so data shards go before parity and a
    /// successful read is a genuine reconstruction). Returns how many
    /// shards were actually present and deleted.
    pub fn lose_shards(
        &self,
        t: usize,
        key: &str,
        lose: usize,
    ) -> StoreResult<u64> {
        let tier = &self.tiers[t];
        let WritePolicy::Erasure { data, parity } = tier.policy else {
            panic!("tier {t} is not erasure-coded");
        };
        let n = data as usize + parity as usize;
        let mut deleted = 0;
        for i in 0..n.min(lose) {
            let sk = Self::shard_key(key, i);
            if tier.backend.contains(&sk)? {
                tier.backend.delete(&sk)?;
                deleted += 1;
            }
        }
        Ok(deleted)
    }
}

impl StorageBackend for TieredBackend {
    /// Writes land on tier 0 only; promotion to lower tiers is the
    /// mover's job. This is what keeps the drain barrier (and therefore
    /// commit latency) covering tier-local durability alone.
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        let sw = c3obs::Stopwatch::start();
        let res = self.tiers[0].backend.put(key, value);
        if let Some(o) = self.obs.get() {
            o.put_ns[0].record(sw.elapsed_ns());
        }
        res
    }

    /// Batched writes land on tier 0 only, like [`put`], in one inner
    /// `put_many` so tier 0 can amortize its per-operation cost.
    ///
    /// [`put`]: StorageBackend::put
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> StoreResult<()> {
        let sw = c3obs::Stopwatch::start();
        let res = self.tiers[0].backend.put_many(items);
        if let Some(o) = self.obs.get() {
            o.put_ns[0].record(sw.elapsed_ns());
        }
        res
    }

    /// Falls through tiers in order; any per-tier failure (missing key,
    /// corrupt shard, too few survivors) moves on to the next tier.
    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        let mut last: Option<StoreError> = None;
        for t in 0..self.tiers.len() {
            let sw = c3obs::Stopwatch::start();
            let res = self.read_tier(t, key);
            if let Some(o) = self.obs.get() {
                o.get_ns[t].record(sw.elapsed_ns());
            }
            match res {
                Ok(v) => return Ok(v),
                Err(e @ StoreError::Missing(_)) => {
                    last.get_or_insert(e);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| StoreError::Missing(key.to_string())))
    }

    fn contains(&self, key: &str) -> StoreResult<bool> {
        for t in 0..self.tiers.len() {
            if self.tier_contains(t, key)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Cascades to every tier's derived keys, so GC never orphans a
    /// replica or shard. Partner slots are swept for *all* ranks, not
    /// just the current owner mapping, to stay idempotent under
    /// topology drift.
    fn delete(&self, key: &str) -> StoreResult<()> {
        for tier in &self.tiers {
            match tier.policy {
                WritePolicy::Direct => tier.backend.delete(key)?,
                WritePolicy::Partner { .. } => {
                    for d in 0..self.nranks {
                        tier.backend.delete(&format!("rep/{d}/{key}"))?;
                    }
                }
                WritePolicy::Erasure { data, parity } => {
                    for i in 0..data as usize + parity as usize {
                        tier.backend.delete(&Self::shard_key(key, i))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The union of every tier's base keys (derived keys are mapped
    /// back to the key they encode), sorted lexicographically.
    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        let mut out = BTreeSet::new();
        for tier in &self.tiers {
            match tier.policy {
                WritePolicy::Direct => {
                    out.extend(tier.backend.list(prefix)?);
                }
                WritePolicy::Partner { .. } => {
                    for derived in tier.backend.list("rep/")? {
                        if let Some(base) = strip_derived(&derived) {
                            if base.starts_with(prefix) {
                                out.insert(base.to_string());
                            }
                        }
                    }
                }
                WritePolicy::Erasure { .. } => {
                    for derived in tier.backend.list("ec/")? {
                        if let Some(base) = strip_derived(&derived) {
                            if base.starts_with(prefix) {
                                out.insert(base.to_string());
                            }
                        }
                    }
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Total bytes written across every tier (staging plus promotion
    /// traffic — the hierarchy's real storage cost).
    fn bytes_written(&self) -> u64 {
        self.tiers.iter().map(|t| t.backend.bytes_written()).sum()
    }

    fn as_tiered(&self) -> Option<&TieredBackend> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn three_tier(nranks: usize) -> (TieredBackend, Vec<Arc<MemoryBackend>>) {
        let raw: Vec<Arc<MemoryBackend>> =
            (0..3).map(|_| Arc::new(MemoryBackend::new())).collect();
        let tiers = vec![
            TierSpec::direct(raw[0].clone()),
            TierSpec::partner(raw[1].clone(), 2),
            TierSpec::erasure(raw[2].clone(), 3, 2),
        ];
        (TieredBackend::new(tiers, nranks), raw)
    }

    #[test]
    fn put_stays_on_tier_zero() {
        let (t, raw) = three_tier(4);
        t.put("ckpt/00000001/rank2/state", b"hello").unwrap();
        assert_eq!(raw[0].blob_count(), 1);
        assert_eq!(raw[1].blob_count(), 0);
        assert_eq!(raw[2].blob_count(), 0);
        assert_eq!(t.probe_tier("ckpt/00000001/rank2/state"), Some(0));
        assert_eq!(t.deepest_tier("ckpt/00000001/rank2/state"), Some(0));
    }

    #[test]
    fn promotion_and_fall_through_read() {
        let (t, raw) = three_tier(4);
        let key = "ckpt/00000001/rank2/state";
        t.put(key, b"payload").unwrap();
        t.promote(key, 1).unwrap();
        t.promote(key, 2).unwrap();
        assert_eq!(raw[1].blob_count(), 2, "two partner replicas");
        assert_eq!(raw[2].blob_count(), 5, "3+2 erasure shards");
        assert_eq!(t.deepest_tier(key), Some(2));

        // Wipe the local tier: reads fall through to the partner copies.
        t.wipe_tier(0).unwrap();
        assert_eq!(t.probe_tier(key), Some(1));
        assert_eq!(t.get(key).unwrap(), b"payload");

        // Wipe partners too: erasure tier reconstitutes the value.
        t.wipe_tier(1).unwrap();
        assert_eq!(t.probe_tier(key), Some(2));
        assert_eq!(t.get(key).unwrap(), b"payload");
        assert_eq!(t.reconstructions(), 0, "all shards present: no rebuild");
    }

    #[test]
    fn erasure_reconstructs_from_k_of_n() {
        let (t, _raw) = three_tier(2);
        let key = "ckpt/00000002/rank0/state";
        let value: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        t.put(key, &value).unwrap();
        t.promote(key, 2).unwrap();
        t.wipe_tier(0).unwrap();

        // Losing up to parity=2 shards (data shards first) still reads.
        assert_eq!(t.lose_shards(2, key, 2).unwrap(), 2);
        assert!(t.tier_contains(2, key).unwrap());
        assert_eq!(t.get(key).unwrap(), value);
        assert_eq!(t.reconstructions(), 1, "data shard lost: real rebuild");

        // Losing one more crosses n−k: the tier reports the key gone.
        assert_eq!(t.lose_shards(2, key, 3).unwrap(), 1);
        assert!(!t.tier_contains(2, key).unwrap());
        assert!(matches!(t.get(key), Err(StoreError::Missing(_))));
    }

    #[test]
    fn partner_survives_single_replica_loss() {
        let (t, raw) = three_tier(4);
        let key = "ckpt/00000001/rank1/log";
        t.put(key, b"log-bytes").unwrap();
        t.promote(key, 1).unwrap();
        t.wipe_tier(0).unwrap();
        // owner=1 → replicas on ranks 2 and 3; lose rank 2's slot.
        raw[1].delete(&format!("rep/2/{key}")).unwrap();
        assert_eq!(t.get(key).unwrap(), b"log-bytes");
        // Lose the second replica too: now it is really gone.
        raw[1].delete(&format!("rep/3/{key}")).unwrap();
        assert!(t.get(key).is_err());
        assert!(!t.contains(key).unwrap());
    }

    #[test]
    fn delete_cascades_to_every_tier() {
        let (t, raw) = three_tier(4);
        let key = "ckpt/00000003/rank0/state";
        t.put(key, b"v").unwrap();
        t.promote(key, 1).unwrap();
        t.promote(key, 2).unwrap();
        t.delete(key).unwrap();
        for (i, b) in raw.iter().enumerate() {
            assert_eq!(b.blob_count(), 0, "tier {i} not empty after delete");
        }
        assert!(!t.contains(key).unwrap());
    }

    #[test]
    fn list_unions_tiers_and_maps_derived_keys_back() {
        let (t, _raw) = three_tier(4);
        t.put("ckpt/00000001/rank0/state", b"a").unwrap();
        t.put("ckpt/00000001/rank1/state", b"b").unwrap();
        t.promote("ckpt/00000001/rank0/state", 1).unwrap();
        t.promote("ckpt/00000001/rank1/state", 2).unwrap();
        t.wipe_tier(0).unwrap();
        assert_eq!(
            t.list("ckpt/00000001/").unwrap(),
            vec![
                "ckpt/00000001/rank0/state".to_string(),
                "ckpt/00000001/rank1/state".to_string(),
            ]
        );
        assert!(t.list("chunk/").unwrap().is_empty());
    }

    #[test]
    fn owner_parses_rank_component_else_hashes() {
        let (t, _raw) = three_tier(4);
        assert_eq!(t.owner_of("ckpt/00000001/rank2/state"), 2);
        assert_eq!(t.owner_of("ckpt/00000001/rank6/state"), 2, "mod nranks");
        let h = t.owner_of("chunk/00deadbeef");
        assert!(h < 4);
        assert_eq!(h, t.owner_of("chunk/00deadbeef"), "stable");
    }

    #[test]
    fn wipe_rank_local_is_owner_scoped() {
        let (t, raw) = three_tier(4);
        t.put("ckpt/00000001/rank0/state", b"a").unwrap();
        t.put("ckpt/00000001/rank1/state", b"b").unwrap();
        let n = t.wipe_rank_local(0).unwrap();
        assert_eq!(n, 1);
        assert_eq!(raw[0].blob_count(), 1);
        assert!(t.contains("ckpt/00000001/rank1/state").unwrap());
        assert!(!t.contains("ckpt/00000001/rank0/state").unwrap());
    }

    #[test]
    fn bytes_written_sums_tiers_and_as_tiered_resolves() {
        let (t, _raw) = three_tier(2);
        t.put("k/rank0/x", &[0u8; 100]).unwrap();
        let staged = t.bytes_written();
        assert_eq!(staged, 100);
        t.promote("k/rank0/x", 1).unwrap();
        assert!(t.bytes_written() > staged, "promotion traffic counted");
        let dynref: &dyn StorageBackend = &t;
        assert!(dynref.as_tiered().is_some());
    }
}
