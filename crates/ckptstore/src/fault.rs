//! Deterministic fault injection at the storage layer.
//!
//! [`FaultInjectingBackend`] wraps any [`StorageBackend`] and makes its
//! `put` path misbehave according to a seeded, reproducible
//! [`FaultPlan`]: fail the first N puts, fail the first put to each
//! distinct key ("fail-once"), fail a seeded random fraction of puts, or
//! delay every put (slow storage). A random failure is decided by the
//! seed, the key and that key's attempt number alone, so concurrent
//! writers reaching the store in any order meet the same faults; only
//! "the first N puts" depends on arrival order. Injected failures surface
//! as [`StoreError::Transient`], which the write pipeline retries with
//! backoff — so tests can prove that a checkpoint survives flaky storage,
//! and that commit never happens before every retried write has landed.
//!
//! Beyond the flat `slow_put_ms` delay, a plan can carry a *seeded
//! per-operation latency profile* ([`FaultPlan::latency`]): every put
//! and get sleeps `base + jitter(op_index)` milliseconds, where the
//! jitter sequence is a pure function of the seed and the operation
//! index ([`FaultPlan::op_delay_ms`]). Two backends built from the same
//! plan observe byte-identical latency sequences, so a slow store
//! misbehaves the same way on every run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::StorageBackend;
use crate::error::{StoreError, StoreResult};

/// A reproducible plan of storage misbehavior. Compose with the builder
/// methods; the default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Fail this many `put` calls before any succeeds. Which puts these
    /// are depends on the order they arrive in.
    pub fail_first_puts: u64,
    /// Fail the first `put` to every distinct key.
    pub fail_each_key_once: bool,
    /// Fail each `put` with this probability, decided by the seed, the
    /// key and the key's attempt number (deterministic in any order).
    pub fail_put_probability: f64,
    /// Seed for the probability draw.
    pub seed: u64,
    /// Sleep this long before every `put` (simulated slow storage).
    pub slow_put_ms: u64,
    /// Base latency in milliseconds added to every operation (put *and*
    /// get) by the seeded latency profile.
    pub latency_base_ms: u64,
    /// Jitter bound: each operation additionally sleeps
    /// `0..=latency_jitter_ms` milliseconds, drawn deterministically
    /// from `seed` and the operation index.
    pub latency_jitter_ms: u64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fail the first `n` puts.
    pub fn fail_n(mut self, n: u64) -> Self {
        self.fail_first_puts = n;
        self
    }

    /// Fail the first put to each distinct key.
    pub fn fail_key_once(mut self) -> Self {
        self.fail_each_key_once = true;
        self
    }

    /// Fail puts with probability `p`, reproducibly from `seed`.
    pub fn random(mut self, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.fail_put_probability = p;
        self.seed = seed;
        self
    }

    /// Delay every put by `ms` milliseconds.
    pub fn slow_ms(mut self, ms: u64) -> Self {
        self.slow_put_ms = ms;
        self
    }

    /// Attach a seeded per-operation latency profile: every put and get
    /// sleeps `base + (0..=jitter)` ms, the jitter drawn reproducibly
    /// from `seed` and the operation index. Models slow storage with
    /// realistic variance while keeping runs reproducible.
    pub fn latency(mut self, base_ms: u64, jitter_ms: u64, seed: u64) -> Self {
        self.latency_base_ms = base_ms;
        self.latency_jitter_ms = jitter_ms;
        self.seed = seed;
        self
    }

    /// Derive a whole storage-misbehavior plan from a single seed — the
    /// fuzzer's storage dimension. About a third of seeds inject
    /// nothing; the rest draw a small mix of early-put failures,
    /// fail-once-per-key, a low random failure probability, and a mild
    /// (≤ 3 ms) latency profile. Everything injected surfaces as
    /// [`StoreError::Transient`], which the pipeline retries, so a
    /// derived plan slows a job down but never makes it fail outright.
    pub fn from_seed(seed: u64) -> Self {
        const SALT_PLAN: u64 = 0xFA17_F1A9;
        let mut s = seed ^ SALT_PLAN;
        let mut next = |span: u64| splitmix64(&mut s) % span.max(1);
        if next(3) == 0 {
            return FaultPlan::none();
        }
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::none()
        };
        if next(2) == 0 {
            plan.fail_first_puts = 1 + next(3);
        }
        if next(4) == 0 {
            plan.fail_each_key_once = true;
        }
        if next(3) == 0 {
            plan.fail_put_probability = (1 + next(40)) as f64 / 1000.0;
        }
        if next(3) == 0 {
            plan.latency_base_ms = next(2);
            plan.latency_jitter_ms = 1 + next(2);
        }
        plan
    }

    /// The latency (ms) the profile assigns to operation `op_index` —
    /// a pure function of the plan's seed, so the whole sequence can be
    /// precomputed and asserted against. Returns 0 when no profile is
    /// configured.
    pub fn op_delay_ms(&self, op_index: u64) -> u64 {
        if self.latency_base_ms == 0 && self.latency_jitter_ms == 0 {
            return 0;
        }
        if self.latency_jitter_ms == 0 {
            return self.latency_base_ms;
        }
        // Mix the seed and index through splitmix64 so neighboring
        // indices decorrelate; independent of the failure-draw stream.
        let mut s = self
            .seed
            .wrapping_add(0xA5A5_5A5A_D00D_FEED)
            .wrapping_add(op_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let draw = splitmix64(&mut s);
        self.latency_base_ms + draw % (self.latency_jitter_ms + 1)
    }

    /// The uniform `[0, 1)` draw that decides whether attempt `attempt`
    /// of a put to `key` fails at random: a pure function of the seed,
    /// the key and the attempt, independent of the latency profile's.
    fn put_draw(&self, key: &str, attempt: u64) -> f64 {
        let mut s = self.seed
            ^ (crate::hash128(key.as_bytes()) as u64)
            ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03);
        // Map the top 53 bits to [0, 1).
        (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One SplitMix64 step: advance `state`, return the next draw. The one
/// seeded-stream primitive of every crate above the store — the gear
/// table, fault plans, the protocol's non-determinism source, fuzz
/// scenarios — so a seed means the same thing everywhere.
pub const fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`StorageBackend`] decorator that injects deterministic put faults.
pub struct FaultInjectingBackend {
    inner: Arc<dyn StorageBackend>,
    plan: FaultPlan,
    puts: AtomicU64,
    injected: AtomicU64,
    ops: AtomicU64,
    /// Put attempts so far, per key.
    attempts: Mutex<HashMap<String, u64>>,
}

impl FaultInjectingBackend {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: Arc<dyn StorageBackend>, plan: FaultPlan) -> Self {
        FaultInjectingBackend {
            inner,
            plan,
            puts: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Number of faults injected so far — tests assert this is nonzero to
    /// prove the schedule actually exercised the retry path.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Total `put` attempts observed (including failed ones).
    pub fn put_attempts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Operations (puts + gets) that went through the latency profile.
    pub fn ops_observed(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Apply the seeded latency profile to the next operation.
    fn maybe_delay(&self) {
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        let ms = self.plan.op_delay_ms(idx);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    fn should_fail(&self, key: &str) -> bool {
        let n = self.puts.fetch_add(1, Ordering::Relaxed);
        let attempt = {
            let mut attempts = self.attempts.lock();
            let count = attempts.entry(key.to_owned()).or_insert(0);
            *count += 1;
            *count - 1
        };
        n < self.plan.fail_first_puts
            || (self.plan.fail_each_key_once && attempt == 0)
            || (self.plan.fail_put_probability > 0.0
                && self.plan.put_draw(key, attempt)
                    < self.plan.fail_put_probability)
    }
}

// `put_many` is the trait's default loop of `put`s, so every key of a
// batch draws its own failure decision and counts as its own attempt: a
// fault plan bites batched writers exactly as hard as looped ones.
impl StorageBackend for FaultInjectingBackend {
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        if self.plan.slow_put_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                self.plan.slow_put_ms,
            ));
        }
        self.maybe_delay();
        if self.should_fail(key) {
            let k = self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Transient(format!(
                "injected fault #{k} on put of {key}"
            )));
        }
        self.inner.put(key, value)
    }

    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        self.maybe_delay();
        self.inner.get(key)
    }

    fn contains(&self, key: &str) -> StoreResult<bool> {
        self.inner.contains(key)
    }

    fn delete(&self, key: &str) -> StoreResult<()> {
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        self.inner.list(prefix)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn wrapped(plan: FaultPlan) -> FaultInjectingBackend {
        FaultInjectingBackend::new(Arc::new(MemoryBackend::new()), plan)
    }

    #[test]
    fn fail_n_fails_exactly_n_puts() {
        let b = wrapped(FaultPlan::none().fail_n(2));
        assert!(b.put("k1", b"x").unwrap_err().is_transient());
        assert!(b.put("k1", b"x").unwrap_err().is_transient());
        b.put("k1", b"x").unwrap();
        b.put("k2", b"y").unwrap();
        assert_eq!(b.faults_injected(), 2);
        assert_eq!(b.get("k1").unwrap(), b"x");
    }

    #[test]
    fn put_many_draws_faults_per_key_and_aborts_at_the_first() {
        let b = wrapped(FaultPlan::none().fail_n(1));
        let batch: Vec<(String, Vec<u8>)> =
            vec![("m/a".into(), b"1".to_vec()), ("m/b".into(), b"2".to_vec())];
        assert!(b.put_many(&batch).unwrap_err().is_transient());
        assert_eq!(b.faults_injected(), 1);
        // Nothing landed: the first key failed and aborted the batch.
        assert!(!b.contains("m/a").unwrap() && !b.contains("m/b").unwrap());
        b.put_many(&batch).unwrap();
        assert_eq!(b.get("m/b").unwrap(), b"2");
        // Each key counted as its own attempt: 1 failed + 2 retried.
        assert_eq!(b.put_attempts(), 3);
    }

    #[test]
    fn fail_key_once_fails_first_put_per_key() {
        let b = wrapped(FaultPlan::none().fail_key_once());
        assert!(b.put("a", b"1").is_err());
        b.put("a", b"1").unwrap();
        b.put("a", b"2").unwrap();
        assert!(b.put("b", b"1").is_err());
        b.put("b", b"1").unwrap();
        assert_eq!(b.faults_injected(), 2);
    }

    /// Random faults are decided per (key, attempt): two backends fed the
    /// same puts in opposite orders fail the same pairs.
    #[test]
    fn random_faults_do_not_depend_on_arrival_order() {
        let plan = FaultPlan::none().random(0.3, 11);
        let puts: Vec<String> =
            (0..48).map(|i| format!("k{}", i % 16)).collect();
        let failed = |order: Vec<&String>| {
            let b = wrapped(plan.clone());
            let mut tries: HashMap<&str, u64> = HashMap::new();
            let mut out: Vec<(String, u64)> = order
                .into_iter()
                .filter_map(|key| {
                    let attempt = tries.entry(key).or_insert(0);
                    *attempt += 1;
                    b.put(key, b"v").is_err().then(|| (key.clone(), *attempt))
                })
                .collect();
            out.sort();
            out
        };
        let forward = failed(puts.iter().collect());
        assert_eq!(forward, failed(puts.iter().rev().collect()));
        assert!(!forward.is_empty() && forward.len() < puts.len());
    }

    #[test]
    fn random_faults_are_reproducible() {
        let outcomes = |seed| {
            let b = wrapped(FaultPlan::none().random(0.5, seed));
            (0..64)
                .map(|i| b.put(&format!("k{i}"), b"v").is_err())
                .collect::<Vec<_>>()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7), "same seed, same faults");
        assert_ne!(a, outcomes(8), "different seed, different faults");
        let fails = a.iter().filter(|&&f| f).count();
        assert!((10..55).contains(&fails), "p=0.5 gave {fails}/64");
    }

    #[test]
    fn from_seed_is_deterministic_and_survivable() {
        let mut quiet = 0usize;
        let mut injecting = 0usize;
        for seed in 0..256u64 {
            let p = FaultPlan::from_seed(seed);
            let q = FaultPlan::from_seed(seed);
            assert_eq!(format!("{p:?}"), format!("{q:?}"), "seed {seed}");
            assert!(p.fail_first_puts <= 3, "seed {seed}: {p:?}");
            assert!(p.fail_put_probability <= 0.04);
            assert!(p.latency_base_ms + p.latency_jitter_ms <= 3);
            assert_eq!(p.slow_put_ms, 0, "flat stalls stay out of fuzzing");
            let any = p.fail_first_puts > 0
                || p.fail_each_key_once
                || p.fail_put_probability > 0.0
                || p.latency_jitter_ms > 0;
            if any {
                injecting += 1;
            } else {
                quiet += 1;
            }
        }
        assert!(quiet >= 48, "{quiet} quiet plans out of 256");
        assert!(injecting >= 96, "{injecting} injecting plans out of 256");
    }

    #[test]
    fn latency_profile_is_seed_identical() {
        let plan_a = FaultPlan::none().latency(1, 9, 42);
        let plan_b = FaultPlan::none().latency(1, 9, 42);
        let plan_c = FaultPlan::none().latency(1, 9, 43);
        let seq = |p: &FaultPlan| -> Vec<u64> {
            (0..64).map(|i| p.op_delay_ms(i)).collect()
        };
        assert_eq!(seq(&plan_a), seq(&plan_b), "same seed, same sequence");
        assert_ne!(seq(&plan_a), seq(&plan_c), "seed changes the sequence");
        // Every delay honors the base..=base+jitter envelope, and the
        // jitter actually varies (a flat sequence would mean the mix is
        // broken).
        let s = seq(&plan_a);
        assert!(s.iter().all(|&d| (1..=10).contains(&d)), "{s:?}");
        assert!(s.windows(2).any(|w| w[0] != w[1]), "jitter is flat: {s:?}");
        // The profile is a pure function: recomputing any index matches.
        assert_eq!(plan_a.op_delay_ms(17), s[17]);
    }

    #[test]
    fn latency_profile_covers_puts_and_gets() {
        // Zero-delay profile so the test is fast; the op counter still
        // proves both paths consult the profile.
        let b = wrapped(FaultPlan::none());
        b.put("k", b"v").unwrap();
        let _ = b.get("k");
        let _ = b.get("missing");
        assert_eq!(b.ops_observed(), 3, "puts and gets both draw an index");
        assert_eq!(
            FaultPlan::none().op_delay_ms(0),
            0,
            "no profile, no delay"
        );
        // Base-only profile is flat and nonzero.
        let flat = FaultPlan::none().latency(3, 0, 1);
        assert_eq!(flat.op_delay_ms(0), 3);
        assert_eq!(flat.op_delay_ms(100), 3);
    }

    #[test]
    fn reads_and_deletes_pass_through() {
        let b = wrapped(FaultPlan::none().fail_n(1));
        assert!(b.put("k", b"v").is_err());
        b.put("k", b"v").unwrap();
        assert!(b.contains("k").unwrap());
        assert_eq!(b.list("").unwrap(), vec!["k"]);
        b.delete("k").unwrap();
        assert!(!b.contains("k").unwrap());
    }
}
