//! Property tests: codec totality and round-tripping, storage backend
//! semantics under arbitrary operation sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ckptstore::codec::{decode_exact, encode, Decoder, Encoder, SaveLoad};
use ckptstore::{MemoryBackend, StorageBackend};

proptest! {
    /// Encoding then decoding any mix of primitives yields the originals.
    #[test]
    fn primitive_round_trip(
        a in any::<u64>(),
        b in any::<i64>(),
        c in any::<f64>(),
        d in any::<bool>(),
        s in ".{0,64}",
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut enc = Encoder::new();
        enc.put_u64(a);
        enc.put_i64(b);
        enc.put_f64(c);
        enc.put_bool(d);
        enc.put_str(&s);
        enc.put_bytes(&bytes);
        let buf = enc.into_bytes();
        let mut dec = Decoder::new(&buf);
        prop_assert_eq!(dec.get_u64().unwrap(), a);
        prop_assert_eq!(dec.get_i64().unwrap(), b);
        let c2 = dec.get_f64().unwrap();
        prop_assert_eq!(c2.to_bits(), c.to_bits(), "bit-exact floats");
        prop_assert_eq!(dec.get_bool().unwrap(), d);
        prop_assert_eq!(dec.get_str().unwrap(), s);
        prop_assert_eq!(dec.get_bytes().unwrap(), &bytes[..]);
        prop_assert!(dec.finish("values").is_ok());
    }

    /// `crc32_combine` equals the CRC of the concatenation, either side
    /// possibly empty.
    #[test]
    fn crc32_combine_is_crc_of_concatenation(
        a in proptest::collection::vec(any::<u8>(), 0..600),
        b in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        use ckptstore::integrity::{crc32, crc32_combine};
        let whole = [a.as_slice(), b.as_slice()].concat();
        prop_assert_eq!(
            crc32_combine(crc32(&a), crc32(&b), b.len() as u64),
            crc32(&whole)
        );
    }

    /// Vec / Option / BTreeMap compositions round-trip.
    #[test]
    fn container_round_trip(
        v in proptest::collection::vec(any::<u32>(), 0..64),
        o in proptest::option::of(any::<u64>()),
        m in proptest::collection::btree_map(any::<u16>(), any::<i32>(), 0..32),
    ) {
        let mut enc = Encoder::new();
        enc.put(&v);
        enc.put(&o);
        enc.put(&m);
        let buf = enc.into_bytes();
        let mut dec = Decoder::new(&buf);
        prop_assert_eq!(dec.get::<Vec<u32>>().unwrap(), v);
        prop_assert_eq!(dec.get::<Option<u64>>().unwrap(), o);
        prop_assert_eq!(dec.get::<BTreeMap<u16, i32>>().unwrap(), m);
    }

    /// The decoder is total: arbitrary bytes either decode or error, but
    /// never panic — the recovery-path requirement.
    #[test]
    fn decoder_never_panics_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_exact::<Vec<u64>>(&garbage, "garbage");
        let _ = decode_exact::<Option<String>>(&garbage, "garbage");
        let _ = Decoder::new(&garbage).get_f64_vec();
        let _ = Decoder::new(&garbage).get_str();
    }

    /// Truncating a valid encoding at any point yields an error (never a
    /// silently short value) for length-prefixed types.
    #[test]
    fn truncation_is_always_detected(
        v in proptest::collection::vec(any::<u64>(), 1..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let buf = encode(&v);
        let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(Vec::<u64>::load(&mut Decoder::new(&buf[..cut])).is_err());
    }

    /// Memory backend: last write wins; delete removes; list is sorted and
    /// prefix-filtered.
    #[test]
    fn backend_semantics(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..8, proptest::collection::vec(any::<u8>(), 0..16)),
            1..64,
        ),
    ) {
        let backend = MemoryBackend::new();
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (op, key_idx, value) in ops {
            let key = format!("k/{key_idx}");
            match op {
                0 => {
                    backend.put(&key, &value).unwrap();
                    model.insert(key, value);
                }
                1 => {
                    backend.delete(&key).unwrap();
                    model.remove(&key);
                }
                _ => {
                    let got = backend.get(&key).ok();
                    prop_assert_eq!(got, model.get(&key).cloned());
                }
            }
        }
        let listed = backend.list("k/").unwrap();
        let expect: Vec<String> = model.keys().cloned().collect();
        prop_assert_eq!(listed, expect);
    }
}
