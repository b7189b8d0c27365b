//! The crate's one hasher: rows, index keys and join keys all hash through
//! [`hash_values`], and every hash table keyed by such a hash uses it as is.
//!
//! [`RowHasher`] is an Fx-style word hasher (rotate, xor, multiply) with a
//! murmur3 finalizer, so every bit of the output depends on every input
//! bit. It has no per-process seed: the same rows hash the same in every
//! run, which keeps the simulation's runs reproducible whatever a table's
//! layout. [`PreHashed`] passes an already-computed hash through untouched;
//! maps keyed by a [`hash_values`] output, or by a [`Tuple`](crate::Tuple)
//! (which caches its own), hash with it and never hash a row twice.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::value::Value;

/// Fx's multiplier: an odd constant close to 2^64 / φ.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An Fx-style streaming hasher with a finalizing mix. Deterministic: no
/// random state.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowHasher(u64);

impl RowHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    /// The state through murmur3's 64-bit finalizer: the multiply chain
    /// leaves the low bits weak, and a hash table indexes by them.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hashes a sequence of borrowed values. A row's cached hash, an index's
/// bucket key and a hash join's key are all this function, so a probe
/// hashes values borrowed straight out of the probing row.
///
/// An integer, the common column, is one word; any other value is its tag
/// and payload. Equal values still hash equal, and what an integer may
/// collide with is only a cost, never a wrong answer.
pub fn hash_values<'a, I: IntoIterator<Item = &'a Value>>(values: I) -> u64 {
    let mut h = RowHasher::default();
    for v in values {
        match v {
            Value::Int(i) => h.write_i64(*i),
            other => other.hash(&mut h),
        }
    }
    h.finish()
}

/// A hasher for keys that already are a [`hash_values`] output: it hands
/// the one `u64` it is given back unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PreHashed keys hash as one u64");
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map whose keys hash as one pre-computed `u64`: a bucket hash, or
/// a [`Tuple`](crate::Tuple).
pub type PreHashedMap<K, V> = HashMap<K, V, BuildHasherDefault<PreHashed>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal() {
        let a = [Value::from(1), Value::str("x"), Value::Null, Value::float(-0.0)];
        let b = [Value::from(1), Value::str("x"), Value::Null, Value::float(0.0)];
        assert_eq!(hash_values(&a), hash_values(&b));
        assert_ne!(hash_values(&[Value::from(1)]), hash_values(&[Value::from(2)]));
        assert_ne!(
            hash_values(&[Value::str("ab")]),
            hash_values(&[Value::str("a"), Value::str("b")])
        );
    }

    #[test]
    fn low_bits_spread_over_a_key_range() {
        // A table indexes by the low bits: 4 096 consecutive keys must land
        // in most of 4 096 slots, not a stride of them.
        let mut seen = vec![false; 4096];
        for k in 0..4096i64 {
            seen[(hash_values(&[Value::from(k)]) & 4095) as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 2400);
    }
}
