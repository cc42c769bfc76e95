//! A fast, non-cryptographic hasher for the workspace's internal maps.
//!
//! Index probes and coverage-cache probes run once per search node or per
//! (clause, example) pair on the hot paths; with the default SipHash the
//! hash costs more than the lookup itself. This is the FxHash scheme used
//! by rustc (multiply-rotate-xor over word-sized chunks): not
//! DoS-resistant, which is fine for maps keyed by the database's own values
//! and tuples and by the engine's canonical clauses.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash hasher state.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_ne!(hash_of(&"hello"), hash_of(&"world"));
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1000 {
            map.insert(format!("key-{i}"), i);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get("key-500"), Some(&500));
    }
}
