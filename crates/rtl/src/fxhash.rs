//! A fast, non-cryptographic hasher shared across the toolkit.
//!
//! The detection flow hashes only small fixed-size keys (node ids, literal
//! pairs, signal ids) and short canonical strings that are never
//! attacker-controlled, so the multiply-xor scheme of rustc's `FxHash` is the
//! right trade-off against the standard library's DoS-resistant SipHash.
//! Implemented by hand because the workspace is dependency-free.  The hasher
//! lives in `htd-rtl` (the bottom of the crate stack) so both the
//! bit-blasting hot path in `htd-ipc` and the netlist-text hash
//! [`hash_of_dump`](crate::netlist::hash_of_dump) use one definition.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplicative constant of the Fx scheme (a random odd 64-bit number
/// with good bit dispersion, as used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher: `hash = (hash rotl 5 ^ word) * SEED` per input word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add_word(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_word(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_word(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_word(value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_sets_work_with_the_fx_hasher() {
        let mut map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert((i, i.wrapping_mul(31)), i);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(41, 41 * 31)), Some(&41));

        let mut set: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            set.insert(i << 32 | i);
        }
        assert_eq!(set.len(), 1000);
        assert!(set.contains(&(5u64 << 32 | 5)));
    }

    #[test]
    fn hashing_is_deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&0xdead_beefu64.to_le_bytes());
        assert_eq!(a.finish(), c.finish());
    }
}
