//! A fast, deterministic hasher for maps keyed by internal integer ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An Fx-style multiply-rotate hasher for integer ids.
///
/// Each written word is folded in as `(hash.rotl(5) ^ word) * SEED`: one
/// rotate, one xor and one multiply, against SipHash's dozen rounds. It
/// has no random seed, so a map's layout and iteration order depend only
/// on what was inserted.
///
/// It is **not** DoS-resistant: anyone who chooses the keys can make them
/// collide. Use it only for ids the program assigns itself (request ids,
/// file ranks), never for keys that come from outside.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by internal integer ids, hashed with [`IdHasher`].
///
/// Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    /// Pinned values: a change to the hash function shows up here.
    #[test]
    fn hash_values_are_pinned() {
        assert_eq!(hash_of(0u32), 0);
        assert_eq!(hash_of(1u32), 0x517c_c1b7_2722_0a95);
        assert_eq!(hash_of(7u32), 0x3a69_4c02_11ee_4a13);
        assert_eq!(hash_of(12_345u64), 0x8919_791e_1890_4b2d);
        assert_eq!(hash_of(1u64 << 40), 0x220a_9500_0000_0000);
        assert_eq!(hash_of(u64::MAX), 0xae83_3e48_d8dd_f56b);
        // A u32 and a u64 of equal value hash alike; a pair folds twice.
        assert_eq!(hash_of(7u64), hash_of(7u32));
        assert_eq!(hash_of((3u64, 5u64)), 0x3359_f8a5_6215_2317);
    }

    #[test]
    fn sequential_ids_round_trip() {
        const N: u64 = 100_000;
        let mut m: IdMap<u64, u64> = IdMap::default();
        for id in 0..N {
            assert_eq!(m.insert(id, id * 3), None);
        }
        assert_eq!(m.len(), N as usize);
        for id in 0..N {
            assert_eq!(m.get(&id), Some(&(id * 3)));
        }
        assert_eq!(m.get(&N), None);
        for id in (0..N).step_by(2) {
            assert_eq!(m.remove(&id), Some(id * 3));
        }
        assert_eq!(m.len(), N as usize / 2);
        for id in 0..N {
            assert_eq!(m.contains_key(&id), id % 2 == 1);
        }
    }
}
