//! A small, fast, deterministic hasher for the simulator's internal tables.
//!
//! Words are folded in with the rotate-xor-multiply step of the "Fx" hash
//! that rustc uses for its own tables, and the result gets one folded
//! multiply to spread it over all 64 bits. It is several times cheaper
//! than the standard library's SipHash on the short fixed-size keys the
//! simulator hashes on every packet (flow tuples, addresses, transaction
//! IDs).
//!
//! It offers no protection against keys chosen to collide, so it is only
//! for keys the simulation itself generates, never for outside input. Its
//! fixed seed also gives every process the same iteration order, where
//! `RandomState` would differ from run to run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: each word is folded in with a rotate, xor and multiply.
/// Use it through [`FxHashMap`] and [`FxHashSet`].
#[derive(Debug, Clone, Copy, Default)]
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
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// Word mixing alone leaves the low bits, which pick a table's bucket,
    /// depending only on the low bits of the input: addresses that differ
    /// in their last octet would crowd a few buckets. One folded 64×64-bit
    /// multiply spreads every input bit over the whole result.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(SEED);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use std::net::IpAddr;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn same_key_same_hash_in_every_hasher() {
        let a: IpAddr = "2001:db8::53".parse().unwrap();
        assert_eq!(hash_of(&a), hash_of(&a));
        assert_eq!(hash_of(&(7u16, a)), hash_of(&(7u16, a)));
    }

    #[test]
    fn nearby_keys_spread_over_buckets() {
        // Addresses differing only in the last octet must not share the
        // low bits a small table indexes by.
        let mut low = FxHashSet::default();
        for i in 0..=255u8 {
            let ip = IpAddr::from([192, 168, 1, i]);
            low.insert(hash_of(&ip) & 0xFF);
        }
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn unaligned_tails_are_hashed() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        assert_ne!(hash_of(&[0u8; 9][..]), hash_of(&[0u8; 10][..]));
    }

    #[test]
    fn iteration_order_is_fixed() {
        let build = || {
            let mut m = FxHashMap::default();
            for i in 0..64u16 {
                m.insert(i.wrapping_mul(977), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
