//! A fast, non-cryptographic hasher for hot-path maps.
//!
//! The simulator's inner loops key maps by small integers (event sequence
//! numbers, pids) and short host-name strings. SipHash — `std`'s default,
//! chosen for HashDoS resistance — costs more than the surrounding work on
//! those paths, and the simulation never hashes attacker-controlled input.
//! [`HashX`] is a multiply-rotate word hasher in the FxHash family:
//! one rotate, one xor, and one multiply per 8-byte word.
//!
//! Use [`FastMap`] / [`FastSet`] where profiles show hashing, and keep the
//! `std` defaults everywhere else.
//!
//! [`fnv1a_fold`] is the one FNV-1a 64-bit loop: broadcast stamp
//! signatures, `Hello` proofs, relayed request ids and every run digest
//! fold their bytes through it, so what goes on the wire and what the
//! digests pin are the same function.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (a golden-ratio-derived odd constant
/// that mixes well under multiplication).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state. One `u64` of rolling state; each word folds in with
/// rotate-xor-multiply.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashX(u64);

impl HashX {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for HashX {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in with the tail so "ab" and "ab\0" differ.
            self.fold(u64::from_le_bytes(tail) ^ (bytes.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// FNV-1a 64-bit offset basis: the state before the first byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one byte slice into an FNV-1a 64-bit state; start from
/// [`FNV_OFFSET`].
#[inline]
#[must_use]
pub fn fnv1a_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// `BuildHasher` for [`HashX`].
pub type BuildHashX = BuildHasherDefault<HashX>;

/// A `HashMap` keyed with [`HashX`].
pub type FastMap<K, V> = HashMap<K, V, BuildHashX>;

/// A `HashSet` keyed with [`HashX`].
pub type FastSet<T> = HashSet<T, BuildHashX>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_apart() {
        let hash = |bytes: &[u8]| {
            let mut h = HashX::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"calder"), hash(b"ucbarpa"));
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b""), hash(b"\0"));
    }

    #[test]
    fn integer_writes_differ_from_zero_state() {
        let mut a = HashX::default();
        a.write_u64(1);
        let mut b = HashX::default();
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fast_map_and_set_work() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FastSet<&str> = FastSet::default();
        assert!(s.insert("x"));
        assert!(!s.insert("x"));
    }
}
