//! In-tree hashing for the prehashed probe path.
//!
//! The SteM hash index and the exchange partitioner both key on a join
//! attribute's [`Value`]. Before this module each site ran its own SipHash
//! over the value (`HashMap<Value, _>` in the SteM, `DefaultHasher` in the
//! partitioner), so a tuple flowing through a partitioned join was hashed
//! up to three times. [`hash_value`] is a single deterministic FNV-1a pass
//! over the value's canonical key bytes (the same bytes
//! [`Value::hash_key`] feeds any hasher, so Hash/Eq coherence carries
//! over); the result is computed once per tuple, memoized on the
//! [`crate::Tuple`] itself, and reused by partition routing, SteM build,
//! and SteM probe.
//!
//! [`IdentityBuildHasher`] lets a `HashMap` keyed by such a precomputed
//! `u64` skip re-hashing the hash: FNV-1a output is already
//! well-mixed, so feeding it through SipHash again would be pure waste.

use std::hash::{BuildHasher, Hasher};

use crate::value::Value;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A 64-bit FNV-1a [`Hasher`]. Deterministic across runs, machines, and
/// std versions — unlike `DefaultHasher`, whose algorithm std does not
/// pin — so seeded replay artifacts (partition assignments, bench JSON)
/// can never shift under a toolchain upgrade.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    // Pin integer writes to little-endian byte order (the default impls
    // use native order, which would fork the hash on big-endian targets).
    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_u8(&mut self, n: u8) {
        self.write(&[n]);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The canonical 64-bit hash of a value's key bytes: one FNV-1a pass over
/// exactly what [`Value::hash_key`] emits. Equal values (under `Value`'s
/// `Eq`, including `Int(1) == Float(1.0)`, `-0.0 == 0.0`, and NaN == NaN)
/// produce equal hashes.
pub fn hash_value(v: &Value) -> u64 {
    let mut h = Fnv1a::new();
    v.hash_key(&mut h);
    h.finish()
}

/// A pass-through [`Hasher`] for maps keyed by an already-computed `u64`
/// hash. Only `write_u64` is meaningful; anything else is a logic error.
#[derive(Debug, Clone, Default)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher only hashes u64 keys");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`BuildHasher`] producing [`IdentityHasher`]s, for
/// `HashMap<u64, _, IdentityBuildHasher>` keyed by precomputed hashes.
#[derive(Debug, Clone, Default)]
pub struct IdentityBuildHasher;

impl BuildHasher for IdentityBuildHasher {
    type Hasher = IdentityHasher;

    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher::default()
    }
}

/// Heap bytes a std `HashMap`/`HashSet` reporting `capacity` holds for
/// `slot`-byte entries: its whole bucket array (a power of two, of which
/// `capacity` counts at most 7/8), one control byte per bucket and one
/// trailing control group. Zero capacity allocates nothing.
pub fn hash_table_bytes(capacity: usize, slot: usize) -> usize {
    const GROUP: usize = 16;
    let buckets = match capacity {
        0 => return 0,
        c if c < 7 => c + 1,
        c => c / 7 * 8,
    };
    buckets * (slot + 1) + GROUP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_table_bytes_counts_the_whole_bucket_array() {
        use std::collections::HashMap;
        let mut m: HashMap<u64, u64> = HashMap::new();
        assert_eq!(hash_table_bytes(m.capacity(), 16), 0);
        for i in 0..1_000 {
            m.insert(i, i);
            let buckets = (hash_table_bytes(m.capacity(), 16) - 16) / 17;
            assert!(buckets.is_power_of_two(), "{} -> {buckets}", m.capacity());
            assert!(buckets > m.capacity() && buckets <= 2 * m.capacity());
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xCBF2_9CE4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_value(&Value::Int(7)), hash_value(&Value::Float(7.0)));
        assert_eq!(
            hash_value(&Value::Float(-0.0)),
            hash_value(&Value::Float(0.0))
        );
        assert_eq!(
            hash_value(&Value::Float(f64::NAN)),
            hash_value(&Value::Float(-f64::NAN))
        );
        assert_ne!(hash_value(&Value::Int(1)), hash_value(&Value::Int(2)));
    }

    #[test]
    fn identity_build_hasher_passes_u64_through() {
        use std::collections::HashMap;
        let mut m: HashMap<u64, i32, IdentityBuildHasher> = HashMap::default();
        m.insert(42, 1);
        m.insert(u64::MAX, 2);
        assert_eq!(m.get(&42), Some(&1));
        assert_eq!(m.get(&u64::MAX), Some(&2));
    }
}
