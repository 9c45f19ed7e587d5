//! Tuple lineage: signatures and done-sets.
//!
//! "In order to enable tuples to be routed individually, each tuple must
//! have some additional state with which it is associated … at a minimum,
//! for an Eddy representing a single query, the state must indicate the set
//! of connected modules successfully visited by the tuple" (§2.2).
//!
//! We keep that state *outside* the tuple (the paper notes both layouts are
//! possible): the eddy wraps each in-flight tuple with its done-set and its
//! *signature* — the set of query sources whose columns it spans. Signatures
//! drive module applicability: a filter on `c1.price` applies to any tuple
//! spanning `c1`; the SteM on `T` is probed only by tuples NOT spanning `T`.

use std::collections::HashMap;
use std::sync::Arc;

use tcq_common::{Result, SchemaRef, TcqError};

/// A set of query sources, as a bitmask (≤ 64 sources per eddy, far above
/// any practical query).
pub type SourceSet = u64;

/// Computes and caches tuple signatures by schema identity.
///
/// Qualifier → bit assignments are fixed at eddy construction; schemas are
/// interned by `Arc` pointer so signature lookup is a hash probe, not a
/// per-column string scan. Each entry holds its schema, so the address
/// cannot be reused by another schema while the entry lives.
pub struct SignatureCache {
    /// source qualifier (lowercase) -> bit index.
    bits: HashMap<String, u8>,
    /// schema ptr -> (that schema, its signature).
    cache: HashMap<usize, (SchemaRef, SourceSet)>,
}

impl SignatureCache {
    /// Create a cache over the given source qualifiers (order = bit order).
    pub fn new(sources: &[impl AsRef<str>]) -> Result<Self> {
        if sources.len() > 64 {
            return Err(TcqError::Capacity(format!(
                "an eddy supports at most 64 sources, got {}",
                sources.len()
            )));
        }
        let mut bits = HashMap::with_capacity(sources.len());
        for (i, s) in sources.iter().enumerate() {
            if bits
                .insert(s.as_ref().to_ascii_lowercase(), i as u8)
                .is_some()
            {
                return Err(TcqError::Analysis(format!(
                    "duplicate source '{}' in eddy",
                    s.as_ref()
                )));
            }
        }
        Ok(SignatureCache {
            bits,
            cache: HashMap::new(),
        })
    }

    /// Bit for one source qualifier.
    pub fn bit_of(&self, source: &str) -> Result<SourceSet> {
        self.bits
            .get(&source.to_ascii_lowercase())
            .map(|&b| 1u64 << b)
            .ok_or_else(|| TcqError::UnknownStream(source.to_string()))
    }

    /// The full footprint: every registered source.
    pub fn footprint(&self) -> SourceSet {
        if self.bits.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits.len()) - 1
        }
    }

    /// The signature of tuples with this schema: the union of bits of every
    /// qualifier appearing in it. Errors on qualifiers unknown to the eddy.
    pub fn signature(&mut self, schema: &SchemaRef) -> Result<SourceSet> {
        let key = Arc::as_ptr(schema) as usize;
        if let Some((held, sig)) = self.cache.get(&key) {
            debug_assert!(Arc::ptr_eq(held, schema), "signature of another schema");
            return Ok(*sig);
        }
        let mut sig = 0u64;
        for i in 0..schema.len() {
            let q = schema.qualifier(i);
            if q.is_empty() {
                continue;
            }
            let bit = self.bits.get(&q.to_ascii_lowercase()).ok_or_else(|| {
                TcqError::UnknownStream(format!("tuple qualifier '{q}' not a source of this eddy"))
            })?;
            sig |= 1u64 << bit;
        }
        self.cache.insert(key, (schema.clone(), sig));
        Ok(sig)
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when no source is registered.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema};

    fn schema(q: &str) -> SchemaRef {
        Schema::qualified(q, vec![Field::new("x", DataType::Int)]).into_ref()
    }

    #[test]
    fn signatures_and_footprint() {
        let mut sc = SignatureCache::new(&["S", "T"]).unwrap();
        assert_eq!(sc.footprint(), 0b11);
        let s = schema("S");
        let t = schema("T");
        assert_eq!(sc.signature(&s).unwrap(), 0b01);
        assert_eq!(sc.signature(&t).unwrap(), 0b10);
        let joined: SchemaRef = Arc::new(Schema::concat(&s, &t));
        assert_eq!(sc.signature(&joined).unwrap(), 0b11);
    }

    #[test]
    fn cache_hits_by_pointer() {
        let mut sc = SignatureCache::new(&["S"]).unwrap();
        let s = schema("S");
        let a = sc.signature(&s).unwrap();
        let b = sc.signature(&s).unwrap();
        assert_eq!(a, b);
        // A different allocation with identical content also works.
        let s2 = schema("S");
        assert_eq!(sc.signature(&s2).unwrap(), a);
    }

    /// A freed schema's address handed to a schema of another source must
    /// not return the old source's signature.
    #[test]
    fn a_recycled_schema_address_gets_a_fresh_signature() {
        let mut sc = SignatureCache::new(&["S", "T"]).unwrap();
        let s = schema("S");
        let s_addr = Arc::as_ptr(&s) as usize;
        assert_eq!(sc.signature(&s).unwrap(), 0b01);
        drop(s);
        // Misses are held so each retry gets a fresh address.
        let mut misses = Vec::new();
        let t = loop {
            let t = schema("T");
            if Arc::as_ptr(&t) as usize == s_addr || misses.len() == 64 {
                break t;
            }
            misses.push(t);
        };
        assert_eq!(sc.signature(&t).unwrap(), 0b10);
    }

    #[test]
    fn unknown_qualifier_is_an_error() {
        let mut sc = SignatureCache::new(&["S"]).unwrap();
        assert!(sc.signature(&schema("Z")).is_err());
        assert!(sc.bit_of("Z").is_err());
    }

    #[test]
    fn case_insensitive_sources() {
        let mut sc = SignatureCache::new(&["ClosingStockPrices"]).unwrap();
        assert_eq!(sc.signature(&schema("closingstockprices")).unwrap(), 1);
    }

    #[test]
    fn duplicate_source_rejected() {
        assert!(SignatureCache::new(&["s", "S"]).is_err());
    }
}
