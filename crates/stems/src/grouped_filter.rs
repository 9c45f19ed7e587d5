//! Grouped filters (CACQ, §3.1).
//!
//! > "A grouped filter is an index for single-variable boolean factors over
//! > the same attribute. When a new query is inserted into the system, it is
//! > decomposed into its individual boolean factors. The single-variable
//! > boolean factors are then inserted into appropriate grouped filters."
//!
//! One grouped filter indexes all registered factors over **one attribute**.
//! Probing with an attribute value returns, in one pass, the set of factors
//! the value satisfies — instead of evaluating each query's predicate
//! separately. Internally:
//!
//! * `=` factors live in a hash map constant → factor set;
//! * `!=` factors live in a hash map of *exceptions* (all `!=` factors match
//!   unless the constant equals the probe value), unioned word-parallel via
//!   [`BitSet::union_andnot`] — no per-probe temporary;
//! * `>` / `>=` and `<` / `<=` factors live in two [`RangeIndex`]es: a
//!   constant-sorted vector cut into blocks of [`BLOCK`] entries with a
//!   precomputed prefix (resp. suffix) factor bitmap per block. A probe is
//!   one binary search, **one** bitmap union for all fully-covered blocks,
//!   and a walk of at most one partial block — instead of one bitset insert
//!   per matching factor.
//!
//! Registration churn is epoch-based ([`crate::epoch`]): inserts land in a
//! small sorted `pending` side-buffer and removals tombstone into a `dead`
//! bitmap; probes consult both, and the sorted run plus its block bitmaps
//! are rebuilt only when pending or dead counts cross a threshold.

use std::collections::HashMap;

use tcq_common::{BitSet, CmpOp, Result, TcqError, Value};

use crate::epoch::{compaction_due, EpochStats, REBUILD_PENDING};

/// Identifies one registered boolean factor within a grouped filter. Factor
/// ids are assigned by the caller (typically a [`crate::QueryStem`]) so one
/// id space spans all of a query's factors across filters.
pub type FactorId = usize;

/// Entries per block of the range indexes. A probe walks at most one
/// partial block per index, so this bounds per-probe work; rebuild cost per
/// epoch is O(entries + entries/BLOCK bitmap unions).
const BLOCK: usize = 256;

/// An entry in one of the two sorted range tables.
#[derive(Debug, Clone)]
struct RangeEntry {
    constant: Value,
    /// True for strict (`>` / `<`), false for inclusive (`>=` / `<=`).
    strict: bool,
    factor: FactorId,
}

/// Which side of the constant a probe value must fall on to match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeKind {
    /// `value > constant` family: matches constants *below* the probe, so
    /// block bitmaps are prefix unions.
    Lower,
    /// `value < constant` family: matches constants *above* the probe, so
    /// block bitmaps are suffix unions.
    Upper,
}

/// One direction of range factors: a compacted constant-sorted run with
/// per-block prefix/suffix bitmaps, plus the epoch side-state.
#[derive(Debug)]
struct RangeIndex {
    kind: RangeKind,
    /// Sorted ascending by constant; may contain tombstoned factors.
    entries: Vec<RangeEntry>,
    /// `Lower`: `block_bits[i]` = union of factors in `entries[..(i+1)*BLOCK]`
    /// (complete blocks only). `Upper`: `block_bits[i]` = union of factors in
    /// `entries[i*BLOCK..]` (last one may cover a partial tail).
    block_bits: Vec<BitSet>,
    /// Sorted ascending by constant; merged into `entries` at rebuild.
    pending: Vec<RangeEntry>,
    /// Tombstoned factors still present in `entries`; masked out of every
    /// probe because factor ids are recycled by the caller.
    dead: BitSet,
    dead_count: usize,
}

impl RangeIndex {
    fn new(kind: RangeKind) -> Self {
        RangeIndex {
            kind,
            entries: Vec::new(),
            block_bits: Vec::new(),
            pending: Vec::new(),
            dead: BitSet::new(),
            dead_count: 0,
        }
    }

    fn insert(&mut self, e: RangeEntry) {
        let pos = self
            .pending
            .partition_point(|x| x.constant.total_cmp(&e.constant).is_lt());
        self.pending.insert(pos, e);
        if self.pending.len() >= REBUILD_PENDING {
            self.rebuild();
        }
    }

    /// Remove the factor registered with `constant`. Pending entries are
    /// dropped eagerly (the buffer is small); compacted entries are
    /// tombstoned and swept out by the next rebuild.
    fn remove(&mut self, id: FactorId, constant: &Value) {
        let run = self
            .pending
            .partition_point(|x| x.constant.total_cmp(constant).is_lt());
        for i in run..self.pending.len() {
            if self.pending[i].constant.total_cmp(constant).is_ne() {
                break;
            }
            if self.pending[i].factor == id {
                self.pending.remove(i);
                return;
            }
        }
        self.dead.insert(id);
        self.dead_count += 1;
        if compaction_due(self.dead_count, self.entries.len()) {
            self.rebuild();
        }
    }

    /// Merge pending inserts, drop tombstones, recompute block bitmaps.
    fn rebuild(&mut self) {
        let mut merged = Vec::with_capacity(self.entries.len() + self.pending.len());
        let mut old = std::mem::take(&mut self.entries).into_iter().peekable();
        let mut new = std::mem::take(&mut self.pending).into_iter().peekable();
        loop {
            let take_old = match (old.peek(), new.peek()) {
                (Some(a), Some(b)) => a.constant.total_cmp(&b.constant).is_le(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let e = if take_old {
                let e = old.next().unwrap();
                if self.dead.contains(e.factor) {
                    continue;
                }
                e
            } else {
                new.next().unwrap()
            };
            merged.push(e);
        }
        self.entries = merged;
        self.dead.clear();
        self.dead_count = 0;
        self.block_bits.clear();
        match self.kind {
            RangeKind::Lower => {
                // Prefix unions over complete blocks.
                let mut acc = BitSet::new();
                for chunk in self.entries.chunks_exact(BLOCK) {
                    for e in chunk {
                        acc.insert(e.factor);
                    }
                    self.block_bits.push(acc.clone());
                }
            }
            RangeKind::Upper => {
                // Suffix unions, built back-to-front; the first block may
                // cover a partial tail.
                let nblocks = self.entries.len().div_ceil(BLOCK);
                let mut acc = BitSet::new();
                let mut bits = vec![BitSet::new(); nblocks];
                for i in (0..nblocks).rev() {
                    let lo = i * BLOCK;
                    let hi = ((i + 1) * BLOCK).min(self.entries.len());
                    for e in &self.entries[lo..hi] {
                        acc.insert(e.factor);
                    }
                    bits[i] = acc.clone();
                }
                self.block_bits = bits;
            }
        }
    }

    /// Union into `out` every live factor the probe value satisfies.
    fn probe(&self, value: &Value, out: &mut BitSet) {
        match self.kind {
            RangeKind::Lower => {
                // Matches constants < value, plus inclusive at ==.
                let idx = self
                    .entries
                    .partition_point(|e| e.constant.total_cmp(value).is_lt());
                let b = idx / BLOCK;
                if b > 0 {
                    out.union_andnot(&self.block_bits[b - 1], &self.dead);
                }
                for e in &self.entries[b * BLOCK..idx] {
                    if !self.dead.contains(e.factor) {
                        out.insert(e.factor);
                    }
                }
                for e in &self.entries[idx..] {
                    if e.constant.total_cmp(value).is_gt() {
                        break;
                    }
                    if !e.strict && !self.dead.contains(e.factor) {
                        out.insert(e.factor);
                    }
                }
                let p = self
                    .pending
                    .partition_point(|e| e.constant.total_cmp(value).is_lt());
                for e in &self.pending[..p] {
                    out.insert(e.factor);
                }
                for e in &self.pending[p..] {
                    if e.constant.total_cmp(value).is_gt() {
                        break;
                    }
                    if !e.strict {
                        out.insert(e.factor);
                    }
                }
            }
            RangeKind::Upper => {
                // Matches constants > value, plus inclusive at ==.
                let idx = self
                    .entries
                    .partition_point(|e| e.constant.total_cmp(value).is_le());
                let b = idx.div_ceil(BLOCK);
                if b < self.block_bits.len() {
                    out.union_andnot(&self.block_bits[b], &self.dead);
                }
                let partial_hi = (b * BLOCK).min(self.entries.len());
                for e in &self.entries[idx..partial_hi] {
                    if !self.dead.contains(e.factor) {
                        out.insert(e.factor);
                    }
                }
                // Walk the equal run backwards from `idx`.
                for e in self.entries[..idx].iter().rev() {
                    if e.constant.total_cmp(value).is_lt() {
                        break;
                    }
                    if !e.strict && !self.dead.contains(e.factor) {
                        out.insert(e.factor);
                    }
                }
                let p = self
                    .pending
                    .partition_point(|e| e.constant.total_cmp(value).is_le());
                for e in &self.pending[p..] {
                    out.insert(e.factor);
                }
                for e in self.pending[..p].iter().rev() {
                    if e.constant.total_cmp(value).is_lt() {
                        break;
                    }
                    if !e.strict {
                        out.insert(e.factor);
                    }
                }
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<RangeEntry>();
        let heap: usize = self
            .entries
            .iter()
            .chain(self.pending.iter())
            .map(|e| match &e.constant {
                Value::Str(s) => s.len(),
                _ => 0,
            })
            .sum();
        self.entries.capacity() * entry
            + self.pending.capacity() * entry
            + self
                .block_bits
                .iter()
                .map(|b| b.approx_bytes())
                .sum::<usize>()
            + self.dead.approx_bytes()
            + heap
    }
}

/// A grouped filter over a single attribute.
#[derive(Debug)]
pub struct GroupedFilter {
    eq: HashMap<Value, BitSet>,
    ne: HashMap<Value, BitSet>,
    /// All `!=` factors (they match unless excepted).
    ne_all: BitSet,
    /// `value > constant` (and `>=`) factors.
    gt: RangeIndex,
    /// `value < constant` (and `<=`) factors.
    lt: RangeIndex,
    /// Every factor registered in this filter.
    owners: BitSet,
    /// Per-factor record for removal: (op, constant).
    registered: HashMap<FactorId, (CmpOp, Value)>,
}

impl Default for GroupedFilter {
    fn default() -> Self {
        GroupedFilter {
            eq: HashMap::new(),
            ne: HashMap::new(),
            ne_all: BitSet::new(),
            gt: RangeIndex::new(RangeKind::Lower),
            lt: RangeIndex::new(RangeKind::Upper),
            owners: BitSet::new(),
            registered: HashMap::new(),
        }
    }
}

impl GroupedFilter {
    /// An empty grouped filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register factor `id`: `attribute <op> constant`. Errors if `id` is
    /// already present.
    pub fn insert(&mut self, id: FactorId, op: CmpOp, constant: Value) -> Result<()> {
        if self.registered.contains_key(&id) {
            return Err(TcqError::Capacity(format!(
                "factor {id} already registered in grouped filter"
            )));
        }
        match op {
            CmpOp::Eq => self.eq.entry(constant.clone()).or_default().insert(id),
            CmpOp::Ne => {
                self.ne.entry(constant.clone()).or_default().insert(id);
                self.ne_all.insert(id);
            }
            CmpOp::Gt | CmpOp::Ge => self.gt.insert(RangeEntry {
                constant: constant.clone(),
                strict: op == CmpOp::Gt,
                factor: id,
            }),
            CmpOp::Lt | CmpOp::Le => self.lt.insert(RangeEntry {
                constant: constant.clone(),
                strict: op == CmpOp::Lt,
                factor: id,
            }),
        }
        self.owners.insert(id);
        self.registered.insert(id, (op, constant));
        Ok(())
    }

    /// Remove factor `id`; no-op if absent.
    pub fn remove(&mut self, id: FactorId) {
        let Some((op, constant)) = self.registered.remove(&id) else {
            return;
        };
        self.owners.remove(id);
        match op {
            CmpOp::Eq => {
                if let Some(set) = self.eq.get_mut(&constant) {
                    set.remove(id);
                    if set.is_empty() {
                        self.eq.remove(&constant);
                    }
                }
            }
            CmpOp::Ne => {
                self.ne_all.remove(id);
                if let Some(set) = self.ne.get_mut(&constant) {
                    set.remove(id);
                    if set.is_empty() {
                        self.ne.remove(&constant);
                    }
                }
            }
            CmpOp::Gt | CmpOp::Ge => self.gt.remove(id, &constant),
            CmpOp::Lt | CmpOp::Le => self.lt.remove(id, &constant),
        }
    }

    /// All factors registered here.
    pub fn owners(&self) -> &BitSet {
        &self.owners
    }

    /// Number of registered factors.
    pub fn len(&self) -> usize {
        self.registered.len()
    }

    /// True when no factor is registered.
    pub fn is_empty(&self) -> bool {
        self.registered.is_empty()
    }

    /// Iterate every registered factor as `(id, op, constant)`, in no
    /// particular order. Used by differential tests and the scale bench to
    /// build a naive per-factor reference.
    pub fn iter_factors(&self) -> impl Iterator<Item = (FactorId, CmpOp, &Value)> + '_ {
        self.registered.iter().map(|(&id, (op, c))| (id, *op, c))
    }

    /// Mid-epoch bookkeeping counts for the two range indexes combined.
    pub fn epoch_stats(&self) -> EpochStats {
        EpochStats {
            pending: self.gt.pending.len() + self.lt.pending.len(),
            tombstones: self.gt.dead_count + self.lt.dead_count,
            entries: self.gt.entries.len() + self.lt.entries.len(),
        }
    }

    /// Approximate heap footprint of the index structures in bytes.
    pub fn approx_bytes(&self) -> usize {
        let map_entry = |m: &HashMap<Value, BitSet>| -> usize {
            m.iter()
                .map(|(k, v)| k.approx_bytes() + v.approx_bytes())
                .sum::<usize>()
                + m.capacity() * std::mem::size_of::<(Value, BitSet)>()
        };
        map_entry(&self.eq)
            + map_entry(&self.ne)
            + self.ne_all.approx_bytes()
            + self.gt.approx_bytes()
            + self.lt.approx_bytes()
            + self.owners.approx_bytes()
            + self.registered.capacity() * std::mem::size_of::<(FactorId, (CmpOp, Value))>()
            + self
                .registered
                .values()
                .map(|(_, c)| match c {
                    Value::Str(s) => s.len(),
                    _ => 0,
                })
                .sum::<usize>()
    }

    /// Probe with an attribute value: union into `out` the ids of every
    /// factor the value satisfies. A NULL probe satisfies nothing (SQL
    /// three-valued logic).
    pub fn eval(&self, value: &Value, out: &mut BitSet) {
        if value.is_null() {
            return;
        }
        if let Some(set) = self.eq.get(value) {
            out.union_with(set);
        }
        if !self.ne_all.is_empty() {
            match self.ne.get(value) {
                Some(excepted) => out.union_andnot(&self.ne_all, excepted),
                None => out.union_with(&self.ne_all),
            }
        }
        self.gt.probe(value, out);
        self.lt.probe(value, out);
    }

    /// Convenience: probe and collect into a fresh set.
    pub fn eval_collect(&self, value: &Value) -> BitSet {
        let mut out = BitSet::new();
        self.eval(value, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_with(factors: &[(FactorId, CmpOp, Value)]) -> GroupedFilter {
        let mut f = GroupedFilter::new();
        for (id, op, v) in factors {
            f.insert(*id, *op, v.clone()).unwrap();
        }
        f
    }

    /// Reference implementation: evaluate each factor directly.
    fn naive(factors: &[(FactorId, CmpOp, Value)], v: &Value) -> BitSet {
        let mut out = BitSet::new();
        for (id, op, c) in factors {
            if let Ok(Some(ord)) = v.sql_cmp(c) {
                if op.matches(ord) {
                    out.insert(*id);
                }
            }
        }
        out
    }

    #[test]
    fn equality_factors() {
        let f = filter_with(&[
            (0, CmpOp::Eq, Value::str("MSFT")),
            (1, CmpOp::Eq, Value::str("IBM")),
            (2, CmpOp::Eq, Value::str("MSFT")),
        ]);
        let got = f.eval_collect(&Value::str("MSFT"));
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(f.eval_collect(&Value::str("ORCL")).is_empty());
    }

    #[test]
    fn inequality_factors_match_unless_excepted() {
        let f = filter_with(&[(0, CmpOp::Ne, Value::Int(5)), (1, CmpOp::Ne, Value::Int(7))]);
        assert_eq!(
            f.eval_collect(&Value::Int(5)).iter().collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(
            f.eval_collect(&Value::Int(6)).iter().collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn range_factors_strict_and_inclusive() {
        let f = filter_with(&[
            (0, CmpOp::Gt, Value::Float(50.0)),
            (1, CmpOp::Ge, Value::Float(50.0)),
            (2, CmpOp::Lt, Value::Float(50.0)),
            (3, CmpOp::Le, Value::Float(50.0)),
        ]);
        assert_eq!(
            f.eval_collect(&Value::Float(50.0))
                .iter()
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(
            f.eval_collect(&Value::Float(51.0))
                .iter()
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            f.eval_collect(&Value::Float(49.0))
                .iter()
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn null_probe_satisfies_nothing() {
        let f = filter_with(&[
            (0, CmpOp::Ne, Value::Int(5)),
            (1, CmpOp::Gt, Value::Int(0)),
            (2, CmpOp::Eq, Value::Null),
        ]);
        assert!(f.eval_collect(&Value::Null).is_empty());
    }

    #[test]
    fn removal_unregisters() {
        let factors = [
            (0, CmpOp::Gt, Value::Int(10)),
            (1, CmpOp::Gt, Value::Int(20)),
            (2, CmpOp::Eq, Value::Int(30)),
            (3, CmpOp::Ne, Value::Int(30)),
        ];
        let mut f = filter_with(&factors);
        assert_eq!(f.len(), 4);
        f.remove(1);
        f.remove(3);
        assert_eq!(f.len(), 2);
        let got = f.eval_collect(&Value::Int(30));
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![0, 2]);
        // Double-remove is a no-op.
        f.remove(1);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn duplicate_factor_id_rejected() {
        let mut f = GroupedFilter::new();
        f.insert(0, CmpOp::Eq, Value::Int(1)).unwrap();
        assert!(f.insert(0, CmpOp::Gt, Value::Int(2)).is_err());
    }

    #[test]
    fn mixed_int_float_constants_compare_numerically() {
        let f = filter_with(&[
            (0, CmpOp::Gt, Value::Int(50)),
            (1, CmpOp::Gt, Value::Float(49.5)),
        ]);
        let got = f.eval_collect(&Value::Float(49.8));
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn matches_naive_reference_on_dense_grid() {
        // All ops × constants 0..10 against probes -1..11 — exhaustive
        // agreement with per-factor evaluation.
        let mut factors = Vec::new();
        let mut id = 0;
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for c in 0..10i64 {
                factors.push((id, op, Value::Int(c)));
                id += 1;
            }
        }
        let f = filter_with(&factors);
        for probe in -1..=11i64 {
            let v = Value::Int(probe);
            assert_eq!(
                f.eval_collect(&v),
                naive(&factors, &v),
                "disagreement at probe {probe}"
            );
        }
    }

    #[test]
    fn matches_naive_across_epoch_rebuilds() {
        // Enough range factors to cross several pending-buffer rebuilds and
        // fill multiple prefix/suffix blocks, probed at block boundaries.
        let n = 4 * REBUILD_PENDING + 37;
        let mut factors = Vec::new();
        for i in 0..n {
            let op = match i % 4 {
                0 => CmpOp::Gt,
                1 => CmpOp::Ge,
                2 => CmpOp::Lt,
                _ => CmpOp::Le,
            };
            // Duplicate constants on purpose: equal runs must be walked in
            // full on both sides of the binary search.
            factors.push((i, op, Value::Int((i % 97) as i64)));
        }
        let f = filter_with(&factors);
        assert!(f.epoch_stats().entries > 2 * BLOCK, "must span blocks");
        for probe in -1..=98i64 {
            let v = Value::Int(probe);
            assert_eq!(
                f.eval_collect(&v),
                naive(&factors, &v),
                "disagreement at probe {probe}"
            );
        }
    }

    #[test]
    fn tombstoned_factor_is_masked_until_compaction() {
        // Fill past one rebuild so factors live in the compacted run, then
        // remove one: the probe must not return it even though its entry is
        // still physically present (mid-epoch tombstone).
        let n = REBUILD_PENDING + 10;
        let mut f = GroupedFilter::new();
        for i in 0..n {
            f.insert(i, CmpOp::Gt, Value::Int(i as i64)).unwrap();
        }
        f.remove(3);
        let stats = f.epoch_stats();
        assert_eq!(stats.tombstones, 1, "removal must tombstone, not compact");
        let got = f.eval_collect(&Value::Int(5));
        assert!(!got.contains(3));
        assert!(got.contains(0) && got.contains(4));
        // Reusing the tombstoned id must route through the pending buffer
        // and win over the dead entry.
        f.insert(3, CmpOp::Gt, Value::Int(100)).unwrap();
        assert!(!f.eval_collect(&Value::Int(5)).contains(3));
        assert!(f.eval_collect(&Value::Int(101)).contains(3));
    }

    #[test]
    fn heavy_removal_triggers_compaction() {
        let n = 2 * REBUILD_PENDING;
        let mut f = GroupedFilter::new();
        for i in 0..n {
            f.insert(i, CmpOp::Lt, Value::Int(i as i64)).unwrap();
        }
        for i in 0..n / 2 {
            f.remove(i * 2);
        }
        let stats = f.epoch_stats();
        assert!(
            !compaction_due(stats.tombstones, stats.entries),
            "sustained removal must compact: {stats:?}"
        );
        let got = f.eval_collect(&Value::Int(-1));
        assert_eq!(got.len(), n / 2);
    }
}
