//! The SteM: a temporary, indexed repository of homogeneous tuples.
//!
//! **What a stored row is.** Every tuple in one SteM has the SteM's schema
//! and is indexed on the SteM's key column, so the SteM stores rows column
//! by column, in the chunks of a [`SlotRing`]: each chunk is a column
//! segment (`crate::segment`) holding one typed column per field, the
//! logical and physical timestamps, the key hash and a live bitmap. A
//! three-`Int` row costs 48 bytes there (24 of cells, 16 of timestamp, 8 of
//! hash); `Str` cells (and cells whose variant differs from their field's type)
//! stay [`Value`]s, so stored strings share the producer's allocation and
//! every cell reads back bit-identical. A build copies its row in — from an
//! ingress [`ColumnBatch`] with `Column::push_from`
//! ([`SteM::insert_row`]), or from a [`Tuple`] ([`SteM::insert`]) — and the
//! producer's tuple is free to go. The indexes hold slot ids.
//!
//! **Probes read rows in place.** [`SteM::probe_eq_hashed_with`] hands each
//! match to a visitor as a [`StoredRow`]: a columnar join copies its cells
//! straight into the output batch, a row join builds its one output value
//! vector from the probe row plus these cells, and no per-match [`Tuple`]
//! exists. [`SteM::probe_eq_hashed`], [`SteM::scan`],
//! [`SteM::export_group`] and [`SteM::drain_all`] materialize tuples.
//!
//! **Eviction needs no arrival queue.** Slot ids are insertion order and a
//! stream delivers in timestamp order, so the oldest row is the ring's
//! front: [`SteM::evict_before_seq`] pops the front while it is older than
//! the window edge, and that row is also the front of its hash bucket
//! (buckets list ids in insertion order), which pops in O(1). Only a row
//! inserted *below* the newest timestamp seen (state absorbed from a Flux
//! peer, a restored checkpoint group) can be older than a row in front of
//! it; those rows — and only those — are also listed in a timestamp-sorted
//! side index that eviction drains first, and leave their bucket by a scan.
//! Whatever the front walk then meets that is still inside the window ends
//! it: every row behind that one was either inserted in order (so is no
//! older) or was in the side index.
//!
//! The equality index is keyed by the *precomputed* FNV-1a hash of the
//! key value ([`tcq_common::hash_value`]), not by the value itself, so a
//! prehashed probe ([`SteM::probe_eq_hashed`]) touches the index without
//! hashing anything — the hash was computed once at ingress and rides on
//! the tuple ([`Tuple::key_hash`]) or the batch's hash column. Buckets
//! verify stored-key equality on probe, so a 64-bit collision can never
//! manufacture a false match; with the hash/Eq coherence `tcq_common::value`
//! pins, results are identical to a `HashMap<Value, _>` index.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::mem::size_of;

use tcq_common::{
    hash_value, ColumnBatch, DataType, IdentityBuildHasher, Result, SchemaRef, TcqError, Tuple,
    Value,
};

use crate::segment::{Segment, StoredRow};
use crate::slot_ring::SlotRing;

/// Which index a SteM maintains on its key column. Every join the engine
/// plans is an equi-join, so the hash index is the only kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash index: O(1) equality probes (symmetric hash join, Figure 2).
    Hash,
}

/// Slot ids of one index entry, in insertion order.
type Ids = VecDeque<u32>;

/// Drop `slot` from an index entry: O(1) when it is the oldest (an
/// in-order eviction), a scan otherwise (late rows, replaced groups).
fn remove_id(ids: &mut Ids, slot: u32) {
    if ids.front() == Some(&slot) {
        ids.pop_front();
    } else {
        ids.retain(|&s| s != slot);
    }
}

/// A State Module: build / probe / evict over homogeneous tuples.
///
/// Eviction is timestamp-ordered: sliding windows call
/// [`SteM::evict_before_seq`] as the window's trailing edge advances, which
/// is how TelegraphCQ bounds the state of joins over infinite streams.
/// Evicted slots are reclaimed as the window slides (see [`SlotRing`]), so
/// storage follows the window's extent, not the stream's history.
pub struct SteM {
    name: String,
    schema: SchemaRef,
    key_col: usize,
    /// Column-segment storage; the indexes below hold slot ids.
    slots: SlotRing<Segment>,
    /// Equality index keyed by the key value's FNV-1a hash. The identity
    /// build-hasher passes the (already well-mixed) hash straight
    /// through — no SipHash on the probe path.
    hash: HashMap<u64, Ids, IdentityBuildHasher>,
    /// Highest logical timestamp among the rows inserted since the SteM
    /// was last empty: a row at or above it is in order.
    newest_seq: i64,
    /// (logical timestamp, slot) of the live rows inserted below
    /// `newest_seq`, sorted by timestamp — the rows the front walk of
    /// [`SteM::evict_before_seq`] cannot find by position. Empty on a
    /// stream that delivers in timestamp order.
    late: VecDeque<(i64, u32)>,
    live: usize,
    /// Counters for adaptive routing policies and experiments.
    builds: u64,
    probes: u64,
    matches: u64,
    /// Key-hash computations this SteM actually performed (memoized hits
    /// carried in on the tuple or the batch are free and not counted) —
    /// the double-hash-removal regression test reads this.
    hash_computes: u64,
    /// Key-hash groups mutated (insert/evict/drain) since the last
    /// [`SteM::clear_dirty`]. `BTreeSet` so checkpoint export iterates in
    /// a deterministic order — delta checkpoints must be byte-identical
    /// across same-seed runs. `None` when nothing will ever checkpoint
    /// this SteM ([`SteM::with_dirty_tracking`]): the set is drained only
    /// by a checkpoint, so without one it would grow with every distinct
    /// key the stream has ever carried.
    dirty: Option<BTreeSet<u64>>,
}

impl SteM {
    /// Create a SteM over `schema`, indexed on column `key_col`.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        key_col: usize,
        _index: IndexKind,
    ) -> Result<Self> {
        if key_col >= schema.len() {
            return Err(TcqError::SchemaMismatch(format!(
                "key column {key_col} out of range for schema {schema}"
            )));
        }
        Ok(SteM {
            name: name.into(),
            slots: SlotRing::new(Self::layout(&schema)),
            schema,
            key_col,
            hash: HashMap::default(),
            newest_seq: i64::MIN,
            late: VecDeque::new(),
            live: 0,
            builds: 0,
            probes: 0,
            matches: 0,
            hash_computes: 0,
            dirty: Some(BTreeSet::new()),
        })
    }

    fn layout(schema: &SchemaRef) -> Vec<DataType> {
        schema.fields().iter().map(|f| f.data_type).collect()
    }

    /// Track dirty key-hash groups for delta checkpoints (default on).
    /// Turn it off for a SteM no checkpoint will ever export: nothing else
    /// drains the dirty set.
    pub fn with_dirty_tracking(mut self, enabled: bool) -> Self {
        self.dirty = enabled.then(BTreeSet::new);
        self
    }

    /// Start slot ids at `base` rather than 0, so tests can cross the
    /// `u32` id wrap without four billion builds.
    #[doc(hidden)]
    pub fn with_slot_base(mut self, base: u32) -> Self {
        debug_assert!(self.slots.span() == 0, "slot base set on a used SteM");
        self.slots = SlotRing::starting_at(Self::layout(&self.schema), base);
        self
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema of stored tuples.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The indexed column.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    fn check_arity(&self, arity: usize) -> Result<()> {
        if arity == self.schema.len() {
            return Ok(());
        }
        Err(TcqError::SchemaMismatch(format!(
            "SteM {} expects arity {}, got {arity}",
            self.name,
            self.schema.len(),
        )))
    }

    /// Insert (build) a tuple, copying its values into the SteM's columns.
    /// If the tuple carries a memoized key hash for this SteM's key column
    /// (computed upstream by partition routing or a prior probe), the hash
    /// index reuses it; otherwise one FNV pass is computed here. Either
    /// way the hash is kept with the stored row, so eviction never
    /// rehashes.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        self.check_arity(tuple.arity())?;
        let key_hash = match tuple.cached_key_hash(self.key_col) {
            Some(h) => h,
            None => {
                self.hash_computes += 1;
                hash_value(tuple.value(self.key_col))
            }
        };
        self.store(key_hash, tuple.timestamp().seq(), |seg| {
            seg.push_tuple(&tuple, key_hash)
        });
        Ok(())
    }

    /// Insert (build) row `row` of `batch`, copying its typed cells out of
    /// the batch's columns. `tuple` is the batch's row mirror of that row:
    /// string cells are shared with it rather than rebuilt. The key hash
    /// comes from the batch's hash column, else the tuple's memo, else one
    /// FNV pass here.
    pub fn insert_row(&mut self, batch: &ColumnBatch, row: usize, tuple: &Tuple) -> Result<()> {
        self.check_arity(batch.columns().len())?;
        let carried = match batch.key_hashes() {
            Some((col, hashes)) if col == self.key_col => Some(hashes[row]),
            _ => tuple.cached_key_hash(self.key_col),
        };
        let key_hash = carried.unwrap_or_else(|| {
            self.hash_computes += 1;
            hash_value(tuple.value(self.key_col))
        });
        self.store(key_hash, batch.stamp(row).seq(), |seg| {
            seg.push_batch_row(batch, row, tuple, key_hash)
        });
        Ok(())
    }

    /// Append one row through `fill` and index it.
    fn store(&mut self, key_hash: u64, seq: i64, fill: impl FnOnce(&mut Segment)) {
        self.mark_dirty(key_hash);
        let slot = self.slots.push(fill);
        self.hash.entry(key_hash).or_default().push_back(slot);
        // Streams deliver in timestamp order, and then the slot id alone
        // orders eviction. A row below the newest timestamp (state
        // absorbed from a Flux peer, a restored group) pays a positional
        // insert into the side index instead.
        if self.live > 0 && seq < self.newest_seq {
            let pos = self.late.partition_point(|&(s, _)| s <= seq);
            self.late.insert(pos, (seq, slot));
        } else {
            self.newest_seq = seq;
        }
        self.live += 1;
        self.builds += 1;
    }

    fn mark_dirty(&mut self, hash: u64) {
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(hash);
        }
    }

    /// Kill live row `slot` and drop it from the indexes, returning its
    /// key hash.
    fn remove(&mut self, slot: u32) -> u64 {
        let (seg, off) = self.slots.get(slot).expect("removing a live row");
        let key_hash = seg.row(off).key_hash();
        self.slots.kill(slot);
        if let Some(ids) = self.hash.get_mut(&key_hash) {
            remove_id(ids, slot);
            if ids.is_empty() {
                self.hash.remove(&key_hash);
            }
        }
        self.live -= 1;
        key_hash
    }

    /// Probe for tuples whose key equals `key`, appending matches to `out`.
    /// Returns the number of matches. Computes the key's hash here; the
    /// prehashed hot path uses [`SteM::probe_eq_hashed`] instead.
    pub fn probe_eq(&mut self, key: &Value, out: &mut Vec<Tuple>) -> usize {
        self.hash_computes += 1;
        let h = hash_value(key);
        self.probe_eq_hashed(h, key, out)
    }

    /// Probe with a precomputed key hash (`hash` must be
    /// [`hash_value`]`(key)`; [`Tuple::key_hash`] produces exactly that),
    /// appending materialized matches to `out`. No hashing happens here —
    /// one bucket lookup plus a stored-key equality check per candidate
    /// (collision safety).
    pub fn probe_eq_hashed(&mut self, hash: u64, key: &Value, out: &mut Vec<Tuple>) -> usize {
        let (schema, key_col) = (self.schema.clone(), self.key_col);
        self.probe_eq_hashed_with(hash, key, |row| out.push(row.to_tuple(&schema, key_col)))
    }

    /// [`SteM::probe_eq_hashed`] without materializing: each match is
    /// handed to `visit`, in bucket (= insertion) order, read in place.
    pub fn probe_eq_hashed_with(
        &mut self,
        hash: u64,
        key: &Value,
        mut visit: impl FnMut(StoredRow<'_>),
    ) -> usize {
        self.probes += 1;
        let mut n = 0;
        for &id in self.hash.get(&hash).into_iter().flatten() {
            if let Some((seg, off)) = self.slots.get(id) {
                let row = seg.row(off);
                if row.value(self.key_col) == *key {
                    n += 1;
                    visit(row);
                }
            }
        }
        self.matches += n as u64;
        n
    }

    /// Iterate over all live tuples in insertion order (used for residual
    /// predicates the indexes cannot answer, and by Flux state movement).
    /// Each item is materialized from the stored columns.
    pub fn scan(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.slots
            .iter()
            .map(|(_, seg, off)| seg.row(off).to_tuple(&self.schema, self.key_col))
    }

    /// Evict every tuple with logical timestamp `< seq` (the trailing edge
    /// of a sliding window). Returns the number evicted.
    pub fn evict_before_seq(&mut self, seq: i64) -> usize {
        let before = self.live;
        // Late rows first: what the front walk meets below `seq` after
        // this is in order, and the first row it meets at or above `seq`
        // bounds every in-order row behind it.
        while let Some(&(ts, slot)) = self.late.front() {
            if ts >= seq {
                break;
            }
            self.late.pop_front();
            let hash = self.remove(slot);
            self.mark_dirty(hash);
        }
        loop {
            let front = self
                .slots
                .front()
                .map(|(slot, seg, off)| (slot, seg.row(off).timestamp().seq()));
            match front {
                Some((slot, ts)) if ts < seq => {
                    let hash = self.remove(slot);
                    self.mark_dirty(hash);
                }
                _ => break,
            }
        }
        self.slots.reclaim_front();
        before - self.live
    }

    /// Drain all tuples out (Flux state movement: the whole partition moves
    /// to another node). Leaves the SteM empty but reusable. Every drained
    /// group is marked dirty: its content here is now empty, and the next
    /// checkpoint must record the clearing.
    pub fn drain_all(&mut self) -> Vec<Tuple> {
        let out: Vec<Tuple> = self.scan().collect();
        if let Some(dirty) = &mut self.dirty {
            dirty.extend(
                self.slots
                    .iter()
                    .map(|(_, seg, off)| seg.row(off).key_hash()),
            );
        }
        self.slots.clear();
        self.hash.clear();
        self.late.clear();
        self.live = 0;
        out
    }

    /// Key-hash groups mutated since the last [`SteM::clear_dirty`], in
    /// ascending hash order (deterministic checkpoint deltas).
    pub fn dirty_groups(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty.iter().flatten().copied()
    }

    /// Number of currently dirty groups.
    pub fn dirty_len(&self) -> usize {
        self.dirty.as_ref().map_or(0, BTreeSet::len)
    }

    /// Mark every group clean — call only after the delta containing them
    /// has been durably committed.
    pub fn clear_dirty(&mut self) {
        if let Some(dirty) = &mut self.dirty {
            dirty.clear();
        }
    }

    /// Slot ids of the live rows whose key hash is `hash`, in storage
    /// order.
    fn group_ids(&self, hash: u64) -> Vec<u32> {
        let ids = self.hash.get(&hash);
        ids.map(|ids| ids.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Append all live tuples whose key hash is `hash` to `out`, in
    /// storage order. This is a group's *full current content* — a delta
    /// checkpoint writes it for every dirty hash, so an emptied group
    /// (all evicted) exports zero tuples, which restore reads as a clear.
    pub fn export_group(&self, hash: u64, out: &mut Vec<Tuple>) {
        out.extend(self.group_ids(hash).into_iter().map(|slot| {
            let (seg, off) = self.slots.get(slot).expect("group lists live rows");
            seg.row(off).to_tuple(&self.schema, self.key_col)
        }));
    }

    /// Replace the group keyed by `hash` with `tuples` (restore path).
    /// Existing tuples of the group are removed first, so re-importing a
    /// checkpointed group is idempotent and an empty import clears it.
    /// Leaves the dirty set exactly as it was: restored state is clean
    /// with respect to the checkpoint it came from.
    pub fn import_group(&mut self, hash: u64, tuples: Vec<Tuple>) -> Result<()> {
        let stale = self.group_ids(hash);
        for &slot in &stale {
            self.remove(slot);
        }
        if !stale.is_empty() {
            // A freed slot's id must not outlive it in the side index.
            self.late.retain(|&(_, s)| self.slots.get(s).is_some());
        }
        let dirty = self.dirty.take();
        let builds = self.builds;
        let imported = tuples.into_iter().try_for_each(|t| self.insert(t));
        self.builds = builds;
        self.dirty = dirty;
        self.slots.reclaim_front();
        imported
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Slots held, live or evicted-but-not-yet-reclaimed: newest slot id −
    /// oldest held id + 1. Equals [`SteM::len`] on in-order streams and is
    /// bounded by the window's extent otherwise.
    pub fn slot_span(&self) -> usize {
        self.slots.span()
    }

    /// Slot-store chunks this SteM has ever allocated; flat once a sliding
    /// window is warm ([`SlotRing::chunks_allocated`]).
    pub fn chunks_allocated(&self) -> u64 {
        self.slots.chunks_allocated()
    }

    /// Heap bytes this SteM holds, counted from its containers rather than
    /// clocked from the process: every column segment by capacity (spare
    /// chunk included; string payloads behind a `Value` cell are not
    /// followed), hash buckets by capacity, the late-row
    /// index and the dirty set. Allocator rounding and headers are not
    /// included, so the process pays a little more than this.
    pub fn approx_bytes(&self) -> usize {
        let ids = |ids: &Ids| ids.capacity() * size_of::<u32>();
        self.slots.chunks().map(Segment::heap_bytes).sum::<usize>()
            + self.hash.capacity() * size_of::<(u64, Ids)>()
            + self.hash.values().map(ids).sum::<usize>()
            + self.late.capacity() * size_of::<(i64, u32)>()
            + self.dirty_len() * size_of::<u64>()
    }

    /// True when no live tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// (builds, probes, matches) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.builds, self.probes, self.matches)
    }

    /// Key-hash computations this SteM performed itself. Memoized hashes
    /// arriving on tuples (from partition routing or a prior probe) are
    /// free; this counts only real FNV passes — the observable the
    /// hashed-exactly-once regression test pins.
    pub fn hash_computes(&self) -> u64 {
        self.hash_computes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{Field, Schema, Timestamp, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::qualified(
            "s",
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Str),
            ],
        )
        .into_ref()
    }

    fn t(k: i64, v: &str, ts: i64) -> Tuple {
        TupleBuilder::new(schema())
            .push(k)
            .push(v)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_probe_eq() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        stem.insert(t(1, "a", 1)).unwrap();
        stem.insert(t(2, "b", 2)).unwrap();
        stem.insert(t(1, "c", 3)).unwrap();
        let mut out = Vec::new();
        assert_eq!(stem.probe_eq(&Value::Int(1), &mut out), 2);
        assert_eq!(stem.probe_eq(&Value::Int(9), &mut out), 0);
        assert_eq!(out.len(), 2);
        assert_eq!(stem.counters(), (3, 2, 2));
    }

    #[test]
    fn eviction_respects_window_edge() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        for ts in 1..=10 {
            stem.insert(t(ts % 3, "x", ts)).unwrap();
        }
        assert_eq!(stem.len(), 10);
        // Slide window: keep ts >= 6.
        assert_eq!(stem.evict_before_seq(6), 5);
        assert_eq!(stem.len(), 5);
        // Probes no longer see evicted tuples.
        let mut out = Vec::new();
        stem.probe_eq(&Value::Int(0), &mut out);
        assert!(out.iter().all(|t| t.timestamp().seq() >= 6));
        // Idempotent.
        assert_eq!(stem.evict_before_seq(6), 0);
    }

    #[test]
    fn drain_all_for_state_movement() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        for ts in 1..=4 {
            stem.insert(t(ts, "x", ts)).unwrap();
        }
        let moved = stem.drain_all();
        assert_eq!(moved.len(), 4);
        assert!(stem.is_empty());
        // Reusable after drain.
        stem.insert(t(9, "y", 9)).unwrap();
        assert_eq!(stem.len(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        let other = Schema::new(vec![Field::new("z", DataType::Int)]).into_ref();
        let bad = TupleBuilder::new(other).push(1i64).build().unwrap();
        assert!(stem.insert(bad).is_err());
    }

    /// A partition drained to a Flux peer and refilled later starts over:
    /// rows older than what it once held are in order again, not "late"
    /// (16 B and a positional insert each).
    #[test]
    fn an_emptied_stem_takes_older_rows_as_in_order() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        let refill = |stem: &mut SteM| {
            (1..=50).for_each(|ts| stem.insert(t(ts % 7, "x", ts)).unwrap());
            assert!(stem.late.is_empty());
            stem.insert(t(1, "newest", 9_000)).unwrap();
            stem.insert(t(1, "late", 60)).unwrap();
            assert_eq!(stem.late.len(), 1);
        };
        refill(&mut stem);
        assert_eq!(stem.drain_all().len(), 52);
        refill(&mut stem);
        // Evicted to empty counts as empty too.
        assert_eq!(stem.evict_before_seq(10_000), 52);
        refill(&mut stem);
    }

    /// Cells go into typed columns but come back as the variant they went
    /// in as: a string where the schema says INT, NULLs, and timestamps
    /// with either component missing.
    #[test]
    fn stored_rows_read_back_exactly_as_built() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        let odd = [
            (Value::Int(1), Value::str("a"), Timestamp::both(1, 10)),
            (Value::str("k"), Value::Null, Timestamp::physical(20)),
            (Value::Null, Value::Int(7), Timestamp::unknown()),
            (Value::Int(1), Value::str(""), Timestamp::logical(4)),
        ];
        let rows: Vec<Tuple> = odd
            .iter()
            .map(|(k, v, ts)| Tuple::new(schema(), vec![k.clone(), v.clone()], *ts).unwrap())
            .collect();
        for row in &rows {
            stem.insert(row.clone()).unwrap();
        }
        let back: Vec<Tuple> = stem.scan().collect();
        assert_eq!(back, rows);
        for (got, want) in back.iter().zip(&rows) {
            assert_eq!(got.timestamp(), want.timestamp());
            assert_eq!(
                format!("{:?}", got.values()),
                format!("{:?}", want.values())
            );
        }
        let mut seqs = Vec::new();
        stem.probe_eq_hashed_with(hash_value(&Value::Int(1)), &Value::Int(1), |r| {
            seqs.push(r.timestamp().seq())
        });
        assert_eq!(seqs, vec![1, 4]);
    }

    #[test]
    fn key_col_out_of_range_rejected() {
        assert!(SteM::new("S", schema(), 7, IndexKind::Hash).is_err());
    }

    #[test]
    fn reclamation_preserves_contents_and_eviction_order() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        for ts in 1..=100 {
            stem.insert(t(ts % 5, "x", ts)).unwrap();
        }
        assert_eq!(stem.slot_span(), 100);
        stem.evict_before_seq(80);
        assert_eq!(stem.len(), 21);
        assert_eq!(stem.slot_span(), 21, "the evicted prefix went with it");
        let mut out = Vec::new();
        stem.probe_eq(&Value::Int(0), &mut out);
        let seqs: Vec<i64> = out.iter().map(|t| t.timestamp().seq()).collect();
        assert_eq!(seqs, vec![80, 85, 90, 95, 100], "bucket order survives");
        // Eviction still works on the reclaimed store.
        assert_eq!(stem.evict_before_seq(90), 10);
        assert_eq!(stem.len(), 11);
        assert_eq!(stem.slot_span(), 11);
        let seqs: Vec<i64> = stem.scan().map(|t| t.timestamp().seq()).collect();
        assert_eq!(seqs, (90..=100).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_hole_is_reclaimed_when_the_front_reaches_it() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        stem.insert(t(1, "a", 10)).unwrap();
        stem.insert(t(2, "b", 5)).unwrap(); // absorbed late: older than slot 0
        stem.insert(t(3, "c", 20)).unwrap();
        // The oldest timestamp sits in the middle slot.
        assert_eq!(stem.evict_before_seq(7), 1);
        assert_eq!((stem.len(), stem.slot_span()), (2, 3), "hole waits");
        assert_eq!(stem.evict_before_seq(15), 1);
        assert_eq!((stem.len(), stem.slot_span()), (1, 1), "front took it");
        let mut out = Vec::new();
        assert_eq!(stem.probe_eq(&Value::Int(3), &mut out), 1);
    }

    /// Slot ids are `u32` and a server that runs for days hands out more
    /// than 2³² of them: every operation must work across the wrap.
    #[test]
    fn slot_ids_wrap_without_aliasing() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash)
            .unwrap()
            .with_slot_base(u32::MAX - 100);
        // Window of 50 sliding over 400 builds: ids run from
        // u32::MAX - 100 through the wrap to 299.
        for ts in 1..=400i64 {
            stem.insert(t(ts % 7, "x", ts)).unwrap();
            stem.evict_before_seq(ts - 49);
            assert_eq!(stem.len(), ts.min(50) as usize);
            assert_eq!(stem.slot_span(), stem.len(), "ts={ts}");
            // Probe sees exactly the window's tuples of this key, in
            // insertion order, on both sides of the wrap.
            let mut out = Vec::new();
            stem.probe_eq(&Value::Int(ts % 7), &mut out);
            let got: Vec<i64> = out.iter().map(|t| t.timestamp().seq()).collect();
            let want: Vec<i64> = ((ts - 49).max(1)..=ts)
                .filter(|s| s % 7 == ts % 7)
                .collect();
            assert_eq!(got, want, "ts={ts}");
        }
        // import_group across the wrap: a second ring parked so the
        // imported group itself straddles id 0.
        let h = tcq_common::hash_value(&Value::Int(3));
        let mut group = Vec::new();
        stem.export_group(h, &mut group);
        assert_eq!(group.len(), 7);
        let mut other = SteM::new("O", schema(), 0, IndexKind::Hash)
            .unwrap()
            .with_slot_base(u32::MAX - 3);
        other.insert(t(9, "old", 1)).unwrap();
        other.import_group(h, group.clone()).unwrap();
        other.import_group(h, group.clone()).unwrap(); // replace in place
        assert_eq!(other.len(), 8);
        let mut out = Vec::new();
        assert_eq!(other.probe_eq(&Value::Int(3), &mut out), 7);
        assert_eq!(out, group);
        // Evicting the pre-wrap tuple lets the front run through the
        // first import's seven dead slots to the live copy.
        assert_eq!(other.evict_before_seq(2), 1);
        assert_eq!((other.len(), other.slot_span()), (7, 7));
        assert_eq!(other.drain_all(), group);
        assert_eq!(other.slot_span(), 0);
    }

    #[test]
    fn prehashed_probe_skips_hash_computation() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        let a = t(1, "a", 1);
        // Prehash at "ingress": the memo rides into insert, so the SteM
        // computes nothing.
        a.key_hash(0);
        stem.insert(a).unwrap();
        assert_eq!(stem.hash_computes(), 0);
        // A cold insert computes (and memoizes) exactly once.
        stem.insert(t(2, "b", 2)).unwrap();
        assert_eq!(stem.hash_computes(), 1);
        // Prehashed probe: zero computations, same matches.
        let probe = t(1, "x", 9);
        let h = probe.key_hash(0);
        let mut out = Vec::new();
        assert_eq!(stem.probe_eq_hashed(h, probe.value(0), &mut out), 1);
        assert_eq!(stem.hash_computes(), 1);
        // Legacy probe computes one hash per call.
        out.clear();
        assert_eq!(stem.probe_eq(&Value::Int(1), &mut out), 1);
        assert_eq!(stem.hash_computes(), 2);
    }

    #[test]
    fn hashed_bucket_verifies_stored_keys() {
        // Two different keys forced into one bucket (a manufactured
        // collision): the equality check must keep them apart.
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        stem.insert(t(1, "a", 1)).unwrap();
        stem.insert(t(2, "b", 2)).unwrap();
        let h1 = tcq_common::hash_value(&Value::Int(1));
        let mut out = Vec::new();
        // Right hash, wrong key: bucket hit, key check rejects.
        assert_eq!(stem.probe_eq_hashed(h1, &Value::Int(2), &mut out), 0);
        assert_eq!(stem.probe_eq_hashed(h1, &Value::Int(1), &mut out), 1);
    }

    #[test]
    fn cross_type_keys_probe_equal_through_hash_index() {
        // Int(7) and Float(7.0) are equal and hash equal — a probe with
        // either representation must find both.
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        stem.insert(t(7, "a", 1)).unwrap();
        let mut out = Vec::new();
        assert_eq!(stem.probe_eq(&Value::Float(7.0), &mut out), 1);
        let h = tcq_common::hash_value(&Value::Float(7.0));
        assert_eq!(stem.probe_eq_hashed(h, &Value::Float(7.0), &mut out), 1);
    }

    #[test]
    fn eviction_and_reclamation_reuse_memoized_hashes() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        for ts in 1..=100 {
            stem.insert(t(ts % 5, "x", ts)).unwrap();
        }
        let computes = stem.hash_computes();
        assert_eq!(computes, 100);
        stem.evict_before_seq(80);
        assert_eq!(stem.slot_span(), 21);
        // Eviction reuses the memoized per-tuple hashes, and giving the
        // slots back moves no survivor: nothing is rehashed.
        assert_eq!(stem.hash_computes(), computes);
        let mut out = Vec::new();
        assert_eq!(
            stem.probe_eq_hashed(
                tcq_common::hash_value(&Value::Int(0)),
                &Value::Int(0),
                &mut out,
            ),
            5
        );
        assert!(out.iter().all(|t| t.timestamp().seq() >= 80));
        assert_eq!(stem.hash_computes(), computes);
    }

    #[test]
    fn dirty_tracking_scales_with_churn_not_state() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        for ts in 1..=100 {
            stem.insert(t(ts % 10, "x", ts)).unwrap();
        }
        assert_eq!(stem.dirty_len(), 10, "one dirty entry per touched group");
        stem.clear_dirty();
        assert_eq!(stem.dirty_len(), 0);
        // Touch exactly two groups: the delta is two, not the full state.
        stem.insert(t(3, "y", 101)).unwrap();
        stem.insert(t(7, "y", 102)).unwrap();
        assert_eq!(stem.dirty_len(), 2);
        let dirty: Vec<u64> = stem.dirty_groups().collect();
        assert_eq!(
            dirty,
            {
                let mut v = vec![
                    tcq_common::hash_value(&Value::Int(3)),
                    tcq_common::hash_value(&Value::Int(7)),
                ];
                v.sort_unstable();
                v
            },
            "dirty iteration is hash-ordered and exact"
        );
        // Eviction dirties the groups it empties.
        stem.clear_dirty();
        stem.evict_before_seq(11);
        assert_eq!(stem.dirty_len(), 10, "seqs 1..=10 span all ten groups");
    }

    #[test]
    fn untracked_stem_keeps_no_dirty_set() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash)
            .unwrap()
            .with_dirty_tracking(false);
        for ts in 1..=100 {
            stem.insert(t(ts, "x", ts)).unwrap();
        }
        stem.evict_before_seq(50);
        let h = tcq_common::hash_value(&Value::Int(60));
        let mut group = Vec::new();
        stem.export_group(h, &mut group);
        stem.import_group(h, group).unwrap();
        stem.drain_all();
        assert_eq!(stem.dirty_len(), 0);
        assert_eq!(stem.dirty_groups().count(), 0);
    }

    #[test]
    fn export_import_group_roundtrip() {
        let mut a = SteM::new("A", schema(), 0, IndexKind::Hash).unwrap();
        for ts in 1..=20 {
            a.insert(t(ts % 4, "x", ts)).unwrap();
        }
        let h = tcq_common::hash_value(&Value::Int(2));
        let mut group = Vec::new();
        a.export_group(h, &mut group);
        assert_eq!(group.len(), 5, "seqs 2,6,10,14,18");

        // Import into a fresh SteM: probes agree with the source.
        let mut b = SteM::new("B", schema(), 0, IndexKind::Hash).unwrap();
        b.import_group(h, group.clone()).unwrap();
        assert_eq!(b.len(), 5);
        assert_eq!(b.dirty_len(), 0, "imported state is clean");
        let mut out = Vec::new();
        assert_eq!(b.probe_eq(&Value::Int(2), &mut out), 5);
        // Re-import is idempotent (group replaced, not doubled).
        b.import_group(h, group).unwrap();
        assert_eq!(b.len(), 5);
        // Empty import clears the group.
        b.import_group(h, Vec::new()).unwrap();
        assert_eq!(b.len(), 0);
        out.clear();
        assert_eq!(b.probe_eq(&Value::Int(2), &mut out), 0);
        // Eviction ordering survives an out-of-order import.
        let mut c = SteM::new("C", schema(), 0, IndexKind::Hash).unwrap();
        c.insert(t(9, "late", 50)).unwrap();
        let mut g = Vec::new();
        a.export_group(tcq_common::hash_value(&Value::Int(1)), &mut g);
        c.import_group(tcq_common::hash_value(&Value::Int(1)), g)
            .unwrap();
        assert_eq!(c.evict_before_seq(14), 4, "seqs 1,5,9,13 evicted");
    }

    #[test]
    fn exported_empty_group_records_a_clearing() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        stem.insert(t(1, "x", 1)).unwrap();
        stem.clear_dirty();
        stem.evict_before_seq(10);
        let h = tcq_common::hash_value(&Value::Int(1));
        assert_eq!(stem.dirty_groups().collect::<Vec<_>>(), vec![h]);
        let mut group = Vec::new();
        stem.export_group(h, &mut group);
        assert!(group.is_empty(), "emptied group exports zero tuples");
    }

    #[test]
    fn scan_sees_only_live() {
        let mut stem = SteM::new("S", schema(), 0, IndexKind::Hash).unwrap();
        for ts in 1..=6 {
            stem.insert(t(ts, "x", ts)).unwrap();
        }
        stem.evict_before_seq(4);
        let seqs: Vec<i64> = stem.scan().map(|t| t.timestamp().seq()).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
    }
}
