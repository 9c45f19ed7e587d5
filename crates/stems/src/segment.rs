//! A data SteM's slot-ring chunk: stored rows laid out column by column.
//!
//! Every row of one SteM has the SteM's schema, so a chunk keeps one
//! [`Column`] per field instead of one value vector per row: an `Int`,
//! `Float` or `Bool` cell is its 8 (or 1) bytes in a flat buffer. A `Str`
//! field — and any cell whose variant does not match its field's type, such
//! as an `Int` in a FLOAT column — is kept as a [`Value`], so a stored
//! string shares the producer's `Arc<str>` rather than copying it, and
//! every cell comes back as exactly the variant (and float bits) it went in
//! as. Beside the columns sit the row's timestamp (its two packed words),
//! the key hash computed at build, and the live bitmap the [`SlotRing`]
//! reads.
//!
//! [`SlotRing`]: crate::SlotRing

use std::mem::size_of;

use tcq_common::{
    BitSet, Column, ColumnBatch, ColumnData, DataType, SchemaRef, Timestamp, Tuple, Value,
};

use crate::slot_ring::Chunk;

/// Up to one slot-ring chunk of stored rows, column by column.
pub(crate) struct Segment {
    cols: Vec<Column>,
    stamps: Vec<Timestamp>,
    key_hash: Vec<u64>,
    live: BitSet,
}

/// The column a segment stores field type `dt` in: typed, except that
/// strings stay `Value`s (shared, not copied into an arena).
fn column_for(dt: DataType, slots: usize) -> Column {
    match dt {
        DataType::Str => {
            let mut c = Column::new_mixed();
            c.reserve(slots);
            c
        }
        dt => Column::with_capacity(dt, slots),
    }
}

impl Chunk for Segment {
    /// The stored schema's field types.
    type Layout = Vec<DataType>;

    fn with_layout(types: &Vec<DataType>, slots: usize) -> Segment {
        Segment {
            cols: types.iter().map(|&dt| column_for(dt, slots)).collect(),
            stamps: Vec::with_capacity(slots),
            key_hash: Vec::with_capacity(slots),
            live: BitSet::with_capacity(slots),
        }
    }

    fn filled(&self) -> usize {
        self.key_hash.len()
    }

    fn is_live(&self, slot: usize) -> bool {
        self.live.contains(slot)
    }

    fn kill(&mut self, slot: usize) {
        self.live.remove(slot);
    }

    fn reset(&mut self, types: &Vec<DataType>) {
        let slots = self.key_hash.capacity();
        for (col, &dt) in self.cols.iter_mut().zip(types) {
            if dt != DataType::Str && matches!(col.data(), ColumnData::Mixed(_)) {
                // A mismatched cell degraded this chunk's column; the next
                // tenant starts typed again.
                *col = column_for(dt, slots);
            } else {
                col.clear();
            }
        }
        self.stamps.clear();
        self.key_hash.clear();
        self.live.clear();
    }
}

impl Segment {
    /// Append one row from a tuple's values.
    pub(crate) fn push_tuple(&mut self, tuple: &Tuple, key_hash: u64) {
        for (col, v) in self.cols.iter_mut().zip(tuple.values()) {
            col.push_value(v);
        }
        self.push_meta(tuple.timestamp(), key_hash);
    }

    /// Append row `row` of `batch`: typed cells flat-copied with
    /// [`Column::push_from`], `Value` cells cloned from `tuple` — the
    /// batch's row mirror of that row — so strings stay shared.
    pub(crate) fn push_batch_row(
        &mut self,
        batch: &ColumnBatch,
        row: usize,
        tuple: &Tuple,
        key_hash: u64,
    ) {
        for (c, (col, src)) in self.cols.iter_mut().zip(batch.columns()).enumerate() {
            match col.data() {
                ColumnData::Mixed(_) => col.push_value(tuple.value(c)),
                _ => col.push_from(src, row),
            }
        }
        self.push_meta(batch.stamp(row), key_hash);
    }

    fn push_meta(&mut self, ts: Timestamp, key_hash: u64) {
        self.live.insert(self.key_hash.len());
        self.stamps.push(ts);
        self.key_hash.push(key_hash);
    }

    /// Stored row `slot`, read in place.
    pub(crate) fn row(&self, slot: usize) -> StoredRow<'_> {
        debug_assert!(self.is_live(slot));
        StoredRow { seg: self, slot }
    }

    /// Heap bytes this chunk holds, by capacity (string payloads behind a
    /// `Value` cell are not followed).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.cols.capacity() * size_of::<Column>()
            + self.cols.iter().map(Column::heap_bytes).sum::<usize>()
            + self.stamps.capacity() * size_of::<Timestamp>()
            + self.key_hash.capacity() * size_of::<u64>()
            + self.live.approx_bytes()
    }
}

/// One live row of a SteM, borrowed from the segment it is stored in. A
/// probe hands these to its visitor, which copies out only what it needs.
#[derive(Clone, Copy)]
pub struct StoredRow<'a> {
    seg: &'a Segment,
    slot: usize,
}

impl<'a> StoredRow<'a> {
    /// The cell in column `col`, as the variant it was stored as.
    pub fn value(&self, col: usize) -> Value {
        self.seg.cols[col].value(self.slot)
    }

    /// The row's timestamp, both components exactly as built.
    pub fn timestamp(&self) -> Timestamp {
        self.seg.stamps[self.slot]
    }

    /// `hash_value` of the key column, computed (or carried in) at build.
    pub fn key_hash(&self) -> u64 {
        self.seg.key_hash[self.slot]
    }

    /// The segment's columns; this row is [`StoredRow::row`] of each.
    pub fn columns(&self) -> &'a [Column] {
        &self.seg.cols
    }

    /// This row's index in [`StoredRow::columns`].
    pub fn row(&self) -> usize {
        self.slot
    }

    /// The row's cells in column order. The iterator's length is exact,
    /// so [`Tuple::from_cells`] moves it into one block.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Value> + 'a {
        let slot = self.slot;
        self.seg.cols.iter().map(move |c| c.value(slot))
    }

    /// Materialize the row as a tuple of `schema`, its key hash memoized
    /// on `key_col`.
    pub fn to_tuple(&self, schema: &SchemaRef, key_col: usize) -> Tuple {
        Tuple::from_cells(
            schema.clone(),
            self.values(),
            self.timestamp(),
            Some((key_col, self.key_hash())),
        )
    }
}
