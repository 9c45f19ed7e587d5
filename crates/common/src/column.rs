//! Columnar batches: one typed contiguous buffer per column.
//!
//! The row path moves `Vec<Tuple>` — one heap block per row — so every
//! kernel loop pays per-tuple `Value` enum dispatch and every operator
//! output allocates per row. [`ColumnBatch`] is the columnar alternative:
//! each column is one flat buffer ([`ColumnData`]) plus a validity bitmap,
//! strings live in a shared offsets+bytes arena, and per-batch metadata
//! (stream stamps, memoized join-key hashes, lineage signature) rides in
//! parallel vectors. Conversion to and from rows is lossless — including
//! NaN bit patterns, `-0.0`, NULLs, and empty strings — and carries the
//! [`Tuple::key_hash`] memo across the boundary so a join key is still
//! hashed exactly once per tuple.
//!
//! Representation is chosen from the *values*, not the schema: a FLOAT
//! column that happens to hold `Value::Int` (legal under the numeric
//! widening rule) is stored as [`ColumnData::Int`] if homogeneous, or
//! [`ColumnData::Mixed`] otherwise, so the original variant of every cell
//! survives the round trip. Kernels decide per batch whether a column's
//! representation supports the vectorized path and fall back to rows when
//! it does not (see `Kernel::eval_columns`).

use crate::bitset::BitSet;
use crate::schema::{DataType, SchemaRef};
use crate::time::Timestamp;
use crate::tuple::Tuple;
use crate::value::Value;

/// The typed storage behind one [`Column`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Flat `i64` buffer. NULL rows hold `0`; consult the column's bitmap.
    Int(Vec<i64>),
    /// Flat `f64` buffer, bit-exact: NaN payloads and `-0.0` survive.
    Float(Vec<f64>),
    /// Flat `bool` buffer.
    Bool(Vec<bool>),
    /// String arena: row `i` is `bytes[offsets[i] as usize..offsets[i + 1] as usize]`.
    Str {
        /// Row boundaries into `bytes`; always `rows + 1` entries.
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payloads.
        bytes: Vec<u8>,
    },
    /// Fallback for heterogeneous columns: one [`Value`] per row.
    Mixed(Vec<Value>),
}

/// One column of a [`ColumnBatch`]: a typed buffer plus a validity bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: BitSet,
    len: usize,
}

impl Column {
    /// An empty column typed for `dt`.
    pub fn new(dt: DataType) -> Column {
        Column::with_capacity(dt, 0)
    }

    /// An empty column typed for `dt` with room for `rows` appends before
    /// the buffer reallocates. Hot-path output columns (probe concats,
    /// egress batching) size themselves from their input batch so the
    /// per-row append loop stays allocation-free.
    pub fn with_capacity(dt: DataType, rows: usize) -> Column {
        let data = match dt {
            DataType::Int => ColumnData::Int(Vec::with_capacity(rows)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(rows)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(rows)),
            DataType::Str => {
                let mut offsets = Vec::with_capacity(rows + 1);
                offsets.push(0);
                ColumnData::Str {
                    offsets,
                    bytes: Vec::new(),
                }
            }
        };
        Column {
            data,
            nulls: BitSet::new(),
            len: 0,
        }
    }

    /// Reserve room for `rows` more appends in the typed buffer.
    pub fn reserve(&mut self, rows: usize) {
        match &mut self.data {
            ColumnData::Int(b) => b.reserve(rows),
            ColumnData::Float(b) => b.reserve(rows),
            ColumnData::Bool(b) => b.reserve(rows),
            ColumnData::Str { offsets, .. } => offsets.reserve(rows),
            ColumnData::Mixed(b) => b.reserve(rows),
        }
    }

    /// An empty column in the heterogeneous fallback representation.
    pub fn new_mixed() -> Column {
        Column {
            data: ColumnData::Mixed(Vec::new()),
            nulls: BitSet::new(),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The typed buffer (kernels match on this to pick a vectorized loop).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap: set bits are NULL rows.
    pub fn nulls(&self) -> &BitSet {
        &self.nulls
    }

    /// True when the cell at `row` is NULL.
    pub fn is_null(&self, row: usize) -> bool {
        self.nulls.contains(row)
    }

    /// Materialize the cell at `row` as a [`Value`] (allocates only for
    /// string cells).
    pub fn value(&self, row: usize) -> Value {
        debug_assert!(row < self.len);
        if self.nulls.contains(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(b) => Value::Int(b[row]),
            ColumnData::Float(b) => Value::Float(b[row]),
            ColumnData::Bool(b) => Value::Bool(b[row]),
            ColumnData::Str { offsets, bytes } => {
                let s = &bytes[offsets[row] as usize..offsets[row + 1] as usize];
                Value::str(std::str::from_utf8(s).expect("column arena holds UTF-8"))
            }
            ColumnData::Mixed(b) => b[row].clone(),
        }
    }

    /// Append one value, degrading to [`ColumnData::Mixed`] when the value's
    /// variant does not match the typed buffer.
    pub fn push_value(&mut self, v: &Value) {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.nulls.insert(self.len);
                self.push_null_slot();
            }
            (ColumnData::Int(b), Value::Int(i)) => b.push(*i),
            (ColumnData::Float(b), Value::Float(f)) => b.push(*f),
            (ColumnData::Bool(b), Value::Bool(x)) => b.push(*x),
            (ColumnData::Str { offsets, bytes }, Value::Str(s)) => {
                bytes.extend_from_slice(s.as_bytes());
                debug_assert!(bytes.len() <= u32::MAX as usize);
                offsets.push(bytes.len() as u32);
            }
            (ColumnData::Mixed(b), v) => b.push(v.clone()),
            (_, v) => {
                self.degrade_to_mixed();
                if let ColumnData::Mixed(b) = &mut self.data {
                    b.push(v.clone());
                }
            }
        }
        self.len += 1;
    }

    /// Append row `row` of `src`. When both sides share a typed
    /// representation this is a flat-buffer copy with no `Value`
    /// materialization.
    pub fn push_from(&mut self, src: &Column, row: usize) {
        debug_assert!(row < src.len);
        if src.nulls.contains(row) {
            self.nulls.insert(self.len);
            self.push_null_slot();
            self.len += 1;
            return;
        }
        match (&mut self.data, &src.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.push(b[row]),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.push(b[row]),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.push(b[row]),
            (
                ColumnData::Str { offsets, bytes },
                ColumnData::Str {
                    offsets: so,
                    bytes: sb,
                },
            ) => {
                bytes.extend_from_slice(&sb[so[row] as usize..so[row + 1] as usize]);
                debug_assert!(bytes.len() <= u32::MAX as usize);
                offsets.push(bytes.len() as u32);
            }
            _ => {
                self.push_value(&src.value(row));
                return;
            }
        }
        self.len += 1;
    }

    /// Remove every row, keeping the representation and the buffers'
    /// capacity (a recycled store refills without reallocating).
    pub fn clear(&mut self) {
        match &mut self.data {
            ColumnData::Int(b) => b.clear(),
            ColumnData::Float(b) => b.clear(),
            ColumnData::Bool(b) => b.clear(),
            ColumnData::Str { offsets, bytes } => {
                offsets.truncate(1);
                bytes.clear();
            }
            ColumnData::Mixed(b) => b.clear(),
        }
        self.nulls.clear();
        self.len = 0;
    }

    /// Heap bytes the column's buffers hold, by capacity: the typed buffer
    /// (a string arena's offsets and bytes; a mixed column's inline
    /// `Value`s, not the string payloads behind them) and the NULL bitmap.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let data = match &self.data {
            ColumnData::Int(b) => b.capacity() * size_of::<i64>(),
            ColumnData::Float(b) => b.capacity() * size_of::<f64>(),
            ColumnData::Bool(b) => b.capacity(),
            ColumnData::Str { offsets, bytes } => {
                offsets.capacity() * size_of::<u32>() + bytes.capacity()
            }
            ColumnData::Mixed(b) => b.capacity() * size_of::<Value>(),
        };
        data + self.nulls.approx_bytes()
    }

    /// Placeholder slot for a NULL row (bitmap already set by the caller).
    fn push_null_slot(&mut self) {
        match &mut self.data {
            ColumnData::Int(b) => b.push(0),
            ColumnData::Float(b) => b.push(0.0),
            ColumnData::Bool(b) => b.push(false),
            ColumnData::Str { offsets, bytes } => offsets.push(bytes.len() as u32),
            ColumnData::Mixed(b) => b.push(Value::Null),
        }
    }

    /// Rebuild the typed buffer as [`ColumnData::Mixed`], preserving every
    /// cell (rare: only heterogeneous incremental pushes land here).
    fn degrade_to_mixed(&mut self) {
        let values: Vec<Value> = (0..self.len).map(|i| self.value(i)).collect();
        self.data = ColumnData::Mixed(values);
    }

    /// Keep only rows where `keep[row]` is true, compacting in place.
    pub fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        let mut nulls = BitSet::new();
        let mut w = 0usize;
        match &mut self.data {
            ColumnData::Int(b) => {
                for (i, &k) in keep.iter().enumerate() {
                    if k {
                        b[w] = b[i];
                        if self.nulls.contains(i) {
                            nulls.insert(w);
                        }
                        w += 1;
                    }
                }
                b.truncate(w);
            }
            ColumnData::Float(b) => {
                for (i, &k) in keep.iter().enumerate() {
                    if k {
                        b[w] = b[i];
                        if self.nulls.contains(i) {
                            nulls.insert(w);
                        }
                        w += 1;
                    }
                }
                b.truncate(w);
            }
            ColumnData::Bool(b) => {
                for (i, &k) in keep.iter().enumerate() {
                    if k {
                        b[w] = b[i];
                        if self.nulls.contains(i) {
                            nulls.insert(w);
                        }
                        w += 1;
                    }
                }
                b.truncate(w);
            }
            ColumnData::Str { offsets, bytes } => {
                let mut bw = 0usize;
                for (i, &k) in keep.iter().enumerate() {
                    if k {
                        let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
                        bytes.copy_within(s..e, bw);
                        bw += e - s;
                        offsets[w + 1] = bw as u32;
                        if self.nulls.contains(i) {
                            nulls.insert(w);
                        }
                        w += 1;
                    }
                }
                offsets.truncate(w + 1);
                bytes.truncate(bw);
            }
            ColumnData::Mixed(b) => {
                for (i, &k) in keep.iter().enumerate() {
                    if k {
                        b.swap(w, i);
                        if self.nulls.contains(i) {
                            nulls.insert(w);
                        }
                        w += 1;
                    }
                }
                b.truncate(w);
            }
        }
        self.nulls = nulls;
        self.len = w;
    }
}

/// A batch of rows in columnar layout, with per-batch metadata: one
/// [`Column`] per schema field, a stream [`Timestamp`] per row, the
/// memoized join-key hash column (when one was designated), and the
/// lineage signature the eddy routes the batch under.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    schema: SchemaRef,
    columns: Vec<Column>,
    stamps: Vec<Timestamp>,
    /// `(key column index, one FNV-1a hash per row)`.
    key_hashes: Option<(u32, Vec<u64>)>,
    sig: u64,
}

impl ColumnBatch {
    /// An empty batch whose columns are typed from the schema.
    pub fn empty(schema: SchemaRef) -> ColumnBatch {
        ColumnBatch::with_capacity(schema, 0)
    }

    /// An empty batch whose columns are typed from the schema, with room
    /// for `rows` appends per column before any buffer reallocates.
    pub fn with_capacity(schema: SchemaRef, rows: usize) -> ColumnBatch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, rows))
            .collect();
        ColumnBatch {
            schema,
            columns,
            stamps: Vec::with_capacity(rows),
            key_hashes: None,
            sig: 0,
        }
    }

    /// Convert rows to columns. Representation per column is chosen by
    /// scanning the actual values (homogeneous non-NULL variant → typed
    /// buffer, otherwise [`ColumnData::Mixed`]); an all-NULL or empty
    /// column falls back to the schema type.
    ///
    /// When `key_col` is given, the batch's hash column is filled via
    /// [`Tuple::key_hash`] — memoizing the hash *on the source rows as a
    /// side effect*, so a later SteM build of those same rows is a memo
    /// hit and each key is hashed exactly once per tuple.
    pub fn from_tuples(schema: SchemaRef, tuples: &[Tuple], key_col: Option<usize>) -> ColumnBatch {
        let mut columns = Vec::with_capacity(schema.len());
        for c in 0..schema.len() {
            let mut dt: Option<DataType> = None;
            let mut mixed = false;
            for t in tuples {
                if let Some(d) = t.value(c).data_type() {
                    match dt {
                        None => dt = Some(d),
                        Some(prev) if prev != d => {
                            mixed = true;
                            break;
                        }
                        Some(_) => {}
                    }
                }
            }
            let mut col = if mixed {
                let mut c = Column::new_mixed();
                c.reserve(tuples.len());
                c
            } else {
                Column::with_capacity(dt.unwrap_or(schema.field(c).data_type), tuples.len())
            };
            for t in tuples {
                col.push_value(t.value(c));
            }
            columns.push(col);
        }
        let stamps = tuples.iter().map(|t| t.timestamp()).collect();
        let key_hashes = key_col.map(|c| {
            (
                c as u32,
                tuples.iter().map(|t| t.key_hash(c)).collect::<Vec<u64>>(),
            )
        });
        ColumnBatch {
            schema,
            columns,
            stamps,
            key_hashes,
            sig: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// The batch schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The column at index `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The stream timestamp of `row`.
    pub fn stamp(&self, row: usize) -> Timestamp {
        self.stamps[row]
    }

    /// All row timestamps.
    pub fn stamps(&self) -> &[Timestamp] {
        &self.stamps
    }

    /// The memoized join-key hash column, if one was designated at
    /// conversion: `(key column index, one hash per row)`.
    pub fn key_hashes(&self) -> Option<(usize, &[u64])> {
        self.key_hashes
            .as_ref()
            .map(|(c, h)| (*c as usize, h.as_slice()))
    }

    /// The lineage signature (the eddy's `SourceSet` word) this batch
    /// routes under; `0` until [`ColumnBatch::set_sig`] assigns one.
    pub fn sig(&self) -> u64 {
        self.sig
    }

    /// Assign the lineage signature.
    pub fn set_sig(&mut self, sig: u64) {
        self.sig = sig;
    }

    /// Materialize row `row` as a [`Tuple`], seeding its key-hash memo
    /// from the batch's hash column when present, so the
    /// row→columnar→row boundary never hashes a key twice.
    pub fn tuple_at(&self, row: usize) -> Tuple {
        // The cells go straight into the row's block: one allocation.
        let values = self.columns.iter().map(|col| col.value(row));
        let key_hash = self
            .key_hashes
            .as_ref()
            .map(|(c, hashes)| (*c as usize, hashes[row]));
        Tuple::from_cells(self.schema.clone(), values, self.stamps[row], key_hash)
    }

    /// Materialize every row (the lossless inverse of
    /// [`ColumnBatch::from_tuples`]); key-hash memos carry over.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len()).map(|row| self.tuple_at(row)).collect()
    }

    /// Keep only rows where `keep[row]` is true, compacting every column,
    /// the stamps, and the hash column in place.
    pub fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        for col in &mut self.columns {
            col.retain(keep);
        }
        retain_vec(&mut self.stamps, keep);
        if let Some((_, hashes)) = &mut self.key_hashes {
            retain_vec(hashes, keep);
        }
    }

    /// Project columns by index onto a pre-computed projected schema:
    /// whole-column clones, no per-row work. The hash column is dropped
    /// (indexes shift), mirroring [`Tuple::project`]'s memo behaviour.
    pub fn project(&self, indices: &[usize], out_schema: SchemaRef) -> ColumnBatch {
        debug_assert_eq!(indices.len(), out_schema.len());
        ColumnBatch {
            schema: out_schema,
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            stamps: self.stamps.clone(),
            key_hashes: None,
            sig: self.sig,
        }
    }

    /// Append one join output row: row `row` of `left` concatenated with
    /// row `right_row` of the columns `right` (stamped `right_ts`), cell by
    /// cell with [`Column::push_from`]. The stamp is the partial-order max
    /// of the parents, exactly like [`Tuple::concat`]. `self`'s schema
    /// must be the concatenation of `left`'s schema and `right`'s.
    pub fn push_joined(
        &mut self,
        left: &ColumnBatch,
        row: usize,
        right: &[Column],
        right_row: usize,
        right_ts: Timestamp,
    ) {
        debug_assert_eq!(self.columns.len(), left.columns.len() + right.len());
        let (out_left, out_right) = self.columns.split_at_mut(left.columns.len());
        for (dst, src) in out_left.iter_mut().zip(left.columns.iter()) {
            dst.push_from(src, row);
        }
        for (dst, src) in out_right.iter_mut().zip(right) {
            dst.push_from(src, right_row);
        }
        self.stamps.push(left.stamps[row].join_max(&right_ts));
    }

    /// Append one row copied from `src` (same schema arity assumed).
    pub fn push_row_from(&mut self, src: &ColumnBatch, row: usize) {
        debug_assert_eq!(self.columns.len(), src.columns.len());
        for (dst, s) in self.columns.iter_mut().zip(src.columns.iter()) {
            dst.push_from(s, row);
        }
        self.stamps.push(src.stamps[row]);
        if let (Some((c, hashes)), Some((sc, shashes))) = (&mut self.key_hashes, &src.key_hashes) {
            if c == sc {
                hashes.push(shashes[row]);
            }
        }
    }
}

/// In-place `retain` over a parallel metadata vector.
fn retain_vec<T: Copy>(v: &mut Vec<T>, keep: &[bool]) {
    debug_assert_eq!(keep.len(), v.len());
    let mut w = 0usize;
    for (i, &k) in keep.iter().enumerate() {
        if k {
            v[w] = v[i];
            w += 1;
        }
    }
    v.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{derive_seed, seeded, TcqRng};
    use crate::schema::{Field, Schema};

    /// Exact (bit-level) value identity — stricter than `Value`'s
    /// `PartialEq`, which treats `Int(7) == Float(7.0)`: a lossless round
    /// trip must preserve the variant and, for floats, the bit pattern.
    fn identical(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        }
    }

    fn gen_value(rng: &mut TcqRng) -> Value {
        match rng.gen_range(0usize..10) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::Int(rng.gen_range(-100i64..100)),
            3 => Value::Int(rng.gen()),
            4 => Value::Float(rng.gen_range(-100.0..100.0)),
            5 => Value::Float(match rng.gen_range(0usize..4) {
                0 => f64::NAN,
                1 => -f64::NAN,
                2 => f64::from_bits(f64::NAN.to_bits() | (rng.gen::<u64>() & 0xFFFF)),
                _ => -0.0,
            }),
            6 => Value::str(""),
            7 => Value::str("a"),
            8 => Value::str("stream-tuple-with-a-longer-payload"),
            _ => Value::Int(rng.gen_range(0i64..8)),
        }
    }

    fn gen_schema(rng: &mut TcqRng) -> SchemaRef {
        let types = [
            DataType::Int,
            DataType::Float,
            DataType::Bool,
            DataType::Str,
        ];
        let n = rng.gen_range(1usize..6);
        let fields = (0..n)
            .map(|i| Field::new(format!("c{i}"), types[rng.gen_range(0usize..4)]))
            .collect();
        Schema::qualified("s", fields).into_ref()
    }

    /// Seeded roundtrip property: arbitrary values (NaN payloads, nulls,
    /// empty strings, variant/schema mismatches) survive
    /// rows → columns → rows bit-identically, with timestamps intact.
    #[test]
    fn roundtrip_is_lossless_on_random_batches() {
        let mut rng = seeded(derive_seed(0xC01_BA7C4, 0));
        for case in 0..200 {
            let schema = gen_schema(&mut rng);
            let n = rng.gen_range(0usize..40);
            let tuples: Vec<Tuple> = (0..n)
                .map(|i| {
                    let values = (0..schema.len()).map(|_| gen_value(&mut rng)).collect();
                    Tuple::new_unchecked(schema.clone(), values, Timestamp::logical(i as i64))
                })
                .collect();
            let batch = ColumnBatch::from_tuples(schema.clone(), &tuples, None);
            assert_eq!(batch.len(), n, "case {case}");
            let back = batch.to_tuples();
            assert_eq!(back.len(), tuples.len());
            for (orig, got) in tuples.iter().zip(back.iter()) {
                assert_eq!(orig.timestamp(), got.timestamp(), "case {case}");
                for (a, b) in orig.values().iter().zip(got.values().iter()) {
                    assert!(identical(a, b), "case {case}: {a:?} != {b:?}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ])
        .into_ref();
        let batch = ColumnBatch::from_tuples(schema.clone(), &[], Some(0));
        assert!(batch.is_empty());
        assert_eq!(batch.to_tuples(), Vec::<Tuple>::new());
        let empty = ColumnBatch::empty(schema);
        assert!(empty.is_empty() && empty.to_tuples().is_empty());
    }

    #[test]
    fn key_hashes_memoize_source_rows_and_carry_back() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Str),
        ])
        .into_ref();
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| {
                Tuple::new_unchecked(
                    schema.clone(),
                    vec![Value::Int(i % 3), Value::str("x")],
                    Timestamp::logical(i),
                )
            })
            .collect();
        assert!(tuples.iter().all(|t| t.cached_key_hash(0).is_none()));
        let batch = ColumnBatch::from_tuples(schema, &tuples, Some(0));
        // Side effect: the source rows now carry the memo (a later SteM
        // build of these same rows will not hash again).
        for t in &tuples {
            assert_eq!(
                t.cached_key_hash(0),
                Some(crate::hash::hash_value(t.value(0)))
            );
        }
        // And materialized rows get the memo seeded without recomputing.
        let (col, hashes) = batch.key_hashes().unwrap();
        assert_eq!(col, 0);
        for (row, t) in batch.to_tuples().iter().enumerate() {
            assert_eq!(t.cached_key_hash(0), Some(hashes[row]));
        }
    }

    #[test]
    fn retain_compacts_all_reprs_and_metadata() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("s", DataType::Str),
            Field::new("f", DataType::Float),
        ])
        .into_ref();
        let vals = [
            (Value::Int(1), Value::str("aa"), Value::Null),
            (Value::Null, Value::str(""), Value::Float(2.5)),
            (Value::Int(3), Value::Null, Value::Float(f64::NAN)),
            (Value::Int(4), Value::str("dddd"), Value::Null),
        ];
        let tuples: Vec<Tuple> = vals
            .iter()
            .enumerate()
            .map(|(i, (a, b, c))| {
                Tuple::new_unchecked(
                    schema.clone(),
                    vec![a.clone(), b.clone(), c.clone()],
                    Timestamp::logical(i as i64),
                )
            })
            .collect();
        let mut batch = ColumnBatch::from_tuples(schema, &tuples, Some(0));
        batch.retain(&[false, true, false, true]);
        assert_eq!(batch.len(), 2);
        let back = batch.to_tuples();
        assert_eq!(back[0], tuples[1]);
        assert_eq!(back[1], tuples[3]);
        assert_eq!(back[0].timestamp().seq(), 1);
        assert_eq!(back[1].timestamp().seq(), 3);
        assert_eq!(
            back[1].cached_key_hash(0),
            Some(crate::hash::hash_value(&Value::Int(4)))
        );
    }

    #[test]
    fn project_matches_row_projection() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float),
        ])
        .into_ref();
        let tuples: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new_unchecked(
                    schema.clone(),
                    vec![
                        Value::Int(i),
                        Value::str(format!("s{i}")),
                        Value::Float(i as f64 / 2.0),
                    ],
                    Timestamp::logical(i),
                )
            })
            .collect();
        let indices = [2usize, 0];
        let out_schema = schema.project(&indices).into_ref();
        let batch = ColumnBatch::from_tuples(schema, &tuples, None);
        let projected = batch.project(&indices, out_schema.clone());
        for (row, t) in tuples.iter().enumerate() {
            let expect = t.project(&indices, out_schema.clone());
            assert_eq!(projected.tuple_at(row), expect);
            assert_eq!(projected.stamp(row), t.timestamp());
        }
    }

    #[test]
    fn push_joined_matches_tuple_concat() {
        let left_schema = Schema::qualified(
            "l",
            vec![
                Field::new("k", DataType::Int),
                Field::new("x", DataType::Str),
            ],
        )
        .into_ref();
        let right_schema = Schema::qualified(
            "r",
            vec![
                Field::new("k", DataType::Int),
                Field::new("y", DataType::Float),
            ],
        )
        .into_ref();
        let joined = left_schema.concat(&right_schema).into_ref();
        let lefts: Vec<Tuple> = (0..4)
            .map(|i| {
                Tuple::new_unchecked(
                    left_schema.clone(),
                    vec![Value::Int(i), Value::str(format!("L{i}"))],
                    Timestamp::logical(i),
                )
            })
            .collect();
        let right = Tuple::new_unchecked(
            right_schema,
            vec![Value::Int(2), Value::Float(9.5)],
            Timestamp::logical(10),
        );
        let left_batch = ColumnBatch::from_tuples(left_schema, &lefts, Some(0));
        let right_batch =
            ColumnBatch::from_tuples(right.schema().clone(), std::slice::from_ref(&right), None);
        let mut out = ColumnBatch::empty(joined.clone());
        for row in [1, 3] {
            out.push_joined(
                &left_batch,
                row,
                right_batch.columns(),
                0,
                right.timestamp(),
            );
        }
        assert_eq!(out.tuple_at(0), lefts[1].concat(&right, joined.clone()));
        assert_eq!(out.tuple_at(1), lefts[3].concat(&right, joined.clone()));
        assert_eq!(out.stamp(0).seq(), 10);
    }

    #[test]
    fn heterogeneous_push_degrades_to_mixed_losslessly() {
        let mut col = Column::new(DataType::Int);
        col.push_value(&Value::Int(1));
        col.push_value(&Value::Null);
        col.push_value(&Value::str("surprise"));
        col.push_value(&Value::Float(-0.0));
        assert!(matches!(col.data(), ColumnData::Mixed(_)));
        assert!(identical(&col.value(0), &Value::Int(1)));
        assert!(identical(&col.value(1), &Value::Null));
        assert!(identical(&col.value(2), &Value::str("surprise")));
        assert!(identical(&col.value(3), &Value::Float(-0.0)));
    }

    #[test]
    fn float_schema_holding_ints_stays_lossless() {
        // Numeric widening lets a FLOAT column hold Value::Int; the round
        // trip must return Value::Int, not Value::Float.
        let schema = Schema::new(vec![Field::new("f", DataType::Float)]).into_ref();
        let tuples: Vec<Tuple> = (0..3)
            .map(|i| {
                Tuple::new_unchecked(schema.clone(), vec![Value::Int(i)], Timestamp::logical(i))
            })
            .collect();
        let batch = ColumnBatch::from_tuples(schema, &tuples, None);
        assert!(matches!(batch.column(0).data(), ColumnData::Int(_)));
        for (i, t) in batch.to_tuples().iter().enumerate() {
            assert!(identical(t.value(0), &Value::Int(i as i64)));
        }
    }
}
