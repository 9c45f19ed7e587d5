//! Tuples: immutable, cheaply clonable rows.
//!
//! A [`Tuple`] is one pointer to one heap block that holds a reference
//! count, the row's [`SchemaRef`] and [`Timestamp`], its key-hash memo, its
//! arity and its values, all in a single allocation. Cloning a tuple is one
//! atomic increment and an 8-byte copy — essential because eddies route the
//! *same* tuple through many modules and CACQ shares one tuple across many
//! queries, so a handle lands in every fjord slot, batch and delivery slot
//! the row reaches.
//!
//! The block is a small thin `Arc` written here. Every `unsafe` block below
//! relies on two invariants that only this module can break:
//!
//! 1. A handle points at a live block laid out by `block_layout`
//!    for the header's `len`, whose header and `len` values are all
//!    initialised, and the header's `refs` counts the handles to it.
//! 2. A block is written only through `&mut Tuple` while `refs == 1`
//!    (`Tuple::header_mut`), apart from the key-hash memo's atomics,
//!    which any holder may publish through `&Tuple`.

use std::alloc::{self, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::ptr::{self, NonNull};
use std::sync::atomic::{self, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::error::{Result, TcqError};
use crate::hash::hash_value;
use crate::schema::SchemaRef;
use crate::time::Timestamp;
use crate::value::Value;

/// `Header::key_col` before any hash is stored.
const MEMO_EMPTY: u32 = u32::MAX;
/// `Header::key_col` while the one writer that claimed it stores the hash.
const MEMO_BUSY: u32 = u32::MAX - 1;

/// The fixed part of a row's block; the row's `len` values follow it in
/// the same allocation, at [`VALUES_OFFSET`].
struct Header {
    /// Handles pointing at this block.
    refs: AtomicUsize,
    schema: SchemaRef,
    ts: Timestamp,
    /// A memoized join-key hash: the FNV-1a hash of the value at column
    /// `key_col`, computed once and shared by every handle to the row, so
    /// partition routing, SteM build, and SteM probe all reuse one
    /// computation.
    ///
    /// Twelve bytes written at most once. A writer claims `key_col` from
    /// `MEMO_EMPTY` to `MEMO_BUSY` by CAS, stores `key_hash`, then
    /// publishes the column with `Release`; a reader that loads its own
    /// column with `Acquire` therefore reads the finished hash. A reader
    /// that sees `MEMO_BUSY` hashes for itself.
    key_hash: AtomicU64,
    key_col: AtomicU32,
    /// The row's arity: how many values follow the header.
    len: u32,
}

// The memo's methods are `#[inline]` because a row is cloned and probed
// in other crates.
impl Header {
    fn new(schema: SchemaRef, ts: Timestamp, len: usize, memo: Option<(usize, u64)>) -> Header {
        let len = u32::try_from(len).expect("a row has fewer than 2^32 columns");
        let (col, hash) = match memo {
            Some((col, hash)) => {
                debug_assert!(col < len as usize);
                (col as u32, hash)
            }
            None => (MEMO_EMPTY, 0),
        };
        Header {
            refs: AtomicUsize::new(1),
            schema,
            ts,
            key_hash: AtomicU64::new(hash),
            key_col: AtomicU32::new(col),
            len,
        }
    }

    /// The published `(col, hash)`, if any.
    #[inline]
    fn memo(&self) -> Option<(usize, u64)> {
        let col = self.key_col.load(Ordering::Acquire);
        (col < MEMO_BUSY).then(|| (col as usize, self.key_hash.load(Ordering::Relaxed)))
    }

    /// Publish `(col, hash)` unless a memo is already stored or being
    /// stored.
    fn publish_memo(&self, col: usize, hash: u64) {
        debug_assert!(col < MEMO_BUSY as usize);
        // Only the claiming writer ever stores the hash, and no reader
        // looks at it before the `Release` below, so the claim can be
        // relaxed.
        if self
            .key_col
            .compare_exchange(MEMO_EMPTY, MEMO_BUSY, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.key_hash.store(hash, Ordering::Relaxed);
            self.key_col.store(col as u32, Ordering::Release);
        }
    }
}

/// Where a block's values start: the header, rounded up to a value's
/// alignment.
const VALUES_OFFSET: usize =
    std::mem::size_of::<Header>().next_multiple_of(std::mem::align_of::<Value>());

/// The layout of a block that holds `len` values.
fn block_layout(len: usize) -> Layout {
    let values = Layout::array::<Value>(len).expect("a row's size fits in isize");
    let (block, offset) = Layout::new::<Header>()
        .extend(values)
        .expect("a row's size fits in isize");
    debug_assert_eq!(offset, VALUES_OFFSET);
    block.pad_to_align()
}

/// The first value slot of the block at `block`.
///
/// # Safety
/// `block` points at an allocation made with [`block_layout`].
#[inline]
unsafe fn values_ptr(block: NonNull<Header>) -> *mut Value {
    // SAFETY: `VALUES_OFFSET` lies inside every block (the caller's
    // promise), and the pointer keeps the allocation's provenance.
    unsafe {
        block
            .as_ptr()
            .cast::<u8>()
            .add(VALUES_OFFSET)
            .cast::<Value>()
    }
}

/// Drop the header and the first `init` values of a block, then free it.
///
/// # Safety
/// `block` was allocated with `block_layout(header.len)`, its header and
/// its first `init` values are initialised, and nothing uses it afterwards.
unsafe fn free_block(block: NonNull<Header>, init: usize) {
    // SAFETY: as the caller promises; the values are dropped before the
    // header whose `len` sizes the deallocation is.
    unsafe {
        let len = block.as_ref().len as usize;
        ptr::drop_in_place(ptr::slice_from_raw_parts_mut(values_ptr(block), init));
        ptr::drop_in_place(block.as_ptr());
        alloc::dealloc(block.as_ptr().cast(), block_layout(len));
    }
}

/// A block whose values are still being written. If the cell iterator
/// panics, this drops what was written and frees the block.
struct Filling {
    block: NonNull<Header>,
    written: usize,
}

impl Drop for Filling {
    fn drop(&mut self) {
        // SAFETY: the header and the first `written` values are
        // initialised, and no handle to the block exists yet.
        unsafe { free_block(self.block, self.written) }
    }
}

/// An immutable row flowing through the dataflow: one pointer to a shared
/// block (see the module docs).
pub struct Tuple {
    block: NonNull<Header>,
    /// The handle owns a share of the header and the values behind it.
    _owns: PhantomData<Header>,
}

// SAFETY: a handle gives out `&Header` and `&[Value]` on whatever thread
// holds it, and the last one drops the block on whatever thread that is.
// Every part of a block is `Send + Sync`: `refs` and the memo are atomics,
// `ts` and `len` are plain data, and `_parts_are_send_and_sync` checks
// `SchemaRef` and `Value`. Non-atomic writes happen only through
// `&mut Tuple` while no other handle exists (invariant 2).
unsafe impl Send for Tuple {}
// SAFETY: as for `Send`.
unsafe impl Sync for Tuple {}

/// What the `Send` and `Sync` impls of [`Tuple`] rely on, checked by the
/// compiler.
fn _parts_are_send_and_sync() {
    fn check<T: Send + Sync>() {}
    check::<SchemaRef>();
    check::<Value>();
}

impl Tuple {
    /// Build a tuple, checking arity against the schema.
    pub fn new(schema: SchemaRef, values: Vec<Value>, ts: Timestamp) -> Result<Self> {
        if values.len() != schema.len() {
            return Err(TcqError::SchemaMismatch(format!(
                "tuple has {} values but schema {} has {} columns",
                values.len(),
                schema,
                schema.len()
            )));
        }
        Ok(Tuple::from_cells(schema, values, ts, None))
    }

    /// Build without the arity check (hot path; used by operators that have
    /// already validated shapes at plan time).
    pub fn new_unchecked(schema: SchemaRef, values: Vec<Value>, ts: Timestamp) -> Self {
        debug_assert_eq!(values.len(), schema.len());
        Tuple::from_cells(schema, values, ts, None)
    }

    /// Build a row by moving `cells` straight into its block: one
    /// allocation. The iterator must report its exact length in
    /// `size_hint`, as vectors, slice iterators, maps over them and chains
    /// of them do; any other iterator panics. `key_hash` is
    /// `(col, hash_value(cells[col]))` when the caller kept the row's key
    /// hash (a SteM does), so the memo survives and nothing downstream
    /// hashes the key again.
    pub fn from_cells(
        schema: SchemaRef,
        cells: impl IntoIterator<Item = Value>,
        ts: Timestamp,
        key_hash: Option<(usize, u64)>,
    ) -> Tuple {
        let mut cells = cells.into_iter();
        let (len, upper) = cells.size_hint();
        assert_eq!(Some(len), upper, "a row's cells have an exact length");
        debug_assert_eq!(len, schema.len());
        let header = Header::new(schema, ts, len, key_hash);
        let layout = block_layout(len);
        // SAFETY: `layout` is not zero-sized: it holds a `Header`.
        let raw = unsafe { alloc::alloc(layout) }.cast::<Header>();
        let Some(block) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `block` is a fresh allocation sized and aligned for a
        // `Header` followed by `len` values.
        unsafe { block.as_ptr().write(header) };
        let mut fill = Filling { block, written: 0 };
        while fill.written < len {
            let cell = cells
                .next()
                .expect("an exact-length iterator yields its length");
            // SAFETY: `written < len`, so the slot lies inside the block,
            // and it is not initialised yet.
            unsafe { values_ptr(block).add(fill.written).write(cell) };
            fill.written += 1;
        }
        std::mem::forget(fill);
        let row = Tuple {
            block,
            _owns: PhantomData,
        };
        debug_assert!(key_hash.is_none_or(|(col, hash)| hash == hash_value(row.value(col))));
        row
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: a handle keeps its block alive (invariant 1).
        unsafe { self.block.as_ref() }
    }

    /// The header for writing. A shared block is first copied once (its
    /// values cloned, a published memo carried), so the write is seen by
    /// this handle alone; a unique one is written in place.
    fn header_mut(&mut self) -> &mut Header {
        // `Acquire` pairs with the `Release` decrement of every handle
        // dropped before: their reads of the block happen before our write.
        if self.header().refs.load(Ordering::Acquire) != 1 {
            let h = self.header();
            *self = Tuple::from_cells(
                h.schema.clone(),
                self.values().iter().cloned(),
                h.ts,
                h.memo(),
            );
        }
        // SAFETY: this handle is the block's only one (`refs == 1`, and
        // only a handle can raise it), and `&mut self` borrows it
        // exclusively, so no other reference to the header exists.
        unsafe { self.block.as_mut() }
    }

    /// The values for writing, copied first when the block is shared (as
    /// in [`Tuple::header_mut`]). Clears the memo, which the write could
    /// make stale.
    fn values_mut(&mut self) -> &mut [Value] {
        let header = self.header_mut();
        *header.key_col.get_mut() = MEMO_EMPTY;
        let len = header.len as usize;
        // SAFETY: the block is unique as in `header_mut`, and its `len`
        // initialised values lie after the header, outside the `&mut
        // Header` released above.
        unsafe { std::slice::from_raw_parts_mut(values_ptr(self.block), len) }
    }

    /// The values in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        // SAFETY: the block holds `len` initialised values after its header
        // (invariant 1), alive as long as this handle, and written only
        // through `&mut self` (invariant 2).
        unsafe { std::slice::from_raw_parts(values_ptr(self.block), self.header().len as usize) }
    }

    /// The value at column `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// The tuple's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.header().schema
    }

    /// The tuple's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.header().ts
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.header().len as usize
    }

    /// Handles to this row's block, this one included (as
    /// `Arc::strong_count`): how many places hold the row now.
    pub fn handle_count(&self) -> usize {
        self.header().refs.load(Ordering::Relaxed)
    }

    /// This row with timestamp `ts` (ingress stamps arrival order with
    /// it). Writes the block in place when this is its only handle, and
    /// copies it once when it is shared. The memo is kept.
    pub fn restamp(mut self, ts: Timestamp) -> Tuple {
        self.header_mut().ts = ts;
        self
    }

    /// This row under `schema` (a stream tuple entering a query under an
    /// alias — e.g. the paper's self-join delivers each physical tuple once
    /// as `c1` and once as `c2`). Writes the block in place when this is
    /// its only handle, and copies it once when it is shared. The memo is
    /// kept: column indexes do not change. Errors if the arity differs.
    pub fn reschema(mut self, schema: SchemaRef) -> Result<Tuple> {
        if schema.len() != self.arity() {
            return Err(TcqError::SchemaMismatch(format!(
                "cannot re-schema arity {} tuple to {} ({schema})",
                self.arity(),
                schema.len()
            )));
        }
        self.header_mut().schema = schema;
        Ok(self)
    }

    /// A copy of this row with timestamp `ts`: [`Tuple::restamp`] on a
    /// clone, so it always copies the block once.
    pub fn with_timestamp(&self, ts: Timestamp) -> Tuple {
        self.clone().restamp(ts)
    }

    /// A copy of this row under `schema`: [`Tuple::reschema`] on a clone,
    /// so it copies the block once.
    pub fn with_schema(&self, schema: SchemaRef) -> Result<Tuple> {
        self.clone().reschema(schema)
    }

    /// The memoized key hash for column `col`, if one was computed — no
    /// hashing happens here (SteM counters use this to bill only real
    /// computations).
    #[inline]
    pub fn cached_key_hash(&self, col: usize) -> Option<u64> {
        self.header()
            .memo()
            .and_then(|(c, hash)| (c == col).then_some(hash))
    }

    /// The FNV-1a hash of the value at column `col`, memoized in the
    /// shared block: the first call through any handle computes and
    /// caches, later calls for the same column through every handle return
    /// the cached word. A call for a *different* column recomputes without
    /// touching the memo (one memo slot covers the one join key a tuple is
    /// routed on).
    pub fn key_hash(&self, col: usize) -> u64 {
        if let Some(h) = self.cached_key_hash(col) {
            return h;
        }
        let hash = hash_value(self.value(col));
        self.header().publish_memo(col, hash);
        hash
    }

    /// Concatenate two tuples into a join output. The result's timestamp is
    /// the partial-order max of the parents (a join result "happens" when
    /// its later input arrives). The memo is dropped: indexes shift.
    pub fn concat(&self, other: &Tuple, joined_schema: SchemaRef) -> Tuple {
        let values = self.values().iter().chain(other.values()).cloned();
        let ts = self.timestamp().join_max(&other.timestamp());
        Tuple::from_cells(joined_schema, values, ts, None)
    }

    /// Project columns by index onto a pre-computed projected schema. The
    /// memo is dropped: indexes shift.
    pub fn project(&self, indices: &[usize], projected_schema: SchemaRef) -> Tuple {
        let values = indices.iter().map(|&i| self.value(i).clone());
        Tuple::from_cells(projected_schema, values, self.timestamp(), None)
    }

    /// Look a value up by (optionally qualified) column name.
    pub fn get(&self, qualifier: Option<&str>, name: &str) -> Result<&Value> {
        let idx = self.schema().index_of(qualifier, name)?;
        Ok(self.value(idx))
    }
}

impl Clone for Tuple {
    /// Another handle to the same block: one atomic increment.
    #[inline]
    fn clone(&self) -> Tuple {
        // Relaxed, as in `Arc::clone`: the new handle is made from a live
        // one, which keeps the block alive meanwhile.
        let old = self.header().refs.fetch_add(1, Ordering::Relaxed);
        // Billions of leaked handles could wrap the count and free a live
        // block; abort first, as `Arc` does.
        if old > isize::MAX as usize {
            std::process::abort();
        }
        Tuple {
            block: self.block,
            _owns: PhantomData,
        }
    }
}

impl Drop for Tuple {
    fn drop(&mut self) {
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Pairs with every other handle's `Release` decrement: their uses
        // of the block happen before it is freed.
        atomic::fence(Ordering::Acquire);
        let len = self.arity();
        // SAFETY: this was the block's last handle, so nothing else uses
        // it, and all `len` values are initialised (invariant 1).
        unsafe { free_block(self.block, len) }
    }
}

impl PartialEq for Tuple {
    /// Value equality; timestamps and schema identity are ignored so tests
    /// can compare results from different plans.
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}
impl Eq for Tuple {}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} |", self.timestamp())?;
        for v in self.values() {
            write!(f, " {v}")?;
        }
        write!(f, "]")
    }
}

/// Builder for constructing tuples against a fixed schema, used by ingress
/// wrappers and tests.
#[derive(Clone)]
pub struct TupleBuilder {
    /// The row at its final length, NULL until pushed: `push` writes each
    /// cell in place, so a built tuple costs one allocation (a cloned
    /// builder copies its row on its first write).
    row: Tuple,
    /// Values pushed so far; past the arity they are counted for the
    /// arity error and otherwise dropped.
    pushed: usize,
}

impl TupleBuilder {
    /// Start building a tuple for `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        let nulls = (0..schema.len()).map(|_| Value::Null);
        TupleBuilder {
            row: Tuple::from_cells(schema, nulls, Timestamp::unknown(), None),
            pushed: 0,
        }
    }

    /// Append the next column value.
    pub fn push(mut self, v: impl Into<Value>) -> Self {
        if self.pushed < self.row.arity() {
            self.row.values_mut()[self.pushed] = v.into();
        }
        self.pushed += 1;
        self
    }

    /// Set the timestamp.
    pub fn at(mut self, ts: Timestamp) -> Self {
        self.row = self.row.restamp(ts);
        self
    }

    /// Finish, validating arity and column types.
    pub fn build(self) -> Result<Tuple> {
        let schema = self.row.schema();
        if self.pushed != schema.len() {
            return Err(TcqError::SchemaMismatch(format!(
                "builder has {} of {} values",
                self.pushed,
                schema.len()
            )));
        }
        for (i, v) in self.row.values().iter().enumerate() {
            if let Some(dt) = v.data_type() {
                let expected = schema.field(i).data_type;
                if !expected.accepts(dt) {
                    return Err(TcqError::SchemaMismatch(format!(
                        "column {} ({}) expects {expected}, got {dt}",
                        i,
                        schema.field(i).name
                    )));
                }
            }
        }
        Ok(self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};
    use std::sync::Arc;

    fn stock_schema() -> SchemaRef {
        Schema::qualified(
            "s",
            vec![
                Field::new("timestamp", DataType::Int),
                Field::new("stockSymbol", DataType::Str),
                Field::new("closingPrice", DataType::Float),
            ],
        )
        .into_ref()
    }

    fn tick(ts: i64, sym: &str, price: f64) -> Tuple {
        TupleBuilder::new(stock_schema())
            .push(ts)
            .push(sym)
            .push(price)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    /// Whether two handles point at one block.
    fn same_block(a: &Tuple, b: &Tuple) -> bool {
        std::ptr::eq(a.values().as_ptr(), b.values().as_ptr())
    }

    #[test]
    fn builder_validates_arity() {
        let t = TupleBuilder::new(stock_schema()).push(1i64).build();
        assert!(t.is_err());
    }

    #[test]
    fn builder_validates_types() {
        let t = TupleBuilder::new(stock_schema())
            .push("oops")
            .push("MSFT")
            .push(10.0)
            .build();
        assert!(t.is_err());
    }

    #[test]
    fn builder_accepts_int_where_float_expected() {
        let t = TupleBuilder::new(stock_schema())
            .push(1i64)
            .push("MSFT")
            .push(50i64)
            .build();
        assert!(t.is_ok());
    }

    #[test]
    fn a_cloned_builder_writes_its_own_row() {
        let half = TupleBuilder::new(stock_schema()).push(1i64).push("MSFT");
        let a = half.clone().push(1.0).build().unwrap();
        let b = half.push(2.0).at(Timestamp::logical(5)).build().unwrap();
        assert_eq!(a.value(2), &Value::Float(1.0));
        assert_eq!(b.value(2), &Value::Float(2.0));
        assert_eq!(a.timestamp(), Timestamp::unknown());
        assert_eq!(b.timestamp(), Timestamp::logical(5));
    }

    #[test]
    fn get_by_name() {
        let t = tick(3, "MSFT", 51.5);
        assert_eq!(t.get(None, "closingPrice").unwrap(), &Value::Float(51.5));
        assert_eq!(
            t.get(Some("s"), "stockSymbol").unwrap(),
            &Value::str("MSFT")
        );
        assert!(t.get(None, "nope").is_err());
    }

    #[test]
    fn concat_takes_max_timestamp() {
        let a = tick(3, "MSFT", 51.5);
        let b = tick(7, "IBM", 80.0);
        let joined_schema = a.schema().concat(b.schema()).into_ref();
        let j = a.concat(&b, joined_schema);
        assert_eq!(j.arity(), 6);
        assert_eq!(j.timestamp().seq(), 7);
    }

    #[test]
    fn project_preserves_timestamp() {
        let t = tick(9, "MSFT", 1.0);
        let proj_schema = t.schema().project(&[2]).into_ref();
        let p = t.project(&[2], proj_schema);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.timestamp().seq(), 9);
        assert_eq!(p.value(0), &Value::Float(1.0));
    }

    #[test]
    fn equality_ignores_timestamp() {
        let a = tick(1, "MSFT", 2.0);
        let b = a.with_timestamp(Timestamp::logical(99));
        assert_eq!(a, b);
    }

    #[test]
    fn clone_is_shallow() {
        let a = tick(1, "MSFT", 2.0);
        let b = a.clone();
        assert!(same_block(&a, &b));
        assert_eq!((a.handle_count(), b.handle_count()), (2, 2));
        drop(b);
        assert_eq!(a.handle_count(), 1);
    }

    #[test]
    fn a_unique_row_is_restamped_and_reschemaed_in_place() {
        let a = tick(1, "MSFT", 2.0);
        let at = a.values().as_ptr();
        let a = a.restamp(Timestamp::logical(7));
        assert_eq!(a.values().as_ptr(), at);
        assert_eq!(a.timestamp(), Timestamp::logical(7));
        let alias = stock_schema().with_qualifier("c1").into_ref();
        let a = a.reschema(alias.clone()).unwrap();
        assert_eq!(a.values().as_ptr(), at);
        assert!(Arc::ptr_eq(a.schema(), &alias));
    }

    #[test]
    fn a_shared_row_is_copied_once_and_its_other_handles_see_no_change() {
        let a = tick(1, "MSFT", 2.0);
        let b = a.clone().restamp(Timestamp::logical(7));
        assert!(!same_block(&a, &b));
        assert_eq!(a.timestamp(), Timestamp::logical(1));
        assert_eq!(b.timestamp(), Timestamp::logical(7));
        assert_eq!(a, b);
        let alias = stock_schema().with_qualifier("c1").into_ref();
        let c = a.with_schema(alias.clone()).unwrap();
        assert!(!same_block(&a, &c));
        assert!(Arc::ptr_eq(c.schema(), &alias));
        assert!(!Arc::ptr_eq(a.schema(), &alias));
        // A wrong arity is refused before anything is copied.
        let narrow = stock_schema().project(&[0]).into_ref();
        assert!(a.clone().reschema(narrow).is_err());
    }

    #[test]
    fn cells_collect_into_one_block_with_their_memo() {
        let a = tick(4, "MSFT", 2.0);
        let h = a.key_hash(1);
        let b = Tuple::from_cells(
            stock_schema(),
            a.values().iter().cloned(),
            Timestamp::both(4, 99),
            Some((1, h)),
        );
        assert_eq!(b, a);
        assert_eq!(b.timestamp(), Timestamp::both(4, 99));
        assert_eq!(b.cached_key_hash(1), Some(h));
        // Without a stored hash the handle comes back cold, not wrong.
        let c = Tuple::from_cells(
            stock_schema(),
            a.values().to_vec(),
            Timestamp::unknown(),
            None,
        );
        assert_eq!(c.cached_key_hash(1), None);
        assert_eq!(c.timestamp(), Timestamp::unknown());
        assert_eq!(c.key_hash(1), h);
    }

    #[test]
    fn key_hash_memoizes_and_survives_reschema() {
        let t = tick(1, "MSFT", 2.0);
        assert_eq!(t.cached_key_hash(1), None, "no hash before first use");
        let h = t.key_hash(1);
        assert_eq!(h, crate::hash::hash_value(&Value::str("MSFT")));
        assert_eq!(t.cached_key_hash(1), Some(h));
        // The memo rides along clone, with_timestamp, and with_schema —
        // the exact path PartitionDu → a partition's JoinCqDu → StemOp takes.
        assert_eq!(t.clone().cached_key_hash(1), Some(h));
        assert_eq!(
            t.with_timestamp(Timestamp::logical(9)).cached_key_hash(1),
            Some(h)
        );
        let alias = stock_schema().with_qualifier("c1").into_ref();
        assert_eq!(t.with_schema(alias).unwrap().cached_key_hash(1), Some(h));
        // A different column bypasses (and does not clobber) the memo.
        assert_eq!(t.cached_key_hash(0), None);
        assert_eq!(t.key_hash(0), crate::hash::hash_value(&Value::Int(1)));
        assert_eq!(t.cached_key_hash(1), Some(h));
    }

    #[test]
    fn a_memo_published_through_one_clone_is_read_by_another() {
        let a = tick(1, "MSFT", 2.0);
        let b = a.clone();
        let h = std::thread::scope(|s| s.spawn(|| b.key_hash(1)).join().unwrap());
        assert_eq!(a.cached_key_hash(1), Some(h));
        assert_eq!(h, hash_value(&Value::str("MSFT")));
        // A restamp of a clone keeps reading it, in place or copied.
        assert_eq!(b.restamp(Timestamp::logical(3)).cached_key_hash(1), Some(h));
    }

    #[test]
    fn a_row_handle_is_one_pointer() {
        assert_eq!(std::mem::size_of::<Timestamp>(), 16);
        assert_eq!(std::mem::size_of::<Tuple>(), 8);
        assert_eq!(std::mem::size_of::<Option<Tuple>>(), 8);
        assert_eq!(VALUES_OFFSET, 48, "the block's header");
    }

    #[test]
    fn every_string_cell_is_released_once_its_last_row_goes() {
        let sym: Arc<str> = Arc::from("MSFT");
        let schema = stock_schema();
        let row = |i: i64| {
            let cells = [Value::Int(i), Value::Str(sym.clone()), Value::Float(0.5)];
            Tuple::from_cells(schema.clone(), cells, Timestamp::logical(i), None)
        };
        let rows: Vec<Tuple> = (0..64).map(row).collect();
        let alias = schema.with_qualifier("c1").into_ref();
        let joined = schema.concat(&schema).into_ref();
        let narrow = schema.project(&[1]).into_ref();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for k in 0..4 {
                let (rows, start) = (&rows, &start);
                let (alias, joined, narrow) = (&alias, &joined, &narrow);
                s.spawn(move || {
                    start.wait();
                    for (i, t) in rows.iter().enumerate() {
                        let c = t.clone();
                        let derived = match (i + k) % 4 {
                            0 => c.restamp(Timestamp::logical(-1)),
                            1 => c.reschema(alias.clone()).unwrap(),
                            2 => c.concat(t, joined.clone()),
                            _ => c.project(&[1], narrow.clone()),
                        };
                        t.key_hash(1);
                        drop(derived);
                    }
                });
            }
        });
        assert_eq!(Arc::strong_count(&sym), 65);
        // Rows dropped on another thread release their cells there.
        std::thread::spawn(move || drop(rows)).join().unwrap();
        assert_eq!(Arc::strong_count(&sym), 1);
    }

    #[test]
    fn a_panicking_cell_iterator_frees_what_it_wrote() {
        let sym: Arc<str> = Arc::from("IBM");
        let cells = (0..3).map(|i| {
            assert!(i < 2, "third cell");
            Value::Str(sym.clone())
        });
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Tuple::from_cells(stock_schema(), cells, Timestamp::unknown(), None)
        }));
        assert!(built.is_err());
        assert_eq!(Arc::strong_count(&sym), 1);
    }

    #[test]
    fn racing_key_hashes_always_answer_their_own_column() {
        let t = tick(1, "MSFT", 2.0);
        let want = [hash_value(t.value(0)), hash_value(t.value(1))];
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for first in 0..2 {
                let (t, want, start) = (&t, &want, &start);
                s.spawn(move || {
                    // Both threads reach their first `key_hash` together.
                    start.wait();
                    for i in 0..10_000 {
                        let col = (first + i) % 2;
                        assert_eq!(t.key_hash(col), want[col]);
                        assert_eq!(t.key_hash(1 - col), want[1 - col]);
                    }
                });
            }
        });
        // Exactly one column won the memo, and its clone carries it.
        let won = (0..2).filter(|&c| t.cached_key_hash(c).is_some()).count();
        assert_eq!(won, 1);
        let c = t.clone();
        assert_eq!(
            (c.cached_key_hash(0), c.cached_key_hash(1)),
            (t.cached_key_hash(0), t.cached_key_hash(1))
        );
    }

    #[test]
    fn key_hash_memo_dropped_by_index_shifting_ops() {
        let a = tick(1, "MSFT", 2.0);
        let b = tick(2, "IBM", 3.0);
        a.key_hash(1);
        let joined_schema = a.schema().concat(b.schema()).into_ref();
        assert_eq!(a.concat(&b, joined_schema).cached_key_hash(1), None);
        let proj_schema = a.schema().project(&[1]).into_ref();
        assert_eq!(a.project(&[1], proj_schema).cached_key_hash(1), None);
    }
}
