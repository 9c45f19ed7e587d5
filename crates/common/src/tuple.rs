//! Tuples: immutable, cheaply clonable rows.
//!
//! A [`Tuple`] pairs a shared value vector with its [`SchemaRef`] and a
//! [`Timestamp`]. Cloning a tuple is two `Arc` bumps — essential because
//! eddies route the *same* tuple through many modules and CACQ shares one
//! tuple across many queries.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Result, TcqError};
use crate::hash::hash_value;
use crate::schema::SchemaRef;
use crate::time::Timestamp;
use crate::value::Value;

/// `KeyHashMemo::col` before any hash is stored.
const MEMO_EMPTY: u32 = u32::MAX;
/// `KeyHashMemo::col` while the one writer that claimed it stores `hash`.
const MEMO_BUSY: u32 = u32::MAX - 1;

/// A memoized join-key hash: the FNV-1a hash of the value at column
/// `col`, computed once and carried with the tuple so partition routing,
/// SteM build, and SteM probe all reuse one computation.
///
/// Twelve bytes written at most once. A writer claims `col` from
/// `MEMO_EMPTY` to `MEMO_BUSY` by CAS, stores `hash`, then publishes the
/// column with `Release`; a reader that loads its own column with
/// `Acquire` therefore reads the finished hash. A reader that sees
/// `MEMO_BUSY` hashes for itself.
struct KeyHashMemo {
    hash: AtomicU64,
    col: AtomicU32,
    /// Sits in what would be padding. Its 255 invalid bit patterns are a
    /// niche, so an enum wrapping a [`Tuple`] (a fjord message) keeps its
    /// tag there instead of in a word of its own.
    _niche: Niche,
}

/// A byte with one valid value (see `KeyHashMemo::_niche`).
#[derive(Clone, Copy)]
#[repr(u8)]
enum Niche {
    Zero = 0,
}

// The memo's methods are `#[inline]` because `Tuple`'s derived `Clone`
// is, and a row is cloned into every subscriber queue in other crates.
impl KeyHashMemo {
    #[inline]
    const fn empty() -> KeyHashMemo {
        KeyHashMemo {
            hash: AtomicU64::new(0),
            col: AtomicU32::new(MEMO_EMPTY),
            _niche: Niche::Zero,
        }
    }

    #[inline]
    fn published(col: usize, hash: u64) -> KeyHashMemo {
        debug_assert!(col < MEMO_BUSY as usize);
        KeyHashMemo {
            hash: AtomicU64::new(hash),
            col: AtomicU32::new(col as u32),
            _niche: Niche::Zero,
        }
    }

    /// The published `(col, hash)`, if any.
    #[inline]
    fn get(&self) -> Option<(usize, u64)> {
        let col = self.col.load(Ordering::Acquire);
        (col < MEMO_BUSY).then(|| (col as usize, self.hash.load(Ordering::Relaxed)))
    }

    /// Publish `(col, hash)` unless a memo is already stored or being
    /// stored.
    fn set(&self, col: usize, hash: u64) {
        debug_assert!(col < MEMO_BUSY as usize);
        // Only the claiming writer ever stores `hash`, and no reader looks
        // at it before the `Release` below, so the claim can be relaxed.
        if self
            .col
            .compare_exchange(MEMO_EMPTY, MEMO_BUSY, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.hash.store(hash, Ordering::Relaxed);
            self.col.store(col as u32, Ordering::Release);
        }
    }
}

impl Clone for KeyHashMemo {
    /// A published memo is copied; one still being written is not.
    #[inline]
    fn clone(&self) -> KeyHashMemo {
        match self.get() {
            Some((col, hash)) => KeyHashMemo::published(col, hash),
            None => KeyHashMemo::empty(),
        }
    }
}

/// An immutable row flowing through the dataflow.
#[derive(Clone)]
pub struct Tuple {
    values: Arc<[Value]>,
    schema: SchemaRef,
    ts: Timestamp,
    /// Lazily-filled join-key hash memo. Carried by [`Tuple::clone`],
    /// [`Tuple::with_timestamp`], and [`Tuple::with_schema`] (column
    /// indexes are unchanged there); dropped by [`Tuple::concat`] and
    /// [`Tuple::project`] (indexes shift). Excluded from `PartialEq`.
    key_hash: KeyHashMemo,
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
        Ok(Tuple {
            values: values.into(),
            schema,
            ts,
            key_hash: KeyHashMemo::empty(),
        })
    }

    /// Build without the arity check (hot path; used by operators that have
    /// already validated shapes at plan time).
    pub fn new_unchecked(schema: SchemaRef, values: Vec<Value>, ts: Timestamp) -> Self {
        debug_assert_eq!(values.len(), schema.len());
        Tuple {
            values: values.into(),
            schema,
            ts,
            key_hash: KeyHashMemo::empty(),
        }
    }

    /// A handle around an already-built value vector, without copying it
    /// (a SteM collects a stored row's cells straight into one). `key_hash`
    /// is `(col, hash_value(values[col]))` when the caller kept the row's
    /// key hash, so the memo survives and nothing downstream hashes the
    /// key again.
    pub fn from_shared(
        schema: SchemaRef,
        values: Arc<[Value]>,
        ts: Timestamp,
        key_hash: Option<(usize, u64)>,
    ) -> Tuple {
        debug_assert_eq!(values.len(), schema.len());
        let key_hash = match key_hash {
            Some((col, hash)) => {
                debug_assert_eq!(hash, hash_value(&values[col]));
                KeyHashMemo::published(col, hash)
            }
            None => KeyHashMemo::empty(),
        };
        Tuple {
            values,
            schema,
            ts,
            key_hash,
        }
    }

    /// The values in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at column `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// The tuple's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The tuple's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Replace the timestamp (used by ingress when stamping arrival order).
    pub fn with_timestamp(&self, ts: Timestamp) -> Tuple {
        Tuple {
            values: Arc::clone(&self.values),
            schema: Arc::clone(&self.schema),
            ts,
            key_hash: self.key_hash.clone(),
        }
    }

    /// The memoized key hash for column `col`, if one was computed — no
    /// hashing happens here (SteM counters use this to bill only real
    /// computations).
    pub fn cached_key_hash(&self, col: usize) -> Option<u64> {
        self.key_hash
            .get()
            .and_then(|(c, hash)| (c == col).then_some(hash))
    }

    /// The FNV-1a hash of the value at column `col`, memoized: the first
    /// call computes and caches, later calls for the same column return
    /// the cached word. A call for a *different* column recomputes
    /// without touching the memo (one memo slot covers the one join key
    /// a tuple is routed on).
    pub fn key_hash(&self, col: usize) -> u64 {
        if let Some(h) = self.cached_key_hash(col) {
            return h;
        }
        let hash = hash_value(&self.values[col]);
        self.key_hash.set(col, hash);
        hash
    }

    /// Re-schema the tuple (used when a stream tuple enters a query under
    /// an alias — e.g. the paper's self-join delivers each physical tuple
    /// once as `c1` and once as `c2`). Values are shared, not copied.
    /// Errors if the arity differs.
    pub fn with_schema(&self, schema: SchemaRef) -> Result<Tuple> {
        if schema.len() != self.values.len() {
            return Err(TcqError::SchemaMismatch(format!(
                "cannot re-schema arity {} tuple to {} ({schema})",
                self.values.len(),
                schema.len()
            )));
        }
        Ok(Tuple {
            values: Arc::clone(&self.values),
            schema,
            ts: self.ts,
            key_hash: self.key_hash.clone(),
        })
    }

    /// Concatenate two tuples into a join output. The result's timestamp is
    /// the partial-order max of the parents (a join result "happens" when
    /// its later input arrives).
    pub fn concat(&self, other: &Tuple, joined_schema: SchemaRef) -> Tuple {
        // An exact-length iterator collects into one allocation.
        let values: Arc<[Value]> = self
            .values
            .iter()
            .chain(other.values.iter())
            .cloned()
            .collect();
        debug_assert_eq!(values.len(), joined_schema.len());
        Tuple {
            values,
            schema: joined_schema,
            ts: self.ts.join_max(&other.ts),
            key_hash: KeyHashMemo::empty(),
        }
    }

    /// Project columns by index onto a pre-computed projected schema.
    pub fn project(&self, indices: &[usize], projected_schema: SchemaRef) -> Tuple {
        let values: Arc<[Value]> = indices.iter().map(|&i| self.values[i].clone()).collect();
        debug_assert_eq!(values.len(), projected_schema.len());
        Tuple {
            values,
            schema: projected_schema,
            ts: self.ts,
            key_hash: KeyHashMemo::empty(),
        }
    }

    /// Look a value up by (optionally qualified) column name.
    pub fn get(&self, qualifier: Option<&str>, name: &str) -> Result<&Value> {
        let idx = self.schema.index_of(qualifier, name)?;
        Ok(&self.values[idx])
    }
}

impl PartialEq for Tuple {
    /// Value equality; timestamps and schema identity are ignored so tests
    /// can compare results from different plans.
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}
impl Eq for Tuple {}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} |", self.ts)?;
        for v in self.values.iter() {
            write!(f, " {v}")?;
        }
        write!(f, "]")
    }
}

/// Builder for constructing tuples against a fixed schema, used by ingress
/// wrappers and tests.
#[derive(Clone)]
pub struct TupleBuilder {
    schema: SchemaRef,
    /// The row at its final length, NULL until pushed: `push` writes each
    /// cell in place, so a built tuple costs one allocation.
    values: Arc<[Value]>,
    /// Values pushed so far; past `values.len()` they are counted for the
    /// arity error and otherwise dropped.
    pushed: usize,
    ts: Timestamp,
}

impl TupleBuilder {
    /// Start building a tuple for `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        TupleBuilder {
            values: (0..schema.len()).map(|_| Value::Null).collect(),
            schema,
            pushed: 0,
            ts: Timestamp::unknown(),
        }
    }

    /// Append the next column value.
    pub fn push(mut self, v: impl Into<Value>) -> Self {
        if self.pushed < self.values.len() {
            // Unique unless the builder was cloned, which copies here.
            Arc::make_mut(&mut self.values)[self.pushed] = v.into();
        }
        self.pushed += 1;
        self
    }

    /// Set the timestamp.
    pub fn at(mut self, ts: Timestamp) -> Self {
        self.ts = ts;
        self
    }

    /// Finish, validating arity and column types.
    pub fn build(self) -> Result<Tuple> {
        if self.pushed != self.schema.len() {
            return Err(TcqError::SchemaMismatch(format!(
                "builder has {} of {} values",
                self.pushed,
                self.schema.len()
            )));
        }
        for (i, v) in self.values.iter().enumerate() {
            if let Some(dt) = v.data_type() {
                let expected = self.schema.field(i).data_type;
                if !expected.accepts(dt) {
                    return Err(TcqError::SchemaMismatch(format!(
                        "column {} ({}) expects {expected}, got {dt}",
                        i,
                        self.schema.field(i).name
                    )));
                }
            }
        }
        Ok(Tuple::from_shared(self.schema, self.values, self.ts, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};

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
        assert!(std::ptr::eq(a.values.as_ptr(), b.values.as_ptr()));
    }

    #[test]
    fn shared_parts_rebuild_the_same_row_without_copying() {
        let a = tick(4, "MSFT", 2.0);
        let h = a.key_hash(1);
        let values = Arc::clone(&a.values);
        let b = Tuple::from_shared(
            stock_schema(),
            Arc::clone(&values),
            Timestamp::both(4, 99),
            Some((1, h)),
        );
        assert!(std::ptr::eq(a.values.as_ptr(), b.values.as_ptr()));
        assert_eq!(b, a);
        assert_eq!(b.timestamp(), Timestamp::both(4, 99));
        assert_eq!(b.cached_key_hash(1), Some(h));
        // Without a stored hash the handle comes back cold, not wrong.
        let c = Tuple::from_shared(stock_schema(), values, Timestamp::unknown(), None);
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
    fn a_row_handle_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Timestamp>(), 16);
        assert!(std::mem::size_of::<Tuple>() <= 56);
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
