//! The CACQ-mode shared eddy (§3.1).
//!
//! > "The key innovation in CACQ is the modification of Eddies to execute
//! > multiple queries simultaneously. This is accomplished by essentially
//! > having the Eddy execute a single 'super'-query corresponding to the
//! > disjunction of all the individual queries … Extra state, called tuple
//! > lineage, is maintained with each tuple … to help determine the clients
//! > to which the output … should be transmitted."
//!
//! A [`SharedEddy`] executes any number of continuous queries over one
//! stream, or over two streams sharing an equi-join:
//!
//! * Each query's single-column factors are indexed in shared grouped
//!   filters (one [`tcq_stems::QueryStem`] per stream side), so one pass
//!   evaluates every query's selections.
//! * Join queries share **one** pair of SteMs. Stored tuples carry their
//!   query lineage (the set of queries still interested), so join outputs
//!   are delivered to exactly the intersection of both parents' lineages —
//!   the work of building and probing is done once, not once per query.
//! * Queries can be added and removed while the eddy runs ("this shared
//!   processing must be made robust to the addition of new queries and the
//!   removal of old ones over time", §1.1).

use std::collections::HashMap;

use tcq_common::{BitSet, Expr, Result, Schema, SchemaRef, TcqError, Tuple, Value};
use tcq_stems::{MatchScratch, QueryStem, SlotRing};

/// Query identifier within a shared eddy.
pub type QueryId = usize;

/// Counters for a shared eddy.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedEddyStats {
    /// Base tuples pushed.
    pub tuples_in: u64,
    /// (tuple, query-set) outputs produced.
    pub outputs: u64,
    /// SteM builds performed.
    pub builds: u64,
    /// SteM probes performed.
    pub probes: u64,
    /// Join concatenations produced.
    pub join_matches: u64,
}

/// One stored tuple and the queries still interested in it.
type Lineaged = (Tuple, BitSet);

/// A SteM whose stored tuples carry query lineage. Storage is the same
/// window-sized [`SlotRing`] the dedicated `SteM` uses, with one
/// `(tuple, lineage)` per slot; builds arrive in timestamp order, so the
/// ring's front is the oldest tuple.
struct SharedStem {
    key_col: usize,
    buckets: HashMap<Value, Vec<u32>>,
    slots: SlotRing<Vec<Option<Lineaged>>>,
    live: usize,
}

impl SharedStem {
    fn new(key_col: usize) -> Self {
        SharedStem {
            key_col,
            buckets: HashMap::new(),
            slots: SlotRing::default(),
            live: 0,
        }
    }

    /// A store whose slot ids start at `base` (to cross the `u32` wrap).
    #[cfg(test)]
    fn starting_at(key_col: usize, base: u32) -> Self {
        SharedStem {
            slots: SlotRing::starting_at((), base),
            ..Self::new(key_col)
        }
    }

    fn insert(&mut self, tuple: Tuple, lineage: BitSet) {
        let key = tuple.value(self.key_col).clone();
        let slot = self.slots.push(|c| c.push(Some((tuple, lineage))));
        self.buckets.entry(key).or_default().push(slot);
        self.live += 1;
    }

    fn probe<'a>(&'a self, key: &Value, out: &mut Vec<&'a Lineaged>) {
        if let Some(slots) = self.buckets.get(key) {
            out.extend(slots.iter().filter_map(|&s| self.get(s)));
        }
    }

    fn get(&self, slot: u32) -> Option<&Lineaged> {
        self.slots.get(slot).and_then(|(c, off)| c[off].as_ref())
    }

    fn evict_before_seq(&mut self, seq: i64) -> usize {
        let mut evicted = 0;
        while let Some((slot, key)) = self.slots.front().and_then(|(slot, c, off)| {
            let (t, _) = c[off].as_ref()?;
            (t.timestamp().seq() < seq).then(|| (slot, t.value(self.key_col).clone()))
        }) {
            self.slots.kill(slot);
            if let Some(slots) = self.buckets.get_mut(&key) {
                slots.retain(|&s| s != slot);
                if slots.is_empty() {
                    self.buckets.remove(&key);
                }
            }
            self.live -= 1;
            evicted += 1;
        }
        self.slots.reclaim_front();
        evicted
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Approximate heap footprint: stored tuples, lineage bitmaps, and the
    /// hash bookkeeping.
    fn approx_bytes(&self) -> usize {
        let mut b = self.slots.capacity() * std::mem::size_of::<Option<Lineaged>>()
            + self.buckets.capacity() * std::mem::size_of::<(Value, Vec<u32>)>();
        for (k, slots) in &self.buckets {
            b += k.approx_bytes() + slots.capacity() * std::mem::size_of::<u32>();
        }
        for (t, lineage) in self.slots.iter().filter_map(|(_, c, off)| c[off].as_ref()) {
            b += lineage.approx_bytes();
            b += (0..t.arity())
                .map(|i| t.value(i).approx_bytes())
                .sum::<usize>();
        }
        b
    }
}

struct SideState {
    qstem: QueryStem,
}

struct JoinState {
    left_key: usize,
    right_key: usize,
    left_store: SharedStem,
    right_store: SharedStem,
    joined_schema: SchemaRef,
    /// Sliding-window width (logical time) bounding SteM state.
    window_width: Option<i64>,
    latest_seq: i64,
    /// Queries whose footprint includes the join.
    join_queries: BitSet,
}

/// A multi-query (CACQ) eddy over one stream, optionally joined to a second.
pub struct SharedEddy {
    left: SideState,
    right: Option<SideState>,
    join: Option<JoinState>,
    /// Every registered query.
    all_queries: BitSet,
    /// Queries answered by the left stream alone.
    single_queries: BitSet,
    /// Reused per-push probe state for both sides' query SteMs.
    scratch: MatchScratch,
    stats: SharedEddyStats,
}

impl SharedEddy {
    /// A shared eddy over a single stream.
    pub fn single_stream(schema: SchemaRef) -> Self {
        SharedEddy {
            left: SideState {
                qstem: QueryStem::new(schema),
            },
            right: None,
            join: None,
            all_queries: BitSet::new(),
            single_queries: BitSet::new(),
            scratch: MatchScratch::new(),
            stats: SharedEddyStats::default(),
        }
    }

    /// A shared eddy over `left ⋈ right` on `left_key = right_key`
    /// (column names resolved per side). All join queries share this key —
    /// CACQ's shared-SteM assumption.
    pub fn joined(
        left: SchemaRef,
        left_key: &str,
        right: SchemaRef,
        right_key: &str,
        window_width: Option<i64>,
    ) -> Result<Self> {
        let lk = left.index_of(None, left_key)?;
        let rk = right.index_of(None, right_key)?;
        let joined_schema = Schema::concat(&left, &right).into_ref();
        Ok(SharedEddy {
            left: SideState {
                qstem: QueryStem::new(left),
            },
            right: Some(SideState {
                qstem: QueryStem::new(right),
            }),
            join: Some(JoinState {
                left_key: lk,
                right_key: rk,
                left_store: SharedStem::new(lk),
                right_store: SharedStem::new(rk),
                joined_schema,
                window_width,
                latest_seq: i64::MIN,
                join_queries: BitSet::new(),
            }),
            all_queries: BitSet::new(),
            single_queries: BitSet::new(),
            scratch: MatchScratch::new(),
            stats: SharedEddyStats::default(),
        })
    }

    /// Register a single-stream (left) selection query.
    pub fn add_select_query(&mut self, id: QueryId, pred: Option<&Expr>) -> Result<()> {
        if self.all_queries.contains(id) {
            return Err(TcqError::Capacity(format!("query {id} already registered")));
        }
        self.left.qstem.insert_query(id, pred)?;
        self.all_queries.insert(id);
        self.single_queries.insert(id);
        Ok(())
    }

    /// Register a join query with optional per-side selections. Requires a
    /// joined eddy.
    pub fn add_join_query(
        &mut self,
        id: QueryId,
        left_pred: Option<&Expr>,
        right_pred: Option<&Expr>,
    ) -> Result<()> {
        if self.all_queries.contains(id) {
            return Err(TcqError::Capacity(format!("query {id} already registered")));
        }
        let join = self
            .join
            .as_mut()
            .ok_or_else(|| TcqError::Executor("eddy has no shared join".into()))?;
        self.left.qstem.insert_query(id, left_pred)?;
        if let Some(right) = self.right.as_mut() {
            if let Err(e) = right.qstem.insert_query(id, right_pred) {
                // roll back left registration to stay consistent
                let _ = self.left.qstem.remove_query(id);
                return Err(e);
            }
        }
        join.join_queries.insert(id);
        self.all_queries.insert(id);
        Ok(())
    }

    /// Remove a query (either kind). Stored lineage bitmaps may still carry
    /// the id; emission intersects with live queries, so stale bits are
    /// harmless.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        if !self.all_queries.contains(id) {
            return Err(TcqError::Executor(format!("query {id} not registered")));
        }
        let _ = self.left.qstem.remove_query(id);
        if let Some(right) = self.right.as_mut() {
            let _ = right.qstem.remove_query(id);
        }
        if let Some(join) = self.join.as_mut() {
            join.join_queries.remove(id);
        }
        self.all_queries.remove(id);
        self.single_queries.remove(id);
        Ok(())
    }

    /// Number of standing queries.
    pub fn query_count(&self) -> usize {
        self.all_queries.len()
    }

    /// Push a tuple of the left stream. Returns `(tuple, query-set)` pairs:
    /// each output tuple annotated with the queries it answers.
    pub fn push_left(&mut self, tuple: Tuple) -> Result<Vec<(Tuple, BitSet)>> {
        self.stats.tuples_in += 1;
        self.left.qstem.matching_into(&tuple, &mut self.scratch)?;
        let alive = self.scratch.alive();
        let mut out = Vec::new();

        // Single-stream deliveries (clone lineage only on a hit).
        if alive.intersects(&self.single_queries) {
            let mut singles = alive.clone();
            singles.intersect_with(&self.single_queries);
            self.stats.outputs += 1;
            out.push((tuple.clone(), singles));
        }

        // Shared join work.
        if let Some(join) = self.join.as_mut() {
            let seq = tuple.timestamp().seq();
            join.latest_seq = join.latest_seq.max(seq);
            if let Some(w) = join.window_width {
                let cutoff = join.latest_seq - w + 1;
                join.left_store.evict_before_seq(cutoff);
                join.right_store.evict_before_seq(cutoff);
            }
            if alive.intersects(&join.join_queries) {
                let mut join_alive = alive.clone();
                join_alive.intersect_with(&join.join_queries);
                // Build, then probe (CACQ routes lineage-dead tuples nowhere).
                join.left_store.insert(tuple.clone(), join_alive.clone());
                self.stats.builds += 1;
                self.stats.probes += 1;
                let key = tuple.value(join.left_key);
                let mut matches = Vec::new();
                join.right_store.probe(key, &mut matches);
                for (rt, r_lineage) in matches {
                    let mut qset = join_alive.clone();
                    qset.intersect_with(r_lineage);
                    qset.intersect_with(&self.all_queries);
                    if !qset.is_empty() {
                        let joined = tuple.concat(rt, join.joined_schema.clone());
                        self.stats.join_matches += 1;
                        self.stats.outputs += 1;
                        out.push((joined, qset));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Push a tuple of the right stream (join mode only).
    pub fn push_right(&mut self, tuple: Tuple) -> Result<Vec<(Tuple, BitSet)>> {
        let right = self
            .right
            .as_mut()
            .ok_or_else(|| TcqError::Executor("eddy has no right stream".into()))?;
        let join = self.join.as_mut().expect("right stream implies join");
        self.stats.tuples_in += 1;
        right.qstem.matching_into(&tuple, &mut self.scratch)?;
        let alive = self.scratch.alive();
        let mut out = Vec::new();
        let seq = tuple.timestamp().seq();
        join.latest_seq = join.latest_seq.max(seq);
        if let Some(w) = join.window_width {
            let cutoff = join.latest_seq - w + 1;
            join.left_store.evict_before_seq(cutoff);
            join.right_store.evict_before_seq(cutoff);
        }
        if alive.intersects(&join.join_queries) {
            let mut join_alive = alive.clone();
            join_alive.intersect_with(&join.join_queries);
            join.right_store.insert(tuple.clone(), join_alive.clone());
            self.stats.builds += 1;
            self.stats.probes += 1;
            let key = tuple.value(join.right_key);
            let mut matches = Vec::new();
            join.left_store.probe(key, &mut matches);
            for (lt, l_lineage) in matches {
                let mut qset = join_alive.clone();
                qset.intersect_with(l_lineage);
                qset.intersect_with(&self.all_queries);
                if !qset.is_empty() {
                    // Keep column order (left, right) regardless of arrival.
                    let joined = lt.concat(&tuple, join.joined_schema.clone());
                    self.stats.join_matches += 1;
                    self.stats.outputs += 1;
                    out.push((joined, qset));
                }
            }
        }
        Ok(out)
    }

    /// Counters.
    pub fn stats(&self) -> SharedEddyStats {
        self.stats
    }

    /// Tuples retained in the shared SteMs.
    pub fn state_size(&self) -> usize {
        self.join
            .as_ref()
            .map_or(0, |j| j.left_store.len() + j.right_store.len())
    }

    /// Approximate heap footprint in bytes: both sides' query SteMs, the
    /// probe scratch, and the shared join SteMs (stored tuples + lineage).
    pub fn approx_bytes(&self) -> usize {
        let mut b = self.left.qstem.approx_bytes()
            + self.scratch.approx_bytes()
            + self.all_queries.approx_bytes()
            + self.single_queries.approx_bytes();
        if let Some(right) = &self.right {
            b += right.qstem.approx_bytes();
        }
        if let Some(join) = &self.join {
            b += join.left_store.approx_bytes()
                + join.right_store.approx_bytes()
                + join.join_queries.approx_bytes();
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{CmpOp, DataType, Field, Timestamp, TupleBuilder};

    fn stock_schema() -> SchemaRef {
        Schema::qualified(
            "s",
            vec![
                Field::new("timestamp", DataType::Int),
                Field::new("sym", DataType::Str),
                Field::new("price", DataType::Float),
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

    fn over(price: f64) -> Expr {
        Expr::col("price").cmp(CmpOp::Gt, Expr::lit(price))
    }

    #[test]
    fn single_stream_shared_selection() {
        let mut eddy = SharedEddy::single_stream(stock_schema());
        eddy.add_select_query(0, Some(&over(50.0))).unwrap();
        eddy.add_select_query(1, Some(&over(60.0))).unwrap();
        eddy.add_select_query(2, None).unwrap();

        let out = eddy.push_left(tick(1, "MSFT", 55.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.iter().collect::<Vec<_>>(), vec![0, 2]);

        let out = eddy.push_left(tick(2, "MSFT", 45.0)).unwrap();
        assert_eq!(out[0].1.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn add_remove_queries_mid_stream() {
        let mut eddy = SharedEddy::single_stream(stock_schema());
        eddy.add_select_query(0, Some(&over(50.0))).unwrap();
        assert_eq!(eddy.push_left(tick(1, "A", 60.0)).unwrap().len(), 1);
        eddy.add_select_query(1, Some(&over(10.0))).unwrap();
        let out = eddy.push_left(tick(2, "A", 60.0)).unwrap();
        assert_eq!(out[0].1.len(), 2);
        eddy.remove_query(0).unwrap();
        let out = eddy.push_left(tick(3, "A", 60.0)).unwrap();
        assert_eq!(out[0].1.iter().collect::<Vec<_>>(), vec![1]);
        assert!(eddy.remove_query(0).is_err());
        assert_eq!(eddy.query_count(), 1);
    }

    fn sided(q: &str) -> SchemaRef {
        Schema::qualified(
            q,
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ],
        )
        .into_ref()
    }

    fn row(schema: &SchemaRef, k: i64, v: i64, ts: i64) -> Tuple {
        TupleBuilder::new(schema.clone())
            .push(k)
            .push(v)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    #[test]
    fn shared_join_delivers_to_intersection_of_lineages() {
        let l = sided("L");
        let r = sided("R");
        let mut eddy = SharedEddy::joined(l.clone(), "k", r.clone(), "k", None).unwrap();
        // q0: no extra filters; q1: L.v > 5; q2: R.v > 5.
        eddy.add_join_query(0, None, None).unwrap();
        eddy.add_join_query(
            1,
            Some(&Expr::col("v").cmp(CmpOp::Gt, Expr::lit(5i64))),
            None,
        )
        .unwrap();
        eddy.add_join_query(
            2,
            None,
            Some(&Expr::col("v").cmp(CmpOp::Gt, Expr::lit(5i64))),
        )
        .unwrap();

        // L(k=1, v=10): passes q0, q1, q2 left side (q2 has no left filter).
        assert!(eddy.push_left(row(&l, 1, 10, 1)).unwrap().is_empty());
        // R(k=1, v=3): passes q0, q1 right side; fails q2's right filter.
        let out = eddy.push_right(row(&r, 1, 3, 2)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(out[0].0.arity(), 4);

        // L(k=1, v=2): fails q1's left filter.
        let out = eddy.push_left(row(&l, 1, 2, 3)).unwrap();
        // joins with R(k=1,v=3): q0 only (q1 dead on left, q2 dead on right)
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn shared_join_does_work_once() {
        let l = sided("L");
        let r = sided("R");
        let mut eddy = SharedEddy::joined(l.clone(), "k", r.clone(), "k", None).unwrap();
        for q in 0..32 {
            eddy.add_join_query(q, None, None).unwrap();
        }
        eddy.push_left(row(&l, 1, 0, 1)).unwrap();
        let out = eddy.push_right(row(&r, 1, 0, 2)).unwrap();
        // 32 queries, but exactly one build each side and one join match.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.len(), 32);
        let st = eddy.stats();
        assert_eq!(st.builds, 2);
        assert_eq!(st.join_matches, 1);
    }

    #[test]
    fn window_bounds_shared_state() {
        let l = sided("L");
        let r = sided("R");
        let mut eddy = SharedEddy::joined(l.clone(), "k", r.clone(), "k", Some(5)).unwrap();
        eddy.add_join_query(0, None, None).unwrap();
        for ts in 1..=20 {
            eddy.push_left(row(&l, ts, 0, ts)).unwrap();
        }
        assert!(
            eddy.state_size() <= 5,
            "state {} exceeds window",
            eddy.state_size()
        );
        // Old partner (k=3, ts=3) evicted -> no match.
        assert!(eddy.push_right(row(&r, 3, 0, 21)).unwrap().is_empty());
        // Recent partner (k=19, ts=19) still in window [17, 21] -> match.
        assert_eq!(eddy.push_right(row(&r, 19, 0, 21)).unwrap().len(), 1);
    }

    /// A shared join that runs for 64 windows holds one window of state:
    /// the footprint after the first window is the footprint forever.
    #[test]
    fn shared_join_footprint_is_flat_after_the_first_window() {
        const WIDTH: i64 = 4096;
        let l = sided("L");
        let r = sided("R");
        let mut eddy = SharedEddy::joined(l.clone(), "k", r.clone(), "k", Some(WIDTH)).unwrap();
        eddy.add_join_query(0, None, None).unwrap();
        let mut first_window = 0usize;
        for ts in 1..=64 * WIDTH {
            // Alternate sides; 256 recurring keys keep bucket shapes steady.
            if ts % 2 == 0 {
                eddy.push_left(row(&l, ts % 256, ts, ts)).unwrap();
            } else {
                eddy.push_right(row(&r, ts % 256, ts, ts)).unwrap();
            }
            if ts % WIDTH == 0 {
                assert!(eddy.state_size() <= WIDTH as usize);
                let bytes = eddy.approx_bytes();
                if first_window == 0 {
                    first_window = bytes;
                }
                assert!(
                    bytes <= first_window + first_window / 10,
                    "window {}: {bytes} B vs {first_window} B after window 1",
                    ts / WIDTH
                );
            }
        }
    }

    #[test]
    fn shared_stem_slot_ids_wrap_without_aliasing() {
        let l = sided("L");
        let mut stem = SharedStem::starting_at(0, u32::MAX - 100);
        let lineage = BitSet::from_iter([0usize]);
        for ts in 1..=400i64 {
            stem.insert(row(&l, ts % 7, ts, ts), lineage.clone());
            stem.evict_before_seq(ts - 49);
            assert_eq!(stem.len(), ts.min(50) as usize);
            assert_eq!(stem.slots.span(), stem.len(), "ts={ts}");
            let mut out = Vec::new();
            stem.probe(&Value::Int(ts % 7), &mut out);
            let got: Vec<i64> = out.iter().map(|(t, _)| t.timestamp().seq()).collect();
            let want: Vec<i64> = ((ts - 49).max(1)..=ts)
                .filter(|s| s % 7 == ts % 7)
                .collect();
            assert_eq!(got, want, "ts={ts}");
        }
    }

    #[test]
    fn lineage_dead_tuples_are_not_built() {
        let l = sided("L");
        let r = sided("R");
        let mut eddy = SharedEddy::joined(l.clone(), "k", r.clone(), "k", None).unwrap();
        eddy.add_join_query(
            0,
            Some(&Expr::col("v").cmp(CmpOp::Gt, Expr::lit(100i64))),
            None,
        )
        .unwrap();
        // Fails every query's left filters -> never stored.
        eddy.push_left(row(&l, 1, 5, 1)).unwrap();
        assert_eq!(eddy.state_size(), 0);
        assert_eq!(eddy.stats().builds, 0);
    }

    #[test]
    fn join_requires_join_mode() {
        let mut eddy = SharedEddy::single_stream(stock_schema());
        assert!(eddy.add_join_query(0, None, None).is_err());
        assert!(eddy.push_right(tick(1, "A", 1.0)).is_err());
    }
}
