//! The SteM as an eddy module: build tuples in, concatenated matches out.
//!
//! Paper Figure 2: "When an S tuple arrives, it is first sent as a build
//! tuple to SteM_S and then sent as a probe tuple to SteM_T. ST matches
//! produced from either SteM are routed to the output. This routing,
//! combined with hash indexes on the two SteMs, implements an adaptive
//! symmetric hash join."
//!
//! A [`StemOp`] wraps one SteM. It decides build-vs-probe per the paper's
//! definition: a tuple *t ∈ T* (same footprint as the stored side) is a
//! build tuple; a tuple *p ∉ T* is a probe tuple and yields the
//! concatenations `{p} ⋈ SteM_T`. Because join output schemas depend on the
//! probing tuple's schema, the op caches a per-schema probe plan.
//!
//! **The build filters.** A planner hands the op its source's own
//! predicate ([`StemOp::with_build_predicate`]); a build tuple that fails
//! it is not stored and leaves the eddy at the build, so a SteM holds only
//! rows its query can still join — and the query needs no separate
//! selection module for that source. Every build tuple, stored or not,
//! advances the window edge: the window is stream time, not stored time.

use std::collections::HashMap;
use std::sync::Arc;

use tcq_common::{
    CkptReader, CkptWriter, ColumnBatch, ColumnData, ColumnarScratch, Expr, Predicate, Result,
    Schema, SchemaRef, TcqError, Tuple, Value,
};
use tcq_stems::{IndexKind, SteM};

use crate::module::{ColumnarVerdict, EddyModule, Outputs, Routed};

/// Cached plan for probing with tuples of one schema.
struct ProbePlan {
    /// The probing schema itself. The cache is keyed by its address, and
    /// holding the `Arc` is what keeps that address from being reused by a
    /// schema of another shape while the plan is cached.
    schema: SchemaRef,
    /// Column in the probing tuple whose value keys the probe.
    key_col: usize,
    /// Schema of `probe ⋈ stored` outputs.
    joined: SchemaRef,
}

/// One State Module wrapped as an eddy module.
pub struct StemOp {
    name: String,
    stem: SteM,
    /// Qualifier identifying build tuples (e.g. the stream alias).
    build_qualifier: String,
    /// Candidate probe-key columns, tried in order against each probing
    /// schema. Multiple candidates let one SteM serve several probing
    /// sources in multiway joins (an RS intermediate can probe SteM_T via
    /// `R.k` or `S.k`; after the equi-join they are equal).
    probe_keys: Vec<(Option<String>, String)>,
    /// Probe plans keyed by schema identity (the address of a schema the
    /// entry keeps alive).
    plans: HashMap<usize, ProbePlan>,
    /// Optional sliding-window width in logical time; tuples older than
    /// (latest - width) are evicted on insert.
    window_width: Option<i64>,
    /// Newest build timestamp seen, stored or filtered out, or carried in
    /// by [`EddyModule::advance_to`].
    latest_seq: i64,
    /// The stored source's own predicate, bound to the stored schema:
    /// build tuples failing it are dropped, not stored.
    build_predicate: Option<Predicate>,
    /// Lane buffers for evaluating it over columnar builds.
    filter_scratch: ColumnarScratch,
    /// While recording: the stored row's logical time behind each probe
    /// output, in output order.
    match_seqs: Option<Vec<i64>>,
}

impl StemOp {
    /// Create a SteM module.
    ///
    /// * `build_qualifier` — tuples whose schema is qualified solely by this
    ///   name are stored (build); everything else probes.
    /// * `build_key` — indexed column of the stored schema.
    /// * `probe_key` — `(qualifier, column)` to read from probing tuples;
    ///   the qualifier defaults to searching unambiguously by name. For
    ///   multiway joins use [`StemOp::with_extra_probe_key`] to add
    ///   fallbacks.
    pub fn new(
        name: impl Into<String>,
        stored_schema: SchemaRef,
        build_qualifier: impl Into<String>,
        build_key: usize,
        probe_key: (Option<String>, String),
        index: IndexKind,
    ) -> Result<Self> {
        let name = name.into();
        let stem = SteM::new(name.clone(), stored_schema, build_key, index)?;
        Ok(StemOp {
            name,
            stem,
            build_qualifier: build_qualifier.into(),
            probe_keys: vec![probe_key],
            plans: HashMap::new(),
            window_width: None,
            latest_seq: i64::MIN,
            build_predicate: None,
            filter_scratch: ColumnarScratch::new(),
            match_seqs: None,
        })
    }

    /// Add a fallback probe-key spec, tried when earlier specs do not
    /// resolve against a probing tuple's schema.
    pub fn with_extra_probe_key(mut self, probe_key: (Option<String>, String)) -> Self {
        self.probe_keys.push(probe_key);
        self
    }

    /// Bound the SteM to a sliding window of `width` logical time units;
    /// state older than the newest build's timestamp minus `width` is
    /// evicted automatically.
    pub fn with_window_width(mut self, width: i64) -> Self {
        self.window_width = Some(width);
        self
    }

    /// Store only build tuples that satisfy `pred` (the stored source's
    /// own predicate; it must bind to the stored schema). A failing build
    /// tuple still advances the window, then leaves the eddy here.
    pub fn with_build_predicate(mut self, pred: &Expr) -> Result<Self> {
        self.set_build_predicate(Some(pred))?;
        Ok(self)
    }

    /// Track dirty key-hash groups for delta checkpoints (default on).
    /// A planner turns it off when no checkpoint will ever export this
    /// op's state — only a checkpoint drains the dirty set.
    pub fn with_dirty_tracking(mut self, enabled: bool) -> Self {
        self.stem = self.stem.with_dirty_tracking(enabled);
        self
    }

    /// Is a tuple of `schema` a build tuple for this SteM? True when the
    /// schema is qualified entirely by our build qualifier (i.e. a base
    /// tuple of the stored stream, not an intermediate join result).
    fn is_build_schema(&self, schema: &SchemaRef) -> bool {
        schema.len() == self.stem.schema().len()
            && (0..schema.len()).all(|i| {
                schema
                    .qualifier(i)
                    .eq_ignore_ascii_case(&self.build_qualifier)
            })
    }

    fn probe_plan(&mut self, schema: &SchemaRef) -> Result<&ProbePlan> {
        let key = Arc::as_ptr(schema) as usize;
        if !self.plans.contains_key(&key) {
            let mut resolved = None;
            let mut last_err = None;
            for (q, name) in &self.probe_keys {
                match schema.index_of(q.as_deref(), name) {
                    Ok(col) => {
                        resolved = Some(col);
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            let key_col = match resolved {
                Some(c) => c,
                None => {
                    return Err(
                        last_err.unwrap_or_else(|| TcqError::Analysis("no probe key spec".into()))
                    )
                }
            };
            let joined: SchemaRef = Arc::new(Schema::concat(schema, self.stem.schema()));
            let schema = Arc::clone(schema);
            self.plans.insert(
                key,
                ProbePlan {
                    schema,
                    key_col,
                    joined,
                },
            );
        }
        let plan = &self.plans[&key];
        debug_assert!(Arc::ptr_eq(&plan.schema, schema), "plan of another schema");
        Ok(plan)
    }

    /// Direct probe access (used by hybrid-join experiments to compare the
    /// SteM against the remote index on identical keys).
    pub fn probe(&mut self, key: &Value, out: &mut Vec<Tuple>) -> usize {
        self.stem.probe_eq(key, out)
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.stem.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.stem.is_empty()
    }

    /// Slots the underlying SteM holds, live or awaiting reclamation
    /// ([`SteM::slot_span`]) — the observable behind the bounded-state
    /// tests.
    pub fn slot_span(&self) -> usize {
        self.stem.slot_span()
    }

    /// Slot-store chunks the underlying SteM has ever allocated
    /// ([`SteM::chunks_allocated`]).
    pub fn chunks_allocated(&self) -> u64 {
        self.stem.chunks_allocated()
    }

    /// (builds, probes, matches) counters from the underlying SteM.
    pub fn counters(&self) -> (u64, u64, u64) {
        self.stem.counters()
    }

    /// Key-hash computations the underlying SteM has performed (memo hits
    /// are free) — the observable behind the hashed-exactly-once tests.
    pub fn hash_computes(&self) -> u64 {
        self.stem.hash_computes()
    }

    /// Drain all stored tuples (Flux state movement).
    pub fn drain_all(&mut self) -> Vec<Tuple> {
        self.stem.drain_all()
    }

    /// Re-insert tuples previously drained from a peer partition.
    pub fn absorb(&mut self, tuples: Vec<Tuple>) -> Result<()> {
        for t in tuples {
            self.stem.insert(t)?;
        }
        Ok(())
    }

    /// Build one tuple: slide the window to its timestamp and store it if
    /// it passes the build predicate. Returns whether it passed; a passing
    /// build tuple continues routing ("first sent as a build tuple to
    /// SteM_S and then sent as a probe tuple to SteM_T").
    fn build(&mut self, tuple: &Tuple) -> Result<bool> {
        self.latest_seq = self.latest_seq.max(tuple.timestamp().seq());
        let pass = match &self.build_predicate {
            Some(p) => p.eval_pred(tuple)?,
            None => true,
        };
        if pass {
            self.stem.insert(tuple.clone())?;
        }
        self.evict_window();
        Ok(pass)
    }

    /// Evict what the newest build timestamp has pushed out of the window.
    /// The window's oldest tick saturates at `i64::MIN`: a clock that is
    /// unset (`i64::MIN`) or within a width of it evicts nothing.
    fn evict_window(&mut self) {
        if let Some(w) = self.window_width {
            (self.stem).evict_before_seq(self.latest_seq.saturating_sub(w.saturating_sub(1)));
        }
    }

    /// Probe with `tuple`'s key column and concatenate each match onto it:
    /// one output row per match, its block collected straight from the
    /// probe row plus the stored cells. The tuple's memoized key hash
    /// (computed at most once in its lifetime, possibly upstream at the
    /// partitioner) feeds the hashed index directly; the empty and
    /// single-match cases use [`Outputs`]' inline representation.
    fn probe_concat(&mut self, tuple: &Tuple, key_col: usize, joined: &SchemaRef) -> Outputs {
        let mut outputs = Outputs::None;
        let hash = tuple.key_hash(key_col);
        let match_seqs = &mut self.match_seqs;
        self.stem
            .probe_eq_hashed_with(hash, tuple.value(key_col), |stored| {
                if let Some(seqs) = match_seqs {
                    seqs.push(stored.timestamp().seq());
                }
                let values = tuple.values().iter().cloned().chain(stored.values());
                let ts = tuple.timestamp().join_max(&stored.timestamp());
                outputs.push(Tuple::from_cells(joined.clone(), values, ts, None));
            });
        outputs
    }

    /// A columnar build over `batch` and its row mirror `rows`: every row
    /// advances the window; the rows passing the build predicate (all rows
    /// without one) are copied out of the batch's columns into the SteM,
    /// string cells shared with the mirror. With a predicate, `keep`
    /// receives its verdicts — from the kernel over the columns, or per
    /// row of the mirror when the kernel cannot run on them.
    fn build_columnar(
        &mut self,
        batch: &ColumnBatch,
        rows: &[Tuple],
        keep: &mut Vec<bool>,
    ) -> Result<ColumnarVerdict> {
        let filtered = match &self.build_predicate {
            None => false,
            Some(p) => {
                if !p.eval_columns(batch, &mut self.filter_scratch, keep) {
                    keep.clear();
                    for t in rows {
                        keep.push(p.eval_pred(t)?);
                    }
                }
                true
            }
        };
        for (row, tuple) in rows.iter().enumerate() {
            self.latest_seq = self.latest_seq.max(tuple.timestamp().seq());
            if !filtered || keep[row] {
                self.stem.insert_row(batch, row, tuple)?;
            }
        }
        self.evict_window();
        Ok(if filtered {
            ColumnarVerdict::Filtered
        } else {
            ColumnarVerdict::KeepAll
        })
    }
}

impl EddyModule for StemOp {
    fn name(&self) -> &str {
        &self.name
    }

    /// The one-tuple case of [`EddyModule::process_batch`].
    fn process(&mut self, tuple: &Tuple) -> Result<Routed> {
        let mut out = Vec::with_capacity(1);
        self.process_batch(std::slice::from_ref(tuple), &mut out)?;
        Ok(out.pop().expect("one routed per tuple"))
    }

    /// Row SteM visit. Tuples are handled strictly in batch order — each
    /// build inserts (and window-evicts) before the next tuple, so a probe
    /// later in the batch sees exactly what one-tuple calls would show it
    /// — but consecutive probes of one schema share a single plan lookup
    /// and one reusable matches buffer, and the probe key is borrowed
    /// rather than cloned.
    fn process_batch(&mut self, tuples: &[Tuple], out: &mut Vec<Routed>) -> Result<()> {
        out.reserve(tuples.len());
        let mut plan: Option<(usize, usize, SchemaRef)> = None;
        for tuple in tuples {
            if self.is_build_schema(tuple.schema()) {
                out.push(if self.build(tuple)? {
                    Routed::pass()
                } else {
                    Routed::drop()
                });
                continue;
            }
            let key = Arc::as_ptr(tuple.schema()) as usize;
            let (key_col, joined) = match &plan {
                Some((k, col, j)) if *k == key => (*col, j.clone()),
                _ => {
                    let p = self.probe_plan(tuple.schema())?;
                    let cached = (p.key_col, p.joined.clone());
                    plan = Some((key, cached.0, cached.1.clone()));
                    cached
                }
            };
            let outputs = self.probe_concat(tuple, key_col, &joined);
            out.push(Routed {
                keep: false,
                outputs,
            });
        }
        Ok(())
    }

    /// Columnar SteM visit. Builds run the build predicate over the
    /// batch's columns (per row of the mirror when the kernel cannot),
    /// copy the passing rows' cells into the SteM's column segments and
    /// answer `Filtered` (`KeepAll` without a predicate); they need the
    /// retained row mirror, whose string cells the SteM shares rather than
    /// rebuilding, and fall back without it. Probes feed
    /// the batch's memoized hash column straight into the hashed index and
    /// emit join concatenations as a new columnar batch — probe columns and
    /// stored columns flat-copied, in exactly the row path's
    /// (probe-first, stored-second, slot-order) sequence. Falls back when
    /// the batch carries no hash column for the plan's key, or when probe
    /// keys are strings (reconstructing an `Arc<str>` per key would
    /// allocate).
    fn process_columnar(
        &mut self,
        batch: &ColumnBatch,
        rows: Option<&[Tuple]>,
        keep: &mut Vec<bool>,
    ) -> Result<ColumnarVerdict> {
        if batch.is_empty() {
            return Ok(ColumnarVerdict::KeepAll);
        }
        if self.is_build_schema(batch.schema()) {
            return match rows {
                Some(rows) => self.build_columnar(batch, rows, keep),
                None => Ok(ColumnarVerdict::Fallback),
            };
        }
        let (key_col, joined) = {
            let plan = self.probe_plan(batch.schema())?;
            (plan.key_col, plan.joined.clone())
        };
        let hashes = match batch.key_hashes() {
            Some((col, hashes)) if col == key_col => hashes,
            _ => return Ok(ColumnarVerdict::Fallback),
        };
        let key_column = batch.column(key_col);
        if matches!(key_column.data(), ColumnData::Str { .. }) {
            return Ok(ColumnarVerdict::Fallback);
        }
        // Size the concat batch for the common one-match-per-probe case;
        // high-fanout joins grow it amortized from there.
        let mut out = ColumnBatch::with_capacity(joined, batch.len());
        let match_seqs = &mut self.match_seqs;
        for (row, &hash) in hashes.iter().enumerate() {
            let key = key_column.value(row);
            self.stem.probe_eq_hashed_with(hash, &key, |stored| {
                if let Some(seqs) = match_seqs.as_mut() {
                    seqs.push(stored.timestamp().seq());
                }
                out.push_joined(
                    batch,
                    row,
                    stored.columns(),
                    stored.row(),
                    stored.timestamp(),
                )
            });
        }
        Ok(ColumnarVerdict::Consumed(out))
    }

    /// Builds consume key hashes on insert; probes consume them through
    /// the hashed index — either way, prehashing the key column at the
    /// ingress edge makes every hash a memo hit here.
    fn key_column_hint(&mut self, schema: &SchemaRef) -> Option<usize> {
        if self.is_build_schema(schema) {
            Some(self.stem.key_col())
        } else {
            self.probe_plan(schema).ok().map(|p| p.key_col)
        }
    }

    fn advance_to(&mut self, seq: i64) {
        self.latest_seq = self.latest_seq.max(seq);
        self.evict_window();
    }

    fn set_build_predicate(&mut self, pred: Option<&Expr>) -> Result<()> {
        self.build_predicate = match pred {
            Some(p) => Some(Predicate::new(p, self.stem.schema())?),
            None => None,
        };
        Ok(())
    }

    fn record_match_seqs(&mut self, on: bool) {
        if !on {
            self.match_seqs = None;
        } else if self.match_seqs.is_none() {
            self.match_seqs = Some(Vec::new());
        }
    }

    fn drain_match_seqs(&mut self, out: &mut Vec<i64>) {
        if let Some(seqs) = &mut self.match_seqs {
            out.append(seqs);
        }
    }

    fn state_size(&self) -> usize {
        self.stem.len()
    }

    /// Heap bytes the underlying SteM holds, counted from its containers
    /// ([`SteM::approx_bytes`]); divide by [`StemOp::len`] for the cost of
    /// one window row.
    fn state_bytes(&self) -> usize {
        self.stem.approx_bytes()
    }

    /// Delta export: one fragment per dirty key-hash group, encoded as
    /// `[u32 count]` then that many checkpoint-codec tuples. The stored
    /// schema travels out of band (the restoring StemOp knows it).
    fn export_dirty_groups(&mut self, out: &mut Vec<(u64, Vec<u8>)>) -> Result<()> {
        let dirty: Vec<u64> = self.stem.dirty_groups().collect();
        let mut scratch = Vec::new();
        for h in dirty {
            scratch.clear();
            self.stem.export_group(h, &mut scratch);
            let mut w = CkptWriter::new();
            w.put_u32(scratch.len() as u32);
            for t in &scratch {
                w.put_tuple(t);
            }
            out.push((h, w.into_bytes()));
        }
        Ok(())
    }

    /// A restored row is stored only if the build predicate admits it, as
    /// a live build would be.
    fn import_group(&mut self, hash: u64, bytes: &[u8]) -> Result<()> {
        let mut r = CkptReader::new(bytes);
        let n = r.get_u32("group tuple count")?;
        let schema = self.stem.schema().clone();
        let mut tuples = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let t = r.get_tuple(&schema)?;
            // Window eviction is driven by latest_seq; restored builds
            // must advance it exactly as live builds would have.
            self.latest_seq = self.latest_seq.max(t.timestamp().seq());
            if self
                .build_predicate
                .as_ref()
                .map_or(Ok(true), |p| p.eval_pred(&t))?
            {
                tuples.push(t);
            }
        }
        self.stem.import_group(hash, tuples)
    }

    fn dirty_len(&self) -> usize {
        self.stem.dirty_len()
    }

    fn clear_dirty(&mut self) {
        self.stem.clear_dirty();
    }
}

/// Wire the two SteMs of a symmetric hash join between streams `left` and
/// `right` (paper Figure 2), equi-joined on `left.left_key = right.right_key`.
///
/// Returns `(stem_left, stem_right)`: `stem_left` stores left tuples and is
/// probed by right tuples, and vice versa.
pub fn symmetric_hash_join(
    left: &SchemaRef,
    left_qualifier: &str,
    left_key: &str,
    right: &SchemaRef,
    right_qualifier: &str,
    right_key: &str,
) -> Result<(StemOp, StemOp)> {
    let lk = left.index_of(Some(left_qualifier), left_key)?;
    let rk = right.index_of(Some(right_qualifier), right_key)?;
    let stem_l = StemOp::new(
        format!("SteM({left_qualifier})"),
        left.clone(),
        left_qualifier,
        lk,
        (Some(right_qualifier.to_string()), right_key.to_string()),
        IndexKind::Hash,
    )?;
    let stem_r = StemOp::new(
        format!("SteM({right_qualifier})"),
        right.clone(),
        right_qualifier,
        rk,
        (Some(left_qualifier.to_string()), left_key.to_string()),
        IndexKind::Hash,
    )?;
    Ok((stem_l, stem_r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Timestamp, TupleBuilder};

    fn schema(q: &str) -> SchemaRef {
        Schema::qualified(
            q,
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Str),
            ],
        )
        .into_ref()
    }

    fn t(schema: &SchemaRef, k: i64, v: &str, ts: i64) -> Tuple {
        TupleBuilder::new(schema.clone())
            .push(k)
            .push(v)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    #[test]
    fn symmetric_hash_join_produces_each_match_once() {
        let s = schema("S");
        let r = schema("T");
        let (mut stem_s, mut stem_t) = symmetric_hash_join(&s, "S", "k", &r, "T", "k").unwrap();

        // Simulate the eddy's serial routing: each tuple builds into its own
        // SteM then probes the other.
        let mut results = Vec::new();
        let route =
            |tuple: &Tuple, own: &mut StemOp, other: &mut StemOp, results: &mut Vec<Tuple>| {
                let r1 = own.process(tuple).unwrap();
                assert!(r1.keep, "build keeps the tuple");
                let r2 = other.process(tuple).unwrap();
                assert!(!r2.keep, "probe consumes the tuple");
                results.extend(r2.outputs);
            };

        route(&t(&s, 1, "s1", 1), &mut stem_s, &mut stem_t, &mut results);
        route(&t(&r, 1, "t1", 2), &mut stem_t, &mut stem_s, &mut results);
        route(&t(&r, 1, "t2", 3), &mut stem_t, &mut stem_s, &mut results);
        route(&t(&s, 2, "s2", 4), &mut stem_s, &mut stem_t, &mut results);
        route(&t(&r, 2, "t3", 5), &mut stem_t, &mut stem_s, &mut results);

        // Matches: (s1,t1), (s1,t2), (s2,t3) — exactly once each.
        assert_eq!(results.len(), 3);
        for j in &results {
            assert_eq!(j.arity(), 4);
            // join key equal on both sides
            assert_eq!(j.value(0), j.value(2));
        }
    }

    #[test]
    fn join_output_schema_is_disambiguated() {
        let s = schema("S");
        let r = schema("T");
        let (mut stem_s, _) = symmetric_hash_join(&s, "S", "k", &r, "T", "k").unwrap();
        stem_s.process(&t(&s, 1, "x", 1)).unwrap();
        let out = stem_s.process(&t(&r, 1, "y", 2)).unwrap();
        assert_eq!(out.outputs.len(), 1);
        let j = out.outputs.first().unwrap();
        // probe tuple first, stored tuple second
        assert_eq!(j.get(Some("T"), "v").unwrap(), &Value::str("y"));
        assert_eq!(j.get(Some("S"), "v").unwrap(), &Value::str("x"));
        // timestamp is max of parents
        assert_eq!(j.timestamp().seq(), 2);
    }

    #[test]
    fn window_width_bounds_state() {
        let s = schema("S");
        let mut op = StemOp::new(
            "SteM(S)",
            s.clone(),
            "S",
            0,
            (None, "k".to_string()),
            IndexKind::Hash,
        )
        .unwrap()
        .with_window_width(5);
        for ts in 1..=20 {
            op.process(&t(&s, ts % 3, "x", ts)).unwrap();
        }
        // only ts in [16, 20] retained
        assert_eq!(op.len(), 5);
        assert_eq!(op.state_size(), 5);
    }

    /// A clock at or near `i64::MIN` (an unset one, say) slides the window
    /// nowhere, and never overflows computing its oldest tick.
    #[test]
    fn a_clock_at_the_bottom_of_time_evicts_nothing() {
        let s = schema("S");
        let mut op = StemOp::new(
            "SteM(S)",
            s.clone(),
            "S",
            0,
            (None, "k".to_string()),
            IndexKind::Hash,
        )
        .unwrap()
        .with_window_width(5);
        op.advance_to(i64::MIN);
        assert_eq!(op.len(), 0);
        op.process(&t(&s, 1, "x", i64::MIN + 2)).unwrap();
        op.advance_to(i64::MIN + 3);
        assert_eq!(op.len(), 1, "tick MIN + 2 is inside [MIN, MIN + 3]");
        op.advance_to(i64::MIN + 7);
        assert_eq!(op.len(), 0, "and outside [MIN + 3, MIN + 7]");
    }

    /// State follows the window, not the stream: after 64 windows the op
    /// holds one window of tuples *and* one window of slots.
    #[test]
    fn long_run_holds_one_window_of_slots() {
        const WIDTH: i64 = 4096;
        const BATCH: i64 = 64;
        let s = schema("S");
        let r = schema("T");
        let (stem_s, _) = symmetric_hash_join(&s, "S", "k", &r, "T", "k").unwrap();
        let mut op = stem_s.with_window_width(WIDTH);
        let mut routed = Vec::new();
        for first in (1..=64 * WIDTH).step_by(BATCH as usize) {
            let batch: Vec<Tuple> = (first..first + BATCH)
                .map(|ts| t(&s, ts % 509, "b", ts))
                .collect();
            routed.clear();
            op.process_batch(&batch, &mut routed).unwrap();
            if (first + BATCH - 1) % WIDTH == 0 {
                assert!(op.state_size() <= WIDTH as usize);
                assert!(
                    op.slot_span() <= (WIDTH + BATCH) as usize,
                    "after {} rows the SteM holds {} slots",
                    first + BATCH - 1,
                    op.slot_span()
                );
            }
        }
        assert_eq!(op.counters().0, 64 * WIDTH as u64);
    }

    #[test]
    fn intermediate_tuples_probe_not_build() {
        // A joined (S,T) tuple arriving at SteM_S must probe, not build:
        // its schema is not solely S-qualified.
        let s = schema("S");
        let r = schema("T");
        let (mut stem_s, mut stem_t) = symmetric_hash_join(&s, "S", "k", &r, "T", "k").unwrap();
        stem_s.process(&t(&s, 1, "a", 1)).unwrap();
        let st: Vec<Tuple> = stem_s
            .process(&t(&r, 1, "b", 2))
            .unwrap()
            .outputs
            .into_iter()
            .collect();
        assert_eq!(st.len(), 1);
        // Route the joined tuple to SteM_T: T-side columns resolve, probe
        // happens (and finds nothing — T never built).
        let res = stem_t.process(&st[0]).unwrap();
        assert!(!res.keep);
        assert!(res.outputs.is_empty());
        assert_eq!(stem_t.len(), 0, "intermediate tuple must not build");
    }

    #[test]
    fn drain_and_absorb_roundtrip() {
        let s = schema("S");
        let mut a =
            StemOp::new("a", s.clone(), "S", 0, (None, "k".into()), IndexKind::Hash).unwrap();
        for ts in 1..=4 {
            a.process(&t(&s, ts, "x", ts)).unwrap();
        }
        let moved = a.drain_all();
        assert_eq!(moved.len(), 4);
        let mut b =
            StemOp::new("b", s.clone(), "S", 0, (None, "k".into()), IndexKind::Hash).unwrap();
        b.absorb(moved).unwrap();
        assert_eq!(b.len(), 4);
        let mut out = Vec::new();
        assert_eq!(b.probe(&Value::Int(3), &mut out), 1);
    }

    #[test]
    fn stem_batch_matches_per_tuple_results() {
        // Interleaved builds and probes, with a window: the batch path
        // must produce the same joins and the same retained state as
        // tuple-at-a-time processing in the same order.
        let s = schema("S");
        let r = schema("T");
        let mk = |mixed: bool| {
            let (stem_s, _) = symmetric_hash_join(&s, "S", "k", &r, "T", "k").unwrap();
            let stem_s = stem_s.with_window_width(6);
            let mut tuples = Vec::new();
            for ts in 1..=12i64 {
                tuples.push(t(&s, ts % 3, "build", ts));
                if mixed {
                    tuples.push(t(&r, ts % 3, "probe", ts));
                }
            }
            (stem_s, tuples)
        };
        for mixed in [false, true] {
            let (mut per, tuples) = mk(mixed);
            let mut expect: Vec<(bool, usize)> = Vec::new();
            for tu in &tuples {
                let routed = per.process(tu).unwrap();
                expect.push((routed.keep, routed.outputs.len()));
            }
            let (mut batched, tuples) = mk(mixed);
            let mut out = Vec::new();
            batched.process_batch(&tuples, &mut out).unwrap();
            let got: Vec<(bool, usize)> = out.iter().map(|r| (r.keep, r.outputs.len())).collect();
            assert_eq!(got, expect, "mixed={mixed}");
            assert_eq!(batched.len(), per.len(), "retained state diverged");
        }
    }

    #[test]
    fn probes_reuse_the_tuples_memoized_key_hash() {
        let s = schema("S");
        let r = schema("T");
        let mk = || symmetric_hash_join(&s, "S", "k", &r, "T", "k").unwrap().0;
        let mut op = mk();
        // A twin fed its own tuple instances is the row-path reference for
        // the columnar probes below: the hash memo rides on the tuple, so
        // sharing one would pre-warm the other op.
        let mut rows = mk();
        for ts in 1..=40i64 {
            op.process(&t(&s, ts % 5, "b", ts)).unwrap();
            rows.process(&t(&s, ts % 5, "b", ts)).unwrap();
            let p = t(&r, ts % 7, "p", ts);
            let joined = op.process(&p).unwrap().outputs.len();
            assert_eq!(joined, (1..=ts).filter(|b| b % 5 == ts % 7).count());
            // The cold probe hashed its key once, onto itself.
            assert!(p.cached_key_hash(0).is_some());
        }
        // Builds hash once each (40); probes memoize on the probe tuple
        // and add no SteM-side hash.
        assert_eq!(op.hash_computes(), 40);
        // A probe tuple hashed upstream (e.g. by the partitioner) costs
        // the SteM nothing.
        let p = t(&r, 1, "warm", 99);
        p.key_hash(0);
        let before = op.hash_computes();
        op.process(&p).unwrap();
        assert_eq!(op.hash_computes(), before);

        // Columnar probes ride the ingress-built hash column: converting
        // rows to a batch hashes each probe key once (memoizing it back
        // onto the source tuple), and the SteM then computes nothing.
        let probes: Vec<Tuple> = (1..=10i64).map(|ts| t(&r, ts % 7, "cp", 50 + ts)).collect();
        let key_col = op.key_column_hint(&r).unwrap();
        let expect: Vec<Tuple> = probes
            .iter()
            .flat_map(|p| rows.process(p).unwrap().outputs)
            .collect();
        let batch = tcq_common::ColumnBatch::from_tuples(r.clone(), &probes, Some(key_col));
        assert!(
            probes.iter().all(|p| p.cached_key_hash(key_col).is_some()),
            "ingress conversion memoizes the key hash on each source row"
        );
        let before = op.hash_computes();
        let out = match op.process_columnar(&batch, None, &mut Vec::new()).unwrap() {
            ColumnarVerdict::Consumed(b) => b,
            v => panic!("probe batch must be consumed, got {v:?}"),
        };
        assert_eq!(
            op.hash_computes(),
            before,
            "columnar probes compute no hashes"
        );
        let got = out.to_tuples();
        assert_eq!(got.len(), expect.len());
        for (g, w) in got.iter().zip(&expect) {
            assert_eq!(g.values(), w.values());
            assert_eq!(g.timestamp(), w.timestamp());
        }

        // Columnar builds: the same ingress hashing makes every SteM
        // insert a memo hit — one hash per tuple across the whole
        // row → columnar → build trip.
        let builds: Vec<Tuple> = (1..=5i64).map(|ts| t(&s, ts, "cb", 60 + ts)).collect();
        let bcol = op.key_column_hint(&s).unwrap();
        let bbatch = tcq_common::ColumnBatch::from_tuples(s.clone(), &builds, Some(bcol));
        let before = op.hash_computes();
        match op
            .process_columnar(&bbatch, Some(&builds), &mut Vec::new())
            .unwrap()
        {
            ColumnarVerdict::KeepAll => {}
            v => panic!("build batch passes through, got {v:?}"),
        }
        assert_eq!(
            op.hash_computes(),
            before,
            "ingress-hashed builds insert without rehashing"
        );
        // Without the row mirror, builds cannot store tuples: fall back.
        let lone = vec![t(&s, 9, "nb", 70)];
        let lb = tcq_common::ColumnBatch::from_tuples(s.clone(), &lone, Some(bcol));
        assert!(matches!(
            op.process_columnar(&lb, None, &mut Vec::new()).unwrap(),
            ColumnarVerdict::Fallback
        ));
    }

    #[test]
    fn checkpoint_export_import_restores_probe_behaviour() {
        let s = schema("S");
        let r = schema("T");
        let mk = || {
            let (stem_s, _) = symmetric_hash_join(&s, "S", "k", &r, "T", "k").unwrap();
            stem_s.with_window_width(8)
        };
        // The checkpoint is cut after five full window slides: the live
        // op's slot store has long since given back its first slots, so
        // its slot ids start far from the restored op's.
        let mut live = mk();
        for ts in 1..=40i64 {
            live.process(&t(&s, ts % 4, "b", ts)).unwrap();
        }
        assert_eq!((live.len(), live.slot_span()), (8, 8));
        // Export the delta, rebuild a fresh op from it.
        let mut delta = Vec::new();
        live.export_dirty_groups(&mut delta).unwrap();
        assert_eq!(delta.len(), 4, "four key groups touched");
        assert_eq!(live.dirty_len(), 4, "export does not clear dirt");
        live.clear_dirty();
        assert_eq!(live.dirty_len(), 0);

        let mut restored = mk();
        for (h, bytes) in &delta {
            restored.import_group(*h, bytes).unwrap();
        }
        assert_eq!(restored.len(), live.len());
        assert_eq!(restored.dirty_len(), 0, "restored state is clean");
        // Identical probe results after restore.
        let probe_both = |live: &mut StemOp, restored: &mut StemOp, ts: i64| {
            for k in 0..4i64 {
                let probe = t(&r, k, "p", ts);
                let a = live.process(&probe).unwrap();
                let b = restored.process(&probe).unwrap();
                assert_eq!(a.outputs, b.outputs, "probe k={k} at ts={ts} diverged");
            }
        };
        probe_both(&mut live, &mut restored, 41);

        // Incremental follow-up: touching one group dirties only it (ts 40
        // keeps the window edge still, so no eviction dirties others).
        live.process(&t(&s, 2, "b", 40)).unwrap();
        restored.process(&t(&s, 2, "b", 40)).unwrap();
        let mut second = Vec::new();
        live.export_dirty_groups(&mut second).unwrap();
        assert_eq!(second.len(), 1, "delta scales with churn");

        // latest_seq was restored, so the window keeps sliding and the two
        // ops evict in lockstep: same survivors, same probe output order,
        // and the restored op's group-ordered slots drain to one window.
        for ts in 41..=60i64 {
            live.process(&t(&s, ts % 4, "b", ts)).unwrap();
            restored.process(&t(&s, ts % 4, "b", ts)).unwrap();
            assert_eq!(restored.len(), live.len(), "ts={ts}");
            probe_both(&mut live, &mut restored, ts);
        }
        assert_eq!((restored.len(), restored.slot_span()), (8, 8));
        restored.process(&t(&s, 0, "late", 90)).unwrap();
        assert_eq!(restored.len(), 1, "old state evicted by restored window");
    }

    /// With a build predicate, failing build tuples are neither stored nor
    /// passed on, on the row and the columnar path alike, yet every one of
    /// them slides the window.
    #[test]
    fn build_predicate_drops_failing_rows_but_slides_the_window() {
        use tcq_common::CmpOp;
        let s = schema("S");
        let mk = || {
            StemOp::new("a", s.clone(), "S", 0, (None, "k".into()), IndexKind::Hash)
                .unwrap()
                .with_window_width(4)
                .with_build_predicate(&Expr::col("v").cmp(CmpOp::Eq, Expr::lit("keep")))
                .unwrap()
        };
        // ts 1..=6 pass, 7..=10 fail: the window [7, 10] holds no passing row.
        let rows: Vec<Tuple> = (1..=10i64)
            .map(|ts| t(&s, 1, if ts <= 6 { "keep" } else { "drop" }, ts))
            .collect();
        let mut per_row = mk();
        let kept: Vec<bool> = rows
            .iter()
            .map(|r| per_row.process(r).unwrap().keep)
            .collect();
        assert_eq!(kept, (1..=10).map(|ts| ts <= 6).collect::<Vec<_>>());

        let mut columnar = mk();
        let batch = ColumnBatch::from_tuples(s.clone(), &rows, Some(0));
        let mut keep = Vec::new();
        let verdict = columnar
            .process_columnar(&batch, Some(&rows), &mut keep)
            .unwrap();
        assert!(matches!(verdict, ColumnarVerdict::Filtered));
        assert_eq!(keep, kept);
        for op in [&mut per_row, &mut columnar] {
            assert_eq!(op.len(), 0, "the failing rows pushed every stored row out");
            assert_eq!(op.counters().0, 6, "only passing rows are built");
            let probe = t(&schema("T"), 1, "p", 11);
            assert!(op.process(&probe).unwrap().outputs.is_empty());
        }
    }

    /// A checkpoint of a column-segment SteM is byte-identical to encoding
    /// the tuples that were built, whichever path built them: cells keep
    /// their variant and bits (an `Int` or a string in a FLOAT column,
    /// NULLs, NaN payloads, `-0.0`), timestamps keep absent components,
    /// and groups keep insertion order.
    #[test]
    fn exported_groups_encode_exactly_the_built_tuples() {
        let s = Schema::qualified(
            "S",
            vec![
                Field::new("k", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("name", DataType::Str),
            ],
        )
        .into_ref();
        let nan = f64::from_bits(f64::NAN.to_bits() | 0xBEEF | 1 << 63);
        let odd = [
            Value::Int(3),
            Value::Null,
            Value::Float(nan),
            Value::Float(-0.0),
            Value::str("not a float"),
            Value::Float(2.5),
        ];
        let stamps = [
            Timestamp::logical(1),
            Timestamp::both(2, 77),
            Timestamp::physical(88),
            Timestamp::unknown(),
        ];
        let rows: Vec<Tuple> = (0..48usize)
            .map(|i| {
                let name = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("n{i}"))
                };
                let values = vec![Value::Int(i as i64 % 4), odd[i % odd.len()].clone(), name];
                Tuple::new(s.clone(), values, stamps[i % stamps.len()]).unwrap()
            })
            .collect();
        let mut op =
            StemOp::new("a", s.clone(), "S", 0, (None, "k".into()), IndexKind::Hash).unwrap();
        // Half the rows build one by one, half as one columnar batch.
        for t in &rows[..24] {
            op.process(t).unwrap();
        }
        let batch = ColumnBatch::from_tuples(s.clone(), &rows[24..], Some(0));
        let verdict = op
            .process_columnar(&batch, Some(&rows[24..]), &mut Vec::new())
            .unwrap();
        assert!(matches!(verdict, ColumnarVerdict::KeepAll));

        let mut got = Vec::new();
        op.export_dirty_groups(&mut got).unwrap();
        let mut want: Vec<(u64, Vec<u8>)> = (0..4i64)
            .map(|k| {
                let group: Vec<&Tuple> = rows
                    .iter()
                    .filter(|t| t.value(0) == &Value::Int(k))
                    .collect();
                let mut w = CkptWriter::new();
                w.put_u32(group.len() as u32);
                group.iter().for_each(|t| w.put_tuple(t));
                (tcq_common::hash_value(&Value::Int(k)), w.into_bytes())
            })
            .collect();
        want.sort_by_key(|(h, _)| *h);
        assert_eq!(got, want);
    }

    /// Probing schemas come and go (every query that joins against this
    /// SteM brings its own); a new one allocated where a dropped one lived
    /// must get its own plan, not the dead schema's key column and joined
    /// schema.
    #[test]
    fn probe_plan_is_not_shared_with_a_schema_that_reuses_a_freed_address() {
        let s = schema("S");
        let mut op =
            StemOp::new("a", s.clone(), "S", 0, (None, "k".into()), IndexKind::Hash).unwrap();
        op.process(&t(&s, 1, "stored", 1)).unwrap();
        for round in 0..64 {
            // Two shapes with the key in different columns, each schema
            // dropped before the next is allocated.
            let wide = round % 2 == 1;
            let mut fields = vec![Field::new("k", DataType::Int)];
            if wide {
                fields.insert(0, Field::new("pad", DataType::Str));
                fields.insert(0, Field::new("pad2", DataType::Str));
            }
            let probing = Schema::qualified("T", fields).into_ref();
            let mut b = TupleBuilder::new(probing);
            if wide {
                b = b.push("x").push("y");
            }
            let probe = b.push(1i64).at(Timestamp::logical(2)).build().unwrap();
            let routed = op.process(&probe).unwrap();
            assert_eq!(routed.outputs.len(), 1, "round {round}");
            let joined = routed.outputs.first().unwrap();
            assert_eq!(joined.schema().len(), probe.arity() + 2, "round {round}");
            assert_eq!(joined.get(Some("T"), "k").unwrap(), &Value::Int(1));
        }
    }

    /// Bytes per window row, counted from the SteM's containers: the
    /// figure `peak_rss_mb` moves with, without the process around it. A
    /// 3-`Int` row is 24 B of cells in its column segment, 16 B of
    /// timestamp and 8 B of key hash; the chunks at both ragged ends, the
    /// spare and the hash buckets' slot ids bring it to about 56 B. The
    /// layout this replaced — a shared value array (88 B) behind a 56 B
    /// row handle in each slot — read 153 B/row under the same accounting.
    #[test]
    fn a_window_row_costs_at_most_64_bytes_and_a_warm_window_allocates_no_chunks() {
        const WIDTH: i64 = 65_537;
        let s = Schema::qualified(
            "S",
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
                Field::new("tag", DataType::Int),
            ],
        )
        .into_ref();
        let mut op = StemOp::new("a", s.clone(), "S", 0, (None, "k".into()), IndexKind::Hash)
            .unwrap()
            .with_window_width(WIDTH)
            .with_dirty_tracking(false);
        let mut warm = None;
        for ts in 1..=10 * WIDTH {
            let row = TupleBuilder::new(s.clone())
                .push(ts % 1024)
                .push(ts)
                .push(7i64)
                .at(Timestamp::logical(ts))
                .build()
                .unwrap();
            op.process(&row).unwrap();
            if ts % WIDTH == 0 {
                let window = ts / WIDTH;
                assert_eq!(op.len(), WIDTH as usize);
                let (bytes, chunks) = (op.state_bytes(), op.chunks_allocated());
                assert!(
                    bytes <= 64 * op.len(),
                    "window {window}: {} B per row",
                    bytes / op.len()
                );
                if window >= 2 {
                    let (warm_bytes, warm_chunks) = *warm.get_or_insert((bytes, chunks));
                    assert_eq!(chunks, warm_chunks, "window {window} allocated a chunk");
                    assert_eq!(bytes, warm_bytes, "window {window} changed the footprint");
                }
            }
        }
    }

    #[test]
    fn probe_key_resolution_failure_is_an_error() {
        let s = schema("S");
        let other = Schema::qualified("Z", vec![Field::new("z", DataType::Int)]).into_ref();
        let mut op = StemOp::new("a", s, "S", 0, (None, "k".into()), IndexKind::Hash).unwrap();
        let zt = TupleBuilder::new(other).push(1i64).build().unwrap();
        assert!(op.process(&zt).is_err());
    }
}
