//! An interval index over one attribute: stab with a value, get every
//! registered interval that contains it.
//!
//! CACQ's grouped filter (§3.1) indexes *one-sided* factors, so a query
//! `a < x AND x < b` costs two factors that are each satisfied by about
//! half of a population of narrow ranges. Here the query registers one
//! [`Interval`], and a stab touches O(log n + matches) entries.
//!
//! The compacted run is sorted by lower bound (ties by id), with a parallel
//! `max_hi` array that turns it into an implicit balanced tree: the node of
//! a sub-run `[l, r)` is its middle entry, and `max_hi[mid]` is the greatest
//! upper bound anywhere in `[l, r)`. A stab skips every subtree whose
//! `max_hi` is below the probe, and every right subtree of an entry whose
//! lower bound is already above it.
//!
//! Churn is epoch-based: inserts wait in a sorted `pending` buffer that
//! probes scan linearly, removals tombstone their run *position* (so a
//! recycled id can never be masked by its predecessor's tombstone, and the
//! bitmap is sized by the run, not by the ids ever issued), and the run and
//! `max_hi` are rebuilt only when one of the two thresholds below trips —
//! amortized O(1) run work per registration, no O(n) `Vec::insert`/`retain`
//! on the registration path.

use std::cmp::Ordering;

use tcq_common::{BitSet, CmpOp, Value};

/// Pending (not yet merged) inserts that trigger an epoch rebuild. Probes
/// scan the pending buffer linearly, so this also bounds mid-epoch probe
/// overhead.
pub(crate) const REBUILD_PENDING: usize = 256;

/// Compact when a quarter of the run is tombstones (slack so tiny runs
/// don't thrash).
fn compaction_due(dead: usize, entries: usize) -> bool {
    dead * 4 > entries + 64
}

/// Counts of mid-epoch state, exposed for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Entries waiting in the sorted pending buffers.
    pub pending: usize,
    /// Removed entries still tombstoned in the compacted runs.
    pub tombstones: usize,
    /// Entries in the compacted runs (live + tombstoned).
    pub entries: usize,
}

/// `lo (< | <=) x (< | <=) hi` under [`Value::total_cmp`]; a `None` bound is
/// unbounded. `lo > hi` is a legal, empty interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Interval {
    pub(crate) lo: Option<Value>,
    pub(crate) lo_strict: bool,
    pub(crate) hi: Option<Value>,
    pub(crate) hi_strict: bool,
}

impl Interval {
    /// Intersect with the range factor `x <op> constant`: a repeated bound
    /// keeps the tighter one, and at equal constants strict beats inclusive.
    pub(crate) fn tighten(&mut self, op: CmpOp, constant: &Value) {
        let strict = matches!(op, CmpOp::Gt | CmpOp::Lt);
        let (bound, bound_strict, tighter) = match op {
            CmpOp::Gt | CmpOp::Ge => (&mut self.lo, &mut self.lo_strict, Ordering::Greater),
            CmpOp::Lt | CmpOp::Le => (&mut self.hi, &mut self.hi_strict, Ordering::Less),
            CmpOp::Eq | CmpOp::Ne => unreachable!("only range factors bound an interval"),
        };
        let ord = match bound.as_ref() {
            None => tighter,
            Some(current) => constant.total_cmp(current),
        };
        if ord == tighter || (ord.is_eq() && strict) {
            *bound = Some(constant.clone());
            *bound_strict = strict;
        }
    }

    /// Containment, given how `lo` compares with `v` (a stab has already
    /// needed that to steer).
    fn contains_given(&self, lo_ord: Ordering, v: &Value) -> bool {
        let lo_admits = lo_ord.is_lt() || (lo_ord.is_eq() && !self.lo_strict);
        lo_admits
            && match &self.hi {
                None => true,
                Some(hi) => match v.total_cmp(hi) {
                    Ordering::Less => true,
                    Ordering::Equal => !self.hi_strict,
                    Ordering::Greater => false,
                },
            }
    }

    #[cfg(test)]
    fn contains(&self, v: &Value) -> bool {
        self.contains_given(lo_cmp_value(&self.lo, v), v)
    }
}

/// A lower bound against a probe value; unbounded is below everything.
fn lo_cmp_value(lo: &Option<Value>, v: &Value) -> Ordering {
    lo.as_ref().map_or(Ordering::Less, |lo| lo.total_cmp(v))
}

/// Two lower bounds; unbounded sorts first.
fn lo_cmp(a: &Option<Value>, b: &Option<Value>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(a), Some(b)) => a.total_cmp(b),
    }
}

/// Two upper bounds; unbounded is the greatest.
fn hi_cmp(a: &Option<Value>, b: &Option<Value>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Greater,
        (Some(_), None) => Ordering::Less,
        (Some(a), Some(b)) => a.total_cmp(b),
    }
}

#[derive(Debug)]
struct Entry {
    iv: Interval,
    id: usize,
}

impl Entry {
    /// The sort key of both runs: lower bound, then id.
    fn key_cmp(&self, lo: &Option<Value>, id: usize) -> Ordering {
        lo_cmp(&self.iv.lo, lo).then(self.id.cmp(&id))
    }
}

/// The intervals registered on one attribute, one per owning id.
#[derive(Debug, Default)]
pub(crate) struct IntervalIndex {
    /// Sorted by `(lo, id)`; may contain tombstoned positions.
    run: Vec<Entry>,
    /// `max_hi[mid]` = greatest `hi` in the sub-run whose middle is `mid`.
    max_hi: Vec<Option<Value>>,
    /// Sorted by `(lo, id)`; merged into `run` at rebuild.
    pending: Vec<Entry>,
    /// Tombstoned positions of `run`.
    dead: BitSet,
    dead_count: usize,
}

impl IntervalIndex {
    /// Register `iv` for `id`. The caller keeps ids unique among live
    /// entries.
    pub(crate) fn insert(&mut self, id: usize, iv: Interval) {
        let pos = self
            .pending
            .partition_point(|e| e.key_cmp(&iv.lo, id).is_lt());
        self.pending.insert(pos, Entry { iv, id });
        if self.pending.len() >= REBUILD_PENDING {
            self.rebuild();
        }
    }

    /// Remove the interval `id` registered with lower bound `lo`. Pending
    /// entries are dropped eagerly (the buffer is small); run entries are
    /// tombstoned and swept out by the next rebuild.
    pub(crate) fn remove(&mut self, id: usize, lo: &Option<Value>) {
        if let Ok(i) = self.pending.binary_search_by(|e| e.key_cmp(lo, id)) {
            self.pending.remove(i);
            return;
        }
        let live = |i: &usize| !self.dead.contains(*i);
        let found = self.run.binary_search_by(|e| e.key_cmp(lo, id)).ok();
        let i = match found.filter(live) {
            Some(i) => i,
            // `total_cmp` compares Int with Float as f64, which is not
            // transitive past 2^53: runs holding such constants can
            // misdirect a binary search, so look before giving up.
            None => {
                if let Some(i) = self.pending.iter().position(|e| e.id == id) {
                    self.pending.remove(i);
                    return;
                }
                let by_id = (0..self.run.len()).find(|i| self.run[*i].id == id && live(i));
                match by_id {
                    Some(i) => i,
                    None => return,
                }
            }
        };
        self.dead.insert(i);
        self.dead_count += 1;
        if compaction_due(self.dead_count, self.run.len()) {
            self.rebuild();
        }
    }

    /// Live intervals.
    pub(crate) fn len(&self) -> usize {
        self.run.len() - self.dead_count + self.pending.len()
    }

    pub(crate) fn epoch_stats(&self) -> EpochStats {
        EpochStats {
            pending: self.pending.len(),
            tombstones: self.dead_count,
            entries: self.run.len(),
        }
    }

    /// Merge pending inserts, drop tombstones, recompute `max_hi`.
    fn rebuild(&mut self) {
        let mut merged = Vec::with_capacity(self.len());
        {
            let dead = &self.dead;
            let mut old = std::mem::take(&mut self.run)
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !dead.contains(*i))
                .map(|(_, e)| e)
                .peekable();
            let mut new = self.pending.drain(..).peekable();
            loop {
                let take_old = match (old.peek(), new.peek()) {
                    (Some(a), Some(b)) => a.key_cmp(&b.iv.lo, b.id).is_le(),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                merged.extend(if take_old { old.next() } else { new.next() });
            }
        }
        self.run = merged;
        self.dead.clear();
        self.dead_count = 0;
        self.max_hi.clear();
        self.max_hi.resize(self.run.len(), None);
        fill_max_hi(&self.run, &mut self.max_hi, 0, self.run.len());
    }

    /// Call `hit(id)` for every live interval containing `v`, in no
    /// particular order; returns the number of index entries examined (tree
    /// nodes visited + pending entries scanned). Allocates nothing. `v` must
    /// not be NULL (a NULL attribute satisfies no factor).
    pub(crate) fn stab(&self, v: &Value, mut hit: impl FnMut(usize)) -> usize {
        let mut examined = 0;
        // Depth-first over the implicit tree. Each pop pushes at most two
        // sub-runs, both strictly smaller, so the stack holds at most one
        // entry per level plus one: 64 covers any `usize` run length.
        let mut stack = [(0usize, 0usize); 64];
        let mut top = 0;
        if !self.run.is_empty() {
            stack[0] = (0, self.run.len());
            top = 1;
        }
        while top > 0 {
            top -= 1;
            let (l, r) = stack[top];
            let mid = l + (r - l) / 2;
            examined += 1;
            if let Some(max_hi) = &self.max_hi[mid] {
                if max_hi.total_cmp(v).is_lt() {
                    continue; // every interval in [l, r) ends below v
                }
            }
            let e = &self.run[mid];
            let lo_ord = lo_cmp_value(&e.iv.lo, v);
            // Past an entry that starts above v, so does everything right
            // of it.
            if lo_ord.is_le() {
                if e.iv.contains_given(lo_ord, v) && !self.dead.contains(mid) {
                    hit(e.id);
                }
                if mid + 1 < r {
                    stack[top] = (mid + 1, r);
                    top += 1;
                }
            }
            if l < mid {
                stack[top] = (l, mid);
                top += 1;
            }
        }
        for e in &self.pending {
            let lo_ord = lo_cmp_value(&e.iv.lo, v);
            if lo_ord.is_gt() {
                break;
            }
            examined += 1;
            if e.iv.contains_given(lo_ord, v) {
                hit(e.id);
            }
        }
        examined
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        let str_heap = |v: &Option<Value>| match v {
            Some(Value::Str(s)) => s.len(),
            _ => 0,
        };
        let heap: usize = (self.run.iter().chain(&self.pending))
            .map(|e| str_heap(&e.iv.lo) + str_heap(&e.iv.hi))
            .chain(self.max_hi.iter().map(str_heap))
            .sum();
        (self.run.capacity() + self.pending.capacity()) * std::mem::size_of::<Entry>()
            + self.max_hi.capacity() * std::mem::size_of::<Option<Value>>()
            + self.dead.approx_bytes()
            + heap
    }
}

/// Fill `max_hi` for the subtree over `run[l..r)`; returns its root.
fn fill_max_hi(run: &[Entry], max_hi: &mut [Option<Value>], l: usize, r: usize) -> Option<usize> {
    if l >= r {
        return None;
    }
    let mid = l + (r - l) / 2;
    let mut best = run[mid].iv.hi.clone();
    for child in [
        fill_max_hi(run, max_hi, l, mid),
        fill_max_hi(run, max_hi, mid + 1, r),
    ]
    .into_iter()
    .flatten()
    {
        if hi_cmp(&max_hi[child], &best).is_gt() {
            best = max_hi[child].clone();
        }
    }
    max_hi[mid] = best;
    Some(mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: Option<i64>, lo_strict: bool, hi: Option<i64>, hi_strict: bool) -> Interval {
        Interval {
            lo: lo.map(Value::Int),
            lo_strict,
            hi: hi.map(Value::Int),
            hi_strict,
        }
    }

    fn stabbed(index: &IntervalIndex, v: &Value) -> Vec<usize> {
        let mut got = Vec::new();
        index.stab(v, |id| got.push(id));
        got.sort_unstable();
        got
    }

    #[test]
    fn tighten_keeps_the_tightest_bound_and_strict_wins_ties() {
        let mut i = Interval::default();
        i.tighten(CmpOp::Gt, &Value::Int(3));
        i.tighten(CmpOp::Ge, &Value::Int(7));
        i.tighten(CmpOp::Gt, &Value::Int(5));
        assert_eq!((i.lo.clone(), i.lo_strict), (Some(Value::Int(7)), false));
        i.tighten(CmpOp::Gt, &Value::Float(7.0));
        assert!(i.lo_strict, "x > 7 is tighter than x >= 7");
        i.tighten(CmpOp::Ge, &Value::Int(7));
        assert!(i.lo_strict, "a later inclusive bound must not loosen it");
        i.tighten(CmpOp::Le, &Value::Int(20));
        i.tighten(CmpOp::Lt, &Value::Int(30));
        i.tighten(CmpOp::Lt, &Value::Int(20));
        assert_eq!((i.hi.clone(), i.hi_strict), (Some(Value::Int(20)), true));
        assert!(i.contains(&Value::Int(8)) && i.contains(&Value::Float(19.5)));
        assert!(!i.contains(&Value::Int(7)) && !i.contains(&Value::Int(20)));
    }

    #[test]
    fn stab_honours_strictness_unbounded_ends_and_empty_intervals() {
        let mut index = IntervalIndex::default();
        index.insert(0, iv(Some(10), true, Some(20), true)); // (10, 20)
        index.insert(1, iv(Some(10), false, Some(20), false)); // [10, 20]
        index.insert(2, iv(None, false, Some(10), false)); // <= 10
        index.insert(3, iv(Some(20), true, None, false)); // > 20
        index.insert(4, iv(Some(9), true, Some(3), true)); // empty
        index.insert(5, iv(Some(15), false, Some(15), false)); // point
        index.insert(6, iv(None, false, None, false)); // everything
        for rebuilt in [false, true] {
            if rebuilt {
                index.rebuild();
                assert_eq!(index.epoch_stats().pending, 0);
            }
            assert_eq!(stabbed(&index, &Value::Int(10)), vec![1, 2, 6]);
            assert_eq!(stabbed(&index, &Value::Int(15)), vec![0, 1, 5, 6]);
            assert_eq!(stabbed(&index, &Value::Int(20)), vec![1, 6]);
            assert_eq!(stabbed(&index, &Value::Int(21)), vec![3, 6]);
            assert_eq!(stabbed(&index, &Value::Int(5)), vec![2, 6]);
        }
    }

    /// Random churn against a naive list of live intervals: inserts (with
    /// recycled ids), removals and stabs interleaved, so stabs land while
    /// entries wait in `pending` and tombstones sit in the run.
    #[test]
    fn agrees_with_a_naive_model_under_churn() {
        let mut rng = tcq_common::rng::seeded(0x1D_EA5);
        let mut index = IntervalIndex::default();
        let mut model: Vec<Option<Interval>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut live: Vec<usize> = Vec::new();
        let (mut mid_epoch, mut rebuilds, mut last_entries) = (0usize, 0usize, 0usize);
        for step in 0..30_000 {
            let roll = rng.gen_range(0..100u32);
            if roll < 45 || live.is_empty() {
                let bound = |rng: &mut tcq_common::rng::TcqRng| match rng.gen_range(0..8u32) {
                    0 => None,
                    1 => Some(Value::Float(rng.gen_range(0..100i64) as f64 + 0.5)),
                    _ => Some(Value::Int(rng.gen_range(0..100i64))),
                };
                let lo = bound(&mut rng);
                // Mostly narrow, sometimes inverted (empty) or unbounded.
                let hi = match (&lo, rng.gen_range(0..10u32)) {
                    (Some(lo), 0..=6) => {
                        Some(Value::Int(lo.as_int().unwrap() + rng.gen_range(-2..12i64)))
                    }
                    _ => bound(&mut rng),
                };
                let interval = Interval {
                    lo,
                    lo_strict: rng.gen_range(0..2u32) == 0,
                    hi,
                    hi_strict: rng.gen_range(0..2u32) == 0,
                };
                let id = free.pop().unwrap_or_else(|| {
                    model.push(None);
                    model.len() - 1
                });
                index.insert(id, interval.clone());
                model[id] = Some(interval);
                live.push(id);
            } else if roll < 70 {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                let interval = model[id].take().unwrap();
                index.remove(id, &interval.lo);
                free.push(id);
            } else {
                let v = match rng.gen_range(0..4u32) {
                    0 => Value::Float(rng.gen_range(-2..104i64) as f64 + 0.5),
                    _ => Value::Int(rng.gen_range(-2..104i64)),
                };
                let stats = index.epoch_stats();
                if stats.pending > 0 && stats.tombstones > 0 {
                    mid_epoch += 1;
                }
                let want: Vec<usize> = (0..model.len())
                    .filter(|&id| model[id].as_ref().is_some_and(|i| i.contains(&v)))
                    .collect();
                assert_eq!(stabbed(&index, &v), want, "step {step}, {v:?}, {stats:?}");
            }
            assert_eq!(index.len(), live.len(), "length drift at step {step}");
            let entries = index.epoch_stats().entries;
            rebuilds += (entries != last_entries) as usize;
            last_entries = entries;
        }
        assert!(mid_epoch > 1_000, "only {mid_epoch} stabs landed mid-epoch");
        assert!(rebuilds > 10, "only {rebuilds} rebuilds");
    }

    #[test]
    fn tombstones_are_bounded_by_the_shared_policy() {
        let mut index = IntervalIndex::default();
        let n = 4 * REBUILD_PENDING;
        for id in 0..n {
            index.insert(id, iv(Some(id as i64), true, Some(id as i64 + 3), true));
        }
        for id in (0..n).step_by(2) {
            index.remove(id, &Some(Value::Int(id as i64)));
            let s = index.epoch_stats();
            assert!(!compaction_due(s.tombstones, s.entries), "{s:?}");
        }
        assert_eq!(index.len(), n / 2);
        assert_eq!(stabbed(&index, &Value::Int(11)), vec![9]);
    }

    #[test]
    fn removal_survives_constants_total_cmp_orders_inconsistently() {
        // 2^53 and 2^53 + 1 differ as Ints but both equal Float(2^53), so
        // (lo, id) keys over them can form a cycle no sort order satisfies.
        let big = 1i64 << 53;
        let los = [
            (7, Value::Int(big)),
            (3, Value::Float(big as f64)),
            (1, Value::Int(big + 1)),
        ];
        let mut index = IntervalIndex::default();
        for round in 0..REBUILD_PENDING {
            for (id, lo) in &los {
                let interval = Interval {
                    lo: Some(lo.clone()),
                    ..Interval::default()
                };
                index.insert(id + 10 * round, interval);
            }
        }
        assert!(index.epoch_stats().entries > 0, "must reach the run");
        for round in 0..REBUILD_PENDING {
            for (id, lo) in &los {
                index.remove(id + 10 * round, &Some(lo.clone()));
            }
        }
        assert_eq!(index.len(), 0);
        assert_eq!(stabbed(&index, &Value::Float(1e17)), Vec::<usize>::new());
    }
}
