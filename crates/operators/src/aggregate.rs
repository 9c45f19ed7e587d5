//! Windowed aggregation.
//!
//! §4.1.2 of the paper singles aggregation out as the operator whose memory
//! behaviour depends on window type:
//!
//! > "Consider the execution of a MAX aggregate over a stream. For a
//! > landmark window, it is possible to compute the answer iteratively by
//! > simply comparing the current maximum to the newest element as the
//! > window expands. On the other hand, for a sliding window, computing the
//! > maximum requires the maintenance of the entire window."
//!
//! [`AggState`] is one aggregate's partial state: rows fold into it one at a
//! time, and two partials over disjoint rows [`AggState::merge`] into the
//! partial over both. That is all a window needs. The server keeps one
//! partial per (pane, group) and answers each window by merging the panes
//! it covers, so a landmark MAX is computed iteratively in one partial per
//! group, and a sliding MAX over single-tick panes holds one partial per
//! tick of the window (experiment E8 measures both on the server).
//! [`GroupByAggregator`] folds one set of rows per group.

use std::cmp::Ordering;
use std::collections::HashMap;

use tcq_common::{CkptReader, CkptWriter, Result, Tuple, Value};

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT of non-NULL inputs.
    Count,
    /// SUM (numeric).
    Sum,
    /// AVG (numeric).
    Avg,
    /// MIN.
    Min,
    /// MAX.
    Max,
}

impl AggFunc {
    /// Parse from a (case-insensitive) SQL name.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// One aggregate to compute: function over a column, or `COUNT(*)`.
#[derive(Debug, Clone, Copy)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column index; `None` means "the whole row" (`COUNT(*)` —
    /// counts rows regardless of NULLs; only meaningful for COUNT).
    pub column: Option<usize>,
}

impl AggSpec {
    /// `func(column)`.
    pub fn over(func: AggFunc, column: usize) -> Self {
        AggSpec {
            func,
            column: Some(column),
        }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggSpec {
            func: AggFunc::Count,
            column: None,
        }
    }
}

/// One aggregate's partial state over some set of rows: fold rows in with
/// [`AggState::update`], combine two partials over disjoint rows with
/// [`AggState::merge`], and read the value with [`AggState::result`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// COUNT: non-NULL inputs seen.
    Count(u64),
    /// SUM: running sum and non-NULL inputs seen.
    Sum(f64, u64),
    /// AVG: running sum and non-NULL inputs seen.
    Avg(f64, u64),
    /// MIN/MAX: the extremum so far and whether it is a maximum.
    Extremum(Option<Value>, bool),
}

impl AggState {
    /// The empty partial for `func`.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0.0, 0),
            AggFunc::Avg => AggState::Avg(0.0, 0),
            AggFunc::Min => AggState::Extremum(None, false),
            AggFunc::Max => AggState::Extremum(None, true),
        }
    }

    /// One empty partial per spec.
    pub fn for_specs(specs: &[AggSpec]) -> Vec<AggState> {
        specs.iter().map(|s| AggState::new(s.func)).collect()
    }

    /// Fold `tuple` into `states`, one partial per spec (`COUNT(*)` counts
    /// every row).
    pub fn fold(specs: &[AggSpec], states: &mut [AggState], tuple: &Tuple) -> Result<()> {
        for (spec, st) in specs.iter().zip(states.iter_mut()) {
            match spec.column {
                Some(c) => st.update(tuple.value(c))?,
                None => st.update(&Value::Bool(true))?,
            }
        }
        Ok(())
    }

    /// Fold one input value in; NULL is skipped.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(s, n) | AggState::Avg(s, n) => {
                *s += v.as_float()?;
                *n += 1;
            }
            AggState::Extremum(cur, is_max) => offer(cur, v, *is_max),
        }
        Ok(())
    }

    /// Combine with the partial of the same aggregate over a disjoint set
    /// of rows.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (AggState::Sum(s, n), AggState::Sum(t, m))
            | (AggState::Avg(s, n), AggState::Avg(t, m)) => {
                *s += t;
                *n += m;
            }
            (AggState::Extremum(cur, is_max), AggState::Extremum(Some(v), _)) => {
                offer(cur, v, *is_max)
            }
            (AggState::Extremum(..), AggState::Extremum(None, _)) => {}
            (a, b) => unreachable!("partials of different aggregates: {a:?}, {b:?}"),
        }
    }

    /// The aggregate's value: COUNT of nothing is 0, every other aggregate
    /// of nothing is NULL.
    pub fn result(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum(_, 0) | AggState::Avg(_, 0) => Value::Null,
            AggState::Sum(s, _) => Value::Float(*s),
            AggState::Avg(s, n) => Value::Float(*s / *n as f64),
            AggState::Extremum(cur, _) => cur.clone().unwrap_or(Value::Null),
        }
    }

    /// Append this partial to a checkpoint payload. Its aggregate is not
    /// written: the reader knows it from the query.
    pub fn put(&self, w: &mut CkptWriter) {
        match self {
            AggState::Count(n) => w.put_u64(*n),
            AggState::Sum(s, n) | AggState::Avg(s, n) => {
                w.put_f64(*s);
                w.put_u64(*n);
            }
            AggState::Extremum(cur, _) => w.put_value(cur.as_ref().unwrap_or(&Value::Null)),
        }
    }

    /// Read a partial of `func` written by [`AggState::put`].
    pub fn get(func: AggFunc, r: &mut CkptReader<'_>) -> Result<AggState> {
        Ok(match AggState::new(func) {
            AggState::Count(_) => AggState::Count(r.get_u64("count")?),
            AggState::Sum(..) => AggState::Sum(r.get_f64("sum")?, r.get_u64("sum count")?),
            AggState::Avg(..) => AggState::Avg(r.get_f64("avg sum")?, r.get_u64("avg count")?),
            AggState::Extremum(_, is_max) => {
                let v = r.get_value()?;
                AggState::Extremum((!v.is_null()).then_some(v), is_max)
            }
        })
    }
}

/// Keep `v` in `cur` if it beats the extremum there.
fn offer(cur: &mut Option<Value>, v: &Value, is_max: bool) {
    let beats = if is_max {
        Ordering::Greater
    } else {
        Ordering::Less
    };
    if cur.as_ref().is_none_or(|c| v.total_cmp(c) == beats) {
        *cur = Some(v.clone());
    }
}

/// Hash-grouped aggregation: `GROUP BY key` with per-group accumulators.
pub struct GroupByAggregator {
    key_col: usize,
    specs: Vec<AggSpec>,
    groups: HashMap<Value, Vec<AggState>>,
}

impl GroupByAggregator {
    /// Group by `key_col`, computing `specs` per group.
    pub fn new(key_col: usize, specs: Vec<AggSpec>) -> Self {
        GroupByAggregator {
            key_col,
            specs,
            groups: HashMap::new(),
        }
    }

    /// Feed one tuple.
    pub fn update(&mut self, tuple: &Tuple) -> Result<()> {
        let key = tuple.value(self.key_col);
        let states = self
            .groups
            .entry(key.clone())
            .or_insert_with(|| AggState::for_specs(&self.specs));
        AggState::fold(&self.specs, states, tuple)
    }

    /// Results: (group key, aggregate values), sorted by group key.
    pub fn results_sorted(&self) -> Vec<(Value, Vec<Value>)> {
        let mut out: Vec<_> = (self.groups.iter())
            .map(|(k, states)| (k.clone(), states.iter().map(AggState::result).collect()))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("sym", DataType::Str),
            Field::new("price", DataType::Float),
        ])
        .into_ref()
    }

    fn tick(ts: i64, sym: &str, price: f64) -> Tuple {
        TupleBuilder::new(schema())
            .push(sym)
            .push(price)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    fn all_specs() -> Vec<AggSpec> {
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Count, 1),
            AggSpec::over(AggFunc::Sum, 1),
            AggSpec::over(AggFunc::Avg, 1),
            AggSpec::over(AggFunc::Min, 1),
            AggSpec::over(AggFunc::Max, 1),
        ]
    }

    fn folded(specs: &[AggSpec], rows: &[Tuple]) -> Vec<AggState> {
        let mut states = AggState::for_specs(specs);
        for t in rows {
            AggState::fold(specs, &mut states, t).unwrap();
        }
        states
    }

    #[test]
    fn merged_partials_equal_one_fold_over_all_rows() {
        // Integer-valued prices, so the float sums are exact in any order.
        let specs = all_specs();
        let rows: Vec<Tuple> = (1..=40)
            .map(|ts| tick(ts, "M", ((ts * 37) % 23) as f64))
            .collect();
        let whole = folded(&specs, &rows);
        for cut in [0, 1, 17, 39, 40] {
            let mut left = folded(&specs, &rows[..cut]);
            let right = folded(&specs, &rows[cut..]);
            for (l, r) in left.iter_mut().zip(&right) {
                l.merge(r);
            }
            assert_eq!(left, whole, "cut at {cut}");
        }
        let values: Vec<Value> = whole.iter().map(AggState::result).collect();
        assert_eq!(values[0], Value::Int(40));
        assert_eq!(values[4], Value::Float(0.0));
        assert_eq!(values[5], Value::Float(22.0));
    }

    #[test]
    fn empty_partials_yield_zero_count_and_nulls() {
        let states = AggState::for_specs(&all_specs());
        let values: Vec<Value> = states.iter().map(AggState::result).collect();
        assert_eq!(
            values,
            vec![
                Value::Int(0),
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null
            ]
        );
    }

    #[test]
    fn nulls_are_ignored() {
        let s = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        let specs = vec![
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Count, 0),
            AggSpec::over(AggFunc::Sum, 0),
        ];
        let rows = [Value::Int(5), Value::Null]
            .map(|v| Tuple::new(s.clone(), vec![v], Timestamp::logical(1)).unwrap());
        let values: Vec<Value> = folded(&specs, &rows).iter().map(AggState::result).collect();
        assert_eq!(
            values,
            vec![Value::Int(2), Value::Int(1), Value::Float(5.0)]
        );
    }

    #[test]
    fn partials_roundtrip_through_a_checkpoint_payload() {
        let specs = all_specs();
        let mut states = folded(&specs, &[tick(1, "A", 2.5), tick(2, "A", -1.0)]);
        states.extend(AggState::for_specs(&specs));
        let mut w = CkptWriter::new();
        states.iter().for_each(|s| s.put(&mut w));
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let funcs = specs.iter().chain(&specs).map(|s| s.func);
        let back: Vec<AggState> = funcs.map(|f| AggState::get(f, &mut r).unwrap()).collect();
        assert_eq!(back, states);
        assert!(r.is_empty());
    }

    #[test]
    fn group_by_folds_each_group() {
        let mut g = GroupByAggregator::new(0, vec![AggSpec::over(AggFunc::Sum, 1)]);
        for (ts, sym, p) in [(1, "A", 1.0), (2, "B", 2.0), (3, "A", 3.0), (4, "C", 4.0)] {
            g.update(&tick(ts, sym, p)).unwrap();
        }
        let sorted = g.results_sorted();
        assert_eq!(sorted.len(), 3);
        assert_eq!(sorted[0], (Value::str("A"), vec![Value::Float(4.0)]));
        assert_eq!(sorted[2], (Value::str("C"), vec![Value::Float(4.0)]));
    }

    #[test]
    fn agg_func_parse() {
        assert_eq!(AggFunc::parse("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("MAX"), Some(AggFunc::Max));
        assert_eq!(AggFunc::parse("median"), None);
    }
}
