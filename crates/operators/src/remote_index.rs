//! A simulated remote index access method.
//!
//! §2.2 describes hybridized joins: stream S joined with "a remote index on
//! table T (e.g. T is a web lookup form wrapped by TeSS) … the best way to
//! implement index joins with remote sources is in an asynchronous fashion".
//! The eddy can route S tuples either to the local SteM on T (hash join) or
//! to the remote index access method, and "essentially run both query plans
//! at the same time".
//!
//! We do not have the authors' web sources, so [`RemoteIndex`] simulates
//! one: an in-memory keyed table fronted by a configurable per-lookup
//! latency (busy-wait, so Criterion wall-clock measurements see it). The
//! latency knob reproduces the cost regimes that make hybridization win —
//! cheap index → index joins win; slow index → building the SteM wins; the
//! eddy discovers either without being told.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcq_common::{Result, Schema, SchemaRef, Tuple, Value};

use crate::module::{EddyModule, Routed};

/// The remote side: a keyed table with simulated access latency.
pub struct RemoteIndex {
    schema: SchemaRef,
    key_col: usize,
    table: HashMap<Value, Vec<Tuple>>,
    latency: Duration,
    lookups: u64,
}

impl RemoteIndex {
    /// Build a remote index over `rows`, keyed by `key_col`.
    pub fn new(schema: SchemaRef, key_col: usize, rows: Vec<Tuple>, latency: Duration) -> Self {
        let mut table: HashMap<Value, Vec<Tuple>> = HashMap::new();
        for r in rows {
            table.entry(r.value(key_col).clone()).or_default().push(r);
        }
        RemoteIndex {
            schema,
            key_col,
            table,
            latency,
            lookups: 0,
        }
    }

    /// Change the simulated latency mid-run (source volatility).
    pub fn set_latency(&mut self, latency: Duration) {
        self.latency = latency;
    }

    /// One remote lookup: busy-waits `latency`, then returns matches.
    pub fn lookup(&mut self, key: &Value, out: &mut Vec<Tuple>) -> usize {
        self.lookups += 1;
        if !self.latency.is_zero() {
            let start = Instant::now();
            while start.elapsed() < self.latency {
                std::hint::spin_loop();
            }
        }
        match self.table.get(key) {
            Some(rows) => {
                out.extend(rows.iter().cloned());
                rows.len()
            }
            None => 0,
        }
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Schema of indexed rows.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The indexed column.
    pub fn key_col(&self) -> usize {
        self.key_col
    }
}

/// The access-method module: probes the remote index with each routed tuple
/// and emits concatenations — an *alternative* to probing the local SteM on
/// the same table, competing under the eddy's routing policy.
pub struct RemoteIndexOp {
    name: String,
    index: RemoteIndex,
    /// Probe key in the routed tuple, resolved per schema like StemOp.
    probe_key_qualifier: Option<String>,
    probe_key_name: String,
    /// `(probing schema, key column, joined schema)` keyed by the probing
    /// schema's address; the entry holds the schema so the address cannot
    /// be reused by one of another shape.
    plans: HashMap<usize, (SchemaRef, usize, SchemaRef)>,
}

impl RemoteIndexOp {
    /// Wrap a [`RemoteIndex`] as an eddy module.
    pub fn new(
        name: impl Into<String>,
        index: RemoteIndex,
        probe_key: (Option<String>, String),
    ) -> Self {
        RemoteIndexOp {
            name: name.into(),
            index,
            probe_key_qualifier: probe_key.0,
            probe_key_name: probe_key.1,
            plans: HashMap::new(),
        }
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.index.lookups()
    }
}

impl EddyModule for RemoteIndexOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, tuple: &Tuple) -> Result<Routed> {
        let key = Arc::as_ptr(tuple.schema()) as usize;
        if !self.plans.contains_key(&key) {
            let col = tuple
                .schema()
                .index_of(self.probe_key_qualifier.as_deref(), &self.probe_key_name)?;
            let joined: SchemaRef = Arc::new(Schema::concat(tuple.schema(), self.index.schema()));
            self.plans
                .insert(key, (Arc::clone(tuple.schema()), col, joined));
        }
        let (col, joined) = {
            let (s, c, j) = &self.plans[&key];
            debug_assert!(Arc::ptr_eq(s, tuple.schema()), "plan of another schema");
            (*c, j.clone())
        };
        let mut matches = Vec::new();
        self.index.lookup(tuple.value(col), &mut matches);
        let outputs = matches
            .into_iter()
            .map(|m| tuple.concat(&m, joined.clone()))
            .collect();
        Ok(Routed::consume_into(outputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Timestamp, TupleBuilder};

    fn t_schema() -> SchemaRef {
        Schema::qualified(
            "T",
            vec![
                Field::new("k", DataType::Int),
                Field::new("name", DataType::Str),
            ],
        )
        .into_ref()
    }

    fn s_schema() -> SchemaRef {
        Schema::qualified(
            "S",
            vec![
                Field::new("k", DataType::Int),
                Field::new("x", DataType::Float),
            ],
        )
        .into_ref()
    }

    fn t_row(k: i64, name: &str) -> Tuple {
        TupleBuilder::new(t_schema())
            .push(k)
            .push(name)
            .at(Timestamp::logical(k))
            .build()
            .unwrap()
    }

    fn s_row(k: i64, x: f64, ts: i64) -> Tuple {
        TupleBuilder::new(s_schema())
            .push(k)
            .push(x)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_joins_matching_rows() {
        let index = RemoteIndex::new(
            t_schema(),
            0,
            vec![t_row(1, "one"), t_row(2, "two"), t_row(1, "uno")],
            Duration::ZERO,
        );
        let mut op = RemoteIndexOp::new("idx(T)", index, (Some("S".into()), "k".into()));
        let r = op.process(&s_row(1, 0.5, 10)).unwrap();
        assert!(!r.keep);
        assert_eq!(r.outputs.len(), 2);
        for j in &r.outputs {
            assert_eq!(
                j.get(Some("S"), "k").unwrap(),
                j.get(Some("T"), "k").unwrap()
            );
        }
        assert_eq!(op.lookups(), 1);
    }

    #[test]
    fn probe_plan_is_not_shared_with_a_schema_that_reuses_a_freed_address() {
        let index = RemoteIndex::new(t_schema(), 0, vec![t_row(1, "one")], Duration::ZERO);
        let mut op = RemoteIndexOp::new("idx(T)", index, (Some("S".into()), "k".into()));
        for round in 0..64 {
            // The key column moves between rounds; each probing schema is
            // dropped before the next is allocated.
            let wide = round % 2 == 1;
            let mut fields = vec![Field::new("k", DataType::Int)];
            if wide {
                fields.insert(0, Field::new("pad", DataType::Str));
            }
            let mut b = TupleBuilder::new(Schema::qualified("S", fields).into_ref());
            if wide {
                b = b.push("x");
            }
            let probe = b.push(1i64).build().unwrap();
            let r = op.process(&probe).unwrap();
            assert_eq!(r.outputs.len(), 1, "round {round}");
            let joined = r.outputs.first().unwrap();
            assert_eq!(joined.schema().len(), probe.arity() + 2, "round {round}");
        }
    }

    #[test]
    fn missing_key_yields_no_outputs() {
        let index = RemoteIndex::new(t_schema(), 0, vec![t_row(1, "one")], Duration::ZERO);
        let mut op = RemoteIndexOp::new("idx(T)", index, (Some("S".into()), "k".into()));
        let r = op.process(&s_row(99, 0.0, 1)).unwrap();
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn latency_is_observable() {
        let mut index = RemoteIndex::new(t_schema(), 0, vec![t_row(1, "one")], Duration::ZERO);
        index.set_latency(Duration::from_micros(200));
        let mut out = Vec::new();
        let start = Instant::now();
        index.lookup(&Value::Int(1), &mut out);
        assert!(start.elapsed() >= Duration::from_micros(200));
        assert_eq!(out.len(), 1);
    }
}
