//! The four workloads: frozen constants, schemas, query text, the seeded
//! input generator and the reference it accumulates while producing input.
//!
//! Every row carries its own index (`v` / `seq`, or the window's closing
//! tick for `durable_agg`), so the receiver can tell warm-up from timed
//! results and find the batch a result came from without any side channel.

use tcq_common::rng::TcqRng;
use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder};

/// Rows per generated batch (= `io_batch` = `eddy_batch`).
pub const BATCH: usize = 64;
/// Closed-loop bound on expected result rows outstanding (sent − received).
pub const W: u64 = 16_384;
/// Push-client / per-connection queue capacity: ≥ 2·W, so the closed loop
/// can never fill it and nothing sheds by construction.
pub const CLIENT_QUEUE: usize = 2 * W as usize;
/// Rows of each workload the per-layer drives run over.
pub const DRIVE_ROWS: usize = 200_000;

/// Build-side rows of the join (`dim.id` 0..1023, never expiring).
pub const DIM_ROWS: i64 = 1024;
/// Standing queries of `manycq_churn`: `sym = i AND price > 500` …
pub const CQ_SYM: i64 = 8_000;
/// … and two-sided range-only `price > a AND price < a + 1501`.
pub const CQ_RANGE: i64 = 2_000;
const PRICE_SPAN: u64 = 1_000_000;
const RANGE_STEP: i64 = PRICE_SPAN as i64 / CQ_RANGE;
const RANGE_WIDTH: i64 = 1_501;
/// Churned queries name a `sym` at or above this; the stream stays below
/// [`CQ_SYM`], so they never match and the expected output stays exact.
pub const CHURN_SYM_BASE: i64 = 1_000_000;
/// `durable_agg`: ticks per tumbling window, groups, rows per checkpoint.
pub const AGG_WINDOW: i64 = 1_000;
pub const AGG_GROUPS: u64 = 64;
pub const CKPT_EVERY_ROWS: u64 = 64_000;

pub const JOIN_SQL: &str = "SELECT s.v, d.tag FROM s s, dim d WHERE s.k = d.id AND s.f < 50 \
     for (t = ST; t >= 0; t++) { WindowIs(s, t - 65536, t); }";
pub const AGG_SQL: &str = "SELECT k, COUNT(*), AVG(v) FROM s GROUP BY k \
     for (t = ST; t >= 0; t += 1000) { WindowIs(s, t - 999, t); }";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    JoinInproc,
    JoinTcp,
    ManyCqChurn,
    DurableAgg,
}

/// One workload's frozen constants. Row counts were sized so a timed region
/// lasts about 1 s at the commit that added the benchmark, then frozen: the
/// work per pass is fixed, so a faster engine finishes sooner. Both joins
/// take the same counts, so they consume identical input.
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// Input stream the generator feeds.
    pub stream: &'static str,
    /// Untimed rows before each timed region.
    pub warm_rows: u64,
    /// Timed rows of one capacity pass.
    pub timed_rows: u64,
    /// Fixed input rate of the open-loop latency phase, rows/s.
    pub rate: u64,
    /// Fjord hops one input row crosses (for `server.glue_ns_row`).
    pub fjord_hops: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::JoinInproc,
        name: "join_inproc",
        why: "windowed stream-table join pushed in-process: fjords, dispatcher, eddy, SteM and egress do all the work, net and storage none",
        stream: "s",
        warm_rows: 128_000,
        timed_rows: 512_000,
        rate: 150_000,
        fjord_hops: 3.0,
    },
    Spec {
        kind: Kind::JoinTcp,
        name: "join_tcp",
        why: "the same join, seed and rows through NetServer on loopback: identical engine work plus wire codec, connection threads and the per-client queue",
        stream: "s",
        warm_rows: 128_000,
        timed_rows: 512_000,
        rate: 120_000,
        fjord_hops: 3.0,
    },
    Spec {
        kind: Kind::ManyCqChurn,
        name: "manycq_churn",
        why: "10000 standing filter CQs on one stream with a submit+stop per batch: the shared QueryStem and egress fan-out dominate, joins, net and storage are bypassed",
        stream: "ticks",
        warm_rows: 16_000,
        timed_rows: 48_000,
        rate: 20_000,
        fjord_hops: 2.0,
    },
    Spec {
        kind: Kind::DurableAgg,
        name: "durable_agg",
        why: "grouped tumbling-window aggregate with archive and periodic checkpoints: storage, windows and the aggregate operator work, eddy, SteM and net do not",
        stream: "s",
        warm_rows: 256_000,
        timed_rows: 1_280_000,
        rate: 400_000,
        fjord_hops: 3.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

fn int_schema(names: &[&str]) -> SchemaRef {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(*n, DataType::Int))
            .collect(),
    )
    .into_ref()
}

pub fn join_stream_schema() -> SchemaRef {
    int_schema(&["k", "v", "f"])
}

pub fn dim_schema() -> SchemaRef {
    int_schema(&["id", "tag"])
}

pub fn ticks_schema() -> SchemaRef {
    int_schema(&["sym", "price", "seq"])
}

pub fn agg_stream_schema() -> SchemaRef {
    int_schema(&["k", "v"])
}

impl Spec {
    pub fn stream_schema(&self) -> SchemaRef {
        match self.kind {
            Kind::JoinInproc | Kind::JoinTcp => join_stream_schema(),
            Kind::ManyCqChurn => ticks_schema(),
            Kind::DurableAgg => agg_stream_schema(),
        }
    }

    /// Logical timestamp of input row `idx`.
    pub fn seq_of(&self, idx: u64) -> i64 {
        match self.kind {
            // The build side holds ticks 1..=DIM_ROWS.
            Kind::JoinInproc | Kind::JoinTcp => DIM_ROWS + idx as i64 + 1,
            Kind::ManyCqChurn | Kind::DurableAgg => idx as i64 + 1,
        }
    }

    /// A representative query of the workload (`query.parse_analyze_us`).
    pub fn sample_sql(&self) -> String {
        match self.kind {
            Kind::JoinInproc | Kind::JoinTcp => JOIN_SQL.to_string(),
            Kind::ManyCqChurn => sym_cq_sql(17),
            Kind::DurableAgg => AGG_SQL.to_string(),
        }
    }
}

pub fn dim_rows() -> Vec<Tuple> {
    let schema = dim_schema();
    (0..DIM_ROWS)
        .map(|id| {
            TupleBuilder::new(schema.clone())
                .push(id)
                .push(id * 10)
                .at(Timestamp::logical(id + 1))
                .build()
                .expect("dim row matches its schema")
        })
        .collect()
}

pub fn sym_cq_sql(sym: i64) -> String {
    format!("SELECT seq FROM ticks WHERE sym = {sym} AND price > 500")
}

pub fn range_cq_sql(j: i64) -> String {
    let a = j * RANGE_STEP;
    format!(
        "SELECT seq FROM ticks WHERE price > {a} AND price < {}",
        a + RANGE_WIDTH
    )
}

/// The 10 000 standing queries of `manycq_churn`, in submit order.
pub fn standing_cq_sql() -> impl Iterator<Item = String> {
    (0..CQ_SYM)
        .map(sym_cq_sql)
        .chain((0..CQ_RANGE).map(range_cq_sql))
}

/// What the generator expects the engine to have delivered for the rows
/// produced so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reference {
    /// Result rows.
    pub rows: u64,
    /// Σ v (joins), Σ seq over deliveries (CQs), Σ COUNT(*) (aggregate).
    pub sum_a: i64,
    /// Σ tag (joins), Σ AVG·COUNT = Σ v over closed windows (aggregate).
    pub sum_b: i64,
}

/// Seeded row generator for one pass. Rows are produced batch by batch;
/// nothing is pre-built.
pub struct Generator {
    spec: &'static Spec,
    schema: SchemaRef,
    rng: TcqRng,
    next_idx: u64,
    pub reference: Reference,
    /// `durable_agg`: groups seen, rows and Σ v of the window being filled.
    win_mask: u64,
    win_rows: i64,
    win_sum: i64,
}

impl Generator {
    pub fn new(spec: &'static Spec, seed: u64) -> Generator {
        Generator {
            spec,
            schema: spec.stream_schema(),
            rng: tcq_common::rng::seeded(seed),
            next_idx: 0,
            reference: Reference::default(),
            win_mask: 0,
            win_rows: 0,
            win_sum: 0,
        }
    }

    pub fn rows_made(&self) -> u64 {
        self.next_idx
    }

    /// Append up to `n` rows to `out`, updating the reference.
    pub fn fill(&mut self, n: usize, out: &mut Vec<Tuple>) {
        for _ in 0..n {
            let idx = self.next_idx;
            self.next_idx += 1;
            let r = self.rng.next_u64();
            let b = TupleBuilder::new(self.schema.clone());
            let b = match self.spec.kind {
                Kind::JoinInproc | Kind::JoinTcp => {
                    let k = (r & 1023) as i64;
                    let f = ((r >> 10) % 100) as i64;
                    if f < 50 {
                        self.reference.rows += 1;
                        self.reference.sum_a += idx as i64;
                        self.reference.sum_b += k * 10;
                    }
                    b.push(k).push(idx as i64).push(f)
                }
                Kind::ManyCqChurn => {
                    let sym = (r % CQ_SYM as u64) as i64;
                    let price = ((r >> 16) % PRICE_SPAN) as i64;
                    let hits = cq_matches(price);
                    self.reference.rows += hits;
                    self.reference.sum_a += hits as i64 * idx as i64;
                    b.push(sym).push(price).push(idx as i64)
                }
                Kind::DurableAgg => {
                    let k = r % AGG_GROUPS;
                    let v = ((r >> 6) % 1000) as i64;
                    self.win_mask |= 1 << k;
                    self.win_rows += 1;
                    self.win_sum += v;
                    // Window n ends at tick 1 + 1000·n, i.e. at row 1000·n;
                    // the row that carries that tick closes it.
                    if idx.is_multiple_of(AGG_WINDOW as u64) {
                        self.reference.rows += self.win_mask.count_ones() as u64;
                        self.reference.sum_a += self.win_rows;
                        self.reference.sum_b += self.win_sum;
                        self.win_mask = 0;
                        self.win_rows = 0;
                        self.win_sum = 0;
                    }
                    b.push(k as i64).push(v)
                }
            };
            out.push(
                b.at(Timestamp::logical(self.spec.seq_of(idx)))
                    .build()
                    .expect("generated row matches its schema"),
            );
        }
    }
}

/// Standing CQs a row with this `price` satisfies: the one `sym = i` query
/// (every produced `sym` has one) if `price > 500`, plus every range query
/// `a < price < a + 1501` with `a = j·step`, counted from the boundaries.
fn cq_matches(price: i64) -> u64 {
    let sym_hit = (price > 500) as i64;
    // j with j·step < price, and j with j·step + width <= price, 0 <= j < CQ_RANGE.
    let opened = ((price + RANGE_STEP - 1) / RANGE_STEP).clamp(0, CQ_RANGE);
    let closed = if price >= RANGE_WIDTH {
        ((price - RANGE_WIDTH) / RANGE_STEP + 1).clamp(0, CQ_RANGE)
    } else {
        0
    };
    (sym_hit + opened - closed) as u64
}

/// What one result row says about its origin and the checksums.
pub struct Decoded {
    /// Index of the input row that produced it (for `durable_agg`, of the
    /// last row contributing to the window).
    pub idx: u64,
    pub a: i64,
    pub b: i64,
}

pub fn decode(kind: Kind, t: &Tuple) -> Decoded {
    let int = |i: usize| t.value(i).as_int().unwrap_or(i64::MIN);
    match kind {
        Kind::JoinInproc | Kind::JoinTcp => Decoded {
            idx: int(0) as u64,
            a: int(0),
            b: int(1),
        },
        Kind::ManyCqChurn => Decoded {
            idx: int(0) as u64,
            a: int(0),
            b: 0,
        },
        Kind::DurableAgg => {
            // (t, k, COUNT(*), AVG(v)); tick t is row t − 1.
            let count = int(2);
            let avg = t.value(3).as_float().unwrap_or(f64::NAN);
            Decoded {
                idx: (int(0) - 1) as u64,
                a: count,
                b: (avg * count as f64).round() as i64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cq_matches_agrees_with_a_scan_of_the_queries() {
        for price in (0..PRICE_SPAN as i64)
            .step_by(37)
            .chain([0, 500, 501, 1500, 1501, 999_999])
        {
            let scan = (price > 500) as u64
                + (0..CQ_RANGE)
                    .filter(|j| price > j * RANGE_STEP && price < j * RANGE_STEP + RANGE_WIDTH)
                    .count() as u64;
            assert_eq!(cq_matches(price), scan, "price {price}");
        }
    }
}
