//! Microbenchmarks for the TelegraphCQ-rs building blocks, on a
//! self-contained `std::time::Instant` harness (the `criterion` crate is
//! not available in this offline build; enabling the non-default
//! `criterion` feature selects criterion-grade warmup and sample counts
//! on the same harness).
//!
//! One group per experiment id (see DESIGN.md §4):
//!
//! * `F2/stem_join`      — symmetric hash join via eddy + SteMs.
//! * `E2/routing_policy` — per-tuple cost of each routing policy.
//! * `E3/query_stem`     — shared matching vs standing query count.
//! * `E10/archive`       — append and windowed scan.
//!
//! Run with `cargo bench -p tcq-bench` (add `--features criterion` for the
//! longer calibration mode).

use std::time::{Duration, Instant};

use tcq_bench::{kv, kv_schema, route_one};
use tcq_common::rng::seeded;
use tcq_common::{CmpOp, Expr};
use tcq_eddy::{
    Eddy, EddyConfig, FixedPolicy, GreedyPolicy, LotteryPolicy, ModuleSpec, RandomPolicy,
    RoutingPolicy,
};
use tcq_operators::{symmetric_hash_join, SelectOp};
use tcq_stems::{MatchScratch, QueryStem};
use tcq_storage::{BufferPool, StreamArchive};

/// A named group of benchmarks (mirrors the criterion group API surface
/// the suite uses, so bench bodies read the same either way).
struct Group {
    name: String,
    samples: usize,
    measurement: Duration,
    throughput: Option<u64>,
}

/// Measurement driver handed to each benchmark body; `iter` runs the
/// closure through warmup and timed samples and records the median.
struct Bencher {
    samples: usize,
    measurement: Duration,
    median_ns: f64,
}

impl Bencher {
    fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup: run for a slice of the measurement budget (at least one
        // full iteration) and estimate per-iteration cost.
        let warm_budget = self.measurement / 10;
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            std::hint::black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= warm_budget {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let sample_budget = self.measurement.as_secs_f64() / self.samples as f64;
        let batch = ((sample_budget / per_iter.max(1e-9)) as u64).max(1);
        let mut ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        ns.sort_by(|a, b| a.total_cmp(b));
        self.median_ns = ns[ns.len() / 2];
    }
}

impl Group {
    fn new(name: &str) -> Self {
        Group {
            name: name.to_string(),
            samples: 10,
            measurement: Duration::from_millis(300),
            throughput: None,
        }
    }

    /// Criterion-mode honours the requested counts; quick mode caps them
    /// so `cargo bench` finishes in seconds without the real crate.
    fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = if cfg!(feature = "criterion") {
            n
        } else {
            n.min(10)
        };
        self
    }

    fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = if cfg!(feature = "criterion") {
            d
        } else {
            d.min(Duration::from_millis(300))
        };
        self
    }

    fn throughput(&mut self, elements: u64) -> &mut Self {
        self.throughput = Some(elements);
        self
    }

    fn bench_function(&mut self, id: &str, body: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.samples.max(2),
            measurement: self.measurement,
            median_ns: 0.0,
        };
        body(&mut b);
        let mut line = format!("{}/{id}: {:>12.0} ns/iter", self.name, b.median_ns);
        if let Some(elems) = self.throughput {
            let per_sec = elems as f64 / (b.median_ns / 1e9);
            line.push_str(&format!("  ({:.2} Melem/s)", per_sec / 1e6));
        }
        println!("{line}");
    }

    fn finish(self) {}
}

fn join_eddy(policy: Box<dyn RoutingPolicy>) -> Eddy {
    let s = kv_schema("S");
    let t = kv_schema("T");
    let mut eddy = Eddy::new(&["S", "T"], policy, EddyConfig::default()).unwrap();
    let (sb, tb) = (eddy.source_bit("S").unwrap(), eddy.source_bit("T").unwrap());
    let (stem_s, stem_t) = symmetric_hash_join(&s, "S", "k", &t, "T", "k").unwrap();
    eddy.add_module(ModuleSpec::stem(Box::new(stem_s), sb, tb))
        .unwrap();
    eddy.add_module(ModuleSpec::stem(Box::new(stem_t), tb, sb))
        .unwrap();
    eddy
}

fn bench_stem_join() {
    let mut group = Group::new("F2/stem_join");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let s = kv_schema("S");
    let t = kv_schema("T");
    let mut rng = seeded(1);
    let n = 2_000usize;
    let rows: Vec<(bool, i64)> = (0..n)
        .map(|_| (rng.gen_bool(0.5), rng.gen_range(0..500i64)))
        .collect();
    group.throughput(n as u64);
    group.bench_function("symmetric_hash_join_2k", |b| {
        b.iter(|| {
            let mut eddy = join_eddy(Box::new(FixedPolicy::new(vec![0, 1])));
            let mut emitted = 0usize;
            for (i, (left, k)) in rows.iter().enumerate() {
                let row = if *left {
                    kv(&s, *k, 0, i as i64)
                } else {
                    kv(&t, *k, 0, i as i64)
                };
                emitted += route_one(&mut eddy, row);
            }
            emitted
        })
    });
    group.finish();
}

fn bench_routing_policies() {
    let mut group = Group::new("E2/routing_policy");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let schema = kv_schema("S");
    let n = 10_000usize;
    let mut rng = seeded(3);
    let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(0..100i64)).collect();
    group.throughput(n as u64);
    let mk_policy = |which: &str| -> Box<dyn RoutingPolicy> {
        match which {
            "fixed" => Box::new(FixedPolicy::new(vec![0, 1, 2])),
            "random" => Box::new(RandomPolicy),
            "lottery" => Box::new(LotteryPolicy::new()),
            _ => Box::new(GreedyPolicy::new()),
        }
    };
    for which in ["fixed", "random", "lottery", "greedy"] {
        group.bench_function(which, |b| {
            b.iter(|| {
                let mut eddy = Eddy::new(&["S"], mk_policy(which), EddyConfig::default()).unwrap();
                let s = eddy.source_bit("S").unwrap();
                for th in [10i64, 50, 90] {
                    let f = SelectOp::new(
                        format!("v<{th}"),
                        &Expr::col("v").cmp(CmpOp::Lt, Expr::lit(th)),
                        &schema,
                    )
                    .unwrap();
                    eddy.add_module(ModuleSpec::filter(Box::new(f), s)).unwrap();
                }
                let mut emitted = 0usize;
                for (i, v) in vals.iter().enumerate() {
                    emitted += route_one(&mut eddy, kv(&schema, 0, *v, i as i64));
                }
                emitted
            })
        });
    }
    group.finish();
}

fn bench_query_stem() {
    let mut group = Group::new("E3/query_stem");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let schema = kv_schema("S");
    for n in [16usize, 256, 1024] {
        let mut qstem = QueryStem::new(schema.clone());
        for q in 0..n {
            let lo = (q as i64 * 13) % 950;
            let pred = Expr::col("v")
                .cmp(CmpOp::Ge, Expr::lit(lo))
                .and(Expr::col("v").cmp(CmpOp::Lt, Expr::lit(lo + 50)));
            qstem.insert_query(q, Some(&pred)).unwrap();
        }
        let mut rng = seeded(7);
        let tuples: Vec<_> = (0..1000)
            .map(|i| kv(&schema, 0, rng.gen_range(0..1000), i))
            .collect();
        group.throughput(tuples.len() as u64);
        group.bench_function(&n.to_string(), |b| {
            let mut scratch = MatchScratch::new();
            b.iter(|| {
                let mut total = 0usize;
                for t in &tuples {
                    qstem.matching_into(t, &mut scratch).unwrap();
                    total += scratch.matches().len();
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_archive() {
    let mut group = Group::new("E10/archive");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(2));
    let schema = kv_schema("S");
    let n = 50_000i64;
    group.throughput(n as u64);
    group.bench_function("append_50k", |b| {
        b.iter(|| {
            let pool = BufferPool::new(64, 8192);
            let path =
                std::env::temp_dir().join(format!("tcq-bench-archive-{}.seg", std::process::id()));
            let mut a = StreamArchive::create(&path, schema.clone(), pool).unwrap();
            for i in 1..=n {
                a.append(&kv(&schema, i % 100, i, i)).unwrap();
            }
            std::fs::remove_file(path).ok();
            a.len()
        })
    });
    // Pre-built archive for scans.
    let pool = BufferPool::new(64, 8192);
    let path = std::env::temp_dir().join(format!("tcq-bench-scan-{}.seg", std::process::id()));
    let mut archive = StreamArchive::create(&path, schema.clone(), pool.clone()).unwrap();
    for i in 1..=n {
        archive.append(&kv(&schema, i % 100, i, i)).unwrap();
    }
    archive.flush().unwrap();
    group.bench_function("scan_window_5k_hot", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            archive.scan_window(n / 2, n / 2 + 4_999, &mut out).unwrap();
            out.len()
        })
    });
    group.finish();
    std::fs::remove_file(path).ok();
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    bench_stem_join();
    bench_routing_policies();
    bench_query_stem();
    bench_archive();
}
