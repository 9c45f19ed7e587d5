//! The repo's one benchmark. One process runs one workload:
//!
//! ```text
//! tcq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the run the end-to-end metrics come from; `--trace 1` is
//! the traced run that attributes cost to the engine's layers. The last line
//! of standard output is the result as one JSON object. See README.md.

mod drives;
mod measure;
mod pass;
mod sut;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use drives::Metrics;
use measure::{iqr_pct, median, peak_rss_mb, Histogram};
use pass::{run_pass, Counts, PassOpts, PassResult, Phase, Region};
use trace::{Span, Tracer};
use workload::{Kind, Spec, BATCH};

/// Scratch and trace output, inside the checkout and git-ignored.
const OUT_DIR: &str = "benchmark/out";
/// A pass that has not finished by then is reported as failed.
const PASS_WATCHDOG: Duration = Duration::from_secs(60);
/// Results whose batch was due this early in the open loop are dropped.
const LATENCY_DISCARD_S: f64 = 1.0;
/// `--seconds` buys one capacity pass per this many seconds — about 1.5 s
/// of boot, warm-up and timed rows at the commit that added the benchmark
/// (the rows themselves are frozen, so a faster engine finishes sooner) and
/// the pass's share of the open loop, which takes a quarter of `--seconds`.
const SECONDS_PER_PASS: f64 = 2.0;

/// The end-to-end metrics, in the order BENCHMARK.json lists them: the two
/// that repeat within their bound on the box this was built on. Throughput,
/// CPU per row and latency do not (README.md, observed_spread.md); every
/// run still measures and prints them, and the traced run reports them as
/// `client.*`.
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics of the traced run. A layer that is not on a
/// workload's path reports 0 there.
const PER_LAYER: [(&str, &str); 46] = [
    ("net.wire_encode_ns_row", "ns/row"),
    ("net.wire_decode_ns_row", "ns/row"),
    ("net.bytes_in_per_row", "B/row"),
    ("net.bytes_out_per_row", "B/row"),
    ("net.rows_per_frame_out", "rows/frame"),
    ("net.rows_lost", "rows"),
    ("fjords.batch_roundtrip_ns_row", "ns/row"),
    ("fjords.rejects_per_krow", "1/krow"),
    ("fjords.depth_max", "rows"),
    ("executor.eo_busy_share", "share"),
    ("executor.quanta_per_krow", "1/krow"),
    ("server.submit_p50_us", "us"),
    ("server.stop_p50_us", "us"),
    ("server.glue_ns_row", "ns/row"),
    ("query.parse_analyze_us", "us"),
    ("eddy.batch_ns_row", "ns/row"),
    ("eddy.state_rows", "rows"),
    ("stems.stem_build_ns_row", "ns/row"),
    ("stems.stem_probe_ns_row", "ns/row"),
    ("stems.stem_evict_ns_row", "ns/row"),
    ("stems.qstem_probe_ns_row", "ns/row"),
    ("stems.qstem_matches_per_row", "1/row"),
    ("stems.qstem_churn_us_pair", "us/pair"),
    ("stems.shared_bytes_per_query", "B/query"),
    ("operators.select_ns_row", "ns/row"),
    ("operators.project_ns_row", "ns/row"),
    ("operators.aggregate_ns_row", "ns/row"),
    ("common.kernel_eval_ns_row", "ns/row"),
    ("common.tuple_build_ns_row", "ns/row"),
    ("windows.seq_ns_window", "ns/window"),
    ("egress.deliver_ns_row", "ns/row"),
    ("egress.offered_rows", "rows"),
    ("egress.shed_rows", "rows"),
    ("storage.archive_append_ns_row", "ns/row"),
    ("storage.archive_bytes_per_row", "B/row"),
    ("storage.ckpt_commit_p50_ms", "ms"),
    ("storage.ckpt_bytes_per_commit", "B"),
    ("client.tput_rows_s", "rows/s"),
    ("client.cpu_s_per_mrow", "s/Mrow"),
    ("client.lat_p50_ms", "ms"),
    ("client.lat_p99_ms", "ms"),
    ("client.lat_p999_ms", "ms"),
    ("client.gen_late_p99_ms", "ms"),
    ("client.rep_spread_pct", "%"),
    ("client.failed_rows", "rows"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: tcq-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut spec = None;
    let mut seed = 1;
    let mut seconds = 24.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => spec = workload::spec(&value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(spec) = spec else { usage() };
    if !(1.0..=600.0).contains(&seconds) {
        usage();
    }
    Args {
        spec,
        seed,
        seconds,
        trace,
    }
}

/// ns since process start after which the running pass counts as hung
/// (0 = no pass running).
static PASS_DEADLINE_NS: AtomicU64 = AtomicU64::new(0);

/// A pass stuck inside a blocking engine call cannot be interrupted, so the
/// watchdog reports the failure and ends the process instead of hanging.
fn spawn_watchdog(start: Instant, workload: &'static str) {
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(250));
            let deadline = PASS_DEADLINE_NS.load(Ordering::Acquire);
            if deadline != 0 && start.elapsed().as_nanos() as u64 > deadline {
                eprintln!(
                    "{workload}: a pass exceeded the {} s watchdog; reporting it as failed",
                    PASS_WATCHDOG.as_secs()
                );
                println!(
                    "{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}"
                );
                std::process::exit(1);
            }
        })
        .expect("spawn watchdog thread");
}

struct Runner {
    spec: &'static Spec,
    seed: u64,
    start: Instant,
    out_dir: PathBuf,
    next_pass: u32,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

impl Runner {
    /// One pass on a freshly booted server, under the watchdog.
    fn pass(&mut self, phase: Phase, traced: bool) -> PassResult {
        let pass = self.next_pass;
        self.next_pass += 1;
        let dir = (self.spec.kind == Kind::DurableAgg)
            .then(|| self.out_dir.join(format!("tmp-{}-p{pass}", self.spec.name)));
        let deadline = self.start.elapsed() + PASS_WATCHDOG;
        PASS_DEADLINE_NS.store(deadline.as_nanos() as u64, Ordering::Release);
        let mut result = run_pass(
            self.spec,
            PassOpts {
                pass,
                seed: self.seed,
                phase,
                traced,
                dir,
                epoch: self.start,
            },
        );
        PASS_DEADLINE_NS.store(0, Ordering::Release);
        for note in &result.notes {
            eprintln!("{}: {note}", self.spec.name);
        }
        let region = result.region;
        println!(
            "{}: pass {pass}{}: set-up {:.3} s, {} rows in {:.3} s = {:.0} rows/s, engine CPU {:.3} s/Mrow, failed {}",
            self.spec.name,
            if traced { " (traced)" } else { "" },
            result.setup_s,
            region.rows,
            region.secs,
            region.tput(),
            region.cpu_s_per_mrow(),
            result.failed
        );
        self.attempted += result.attempted;
        self.failed += result.failed;
        self.spans.append(&mut result.spans);
        result
    }
}

/// Median over the passes of one figure of their measured regions.
fn pass_median(passes: &[PassResult], f: impl Fn(&Region) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(&p.region)).collect::<Vec<_>>())
}

/// Capacity passes of a run: one per [`SECONDS_PER_PASS`] of `--seconds`.
/// The count depends on the flag alone, never on how fast a pass ran, so
/// two commits are always compared on the same number of samples.
fn capacity_passes(seconds: f64) -> usize {
    ((seconds / SECONDS_PER_PASS).round() as usize).max(3)
}

/// One open-loop phase on a fresh server, for a quarter of `--seconds`.
fn latency_pass(r: &mut Runner, seconds: f64, traced: bool) -> PassResult {
    let lat = r.pass(
        Phase::Latency {
            secs: (seconds / 4.0).max(2.0 * LATENCY_DISCARD_S),
            discard_secs: LATENCY_DISCARD_S,
        },
        traced,
    );
    println!(
        "{}: open loop at {} rows/s: {} latency samples, generator late p99 {:.3} ms, drained in {:.3} s",
        r.spec.name,
        r.spec.rate,
        lat.latency.count(),
        lat.lateness.quantile_ms(0.99),
        lat.drain_s
    );
    lat
}

/// What the load threads saw: every timing is the median over the capacity
/// passes of the figure for the pass's whole timed region; latency is over
/// every sample of the open loop.
fn client_metrics(m: &mut Metrics, passes: &[PassResult], lat: &PassResult) {
    m.insert("client.tput_rows_s", pass_median(passes, Region::tput));
    m.insert(
        "client.cpu_s_per_mrow",
        pass_median(passes, Region::cpu_s_per_mrow),
    );
    m.insert("client.lat_p50_ms", lat.latency.quantile_ms(0.5));
    m.insert("client.lat_p99_ms", lat.latency.quantile_ms(0.99));
    m.insert("client.lat_p999_ms", lat.latency.quantile_ms(0.999));
    m.insert("client.gen_late_p99_ms", lat.lateness.quantile_ms(0.99));
    let tputs: Vec<f64> = passes.iter().map(|p| p.region.tput()).collect();
    m.insert("client.rep_spread_pct", iqr_pct(&tputs));
}

/// The untraced run: the open loop first, then the capacity passes.
/// `peak_rss_mb` is read when the open loop's server has shut down: one
/// server in a fresh process, fed a fixed number of rows at a fixed rate.
/// Later boots in the same process ratchet the high-water mark up by what
/// the allocator keeps of earlier servers' arenas, a different amount on
/// every run.
fn run_end_to_end(r: &mut Runner, seconds: f64) -> Metrics {
    let lat = latency_pass(r, seconds, false);
    let peak_rss = peak_rss_mb();
    let passes: Vec<PassResult> = (0..capacity_passes(seconds))
        .map(|_| r.pass(Phase::Capacity, false))
        .collect();
    let setups: Vec<f64> = passes.iter().chain([&lat]).map(|p| p.setup_s).collect();
    let mut m = Metrics::new();
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", peak_rss);
    client_metrics(&mut m, &passes, &lat);
    m
}

/// Engine cost the drives account for, ns per input row: each drive
/// weighted by how often the workload takes that step per input row.
fn driven_ns_row(spec: &Spec, d: &Metrics, results_per_row: f64) -> f64 {
    let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let per_result = get("operators.project_ns_row") + get("egress.deliver_ns_row");
    let common = spec.fjord_hops * get("fjords.batch_roundtrip_ns_row");
    common
        + match spec.kind {
            Kind::JoinInproc => get("eddy.batch_ns_row") + results_per_row * per_result,
            Kind::JoinTcp => {
                get("eddy.batch_ns_row")
                    + get("net.wire_decode_ns_row")
                    + results_per_row * (per_result + get("net.wire_encode_ns_row"))
            }
            Kind::ManyCqChurn => {
                get("stems.qstem_probe_ns_row")
                    + results_per_row * per_result
                    + get("stems.qstem_churn_us_pair") * 1e3 / BATCH as f64
            }
            Kind::DurableAgg => {
                get("storage.archive_append_ns_row")
                    + get("operators.aggregate_ns_row")
                    + results_per_row * get("egress.deliver_ns_row")
            }
        }
}

fn sum_counts(passes: &[PassResult], f: impl Fn(&Counts) -> u64) -> f64 {
    passes.iter().map(|p| f(&p.counts)).sum::<u64>() as f64
}

fn merged(passes: &[&PassResult], f: impl Fn(&Counts) -> &Histogram) -> Histogram {
    let mut h = Histogram::default();
    for p in passes {
        h.merge(f(&p.counts));
    }
    h
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run: layer drives, capacity passes alternating untraced and
/// traced (their difference is the tracing overhead), one traced open-loop
/// phase. Per-layer counts are differences of the engine's public stats
/// over the traced passes' measured regions.
fn run_traced(r: &mut Runner, seconds: f64) -> Metrics {
    let mut tr = Tracer::new(true, r.start, 3, 0);
    let scratch = r.out_dir.join(format!("tmp-{}-drives", r.spec.name));
    let mut m = match drives::run(r.spec, r.seed, &scratch, &mut tr) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}: layer drives failed: {e}", r.spec.name);
            r.failed += 1;
            Metrics::new()
        }
    };
    r.spans.extend(tr.into_spans());

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..capacity_passes(seconds) / 2 {
        plain.push(r.pass(Phase::Capacity, false));
        traced.push(r.pass(Phase::Capacity, true));
    }
    let lat = latency_pass(r, seconds, true);
    client_metrics(&mut m, &plain, &lat);

    let rows = traced.iter().map(|p| p.region.rows).sum::<u64>() as f64;
    let cpu_ns_row = m["client.cpu_s_per_mrow"] * 1e3;
    let pass_rows = (r.spec.warm_rows + r.spec.timed_rows) as f64;
    let results_per_row = plain[0].attempted as f64 / pass_rows;
    m.insert(
        "server.glue_ns_row",
        cpu_ns_row - driven_ns_row(r.spec, &m, results_per_row),
    );

    m.insert(
        "net.bytes_in_per_row",
        ratio(sum_counts(&traced, |c| c.net_bytes_in), rows),
    );
    let net_rows_out = sum_counts(&traced, |c| c.net_rows_out);
    m.insert(
        "net.bytes_out_per_row",
        ratio(sum_counts(&traced, |c| c.net_bytes_out), net_rows_out),
    );
    m.insert(
        "net.rows_per_frame_out",
        ratio(net_rows_out, sum_counts(&traced, |c| c.net_frames_out)),
    );
    m.insert("net.rows_lost", sum_counts(&traced, |c| c.net_rows_lost));
    m.insert(
        "fjords.rejects_per_krow",
        ratio(sum_counts(&traced, |c| c.fjord_rejects) * 1e3, rows),
    );
    let all_traced: Vec<&PassResult> = traced.iter().chain([&lat]).collect();
    m.insert(
        "fjords.depth_max",
        all_traced
            .iter()
            .map(|p| p.counts.fjord_depth_max)
            .max()
            .unwrap_or(0) as f64,
    );
    let busy = sum_counts(&traced, |c| c.eo_busy_ns);
    m.insert(
        "executor.eo_busy_share",
        ratio(busy, busy + sum_counts(&traced, |c| c.eo_idle_ns)),
    );
    m.insert(
        "executor.quanta_per_krow",
        ratio(sum_counts(&traced, |c| c.quanta) * 1e3, rows),
    );
    m.insert(
        "server.submit_p50_us",
        merged(&all_traced, |c| &c.submit_ns).quantile_ns(0.5) / 1e3,
    );
    m.insert(
        "server.stop_p50_us",
        merged(&all_traced, |c| &c.stop_ns).quantile_ns(0.5) / 1e3,
    );
    m.insert(
        "stems.shared_bytes_per_query",
        ratio(
            sum_counts(&traced, |c| c.shared_bytes),
            sum_counts(&traced, |c| c.shared_queries),
        ),
    );
    m.insert(
        "egress.offered_rows",
        sum_counts(&traced, |c| c.egress_offered),
    );
    m.insert("egress.shed_rows", sum_counts(&traced, |c| c.egress_shed));
    // The drive's figure stands in when no traced pass wrote an archive.
    let archived = sum_counts(&traced, |c| c.archive_rows);
    if archived > 0.0 {
        m.insert(
            "storage.archive_bytes_per_row",
            sum_counts(&traced, |c| c.archive_bytes) / archived,
        );
    }
    m.insert(
        "storage.ckpt_commit_p50_ms",
        merged(&all_traced, |c| &c.ckpt_ns).quantile_ms(0.5),
    );
    m.insert(
        "storage.ckpt_bytes_per_commit",
        ratio(
            sum_counts(&traced, |c| c.ckpt_bytes),
            sum_counts(&traced, |c| c.ckpt_commits),
        ),
    );
    m.insert("client.failed_rows", r.failed as f64);
    m.insert(
        "trace.overhead_pct",
        (1.0 - ratio(pass_median(&traced, Region::tput), m["client.tput_rows_s"])) * 100.0,
    );
    println!(
        "{}: engine CPU {:.1} ns/row = drives {:.1} + server.glue_ns_row {:.1}",
        r.spec.name,
        cpu_ns_row,
        driven_ns_row(r.spec, &m, results_per_row),
        m["server.glue_ns_row"]
    );
    m
}

fn print_span_table(spans: &[Span]) {
    println!(
        "{:<28} {:>9} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, calls, total, own) in trace::summarize(spans) {
        println!(
            "{name:<28} {calls:>9} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// Remove scratch a killed earlier run of this workload left behind.
fn clear_stale_scratch(out_dir: &Path, workload: &str) {
    let prefix = format!("tmp-{workload}-");
    let Ok(entries) = std::fs::read_dir(out_dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn main() {
    let args = parse_args();
    let start = Instant::now();
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    clear_stale_scratch(&out_dir, args.spec.name);
    spawn_watchdog(start, args.spec.name);
    let mut r = Runner {
        spec: args.spec,
        seed: args.seed,
        start,
        out_dir,
        next_pass: 1,
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    println!(
        "{}: seed {}, {} s, {}, {} CPU(s) — {}",
        args.spec.name,
        args.seed,
        args.seconds,
        if args.trace {
            "traced run"
        } else {
            "end-to-end run"
        },
        std::thread::available_parallelism().map_or(0, usize::from),
        args.spec.why
    );

    let (metrics, listed): (Metrics, &[(&str, &str)]) = if args.trace {
        let m = run_traced(&mut r, args.seconds);
        let path = r.out_dir.join(format!("trace-{}.jsonl", args.spec.name));
        match trace::write_jsonl(&path, args.spec.name, &r.spans) {
            Ok(()) => println!("{} spans written to {}", r.spans.len(), path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                r.failed += 1;
            }
        }
        print_span_table(&r.spans);
        (m, &PER_LAYER)
    } else {
        (run_end_to_end(&mut r, args.seconds), &END_TO_END)
    };

    // What the untraced run measured besides its end-to-end metrics.
    for (name, unit) in PER_LAYER.iter().filter(|_| !args.trace) {
        if let Some(value) = metrics.get(name) {
            println!("{:<34} {value:>16.4} {unit} (no bound)", name);
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in listed {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{:<34} {value:>16.4} {unit}", name);
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{}: attempted {} result rows, failed {}, wall {:.1} s",
        args.spec.name,
        r.attempted,
        r.failed,
        start.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        fields.join(", ")
    );
    if r.failed > 0 {
        std::process::exit(1);
    }
}
