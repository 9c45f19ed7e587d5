//! Experiment E8 (DESIGN.md): the window-type memory asymmetry of paper
//! §4.1.2, measured on the server —
//!
//! > "For a landmark window, it is possible to compute the answer
//! > iteratively … for a sliding window, computing the maximum requires
//! > the maintenance of the entire window."
//!
//! Each case submits one MAX query to a `TelegraphCQ` and pushes the same
//! seeded stream through it. The query's window driver keeps one partial per pane,
//! the span between two window edges of its for-loop, so a landmark MAX
//! holds one partial and a sliding MAX one per pane of its window; with
//! hop 1 every pane is a single tick and the state is the whole window.
//!
//! After each pushed batch's windows are answered the binary reads
//! `TelegraphCQ::aggregate_state_entries` and the resident set. The gates
//! are counts, never times: the most partials seen stay within 2 for the
//! landmark and panes per window + 1 for a sliding window, every closed
//! window is answered once, and every answer equals the MAX recomputed
//! from the rows pushed.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_window_memory [-- --smoke]
//! ```

use std::time::{Duration, Instant};

use tcq_bench::{kv, kv_schema, Table};
use tcq_common::rng::seeded;
use tcq_server::{ServerConfig, TelegraphCQ};

/// Rows pushed per batch: a quarter of a hop-1000 pane.
const BATCH: i64 = 250;

/// Resident set of this process in MiB (`VmRSS`).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = (status.lines())
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

#[derive(Default)]
struct Run {
    peak_entries: usize,
    windows: usize,
    feed_ms: u128,
    peak_rss_mb: f64,
}

/// MAX over `values` (row `i` at time `i + 1`) in the windows
/// `[t - width + 1, t]`, or `[1, t]` without a width, for t = hop, 2·hop, …
fn run(width: Option<i64>, hop: i64, values: &[i64]) -> Run {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let schema = kv_schema("S");
    server.register_stream("S", schema.clone()).unwrap();
    let (client, rx) = server.connect_push_client(1 << 12).unwrap();
    let left = width.map_or("1".into(), |w| format!("t - {}", w - 1));
    let sql = format!(
        "SELECT MAX(v) FROM S for (t = {hop}; t >= 0; t += {hop}) {{ WindowIs(S, {left}, t); }}"
    );
    let qid = server.submit(&sql, client).unwrap();
    let n = values.len() as i64;
    let mut run = Run::default();
    let started = Instant::now();
    for first in (1..=n).step_by(BATCH as usize) {
        let last = (first + BATCH - 1).min(n);
        let batch = (first..=last).map(|ts| kv(&schema, 0, values[ts as usize - 1], ts));
        server.push_batch("S", batch.collect()).unwrap();
        // Every window closed by `last` is answered, with its rows' MAX.
        while run.windows < (last / hop) as usize {
            let (_, row) = (rx.recv_timeout(Duration::from_secs(60)))
                .unwrap_or_else(|_| panic!("{sql}: window {} never answered", run.windows + 1));
            run.windows += 1;
            let t = hop * run.windows as i64;
            let lo = width.map_or(1, |w| (t - w + 1).max(1));
            let want = values[lo as usize - 1..t as usize].iter().max().copied();
            assert_eq!(row.value(0).as_int().unwrap(), t, "{sql}: window order");
            assert_eq!(row.value(1).as_int().ok(), want, "{sql}: MAX at t={t}");
        }
        let entries = server.aggregate_state_entries(qid).unwrap();
        run.peak_entries = run.peak_entries.max(entries);
        run.peak_rss_mb = run.peak_rss_mb.max(rss_mb());
    }
    run.feed_ms = started.elapsed().as_millis();
    server.finish_stream("S").unwrap();
    assert!(server.quiesce(Duration::from_secs(60)), "{sql}: no quiesce");
    assert_eq!(rx.try_iter().count(), 0, "{sql}: answers past the end");
    server.shutdown().unwrap();
    run
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: usize = if smoke { 20_000 } else { 200_000 };
    println!("E8 — MAX over a {n}-row stream on the server: landmark vs sliding windows\n");
    let mut rng = seeded(61);
    let values: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();

    let mut table = Table::new(&[
        "window",
        "panes/window",
        "peak partials",
        "bound",
        "windows",
        "feed ms",
        "peak RSS MiB",
    ]);
    let cases = [
        (None, 1_000),
        (Some(1_000), 1_000),
        (Some(10_000), 1_000),
        (Some(50_000), 1_000),
        (Some(1_000), 1),
    ];
    for (width, hop) in cases {
        let r = run(width, hop, &values);
        let (name, panes, bound) = match width {
            None => ("landmark".to_string(), "-".to_string(), 2),
            Some(w) => (
                format!("sliding w={w} hop={hop}"),
                (w / hop).to_string(),
                w / hop + 1,
            ),
        };
        let peak = r.peak_entries;
        assert!(
            peak <= bound as usize,
            "{name}: {peak} partials, bound {bound}"
        );
        table.row(vec![
            name,
            panes,
            peak.to_string(),
            bound.to_string(),
            r.windows.to_string(),
            r.feed_ms.to_string(),
            format!("{:.1}", r.peak_rss_mb),
        ]);
    }
    table.print();
    println!(
        "\n  shape check (§4.1.2): the landmark MAX is computed iteratively in one\n\
         \x20 partial; a sliding MAX holds one partial per pane of its window, so\n\
         \x20 with hop 1 it keeps the entire window. Every answer equals its recompute.\n"
    );
}
