//! Experiment E10 (DESIGN.md): out-of-core stream history (paper §4.3) —
//! sequential append throughput, windowed historical scans through the
//! buffer pool (hot vs cold), and the backward-window "browsing" read
//! pattern over bounded memory.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_storage
//! ```

use tcq_bench::{kv, kv_schema, timed, Table};
use tcq_storage::{BufferPool, StreamArchive};

const N: i64 = 500_000;

fn main() {
    println!("E10 — stream archive: {N} tuples spooled around an 8 MiB buffer pool\n");
    let schema = kv_schema("S");
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tcq-exp-storage-{}.seg", std::process::id()));
    let pool = BufferPool::new(1024, 8192);
    let mut archive = StreamArchive::create(&path, schema.clone(), pool.clone()).unwrap();

    // Append (sequential write path).
    let ((), append_us) = timed(|| {
        for i in 1..=N {
            archive.append(&kv(&schema, i % 100, i, i)).unwrap();
        }
        archive.flush().unwrap();
    });
    println!(
        "  append: {N} tuples in {append_us} us ({:.1} Mtuples/s), {} sealed pages\n",
        N as f64 / append_us as f64,
        archive.sealed_pages()
    );

    // Windowed scans: cold (cleared pool) vs hot (rescan).
    let mut table = Table::new(&[
        "window width",
        "cold us",
        "hot us",
        "pages read (cold)",
        "rows",
    ]);
    for width in [1_000i64, 10_000, 100_000] {
        let l = N / 2;
        let r = l + width - 1;
        pool.clear();
        let misses_before = pool.stats().misses;
        let mut out = Vec::new();
        let (_, cold_us) = timed(|| archive.scan_window(l, r, &mut out).unwrap());
        let pages = pool.stats().misses - misses_before;
        let rows = out.len();
        out.clear();
        let (_, hot_us) = timed(|| archive.scan_window(l, r, &mut out).unwrap());
        table.row(vec![
            width.to_string(),
            cold_us.to_string(),
            hot_us.to_string(),
            pages.to_string(),
            rows.to_string(),
        ]);
    }
    table.print();

    // Backward-window browsing (§4.1: "windows that move backwards
    // starting from the present time").
    pool.clear();
    let mut rows = 0usize;
    let ((), browse_us) = timed(|| {
        let mut out = Vec::new();
        let mut t = N;
        while t > N - 100_000 {
            out.clear();
            archive.scan_window(t - 999, t, &mut out).unwrap();
            rows += out.len();
            t -= 1000;
        }
    });
    println!(
        "\n  backward browsing: 100 hops of width 1000 over recent history in \
         {browse_us} us ({rows} rows), cache hit rate {:.0}%",
        100.0 * pool.stats().hits as f64 / (pool.stats().hits + pool.stats().misses) as f64
    );
    println!(
        "\n  shape check (§4.3): writes are strictly sequential and go around the\n\
         \x20 pool; windowed reads touch only overlapping pages (pages-read\n\
         \x20 scales with window width, not archive size); re-reads are served\n\
         \x20 from the pool.\n"
    );
    std::fs::remove_file(path).ok();
}
