//! What an archive append costs the allocator, counted. A counting
//! allocator wraps 100 000 appends to one `StreamArchive`: a record is
//! encoded in place into the tail page's buffer, so the heap is touched
//! per sealed page (the page handed to the buffer pool, its cache entry),
//! never per row. The allocator is global, so this file is its own test
//! binary.

use tcq_common::{CountingAlloc, DataType, Field, Schema, Timestamp, Tuple, TupleBuilder};
use tcq_storage::{BufferPool, StreamArchive};

#[global_allocator]
static ALLOCS: CountingAlloc = CountingAlloc::new();

const ROWS: i64 = 100_000;

#[test]
fn appends_allocate_per_sealed_page_not_per_row() {
    let schema = Schema::qualified(
        "s",
        vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("tag", DataType::Str),
        ],
    )
    .into_ref();
    let rows: Vec<Tuple> = (1..=ROWS)
        .map(|seq| {
            TupleBuilder::new(schema.clone())
                .push(seq % 64)
                .push(seq as f64 * 0.5)
                .push(format!("t{}", seq % 1000))
                .at(Timestamp::logical(seq))
                .build()
                .unwrap()
        })
        .collect();
    let path = std::env::temp_dir().join(format!("tcq-append-allocs-{}.seg", std::process::id()));
    let mut archive = StreamArchive::create(&path, schema, BufferPool::new(256, 8192)).unwrap();

    let before = ALLOCS.allocs();
    for t in &rows {
        archive.append(t).unwrap();
    }
    let allocs = ALLOCS.allocs() - before;

    let pages = archive.sealed_pages() as u64;
    assert!(pages > 100, "the run seals pages ({pages})");
    // A seal allocates the page it hands to the pool and the pool's
    // `Arc` around it, plus an occasional index or cache-map growth:
    // ~2 per page, ~1 000 for the ~490 pages here. A regression looks like
    // a record encoded into a fresh `CkptWriter` again (4 allocations per
    // row, ~400 000 here) or anything else paid per row (≥ 100 000).
    assert!(
        allocs <= 4 * pages + 64,
        "{allocs} allocations for {ROWS} appends over {pages} sealed pages"
    );
    assert_eq!(archive.len(), ROWS as u64);
    drop(archive);
    std::fs::remove_file(path).ok();
}
