//! What an archive append costs the allocator, counted. A counting
//! allocator wraps 100 000 appends to one `StreamArchive`: a record is
//! encoded in place into the tail page's buffer, and a seal frames it into
//! the archive's one page buffer and writes it around the buffer pool, so
//! the heap is touched neither per row nor per sealed page. The allocator
//! is global, so this file is its own test binary.

use tcq_common::{CountingAlloc, DataType, Field, Schema, Timestamp, Tuple, TupleBuilder};
use tcq_storage::{BufferPool, StreamArchive};

#[global_allocator]
static ALLOCS: CountingAlloc = CountingAlloc::new();

const ROWS: i64 = 100_000;

#[test]
fn appends_allocate_nothing_per_row_or_per_page() {
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
    // What is left grows once per archive, not per page: the tail buffer
    // doubling to its working size (~12) and the page index (~8 over the
    // ~490 pages here), 20 in all today. A regression looks like a seal
    // allocating its page again (~490, or ~980 with a pool frame around
    // it), a record encoded into a fresh `CkptWriter` (4 allocations per
    // row, ~400 000 here) or anything else paid per row (≥ 100 000).
    assert!(
        allocs <= 32,
        "{allocs} allocations for {ROWS} appends over {pages} sealed pages"
    );
    assert_eq!(archive.len(), ROWS as u64);
    drop(archive);
    std::fs::remove_file(path).ok();
}
