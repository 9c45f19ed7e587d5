//! What materializing a row costs the allocator, counted. A row is one
//! block holding its header and its cells; building it from an
//! exact-length iterator allocates that block once, where collecting a
//! `Vec<Value>` first pays twice and copies. Re-stamping or re-schemaing
//! a row writes its block in place when the handle is the only one and
//! copies it once when it is shared. The allocator is global, so this file
//! is its own test binary.

use tcq_common::{
    ColumnBatch, CountingAlloc, DataType, Field, Schema, Timestamp, Tuple, TupleBuilder,
};

#[global_allocator]
static ALLOCS: CountingAlloc = CountingAlloc::new();

const ROWS: usize = 64;

/// Allocations `f` makes, and what it returns.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.count(f)
}

/// Each row path allocates exactly one block per row; no cell of these
/// rows allocates on its own.
#[test]
fn every_materialized_row_is_one_allocation() {
    let schema = Schema::qualified(
        "s",
        vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("flag", DataType::Bool),
        ],
    )
    .into_ref();
    let mut rows = Vec::with_capacity(ROWS);
    let (n, ()) = allocs(|| {
        rows.extend((0..ROWS as i64).map(|i| {
            TupleBuilder::new(schema.clone())
                .push(i)
                .push(i as f64 * 0.5)
                .push(i % 2 == 0)
                .at(Timestamp::logical(i + 1))
                .build()
                .unwrap()
        }))
    });
    assert_eq!(n, ROWS as u64, "TupleBuilder::build");

    let batch = ColumnBatch::from_tuples(schema.clone(), &rows, Some(0));
    let mut out: Vec<Tuple> = Vec::with_capacity(ROWS);
    let (n, ()) = allocs(|| out.extend((0..ROWS).map(|r| batch.tuple_at(r))));
    assert_eq!(n, ROWS as u64, "ColumnBatch::tuple_at");
    assert_eq!(out, rows);
    assert_eq!(out[3].timestamp(), rows[3].timestamp());
    assert_eq!(out[3].cached_key_hash(0), Some(rows[3].key_hash(0)));

    let proj_schema = schema.project(&[2, 0]).into_ref();
    out.clear();
    let (n, ()) =
        allocs(|| out.extend(rows.iter().map(|t| t.project(&[2, 0], proj_schema.clone()))));
    assert_eq!(n, ROWS as u64, "Tuple::project");
    assert_eq!(out[7].value(1), rows[7].value(0));

    let joined = schema.concat(&schema).into_ref();
    out.clear();
    let (n, ()) = allocs(|| out.extend(rows.iter().map(|t| t.concat(&rows[0], joined.clone()))));
    assert_eq!(n, ROWS as u64, "Tuple::concat");
    assert_eq!(out[5].arity(), 6);
    assert_eq!(out[5].value(3), rows[0].value(0));

    // The count is process-wide and a second test's thread allocates as
    // the harness starts it, so this binary measures in one test.
    restamp_and_reschema_copy_only_a_shared_row();
}

/// A consuming re-stamp or re-schema of a row nothing else holds writes
/// its block in place; of a shared row it copies the block, once.
fn restamp_and_reschema_copy_only_a_shared_row() {
    let schema = Schema::qualified(
        "s",
        vec![
            Field::new("k", DataType::Int),
            Field::new("sym", DataType::Str),
        ],
    )
    .into_ref();
    let alias = schema.with_qualifier("c1").into_ref();
    let mut rows: Vec<Tuple> = (0..ROWS as i64)
        .map(|i| {
            TupleBuilder::new(schema.clone())
                .push(i)
                .push("MSFT")
                .build()
                .unwrap()
        })
        .collect();

    let mut out: Vec<Tuple> = Vec::with_capacity(ROWS);
    let (n, ()) = allocs(|| out.extend(rows.drain(..).map(|t| t.restamp(Timestamp::logical(7)))));
    assert_eq!(n, 0, "unique restamp");
    let (n, ()) = allocs(|| rows.extend(out.drain(..).map(|t| t.reschema(alias.clone()).unwrap())));
    assert_eq!(n, 0, "unique reschema");
    assert_eq!(rows[3].timestamp(), Timestamp::logical(7));
    assert_eq!(rows[3].get(Some("c1"), "k").unwrap().as_int().unwrap(), 3);

    let (n, ()) = allocs(|| {
        out.extend(
            rows.iter()
                .map(|t| t.clone().restamp(Timestamp::logical(9))),
        )
    });
    assert_eq!(n, ROWS as u64, "shared restamp");
    assert_eq!(rows[3].timestamp(), Timestamp::logical(7));
    out.clear();
    let (n, ()) = allocs(|| {
        out.extend(
            rows.iter()
                .map(|t| t.clone().reschema(schema.clone()).unwrap()),
        )
    });
    assert_eq!(n, ROWS as u64, "shared reschema");
    assert_eq!(out[3].get(Some("s"), "sym").unwrap(), rows[3].value(1));
}
