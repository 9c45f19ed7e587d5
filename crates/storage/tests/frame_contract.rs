//! The `tcq_common::frame` contract, checked for the two on-disk users:
//! the archive-page and checkpoint-block twins of
//! `every_truncation_point_recovers_the_valid_prefix` and
//! `every_single_byte_corruption_is_detected_or_harmless` in
//! `crates/net/tests/wire_properties.rs`, which check it for wire frames.
//!
//! A file cut or corrupted at any byte must reopen to exactly what its
//! user's recovery policy promises, never panic, and never yield a record
//! that was not written: the archive truncates a partial page and skips a
//! corrupt full one; the checkpoint store keeps the blocks before the first
//! bad one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tcq_common::frame::HEADER_LEN;
use tcq_common::{CkptWriter, DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder};
use tcq_storage::{BufferPool, CheckpointStore, StreamArchive};

/// Small pages, so a dozen records span four of them.
const PAGE: usize = 128;
const FLIPS: [u8; 3] = [0x01, 0x80, 0xFF];

fn temp(bytes: &[u8]) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("tcq-frame-{}-{n}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn schema() -> SchemaRef {
    Schema::qualified(
        "s",
        vec![
            Field::new("seq", DataType::Int),
            Field::new("tag", DataType::Str),
        ],
    )
    .into_ref()
}

fn row(seq: i64) -> Tuple {
    TupleBuilder::new(schema())
        .push(seq)
        .push(format!("t{seq}"))
        .at(Timestamp::logical(seq))
        .build()
        .unwrap()
}

/// Reopen archive bytes: the seqs a full scan returns, pages skipped,
/// bytes truncated.
fn reopen_archive(bytes: &[u8]) -> (Vec<i64>, usize, u64) {
    let path = temp(bytes);
    let mut a = StreamArchive::open(&path, schema(), BufferPool::new(4, PAGE)).unwrap();
    let rec = a.recovery().unwrap();
    let mut out = Vec::new();
    a.scan_window(i64::MIN, i64::MAX, &mut out).unwrap();
    drop(a);
    std::fs::remove_file(path).ok();
    let seqs = out.iter().map(|t| t.timestamp().seq()).collect();
    (seqs, rec.pages_skipped, rec.truncated_bytes)
}

/// A sealed four-page archive and the seqs each page holds.
fn archive() -> (Vec<u8>, Vec<Vec<i64>>) {
    let path = temp(&[]);
    let mut a = StreamArchive::create(&path, schema(), BufferPool::new(4, PAGE)).unwrap();
    for seq in 1..=12 {
        a.append(&row(seq)).unwrap();
    }
    a.flush().unwrap();
    drop(a);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(path).ok();
    assert_eq!(bytes.len(), 4 * PAGE);
    let pages = (0..4)
        .map(|p| {
            let (before, ..) = reopen_archive(&bytes[..p * PAGE]);
            let (through, ..) = reopen_archive(&bytes[..(p + 1) * PAGE]);
            through[before.len()..].to_vec()
        })
        .collect();
    (bytes, pages)
}

#[test]
fn every_truncation_point_recovers_the_valid_prefix() {
    let (bytes, pages) = archive();
    for cut in 0..=bytes.len() {
        let (seqs, skipped, truncated) = reopen_archive(&bytes[..cut]);
        assert_eq!(seqs, pages[..cut / PAGE].concat(), "archive cut at {cut}");
        assert_eq!((skipped, truncated), (0, (cut % PAGE) as u64));
    }

    let (bytes, ends) = checkpoint();
    for cut in 0..=bytes.len() {
        let epochs = ends.iter().filter(|&&end| end <= cut).count();
        let (epoch, state, truncated) = reopen_checkpoint(&bytes[..cut]);
        assert_eq!(
            (epoch, state),
            (epochs, committed(epochs)),
            "ckpt cut at {cut}"
        );
        let kept = if epochs == 0 { 0 } else { ends[epochs - 1] };
        assert_eq!(truncated, (cut - kept) as u64);
    }
}

#[test]
fn every_single_byte_corruption_is_detected_or_harmless() {
    let (bytes, pages) = archive();
    for pos in 0..bytes.len() {
        let page = pos / PAGE;
        // The page's frame: header plus its records back to back.
        let mut payload = CkptWriter::new();
        for &seq in &pages[page] {
            payload.put_tuple(&row(seq));
        }
        let frame_end = page * PAGE + HEADER_LEN + payload.len();
        for flip in FLIPS {
            let mut bad = bytes.clone();
            bad[pos] ^= flip;
            let (seqs, skipped, _) = reopen_archive(&bad);
            if pos < frame_end {
                // Inside the frame: detected, and only that page is lost.
                let mut rest = pages.clone();
                rest.remove(page);
                assert_eq!((seqs, skipped), (rest.concat(), 1), "archive pos {pos}");
            } else {
                // Zero padding past the frame: harmless.
                assert_eq!((seqs, skipped), (pages.concat(), 0), "archive pos {pos}");
            }
        }
    }

    let (bytes, ends) = checkpoint();
    for pos in 0..bytes.len() {
        // No padding in a block: every byte is covered, so the blocks
        // before the corrupted one are exactly what survives.
        let epochs = ends.iter().filter(|&&end| end <= pos).count();
        for flip in FLIPS {
            let mut bad = bytes.clone();
            bad[pos] ^= flip;
            let (epoch, state, _) = reopen_checkpoint(&bad);
            assert_eq!(
                (epoch, state),
                (epochs, committed(epochs)),
                "ckpt pos {pos}"
            );
        }
    }
}

type Fragments = Vec<(Vec<u8>, Vec<u8>)>;

/// What epochs `1..=epochs` of [`checkpoint`] leave in component `c`.
fn committed(epochs: usize) -> Fragments {
    let mut state: Fragments = (1..=epochs)
        .map(|e| (format!("k{e}").into_bytes(), vec![e as u8; e]))
        .collect();
    if epochs > 0 {
        state.push((b"last".to_vec(), vec![epochs as u8]));
    }
    state
}

/// Four committed epochs and the file offset each block ends at.
fn checkpoint() -> (Vec<u8>, Vec<usize>) {
    let path = temp(&[]);
    let mut s = CheckpointStore::open(&path).unwrap();
    let mut ends = Vec::new();
    for e in 1..=4usize {
        s.put("c", format!("k{e}").as_bytes(), &vec![e as u8; e]);
        s.put("c", b"last", &[e as u8]);
        s.commit().unwrap();
        ends.push(s.file_len() as usize);
    }
    drop(s);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(path).ok();
    (bytes, ends)
}

/// Reopen checkpoint bytes: epoch, component `c`'s fragments, bytes
/// truncated.
fn reopen_checkpoint(bytes: &[u8]) -> (usize, Fragments, u64) {
    let path = temp(bytes);
    let s = CheckpointStore::open(&path).unwrap();
    let state = s
        .fragments("c")
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    let out = (s.epoch() as usize, state, s.recovery().truncated_bytes);
    drop(s);
    std::fs::remove_file(path).ok();
    out
}
