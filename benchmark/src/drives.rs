//! Per-layer drives: single-threaded timings of each layer's outermost
//! public entry point over the first [`DRIVE_ROWS`] generated rows of the
//! workload. They call the layers from outside; nothing in the engine is
//! instrumented. A layer that is not on the workload's path gets no drive
//! (its metrics stay 0 for that workload).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tcq_common::{
    Catalog, DataType, Expr, Field, Kernel, Result, Schema, SourceKind, TcqError, Timestamp, Tuple,
    Value,
};
use tcq_eddy::{Eddy, EddyConfig, LotteryPolicy, ModuleSpec};
use tcq_egress::EgressRouter;
use tcq_fjords::{fjord, FjordMessage, QueueKind};
use tcq_net::{Frame, FrameReader, FrameWriter};
use tcq_operators::{AggFunc, AggSpec, EddyModule, GroupByAggregator, ProjectOp, SelectOp, StemOp};
use tcq_query::{analyze, parse, AnalyzedQuery};
use tcq_server::planner::{join_window_width, source_predicate, stripped_predicate};
use tcq_stems::{IndexKind, MatchScratch, QueryStem, SteM};
use tcq_storage::{BufferPool, StreamArchive};
use tcq_windows::WindowSeq;

use crate::trace::Tracer;
use crate::workload::{self, Generator, Kind, Spec, BATCH, DRIVE_ROWS};

pub type Metrics = BTreeMap<&'static str, f64>;

struct Driver<'a> {
    tr: &'a mut Tracer,
    root: u32,
    out: Metrics,
}

impl Driver<'_> {
    /// Time `f` once and record `name` = elapsed ns / `per`.
    fn per<T>(&mut self, name: &'static str, per: usize, f: impl FnOnce() -> T) -> T {
        let span = self.tr.begin(name, self.root);
        let started = Instant::now();
        let out = black_box(f());
        let ns = started.elapsed().as_nanos() as f64;
        self.tr.end(span);
        self.out.insert(name, ns / per.max(1) as f64);
        out
    }

    /// Like [`Driver::per`], reported in µs instead of ns.
    fn per_us<T>(&mut self, name: &'static str, per: usize, f: impl FnOnce() -> T) -> T {
        let out = self.per(name, per, f);
        if let Some(v) = self.out.get_mut(name) {
            *v /= 1e3;
        }
        out
    }
}

fn catalog(spec: &Spec) -> Result<Catalog> {
    let catalog = Catalog::new();
    catalog.register(spec.stream, spec.stream_schema(), SourceKind::PushStream)?;
    if matches!(spec.kind, Kind::JoinInproc | Kind::JoinTcp) {
        catalog.register("dim", workload::dim_schema(), SourceKind::Table)?;
    }
    Ok(catalog)
}

fn analyzed(sql: &str, catalog: &Catalog) -> Result<AnalyzedQuery> {
    analyze(&parse(sql)?, catalog)
}

fn chunks(rows: &[Tuple]) -> Vec<Vec<Tuple>> {
    rows.chunks(BATCH).map(<[Tuple]>::to_vec).collect()
}

/// `Kernel::eval_pred` of `pred` over `rows`.
fn kernel_drive(d: &mut Driver<'_>, pred: &Expr, rows: &[Tuple]) -> Result<()> {
    let schema = rows[0].schema().clone();
    let kernel = Kernel::compile(&pred.bind(&schema)?)
        .ok_or_else(|| TcqError::Executor("workload predicate does not compile".into()))?;
    d.per("common.kernel_eval_ns_row", rows.len(), || {
        rows.iter()
            .filter(|t| kernel.eval_pred(t).unwrap_or(false))
            .count()
    });
    Ok(())
}

/// `enqueue_batch` + `dequeue_batch` of 64-row batches through one fjord.
fn fjord_drive(d: &mut Driver<'_>, rows: &[Tuple]) -> Result<()> {
    let (producer, consumer) = fjord(1024, QueueKind::Push);
    let mut batches: Vec<Vec<FjordMessage>> = chunks(rows)
        .into_iter()
        .map(|c| c.into_iter().map(FjordMessage::Tuple).collect())
        .collect();
    let mut out = Vec::with_capacity(BATCH);
    d.per("fjords.batch_roundtrip_ns_row", rows.len(), || {
        for msgs in &mut batches {
            producer.enqueue_batch(msgs)?;
            consumer.dequeue_batch(&mut out, BATCH);
            out.clear();
        }
        Ok::<_, TcqError>(())
    })
}

/// `EgressRouter::deliver_batch` of `results` to one push client.
fn egress_drive(d: &mut Driver<'_>, results: &[Tuple]) -> Result<()> {
    let router = EgressRouter::new();
    let rx = router.register_push_client(1, results.len() + 1)?;
    router.subscribe(1, 1)?;
    d.per("egress.deliver_ns_row", results.len(), || {
        for chunk in results.chunks(BATCH) {
            router.deliver_batch([1usize], chunk);
        }
    });
    let delivered = rx.try_iter().count();
    if delivered != results.len() {
        return Err(TcqError::Executor(format!(
            "egress drive delivered {delivered} of {} rows",
            results.len()
        )));
    }
    Ok(())
}

fn join_drives(d: &mut Driver<'_>, spec: &Spec, seed: u64, rows: &[Tuple]) -> Result<Vec<Tuple>> {
    let aq = analyzed(workload::JOIN_SQL, &catalog(spec)?)?;
    let (s, dim) = (&aq.sources[0], &aq.sources[1]);
    // Join DUs see alias-qualified tuples.
    let s_rows: Vec<Tuple> = rows
        .iter()
        .map(|t| t.with_schema(s.schema.clone()))
        .collect::<Result<_>>()?;
    let dim_rows: Vec<Tuple> = workload::dim_rows()
        .iter()
        .map(|t| t.with_schema(dim.schema.clone()))
        .collect::<Result<_>>()?;
    let pred = source_predicate(&aq, 0)
        .ok_or_else(|| TcqError::Executor("join has no stream-side filter".into()))?;
    kernel_drive(d, &pred, &s_rows)?;

    let mut select = SelectOp::new("sel(s)", &pred, &s.schema)?;
    let mut routed = Vec::with_capacity(BATCH);
    d.per("operators.select_ns_row", s_rows.len(), || {
        for chunk in s_rows.chunks(BATCH) {
            routed.clear();
            select.process_batch(chunk, &mut routed)?;
        }
        Ok::<_, TcqError>(())
    })?;

    // SteM: build the stream side, probe the build side, evict the window.
    let key = aq.join_pairs[0].left_col;
    let mut stem_s = SteM::new("s", s.schema.clone(), key, IndexKind::Hash)?;
    let to_build = s_rows.clone();
    d.per("stems.stem_build_ns_row", s_rows.len(), || {
        to_build.into_iter().try_for_each(|t| stem_s.insert(t))
    })?;
    let mut stem_d = SteM::new(
        "d",
        dim.schema.clone(),
        aq.join_pairs[0].right_col,
        IndexKind::Hash,
    )?;
    dim_rows.iter().try_for_each(|t| stem_d.insert(t.clone()))?;
    let mut matches = Vec::new();
    let mut joined = Vec::new();
    d.per("stems.stem_probe_ns_row", s_rows.len(), || {
        for t in &s_rows {
            matches.clear();
            stem_d.probe_eq_hashed(t.key_hash(key), t.value(key), &mut matches);
            if let Some(m) = matches.first() {
                joined.push((t, m.clone()));
            }
        }
    });
    let first_seq = s_rows[0].timestamp().seq();
    d.per("stems.stem_evict_ns_row", s_rows.len(), || {
        let mut evicted = 0;
        let mut edge = first_seq;
        while evicted < s_rows.len() {
            edge += BATCH as i64;
            evicted += stem_s.evict_before_seq(edge);
        }
    });

    // The eddy with the workload's modules, as the server assembles it.
    let aliases = [s.alias.as_str(), dim.alias.as_str()];
    let mut eddy = Eddy::new(
        &aliases,
        Box::new(LotteryPolicy::new()),
        EddyConfig {
            batch_size: BATCH,
            seed,
        },
    )?;
    let bits = [eddy.source_bit(&s.alias)?, eddy.source_bit(&dim.alias)?];
    for (i, source) in aq.sources.iter().enumerate() {
        let other = &aq.sources[1 - i];
        let (own_col, other_col) = if i == 0 {
            (aq.join_pairs[0].left_col, aq.join_pairs[0].right_col)
        } else {
            (aq.join_pairs[0].right_col, aq.join_pairs[0].left_col)
        };
        let mut stem = StemOp::new(
            format!("SteM({})", source.alias),
            source.schema.clone(),
            source.alias.clone(),
            own_col,
            (
                Some(other.alias.clone()),
                other.schema.field(other_col).name.clone(),
            ),
            IndexKind::Hash,
        )?;
        if let Some(width) = join_window_width(&aq, &source.alias)? {
            stem = stem.with_window_width(width);
        }
        eddy.add_module(ModuleSpec::stem(Box::new(stem), bits[i], bits[1 - i]))?;
    }
    let select = SelectOp::new("sel(s)", &pred, &s.schema)?;
    eddy.add_module(ModuleSpec::filter(Box::new(select), bits[0]))?;
    let mut emitted = Vec::new();
    eddy.process_batch(dim_rows, &mut emitted)?;
    let batches = chunks(&s_rows);
    d.per("eddy.batch_ns_row", s_rows.len(), || {
        batches.into_iter().try_for_each(|b| {
            emitted.clear();
            eddy.process_batch(b, &mut emitted)
        })
    })?;
    d.out.insert("eddy.state_rows", eddy.state_size() as f64);

    // Project the rows that pass the filter and found their build row.
    let passing: Vec<Tuple> = {
        let bound = pred.bind(&s.schema)?;
        joined
            .into_iter()
            .filter(|(t, _)| bound.eval_pred(t).unwrap_or(false))
            .map(|(t, m)| t.concat(&m, aq.combined_schema.clone()))
            .collect()
    };
    let project = ProjectOp::new(&aq.projection, &aq.combined_schema)?;
    d.per("operators.project_ns_row", passing.len(), || {
        passing.iter().map(|t| project.apply(t)).collect()
    })
}

/// Wire codec in the server's directions: decode the workload's `Ingest`
/// frames, encode its `Results` frames.
fn wire_drives(d: &mut Driver<'_>, spec: &Spec, rows: &[Tuple], results: &[Tuple]) -> Result<()> {
    let mut writer = FrameWriter::new();
    let mut bytes = Vec::new();
    for chunk in chunks(rows) {
        let frame = Frame::Ingest {
            stream: spec.stream.into(),
            tuples: chunk,
        };
        writer.encode(&frame, &mut bytes);
    }
    let mut reader = FrameReader::new();
    d.per("net.wire_decode_ns_row", rows.len(), || {
        let mut at = 0;
        let mut decoded = 0;
        while let Some((frame, used)) = reader.decode(&bytes[at..])? {
            at += used;
            decoded += frame.row_count();
        }
        Ok::<_, TcqError>(decoded)
    })?;
    let frames: Vec<Frame> = chunks(results)
        .into_iter()
        .map(|tuples| Frame::Results { query: 1, tuples })
        .collect();
    let mut writer = FrameWriter::new();
    let mut buf = Vec::new();
    d.per("net.wire_encode_ns_row", results.len(), || {
        for frame in &frames {
            buf.clear();
            writer.encode(frame, &mut buf);
        }
    });
    Ok(())
}

fn manycq_drives(d: &mut Driver<'_>, spec: &Spec, rows: &[Tuple]) -> Result<Vec<Tuple>> {
    let catalog = catalog(spec)?;
    let qualified = spec.stream_schema().with_qualifier(spec.stream).into_ref();
    let pred_of = |sql: &str| -> Result<Expr> {
        stripped_predicate(&analyzed(sql, &catalog)?)
            .ok_or_else(|| TcqError::Executor("standing query has no predicate".into()))
    };
    let mut stem = QueryStem::new(qualified);
    for (qid, sql) in workload::standing_cq_sql().enumerate() {
        stem.insert_query(qid, Some(&pred_of(&sql)?))?;
    }
    kernel_drive(d, &pred_of(&spec.sample_sql())?, rows)?;

    let mut scratch = MatchScratch::new();
    let mut matched = 0usize;
    let mut results = Vec::new();
    let aq = analyzed(&spec.sample_sql(), &catalog)?;
    let base = spec.stream_schema();
    let items: Vec<_> = aq
        .projection
        .iter()
        .map(|(e, a)| (tcq_server::planner::strip_qualifiers(e), a.clone()))
        .collect();
    let project = ProjectOp::new(&items, &base)?;
    d.per("stems.qstem_probe_ns_row", rows.len(), || {
        for t in rows {
            stem.matching_into(t, &mut scratch)?;
            matched += scratch.matches().len();
        }
        Ok::<_, TcqError>(())
    })?;
    d.out.insert(
        "stems.qstem_matches_per_row",
        matched as f64 / rows.len() as f64,
    );
    // One projected result per delivery.
    let fanout: Vec<&Tuple> = rows
        .iter()
        .flat_map(|t| {
            stem.matching_into(t, &mut scratch).ok();
            std::iter::repeat_n(t, scratch.matches().len())
        })
        .take(DRIVE_ROWS)
        .collect();
    d.per("operators.project_ns_row", fanout.len(), || {
        for t in &fanout {
            results.push(project.apply(t)?);
        }
        Ok::<_, TcqError>(())
    })?;

    // Churn at 10 000 standing queries: insert + remove of a query that
    // names a `sym` the stream never produces.
    const PAIRS: usize = 2_000;
    let churn: Vec<Expr> = (0..PAIRS as i64)
        .map(|n| pred_of(&workload::sym_cq_sql(workload::CHURN_SYM_BASE + n)))
        .collect::<Result<_>>()?;
    let first_free = stem.len();
    d.per_us("stems.qstem_churn_us_pair", PAIRS, || {
        for (n, pred) in churn.iter().enumerate() {
            stem.insert_query(first_free + n, Some(pred))?;
            stem.remove_query(first_free + n)?;
        }
        Ok::<_, TcqError>(())
    })?;
    Ok(results)
}

fn durable_drives(
    d: &mut Driver<'_>,
    spec: &Spec,
    rows: &[Tuple],
    scratch_dir: &Path,
) -> Result<Vec<Tuple>> {
    let aq = analyzed(workload::AGG_SQL, &catalog(spec)?)?;
    let group_col = aq
        .group_by
        .map(|(_, c)| c)
        .ok_or_else(|| TcqError::Executor("aggregate query has no GROUP BY".into()))?;
    let specs = vec![AggSpec::count_star(), AggSpec::over(AggFunc::Avg, 1)];
    let mut groups = Vec::new();
    d.per("operators.aggregate_ns_row", rows.len(), || {
        for window in rows.chunks(workload::AGG_WINDOW as usize) {
            let mut agg = GroupByAggregator::new(group_col, specs.clone());
            window.iter().try_for_each(|t| agg.update(t))?;
            groups.extend(agg.results_sorted());
        }
        Ok::<_, TcqError>(())
    })?;

    let window = aq
        .window
        .clone()
        .ok_or_else(|| TcqError::Executor("aggregate query has no window".into()))?;
    let windows = DRIVE_ROWS;
    d.per("windows.seq_ns_window", windows, || {
        WindowSeq::new(window, 1)
            .take(windows)
            .filter_map(|w| w.ok())
            .map(|w| w.close_time())
            .max()
    });

    std::fs::create_dir_all(scratch_dir)?;
    let path = scratch_dir.join("drive.seg");
    let qualified = spec.stream_schema().with_qualifier(spec.stream).into_ref();
    let mut archive = StreamArchive::create(&path, qualified, BufferPool::new(256, 8192))?;
    d.per("storage.archive_append_ns_row", rows.len(), || {
        rows.iter().try_for_each(|t| archive.append(t))
    })?;
    archive.flush()?;
    let bytes = std::fs::metadata(&path)?.len();
    drop(archive);
    std::fs::remove_dir_all(scratch_dir)?;
    d.out.insert(
        "storage.archive_bytes_per_row",
        bytes as f64 / rows.len() as f64,
    );

    // Result rows shaped like the server's: (t, k, COUNT(*), AVG(v)).
    let out_schema = Schema::new(vec![
        Field::new("t", DataType::Int),
        Field::new("k", DataType::Int),
        Field::new("count", DataType::Int),
        Field::new("avg", DataType::Float),
    ])
    .into_ref();
    Ok(groups
        .into_iter()
        .map(|(key, vals)| {
            let mut row = vec![Value::Int(1), key];
            row.extend(vals);
            Tuple::new_unchecked(out_schema.clone(), row, Timestamp::logical(1))
        })
        .collect())
}

/// Run every drive that applies to `spec`; metric name → value.
pub fn run(spec: &'static Spec, seed: u64, scratch_dir: &Path, tr: &mut Tracer) -> Result<Metrics> {
    let root = tr.begin("drives", 0);
    let mut d = Driver {
        tr,
        root,
        out: Metrics::new(),
    };
    let mut gen = Generator::new(spec, seed);
    let mut rows = Vec::with_capacity(DRIVE_ROWS);
    d.per("common.tuple_build_ns_row", DRIVE_ROWS, || {
        while rows.len() < DRIVE_ROWS {
            gen.fill(BATCH.min(DRIVE_ROWS - rows.len()), &mut rows);
        }
    });

    let sql = spec.sample_sql();
    let cat = catalog(spec)?;
    const PARSES: usize = 200;
    d.per_us("query.parse_analyze_us", PARSES, || {
        (0..PARSES).try_for_each(|_| analyzed(&sql, &cat).map(|_| ()))
    })?;

    fjord_drive(&mut d, &rows)?;
    let results = match spec.kind {
        Kind::JoinInproc | Kind::JoinTcp => join_drives(&mut d, spec, seed, &rows)?,
        Kind::ManyCqChurn => manycq_drives(&mut d, spec, &rows)?,
        Kind::DurableAgg => durable_drives(&mut d, spec, &rows, scratch_dir)?,
    };
    egress_drive(&mut d, &results)?;
    if spec.kind == Kind::JoinTcp {
        wire_drives(&mut d, spec, &rows, &results)?;
    }
    let Driver { tr, out, .. } = d;
    tr.end(root);
    Ok(out)
}
