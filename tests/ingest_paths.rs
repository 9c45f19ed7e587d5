//! End-to-end ingress-path coverage: CSV wrappers, generator wrappers, and
//! several sources feeding one engine concurrently.

use std::time::Duration;

use telegraphcq::prelude::*;

fn settle(server: &TelegraphCQ) {
    let mut last = server.egress_stats_full();
    for _ in 0..400 {
        std::thread::sleep(Duration::from_millis(5));
        let now = server.egress_stats_full();
        if now == last {
            return;
        }
        last = now;
    }
}

#[test]
fn csv_wrapper_end_to_end() {
    let path = std::env::temp_dir().join(format!("tcq-e2e-{}.csv", std::process::id()));
    let mut body = String::new();
    for i in 1..=200 {
        body.push_str(&format!("{i},sensor-{},{}.5\n", i % 4, i));
    }
    std::fs::write(&path, &body).unwrap();

    let schema = Schema::new(vec![
        Field::new("seq", DataType::Int),
        Field::new("name", DataType::Str),
        Field::new("reading", DataType::Float),
    ])
    .into_ref();
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("readings", schema.clone()).unwrap();
    let client = server.connect_pull_client(4096).unwrap();
    let qid = server
        .submit(
            "SELECT seq, reading FROM readings WHERE name = 'sensor-2' AND reading > 100.0",
            client,
        )
        .unwrap();
    server
        .attach_source(
            "readings",
            Box::new(CsvSource::open(&path, schema).unwrap()),
        )
        .unwrap();
    server.quiesce(Duration::from_secs(10));
    settle(&server);

    let got = server.fetch(client, 4096).unwrap();
    // name == sensor-2 ⇔ i % 4 == 2; reading = i + 0.5 > 100 ⇔ i >= 100;
    // qualifying i: 102, 106, ..., 198 → 25 rows.
    assert_eq!(got.len(), 25);
    for (q, row) in &got {
        assert_eq!(*q, qid);
        let i = row.value(0).as_int().unwrap();
        assert_eq!(i % 4, 2);
        assert!(row.value(1).as_float().unwrap() > 100.0);
    }
    server.shutdown().unwrap();
    std::fs::remove_file(path).ok();
}

#[test]
fn three_generators_feed_one_engine() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server
        .register_stream("quotes", StockTicks::schema_for("quotes"))
        .unwrap();
    server
        .register_stream("packets", NetworkPackets::schema_for("packets"))
        .unwrap();
    server
        .register_stream("sensors", SensorReadings::schema_for("sensors"))
        .unwrap();

    let c_quotes = server.connect_pull_client(100_000).unwrap();
    server
        .submit("SELECT timestamp FROM quotes", c_quotes)
        .unwrap();
    let c_packets = server.connect_pull_client(100_000).unwrap();
    server
        .submit(
            "SELECT timestamp FROM packets WHERE proto = 'udp'",
            c_packets,
        )
        .unwrap();
    let c_sensors = server.connect_pull_client(100_000).unwrap();
    server
        .submit("SELECT timestamp FROM sensors", c_sensors)
        .unwrap();

    server
        .attach_source(
            "quotes",
            Box::new(StockTicks::new("quotes", &["A", "B"], 1).with_max_days(100)),
        )
        .unwrap();
    server
        .attach_source(
            "packets",
            Box::new(NetworkPackets::new("packets", 10, 0.5, 2).with_max_packets(500)),
        )
        .unwrap();
    server
        .attach_source(
            "sensors",
            Box::new(
                SensorReadings::new("sensors", 4, 3)
                    .with_dropout(0.05)
                    .with_max_readings(300),
            ),
        )
        .unwrap();
    assert!(server.quiesce(Duration::from_secs(20)), "all streams drain");
    settle(&server);

    assert_eq!(server.fetch(c_quotes, 100_000).unwrap().len(), 200);
    let udp = server.fetch(c_packets, 100_000).unwrap();
    assert!(!udp.is_empty() && udp.len() < 500, "udp is a strict subset");
    assert_eq!(server.fetch(c_sensors, 100_000).unwrap().len(), 300);
    server.shutdown().unwrap();
}

/// Hands out `id = 0, 1, …` eight rows per read, then panics once it has
/// handed out `panic_after` rows.
struct DiesMidStream {
    schema: SchemaRef,
    next: i64,
    panic_after: i64,
}

impl Source for DiesMidStream {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn next_batch(&mut self, _max: usize, out: &mut Vec<Tuple>) -> Result<SourceStatus> {
        if self.next >= self.panic_after {
            panic!("wrapper lost its feed after {} rows", self.next);
        }
        for _ in 0..8.min(self.panic_after - self.next) {
            out.push(
                TupleBuilder::new(self.schema.clone())
                    .push(self.next)
                    .at(Timestamp::logical(self.next))
                    .build()?,
            );
            self.next += 1;
        }
        Ok(SourceStatus::Ready)
    }
}

#[test]
fn attached_source_panic_delivers_the_prefix_then_eofs() {
    // A plain `attach_source` runs on the same supervised thread as
    // `attach_supervised_source`, with a restart budget of zero: the panic
    // is caught and counted, the rows before it are delivered, and the
    // stream ends with EOF instead of going silent.
    const ROWS: i64 = 40;
    let schema = Schema::new(vec![Field::new("id", DataType::Int)]).into_ref();
    let server = TelegraphCQ::start(ServerConfig {
        liveness: Some(LivenessConfig::default()),
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("feed", schema.clone()).unwrap();
    let client = server.connect_pull_client(4096).unwrap();
    server.submit("SELECT id FROM feed", client).unwrap();
    server
        .attach_source(
            "feed",
            Box::new(DiesMidStream {
                schema,
                next: 0,
                panic_after: ROWS,
            }),
        )
        .unwrap();

    let ingress_eof_read = || {
        let snap = server.progress_snapshot().expect("liveness is on");
        let ingress = snap
            .channels
            .iter()
            .find(|c| c.name == "ingress(feed)")
            .expect("the stream's ingress channel is probed");
        ingress.eof_in && ingress.eof_out
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !ingress_eof_read() {
        assert!(
            std::time::Instant::now() < deadline,
            "the stream never saw EOF"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.quiesce(Duration::from_secs(10));
    settle(&server);

    let ids: Vec<i64> = server
        .fetch(client, 4096)
        .unwrap()
        .iter()
        .map(|(_, row)| row.value(0).as_int().unwrap())
        .collect();
    assert_eq!(ids, (0..ROWS).collect::<Vec<_>>(), "the prefix, in order");
    let stats = server.supervisor_stats();
    assert_eq!(
        stats.len(),
        1,
        "a plain source shows up in supervisor_stats"
    );
    let (name, sup) = &stats[0];
    assert_eq!(name, "feed");
    assert_eq!(sup.panics, 1);
    assert!(
        sup.gave_up,
        "no restart budget for a source that cannot be rebuilt"
    );
    assert_eq!(sup.restarts, 0);
    assert_eq!(sup.delivered, ROWS as u64);
    let failure = sup.last_failure.as_deref().unwrap_or_default();
    assert!(
        failure.contains("lost its feed"),
        "panic message kept: {failure}"
    );
    server.shutdown().unwrap();
}

#[test]
fn sliding_avg_from_generator_matches_recomputation() {
    // Windows driven by generator timestamps (several ticks share one
    // trading day): AVG must account for every tick within the window.
    let dir = std::env::temp_dir().join(format!("tcq-gen-win-{}", std::process::id()));
    let server = TelegraphCQ::start(ServerConfig {
        archive_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    server
        .register_stream("quotes", StockTicks::schema_for("quotes"))
        .unwrap();
    let client = server.connect_pull_client(4096).unwrap();
    server
        .submit(
            "SELECT AVG(closingPrice) FROM quotes WHERE stockSymbol = 'A' \
             for (t = 10; t <= 40; t += 10) { WindowIs(quotes, t - 9, t); }",
            client,
        )
        .unwrap();
    // Deterministic generator; collect the same ticks for the reference.
    let mut reference = StockTicks::new("quotes", &["A", "B"], 77).with_max_days(50);
    let mut all = Vec::new();
    reference.next_batch(10_000, &mut all).unwrap();
    server
        .attach_source(
            "quotes",
            Box::new(StockTicks::new("quotes", &["A", "B"], 77).with_max_days(50)),
        )
        .unwrap();
    server.quiesce(Duration::from_secs(10));
    settle(&server);

    let got = server.fetch(client, 4096).unwrap();
    assert_eq!(got.len(), 4, "windows at t = 10, 20, 30, 40");
    for (_, row) in &got {
        let t = row.value(0).as_int().unwrap();
        let avg = row.value(1).as_float().unwrap();
        let (sum, n) = all
            .iter()
            .filter(|tick| {
                let day = tick.value(0).as_int().unwrap();
                tick.value(1).as_str().unwrap() == "A" && day >= t - 9 && day <= t
            })
            .fold((0.0, 0usize), |(s, n), tick| {
                (s + tick.value(2).as_float().unwrap(), n + 1)
            });
        assert!(n > 0);
        assert!((avg - sum / n as f64).abs() < 1e-9, "window ending {t}");
    }
    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}
