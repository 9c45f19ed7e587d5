//! Experiment E-clients (DESIGN.md "Network transport & client fleet"):
//! real TCP ingress/egress under a load-generating client fleet.
//!
//! One engine behind the [`tcq_net`] TCP transport serves a fleet of
//! concurrent remote subscribers — each a real socket with its own
//! bounded per-connection egress queue — while ingest connections ship
//! tuple batches over the same wire protocol. The fleet is deliberately
//! mixed:
//!
//! * **healthy** subscribers drain continuously;
//! * **slow** subscribers sleep between reads (their queue backs up and
//!   sheds, nobody else's does);
//! * **stalled** subscribers never read after subscribing (a full socket
//!   plus a full queue must stall only that one connection);
//! * **disconnectors** vanish mid-run without a `Bye` (a crashed client:
//!   the server reclassifies their undrained queue rows as
//!   `disconnected_loss`).
//!
//! Delivery latency is measured end to end over the wire: producers stamp
//! the send instant (microseconds since a shared epoch) into the `v`
//! column, receivers subtract on arrival.
//!
//! Claims demonstrated:
//!
//! * the fleet sustains nonzero end-to-end throughput with p50/p99
//!   delivery latency measured at the remote clients;
//! * the egress ledger stays exact under socket-level churn:
//!   `delivered + shed + displaced + disconnected_loss == offered`;
//! * router delivery equals wire reality: `delivered == rows_written`
//!   summed over connections, and every healthy subscriber received
//!   exactly what its connection's writer put on the wire;
//! * every ingested row is decoded exactly once (`rows_read` equals the
//!   rows shipped), and every connection tears down (`closed ==
//!   accepted`);
//! * the run emits machine-readable `BENCH_clients.json`.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_clients [-- --smoke]
//! ```
//!
//! `--smoke` runs a reduced fleet (64 subscribers) and exits non-zero if
//! any tripwire fails — the gate `scripts/ci.sh` relies on. The full run
//! drives 1000 concurrent TCP subscribers.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tcq_bench::{kv, kv_schema, Table};
use tcq_net::{NetServer, TcqClient};
use tcq_server::{ServerConfig, TcpTransportConfig, TransportConfig};

/// Standing-query key domain: client `i` watches `k = i % KEYS`.
const KEYS: i64 = 100;
/// Rows per ingest batch frame.
const BATCH: usize = 50;
/// Per-connection egress queue capacity (router side of each socket).
const CLIENT_QUEUE: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Healthy,
    Slow,
    Stalled,
    Disconnector,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Healthy => "healthy",
            Role::Slow => "slow",
            Role::Stalled => "stalled",
            Role::Disconnector => "disconnector",
        }
    }
}

struct Fleet {
    subscribers: usize,
    slow: usize,
    stalled: usize,
    disconnectors: usize,
    ingest_conns: usize,
    rows: usize,
}

impl Fleet {
    fn healthy(&self) -> usize {
        self.subscribers - self.slow - self.stalled - self.disconnectors
    }
    fn role(&self, i: usize) -> Role {
        // Interleave the misbehaving clients through the fleet so they do
        // not cluster on adjacent keys.
        if i < self.disconnectors {
            Role::Disconnector
        } else if i < self.disconnectors + self.stalled {
            Role::Stalled
        } else if i < self.disconnectors + self.stalled + self.slow {
            Role::Slow
        } else {
            Role::Healthy
        }
    }
}

#[derive(Debug)]
struct ClientReport {
    role: Role,
    conn: u64,
    received: u64,
    latencies_us: Vec<u64>,
    aborted: bool,
}

fn connect_retry(addr: SocketAddr) -> TcqClient {
    let mut last = None;
    for _ in 0..100 {
        match TcqClient::connect(addr) {
            Ok(c) => return c,
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    panic!("fleet client could not connect: {last:?}");
}

/// Connect-ramp permits. A thousand simultaneous `connect()`s would dump
/// the whole fleet on the listener's backlog at once; the single accept
/// thread (two thread spawns per connection) then drains it slower than
/// the 5s handshake timeout abandons it, and every accepted socket is
/// already dead — a livelock where nobody past the first wave ever
/// subscribes. Bounding how many clients are inside
/// connect-handshake-submit at once turns the herd into a ramp; once
/// subscribed, all [`Fleet::subscribers`] stream concurrently.
const CONNECT_PERMITS: usize = 32;

fn acquire_permit(permits: &AtomicUsize) {
    loop {
        let n = permits.load(Ordering::SeqCst);
        if n > 0
            && permits
                .compare_exchange(n, n - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[allow(clippy::too_many_arguments)]
fn subscriber(
    addr: SocketAddr,
    key: i64,
    role: Role,
    epoch: Instant,
    subscribed: &AtomicUsize,
    done: &AtomicBool,
    permits: &AtomicUsize,
) -> ClientReport {
    acquire_permit(permits);
    let mut c = connect_retry(addr);
    let conn = c.conn_id();
    c.submit(&format!("SELECT k, v FROM s WHERE k = {key}"))
        .expect("submit standing query");
    subscribed.fetch_add(1, Ordering::SeqCst);
    permits.fetch_add(1, Ordering::SeqCst);

    let mut report = ClientReport {
        role,
        conn,
        received: 0,
        latencies_us: Vec::new(),
        aborted: false,
    };
    match role {
        Role::Stalled => {
            // Subscribed, then silent: never reads its socket again. The
            // kernel buffers fill, then the per-connection queue, then the
            // router sheds — all without touching anyone else. Departs
            // without a Bye at the end.
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
            }
            c.abort();
            report.aborted = true;
        }
        Role::Disconnector => {
            // Reads a little to prove liveness, then vanishes mid-run.
            while !done.load(Ordering::SeqCst) && report.received < 5 {
                if let Ok(Some(b)) = c.next_results(Duration::from_millis(50)) {
                    report.received += b.tuples.len() as u64;
                }
            }
            c.abort();
            report.aborted = true;
        }
        Role::Healthy | Role::Slow => {
            loop {
                match c.next_results(Duration::from_millis(50)) {
                    Ok(Some(b)) => {
                        let now = epoch.elapsed().as_micros() as u64;
                        for t in &b.tuples {
                            let sent = t.value(1).as_int().unwrap_or(0) as u64;
                            report.latencies_us.push(now.saturating_sub(sent));
                        }
                        report.received += b.tuples.len() as u64;
                        if role == Role::Slow {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                    Ok(None) => {
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Err(_) => break, // server went away (shutdown race)
                }
            }
            let _ = c.bye();
        }
    }
    report
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn gate(cond: bool, msg: &str) {
    if !cond {
        eprintln!("FAIL: {msg}");
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    fleet: &Fleet,
    total_received: u64,
    tuples_per_sec: f64,
    p50: u64,
    p99: u64,
    e: &tcq_egress::EgressStats,
    n: &tcq_net::NetStats,
    wall_ms: f64,
) {
    let json = format!(
        "{{\n  \"experiment\": \"clients\",\n  \"subscribers\": {},\n  \
         \"healthy\": {},\n  \"slow\": {},\n  \"stalled\": {},\n  \
         \"disconnectors\": {},\n  \"ingest_conns\": {},\n  \
         \"rows_ingested\": {},\n  \"rows_received\": {},\n  \
         \"tuples_per_sec\": {:.1},\n  \"p50_us\": {},\n  \"p99_us\": {},\n  \
         \"wall_ms\": {:.1},\n  \"egress\": {{\"offered\": {}, \"delivered\": {}, \
         \"shed\": {}, \"displaced\": {}, \"disconnected\": {}, \
         \"disconnected_loss\": {}}},\n  \"net\": {{\"accepted\": {}, \
         \"closed\": {}, \"rows_read\": {}, \"rows_written\": {}, \
         \"rows_lost_disconnect\": {}}}\n}}\n",
        fleet.subscribers,
        fleet.healthy(),
        fleet.slow,
        fleet.stalled,
        fleet.disconnectors,
        fleet.ingest_conns,
        fleet.rows,
        total_received,
        tuples_per_sec,
        p50,
        p99,
        wall_ms,
        e.offered,
        e.delivered,
        e.shed,
        e.displaced,
        e.disconnected,
        e.disconnected_loss,
        n.accepted,
        n.closed,
        n.rows_read,
        n.rows_written,
        n.rows_lost_disconnect,
    );
    std::fs::write(path, json).expect("write BENCH_clients.json");
    println!("  wrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let fleet = if smoke {
        Fleet {
            subscribers: 64,
            slow: 2,
            stalled: 1,
            disconnectors: 1,
            ingest_conns: 2,
            rows: 2_000,
        }
    } else {
        Fleet {
            subscribers: 1_000,
            slow: 20,
            stalled: 10,
            disconnectors: 10,
            ingest_conns: 4,
            rows: 10_000,
        }
    };
    println!(
        "E-clients: {} TCP subscribers ({} healthy / {} slow / {} stalled / {} disconnecting), \
         {} ingest connections, {} rows",
        fleet.subscribers,
        fleet.healthy(),
        fleet.slow,
        fleet.stalled,
        fleet.disconnectors,
        fleet.ingest_conns,
        fleet.rows
    );

    let server = NetServer::start(ServerConfig {
        transport: TransportConfig::Tcp(TcpTransportConfig {
            addr: "127.0.0.1:0".into(),
            client_queue: CLIENT_QUEUE,
        }),
        ..ServerConfig::default()
    })
    .expect("start server");
    server
        .engine()
        .register_stream("s", kv_schema("s"))
        .expect("register stream");
    let addr = server.local_addr().expect("tcp transport bound");
    let epoch = Instant::now();

    // --- Fleet spawn: every subscriber is one real TCP connection. ---
    let subscribed = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let permits = Arc::new(AtomicUsize::new(CONNECT_PERMITS));
    let reports: Arc<Mutex<Vec<ClientReport>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::with_capacity(fleet.subscribers);
    for i in 0..fleet.subscribers {
        // Spawn gating: never let more than a window of not-yet-subscribed
        // clients exist. A thousand threads contending for 32 permits is
        // its own context-switch storm on a small machine; keeping the
        // window tight means permit waiters are few and everyone already
        // subscribed is parked in a blocking socket read.
        while i.saturating_sub(subscribed.load(Ordering::SeqCst)) > 64 {
            std::thread::sleep(Duration::from_millis(10));
        }
        let key = i as i64 % KEYS;
        let role = fleet.role(i);
        let (subscribed, done, reports) = (subscribed.clone(), done.clone(), reports.clone());
        let permits = permits.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("fleet-{i}"))
                .stack_size(256 * 1024)
                .spawn(move || {
                    let r = subscriber(addr, key, role, epoch, &subscribed, &done, &permits);
                    reports.lock().unwrap().push(r);
                })
                .expect("spawn fleet thread"),
        );
    }

    // Every standing query registered before the first row flows.
    let sub_deadline = Instant::now() + Duration::from_secs(300);
    let mut last_report = Instant::now();
    while subscribed.load(Ordering::SeqCst) < fleet.subscribers {
        gate(
            Instant::now() < sub_deadline,
            "fleet never finished subscribing",
        );
        if last_report.elapsed() > Duration::from_secs(5) {
            println!(
                "  ... {}/{} subscribed",
                subscribed.load(Ordering::SeqCst),
                fleet.subscribers
            );
            last_report = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "  fleet subscribed ({} standing queries)",
        fleet.subscribers
    );

    // --- Ingest: remote producers ship stamped rows over the wire. ---
    let t0 = Instant::now();
    let per_conn = fleet.rows / fleet.ingest_conns;
    let mut producers = Vec::new();
    for p in 0..fleet.ingest_conns {
        producers.push(std::thread::spawn(move || {
            let schema = kv_schema("s");
            let mut c = connect_retry(addr);
            let base = p * per_conn;
            let mut sent = 0usize;
            while sent < per_conn {
                let n = BATCH.min(per_conn - sent);
                let batch: Vec<_> = (0..n)
                    .map(|j| {
                        let i = (base + sent + j) as i64;
                        kv(&schema, i % KEYS, epoch.elapsed().as_micros() as i64, i)
                    })
                    .collect();
                c.ingest("s", batch).expect("ingest batch");
                sent += n;
                // Pace the burst: delivery fan-out shares the core.
                std::thread::sleep(Duration::from_millis(1));
            }
            // Flush before departing: ingest frames carry no ack, but the
            // Pong round-trips through the same dispatch loop, so its
            // arrival proves every prior batch reached the engine. Without
            // it, joining this thread races the tail of the byte stream
            // against the main thread's finish_stream. Each ping waits 5s;
            // retry while the dispatch loop digests the ingest backlog.
            let flushed = (0..24u64).any(|t| c.ping(p as u64 * 100 + t).is_ok());
            assert!(flushed, "producer flush ping never answered");
            c.bye().expect("producer bye");
            sent
        }));
    }
    let mut shipped = 0usize;
    for p in producers {
        shipped += p.join().expect("producer thread");
    }
    server.engine().finish_stream("s").expect("eof");
    gate(
        server.engine().quiesce(Duration::from_secs(120)),
        "engine never quiesced after ingest",
    );

    // --- Drain and tear down the fleet. ---
    done.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("fleet thread");
    }
    let wall = t0.elapsed();
    let reports = Arc::try_unwrap(reports).unwrap().into_inner().unwrap();

    // Every connection (fleet + producers) must fully tear down, and the
    // dead disconnectors must be settled in the ledger.
    let settle_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let n = server.net_stats();
        let e = server.engine().egress_stats_full();
        if n.closed == n.accepted && e.accounted() {
            break;
        }
        gate(
            Instant::now() < settle_deadline,
            "connections never settled after fleet teardown",
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let e = server.engine().egress_stats_full();
    let n = server.net_stats();
    let conns = server.conn_stats();

    // --- Aggregate. ---
    let total_received: u64 = reports.iter().map(|r| r.received).sum();
    let mut lat: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    lat.sort_unstable();
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    let tuples_per_sec = total_received as f64 / wall.as_secs_f64();

    let mut table = Table::new(&["role", "clients", "received", "p50 us", "p99 us", "aborted"]);
    for role in [Role::Healthy, Role::Slow, Role::Stalled, Role::Disconnector] {
        let rs: Vec<&ClientReport> = reports.iter().filter(|r| r.role == role).collect();
        let mut rl: Vec<u64> = rs
            .iter()
            .flat_map(|r| r.latencies_us.iter().copied())
            .collect();
        rl.sort_unstable();
        table.row(vec![
            role.name().into(),
            rs.len().to_string(),
            rs.iter().map(|r| r.received).sum::<u64>().to_string(),
            percentile(&rl, 0.50).to_string(),
            percentile(&rl, 0.99).to_string(),
            rs.iter().filter(|r| r.aborted).count().to_string(),
        ]);
    }
    table.print();
    println!(
        "\n  {:.0} tuples/sec end-to-end over {} connections ({:.1}s wall)\n  \
         ledger: offered {} = delivered {} + shed {} + displaced {} + lost {}\n  \
         wire: rows_read {} rows_written {} lost_at_disconnect {}",
        tuples_per_sec,
        n.accepted,
        wall.as_secs_f64(),
        e.offered,
        e.delivered,
        e.shed,
        e.displaced,
        e.disconnected_loss,
        n.rows_read,
        n.rows_written,
        n.rows_lost_disconnect,
    );

    // --- Tripwires: the claims this experiment is allowed to make. ---
    gate(shipped == fleet.rows, "producers shipped every row");
    gate(
        n.rows_read == fleet.rows as u64,
        "every ingested row decoded off the wire exactly once",
    );
    gate(total_received > 0, "fleet throughput must be nonzero");
    gate(tuples_per_sec > 0.0, "tuples/sec must be nonzero");
    gate(e.accounted(), "egress ledger must balance exactly");
    gate(
        e.delivered == n.rows_written,
        "router delivery must equal rows on the wire",
    );
    gate(
        n.rows_lost_disconnect == e.disconnected_loss,
        "transport and router must agree on disconnect loss",
    );
    // Exact per-connection truth: every healthy subscriber received
    // precisely what its connection's writer put on the wire.
    for r in reports.iter().filter(|r| r.role == Role::Healthy) {
        let snap = conns.iter().find(|c| c.conn == r.conn);
        gate(snap.is_some(), "healthy client's connection is accounted");
        gate(
            snap.unwrap().rows_written == r.received,
            "healthy client received exactly its connection's wire rows",
        );
    }
    gate(
        lat.len() as u64
            >= total_received
                - reports
                    .iter()
                    .filter(|r| r.aborted)
                    .map(|r| r.received)
                    .sum::<u64>(),
        "latency recorded for every drained row",
    );
    gate(p99 >= p50, "percentiles must be ordered");

    if !smoke {
        write_json(
            "BENCH_clients.json",
            &fleet,
            total_received,
            tuples_per_sec,
            p50,
            p99,
            &e,
            &n,
            wall.as_secs_f64() * 1000.0,
        );
    }

    server.shutdown().expect("server shutdown");
    println!(
        "\n  ok: the wire is load-bearing — {} sockets, exact ledger",
        1 + fleet.subscribers + fleet.ingest_conns
    );
}
