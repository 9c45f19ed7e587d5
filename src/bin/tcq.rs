//! `tcq` — an interactive TelegraphCQ-rs shell.
//!
//! ```text
//! cargo run --release --bin tcq
//! tcq> \stream quotes stocks 500
//! tcq> SELECT timestamp, stockSymbol, closingPrice
//!      FROM quotes WHERE closingPrice > 50.0;
//! q1 standing
//! tcq> \fetch 5
//! ...
//! ```
//!
//! Plays the role of the paper's client proxy + listener: queries typed
//! here are parsed, planned, and folded into the running executor; results
//! buffer per session and are retrieved with `\fetch` (pull-mode egress).

use std::io::{BufRead, Write};
use std::time::Duration;

use telegraphcq::prelude::*;

const HELP: &str = r#"commands:
  \stream <name> <stocks|network|sensors> [n]   register a stream and attach a
                                                generator of n items (default 1000)
  \push <stream> <v1,v2,...>                    inject one tuple (values by schema)
  \fetch [n]                                    fetch up to n buffered results (default 10)
  \stop <qid>                                   stop a standing query
  \stats                                        engine statistics
  \help                                         this text
  \quit                                         exit

anything else is SQL: SELECT ... FROM ... [WHERE ...] [GROUP BY ...]
[for (t = ...; ...; ...) { WindowIs(stream, l, r); ... }]
end plain SQL with ';' (window clauses may end with '}')"#;

fn main() {
    let archive_dir = std::env::temp_dir().join(format!("tcq-cli-{}", std::process::id()));
    let server = TelegraphCQ::start(ServerConfig {
        archive_dir: Some(archive_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server start");
    let client = server.connect_pull_client(100_000).expect("client");
    println!("TelegraphCQ-rs shell — \\help for commands");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("tcq> ");
        } else {
            print!("...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !command(&server, client, trimmed) {
                break;
            }
            continue;
        }
        if trimmed.is_empty() && buffer.is_empty() {
            continue;
        }
        buffer.push_str(&line);
        if statement_complete(&buffer) {
            let sql = std::mem::take(&mut buffer);
            match server.submit(sql.trim().trim_end_matches(';'), client) {
                Ok(qid) => println!("q{qid} standing"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
    }
    server.shutdown().ok();
    std::fs::remove_dir_all(archive_dir).ok();
}

/// A statement is complete when braces balance and it ends with ';' or '}'.
fn statement_complete(buf: &str) -> bool {
    let opens = buf.matches('{').count();
    let closes = buf.matches('}').count();
    if opens != closes {
        return false;
    }
    let t = buf.trim_end();
    t.ends_with(';') || (opens > 0 && t.ends_with('}'))
}

/// Handle a backslash command; returns false to quit.
fn command(server: &TelegraphCQ, client: u64, cmd: &str) -> bool {
    let parts: Vec<&str> = cmd.split_whitespace().collect();
    match parts[0] {
        "\\quit" | "\\q" => return false,
        "\\help" | "\\h" => println!("{HELP}"),
        "\\stream" => {
            if parts.len() < 3 {
                eprintln!("usage: \\stream <name> <stocks|network|sensors> [n]");
                return true;
            }
            let name = parts[1];
            let n: i64 = parts.get(3).and_then(|s| s.parse().ok()).unwrap_or(1000);
            let source: Option<Box<dyn Source>> = match parts[2] {
                "stocks" => Some(Box::new(
                    StockTicks::new(name, &["MSFT", "IBM", "ORCL", "SUNW"], 42)
                        .with_max_days(n)
                        .with_volatility(1.5),
                )),
                "network" => Some(Box::new(
                    NetworkPackets::new(name, 50, 1.1, 42).with_max_packets(n),
                )),
                "sensors" => Some(Box::new(
                    SensorReadings::new(name, 8, 42)
                        .with_dropout(0.02)
                        .with_max_readings(n),
                )),
                other => {
                    eprintln!("unknown generator '{other}'");
                    None
                }
            };
            let Some(source) = source else { return true };
            let schema = source.schema().clone();
            match server
                .register_stream(name, strip_schema(&schema))
                .and_then(|()| server.attach_source(name, source))
            {
                Ok(()) => println!(
                    "stream {name} registered; {n} tuples flowing; schema {}",
                    schema
                ),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        "\\push" => {
            if parts.len() < 3 {
                eprintln!("usage: \\push <stream> <v1,v2,...>");
                return true;
            }
            match push_csv(server, parts[1], parts[2]) {
                Ok(()) => println!("ok"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        "\\fetch" => {
            let n: usize = parts.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
            // brief settle so freshly pushed tuples flow through
            std::thread::sleep(Duration::from_millis(30));
            match server.fetch(client, n) {
                Ok(results) if results.is_empty() => println!("(no buffered results)"),
                Ok(results) => {
                    for (qid, t) in results {
                        println!("q{qid}: {t:?}");
                    }
                }
                Err(e) => eprintln!("error: {e}"),
            }
        }
        "\\stop" => match parts.get(1).and_then(|s| s.parse::<usize>().ok()) {
            Some(qid) => match server.stop_query(qid) {
                Ok(()) => println!("q{qid} stopped"),
                Err(e) => eprintln!("error: {e}"),
            },
            None => eprintln!("usage: \\stop <qid>"),
        },
        "\\stats" => {
            let ex = server.executor_stats();
            let ledger = server.egress_stats_full();
            println!(
                "queries standing: {} | DUs per EO: {:?} | results delivered: {} (shed {})",
                server.query_count(),
                ex.dus_per_eo,
                ledger.delivered,
                ledger.shed + ledger.displaced + ledger.disconnected_loss
            );
            for def in server.catalog().list() {
                let time = server.stream_time(&def.name).unwrap_or(0);
                println!("  {} {:?} at t={time}", def.name, def.kind);
            }
        }
        other => eprintln!("unknown command '{other}' — \\help"),
    }
    true
}

/// Generators qualify their schemas by stream name; registration wants the
/// bare schema.
fn strip_schema(schema: &SchemaRef) -> SchemaRef {
    Schema::new(schema.fields().to_vec()).into_ref()
}

fn push_csv(server: &TelegraphCQ, stream: &str, csv: &str) -> Result<()> {
    let def = server.catalog().lookup(stream)?;
    let parts: Vec<&str> = csv.split(',').collect();
    if parts.len() != def.schema.len() {
        return Err(TcqError::SchemaMismatch(format!(
            "{} values for schema {}",
            parts.len(),
            def.schema
        )));
    }
    let mut b = TupleBuilder::new(def.schema.clone());
    for (i, raw) in parts.iter().enumerate() {
        let v = match def.schema.field(i).data_type {
            DataType::Int => Value::Int(
                raw.parse()
                    .map_err(|_| TcqError::Type(format!("bad int '{raw}'")))?,
            ),
            DataType::Float => Value::Float(
                raw.parse()
                    .map_err(|_| TcqError::Type(format!("bad float '{raw}'")))?,
            ),
            DataType::Bool => Value::Bool(raw.eq_ignore_ascii_case("true")),
            DataType::Str => Value::str(raw),
        };
        b = b.push(v);
    }
    server.push(stream, b.build()?)
}
