#!/bin/sh
# Tier-1 gate: everything here must pass before merging.
# Fully offline — no network, no external dev-dependencies.
set -e

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== plan-state lock gate (ROADMAP direction 13: each DU owns its plan state) =="
# A stream's dispatcher owns its filters and aggregates, and each join DU
# its core; the server reaches them only through the DU's control queue
# (crates/server/src/control.rs). No lock may guard a PlanSet, an AggCore
# or a JoinCore again, no qid-keyed table beside the egress router's query
# table may come back behind a lock, and tcq-server's lock call sites stay
# at or under the 39 left once direction 13 took them off plan state and
# merged the query tables (76 before).
locks=$(grep -o '\.lock()' crates/server/src/*.rs | wc -l)
if [ "$locks" -gt 39 ]; then
    echo "ci: $locks .lock() call sites under crates/server/src (at most 39)" >&2
    exit 1
fi
if grep -n 'Mutex<PlanSet>\|Mutex<AggCore>\|Mutex<JoinCore>\|Mutex<HashMap<QueryId' crates/server/src/*.rs; then
    echo "ci: a lock guards plan state or a second query table again" >&2
    exit 1
fi

echo "== cargo build --release =="
build_start=$(date +%s)
cargo build --release --workspace
build_end=$(date +%s)
echo "release build took $((build_end - build_start))s"

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== cargo test (benchmark package: its own workspace, so not covered above) =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# End-to-end tripwires: one benchmark run must verify every result row and
# stay under a peak-RSS ceiling. Memory is the one end-to-end cost that
# repeats on a shared host (0.2-2.8 % spread), so it is the one that carries
# a gate; speed is guarded by deterministic work counts in the test suites.
# They run before the wall-clock exp_* smokes, so a noisy smoke stopping
# `set -e` on a small host cannot hide them.
bench_gate() {
    workload=$1
    rss_max=$2
    verdict=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 24 --trace 0 | tail -n 1)
    echo "$verdict"
    failed=$(printf '%s' "$verdict" | sed -n 's/.*"failed": *\([0-9][0-9]*\).*/\1/p')
    rss=$(printf '%s' "$verdict" | sed -n 's/.*"peak_rss_mb": *{"value": *\([0-9.][0-9.]*\).*/\1/p')
    if [ -z "$failed" ] || [ -z "$rss" ]; then
        echo "ci: could not parse the benchmark's last line" >&2
        exit 1
    fi
    if [ "$failed" -ne 0 ]; then
        echo "ci: $workload failed $failed result rows" >&2
        exit 1
    fi
    if ! awk -v rss="$rss" -v max="$rss_max" 'BEGIN { exit !(rss <= max) }'; then
        echo "ci: $workload peak_rss_mb $rss > $rss_max MiB" >&2
        exit 1
    fi
}

echo "== benchmark join_inproc (end-to-end tripwire: 0 failed rows, peak RSS <= 9.4 MiB) =="
# A windowed join's SteM holds the half of its window that passes the
# query's own predicate, in column segments, and the push client's 32 768
# pre-built 24-byte slots hold 0.75 MiB (~7.1 MiB here). ~8.7 MiB means the
# row handle is 56 bytes again (~9.6 MiB: 80 bytes); storing every window
# row, or a row object per stored row again, reads ~18 MiB, and
# history-sized state ~95 MiB.
bench_gate join_inproc 9.4

echo "== benchmark join_tcp (end-to-end tripwire: 0 failed rows, peak RSS <= 9.7 MiB) =="
# The same join behind the TCP front door reads ~7.4 MiB: each connection's
# delivery queue holds memory only for the rows in it. A connection that
# pre-allocates its client_queue = 32 768 slots again reads ~13.7 MiB (two
# connections, 3 MiB each), and a SteM storing every window row as an
# Arc<[Value]> ~22 MiB.
bench_gate join_tcp 9.7

echo "== benchmark manycq_churn (end-to-end tripwire: 0 failed rows, peak RSS <= 8.7 MiB) =="
# 10 000 standing CQs with a submit + stop per batch read ~6.8 MiB, each
# CQ one QueryStem entry whose checks, projection and floor are shared
# with its look-alikes (~8.2 MiB with a per-query side table, private
# check lists and Value-keyed anchors); a private projection per query
# again, a leaked subscription per stopped one, state keyed by the query
# ids ever issued, or a superlinear index shows here (~18.5 MiB with
# private projections).
bench_gate manycq_churn 8.7

echo "== benchmark durable_agg (end-to-end tripwire: 0 failed rows, peak RSS <= 7.2 MiB) =="
# A grouped tumbling-window aggregate, archived and checkpointed every
# 64 000 rows, reads ~5.1 MiB: it runs on its stream's dispatcher and
# holds one partial per (pane, group), freed as each window closes, and
# its archive writes sealed pages around the 2 MiB buffer pool (appends
# that fill the pool again read ~7.2 MiB, at the ceiling; tcq-storage's
# appends_write_around_the_pool_and_reads_fill_it pins that exactly).
# State that grows with the stream instead (panes never retired, rows
# kept per window) crosses the ceiling; a window answered wrong fails
# result rows.
bench_gate durable_agg 7.2

echo "== exp_eddy_adaptivity (count tripwire: lottery < random, within 5% of the oracle order, decay < none) =="
./target/release/exp_eddy_adaptivity

echo "== exp_cacq_sharing --smoke (count tripwire: a probe of 1024 CQs examines <= (matches + 1)*2*ceil(log2 n) + 256 index entries; N join CQs store each admitted row once, every CQ exactly its join) =="
./target/release/exp_cacq_sharing --smoke

echo "== exp_psoup --smoke (count tripwire: every ring fetch equals its archive recompute, no ring displaces a row) =="
./target/release/exp_psoup --smoke

echo "== exp_window_memory --smoke (count tripwire: landmark MAX holds <= 2 partials, sliding <= panes per window + 1, every window's MAX equals its recompute) =="
./target/release/exp_window_memory --smoke

echo "== exp_adaptivity_knobs + exp_hybrid_join (one-tuple routing smokes) =="
./target/release/exp_adaptivity_knobs
./target/release/exp_hybrid_join

echo "== exp_chaos --smoke (server-level chaos, reduced scale) =="
./target/release/exp_chaos --smoke

echo "== exp_throughput --smoke (perf tripwire: batched must beat per-tuple) =="
./target/release/exp_throughput --smoke

echo "== exp_scaling --smoke (perf tripwire: P=4 > P=1 on >= 4 cores, else P=4 >= 0.4x P=1) =="
./target/release/exp_scaling --smoke

echo "== exp_kernels --smoke (count tripwire: join hot path <= 2.0 allocs/tuple) =="
./target/release/exp_kernels --smoke

echo "== exp_query_scale --smoke (scale tripwire: zero probe allocs, entries examined 1k -> 100k <= 3x) =="
./target/release/exp_query_scale --smoke

echo "== exp_recovery --smoke (robustness tripwire: kill -> restore loses nothing) =="
./target/release/exp_recovery --smoke

echo "== exp_liveness --smoke (robustness tripwire: watchdog detects wedges, silent on a healthy run) =="
./target/release/exp_liveness --smoke

echo "== exp_clients --smoke (transport tripwire: real TCP fleet, exact dead-client ledger) =="
./target/release/exp_clients --smoke

echo
echo "ci: all green"
