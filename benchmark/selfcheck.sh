#!/usr/bin/env bash
# Run the whole untraced benchmark three times back to back and print, per
# (workload, end-to-end metric), the largest value over the smallest.
# Exits non-zero if a run reports a failed row or a ratio is above 1 + half
# the metric's bound in BENCHMARK.json (1.05 at the 10 % bound). setup_s is
# printed but does not fail the check, as the driver leaves it out of its
# own spread check. Takes about five minutes.
#   benchmark/selfcheck.sh [seed] [seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="${2:-24}"
out="$here/out"
mkdir -p "$out"
log="$out/selfcheck.tsv"
: > "$log"
for round in 1 2 3; do
    for workload in join_inproc join_tcp manycq_churn durable_agg; do
        result="$(bash "$here/run.sh" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 | tail -n 1)"
        printf '%s\t%s\t%s\n' "$round" "$workload" "$result" >> "$log"
    done
done
python3 - "$log" "$here/../BENCHMARK.json" <<'EOF'
import json, sys
bounds = {m["name"]: m["bound"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
seen, bad = {}, False
for line in open(sys.argv[1]):
    _, workload, result = line.rstrip("\n").split("\t")
    result = json.loads(result)
    bad |= not result["correct"]
    for name, m in result["metrics"].items():
        seen.setdefault((workload, name), []).append(m["value"])
print(f"{'workload':<14} {'metric':<12} {'min':>10} {'max':>10} {'max/min':>8} {'limit':>6}")
for (workload, name), values in seen.items():
    ratio, limit = max(values) / min(values), 1 + bounds[name] / 2
    over = ratio > limit
    bad |= over and name != "setup_s"
    print(f"{workload:<14} {name:<12} {min(values):>10.4f} {max(values):>10.4f} {ratio:>8.3f} {limit:>6.3f}"
          + ("  over" if over else ""))
sys.exit(1 if bad else 0)
EOF
