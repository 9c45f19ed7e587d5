#!/usr/bin/env bash
# The benchmark's one command: build the package (a no-op when up to date),
# then run one workload. Arguments are passed through:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The build lands in $CARGO_TARGET_DIR when the caller sets it, otherwise in
# benchmark/target; everything else the run writes goes to benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/tcq-benchmark" "$@"
