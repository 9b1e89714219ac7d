#!/usr/bin/env bash
# The benchmark's one command. From anywhere:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh [--traced] [--seed N] [--runs N] [--smoke]    # all four workloads
#   benchmark/run.sh --compare OLD.json NEW.json
#
# Builds bench-e2e (std only), which then builds and times everything
# else, and prints one JSON result line per run on stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: $root is not a memnet source tree (no Cargo.toml and crates/)" >&2
    exit 2
fi
# One target directory for the root workspace and benchmark/, absolute so
# that cargo means the same place whatever directory it is run from.
case "${CARGO_TARGET_DIR:=$root/target}" in
    /*) ;;
    *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml -p bench-e2e
exec "$CARGO_TARGET_DIR/release/bench-e2e" "$@"
