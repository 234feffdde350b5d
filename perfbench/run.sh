#!/usr/bin/env bash
# Build iofwdd and the benchmark from the checkout this is run from, then
# run one benchmark invocation against a live daemon:
#
#   bash perfbench/run.sh --workload bulk_rw|small_ops|checkpoint \
#        --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/iofwd ]; then
    echo "perfbench: run from the repository root (no Cargo.toml or crates/iofwd here)" >&2
    exit 2
fi
# The benchmark is a package of its own; build it into the same target
# directory as the daemon so both binaries are found in one place.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p iofwd --bin iofwdd 1>&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml \
    --target-dir "$target" 1>&2
exec "$target/release/perfbench" --iofwdd "$target/release/iofwdd" "$@"
