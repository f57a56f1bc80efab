#!/usr/bin/env bash
# A/A check: the full benchmark twice on one commit and one seed, then
# every end-to-end metric of every workload against its bound. Exact
# metrics and run digests must match bit for bit; the wall-clock rows
# show the observed difference beside the bound. Exits non-zero on any
# `differs` row.
#
# Usage: benchmark/aa.sh [seed] [--smoke]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-1986}"
shift || true
mkdir -p "$here/out"
run() { cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"; }
for pass in 1 2; do
    echo "aa: pass $pass (log: $here/out/aa-$pass.log)"
    run --seed "$seed" --out "$here/out/aa-$pass.json" "$@" > "$here/out/aa-$pass.log" 2>&1
done
run --compare "$here/out/aa-1.tsv" "$here/out/aa-2.tsv"
