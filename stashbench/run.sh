#!/usr/bin/env bash
# Builds and runs stashbench from the root of a checkout:
#
#   bash stashbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The checkout's own path is mapped to a fixed prefix in every crate the
# benchmark builds. Absolute source paths end up in panic locations, so a
# checkout at a path of another length would shift every function of the
# binary. `trace_report` spends most of its time in one tight loop whose
# speed depends on its address by up to 1.6x, so two checkouts of the same
# code measured apart by that much before the mapping.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd -P)
cd "$root"
export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }--remap-path-prefix=$root=/stash"
exec cargo run --release --offline --quiet --manifest-path stashbench/Cargo.toml -- "$@"
