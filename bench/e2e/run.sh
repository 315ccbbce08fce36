#!/usr/bin/env bash
# Builds planck-e2e from source in .bench_build/ and runs it with the
# arguments given, from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload te-stride --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result. Exits non-zero, printing no result, when the
# simulator's sources are not there to build.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $root holds no simulator sources (dune-project, lib/)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

build_dir=.bench_build
# The compiler's temporary files stay in the checkout too.
export TMPDIR="$root/$build_dir/tmp"
mkdir -p "$TMPDIR"
dune build --root . --build-dir "$build_dir" --cache=disabled \
  ./bench/e2e/planck_e2e.exe 1>&2

exec "$build_dir/default/bench/e2e/planck_e2e.exe" "$@"
