#!/usr/bin/env bash
# Build and run lkbench from the root of a checkout:
#
#   bash lkbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#   bash lkbench/run.sh --self-test
#
# Build output goes to stderr, so the last line of stdout is the
# result.  Outside a full checkout (no dune-project or lib/) it exits 2
# without printing a result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f lkbench/dune ]; then
  echo "lkbench: run from the root of a full checkout (dune-project, lib/ and lkbench/ needed)" >&2
  exit 2
fi

dune build --root . lkbench/lkbench.exe 1>&2
# A child, not exec: peak_rss_mb reads the largest reaped child, and
# this shell has already reaped dune.
./_build/default/lkbench/lkbench.exe "$@"
