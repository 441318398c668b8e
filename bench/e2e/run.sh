#!/bin/sh
# Build the end-to-end benchmark from this checkout's sources and run it.
# Every argument goes to e2e.exe (see README.md in this directory), e.g.
#   sh bench/e2e/run.sh --workload ring-5e4 --seed 1 --seconds 20 --trace 0
# Build output stays in the checkout's _build; the shared dune cache is
# not used. Exits non-zero without a result when the sources are absent.
set -e
cd "$(dirname "$0")/../.."
exec dune exec --root . --cache=disabled --display quiet --no-print-directory bench/e2e/e2e.exe -- "$@"
