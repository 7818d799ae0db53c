#!/bin/sh
# Builds ldvbench from source and runs it with the given arguments, from
# the repository root whatever the current directory:
#
#   sh bench/e2e/ldvbench.sh run --workload q1-included --seed 7
#
# The build stays in the repository's _build directory, the compilers'
# temporary files included: no dune config file or shared build cache is
# read or written.
cd "$(dirname "$0")/../.." || exit 1
mkdir -p _build/.tmp || exit 1
TMPDIR="$PWD/_build/.tmp" exec dune exec --root . --no-config \
  --cache=disabled --display=quiet bench/e2e/ldvbench.exe -- "$@"
