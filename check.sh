#!/bin/sh
# Full verification: build everything (lib/obs and lib/faults compile
# with -warn-error +a), run the test suite, then run the seeded
# verification campaigns (`ldv check`: each must exit 0 — no untyped
# exceptions, no divergence from the control — and print its golden
# report under test/golden/ byte for byte) and smoke-test the profiler:
# an instrumented audit run is profiled (self/total + critical path must
# render) and diffed against itself with a tight budget (the gate must
# pass on identical runs).
#
# --quick skips the crash/faults campaigns, the profiler smokes and the
# benches (build + tests + the replica/tx campaigns + out-of-range
# argument and file-error checks + the overhead-ledger gate self-check +
# the replicated, server-included and Q3-1 audit package checksums).
set -e
cd "$(dirname "$0")"
root=$(pwd)

quick=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    *) echo "usage: $0 [--quick]" >&2; exit 2 ;;
  esac
done

dune build @all
dune runtest

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# golden NAME ARGS...: `ldv check ARGS` must exit 0 and print
# test/golden/NAME byte for byte
golden() {
  name=$1
  shift
  dune exec bin/ldv.exe -- check "$@" > "$tmpdir/$name"
  diff "test/golden/$name" "$tmpdir/$name"
}

# replication campaigns (also under --quick): seeded ship-fault / crash
# campaigns against a 2-replica cluster (every degraded run verified
# against the control, every replica converged)
golden replica-n5-replicas2.txt replica -n 5 --replicas 2

# transaction recovery campaigns (also under --quick): seeded crashes
# inside open transactions across 4 concurrent sessions; recovery must
# roll back every transaction without a durable COMMIT and match the
# control at transaction granularity, including reenacted provenance
golden tx-n40-sessions4.txt tx -n 40 --sessions 4

# expect STATUS CMD...: CMD must exit with STATUS and print no
# exception on stderr
expect() {
  want=$1
  shift
  status=0
  "$@" > /dev/null 2> "$tmpdir/stderr" || status=$?
  if [ "$status" -ne "$want" ] || grep -q exception "$tmpdir/stderr"; then
    echo "check.sh: $* exited $status, want $want without an exception:" >&2
    cat "$tmpdir/stderr" >&2
    exit 1
  fi
}

# out-of-range counts and scale factors are usage errors (exit 124),
# never a crash or a report that ran nothing (also under --quick)
for args in "crash --sessions 0" "tx --sessions 0" "replica --replicas 0" \
    "crash --campaigns=-1" "tx --campaigns=-3" "faults --sessions 0"; do
  expect 124 dune exec bin/ldv.exe -- check $args
done
expect 124 dune exec bin/ldv.exe -- audit --sf=0 -o "$tmpdir/sf0.ldv"
# the bench harness prints its usage line and exits 2 on a malformed or
# non-positive --sf, as on an unknown command (also under --quick)
for sf in abc 0; do
  expect 2 dune exec bench/main.exe -- table1 --sf "$sf"
done

# names PATH: the last expect's stderr names PATH, the file asked for
names() {
  grep -qF "ldv: $1: " "$tmpdir/stderr" || {
    echo "check.sh: the diagnostic does not name $1:" >&2
    cat "$tmpdir/stderr" >&2
    exit 1
  }
}

# a file that cannot be opened or created is a diagnostic with exit 3,
# the status of an unusable package, not an internal error: a missing
# package, an output in a missing directory or onto a directory, a trace
# file in a missing directory (also under --quick)
for sub in exec inspect trace; do
  expect 3 dune exec bin/ldv.exe -- "$sub" "$tmpdir/missing.ldv"
done
expect 3 dune exec bin/ldv.exe -- audit -o "$tmpdir/missing/app.ldv"
names "$tmpdir/missing/app.ldv"
expect 3 dune exec bin/ldv.exe -- audit -o "$tmpdir"
names "$tmpdir"
expect 3 dune exec bin/ldv.exe -- --obs "jsonl:$tmpdir/missing/t.jsonl" \
  sql "CREATE TABLE t (a INT)"

# planner smoke (also under --quick): the cost model must pick a hash
# index scan for an indexed equality and an ordered-index range scan for
# a selective inequality, and say so in EXPLAIN; an UPDATE reads its rows
# through the same access-path choice as a SELECT
sql="CREATE TABLE emp (id INT, dno INT, sal INT);
CREATE INDEX emp_dno ON emp (dno);
CREATE ORDERED INDEX emp_sal ON emp (sal);"
i=1
while [ "$i" -le 40 ]; do
  sql="$sql INSERT INTO emp VALUES ($i, $((i % 5)), $i);"
  i=$((i + 1))
done
sql="$sql EXPLAIN SELECT id FROM emp WHERE dno = 3;
EXPLAIN SELECT id FROM emp WHERE sal > 35;
EXPLAIN UPDATE emp SET sal = 0 WHERE dno = 3"
plans=$(dune exec bin/ldv.exe -- sql "$sql")
echo "$plans" | grep -q "indexscan(emp.emp_dno)" || {
  echo "check.sh: EXPLAIN did not choose the hash index for an equality" >&2
  exit 1
}
echo "$plans" | grep -q "rangescan(emp.emp_sal" || {
  echo "check.sh: EXPLAIN did not choose the ordered index for a range" >&2
  exit 1
}
echo "$plans" | grep -q "update(indexscan(emp.emp_dno))" || {
  echo "check.sh: EXPLAIN UPDATE did not choose the hash index" >&2
  exit 1
}

# overhead-ledger smoke (also under --quick): stream a replicated
# concurrent audit, render the per-phase ledger and the cluster-wide
# causal timeline, and exercise the gate in both directions — a
# generous budget must pass, and an absurdly tight one must trip
# (exit 5), proving the gate can actually catch a regression
dune exec bin/ldv.exe -- --obs "jsonl:$tmpdir/ov.jsonl" \
  audit --sessions 4 --replicas 2 -o "$tmpdir/ov.ldv" > /dev/null
# the replicated audit's package is deterministic: its checksum and size
# are pinned, so a change to durability or replication that alters what
# gets packaged shows here
cksum < "$tmpdir/ov.ldv" > "$tmpdir/ov.cksum"
diff test/golden/audit-sessions4-replicas2-cksum.txt "$tmpdir/ov.cksum"
# the same for a server-included TPC-H package, whose tables carry
# indexes: its index DDL sections are pinned with the rest
dune exec bin/ldv.exe -- audit --sf 0.002 --inserts 20 --selects 3 \
  --updates 5 -o "$tmpdir/inc.ldv" > /dev/null
cksum < "$tmpdir/inc.ldv" > "$tmpdir/inc.cksum"
diff test/golden/audit-sf0.002-cksum.txt "$tmpdir/inc.cksum"
# and for a Q3-1 package, whose three-table join carries thousands of
# tuple versions per select: the trace counts and the sliced subset
{
  dune exec bin/ldv.exe -- audit --query Q3-1 --sf 0.002 --inserts 20 \
    --selects 3 --updates 5 -o "$tmpdir/q3.ldv" \
    | grep '^execution trace:' || true
  cksum < "$tmpdir/q3.ldv"
} > "$tmpdir/q3.txt"
diff test/golden/audit-q3-sf0.002.txt "$tmpdir/q3.txt"
dune exec bin/ldv.exe -- overhead "$tmpdir/ov.jsonl" --gate 500 > /dev/null
if dune exec bin/ldv.exe -- overhead "$tmpdir/ov.jsonl" --gate 0.0001 \
    > /dev/null 2>&1; then
  echo "check.sh: overhead gate failed to trip on an injected regression" >&2
  exit 1
fi
dune exec bin/ldv.exe -- timeline "$tmpdir/ov.jsonl" --cluster > /dev/null
# the span-diff gate must pass a repl/tx-bearing trace against itself
dune exec bin/ldv.exe -- obs diff "$tmpdir/ov.jsonl" "$tmpdir/ov.jsonl" \
  --budget 10 > /dev/null

if [ "$quick" -eq 0 ]; then
  golden faults-n5-seed42.txt faults -n 5 --seed 42
  golden crash-n5-seed42.txt crash -n 5 --seed 42
  # concurrent path: 4 interleaved sessions; faults must stay typed and
  # a mid-quantum crash under group commit must recover to the control
  golden faults-n3-seed42-sessions4.txt faults -n 3 --seed 42 --sessions 4
  golden crash-n40-seed42-sessions4.txt crash -n 40 --seed 42 --sessions 4

  # profile smoke: audit a small run with JSONL export, then analyze it
  dune exec bin/ldv.exe -- --obs "jsonl:$tmpdir/run.jsonl" \
    audit --sf 0.002 --inserts 20 --selects 3 --updates 5 \
    -o "$tmpdir/app.ldv" > /dev/null
  dune exec bin/ldv.exe -- profile "$tmpdir/run.jsonl" --critical-path \
    > /dev/null
  # the regression gate must pass when a run is compared with itself
  dune exec bin/ldv.exe -- obs diff "$tmpdir/run.jsonl" "$tmpdir/run.jsonl" \
    --budget 10 > /dev/null

  # storage bench (point/range index lookups vs full scans at
  # 10k/100k/1M tuples; exits 1 unless the indexed paths beat the scan by
  # 10x at 100k). It runs in $tmpdir, so its BENCH_storage.json does not
  # overwrite the tracked copy at the root
  (cd "$tmpdir" && "$root/_build/default/bench/main.exe" storage)
  # paper-shape checks (~2 min; exits 1 on a failed claim): replay speed
  # and audit-cost shape across all 18 variants and three systems, which
  # a change to the executor or to provenance propagation can flip
  dune exec bench/main.exe -- check
  # wait-state tracing smoke: stream a 4-session audit, then render the
  # timeline, the contention report, and the per-session stats from it
  dune exec bin/ldv.exe -- --obs "jsonl:$tmpdir/cc.jsonl" \
    audit --sessions 4 -o "$tmpdir/cc.ldv" > /dev/null
  dune exec bin/ldv.exe -- timeline "$tmpdir/cc.jsonl" > /dev/null
  dune exec bin/ldv.exe -- contention "$tmpdir/cc.jsonl" > /dev/null
  dune exec bin/ldv.exe -- stats "$tmpdir/cc.jsonl" --by-session > /dev/null
fi
