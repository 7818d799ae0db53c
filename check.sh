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
# the replicated audit's and the sf-0.002 server-included, server-excluded,
# PTU and Q3-1 audits' package checksums + the
# replicated audit's SQL parse count + every trace reader's output over
# the committed traces under test/golden/obs/).
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
# so are audit flags the chosen workload would silently ignore: replicas
# or a scheduler seed without concurrent sessions, a concurrent audit
# under another package kind, a non-positive session count, a negative
# replica count
for args in "--replicas 2" "--sched-seed 7" "--sessions 2 --mode excluded" \
    "--sessions 2 --mode ptu" "--sessions=0" "--sessions 2 --replicas=-1"; do
  expect 124 dune exec bin/ldv.exe -- audit $args -o "$tmpdir/flags.ldv"
done
# a SQL error is the script's, not an internal error: `ldv sql` prints it
# and exits 1
for sql in "SELEC x" "SELECT x FROM nope" "SELECT 4611686018427387904"; do
  expect 1 dune exec bin/ldv.exe -- sql "$sql"
done
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
setup="$sql"
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
# a short INT BETWEEN probes the hash index key by key; a range whose
# probes would cost more than the table has rows stays a full scan
dune exec bin/ldv.exe -- sql "$setup
EXPLAIN SELECT id FROM emp WHERE dno BETWEEN 1 AND 2" \
  | grep -q "indexscan(emp.emp_dno)" || {
  echo "check.sh: EXPLAIN did not choose the hash index for a short BETWEEN" >&2
  exit 1
}
dune exec bin/ldv.exe -- sql "$setup
EXPLAIN SELECT id FROM emp WHERE dno BETWEEN 0 AND 9" \
  | grep -q "scan(emp)" || {
  echo "check.sh: EXPLAIN probed the hash index for a wide BETWEEN" >&2
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
# and so is the number of SQL parses it ran: each node parses a
# statement's text once, so a second parse on the server, WAL or ship
# path shows here
dune exec bin/ldv.exe -- stats "$tmpdir/ov.jsonl" \
  | sed -n 's/^| \(sql\.parse\)  *| \([0-9]*\) *|$/\1 \2/p' \
  > "$tmpdir/ov.parses"
diff test/golden/audit-sessions4-replicas2-parses.txt "$tmpdir/ov.parses"
# the same for a server-included TPC-H package, whose tables carry
# indexes: its index DDL sections are pinned with the rest
dune exec bin/ldv.exe -- audit --sf 0.002 --inserts 20 --selects 3 \
  --updates 5 -o "$tmpdir/inc.ldv" > /dev/null
cksum < "$tmpdir/inc.ldv" > "$tmpdir/inc.cksum"
diff test/golden/audit-sf0.002-cksum.txt "$tmpdir/inc.cksum"
# and for the same workload's other two package kinds: the recorded
# responses of a server-excluded package and the full data files of a
# PTU package
for mode in excluded ptu; do
  dune exec bin/ldv.exe -- audit --mode "$mode" --sf 0.002 --inserts 20 \
    --selects 3 --updates 5 -o "$tmpdir/$mode.ldv" > /dev/null
  cksum < "$tmpdir/$mode.ldv" > "$tmpdir/$mode.cksum"
  diff "test/golden/audit-$mode-sf0.002-cksum.txt" "$tmpdir/$mode.cksum"
done
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

# trace-reader goldens (also under --quick): every reader renders two
# committed traces byte for byte, a replicated two-session audit's
# (scheduler quanta, latch waits, replica applies, the ledger) and a
# server-included sf-0.002 TPC-H audit's; obs diff compares them both
# ways and its exit status is pinned with its output
obs="$root/test/golden/obs"
ldv="$root/_build/default/bin/ldv.exe"
# reader NAME ARGS...: `ldv ARGS`, run in $tmpdir, prints $obs/NAME
reader() {
  name=$1
  shift
  (cd "$tmpdir" && "$ldv" "$@") > "$tmpdir/$name"
  diff "$obs/$name" "$tmpdir/$name"
}
for t in sessions2-replicas1 sf0.002; do
  reader "$t.stats.txt" stats "$obs/$t.jsonl"
  reader "$t.stats-tree.txt" stats "$obs/$t.jsonl" --tree
  reader "$t.stats-by-session.txt" stats "$obs/$t.jsonl" --by-session
  reader "$t.profile.txt" profile "$obs/$t.jsonl" --critical-path \
    --flame "$t.folded" --dot "$t.dot"
  diff "$obs/$t.folded" "$tmpdir/$t.folded"
  diff "$obs/$t.dot" "$tmpdir/$t.dot"
  reader "$t.timeline.txt" timeline "$obs/$t.jsonl"
  reader "$t.timeline-cluster.txt" timeline "$obs/$t.jsonl" --cluster
  reader "$t.contention.txt" contention "$obs/$t.jsonl"
  reader "$t.overhead.txt" overhead "$obs/$t.jsonl"
done
for pair in "sessions2-replicas1 sf0.002 diff-sessions2-sf0.002.txt" \
    "sf0.002 sessions2-replicas1 diff-sf0.002-sessions2.txt"; do
  set -- $pair
  status=0
  "$ldv" obs diff "$obs/$1.jsonl" "$obs/$2.jsonl" --budget 10 \
    > "$tmpdir/$3" || status=$?
  echo "exit $status" >> "$tmpdir/$3"
  diff "$obs/$3" "$tmpdir/$3"
done

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
