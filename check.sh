#!/bin/sh
# Full verification: build everything (lib/obs and lib/faults compile
# with -warn-error +a), run the test suite, then smoke-test the
# fault-injection and crash-consistency harnesses (each must exit 0:
# no untyped exceptions, no divergence from the uncrashed control) and
# the profiler: an instrumented audit run is profiled (self/total +
# critical path must render) and diffed against itself with a tight
# budget (the gate must pass on identical runs).
#
# --quick skips the harness/profiler smokes (build + tests + the
# replicacheck/txcheck smokes + the overhead-ledger gate self-check).
set -e
cd "$(dirname "$0")"

quick=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    *) echo "usage: $0 [--quick]" >&2; exit 2 ;;
  esac
done

dune build @all
dune runtest

# replication smoke (also under --quick): seeded ship-fault / crash
# campaigns against a 2-replica cluster; must exit 0 (every degraded
# run verified against the control, every replica converged)
dune exec bin/ldv.exe -- replicacheck --seeds 5 --replicas 2

# transaction recovery smoke (also under --quick): seeded crashes inside
# open transactions across 4 concurrent sessions; recovery must roll
# back every transaction without a durable COMMIT and match the control
# at transaction granularity, including reenacted provenance
dune exec bin/ldv.exe -- txcheck --seeds 5 --sessions 4

# planner smoke (also under --quick): the cost model must pick a hash
# index scan for an indexed equality and an ordered-index range scan for
# a selective inequality, and say so in EXPLAIN
sql="CREATE TABLE emp (id INT, dno INT, sal INT);
CREATE INDEX emp_dno ON emp (dno);
CREATE ORDERED INDEX emp_sal ON emp (sal);"
i=1
while [ "$i" -le 40 ]; do
  sql="$sql INSERT INTO emp VALUES ($i, $((i % 5)), $i);"
  i=$((i + 1))
done
sql="$sql EXPLAIN SELECT id FROM emp WHERE dno = 3;
EXPLAIN SELECT id FROM emp WHERE sal > 35"
plans=$(dune exec bin/ldv.exe -- sql "$sql")
echo "$plans" | grep -q "indexscan(emp.emp_dno)" || {
  echo "check.sh: EXPLAIN did not choose the hash index for an equality" >&2
  exit 1
}
echo "$plans" | grep -q "rangescan(emp.emp_sal" || {
  echo "check.sh: EXPLAIN did not choose the ordered index for a range" >&2
  exit 1
}

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# overhead-ledger smoke (also under --quick): stream a replicated
# concurrent audit, render the per-phase ledger and the cluster-wide
# causal timeline, and exercise the gate in both directions — a
# generous budget must pass, and an absurdly tight one must trip
# (exit 5), proving the gate can actually catch a regression
dune exec bin/ldv.exe -- --obs "jsonl:$tmpdir/ov.jsonl" \
  audit --sessions 4 --replicas 2 -o "$tmpdir/ov.ldv" > /dev/null
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
  dune exec bin/ldv.exe -- faultcheck --campaigns 5 --seed 42
  dune exec bin/ldv.exe -- crashcheck --campaigns 5 --seed 42
  # concurrent path: 4 interleaved sessions; faults must stay typed and
  # a mid-quantum crash under group commit must recover to the control
  dune exec bin/ldv.exe -- faultcheck --campaigns 3 --seed 42 --sessions 4
  dune exec bin/ldv.exe -- crashcheck --campaigns 5 --seed 42 --sessions 4
  # scheduler/group-commit/replay-determinism bench (writes
  # BENCH_concurrent.json; its own assertions print per-row yes/NO)
  dune exec bench/main.exe -- concurrent
  # interactive-transaction bench (writes BENCH_txn.json: commit
  # throughput and first-updater-wins abort rate at 1/4/8 sessions)
  dune exec bench/main.exe -- txn

  # profile smoke: audit a small run with JSONL export, then analyze it
  dune exec bin/ldv.exe -- --obs "jsonl:$tmpdir/run.jsonl" \
    audit --sf 0.002 --inserts 20 --selects 3 --updates 5 \
    -o "$tmpdir/app.ldv" > /dev/null
  dune exec bin/ldv.exe -- profile "$tmpdir/run.jsonl" --critical-path \
    > /dev/null
  # the regression gate must pass when a run is compared with itself
  dune exec bin/ldv.exe -- obs diff "$tmpdir/run.jsonl" "$tmpdir/run.jsonl" \
    --budget 10 > /dev/null

  # contention bench (writes BENCH_contention.json: latch-wait share and
  # group-commit stalls at 1/4/8 sessions)
  dune exec bench/main.exe -- contention
  # overhead bench (writes BENCH_overhead.json: per-phase per-statement
  # audit overhead at 1/4/8 sessions, obs-self broken out)
  dune exec bench/main.exe -- overhead
  # replication bench (writes BENCH_replication.json: read throughput at
  # 1/2/4 replicas and catch-up time after a seeded crash)
  dune exec bench/main.exe -- replication
  # storage bench (writes BENCH_storage.json: point/range index lookups
  # vs full scans at 10k/100k/1M tuples; exits 1 unless the indexed
  # paths beat the scan by 10x at 100k)
  dune exec bench/main.exe -- storage
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
