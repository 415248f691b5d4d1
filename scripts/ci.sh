#!/bin/sh
# CI check: build, run the full test suite, and refuse tracked build
# artifacts (a committed _build/ once shipped with the repo; keep it out).
set -eu

cd "$(dirname "$0")/.."

if git ls-files --error-unmatch _build >/dev/null 2>&1 || \
   git ls-files | grep -q '^_build/'; then
  echo "ci: _build/ is tracked by git — run 'git rm -r --cached _build'" >&2
  exit 1
fi

dune build
dune runtest

# Static checks: self-test both scanners (lexical lint + AST checker),
# prove each fails on a seeded violation, then scan the tree.
./scripts/lint.sh
seeded=$(mktemp -d)
# Bench smokes run at toy sizes; they write their BENCH_*.json here, so
# the tracked reports keep their full-size figures.
benchout=$(mktemp -d)
trap 'rm -rf "$seeded" "$benchout"' EXIT
root=$(pwd)
bench() {
  (cd "$benchout" && env "$@" "$root/_build/default/bench/main.exe")
}
printf 'let sorted l = List.sort compare l\n' > "$seeded/bad.ml"
if ./_build/default/bin/lint.exe "$seeded" >/dev/null 2>&1; then
  echo "ci: lint failed to flag a seeded violation" >&2
  exit 1
fi
mkdir -p "$seeded/bin"
printf 'let total = ref 0\nlet drive pool =\n  let tasks = [| (fun () -> incr total) |] in\n  Pool.run pool tasks\n' > "$seeded/bin/race.ml"
if ./_build/default/bin/tric_check.exe "$seeded/bin" | grep -q 'domain-ownership'; then
  : # the seeded race was caught
else
  echo "ci: tric_check failed to flag a seeded domain-ownership violation" >&2
  exit 1
fi

# Shadow-audited replay smoke: generate a small SNB dataset, interleave
# removals (--churn) into the add-only stream, and certify the maintained
# state of the trie engines and one baseline against ground truth every
# 500 updates — per-update and micro-batched.
auditds=$(mktemp -u).tric
dune exec bin/tric_cli.exe -- generate snb -o "$auditds" --edges 4000 --qdb 60 > /dev/null
for engine in TRIC TRIC+ INV+; do
  TRIC_AUDIT=500 dune exec bin/tric_cli.exe -- \
    audit "$auditds" --engine "$engine" --every 500 --churn 0.2 > /dev/null
done
TRIC_AUDIT=500 dune exec bin/tric_cli.exe -- \
  audit "$auditds" --engine TRIC+ --every 500 --churn 0.2 --batch 64 > /dev/null

# Windowed audited churn replay: the same stream scoped to a sliding
# window (count-based, then event-time), per-update and micro-batched.
# Every shadow audit now also certifies window coherence — no edge
# outlives its deadline or capacity, nothing window-live is absent from
# the stream, and the inner engines are re-certified against the window's
# own live set instead of the full stream history.
TRIC_AUDIT=500 dune exec bin/tric_cli.exe -- \
  audit "$auditds" --engine TRIC+ --every 500 --churn 0.2 --window "500 EVENTS" > /dev/null
TRIC_AUDIT=500 dune exec bin/tric_cli.exe -- \
  audit "$auditds" --engine TRIC+ --every 500 --churn 0.2 --batch 64 --window 1h > /dev/null

# Shard matrix: the same churned audited replay through the owner-targeted
# dispatcher at 1, 2 and 4 domains.  Every shadow audit re-certifies the
# dispatched state (including routing coherence: trie placement AND the
# per-key dispatch bitmaps) against ground truth, so a green run here
# proves targeted dispatch = sequential on this stream.
for shards in 1 2 4; do
  TRIC_SHARDS=$shards TRIC_AUDIT=500 dune exec bin/tric_cli.exe -- \
    audit "$auditds" --engine TRIC+ --every 500 --churn 0.2 > /dev/null
  TRIC_SHARDS=$shards TRIC_AUDIT=500 dune exec bin/tric_cli.exe -- \
    audit "$auditds" --engine TRIC --every 500 --churn 0.2 --batch 32 > /dev/null
done
# Oversharded batched row: 8 domains exceed the label alphabet, so some
# shards own nothing — the skewed-ownership regime targeted routing and
# batched dispatch must survive unchanged.
TRIC_SHARDS=8 TRIC_AUDIT=500 dune exec bin/tric_cli.exe -- \
  audit "$auditds" --engine TRIC --every 500 --churn 0.2 --batch 32 > /dev/null
# Telemetry: a metrics-enabled audited churn replay (4 shards) exporting
# its merged snapshot, which is then re-parsed and schema-checked by the
# stats subcommand's strict validator.
metricsjson=$(mktemp -u).json
TRIC_AUDIT=500 dune exec bin/tric_cli.exe -- \
  audit "$auditds" --engine TRIC+ --every 500 --churn 0.2 --shards 4 \
  --metrics-out "$metricsjson" > /dev/null
dune exec bin/tric_cli.exe -- stats --check "$metricsjson"
rm -f "$metricsjson"
rm -f "$auditds"

# Telemetry overhead smoke: metrics-on vs metrics-off throughput on the
# same batched replay must stay within the TRIC_OVERHEAD_MAX_PCT budget
# (default 5%); the strict mode exits non-zero past it.
bench TRIC_OVERHEAD_ONLY=1 TRIC_OVERHEAD_EDGES=2000 TRIC_OVERHEAD_QDB=50

# Allocation-regression smoke: the packed row-store layout report (live
# heap words + upd/s, BENCH_layout.json emission path) in strict mode —
# mean minor words allocated per update must stay under
# TRIC_ALLOC_MAX_WORDS (default 1,500, about 1.5x TRIC+ at this size);
# boxed-tuple regressions on the hot path trip this before they show up
# in throughput.
bench TRIC_LAYOUT_ONLY=1 TRIC_LAYOUT_EDGES=1000 TRIC_LAYOUT_QDB=50

# Bench smoke: a tiny batched-ingestion throughput run, so the bench
# executable's non-bechamel paths stay exercised by CI.
bench TRIC_BATCH_ONLY=1 TRIC_BATCH_EDGES=1000 TRIC_BATCH_QDB=50

# Shard-scaling smoke: 1/2/4/8-domain dispatch of the same stream plus the
# BENCH_shard.json emission path.
bench TRIC_SHARD_ONLY=1 TRIC_SHARD_EDGES=1000 TRIC_SHARD_QDB=50

# Window smoke: the timestamped windowed replay (expiry amortization,
# lateness) plus the BENCH_window.json emission path, and the
# torn-journal crash-recovery path straight from the suite.
bench TRIC_WINDOW_ONLY=1 TRIC_WINDOW_EDGES=1000 TRIC_WINDOW_QDB=50
dune exec test/test_main.exe -- test durability 3 > /dev/null

# Subscription-server smoke, three layers: (1) the kill -9 torture from
# the suite — subscribers over a churned stream, SIGKILL mid-stream,
# restart, reconnect with resume tokens, and the combined streams must be
# gapless and duplicate-free against a sequential oracle, with snapshot
# compaction bounding the replayed tail and an audit-clean recovered
# state; (2) a line-protocol client session against a background serve,
# whose shutdown metrics envelope is schema-checked by the stats
# validator; (3) the fan-out bench emission path (BENCH_server.json).
dune exec test/test_main.exe -- test server 13 > /dev/null

srvdir=$(mktemp -d)
./_build/default/bin/tric_cli.exe serve --socket "$srvdir/s.sock" \
  --journal "$srvdir/j.log" --shards 2 --metrics-out "$srvdir/metrics.json" \
  > "$srvdir/server.log" 2>&1 &
srvpid=$!
# Capture the session before grepping: grep -q on the live pipe would
# exit at the match and SIGPIPE the client before it sends quit, leaving
# the server running forever.
printf '%s\n' \
    "hello ci" \
    "register edges ?x -a-> ?y" \
    "publish u -a-> v" \
    "recv 1" \
    "ack 1" \
    "stats prometheus" \
    "quit" \
  | ./_build/default/bin/tric_cli.exe client --socket "$srvdir/s.sock" \
  > "$srvdir/session.log"
if grep -q 'notify useq=1' "$srvdir/session.log"; then
  : # the session saw its notification
else
  echo "ci: server client session failed" >&2
  kill "$srvpid" 2>/dev/null || true
  exit 1
fi
wait "$srvpid"
./_build/default/bin/tric_cli.exe stats --check "$srvdir/metrics.json"
rm -rf "$srvdir"

bench TRIC_SERVER_ONLY=1 TRIC_SERVER_SUBS=200 TRIC_SERVER_EDGES=500

# Dispatch-fanout smoke: under a label-partitioned workload every update
# affects exactly one shard, so the mean ops-dispatched-per-shard-per-update
# must stay near 1.0 — the strict mode exits non-zero past TRIC_FANOUT_MAX
# (default 1.5), which a broadcast dispatcher (fanout = nshards = 4) trips.
bench TRIC_FANOUT_ONLY=1

# Harness smoke at a high scale factor: small enough to finish in seconds,
# and fig12a's stream shrinks below its checkpoint count, which is exactly
# the duplicate-checkpoint regime the growth figures must render cleanly.
TRIC_SCALE=20000 TRIC_BUDGET=2 dune exec bin/tric_cli.exe -- run all > /dev/null

echo "ci: ok"
