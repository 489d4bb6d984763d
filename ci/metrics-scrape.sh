#!/usr/bin/env bash
# Vacuous-exporter guard: run a real benchmark with the live metrics
# endpoint enabled and scrape /metrics and /debug/vars mid-run. The
# endpoints must show the counters actually moving — per-partition
# conflicts, WAL fsyncs, latency quantiles, the useful-time breakdown —
# not just render valid exposition over zeros. A refactor that detaches
# the Live mirror, drops the partition counters, or stops wiring WAL stats
# keeps every unit test green; this catches it.
#
# The workload is the durability sweep at quick scale: file-backed WALs
# (so bamboo_wal_syncs_total must advance) under zipfian contention (so
# bamboo_partition_conflicts_total must advance). Run it locally:
#
#   go build -o bamboo-bench ./cmd/bamboo-bench
#   ci/metrics-scrape.sh
set -euo pipefail

BENCH="${BENCH:-./bamboo-bench}"
BASE="${TMPDIR_BASE:-${RUNNER_TEMP:-/tmp}}/metrics-scrape"
rm -rf "$BASE"
mkdir -p "$BASE"

"$BENCH" -exp durability -quick -metrics-addr 127.0.0.1:0 \
  > "$BASE/bench.log" 2>&1 &
pid=$!

# The bench prints "metrics: http://<addr>/metrics" to stderr once the
# endpoint is bound; the port is kernel-assigned, so parse it out.
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's#^metrics: http://\([^/]*\)/metrics$#\1#p' "$BASE/bench.log" 2>/dev/null | head -1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "bench never printed its metrics address"
  cat "$BASE/bench.log"
  exit 1
fi
echo "scraping http://$addr/metrics"

# Poll while the bench runs. Any single scrape may land in the gap
# between benchmark points (bamboo_up 0, no counters), so each required
# series only needs to show a nonzero value in SOME scrape.
saw_conflicts=0
saw_syncs=0
saw_quantile=0
saw_recycled=0
saw_useful=0
saw_vars=0
scrapes=0
while kill -0 "$pid" 2>/dev/null; do
  if curl -sf "http://$addr/metrics" > "$BASE/scrape.txt" 2>/dev/null; then
    scrapes=$((scrapes + 1))
    if grep -Eq '^bamboo_partition_conflicts_total\{partition="[0-9]+"\} [1-9]' "$BASE/scrape.txt"; then
      [ "$saw_conflicts" = 1 ] || cp "$BASE/scrape.txt" "$BASE/scrape-conflicts.txt"
      saw_conflicts=1
    fi
    if grep -Eq '^bamboo_wal_syncs_total [1-9]' "$BASE/scrape.txt"; then
      [ "$saw_syncs" = 1 ] || cp "$BASE/scrape.txt" "$BASE/scrape-syncs.txt"
      saw_syncs=1
    fi
    if grep -Eq '^bamboo_txn_latency_seconds\{quantile="0\.99"\} [0-9]' "$BASE/scrape.txt"; then
      saw_quantile=1
    fi
    # The durability sweep runs the non-MVCC locking engine, so the
    # image-recycling protocol is live: spare buffers captured at commit
    # release must be serving write copies, not just rendering zeros.
    if grep -Eq '^bamboo_image_pool_recycled_total [1-9]' "$BASE/scrape.txt"; then
      saw_recycled=1
    fi
    # The four-way time breakdown is mirrored live; useful time is nonzero
    # on every run that commits anything.
    if grep -Eq '^bamboo_txn_useful_seconds_total (0\.0*)?[1-9]' "$BASE/scrape.txt"; then
      saw_useful=1
    fi
  fi
  # /debug/vars is the same report as JSON: commits and the mirrored
  # breakdown must move there too, in one and the same document.
  if curl -sf "http://$addr/debug/vars" > "$BASE/vars.json" 2>/dev/null &&
    grep -Eq '"commits": [1-9]' "$BASE/vars.json" &&
    grep -Eq '"useful_ns": [1-9]' "$BASE/vars.json"; then
    saw_vars=1
  fi
  sleep 0.2
done
wait "$pid" || { echo "bench run failed"; cat "$BASE/bench.log"; exit 1; }

echo "scrapes: $scrapes (conflicts=$saw_conflicts syncs=$saw_syncs quantile=$saw_quantile recycled=$saw_recycled useful=$saw_useful vars=$saw_vars)"
fail=0
if [ "$saw_conflicts" != 1 ]; then
  echo "FAIL: no scrape showed a nonzero bamboo_partition_conflicts_total"
  fail=1
fi
if [ "$saw_syncs" != 1 ]; then
  echo "FAIL: no scrape showed a nonzero bamboo_wal_syncs_total"
  fail=1
fi
if [ "$saw_quantile" != 1 ]; then
  echo "FAIL: no scrape showed bamboo_txn_latency_seconds quantiles"
  fail=1
fi
if [ "$saw_recycled" != 1 ]; then
  echo "FAIL: no scrape showed a nonzero bamboo_image_pool_recycled_total"
  fail=1
fi
if [ "$saw_useful" != 1 ]; then
  echo "FAIL: no scrape showed a nonzero bamboo_txn_useful_seconds_total"
  fail=1
fi
if [ "$saw_vars" != 1 ]; then
  echo "FAIL: no /debug/vars showed nonzero commits and useful_ns"
  fail=1
fi
if [ "$fail" != 0 ]; then
  echo "== last scrape =="
  cat "$BASE/scrape.txt" 2>/dev/null || echo "(no successful scrape)"
  echo "== last /debug/vars =="
  cat "$BASE/vars.json" 2>/dev/null || echo "(no successful fetch)"
  exit 1
fi

# Show a mid-run sample in the job log: the per-partition conflict series
# and the latency summary operators would dashboard.
echo "== sample mid-run scrape (conflict + latency series) =="
grep -E '^bamboo_(partition_conflicts_total|wal_syncs_total|txn_latency_seconds)' \
  "$BASE/scrape-conflicts.txt" | head -20
