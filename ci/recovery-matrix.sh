#!/usr/bin/env bash
# Crash-recovery matrix cell: SIGKILL a crashtest run at one
# storage-lifecycle phase and verify replay. The CI matrix supplies PHASE
# (no-checkpoint | before-checkpoint | during-checkpoint | after-checkpoint
# | after-truncation) and FSYNC (batch | interval | none); run it locally
# the same way:
#
#   go build -o crashtest ./cmd/crashtest
#   PHASE=after-truncation FSYNC=batch ci/recovery-matrix.sh
set -euo pipefail

PHASE="${PHASE:?set PHASE: no-checkpoint|before-checkpoint|during-checkpoint|after-checkpoint|after-truncation}"
FSYNC="${FSYNC:-batch}"
BASE="${TMPDIR_BASE:-${RUNNER_TEMP:-/tmp}}/recovery-$PHASE-$FSYNC"
WAL="$BASE/wal"
CKPT="$BASE/ckpt"
CT="${CRASHTEST:-./crashtest}"
rm -rf "$BASE"
mkdir -p "$WAL" "$CKPT"

# run_kill <seconds> [run flags...]: start the workload, wait for READY,
# let it commit for <seconds>, then SIGKILL it mid-flight.
run_kill() {
  local naptime="$1"
  shift
  "$CT" -mode run -wal "$WAL" -partitions 4 -threads 4 -fsync "$FSYNC" "$@" \
    > "$BASE/run.log" 2>&1 &
  local pid=$!
  for _ in $(seq 1 100); do
    grep -q READY "$BASE/run.log" 2>/dev/null && break
    sleep 0.1
  done
  grep -q READY "$BASE/run.log" || { echo "runner never became ready"; cat "$BASE/run.log"; exit 1; }
  sleep "$naptime"
  kill -9 "$pid"
  wait "$pid" || true
}

applied_bytes() {
  grep -o '[0-9]* applied bytes' "$1" | grep -o '[0-9]*'
}

case "$PHASE" in
no-checkpoint)
  # Checkpoints off: the log is the same segment chain, rotated at
  # -segment-bytes, and recovery is a full replay of it. Every commit
  # the runner acknowledged before the kill (its last "acked N" line)
  # must replay: the kill spares the page cache, so this holds under
  # every fsync policy.
  run_kill 2 -segment-bytes 65536
  if compgen -G "$WAL/wal-*.log" > /dev/null; then
    echo "a WAL directory without checkpoints holds a single-file log:"
    ls "$WAL"
    exit 1
  fi
  acked=$(grep -o '^acked [0-9]*' "$BASE/run.log" | tail -1 | cut -d' ' -f2)
  [ -n "$acked" ] || { echo "the runner printed no acknowledged-commit count"; cat "$BASE/run.log"; exit 1; }
  echo "the runner acknowledged $acked commits before the kill"
  "$CT" -mode recover -wal "$WAL" -partitions 4 -min-records 100 -acked "$acked"
  ;;
before-checkpoint)
  # Interval far beyond the run: the kill lands before any snapshot
  # exists, so recovery must fall back to a full replay of the logs.
  run_kill 2 -checkpoint-dir "$CKPT" -checkpoint-interval 1h
  "$CT" -mode recover -wal "$WAL" -checkpoint-dir "$CKPT" -partitions 4 \
    -min-records 100 | tee "$BASE/rec.log"
  grep -q 'checkpoints: 0 restored' "$BASE/rec.log" \
    || { echo "a snapshot appeared before the interval elapsed"; exit 1; }
  ;;
during-checkpoint)
  # Snapshot every 25ms with truncation on: the kill races snapshot
  # writes, prunes and segment unlinks. Whatever temp files the kill
  # leaves behind, recovery must land on a durable (atomically renamed)
  # snapshot plus its log suffix.
  run_kill 2 -checkpoint-dir "$CKPT" -checkpoint-interval 25ms \
    -segment-bytes 65536 -truncate
  "$CT" -mode recover -wal "$WAL" -checkpoint-dir "$CKPT" -partitions 4 \
    -min-records 1 -min-checkpoints 1
  ;;
after-checkpoint)
  run_kill 4 -checkpoint-dir "$CKPT" -checkpoint-interval 150ms
  "$CT" -mode recover -wal "$WAL" -checkpoint-dir "$CKPT" -partitions 4 \
    -min-records 1 -min-checkpoints 4 | tee "$BASE/suffix.log"
  # Truncation is off in this phase, so a checkpoint-blind full replay
  # still works — and the checkpointed one must apply strictly fewer
  # log bytes (the bounded-recovery claim, device-independent).
  "$CT" -mode recover -wal "$WAL" -partitions 4 -min-records 100 \
    | tee "$BASE/full.log"
  suffix=$(applied_bytes "$BASE/suffix.log")
  full=$(applied_bytes "$BASE/full.log")
  echo "suffix replay applied $suffix bytes; full replay $full bytes"
  [ "$suffix" -lt "$full" ] || { echo "checkpoint did not shrink the replay"; exit 1; }
  ;;
after-truncation)
  run_kill 6 -checkpoint-dir "$CKPT" -checkpoint-interval 100ms \
    -segment-bytes 65536 -truncate
  # Truncation is an unlink: partition 0 (the hot one) must have lost its
  # oldest segments, so the first on-disk segment no longer starts at 1.
  first=$(basename "$(ls "$WAL"/wal-000-*.seg | head -1)")
  seq=${first#wal-000-}
  seq=$((10#${seq%.seg}))
  echo "partition 0's oldest on-disk segment starts at seq $seq"
  [ "$seq" -gt 1 ] || { echo "truncation never dropped a segment"; exit 1; }
  "$CT" -mode recover -wal "$WAL" -checkpoint-dir "$CKPT" -partitions 4 \
    -min-records 1 -min-checkpoints 1 -max-wal-bytes 8000000
  # Bit-rot probe: flip one payload bit of a committed, CRC-covered
  # frame. Replay must refuse the log as corrupt — treating it as a torn
  # tail would silently drop a committed transaction.
  "$CT" -mode flip -wal "$WAL"
  "$CT" -mode recover -wal "$WAL" -checkpoint-dir "$CKPT" -partitions 4 \
    -expect-corrupt
  ;;
*)
  echo "unknown PHASE: $PHASE"
  exit 1
  ;;
esac

echo "PHASE $PHASE (fsync=$FSYNC) OK"
