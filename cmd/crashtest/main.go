// Command crashtest is the recovery smoke harness: it drives a
// conservation-oracle workload against a file-backed partitioned WAL so a
// supervisor (CI, a shell) can SIGKILL it mid-run and then verify that
// replay rebuilds a consistent store.
//
// Usage:
//
//	crashtest -mode run -wal /tmp/wal -partitions 4 &
//	# wait for "READY", let it commit for a while, then:
//	kill -9 $!
//	crashtest -mode recover -wal /tmp/wal -partitions 4
//
// The workload transfers amounts between two accounts of one storage
// partition per transaction (high-skew partition choice, the fig6 shape),
// so every transaction is atomic within a single partition log and every
// log prefix — which is exactly what a SIGKILL leaves, possibly with a
// torn record at each tail — must conserve each partition's total
// balance. recover reloads the deterministic base snapshot, replays the
// logs in parallel, and fails loudly if any invariant breaks:
//
//   - every partition's balance total equals its loaded total;
//   - the row count and partition routing are intact;
//   - at least -min-records commit records were replayed (a kill that
//     landed before any commit means the harness misfired);
//   - at least -acked records were replayed: run mode prints "acked N",
//     the commits acknowledged so far, every 50 ms, and each one's record
//     is in the log by then (synced under -fsync batch, written
//     otherwise, which a SIGKILL does not undo), so a supervisor passes
//     the last N it saw;
//   - every lock entry is drained (replay bypasses the lock table).
//
// Storage lifecycle: the WAL is a segment chain per partition, rotated at
// -segment-bytes, with or without checkpoints; -checkpoint-dir enables
// fuzzy checkpoints, and -truncate lets the checkpointer unlink log
// segments a durable snapshot covers. run mode replays any existing state
// before serving, so a kill→run→kill soak keeps the conservation oracle
// valid across cycles. -mode flip corrupts one payload byte of the last
// complete frame in partition 0's newest segment — the bit-rot probe —
// and recover -expect-corrupt then requires replay to fail with a
// corruption error rather than silently truncate. recover's
// -max-replay-bytes bounds the applied suffix (proof checkpoints bound
// recovery work) and -max-wal-bytes bounds the on-disk log (proof
// truncation reclaims space).
//
// Both modes must agree on -partitions and -rows: they define the
// deterministic snapshot the log was written over.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

func main() {
	var (
		mode       = flag.String("mode", "", "run | recover | flip")
		walDir     = flag.String("wal", "", "WAL directory (one segment chain per partition)")
		partitions = flag.Int("partitions", 4, "storage partition count")
		rows       = flag.Int("rows", 1024, "accounts in the transfer table")
		threads    = flag.Int("threads", 4, "workers (run mode)")
		duration   = flag.Duration("duration", time.Hour, "maximum run time before a clean exit (run mode)")
		fsync      = flag.String("fsync", "batch", "fsync policy: none | batch | interval (run mode)")
		minRecords = flag.Int("min-records", 1, "fail recovery if fewer commit records replay")
		acked      = flag.Int("acked", 0, "commits the run acknowledged (its last \"acked N\" line): fail recovery if fewer records replay")

		ckptDir      = flag.String("checkpoint-dir", "", "snapshot directory; non-empty enables checkpoints (the WAL layout is the same either way)")
		ckptInterval = flag.Duration("checkpoint-interval", 250*time.Millisecond, "background checkpoint interval (run mode)")
		segBytes     = flag.Int64("segment-bytes", 256<<10, "WAL segment rotation threshold (run mode, checkpoints on or off)")
		truncate     = flag.Bool("truncate", false, "unlink checkpoint-covered log segments (run mode)")

		metricsAddr = flag.String("metrics-addr", "", "serve live telemetry (/metrics, /debug/vars, /healthz) on this address while running (run mode; \":0\" picks a free port, printed before READY)")

		expectCorrupt  = flag.Bool("expect-corrupt", false, "recovery must FAIL with a corruption error (after -mode flip)")
		maxReplayBytes = flag.Int64("max-replay-bytes", 0, "fail recovery if more applied log bytes replay")
		maxWALBytes    = flag.Int64("max-wal-bytes", 0, "fail recovery if the WAL directory holds more bytes")
		minCkpts       = flag.Int("min-checkpoints", 0, "fail recovery if fewer snapshots restore (proof a checkpoint was taken)")
	)
	flag.Parse()
	if *walDir == "" {
		fatal("missing -wal directory")
	}
	switch *mode {
	case "run":
		runMode(runConfig{
			dir: *walDir, parts: *partitions, rows: *rows, threads: *threads,
			duration: *duration, fsync: *fsync,
			ckptDir: *ckptDir, ckptInterval: *ckptInterval, segBytes: *segBytes,
			truncate: *truncate, metricsAddr: *metricsAddr,
		})
	case "recover":
		recoverMode(*walDir, *ckptDir, *partitions, *rows, *minRecords, *acked, *minCkpts,
			*expectCorrupt, *maxReplayBytes, *maxWALBytes)
	case "flip":
		flipMode(*walDir)
	default:
		fatal("-mode must be run, recover, or flip")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crashtest: "+format+"\n", args...)
	os.Exit(1)
}

const initialBalance = 1000

func accountSchema() *storage.Schema {
	return storage.NewSchema("accounts",
		storage.Column{Name: "balance", Type: storage.ColInt64})
}

// load creates the deterministic base snapshot both modes agree on.
func load(db *core.DB, rows int) *storage.Table {
	schema := accountSchema()
	tbl, err := db.Catalog.CreateTablePartitioned(schema, rows,
		storage.HashPartitioner{N: db.Partitions()})
	if err != nil {
		fatal("create table: %v", err)
	}
	for k := 0; k < rows; k++ {
		img := schema.NewRowImage()
		schema.SetInt64(img, 0, initialBalance)
		tbl.MustInsertRow(uint64(k), img)
	}
	return tbl
}

// keysByPartition groups account keys by their owning partition.
func keysByPartition(tbl *storage.Table, parts, rows int) [][]uint64 {
	per := make([][]uint64, parts)
	for k := 0; k < rows; k++ {
		pid := tbl.PartitionFor(uint64(k))
		per[pid] = append(per[pid], uint64(k))
	}
	for p, keys := range per {
		if len(keys) < 2 {
			fatal("partition %d has %d keys; raise -rows", p, len(keys))
		}
	}
	return per
}

type runConfig struct {
	dir          string
	parts, rows  int
	threads      int
	duration     time.Duration
	fsync        string
	ckptDir      string
	ckptInterval time.Duration
	segBytes     int64
	truncate     bool
	metricsAddr  string
}

func runMode(rc runConfig) {
	policy, err := wal.ParseFsyncPolicy(rc.fsync)
	if err != nil {
		fatal("%v", err)
	}
	cfg := core.Bamboo()
	cfg.Partitions = rc.parts
	cfg.WALDir = rc.dir
	cfg.WALFsync = policy
	cfg.MetricsAddr = rc.metricsAddr
	cfg.Checkpoint.SegmentBytes = rc.segBytes
	if rc.ckptDir != "" {
		cfg.Checkpoint.Dir = rc.ckptDir
		cfg.Checkpoint.Interval = rc.ckptInterval
		cfg.Checkpoint.Truncate = rc.truncate
	}
	db := core.NewDB(cfg)
	tbl := load(db, rc.rows)
	per := keysByPartition(tbl, rc.parts, rc.rows)
	schema := tbl.Schema

	// Resume over whatever a previous cycle left behind (logs and
	// snapshots) BEFORE serving: new after-images are absolute values, so
	// committing against un-recovered state would break the conservation
	// oracle for every later replay. Only after the catalog is current is
	// the checkpointer safe to start — a snapshot of half-recovered state,
	// plus truncation, would discard committed records.
	st, err := db.ReplayDir(rc.dir, true)
	if err != nil {
		fatal("resume replay: %v", err)
	}
	db.StartCheckpointer()
	fmt.Printf("resumed: %d records, %d checkpoints (%d rows), %d bad snapshots\n",
		st.Records, st.Checkpoints, st.CheckpointRows, st.CheckpointsBad)

	gen := func(worker, seq int) core.TxnFunc {
		rng := rand.New(rand.NewSource(int64(worker)*1e9 + int64(seq)))
		// Skewed partition choice (hot partition 0) so kills land on busy
		// and idle logs alike.
		pid := 0
		if rng.Float64() > 0.5 {
			pid = rng.Intn(rc.parts)
		}
		keys := per[pid]
		i := rng.Intn(len(keys))
		j := rng.Intn(len(keys) - 1)
		if j >= i {
			j++
		}
		amount := int64(rng.Intn(50) + 1)
		return func(tx core.Tx) error {
			tx.DeclareOps(2)
			if err := tx.Update(tbl.Get(keys[i]), func(img []byte) {
				schema.AddInt64(img, 0, -amount)
			}); err != nil {
				return err
			}
			return tx.Update(tbl.Get(keys[j]), func(img []byte) {
				schema.AddInt64(img, 0, amount)
			})
		}
	}

	// A worker draws transaction seq only once its Run of seq-1 has
	// returned, so every draw past a worker's first counts one
	// acknowledged commit. The count is printed every 50 ms; the last
	// line before a kill is a lower bound on the records the log holds.
	var acked atomic.Int64
	counted := func(worker, seq int) core.TxnFunc {
		if seq > 0 {
			acked.Add(1)
		}
		return gen(worker, seq)
	}
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Printf("acked %d\n", acked.Load())
			case <-stop:
				return
			}
		}
	}()

	if addr := db.MetricsAddr(); addr != "" {
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}
	// The supervisor waits for this line before scheduling the kill, so
	// the SIGKILL always lands inside transaction processing.
	fmt.Println("READY")
	os.Stdout.Sync()
	res := core.RunFor(core.NewLockEngine(db), rc.threads, rc.duration, counted)
	close(stop)
	if res.Err != nil {
		fatal("run: %v", res.Err)
	}
	// Only reached on a clean timeout (no kill): close cleanly.
	cst := db.CheckpointStats()
	if err := db.Close(); err != nil {
		fatal("close: %v", err)
	}
	fmt.Printf("clean exit: %d commits, %d checkpoints, %d truncations (%d bytes reclaimed)\n",
		res.Report.Commits, cst.Checkpoints, cst.Truncations, cst.TruncatedBytes)
}

// flipMode corrupts one payload byte of the LAST complete frame in
// partition 0's newest segment — a committed, CRC-covered record, not a
// torn tail. Replay must refuse the log with a corruption error; treating
// it as a torn tail would silently drop a committed transaction.
func flipMode(dir string) {
	segs, err := wal.ListSegments(dir, 0)
	if err != nil {
		fatal("list segments: %v", err)
	}
	if len(segs) == 0 {
		fatal("no log segment for partition 0 in %s", dir)
	}
	path := segs[len(segs)-1].Path
	bounds, _, err := wal.FrameBounds(path)
	if err != nil {
		fatal("frame bounds: %v", err)
	}
	if len(bounds) == 0 {
		fatal("no complete frame to corrupt in %s", path)
	}
	last := bounds[len(bounds)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("read: %v", err)
	}
	off := last[1] - 1 // final payload byte of the final complete frame
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal("write: %v", err)
	}
	fmt.Printf("flipped bit at offset %d of %s (frame %d of %d)\n",
		off, path, len(bounds), len(bounds))
}

func walDirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal("read wal dir: %v", err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			fatal("stat %s: %v", e.Name(), err)
		}
		if !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

func recoverMode(dir, ckptDir string, parts, rows, minRecords, acked, minCkpts int,
	expectCorrupt bool, maxReplayBytes, maxWALBytes int64) {
	if maxWALBytes > 0 {
		if got := walDirBytes(dir); got > maxWALBytes {
			fatal("WAL directory holds %d bytes, budget %d — truncation is not keeping up", got, maxWALBytes)
		} else {
			fmt.Printf("WAL directory: %d bytes (budget %d)\n", got, maxWALBytes)
		}
	}

	cfg := core.Bamboo()
	cfg.Partitions = parts
	db := core.NewDB(cfg)
	defer db.Close()
	tbl := load(db, rows)

	start := time.Now()
	st, err := db.ReplayDirCheckpointed(dir, ckptDir, true)
	if expectCorrupt {
		if err == nil {
			fatal("replay of a bit-flipped log succeeded (stats %+v); corruption went undetected", st)
		}
		if !errors.Is(err, wal.ErrCorrupt) {
			fatal("replay failed, but not as wal.ErrCorrupt (the one corruption sentinel of logs and snapshots): %v", err)
		}
		fmt.Printf("CORRUPTION DETECTED (as required): %v\n", err)
		return
	}
	if err != nil {
		fatal("replay: %v", err)
	}
	fmt.Printf("replayed %d logs: %d records, %d writes, %d torn tails, %d applied bytes in %v\n",
		st.Logs, st.Records, st.Writes, st.Torn, st.Bytes, time.Since(start).Round(time.Millisecond))
	if ckptDir != "" {
		fmt.Printf("checkpoints: %d restored (%d rows), %d rejected; skipped %d records + %d whole segments\n",
			st.Checkpoints, st.CheckpointRows, st.CheckpointsBad, st.Skipped, st.SkippedSegments)
	}
	if st.Records < minRecords {
		fatal("only %d commit records replayed (want ≥ %d); the kill landed before the workload committed",
			st.Records, minRecords)
	}
	if st.Records < acked {
		fatal("only %d commit records replayed, but the run acknowledged %d commits: an acknowledged commit was lost",
			st.Records, acked)
	}
	if maxReplayBytes > 0 && st.Bytes > maxReplayBytes {
		fatal("replay applied %d log bytes, budget %d — checkpoints are not bounding recovery", st.Bytes, maxReplayBytes)
	}
	if st.Checkpoints < minCkpts {
		fatal("only %d snapshots restored (want ≥ %d); the checkpointer never produced one", st.Checkpoints, minCkpts)
	}

	schema := tbl.Schema
	failed := false
	var totalRows int
	for p := 0; p < parts; p++ {
		var sum int64
		var count int
		drained := true
		tbl.Partition(p).Range(func(_ uint64, r *storage.Row) bool {
			sum += schema.GetInt64(r.Entry.CurrentData(), 0)
			count++
			if ret, own, wait := r.Entry.Snapshot(); ret+own+wait != 0 {
				drained = false
			}
			return true
		})
		want := int64(count) * initialBalance
		status := "ok"
		if sum != want || !drained {
			status = "VIOLATION"
			failed = true
		}
		fmt.Printf("partition %d: %d rows, balance %d (want %d), drained=%v — %s\n",
			p, count, sum, want, drained, status)
		totalRows += count
	}
	if totalRows != rows {
		fatal("recovered %d rows, want %d", totalRows, rows)
	}
	if err := core.RecoveredTable(tbl); err != nil {
		fatal("partition routing: %v", err)
	}
	if failed {
		fatal("invariants violated after replay")
	}
	fmt.Println("RECOVERY OK")
}
