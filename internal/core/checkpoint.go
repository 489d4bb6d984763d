package core

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// CheckpointConfig enables the storage lifecycle: a background
// checkpointer that snapshots each partition's committed rows without
// stopping writers, and the log-truncation policy that keeps the WAL
// bounded once checkpoints make its prefix redundant.
//
// Checkpoints require WALDir (there is nothing to truncate, and no
// durable LSN to stamp, without file-backed logs), whose logs are segment
// chains with or without them. They cover the lock-engine commit path
// (Bamboo and the 2PL baselines), whose commit window coordinates with
// the checkpointer through the DB's checkpoint gate. The Silo and IC3
// engines' commits do not take the gate; Silo publishes on the version
// chain, which a snapshot does not read, and IC3's piece installs are
// uncommitted images in the Entry.Data it does; so occ.New and chop.New
// refuse a DB that enables checkpoints.
//
// A snapshot is a file of WAL frames holding wal.Records (snapshot.go),
// so internal/wal alone decides what the bytes on disk mean. Recovery
// rejects a snapshot that fails any check with wal.ErrCorrupt, the same
// sentinel as a corrupt log, before applying any of its rows.
type CheckpointConfig struct {
	// Dir is where snapshot files live (ckpt-PPP-SEQ.ckpt, plus the
	// .tmp a crash mid-write leaves for the next round to prune);
	// non-empty enables checkpointing.
	Dir string
	// Interval is the period of the background rounds (default 1s); each
	// round visits every partition.
	Interval time.Duration
	// SegmentBytes is the segment rotation threshold of every WALDir
	// log, checkpoints on or off (0 = the wal.DefaultSegmentBytes
	// default). Truncation reclaims whole segments, so this bounds both
	// truncation granularity and how much already-checkpointed log can
	// linger.
	SegmentBytes int64
	// Truncate unlinks log segments a durable checkpoint has made
	// redundant. The cut is the second-newest retained snapshot's LSN,
	// so the newest checkpoint being corrupt still leaves a previous
	// snapshot plus the full log suffix it needs.
	Truncate bool
}

// Enabled reports whether checkpointing is configured.
func (c CheckpointConfig) Enabled() bool { return c.Dir != "" }

// DefaultCheckpointInterval is used when CheckpointConfig.Interval ≤ 0.
const DefaultCheckpointInterval = time.Second

// keepSnapshots is how many snapshots per partition a checkpoint round
// retains: the two that truncation's cut below the second-newest needs.
const keepSnapshots = 2

// CheckpointStats is the checkpointer's cumulative telemetry.
type CheckpointStats struct {
	// Checkpoints is the number of snapshot files written.
	Checkpoints uint64
	// SkippedRounds counts rounds skipped because the partition's
	// sequence had not advanced since its last snapshot.
	SkippedRounds uint64
	// Time is cumulative capture+write+prune time.
	Time time.Duration
	// Truncations counts truncation passes that dropped segments;
	// TruncatedBytes is what they reclaimed.
	Truncations    uint64
	TruncatedBytes int64
	// Errors counts failed background rounds (the loop keeps going; the
	// last error is also retained and returned by DB.CheckpointNow).
	Errors uint64
}

// checkpointer is the background storage-lifecycle loop: per partition,
// capture a fuzzy snapshot stamped with the WAL sequence, written through
// it first, prune
// old snapshots, and truncate the log below the second-newest retained
// snapshot.
type checkpointer struct {
	db *DB

	mu      sync.Mutex // serializes rounds; guards everything below
	lastSeq []uint64   // newest snapshot seq per partition (0 = none)
	snap    snapshotWriter
	stats   CheckpointStats
	lastErr error
	// ticks counts the ticks the loop has received; each runs one round
	// per partition under mu.
	ticks uint64

	runMu   sync.Mutex
	stopCh  chan struct{}
	doneCh  chan struct{}
	running bool
}

func newCheckpointer(db *DB) *checkpointer {
	return &checkpointer{db: db, lastSeq: make([]uint64, db.Partitions())}
}

// start launches the loop. Idempotent. Called via DB.StartCheckpointer —
// never from NewDB: a checkpointer running during base load or replay
// would snapshot half-loaded state and then truncate away the only
// complete copy of the records.
func (c *checkpointer) start() {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if c.running {
		return
	}
	c.mu.Lock()
	for p := range c.lastSeq {
		// Resume from what is on disk: a restarted process must not
		// re-snapshot sequences already covered, nor trust in-memory
		// state it does not have.
		if snaps, _, err := listSnapshots(c.db.cfg.Checkpoint.Dir, p); err == nil && len(snaps) > 0 {
			c.lastSeq[p] = snaps[0].seq
		}
	}
	c.mu.Unlock()
	c.stopCh = make(chan struct{})
	c.doneCh = make(chan struct{})
	c.running = true
	go c.loop(c.stopCh, c.doneCh)
}

func (c *checkpointer) stop() {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if !c.running {
		return
	}
	close(c.stopCh)
	<-c.doneCh
	c.running = false
}

func (c *checkpointer) loop(stopCh, doneCh chan struct{}) {
	defer close(doneCh)
	interval := c.db.cfg.Checkpoint.Interval
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stopCh:
			return
		case <-tick.C:
			c.mu.Lock()
			c.ticks++
			for p := 0; p < c.db.Partitions(); p++ {
				if err := c.partitionRoundLocked(p); err != nil {
					c.stats.Errors++
					c.lastErr = err
				}
			}
			c.mu.Unlock()
		}
	}
}

// runAll checkpoints every partition now, regardless of triggers.
func (c *checkpointer) runAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for p := 0; p < c.db.Partitions(); p++ {
		if err := c.partitionRoundLocked(p); err != nil && first == nil {
			first = err
		}
	}
	if first == nil {
		first = c.lastErr
		c.lastErr = nil
	}
	return first
}

func (c *checkpointer) partitionRoundLocked(p int) error {
	cfg := &c.db.cfg.Checkpoint
	// Capture the checkpoint sequence under the gate's write lock: every
	// in-flight commit window (record sequenced at some seq … effects
	// installed) drains first, so all records ≤ seq have their writes
	// installed and a snapshot taken from here on cannot miss them. The
	// snapshot itself runs after the gate is released — writers proceed
	// concurrently, which is what makes the checkpoint fuzzy: it may
	// additionally contain effects of records > seq, and replay
	// re-applying those after-images is idempotent.
	c.db.ckptGate.Lock()
	seq := c.db.PLog.Seq(p)
	c.db.ckptGate.Unlock()
	if seq == c.lastSeq[p] {
		c.stats.SkippedRounds++
		return nil
	}
	start := time.Now()
	// Records through seq may be sequenced but not yet written (their
	// committers write after they release). Write them, and sync them
	// under FsyncBatch, before the snapshot claims to cover them: a
	// restart from a log that lacks them would give their sequence
	// numbers to new records, which replay would skip as covered.
	if _, err := c.db.PLog.Log(p).Through(seq).Wait(nil); err != nil {
		return fmt.Errorf("core: checkpoint partition %d: write log through %d: %w", p, seq, err)
	}
	if err := c.snap.write(cfg.Dir, c.db.Catalog, p, seq); err != nil {
		return fmt.Errorf("core: checkpoint partition %d: %w", p, err)
	}
	c.lastSeq[p] = seq
	c.stats.Checkpoints++
	kept, err := pruneSnapshots(cfg.Dir, p, keepSnapshots)
	if err != nil {
		return fmt.Errorf("core: prune checkpoints partition %d: %w", p, err)
	}
	c.stats.Time += time.Since(start)
	if cfg.Truncate && len(kept) >= 2 {
		// Cut below the second-newest snapshot: both retained recovery
		// points keep their full log suffix, so a corrupt newest
		// snapshot still recovers from the previous one.
		dropped, err := c.db.PLog.TruncateBelow(p, kept[1].seq)
		if err != nil {
			return fmt.Errorf("core: truncate partition %d: %w", p, err)
		}
		if dropped > 0 {
			c.stats.Truncations++
			c.stats.TruncatedBytes += dropped
		}
	}
	return nil
}

func (c *checkpointer) statsSnapshot() CheckpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StartCheckpointer launches the background checkpoint/truncation loop.
// Call it only after the base state is loaded and any crash replay has
// finished — a checkpoint of a half-recovered catalog, followed by
// truncation, would discard the only complete copy of committed records.
// No-op when checkpoints are disabled; idempotent when they are not.
func (db *DB) StartCheckpointer() {
	if db.ckpt != nil {
		db.ckpt.start()
	}
}

// CheckpointNow synchronously runs one checkpoint round over every
// partition, regardless of the interval trigger, and returns
// the first error (including any pending background-round error). Tools
// and tests use it to force a recovery point.
func (db *DB) CheckpointNow() error {
	if db.ckpt == nil {
		return errors.New("core: checkpoints are not enabled")
	}
	return db.ckpt.runAll()
}

// CheckpointStats returns the checkpointer's cumulative telemetry; zero
// when checkpoints are disabled.
func (db *DB) CheckpointStats() CheckpointStats {
	if db.ckpt == nil {
		return CheckpointStats{}
	}
	return db.ckpt.statsSnapshot()
}

// LogLiveBytes sums the live (not yet truncated) WAL bytes across all
// partition devices — the quantity the truncation policy bounds.
func (db *DB) LogLiveBytes() int64 {
	var total int64
	for p := 0; p < db.Partitions(); p++ {
		total += db.PLog.LiveBytes(p)
	}
	return total
}
