package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// A checkpoint snapshot of partition p at WAL sequence seq is the file
// ckpt-PPP-SEQ.ckpt, a run of WAL frames (wal.AppendFramedRecord)
// holding wal.Records in this order:
//
//	stamp  {TxnID: seq, Writes: [{Key: p}]}
//	rows   {Writes: [{Table, Key, Image}, …]}, each ≈ snapshotChunkBytes of images
//	end    {TxnID: number of row writes}
//
// The seq stamp is the partition's durable WAL sequence at capture: the
// snapshot plus the log suffix strictly above seq reconstructs the
// partition. Rows are captured through lock.Entry.AppendCommittedData, so
// a fuzzy snapshot taken while writers run never contains a dirty
// (retired-but-uncommitted) image; images committed after seq may slip
// in, which is harmless because replay reapplies idempotent after-images.

// snapshotChunkBytes bounds the image bytes of one row record, so no
// frame of a large partition approaches wal.MaxFrameBytes.
const snapshotChunkBytes = 64 << 10

// snapshotPath returns the snapshot file name for partition p at WAL
// sequence seq. The fixed-width sequence keeps lexicographic and numeric
// order identical, like WAL segment names.
func snapshotPath(dir string, p int, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%03d-%020d.ckpt", p, seq))
}

// snapshotFile is one on-disk snapshot.
type snapshotFile struct {
	path string
	seq  uint64
}

// listSnapshots returns partition p's snapshots in dir, newest (highest
// seq) first — the order recovery tries them in — and the temp files of
// snapshot writes a crash cut short. A missing directory is empty.
func listSnapshots(dir string, p int) (snaps []snapshotFile, temps []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("core: list snapshots: %w", err)
	}
	prefix := fmt.Sprintf("ckpt-%03d-", p)
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) {
			continue
		}
		path := filepath.Join(dir, name)
		seqStr, isSnap := strings.CutSuffix(name[len(prefix):], ".ckpt")
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		switch {
		case strings.HasSuffix(name, ".ckpt"+wal.TempSuffix):
			temps = append(temps, path)
		case isSnap && err == nil:
			snaps = append(snaps, snapshotFile{path: path, seq: seq})
		} // any other file is foreign; never trust it as a checkpoint
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	return snaps, temps, nil
}

// pruneSnapshots removes all but the keep newest snapshots of partition
// p in dir, and the temp files of its interrupted writes, and returns the
// snapshots it kept, newest first. The caller holds checkpointer.mu, so
// no write of p is in flight.
func pruneSnapshots(dir string, p, keep int) ([]snapshotFile, error) {
	snaps, temps, err := listSnapshots(dir, p)
	if err != nil {
		return nil, err
	}
	for _, sn := range snaps[min(keep, len(snaps)):] {
		temps = append(temps, sn.path)
	}
	for _, path := range temps {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	return snaps[:min(keep, len(snaps))], wal.SyncDir(dir)
}

// snapshotStamp is the first record of partition p's snapshot at seq.
func snapshotStamp(p int, seq uint64) *wal.Record {
	return &wal.Record{TxnID: seq, Writes: []wal.Write{{Key: uint64(p)}}}
}

// snapshotWriter captures snapshots; its buffers are reused across
// checkpoint rounds.
type snapshotWriter struct {
	buf   []byte     // the framed file
	chunk wal.Record // the row record being filled
	imgs  []byte     // the images chunk.Writes point into
}

// write captures partition p of every table in c, stamped with WAL
// sequence seq, and publishes it atomically as snapshotPath(dir, p, seq).
// Tables with fewer partitions than p contribute nothing: their rows
// belong to lower-numbered partitions' snapshots.
func (w *snapshotWriter) write(dir string, c *storage.Catalog, p int, seq uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: create checkpoint dir: %w", err)
	}
	w.buf = wal.AppendFramedRecord(w.buf[:0], snapshotStamp(p, seq))
	w.chunk.Writes, w.imgs = w.chunk.Writes[:0], w.imgs[:0]
	names := c.Tables()
	sort.Strings(names)
	var rows uint64
	var err error
	for _, name := range names {
		tbl := c.Table(name)
		if p >= tbl.NumPartitions() {
			continue
		}
		rowSize := tbl.Schema.RowSize()
		tbl.Partition(p).Range(func(key uint64, r *storage.Row) bool {
			// An append that grows imgs leaves the earlier Images on
			// the old array, which nothing writes again.
			start := len(w.imgs)
			w.imgs = r.Entry.AppendCommittedData(w.imgs)
			if len(w.imgs)-start != rowSize {
				err = fmt.Errorf("core: snapshot of %s key %d: committed image is %d bytes, schema says %d",
					name, key, len(w.imgs)-start, rowSize)
				return false
			}
			w.chunk.Writes = append(w.chunk.Writes, wal.Write{Table: name, Key: key, Image: w.imgs[start:]})
			rows++
			if len(w.imgs) >= snapshotChunkBytes {
				w.flush()
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	w.flush()
	w.buf = wal.AppendFramedRecord(w.buf, &wal.Record{TxnID: rows})
	return wal.WriteFileAtomic(snapshotPath(dir, p, seq), w.buf)
}

// flush frames the pending row chunk, if any, and empties it.
func (w *snapshotWriter) flush() {
	if len(w.chunk.Writes) > 0 {
		w.buf = wal.AppendFramedRecord(w.buf, &w.chunk)
	}
	w.chunk.Writes, w.imgs = w.chunk.Writes[:0], w.imgs[:0]
}

// loadSnapshot verifies the snapshot sn of partition p and applies its
// rows into c, returning how many it restored. The whole file is read
// and checked before the first row is applied: every rejection — a bad
// or torn frame, a missing end record or wrong row count, a stamp that
// disagrees with the file name, a row of an unknown table, of the wrong
// image size or routed to another partition — wraps wal.ErrCorrupt and
// leaves c untouched. Tables must already exist in c (recovery loads the
// schema and base state first).
func loadSnapshot(c *storage.Catalog, sn snapshotFile, p int) (int, error) {
	f, err := os.Open(sn.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var recs []*wal.Record
	st, err := wal.Replay(f, func(rec *wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("core: snapshot %s: %w", filepath.Base(sn.path), err)
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("core: snapshot %s: %w: %s", filepath.Base(sn.path), wal.ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if st.Torn {
		return 0, corrupt("torn frame at offset %d", st.Offset)
	}
	if len(recs) < 2 {
		return 0, corrupt("%d records, want a stamp and an end record", len(recs))
	}
	if !reflect.DeepEqual(recs[0], snapshotStamp(p, sn.seq)) {
		return 0, corrupt("first record is not the stamp of partition %d at seq %d", p, sn.seq)
	}
	end, rows := recs[len(recs)-1], recs[1:len(recs)-1]
	n := 0
	var tbl *storage.Table
	for _, rec := range rows {
		for _, w := range rec.Writes {
			tbl = tableOf(c, tbl, w.Table)
			switch {
			case tbl == nil:
				return 0, corrupt("table %q not in catalog", w.Table)
			case len(w.Image) != tbl.Schema.RowSize():
				return 0, corrupt("%s key %d: image is %d bytes, schema says %d", w.Table, w.Key, len(w.Image), tbl.Schema.RowSize())
			case tbl.PartitionFor(w.Key) != p:
				return 0, corrupt("%s key %d routes to partition %d", w.Table, w.Key, tbl.PartitionFor(w.Key))
			}
		}
		n += len(rec.Writes)
	}
	if len(end.Writes) != 0 || end.TxnID != uint64(n) {
		return 0, corrupt("end record claims %d rows (%d writes), file holds %d", end.TxnID, len(end.Writes), n)
	}
	for _, rec := range rows {
		if err := applyWrites(c, rec.Writes); err != nil {
			return 0, fmt.Errorf("core: snapshot %s: %w", filepath.Base(sn.path), err)
		}
	}
	return n, nil
}
