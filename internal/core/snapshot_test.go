package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

func acctSchema() *storage.Schema {
	return storage.NewSchema("acct", storage.Column{Name: "bal", Type: storage.ColInt64})
}

// snapCatalog holds 40 rows of table acct spread over parts partitions.
func snapCatalog(parts int) *storage.Catalog {
	c := storage.NewCatalog()
	tbl := c.MustCreateTablePartitioned(acctSchema(), 64, storage.HashPartitioner{N: parts})
	for k := uint64(1); k <= 40; k++ {
		img := make([]byte, 8)
		binary.LittleEndian.PutUint64(img, 1000+k)
		tbl.MustInsertRow(k, img)
	}
	return c
}

// emptyCatalog has table acct with no rows, partitioned like snapCatalog.
func emptyCatalog(parts int) *storage.Catalog {
	c := storage.NewCatalog()
	c.MustCreateTablePartitioned(acctSchema(), 64, storage.HashPartitioner{N: parts})
	return c
}

func catalogRows(c *storage.Catalog, p int) map[uint64]uint64 {
	out := map[uint64]uint64{}
	c.Table("acct").Partition(p).Range(func(key uint64, r *storage.Row) bool {
		out[key] = binary.LittleEndian.Uint64(r.Entry.CurrentData())
		return true
	})
	return out
}

// writeSnapshot captures partition p of c at seq into dir.
func writeSnapshot(t testing.TB, dir string, c *storage.Catalog, p int, seq uint64) snapshotFile {
	t.Helper()
	var w snapshotWriter
	if err := w.write(dir, c, p, seq); err != nil {
		t.Fatal(err)
	}
	return snapshotFile{path: snapshotPath(dir, p, seq), seq: seq}
}

func TestSnapshotRoundTrip(t *testing.T) {
	const parts = 3
	dir := t.TempDir()
	src := snapCatalog(parts)
	var w snapshotWriter // one writer: its buffers are reused across rounds
	for p := 0; p < parts; p++ {
		if err := w.write(dir, src, p, uint64(100+p)); err != nil {
			t.Fatal(err)
		}
	}
	dst := emptyCatalog(parts)
	total := 0
	for p := 0; p < parts; p++ {
		snaps, temps, err := listSnapshots(dir, p)
		if err != nil || len(snaps) != 1 || len(temps) != 0 || snaps[0].seq != uint64(100+p) {
			t.Fatalf("partition %d snapshots: %v %v %v", p, snaps, temps, err)
		}
		n, err := loadSnapshot(dst, snaps[0], p)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 40 {
		t.Fatalf("restored %d rows, want 40", total)
	}
	for p := 0; p < parts; p++ {
		want, got := catalogRows(src, p), catalogRows(dst, p)
		if len(want) != len(got) {
			t.Fatalf("partition %d: %d rows restored, want %d", p, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("partition %d key %d: %d != %d", p, k, got[k], v)
			}
		}
	}
}

// TestLoadSnapshotRejectsCorruption flips a byte at every offset of a
// valid snapshot, and cuts it inside frames and at every frame boundary:
// each variant must fail with wal.ErrCorrupt and leave the catalog's row
// count untouched (no partial restore).
func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	sn := writeSnapshot(t, dir, snapCatalog(1), 0, 7)
	clean, err := os.ReadFile(sn.path)
	if err != nil {
		t.Fatal(err)
	}
	bounds, _, err := wal.FrameBounds(sn.path)
	if err != nil || len(bounds) != 3 {
		t.Fatalf("clean snapshot frames: %v %v, want stamp, rows, end", bounds, err)
	}
	reject := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(sn.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := emptyCatalog(1)
		if _, err := loadSnapshot(fresh, sn, 0); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want wal.ErrCorrupt", what, err)
		}
		if n := fresh.Table("acct").Rows(); n != 0 {
			t.Fatalf("%s: %d rows applied from a corrupt snapshot", what, n)
		}
	}
	for off := range clean {
		data := bytes.Clone(clean)
		data[off] ^= 0x20
		reject("flip at "+strconv.Itoa(off), data)
	}
	// A half-written file (no atomic rename completed) must never load,
	// whether it ends inside a frame or on a frame boundary.
	for _, cut := range []int{0, 4, len(clean) / 2, len(clean) - 1} {
		reject("cut at "+strconv.Itoa(cut), clean[:cut])
	}
	for _, b := range bounds[:len(bounds)-1] {
		reject("cut at frame end "+strconv.Itoa(int(b[1])), clean[:b[1]])
	}
	// A valid file of the retired hand-written format: "BCKP" |
	// version 1 | partition 0 | seq 7 | no tables | crc32c.
	reject("BCKP file", []byte("BCKP\x01\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x1fD\xe7\x11"))
}

// TestLoadSnapshotRejectsForgedRecords frames well-formed records that
// break the snapshot layout: CRC-clean files the catalog and file name
// must still reject before applying any row.
func TestLoadSnapshotRejectsForgedRecords(t *testing.T) {
	route := emptyCatalog(2).Table("acct")
	keyIn := func(p int) uint64 {
		k := uint64(1)
		for route.PartitionFor(k) != p {
			k++
		}
		return k
	}
	key0, key1 := keyIn(0), keyIn(1)
	row := func(key uint64) *wal.Record {
		return &wal.Record{Writes: []wal.Write{{Table: "acct", Key: key, Image: make([]byte, 8)}}}
	}
	cases := map[string][]*wal.Record{
		"ok":                 {snapshotStamp(0, 5), row(key0), {TxnID: 1}},
		"no end record":      {snapshotStamp(0, 5), row(key0)},
		"wrong row count":    {snapshotStamp(0, 5), row(key0), {TxnID: 2}},
		"stamp of partition": {snapshotStamp(1, 5), row(key0), {TxnID: 1}},
		"stamp of seq":       {snapshotStamp(0, 6), row(key0), {TxnID: 1}},
		"no stamp":           {row(key0), {TxnID: 1}},
		"row of partition 1": {snapshotStamp(0, 5), row(key1), {TxnID: 1}},
		"unknown table":      {snapshotStamp(0, 5), {Writes: []wal.Write{{Table: "x", Key: key0, Image: make([]byte, 8)}}}, {TxnID: 1}},
		"short image":        {snapshotStamp(0, 5), {Writes: []wal.Write{{Table: "acct", Key: key0, Image: make([]byte, 4)}}}, {TxnID: 1}},
	}
	dir := t.TempDir()
	sn := snapshotFile{path: snapshotPath(dir, 0, 5), seq: 5}
	for name, recs := range cases {
		var data []byte
		for _, r := range recs {
			data = wal.AppendFramedRecord(data, r)
		}
		if err := os.WriteFile(sn.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := emptyCatalog(2)
		n, err := loadSnapshot(c, sn, 0)
		rows := c.Table("acct").Rows()
		if name == "ok" {
			if err != nil || n != 1 || rows != 1 {
				t.Fatalf("ok: n=%d rows=%d err=%v", n, rows, err)
			}
		} else if !errors.Is(err, wal.ErrCorrupt) || rows != 0 {
			t.Fatalf("%s: err = %v, %d rows applied; want wal.ErrCorrupt and none", name, err, rows)
		}
	}
}

func TestLoadSnapshotSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	sn := writeSnapshot(t, dir, snapCatalog(1), 0, 3)
	// Catalog without the table.
	if _, err := loadSnapshot(storage.NewCatalog(), sn, 0); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("missing table: %v", err)
	}
	// Catalog with a different row size.
	other := storage.NewCatalog()
	other.MustCreateTable(storage.NewSchema("acct",
		storage.Column{Name: "bal", Type: storage.ColInt64}, storage.Column{Name: "pad", Type: storage.ColInt64}), 4)
	if _, err := loadSnapshot(other, sn, 0); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("row size mismatch: %v", err)
	}
}

func TestPruneSnapshots(t *testing.T) {
	dir := t.TempDir()
	src := snapCatalog(1)
	for seq := uint64(1); seq <= 5; seq++ {
		writeSnapshot(t, dir, src, 0, seq*10)
	}
	kept, err := pruneSnapshots(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	snaps, _, err := listSnapshots(dir, 0)
	if err != nil || !reflect.DeepEqual(snaps, kept) {
		t.Fatalf("after prune: %v %v, pruning reported %v kept", snaps, err, kept)
	}
	if len(snaps) != 2 || snaps[0].seq != 50 || snaps[1].seq != 40 {
		t.Fatalf("kept %v, want seqs 50 and 40 newest-first", snaps)
	}
}

// TestSnapshotSkipsDirtyImages pins the fuzzy-checkpoint contract at the
// capture step: the snapshot carries the image AppendCommittedData
// yields (tested against retired installs in the lock package), which
// here is the committed one.
func TestSnapshotSkipsDirtyImages(t *testing.T) {
	dir := t.TempDir()
	c := snapCatalog(1)
	before := bytes.Clone(c.Table("acct").Get(1).Entry.CurrentData())
	data, err := os.ReadFile(writeSnapshot(t, dir, c, 0, 9).path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, before) {
		t.Fatal("snapshot does not contain the committed image")
	}
}

// snapshotSeeds are the committed FuzzLoadSnapshot seeds, built by the
// snapshot writer: partition 0 of a two-partition catalog at seq 7.
func snapshotSeeds(t *testing.T) map[string][]byte {
	dir := t.TempDir()
	sn := writeSnapshot(t, dir, snapCatalog(2), 0, 7)
	clean, err := os.ReadFile(sn.path)
	if err != nil {
		t.Fatal(err)
	}
	bounds, _, err := wal.FrameBounds(sn.path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(clean)
	flipped[bounds[1][0]+20] ^= 0x01 // inside the row chunk's payload
	return map[string][]byte{
		"seed-clean":          clean,
		"seed-bitflip":        flipped,
		"seed-cut-mid-frame":  clean[:bounds[1][0]+5],
		"seed-cut-frame-edge": clean[:bounds[1][1]],
	}
}

// TestSnapshotFuzzCorpus pins the committed seed corpus under
// testdata/fuzz/FuzzLoadSnapshot to what the snapshot writer produces.
// After a snapshot- or frame-format change regenerate it with
//
//	go test ./internal/core -run SnapshotFuzzCorpus -update
func TestSnapshotFuzzCorpus(t *testing.T) {
	for name, data := range snapshotSeeds(t) {
		path := filepath.Join("testdata", "fuzz", "FuzzLoadSnapshot", name)
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if *updateCorpus {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is not what the snapshot writer writes (re-run with -update if the format changed on purpose)", path)
		}
	}
}

// FuzzLoadSnapshot loads arbitrary bytes as partition 0's snapshot at
// seq 7: the load either succeeds whole or fails with wal.ErrCorrupt and
// leaves the catalog empty. It must never panic.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add([]byte{})
	sn := snapshotFile{path: snapshotPath(f.TempDir(), 0, 7), seq: 7}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(sn.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := emptyCatalog(2)
		n, err := loadSnapshot(c, sn, 0)
		rows := c.Table("acct").Rows()
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("untyped load error: %v", err)
			}
			if rows != 0 {
				t.Fatalf("rejected snapshot applied %d rows: %v", rows, err)
			}
			return
		}
		// Duplicate keys collapse, so the table holds at most n rows.
		if rows > int64(n) || (n > 0) != (rows > 0) {
			t.Fatalf("loaded %d rows, table holds %d", n, rows)
		}
	})
}
