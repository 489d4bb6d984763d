package wal

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func sample() *Record {
	return &Record{
		TxnID: 42,
		Writes: []Write{
			{Table: "warehouse", Key: 7, Image: []byte{1, 2, 3}},
			{Table: "district", Key: 71, Image: nil},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rec := sample()
	got, err := Decode(AppendRecord(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.TxnID != rec.TxnID || len(got.Writes) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Writes[0].Table != "warehouse" || got.Writes[0].Key != 7 ||
		!bytes.Equal(got.Writes[0].Image, []byte{1, 2, 3}) {
		t.Fatalf("write 0: %+v", got.Writes[0])
	}
	if len(got.Writes[1].Image) != 0 {
		t.Fatalf("write 1 image: %v", got.Writes[1].Image)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	enc := AppendRecord(nil, sample())
	for _, cut := range []int{1, 11, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, table string, key uint64, img []byte) bool {
		if len(table) > 1000 {
			table = table[:1000]
		}
		rec := &Record{TxnID: id, Writes: []Write{{Table: table, Key: key, Image: img}}}
		got, err := Decode(AppendRecord(nil, rec))
		if err != nil {
			return false
		}
		return got.TxnID == id && got.Writes[0].Table == table &&
			got.Writes[0].Key == key && bytes.Equal(got.Writes[0].Image, img)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemDevice(t *testing.T) {
	dev := NewMemDevice(true)
	a := New(dev).NewAppender()
	for i := 0; i < 3; i++ {
		lsn, err := a.Commit(sample())
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d", lsn)
		}
	}
	if st := dev.Stats(); st.Appends != 3 || st.Batches != 3 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	recs, err := dev.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || !reflect.DeepEqual(recs[0], sample()) {
		t.Fatalf("records: %+v", recs)
	}
}

func TestAppenderReusesBuffer(t *testing.T) {
	dev := NewMemDevice(true)
	l := New(dev)
	a := l.NewAppender()
	want := []*Record{sample(), {TxnID: 9, Writes: []Write{{Table: "t", Key: 1, Image: []byte{7}}}}}
	for _, r := range want {
		if _, err := a.Commit(r); err != nil {
			t.Fatal(err)
		}
	}
	// The appender reuses one buffer; the device must have copied, so
	// earlier records stay intact.
	recs, err := dev.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !reflect.DeepEqual(recs[0], want[0]) || !reflect.DeepEqual(recs[1], want[1]) {
		t.Fatalf("records corrupted by buffer reuse: %+v", recs)
	}
}

// slowDevice delays every device write, modeling a real fsync; with it,
// records pile up while a flush is in progress, so group commit must
// actually form multi-record batches.
type slowDevice struct {
	*MemDevice
	delay time.Duration
}

func (d *slowDevice) Append(rec []byte) (uint64, error) {
	time.Sleep(d.delay)
	return d.MemDevice.Append(rec)
}

func (d *slowDevice) AppendBatch(recs [][]byte) (uint64, error) {
	time.Sleep(d.delay)
	return d.MemDevice.AppendBatch(recs)
}

// commitConcurrently has workers goroutines commit perWorker records each
// through l, whose records land on dev, then closes l.
func commitConcurrently(t *testing.T, l *Log, dev *MemDevice, workers, perWorker int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := l.NewAppender()
			for i := 0; i < perWorker; i++ {
				rec := &Record{TxnID: uint64(w*perWorker + i), Writes: []Write{{Table: "t", Key: uint64(i), Image: []byte{byte(i)}}}}
				if _, err := a.Commit(rec); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				// Commit returning means the record is durable NOW.
				if dev.Stats().Appends < 1 {
					t.Errorf("commit returned before anything was durable")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitDurability(t *testing.T) {
	dev := NewMemDevice(true)
	l := NewGroupCommit(&slowDevice{MemDevice: dev, delay: 200 * time.Microsecond})
	const workers, perWorker = 8, 50
	commitConcurrently(t, l, dev, workers, perWorker)
	if got := dev.Stats().Appends; got != workers*perWorker {
		t.Fatalf("%d records durable, want %d", got, workers*perWorker)
	}
	// Group commit must have batched device writes: fewer flush
	// operations than records proves multi-record epochs. The slow
	// device guarantees records pile up during each flush, so a
	// one-record-per-flush run means batching is broken.
	if b := dev.Stats().Batches; b >= workers*perWorker {
		t.Fatalf("batches = %d for %d records: group commit degenerated to per-record writes",
			b, workers*perWorker)
	}
	// Every record must decode and be unique.
	recs, err := dev.Records()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.TxnID] {
			t.Fatalf("duplicate record %d", r.TxnID)
		}
		seen[r.TxnID] = true
	}
}

// TestGroupCommitBatchesOnOneCore pins what the flusher's yield is for:
// on one processor, with a device that returns at once, the flusher
// woken by an epoch's first record would otherwise close the epoch before
// any other committer ran, and every commit would cost a device write of
// its own.
func TestGroupCommitBatchesOnOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dev := NewMemDevice(false)
	const workers, perWorker = 4, 200
	commitConcurrently(t, NewGroupCommit(dev), dev, workers, perWorker)
	s := dev.Stats()
	if s.Appends != workers*perWorker {
		t.Fatalf("%d records durable, want %d", s.Appends, workers*perWorker)
	}
	if s.Batches > s.Appends/2 {
		t.Fatalf("%d device writes for %d records on one processor: epochs hold too few records",
			s.Batches, s.Appends)
	}
	t.Logf("%d records in %d device writes", s.Appends, s.Batches)
}

func TestGroupCommitClose(t *testing.T) {
	l := NewGroupCommit(NewMemDevice(false))
	a := l.NewAppender()
	if _, err := a.Commit(sample()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(sample()); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
