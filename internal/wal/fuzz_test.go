package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

// TestFuzzCorpus pins the committed seed corpus under testdata/fuzz to
// what the log's own framer writes: a clean three-frame log (with and
// without a covering checkpoint LSN), a payload bit flip, a header bit
// flip, a torn tail, and a record whose write count has a flipped bit.
// The seeds carry real CRC-32C values, so after a frame-format change
// regenerate them with
//
//	go test ./internal/wal -run FuzzCorpus -update
func TestFuzzCorpus(t *testing.T) {
	var log []byte
	var recs [][]byte
	for i := 1; i <= 3; i++ {
		enc := AppendRecord(nil, &Record{TxnID: uint64(i), Writes: []Write{
			{Table: "acct", Key: uint64(10 + i), Image: []byte{byte(i), 0xA5, 0x5A, byte(i)}},
		}})
		recs = append(recs, enc)
		log = appendFrame(log, enc)
	}
	flip := func(b []byte, off int, bit byte) []byte {
		b = bytes.Clone(b)
		b[off] ^= bit
		return b
	}
	lit := func(b []byte) string { return "[]byte(" + strconv.Quote(string(b)) + ")" }
	u64 := func(v uint64) string { return "uint64(" + strconv.FormatUint(v, 10) + ")" }
	seeds := map[string][]string{
		"FuzzReplayCheckpoint/seed-clean-full":          {lit(log), u64(0)},
		"FuzzReplayCheckpoint/seed-clean-ckpt2":         {lit(log), u64(2)},
		"FuzzReplayCheckpoint/seed-clean-ckpt-past-end": {lit(log), u64(99)},
		// The first payload byte, and the length word, of frame 1.
		"FuzzReplayCheckpoint/seed-payload-bitflip": {lit(flip(log, frameHeaderSize, 0x01)), u64(0)},
		"FuzzReplayCheckpoint/seed-header-bitflip":  {lit(flip(log, 1, 0x80)), u64(1)},
		"FuzzReplayCheckpoint/seed-torn-tail":       {lit(log[:len(log)-5]), u64(1)},
		"FuzzReplayCheckpoint/seed-empty":           {lit(nil), u64(0)},
		"FuzzDecode/seed-record":                    {lit(recs[1])},
		"FuzzDecode/seed-record-bitflip":            {lit(flip(recs[1], 9, 0x10))},
	}
	for name, lines := range seeds {
		path := filepath.Join("testdata", "fuzz", name)
		want := "go test fuzz v1\n" + strings.Join(lines, "\n") + "\n"
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
			t.Errorf("%s is not what the framer writes (re-run with -update if the format changed on purpose)", path)
		}
	}
}

// FuzzDecode throws arbitrary bytes at Decode: it must never panic, never
// loop unboundedly, and classify every failure as either a torn record or
// corruption. Whatever decodes successfully must re-encode to the exact
// input bytes (the format has no redundancy to lose).
func FuzzDecode(f *testing.F) {
	f.Add(AppendRecord(nil, sample()))
	f.Add(AppendRecord(nil, &Record{TxnID: 1}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 16)) // huge nWrites + huge lengths
	hostile := binary.LittleEndian.AppendUint64(nil, 1)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0xFFFFFFFF)
	f.Add(hostile) // length-prefix overflow shape
	f.Fuzz(func(t *testing.T, buf []byte) {
		rec, err := Decode(buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTornRecord) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if got := AppendRecord(nil, rec); !bytes.Equal(got, buf) {
			t.Fatalf("decode/encode not identity: %x -> %x", buf, got)
		}
	})
}

// FuzzRecordRoundTrip fuzzes the AppendRecord/Decode round trip with
// structured inputs: encoding onto a dirty prefix must append exactly the
// bytes of a fresh encoding, and Decode must reproduce the record.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(42), "warehouse", uint64(7), []byte{1, 2, 3}, "d", uint64(71), []byte{})
	f.Add(uint64(0), "", uint64(0), []byte(nil), "", uint64(0), []byte(nil))
	f.Fuzz(func(t *testing.T, id uint64, tbl1 string, key1 uint64, img1 []byte,
		tbl2 string, key2 uint64, img2 []byte) {
		if len(tbl1) > 65535 || len(tbl2) > 65535 {
			t.Skip("table names longer than the u16 length prefix")
		}
		rec := &Record{TxnID: id, Writes: []Write{
			{Table: tbl1, Key: key1, Image: img1},
			{Table: tbl2, Key: key2, Image: img2},
		}}
		enc := AppendRecord(nil, rec)
		prefix := []byte{9, 9, 9}
		appended := AppendRecord(append([]byte(nil), prefix...), rec)
		if !bytes.Equal(appended[len(prefix):], enc) {
			t.Fatalf("AppendRecord onto a prefix disagrees with a fresh encoding")
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if got.TxnID != id || len(got.Writes) != 2 {
			t.Fatalf("round trip: %+v", got)
		}
		for i, w := range []struct {
			tbl string
			key uint64
			img []byte
		}{{tbl1, key1, img1}, {tbl2, key2, img2}} {
			g := got.Writes[i]
			if g.Table != w.tbl || g.Key != w.key || !bytes.Equal(g.Image, w.img) {
				t.Fatalf("write %d: got %+v want %+v", i, g, w)
			}
		}
		// Truncations of a valid record must be rejected as torn or
		// corrupt, never misparsed into a "valid" shorter record.
		for _, cut := range []int{len(enc) - 1, len(enc) / 2, 13} {
			if cut < 0 || cut >= len(enc) {
				continue
			}
			if r, err := Decode(enc[:cut]); err == nil && len(r.Writes) == len(rec.Writes) {
				t.Fatalf("truncation at %d decoded fully", cut)
			}
		}
	})
}

// FuzzReplayCheckpoint fuzzes checkpoint-aware replay: arbitrary log
// bytes with an arbitrary checkpoint LSN must never panic, must fail
// only with ErrCorrupt (a torn tail is a stats flag, not an error), and
// must agree with a full replay of the same bytes about frame counts,
// tear status and how many records a checkpoint at fromSeq skips.
func FuzzReplayCheckpoint(f *testing.F) {
	var log []byte
	for i := 1; i <= 3; i++ {
		log = appendFrame(log, AppendRecord(nil, &Record{TxnID: uint64(i),
			Writes: []Write{{Table: "t", Key: uint64(i), Image: []byte{byte(i), 0xAA}}}}))
	}
	f.Add(log, uint64(0))
	f.Add(log, uint64(2))
	f.Add(log, uint64(99))
	flipped := append([]byte(nil), log...)
	flipped[frameHeaderSize] ^= 0x01
	f.Add(flipped, uint64(0))
	f.Add(log[:len(log)-3], uint64(1)) // torn tail
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, fromSeq uint64) {
		applied := 0
		st, err := ReplayFrom(bytes.NewReader(data), 1, fromSeq, func(*Record) error { applied++; return nil })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped replay error: %v", err)
			}
			if errors.Is(err, ErrTornRecord) {
				t.Fatalf("replay error typed as torn: %v", err)
			}
			return
		}
		if st.Records != applied {
			t.Fatalf("st.Records=%d but fn ran %d times", st.Records, applied)
		}
		total := st.Records + st.Skipped
		if st.LastSeq != uint64(total) {
			t.Fatalf("LastSeq=%d with %d frames from seq 1", st.LastSeq, total)
		}
		if st.Bytes > st.Offset {
			t.Fatalf("applied bytes %d exceed scanned offset %d", st.Bytes, st.Offset)
		}
		full, ferr := ReplayFrom(bytes.NewReader(data), 1, 0, func(*Record) error { return nil })
		if ferr != nil {
			// A CRC-valid frame whose record decodes short fails a full
			// replay but is legitimately skipped (undecoded) when a
			// checkpoint covers it. Nothing further to cross-check.
			return
		}
		if full.Records != total || full.Torn != st.Torn {
			t.Fatalf("full replay disagrees: %+v vs %+v", full, st)
		}
		if want := total - int(min(uint64(total), fromSeq)); applied != want {
			t.Fatalf("checkpoint at %d: applied %d of %d records, want %d", fromSeq, applied, total, want)
		}
	})
}

func TestDecodeTypedErrors(t *testing.T) {
	enc := AppendRecord(nil, sample())
	// Truncations are torn records.
	for _, cut := range []int{0, 5, 11, 13, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); !errors.Is(err, ErrTornRecord) {
			t.Errorf("cut at %d: err = %v, want ErrTornRecord", cut, err)
		}
	}
	// Trailing bytes are corruption.
	if _, err := Decode(append(append([]byte{}, enc...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Error("trailing byte not ErrCorrupt")
	}
	// A write count that cannot fit is corruption, rejected before the
	// loop (a garbage count must not drive iteration).
	huge := binary.LittleEndian.AppendUint64(nil, 1)
	huge = binary.LittleEndian.AppendUint32(huge, 0xFFFFFFFF)
	huge = append(huge, make([]byte, 100)...)
	if _, err := Decode(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overflowing write count: %v, want ErrCorrupt", err)
	}
	// An image length prefix far past the buffer is torn (the image bytes
	// are simply missing), and must not panic or misparse.
	rec := &Record{TxnID: 3, Writes: []Write{{Table: "t", Key: 1, Image: []byte{1, 2, 3, 4}}}}
	enc = AppendRecord(nil, rec)
	binary.LittleEndian.PutUint32(enc[len(enc)-8:], 0xFFFFFFF0) // imgLen field
	if _, err := Decode(enc); !errors.Is(err, ErrTornRecord) {
		t.Errorf("overflowing image length: %v, want ErrTornRecord", err)
	}
}
