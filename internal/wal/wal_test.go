package wal

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
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
	if st := dev.Stats(); st.Appends != 3 || st.Bytes == 0 {
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
