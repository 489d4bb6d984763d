package wal

import (
	"bytes"
	"errors"
	"testing"
)

// TestCorruptionInjectionMatrix is the exhaustive single-byte-flip
// table: every frame-header byte and a sample of payload bytes of a real
// multi-record log gets one bit flipped, and the replay verdict must be
// exactly ErrCorrupt — never a silent torn-tail truncation, never a
// misparse — with every record before the damaged frame still applied.
// Truncations (the other fault class) must conversely always read as
// torn, never corrupt; together the two classes pin the decision
// boundary the frame format exists to draw.
func TestCorruptionInjectionMatrix(t *testing.T) {
	recs := []*Record{
		sample(),
		{TxnID: 2, Writes: []Write{{Table: "acct", Key: 7, Image: bytes.Repeat([]byte{0xA5}, 48)}}},
		{TxnID: 3, Writes: []Write{{Table: "acct", Key: 9, Image: bytes.Repeat([]byte{0x5A}, 16)}}},
	}
	var clean []byte
	var bounds [][2]int64
	for _, r := range recs {
		off := int64(len(clean))
		clean = appendFrame(clean, AppendRecord(nil, r))
		bounds = append(bounds, [2]int64{off, int64(len(clean))})
	}

	replayCount := func(data []byte) (int, ReplayStats, error) {
		n := 0
		st, err := Replay(bytes.NewReader(data), func(*Record) error { n++; return nil })
		return n, st, err
	}
	if n, st, err := replayCount(clean); err != nil || n != len(recs) || st.Torn {
		t.Fatalf("clean log: n=%d st=%+v err=%v", n, st, err)
	}

	// Class 1: in-place bit flips. Every header byte of every frame, and
	// every 7th payload byte, across all 8 bit positions for the header
	// words (a single position suffices for payload bytes — the CRC sees
	// them identically).
	for fi, b := range bounds {
		var offsets []int64
		for o := b[0]; o < b[0]+frameHeaderSize; o++ {
			offsets = append(offsets, o)
		}
		for o := b[0] + frameHeaderSize; o < b[1]; o += 7 {
			offsets = append(offsets, o)
		}
		for _, o := range offsets {
			header := o < b[0]+frameHeaderSize
			bits := []byte{0x01}
			if header {
				bits = []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80}
			}
			for _, bit := range bits {
				data := append([]byte(nil), clean...)
				data[o] ^= bit
				n, st, err := replayCount(data)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip 0x%02x at offset %d (frame %d, header=%v): err=%v torn=%v — want ErrCorrupt",
						bit, o, fi, header, err, st.Torn)
				}
				if errors.Is(err, ErrTornRecord) {
					t.Fatalf("flip at offset %d mis-typed as torn: %v", o, err)
				}
				if n != fi {
					t.Fatalf("flip at offset %d (frame %d): applied %d records before failing, want %d", o, fi, n, fi)
				}
			}
		}
	}

	// Class 2: truncations. A cut at any non-boundary offset is a torn
	// tail — recoverable, no error, every fully preserved record applied.
	for cut := 0; cut < len(clean); cut++ {
		data := clean[:cut]
		wantN := 0
		for _, b := range bounds {
			if int64(cut) >= b[1] {
				wantN++
			}
		}
		n, st, err := replayCount(data)
		if err != nil {
			t.Fatalf("cut at %d: err=%v — truncation must never be an error", cut, err)
		}
		onBoundary := cut == 0
		for _, b := range bounds {
			if int64(cut) == b[1] {
				onBoundary = true
			}
		}
		if st.Torn == onBoundary || n != wantN {
			t.Fatalf("cut at %d: n=%d want %d, torn=%v boundary=%v", cut, n, wantN, st.Torn, onBoundary)
		}
	}
}
