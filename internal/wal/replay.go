package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// ReplayStats reports what one log replay consumed.
type ReplayStats struct {
	// Records is the number of complete records decoded and applied.
	Records int
	// Skipped is the number of frames that were read and CRC-verified
	// but not applied because their sequence is covered by a checkpoint
	// (seq ≤ fromSeq). Integrity is still enforced for them — a
	// bit-flipped committed frame is corruption whether or not its
	// effects are already in a checkpoint image.
	Skipped int
	// SkippedSegments is the number of whole segment files recovery
	// never opened because every frame in them is covered by a
	// checkpoint; their frame counts are included in Skipped.
	SkippedSegments int
	// Bytes is the framed size of the applied records only — the replay
	// work actually done. With checkpoints this is the post-checkpoint
	// suffix, which is exactly what a bounded-recovery claim is about.
	Bytes int64
	// Offset is the byte offset just past the last complete frame in the
	// last file read — the point a log that will be appended to again
	// must be truncated to when Torn.
	Offset int64
	// Torn reports that the log ended in an incomplete frame (the normal
	// shape after a crash mid-append); the partial bytes were discarded.
	Torn bool
	// FirstApplied and LastSeq bound what the replay saw: FirstApplied
	// is the sequence of the first applied record (0 if none), LastSeq
	// the sequence of the last complete frame observed, applied or
	// skipped (0 if the log held none).
	FirstApplied uint64
	LastSeq      uint64
}

// add merges the stats of a later file in the same partition chain.
func (st *ReplayStats) add(next ReplayStats) {
	st.Records += next.Records
	st.Skipped += next.Skipped
	st.SkippedSegments += next.SkippedSegments
	st.Bytes += next.Bytes
	st.Offset = next.Offset
	st.Torn = next.Torn
	if st.FirstApplied == 0 {
		st.FirstApplied = next.FirstApplied
	}
	if next.LastSeq != 0 {
		st.LastSeq = next.LastSeq
	}
}

// Replay streams framed records (the FileDevice framing, see frame.go)
// from r, invoking fn on each in log order. Equivalent to
// ReplayFrom(r, 1, 0, fn): frames are numbered from 1 and none are
// skipped.
func Replay(r io.Reader, fn func(*Record) error) (ReplayStats, error) {
	return ReplayFrom(r, 1, 0, fn)
}

// ReplayFrom streams framed records from r, whose first frame has
// sequence firstSeq, invoking fn only on records with sequence above
// fromSeq (a checkpoint LSN: everything at or below it is already in the
// checkpoint image). Every complete frame — skipped or not — must pass
// its header-complement and CRC checks.
//
// A truncated frame at the tail is tolerated — it is what a crash
// mid-append leaves — and reported through ReplayStats.Torn. Everything
// else that is malformed is real corruption and fails the replay with
// ErrCorrupt: a frame scanFrames rejects (length words that disagree, a
// length past MaxFrameBytes, a payload CRC mismatch), or a complete
// frame whose record decodes short. The single-Write append discipline
// guarantees a process crash only ever leaves a prefix, so "short at the
// tail" is the one shape a crash can explain; the checksums make every
// in-place flip detectable rather than a silent misparse or silent
// truncation.
func ReplayFrom(r io.Reader, firstSeq, fromSeq uint64, fn func(*Record) error) (ReplayStats, error) {
	var st ReplayStats
	seq := firstSeq - 1 // sequence of the previously read frame
	torn, err := scanFrames(r, func(off int64, payload []byte) error {
		seq++
		st.LastSeq = seq
		st.Offset = off + frameSize(len(payload))
		if seq <= fromSeq {
			st.Skipped++
			return nil
		}
		// The frame arrived whole and CRC-clean, so a decode failure here
		// — torn-shaped or not — is corruption (a writer bug), not a
		// crash artifact. Re-type Decode's truncation errors accordingly
		// so errors.Is(err, ErrTornRecord) never holds for mid-log
		// damage.
		rec, err := Decode(payload)
		if err != nil {
			if errors.Is(err, ErrTornRecord) {
				return fmt.Errorf("wal: replay at seq %d: %w: complete frame decodes short (%v)",
					seq, ErrCorrupt, err)
			}
			return fmt.Errorf("wal: replay at seq %d: %w", seq, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		st.Records++
		if st.FirstApplied == 0 {
			st.FirstApplied = seq
		}
		st.Bytes += frameSize(len(payload))
		return nil
	})
	st.Torn = torn
	return st, err
}

// ReplayPartition replays partition p's segment chain in dir, invoking fn
// on every record with sequence above fromSeq. Closed segments that a
// checkpoint fully covers are skipped without being opened (their
// first-frame sequence is in the file name); the partially covered
// segment skips frame by frame, still CRC-checking what it skips. Chain
// holes (a segment whose first sequence does not continue its
// predecessor, or a replay start already truncated away) and torn
// non-final segments are corruption: recovery must fail loudly rather
// than resurrect a state missing committed records. A partition with no
// segment at all returns an fs.ErrNotExist error.
func ReplayPartition(dir string, p int, fromSeq uint64, fn func(*Record) error) (ReplayStats, error) {
	segs, err := ListSegments(dir, p)
	if err != nil {
		return ReplayStats{}, err
	}
	if len(segs) == 0 {
		return ReplayStats{}, fmt.Errorf("wal: partition %d: no log segments in %s: %w", p, dir, fs.ErrNotExist)
	}
	if fromSeq+1 < segs[0].FirstSeq {
		return ReplayStats{}, fmt.Errorf("wal: partition %d: %w: log starts at seq %d but replay needs seq %d — truncated past the checkpoint",
			p, ErrCorrupt, segs[0].FirstSeq, fromSeq+1)
	}
	var st ReplayStats
	expect := segs[0].FirstSeq
	for i, sg := range segs {
		if sg.FirstSeq != expect {
			return st, fmt.Errorf("wal: partition %d: %w: segment chain hole — %s starts at seq %d, want %d",
				p, ErrCorrupt, sg.Path, sg.FirstSeq, expect)
		}
		last := i == len(segs)-1
		if !last && segs[i+1].FirstSeq <= fromSeq+1 {
			// Every frame of this closed segment is ≤ fromSeq: the
			// checkpoint covers it whole, no need to open the file.
			st.SkippedSegments++
			st.Skipped += int(segs[i+1].FirstSeq - sg.FirstSeq)
			expect = segs[i+1].FirstSeq
			continue
		}
		f, err := os.Open(sg.Path)
		if err != nil {
			return st, err
		}
		fst, err := ReplayFrom(f, sg.FirstSeq, fromSeq, fn)
		f.Close()
		st.add(fst)
		if err != nil {
			return st, fmt.Errorf("wal: segment %s: %w", sg.Path, err)
		}
		if fst.Torn && !last {
			return st, fmt.Errorf("wal: partition %d: %w: segment %s is torn but not the newest — a crash cannot do that",
				p, ErrCorrupt, sg.Path)
		}
		if fst.LastSeq != 0 {
			expect = fst.LastSeq + 1
		}
	}
	return st, nil
}
