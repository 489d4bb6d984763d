package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment files are named wal-<partition>-<firstSeq>.seg: the sequence
// number of the first frame is in the name, so recovery can decide which
// whole files a checkpoint lets it skip — and truncation can decide
// which whole files to unlink — without reading them. The fixed-width
// zero padding keeps lexicographic and numeric order identical.

// SegmentPath returns the file name of the segment of partition p whose
// first frame has sequence firstSeq.
func SegmentPath(dir string, p int, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%03d-%020d.seg", p, firstSeq))
}

// SegmentInfo describes one on-disk segment file.
type SegmentInfo struct {
	Path     string
	FirstSeq uint64
	Bytes    int64
}

// ListSegments returns partition p's segment files in dir, ordered by
// FirstSeq ascending. A missing directory is an empty list, not an
// error — a partition that never logged has nothing to list.
func ListSegments(dir string, p int) ([]SegmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	prefix := fmt.Sprintf("wal-%03d-", p)
	var segs []SegmentInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".seg") {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".seg")
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil || seq == 0 {
			return nil, fmt.Errorf("wal: segment %s: malformed sequence in name", name)
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: stat segment %s: %w", name, err)
		}
		segs = append(segs, SegmentInfo{Path: filepath.Join(dir, name), FirstSeq: seq, Bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].FirstSeq < segs[j].FirstSeq })
	for i := 1; i < len(segs); i++ {
		if segs[i].FirstSeq == segs[i-1].FirstSeq {
			return nil, fmt.Errorf("wal: duplicate segment first-sequence %d in %s", segs[i].FirstSeq, dir)
		}
	}
	return segs, nil
}

// FrameBounds reports the [start, end) byte offsets of every complete,
// CRC-valid frame in the log file at path, and whether the file ends in
// a torn (incomplete) frame. A complete frame that fails its header
// complement or payload CRC check is corruption and fails the scan —
// callers repairing a crash tail must not truncate away evidence of bit
// rot. Used by segmented-device open (torn-tail repair), crash-test
// tooling and corruption-injection tests.
func FrameBounds(path string) ([][2]int64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	var bounds [][2]int64
	torn, err := scanFrames(f, func(off int64, payload []byte) error {
		bounds = append(bounds, [2]int64{off, off + frameSize(len(payload))})
		return nil
	})
	return bounds, torn, err
}
