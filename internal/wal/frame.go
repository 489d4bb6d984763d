package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame format of every file this package writes — log segments and,
// through AppendFramedRecord, checkpoint snapshots:
//
//	len u32 | ^len u32 | crc32c(payload) u32 | payload
//
// The 12-byte header exists to make the torn/corrupt distinction
// decidable from the bytes alone:
//
//   - the length complement (^len) self-checks the length prefix, so a
//     bit flipped inside either length word is detected immediately as
//     ErrCorrupt — without it a corrupted-in-place length that happens to
//     point past EOF is indistinguishable from a crash truncation, and
//     replay would silently discard every committed record after it;
//   - the CRC-32C (Castagnoli, hardware-accelerated on amd64/arm64)
//     covers the payload, so in-place bit rot inside a complete frame is
//     ErrCorrupt, never a misparse.
//
// A crash mid-append — frames are written with single Write calls to an
// O_APPEND file — leaves only a short read at the tail: header or payload
// bytes missing entirely. scanFrames reports that as a torn tail and
// stops; every complete-but-inconsistent frame is corruption.
//
// Only a coordinated flip of the same bit in both length words can forge
// a plausible length; that is outside the single-bit-rot fault model this
// layer targets (as is a payload whose CRC collides after multi-byte
// damage).
const frameHeaderSize = 12

// castagnoli is the CRC-32C table of the frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed encoding of rec onto buf.
func appendFrame(buf, rec []byte) []byte {
	start := len(buf)
	buf = append(append(buf, make([]byte, frameHeaderSize)...), rec...)
	sealFrame(buf[start:])
	return buf
}

// AppendFramedRecord appends rec, encoded by AppendRecord and framed as a
// log segment frames it, onto buf and returns the extended slice. The
// result reads back through Replay.
func AppendFramedRecord(buf []byte, rec *Record) []byte {
	start := len(buf)
	buf = AppendRecord(append(buf, make([]byte, frameHeaderSize)...), rec)
	sealFrame(buf[start:])
	return buf
}

// sealFrame fills in the header of frame f from the payload behind it.
func sealFrame(f []byte) {
	n := uint32(len(f) - frameHeaderSize)
	binary.LittleEndian.PutUint32(f, n)
	binary.LittleEndian.PutUint32(f[4:], ^n)
	binary.LittleEndian.PutUint32(f[8:], crc32.Checksum(f[frameHeaderSize:], castagnoli))
}

// frameSize returns the on-disk size of a frame holding a payload of n
// bytes.
func frameSize(n int) int64 { return int64(frameHeaderSize + n) }

// MaxFrameBytes caps the frame length a reader accepts. A prefix above it
// is length-prefix garbage (a flipped bit, not a plausible record):
// treating it as a torn tail would silently discard every committed
// record after the corruption.
const MaxFrameBytes = 1 << 28 // 256 MiB

// scanFrames streams the frames of r in order, calling fn with the start
// offset and payload of each complete, CRC-valid frame; the payload is
// only valid during the call. It is the one place that decides what a
// frame's bytes mean: input that ends inside a frame is a torn tail
// (torn is true, err nil), and a complete frame whose length words
// disagree, whose length passes MaxFrameBytes or whose payload fails its
// CRC is ErrCorrupt. Only one frame is held in memory, and a torn tail's
// claimed length is never allocated up front.
func scanFrames(r io.Reader, fn func(off int64, payload []byte) error) (torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	body := io.LimitedReader{R: br}
	var hdr [frameHeaderSize]byte
	var payload bytes.Buffer
	for off := int64(0); ; off += frameSize(payload.Len()) {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			switch {
			case errors.Is(err, io.EOF):
				return false, nil // clean end on a frame boundary
			case errors.Is(err, io.ErrUnexpectedEOF):
				return true, nil // torn inside the header
			}
			return false, err
		}
		length := binary.LittleEndian.Uint32(hdr[:])
		if length != ^binary.LittleEndian.Uint32(hdr[4:]) {
			return false, fmt.Errorf("wal: frame at offset %d: %w: length %#x contradicts its complement",
				off, ErrCorrupt, length)
		}
		if length > MaxFrameBytes {
			return false, fmt.Errorf("wal: frame at offset %d: %w: length %d overflows the %d cap",
				off, ErrCorrupt, length, MaxFrameBytes)
		}
		payload.Reset()
		body.N = int64(length)
		if _, err := payload.ReadFrom(&body); err != nil {
			return false, err
		}
		if payload.Len() < int(length) {
			return true, nil // torn inside the payload
		}
		if crc32.Checksum(payload.Bytes(), castagnoli) != binary.LittleEndian.Uint32(hdr[8:]) {
			return false, fmt.Errorf("wal: frame at offset %d: %w: payload CRC mismatch", off, ErrCorrupt)
		}
		if err := fn(off, payload.Bytes()); err != nil {
			return false, err
		}
	}
}
