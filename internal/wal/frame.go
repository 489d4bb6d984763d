package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame format of the file-backed logs (FileDevice):
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
// bytes missing entirely. Replay reports that as a torn tail and stops;
// every complete-but-inconsistent frame is corruption.
//
// Only a coordinated flip of the same bit in both length words can forge
// a plausible length; that is outside the single-bit-rot fault model this
// layer targets (as is a payload whose CRC collides after multi-byte
// damage).
const frameHeaderSize = 12

// castagnoli is the CRC-32C table shared by framing and checkpoint files.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed encoding of rec onto buf.
func appendFrame(buf, rec []byte) []byte {
	n := uint32(len(rec))
	buf = binary.LittleEndian.AppendUint32(buf, n)
	buf = binary.LittleEndian.AppendUint32(buf, ^n)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(rec, castagnoli))
	return append(buf, rec...)
}

// frameSize returns the on-disk size of a frame holding a payload of n
// bytes.
func frameSize(n int) int64 { return int64(frameHeaderSize + n) }

// parseFrameHeader validates the 12-byte header: it returns the payload
// length and the expected payload CRC, or false if the two length words
// disagree (in-place corruption of the header).
func parseFrameHeader(hdr []byte) (length uint32, crc uint32, ok bool) {
	length = binary.LittleEndian.Uint32(hdr)
	inv := binary.LittleEndian.Uint32(hdr[4:])
	crc = binary.LittleEndian.Uint32(hdr[8:])
	return length, crc, length == ^inv
}
