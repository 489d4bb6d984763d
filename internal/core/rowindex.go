package core

import (
	"math/bits"
	"unsafe"

	"bamboo/internal/storage"
)

// walkMax is the longest access list the lock engine searches by walking
// it; an attempt past it finds its rows through a rowIndex. A walk costs
// nothing to keep up, and an index costs a hash and an insert per access,
// so a walk is faster over a short list; but a walk per new access makes
// an attempt's lookups quadratic in its length. Committing n distinct
// shared reads (2-vCPU Xeon, go1.24.0, EXPERIMENTS.md 2026-10-18), the
// walk was faster up to n = 32 and the index from n = 40. walkMax sits
// between, above TPC-C NewOrder's largest attempt (3 + 2 × 15 = 33
// accesses), so NewOrder, like every shorter workload transaction,
// always walks.
const walkMax = 36

// rowIndex maps the rows of one long attempt to their positions in its
// access list: open addressing with linear probing over a power-of-two
// table kept at most half full. A slot belongs to the current attempt
// only if it carries the current generation, so emptying the index for
// the next attempt is a generation bump, not a clear, whatever size an
// earlier attempt grew it to. Entries are never deleted: an attempt's
// accesses only grow.
type rowIndex struct {
	slots []rowSlot
	shift uint // 64 - log2(len(slots))
	gen   uint32
	n     int // slots of the current generation
}

type rowSlot struct {
	row *storage.Row
	pos int32
	gen uint32
}

// rebuild empties the index and fills it with accesses' rows.
func (x *rowIndex) rebuild(accesses []access) {
	if x.gen++; x.gen == 0 {
		clear(x.slots) // the generation wrapped: no stale slot may match
		x.gen = 1
	}
	x.n = 0
	if need := 2 * len(accesses); len(x.slots) < need {
		x.resize(1 << bits.Len(uint(need-1)))
	}
	for i := range accesses {
		x.add(accesses[i].row, i)
	}
}

// resize replaces the table with an empty one of n slots, n a power of
// two, and re-inserts the current generation's entries.
func (x *rowIndex) resize(n int) {
	old, gen := x.slots, x.gen
	x.slots = make([]rowSlot, n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	x.gen, x.n = 1, 0
	for i := range old {
		if s := &old[i]; s.gen == gen {
			x.add(s.row, int(s.pos))
		}
	}
}

// home is row's first probe slot: Fibonacci hashing of its address.
func (x *rowIndex) home(row *storage.Row) uint64 {
	return uint64(uintptr(unsafe.Pointer(row))) * 0x9e3779b97f4a7c15 >> x.shift
}

// add records that row's access is at position pos. row must not be in
// the index yet.
func (x *rowIndex) add(row *storage.Row, pos int) {
	if 2*(x.n+1) > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
	x.n++
	mask := uint64(len(x.slots) - 1)
	for h := x.home(row); ; h = (h + 1) & mask {
		if s := &x.slots[h]; s.gen != x.gen {
			*s = rowSlot{row: row, pos: int32(pos), gen: x.gen}
			return
		}
	}
}

// find returns the position of row's access, or -1.
func (x *rowIndex) find(row *storage.Row) int {
	mask := uint64(len(x.slots) - 1)
	for h := x.home(row); ; h = (h + 1) & mask {
		s := &x.slots[h]
		if s.gen != x.gen {
			return -1
		}
		if s.row == row {
			return int(s.pos)
		}
	}
}
