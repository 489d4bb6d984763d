package core

import (
	"math/bits"
	"unsafe"

	"bamboo/internal/storage"
)

// walkMax is the longest RowSet that Find searches by walking it; past
// it a set finds its rows through a rowIndex. A walk costs nothing to
// keep up, and an index costs a hash and an insert per access, so a walk
// is faster over a short set; but a walk per new access makes an
// attempt's lookups quadratic in its length. Committing n distinct
// shared reads on the lock engine (2-vCPU Xeon, go1.24.0, EXPERIMENTS.md
// 2026-10-18), the walk was faster up to n = 32 and the index from
// n = 40. walkMax sits between, above TPC-C NewOrder's largest attempt
// (3 + 2 × 15 = 33 accesses), so NewOrder, like every shorter workload
// transaction, always walks, on the lock engine and on Silo alike.
const walkMax = 36

// RowSet holds the rows one attempt has accessed, each once, in access
// order; an engine keeps what it knows of each access in a list of its
// own at the same positions. The lock engine and Silo both find an
// attempt's earlier accesses through one. The zero value is an empty set,
// and Reset empties it for the next attempt while keeping its storage.
type RowSet struct {
	rows []*storage.Row
	// index is the position index, built once an attempt outgrows a walk
	// and nil until one does.
	index *rowIndex
}

// Find returns the position of row in the set, or -1: a walk while the
// set is short, its position index past walkMax rows.
func (s *RowSet) Find(row *storage.Row) int {
	if len(s.rows) > walkMax {
		return s.index.find(row)
	}
	for i, r := range s.rows {
		if r == row {
			return i
		}
	}
	return -1
}

// Add appends row, which must not be in the set, and returns its
// position. The row that takes the set past walkMax builds the index from
// the whole set; each later one adds itself. The index needs no clearing
// between attempts: Find consults it only past walkMax rows, and Add
// rebuilds it when an attempt first gets there.
func (s *RowSet) Add(row *storage.Row) int {
	i := len(s.rows)
	s.rows = append(s.rows, row)
	switch {
	case i > walkMax:
		s.index.add(row, i)
	case i == walkMax:
		if s.index == nil {
			s.index = &rowIndex{}
		}
		s.index.rebuild(s.rows)
	}
	return i
}

// Row returns the row at position i.
func (s *RowSet) Row(i int) *storage.Row { return s.rows[i] }

// Len returns the number of rows in the set.
func (s *RowSet) Len() int { return len(s.rows) }

// Reset empties the set, keeping its storage and its index's.
func (s *RowSet) Reset() {
	clear(s.rows)
	s.rows = s.rows[:0]
}

// rowIndex maps the rows of one long RowSet to their positions in it: open addressing with linear probing over a power-of-two
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

// rebuild empties the index and fills it with rows.
func (x *rowIndex) rebuild(rows []*storage.Row) {
	if x.gen++; x.gen == 0 {
		clear(x.slots) // the generation wrapped: no stale slot may match
		x.gen = 1
	}
	x.n = 0
	if need := 2 * len(rows); len(x.slots) < need {
		x.resize(1 << bits.Len(uint(need-1)))
	}
	for i, row := range rows {
		x.add(row, i)
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

// add records that row is at position pos. row must not be in
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

// find returns the position of row, or -1.
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
