package core

import (
	"math"
	"testing"

	"bamboo/internal/storage"
)

// TestRowIndexGenerations: each rebuild forgets the previous attempt's
// rows, through growth and through a wrap of the generation counter.
func TestRowIndexGenerations(t *testing.T) {
	rows := make([]storage.Row, 600)
	list := func(from, to int) []*storage.Row {
		var rs []*storage.Row
		for i := from; i < to; i++ {
			rs = append(rs, &rows[i])
		}
		return rs
	}
	check := func(x *rowIndex, rs []*storage.Row, from, to int) {
		t.Helper()
		for i, row := range rs {
			if got := x.find(row); got != i {
				t.Fatalf("gen %d: row %d at %d, want %d", x.gen, from+i, got, i)
			}
		}
		for i := range rows {
			if (i < from || i >= to) && x.find(&rows[i]) != -1 {
				t.Fatalf("gen %d: found row %d of another attempt", x.gen, i)
			}
		}
	}
	var x rowIndex
	first := list(0, 300) // grows the table from 128 slots to 1 024
	x.rebuild(first[:walkMax+1])
	for i := walkMax + 1; i < len(first); i++ {
		x.add(first[i], i)
	}
	check(&x, first, 0, 300)

	x.gen = math.MaxUint32 // the next rebuild wraps
	second := list(300, 340)
	x.rebuild(second)
	if x.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", x.gen)
	}
	check(&x, second, 300, 340)

	third := list(340, 600)
	x.rebuild(third[:walkMax+1])
	for i := walkMax + 1; i < len(third); i++ {
		x.add(third[i], i)
	}
	check(&x, third, 340, 600)
}
