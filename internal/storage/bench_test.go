package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// Layer microbenchmarks for the primary index and the row insert path;
// `go run -C benchmark .` reports the same layers as storage.index_get_ns
// and, through tpcc_wal, allocs_per_txn.

const benchIndexRows = 200_000 // the size of benchmark/'s index probe

var benchSink uint64

func benchIndex(b *testing.B) *HashIndex {
	b.Helper()
	idx := NewHashIndex(benchIndexRows)
	rows := make([]Row, benchIndexRows)
	for k := range rows {
		rows[k].Key = uint64(k)
		if !idx.Insert(uint64(k), &rows[k]) {
			b.Fatalf("insert %d refused", k)
		}
	}
	return idx
}

// BenchmarkIndexGet: one goroutine, uniform random keys drawn beforehand.
func BenchmarkIndexGet(b *testing.B) {
	idx := benchIndex(b)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(rng.Intn(benchIndexRows))
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += idx.Get(keys[i&(len(keys)-1)]).Key
	}
	benchSink += sum
}

// BenchmarkIndexGetParallel: every goroutine looks up the same key — the
// hot row of a hotspot workload. Any write the lookup makes to shared
// memory shows here as cache-line traffic between the cores.
func BenchmarkIndexGetParallel(b *testing.B) {
	idx := benchIndex(b)
	const hot = 4711
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sum uint64
		for pb.Next() {
			sum += idx.Get(hot).Key
		}
		if sum%hot != 0 {
			b.Error("lookup returned another row")
		}
	})
}

// BenchmarkInsertRow: commit-time inserts into one table with ascending
// keys, the caller's image shared so that allocs/op counts only what the
// insert path itself allocates (run with -benchmem).
func BenchmarkInsertRow(b *testing.B) {
	schema := testSchema()
	tbl := NewTable(schema, 0)
	img := schema.NewRowImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.InsertRow(uint64(i), img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVersionInstallHot: installs on one chain whose reclaim
// watermark stands still while depth versions pile up above it — a hot
// row between two pruner ticks. Every depth installs the watermark steps
// to the version installed depth ago, the next install detaches the tail
// that passes and the loop installs from those nodes, as a session's free
// list does. ns/op must not grow with depth (one walk per watermark, not
// one per install) and allocs/op must be 0 (run with -benchmem).
func BenchmarkVersionInstallHot(b *testing.B) {
	for _, depth := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var c VersionChain
			img := make([]byte, 8)
			c.Seed(0, img)
			free := make([]*Version, 0, 2*depth+2)
			ts, water := uint64(0), uint64(0)
			install := func() {
				ts++
				if ts%uint64(depth) == 0 && ts > uint64(depth) {
					water = ts - uint64(depth)
				}
				var node *Version
				if n := len(free); n > 0 {
					node, free = free[n-1], free[:n-1]
				}
				for v := c.InstallNode(node, img, ts, water); v != nil; {
					next, _ := v.Recycle()
					free = append(free, v)
					v = next
				}
			}
			for i := 0; i < 4*depth+4; i++ { // fill the chain and the free list
				install()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				install()
			}
			benchSink += uint64(len(free))
		})
	}
}
