package workload_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"bamboo/internal/workload"
)

func TestChunkTakeIsDisjointAndClamped(t *testing.T) {
	c := workload.Chunk[int]{Size: 8}
	var got [][]int
	for _, n := range []int{3, 3, 3, 20, 0, 1} {
		s := c.Take(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Take(%d): len %d cap %d", n, len(s), cap(s))
		}
		for i := range s {
			if s[i] != 0 {
				t.Fatalf("Take(%d)[%d] = %d, want zeroed", n, i, s[i])
			}
			s[i] = len(got) + 1
		}
		got = append(got, s)
	}
	// A write through any slice reached no other: each still holds its
	// own mark, and appending past one reallocates instead of overwriting.
	for j, s := range got {
		for i := range s {
			if s[i] != j+1 {
				t.Fatalf("slice %d [%d] = %d, want %d", j, i, s[i], j+1)
			}
		}
	}
	_ = append(got[0], -1)
	if got[1][0] != 2 {
		t.Fatal("append to a carved slice wrote into its neighbour")
	}
}

// TestPerWorkerConcurrentFirstCalls makes four workers' first calls race:
// each worker's value is made once and every caller sees its own.
func TestPerWorkerConcurrentFirstCalls(t *testing.T) {
	var made [4]atomic.Int32
	p := &workload.PerWorker[int]{New: func(worker int) int {
		made[worker].Add(1)
		return worker * 10
	}}
	var wg sync.WaitGroup
	for k := 3; k >= 0; k-- {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got := p.Get(k); got != k*10 {
					t.Errorf("Get(%d) = %d", k, got)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for k := range made {
		if n := made[k].Load(); n != 1 {
			t.Errorf("worker %d's value made %d times, want 1", k, n)
		}
	}
}

func TestPerWorkerSteadyStateAllocatesNothing(t *testing.T) {
	p := &workload.PerWorker[int]{New: func(worker int) int { return worker }}
	p.Get(2)
	if n := testing.AllocsPerRun(100, func() { p.Get(2) }); n != 0 {
		t.Fatalf("Get allocates %.0f times after the first call", n)
	}
}
