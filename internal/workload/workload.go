// Package workload holds what the workload generators share: the chunks
// their plans are carved from, and the per-worker table through which a
// core.Generator finds a worker's own generator.
package workload

import (
	"sync"
	"sync/atomic"
)

// Chunk carves slices out of arrays of Size elements. A carved slice is
// never handed out again and its capacity is clamped to its length, so it
// is its holder's for as long as the holder keeps it: a plan in a
// benchmark's ring, a loaded row's image. A chunk is not safe for
// concurrent use.
type Chunk[T any] struct {
	Size int
	free []T
}

// Take returns n zeroed elements. A request larger than Size gets an array
// of its own.
func (c *Chunk[T]) Take(n int) []T {
	if len(c.free) < n {
		c.free = make([]T, max(c.Size, n))
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// PerWorker holds one value per worker, made by New on the worker's first
// Get. Only that first call locks; every later one is an atomic load and
// an index, and writes no shared memory. Each worker index must be used
// by one goroutine at a time, as core.Generator's are.
type PerWorker[T any] struct {
	New func(worker int) T
	mu  sync.Mutex
	// vals is copied on write, so a reader never sees a slice change.
	vals atomic.Pointer[[]*T]
}

// Get returns worker's value.
func (p *PerWorker[T]) Get(worker int) T {
	if vals := p.vals.Load(); vals != nil && worker < len(*vals) {
		if v := (*vals)[worker]; v != nil {
			return *v
		}
	}
	return p.add(worker)
}

func (p *PerWorker[T]) add(worker int) T {
	p.mu.Lock()
	defer p.mu.Unlock()
	var old []*T
	if vals := p.vals.Load(); vals != nil {
		old = *vals
	}
	if worker < len(old) && old[worker] != nil {
		return *old[worker]
	}
	vals := make([]*T, max(len(old), worker+1))
	copy(vals, old)
	v := p.New(worker)
	vals[worker] = &v
	p.vals.Store(&vals)
	return v
}
