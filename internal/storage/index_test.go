package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHashIndexConcurrent checks the index's concurrency contract under
// -race, across several table generations per shard (the index starts at
// its minimum size): writers insert their own key ranges and delete every
// third key again, readers look up keys the writers have announced, and a
// scanner runs Range throughout.
//
//   - A key whose Insert returned is found by every later Get, until its
//     Delete returns; then by none.
//   - A second Insert of a present key is refused.
//   - Range never reports a key twice or under another key's row, and sees
//     every key that was present, and stays present, for the whole scan.
//   - Len matches the keys left at the end.
func TestHashIndexConcurrent(t *testing.T) {
	const (
		writers   = 4
		perWriter = 12_000 // ÷ 64 shards × 4 writers: ~8 growths per shard from 8 slots
		readers   = 2
	)
	if got := len(NewHashIndex(0).shards[0].tab.Load().slots); got != indexMinSlots {
		t.Fatalf("precondition: empty index starts with %d slots per shard, want %d", got, indexMinSlots)
	}
	idx := NewHashIndex(0)
	deleted := func(i int) bool { return i%3 == 0 } // the keys a writer deletes again
	keyOf := func(w, i int) uint64 { return uint64(w*perWriter + i) }

	// announced[w] = how many of writer w's keys are inserted, with the
	// deletions among them done too.
	var announced [writers]atomic.Int64
	var stop atomic.Bool
	var wg, bg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := keyOf(w, i)
				r := &Row{Key: k}
				if !idx.Insert(k, r) {
					t.Errorf("insert of fresh key %d refused", k)
					return
				}
				if idx.Get(k) != r {
					t.Errorf("key %d not found right after its insert returned", k)
					return
				}
				if idx.Insert(k, &Row{Key: k}) {
					t.Errorf("duplicate insert of key %d accepted", k)
					return
				}
				if deleted(i) {
					if !idx.Delete(k) || idx.Delete(k) {
						t.Errorf("delete of key %d: want present once", k)
						return
					}
					if idx.Get(k) != nil {
						t.Errorf("key %d found after its delete returned", k)
						return
					}
				}
				announced[w].Store(int64(i + 1))
			}
		}()
	}

	for r := 0; r < readers; r++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				w := rng.Intn(writers)
				n := int(announced[w].Load())
				if n == 0 {
					continue
				}
				i := rng.Intn(n)
				k := keyOf(w, i)
				got := idx.Get(k)
				switch {
				case deleted(i) && got != nil:
					t.Errorf("deleted key %d found", k)
					return
				case !deleted(i) && (got == nil || got.Key != k):
					t.Errorf("announced key %d: got %v", k, got)
					return
				}
			}
		}()
	}

	bg.Add(1)
	go func() {
		defer bg.Done()
		seen := make(map[uint64]bool, writers*perWriter)
		for !stop.Load() {
			var before [writers]int
			for w := range before {
				before[w] = int(announced[w].Load())
			}
			clear(seen)
			ok := true
			idx.Range(func(k uint64, r *Row) bool {
				if r.Key != k || seen[k] {
					t.Errorf("range: key %d reported with row %d, seen before: %v", k, r.Key, seen[k])
					ok = false
				}
				seen[k] = true
				return ok
			})
			for w := 0; ok && w < writers; w++ {
				for i := 0; i < before[w]; i++ {
					if !deleted(i) && !seen[keyOf(w, i)] {
						t.Errorf("range missed key %d, present since before the scan", keyOf(w, i))
						return
					}
				}
			}
			if !ok {
				return
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	bg.Wait()
	if t.Failed() {
		return
	}

	want := 0
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			got := idx.Get(keyOf(w, i))
			if deleted(i) != (got == nil) {
				t.Fatalf("final state: key %d present=%v, deleted=%v", keyOf(w, i), got != nil, deleted(i))
			}
			if !deleted(i) {
				want++
			}
		}
	}
	if idx.Len() != want {
		t.Fatalf("Len = %d, want %d", idx.Len(), want)
	}
	grown := 0
	for i := range idx.shards {
		if len(idx.shards[i].tab.Load().slots) >= indexMinSlots<<4 {
			grown++
		}
	}
	if grown != indexShards {
		t.Fatalf("only %d of %d shards grew four generations: the test did not cross the growths it is about", grown, indexShards)
	}
}
