package storage

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// HashIndex is a sharded hash index mapping uint64 keys to rows. Each
// shard is an open-addressing table (linear probing) whose slots are
// published atomically, so lookups take no latch and write nothing to
// shared memory: two workers resolving the same hot key only share cache
// lines in read mode. Writers serialize on the shard's mutex; the shards
// bound writer contention during TPC-C inserts.
//
// Concurrency contract: a key whose Insert has returned is found by every
// Get that starts afterwards, and a key whose Delete has returned by none.
// A Get, Range or Len that overlaps a write may or may not observe it.
type HashIndex struct {
	shards [indexShards]indexShard
}

const (
	indexShards    = 64
	indexShardBits = 6
	// indexMinSlots is the smallest table a shard starts with.
	indexMinSlots = 8
	// fibHash is 2^64 / φ: multiplying by it spreads sequential keys over
	// the high bits of the product, which pick the shard (top 6 bits) and
	// the home slot (the bits below).
	fibHash = 0x9E3779B97F4A7C15
)

// indexShard is two cache lines: the table pointer every lookup of the
// shard starts from, and the writers' mutex and bookkeeping. Kept apart so
// that an insert into a shard does not invalidate the line its readers
// share.
type indexShard struct {
	tab atomic.Pointer[indexTable]
	_   [56]byte

	mu   sync.Mutex
	live int // keys present; guarded by mu
	used int // slots claimed in the current table, live or deleted; guarded by mu
	_    [40]byte
}

// indexTable is one generation of a shard's slots. At most half of them
// are ever claimed, so every probe sequence ends at an empty slot.
type indexTable struct {
	shift uint // home slot = (hash << indexShardBits) >> shift
	slots []indexSlot
}

// indexSlot is claimed once per table generation: key is written before
// the first row pointer is published and never changes afterwards, which
// is what lets a reader that loaded a non-nil row trust the key beside it.
// A deleted key leaves the slot claimed with row == deletedRow; only a
// re-insert of the same key or the next table generation reuses it.
type indexSlot struct {
	key uint64
	row atomic.Pointer[Row]
}

// deletedRow marks a claimed slot whose key was deleted.
var deletedRow = new(Row)

func newIndexTable(slots int) *indexTable {
	return &indexTable{shift: uint(64 - bits.TrailingZeros(uint(slots))), slots: make([]indexSlot, slots)}
}

// slotsFor returns the power-of-two table size that holds keys at no more
// than half load.
func slotsFor(keys int) int {
	n := indexMinSlots
	for n < 2*keys {
		n <<= 1
	}
	return n
}

// find probes for key and returns its slot, or the empty slot that ends
// the probe sequence.
func (t *indexTable) find(hash, key uint64) (s *indexSlot, r *Row) {
	mask := uint64(len(t.slots) - 1)
	for i := hash << indexShardBits >> t.shift; ; i = (i + 1) & mask {
		s = &t.slots[i]
		if r = s.row.Load(); r == nil || s.key == key {
			return s, r
		}
	}
}

// NewHashIndex creates an index sized for the expected number of keys.
func NewHashIndex(expect int) *HashIndex {
	idx := &HashIndex{}
	n := slotsFor(expect/indexShards + 1)
	for i := range idx.shards {
		idx.shards[i].tab.Store(newIndexTable(n))
	}
	return idx
}

// Get returns the row for key, or nil. Latch-free.
func (idx *HashIndex) Get(key uint64) *Row {
	hash := key * fibHash
	_, r := idx.shards[hash>>(64-indexShardBits)].tab.Load().find(hash, key)
	if r == deletedRow {
		return nil
	}
	return r
}

// Insert adds key→row, returning false if the key already exists. One
// probe finds either the duplicate or the slot to store into.
func (idx *HashIndex) Insert(key uint64, r *Row) bool {
	hash := key * fibHash
	sh := &idx.shards[hash>>(64-indexShardBits)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.tab.Load()
	s, cur := t.find(hash, key)
	if cur != nil && cur != deletedRow {
		return false
	}
	if cur == nil {
		// Claim the empty slot that ended the probe (a deleted slot of
		// this very key is simply taken over: its key is already right).
		if 2*(sh.used+1) > len(t.slots) {
			t = sh.grow(t)
			s, _ = t.find(hash, key)
		}
		s.key = key
		sh.used++
	}
	s.row.Store(r)
	sh.live++
	return true
}

// grow replaces the shard's table with one sized for twice its live keys
// — a quarter full, so the copy is paid for by as many inserts as it moved
// — RCU-style: the new generation is filled privately and published with
// one pointer store, and lookups still walking the old one finish on a
// table nobody writes to any more. Deleted slots are dropped on the way.
func (sh *indexShard) grow(old *indexTable) *indexTable {
	t := newIndexTable(slotsFor(2 * sh.live))
	for i := range old.slots {
		if r := old.slots[i].row.Load(); r != nil && r != deletedRow {
			key := old.slots[i].key
			s, _ := t.find(key*fibHash, key)
			s.key = key
			s.row.Store(r)
		}
	}
	sh.used = sh.live
	sh.tab.Store(t)
	return t
}

// Delete removes key, reporting whether it was present.
func (idx *HashIndex) Delete(key uint64) bool {
	hash := key * fibHash
	sh := &idx.shards[hash>>(64-indexShardBits)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, r := sh.tab.Load().find(hash, key)
	if r == nil || r == deletedRow {
		return false
	}
	s.row.Store(deletedRow)
	sh.live--
	return true
}

// Range calls fn for every (key, row) pair until fn returns false. The
// iteration order is unspecified. Concurrent inserts may or may not be
// observed; intended for loaders, checkers and statistics. Each shard is
// walked on the table generation current when the walk reaches it, so no
// key is visited twice.
func (idx *HashIndex) Range(fn func(key uint64, r *Row) bool) {
	for i := range idx.shards {
		t := idx.shards[i].tab.Load()
		for j := range t.slots {
			if r := t.slots[j].row.Load(); r != nil && r != deletedRow {
				if !fn(t.slots[j].key, r) {
					return
				}
			}
		}
	}
}

// Len returns the number of indexed keys.
func (idx *HashIndex) Len() int {
	n := 0
	for i := range idx.shards {
		sh := &idx.shards[i]
		sh.mu.Lock()
		n += sh.live
		sh.mu.Unlock()
	}
	return n
}
