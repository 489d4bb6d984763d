package lock

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bamboo/internal/txn"
)

// committed takes tx past its commit point the way the core executor
// does (txn.CommitPoint) and reports whether it got there; if not, the
// harness releases the attempt's requests as aborted.
func committed(tx *txn.Txn) bool { return tx.CommitPoint(nil, nil) == txn.CauseNone }

// stallBound is how long one stress harness run may take before its
// watchdog gives up on it: a run takes well under a second, also under
// the race detector at GOMAXPROCS=1. A waiter that misses its wake-up
// parks for good rather than finding the change on its next poll, so a
// lost wake-up shows as a hang, and a hang here should fail with the
// state that explains it, before the test binary's timeout (CI's is
// 90 s).
const stallBound = 30 * time.Second

// watchdog panics with every entry's lists and each worker's current
// transaction if stop is not called within stallBound. Workers publish
// their transaction with track.
type watchdog struct {
	workers []atomic.Pointer[txn.Txn]
	done    chan struct{}
}

func startWatchdog(t *testing.T, entries []*Entry, workers int) *watchdog {
	d := &watchdog{workers: make([]atomic.Pointer[txn.Txn], workers), done: make(chan struct{})}
	name := t.Name()
	go func() {
		select {
		case <-d.done:
		case <-time.After(stallBound):
			var b strings.Builder
			for w := range d.workers {
				fmt.Fprintf(&b, "worker %d: %v\n", w, d.workers[w].Load())
			}
			for i, e := range entries {
				fmt.Fprintf(&b, "entry %d:\n%s", i, e.DebugString())
			}
			panic(fmt.Sprintf("%s: stalled for %v\n%s", name, stallBound, b.String()))
		}
	}()
	return d
}

func (d *watchdog) track(worker int, tx *txn.Txn) { d.workers[worker].Store(tx) }

func (d *watchdog) stop() { close(d.done) }

// pooledStress is the pooled-request stress harness. Eight workers run
// perWorker transactions each over nEntries hot 8-byte counters; a
// transaction makes lo to nEntries accesses in entry order (index order
// only avoids latch deadlock; timestamp-order conflicts still wound and
// cascade). Each access draws a request from its worker's Pool, acquires
// it in mode's mode and runs access on the grant, which returns the
// increments it made or an error that aborts the attempt. The attempt
// then commits through committed, and every request is released and
// recycled. pooledStress returns how many private copies were built in
// recycled spare buffers.
//
// Its oracles: a request's generation does not change while it is held
// (a recycle under the holder's feet); a shared holder's image does not
// change before its release (a buffer recycled while still reachable —
// under -race the overwrite is also a data race); every entry drains with
// its invariants intact; and the counters sum to the committed
// increments.
func pooledStress(t *testing.T, cfg Config, nEntries, lo, perWorker int, seed int64,
	mode func(*rand.Rand) Mode, access func(*rand.Rand, *Manager, *Request) (uint64, error)) uint64 {
	m := NewManager(cfg)
	entries := make([]*Entry, nEntries)
	for i := range entries {
		entries[i] = newEntry(make([]byte, 8)...)
	}
	const workers = 8
	var incs, reused [workers]uint64
	wd := startWatchdog(t, entries, workers)
	defer wd.stop()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var pool Pool
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			tx := txn.New(0)
			tx.SetTSAlloc(m.NewTSAlloc(w))
			wd.track(w, tx)
			var reqs []*Request
			var gens, seen []uint64
			for i := 0; i < perWorker; i++ {
				tx.Renew(uint64(w*perWorker+i) + 1)
				n := lo + rng.Intn(nEntries-lo+1)
				for {
					if !cfg.DynamicTS && !tx.HasTS() {
						m.AssignTS(tx)
					}
					reqs, gens, seen = reqs[:0], gens[:0], seen[:0]
					var writes uint64
					var err error
					for ei := 0; ei < n && err == nil; ei++ {
						r := pool.Get()
						gen := r.Gen()
						if err = m.AcquireInto(r, tx, mode(rng), entries[ei]); err != nil {
							if r.Gen() != gen {
								t.Errorf("request recycled while held (gen %d -> %d)", gen, r.Gen())
							}
							pool.Put(r)
							break
						}
						reqs, gens, seen = append(reqs, r), append(gens, gen), append(seen, binary.LittleEndian.Uint64(r.Data))
						var k uint64
						k, err = access(rng, m, r)
						writes += k
					}
					commit := err == nil && committed(tx)
					for ri, r := range reqs {
						if got := binary.LittleEndian.Uint64(r.Data); r.Mode == SH && got != seen[ri] {
							t.Errorf("held shared image mutated: read %d at grant, %d at release (buffer recycled while reachable)", seen[ri], got)
						}
						m.Release(r, !commit)
						if r.Gen() != gens[ri] {
							t.Errorf("request recycled while held (gen %d -> %d)", gens[ri], r.Gen())
						}
						_, u := r.ImageStats()
						reused[w] += uint64(u)
						pool.Put(r)
					}
					if commit {
						tx.FinishCommit()
						incs[w] += writes
						break
					}
					tx.FinishAbort()
					tx.Reset()
				}
			}
		}(w)
	}
	wg.Wait()

	var want, totalReused uint64
	for w := range incs {
		want += incs[w]
		totalReused += reused[w]
	}
	if got := drained(t, entries...); got != want {
		t.Fatalf("summed counters = %d, committed increments = %d (lost or phantom updates)", got, want)
	}
	if want == 0 {
		t.Fatal("no committed increments observed")
	}
	return totalReused
}

// drained checks that every entry emptied and kept its invariants, and
// returns the sum of their 8-byte counters.
func drained(t *testing.T, entries ...*Entry) (sum uint64) {
	t.Helper()
	for _, e := range entries {
		sum += binary.LittleEndian.Uint64(e.CurrentData())
		if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
			t.Fatalf("entry not drained: %d/%d/%d\n%s", ret, own, wait, e.DebugString())
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	return sum
}

// shared is the mode of every access that reads first.
func shared(*rand.Rand) Mode { return SH }

// upgradeAccess makes half the shared grants read-modify-writes: an
// in-place SH→EX upgrade and an increment, retired half the time under
// Bamboo.
func upgradeAccess(rng *rand.Rand, m *Manager, r *Request) (uint64, error) {
	seen := binary.LittleEndian.Uint64(r.Data)
	if rng.Intn(2) != 0 {
		return 0, nil
	}
	if err := m.Upgrade(r); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(r.Data, seen+1)
	if m.Variant() == Bamboo && rng.Intn(2) == 0 {
		m.Retire(r)
	}
	return 1, nil
}

// TestPooledReuseStress hammers the pooled-request path (AcquireInto +
// Pool recycling, the zero-allocation hot path) under wounds and
// cascading aborts across multiple hot entries, exactly the condition the
// quiescence rule on Pool.Put must survive: Bamboo's retired list and
// wound/cascade scans may reference a request right up to the moment it
// is released, and recycling one instant too early is a use-after-free.
// Under -race, any protocol-side access to a recycled request races with
// Pool.Put's non-atomic field reset; pooledStress's generation oracle
// catches the rest.
func TestPooledReuseStress(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"bamboo-full", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true}},
		{"bamboo-dynts", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, DynamicTS: true}},
		{"woundwait", Config{Variant: WoundWait}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			perWorker := 400
			if testing.Short() {
				perWorker = 150
			}
			// Half the accesses write: an increment, retired under Bamboo.
			pooledStress(t, v.cfg, 4, 2, perWorker, 7,
				func(rng *rand.Rand) Mode { return Mode(rng.Intn(2)) },
				func(_ *rand.Rand, m *Manager, r *Request) (uint64, error) {
					if r.Mode == SH {
						return 0, nil
					}
					binary.LittleEndian.PutUint64(r.Data, binary.LittleEndian.Uint64(r.Data)+1)
					if m.Variant() == Bamboo {
						m.Retire(r)
					}
					return 1, nil
				})
		})
	}
}

// TestUpgradePooledReuseStress mixes SH→EX upgrades into the pooled-
// request hammer: every transaction touches several hot entries, reads
// them, upgrades a random subset in place, and retires the upgraded
// writes — under wounds, cascades and freelist recycling. This is the
// nastiest interaction surface of the upgrade path: an upgrade relinks a
// request between intrusive lists while wound scans and cascade scans
// walk them, and the quiescence rule must still hold when the recycled
// request spent part of its life in each list under each mode.
func TestUpgradePooledReuseStress(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"bamboo-full", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true}},
		{"bamboo-dynts", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, DynamicTS: true}},
		{"bamboo-plain", Config{Variant: Bamboo}},
		{"woundwait", Config{Variant: WoundWait}},
		{"waitdie", Config{Variant: WaitDie}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			perWorker := 300
			if testing.Short() {
				perWorker = 120
			}
			pooledStress(t, v.cfg, 3, 1, perWorker, 3, shared, upgradeAccess)
		})
	}
}

// TestCounterStress drives concurrent read-modify-write increments of a
// single hot entry through the full wound/retire/cascade machinery and
// checks that the committed count equals the final value — a lock-level
// lost-update/phantom-install detector.
func TestCounterStress(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"bamboo-full", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true}},
		{"bamboo-dynts", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, DynamicTS: true}},
		{"bamboo-plain", Config{Variant: Bamboo}},
		{"woundwait", Config{Variant: WoundWait}},
		{"waitdie", Config{Variant: WaitDie}},
		{"nowait", Config{Variant: NoWait}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			m := NewManager(v.cfg)
			e := &Entry{}
			e.Init(make([]byte, 8))

			const workers = 8
			const perWorker = 300
			var commits [workers]uint64
			var wg sync.WaitGroup
			retire := v.cfg.Variant == Bamboo
			wd := startWatchdog(t, []*Entry{e}, workers)
			defer wd.stop()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						tx := txn.New(uint64(w*perWorker+i) + 1)
						wd.track(w, tx)
						for {
							if !v.cfg.DynamicTS && !tx.HasTS() {
								m.AssignTS(tx)
							}
							r, err := m.Acquire(tx, EX, e)
							if err != nil {
								tx.FinishAbort()
								tx.Reset()
								continue
							}
							binary.LittleEndian.PutUint64(r.Data,
								binary.LittleEndian.Uint64(r.Data)+1)
							if retire {
								m.Retire(r)
							}
							if committed(tx) {
								m.Release(r, false)
								tx.FinishCommit()
								commits[w]++
								break
							}
							m.Release(r, true)
							tx.FinishAbort()
							tx.Reset()
						}
					}
				}(w)
			}
			wg.Wait()

			var total uint64
			for _, c := range commits {
				total += c
			}
			if got := drained(t, e); got != total {
				t.Fatalf("final value = %d, committed increments = %d (lost/phantom updates)", got, total)
			}
			if want := uint64(workers * perWorker); total != want {
				t.Fatalf("commits = %d, want %d", total, want)
			}
		})
	}
}
