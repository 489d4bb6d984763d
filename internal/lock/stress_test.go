package lock

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"bamboo/internal/txn"
)

// TestPooledReuseStress hammers the pooled-request path (AcquireInto +
// Pool recycling, the zero-allocation hot path) under wounds and
// cascading aborts across multiple hot entries, exactly the condition the
// quiescence rule on Pool.Put must survive: Bamboo's retired list and
// wound/cascade scans may reference a request right up to the moment it
// is released, and recycling one instant too early is a use-after-free.
//
// Detection is two-pronged: under -race, any protocol-side access to a
// recycled request races with Pool.Put's non-atomic field reset; and each
// worker snapshots its request generations at Get time and verifies they
// are unchanged before Put — a changed generation means someone recycled
// a request the worker still held.
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
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			m := NewManager(v.cfg)
			const nEntries = 4
			entries := make([]*Entry, nEntries)
			for i := range entries {
				entries[i] = &Entry{}
				entries[i].Init(make([]byte, 8))
			}

			const workers = 8
			perWorker := 400
			if testing.Short() {
				perWorker = 150
			}
			var committedWrites [workers]uint64
			var wg sync.WaitGroup
			retire := v.cfg.Variant == Bamboo
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var pool Pool
					alloc := m.NewTSAlloc(w)
					rng := rand.New(rand.NewSource(int64(w)*599 + 7))
					tx := txn.New(0)
					tx.SetTSAlloc(alloc)
					reqs := make([]*Request, 0, nEntries)
					gens := make([]uint64, 0, nEntries)
					for i := 0; i < perWorker; i++ {
						tx.Renew(uint64(w*perWorker+i) + 1)
						// Each transaction touches 2–4 entries in index
						// order (index order avoids latch-free deadlock
						// only; ts-order conflicts still wound/cascade).
						n := 2 + rng.Intn(nEntries-1)
						for {
							if !v.cfg.DynamicTS && !tx.HasTS() {
								m.AssignTS(tx)
							}
							reqs, gens = reqs[:0], gens[:0]
							aborted := false
							for ei := 0; ei < n; ei++ {
								mode := EX
								if rng.Intn(2) == 0 {
									mode = SH
								}
								r := pool.Get()
								gens = append(gens, r.Gen())
								if err := m.AcquireInto(r, tx, mode, entries[ei]); err != nil {
									if r.Gen() != gens[len(gens)-1] {
										t.Errorf("request recycled while held (gen %d -> %d)", gens[len(gens)-1], r.Gen())
									}
									pool.Put(r)
									gens = gens[:len(gens)-1]
									aborted = true
									break
								}
								reqs = append(reqs, r)
								if mode == EX {
									binary.LittleEndian.PutUint64(r.Data,
										binary.LittleEndian.Uint64(r.Data)+1)
									if retire {
										m.Retire(r)
									}
								}
							}
							commit := false
							if !aborted {
								// Commit protocol: drain semaphore, CAS.
								ok := true
								for it := 0; ; it++ {
									if tx.Aborting() {
										ok = false
										break
									}
									if tx.Sem() == 0 {
										break
									}
									Backoff(it)
								}
								// A positioned reader may have commit-ordered
								// itself before this transaction between the
								// semaphore check and the CAS: back out, as the
								// core executor does.
								commit = ok && tx.BeginCommit() && tx.Sem() == 0
							}
							writes := uint64(0)
							for ri, r := range reqs {
								if r.Mode == EX {
									writes++
								}
								m.Release(r, !commit)
								if r.Gen() != gens[ri] {
									t.Errorf("request recycled while held (gen %d -> %d)", gens[ri], r.Gen())
								}
								pool.Put(r)
							}
							if commit {
								tx.FinishCommit()
								committedWrites[w] += writes
								break
							}
							tx.FinishAbort()
							tx.Reset()
						}
					}
				}(w)
			}
			wg.Wait()

			var want, got uint64
			for _, c := range committedWrites {
				want += c
			}
			for _, e := range entries {
				got += binary.LittleEndian.Uint64(e.CurrentData())
				if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
					t.Fatalf("entry not drained: %d/%d/%d\n%s", ret, own, wait, e.DebugString())
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if got != want {
				t.Fatalf("summed counters = %d, committed increments = %d (lost/phantom updates through recycled requests)", got, want)
			}
			if want == 0 {
				t.Fatal("no committed increments observed")
			}
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
//
// Correctness oracle: per-entry counters must equal the committed
// increments (upgrades that lose updates or double-apply break it), the
// generation snapshots must be stable (reuse-after-release), and the
// entries must drain.
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
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			m := NewManager(v.cfg)
			const nEntries = 3
			entries := make([]*Entry, nEntries)
			for i := range entries {
				entries[i] = &Entry{}
				entries[i].Init(make([]byte, 8))
			}

			const workers = 8
			perWorker := 300
			if testing.Short() {
				perWorker = 120
			}
			var committedWrites [workers]uint64
			var wg sync.WaitGroup
			retire := v.cfg.Variant == Bamboo
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var pool Pool
					alloc := m.NewTSAlloc(w)
					rng := rand.New(rand.NewSource(int64(w)*881 + 3))
					tx := txn.New(0)
					tx.SetTSAlloc(alloc)
					reqs := make([]*Request, 0, nEntries)
					gens := make([]uint64, 0, nEntries)
					for i := 0; i < perWorker; i++ {
						tx.Renew(uint64(w*perWorker+i) + 1)
						n := 1 + rng.Intn(nEntries)
						for {
							if !v.cfg.DynamicTS && !tx.HasTS() {
								m.AssignTS(tx)
							}
							reqs, gens = reqs[:0], gens[:0]
							aborted := false
							writes := uint64(0)
							for ei := 0; ei < n && !aborted; ei++ {
								r := pool.Get()
								gens = append(gens, r.Gen())
								if err := m.AcquireInto(r, tx, SH, entries[ei]); err != nil {
									if r.Gen() != gens[len(gens)-1] {
										t.Errorf("request recycled while held (gen %d -> %d)", gens[len(gens)-1], r.Gen())
									}
									pool.Put(r)
									gens = gens[:len(gens)-1]
									aborted = true
									break
								}
								reqs = append(reqs, r)
								seen := binary.LittleEndian.Uint64(r.Data)
								if rng.Intn(2) == 0 { // read-modify-write: upgrade in place
									if err := m.Upgrade(r); err != nil {
										aborted = true
										break
									}
									binary.LittleEndian.PutUint64(r.Data, seen+1)
									writes++
									if retire && rng.Intn(2) == 0 {
										m.Retire(r)
									}
								}
							}
							commit := false
							if !aborted {
								ok := true
								for it := 0; ; it++ {
									if tx.Aborting() {
										ok = false
										break
									}
									if tx.Sem() == 0 {
										break
									}
									Backoff(it)
								}
								// A positioned reader may have commit-ordered
								// itself before this transaction between the
								// semaphore check and the CAS: back out, as the
								// core executor does.
								commit = ok && tx.BeginCommit() && tx.Sem() == 0
							}
							for ri, r := range reqs {
								m.Release(r, !commit)
								if r.Gen() != gens[ri] {
									t.Errorf("request recycled while held (gen %d -> %d)", gens[ri], r.Gen())
								}
								pool.Put(r)
							}
							if commit {
								tx.FinishCommit()
								committedWrites[w] += writes
								break
							}
							tx.FinishAbort()
							tx.Reset()
						}
					}
				}(w)
			}
			wg.Wait()

			var want, got uint64
			for _, c := range committedWrites {
				want += c
			}
			for _, e := range entries {
				got += binary.LittleEndian.Uint64(e.CurrentData())
				if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
					t.Fatalf("entry not drained: %d/%d/%d\n%s", ret, own, wait, e.DebugString())
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if got != want {
				t.Fatalf("summed counters = %d, committed increments = %d (lost/phantom updates through upgrades)", got, want)
			}
			if want == 0 {
				t.Fatal("no committed upgraded writes observed")
			}
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
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						tx := txn.New(uint64(w*perWorker+i) + 1)
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
							// Commit protocol: drain semaphore, CAS commit.
							ok := true
							for it := 0; ; it++ {
								if tx.Aborting() {
									ok = false
									break
								}
								if tx.Sem() == 0 {
									break
								}
								Backoff(it)
							}
							if ok && tx.BeginCommit() {
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
			got := binary.LittleEndian.Uint64(e.CurrentData())
			if got != total {
				t.Fatalf("final value = %d, committed increments = %d (lost/phantom updates)", got, total)
			}
			if want := uint64(workers * perWorker); total != want {
				t.Fatalf("commits = %d, want %d", total, want)
			}
			if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
				t.Fatalf("entry not drained: %d/%d/%d", ret, own, wait)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
