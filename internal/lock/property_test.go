package lock

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bamboo/internal/txn"
)

// TestPropertyRandomSchedules drives randomized concurrent transactions
// (mixed reads/writes over a handful of entries, random retire points,
// random external wounds) through the full Bamboo machinery and checks:
//
//   - entries drain completely and invariants hold afterwards;
//   - every committed transaction's semaphore was balanced (zero at
//     commit, zero after);
//   - each entry's final image equals the value of its last committed
//     writer (commit order captured at release time), i.e. no aborted
//     write survives and no committed write is lost.
func TestPropertyRandomSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Variant:     Bamboo,
			RetireReads: true,
			NoWoundRead: rng.Intn(2) == 0,
			DynamicTS:   rng.Intn(2) == 0,
		}
		m := NewManager(cfg)
		const nEntries = 3
		entries := make([]*Entry, nEntries)
		for i := range entries {
			entries[i] = &Entry{}
			entries[i].Init([]byte{0})
		}
		var logMu sync.Mutex
		lastCommitted := make([]byte, nEntries)

		const workers = 4
		const perWorker = 20
		var wg sync.WaitGroup
		var idGen sync.Mutex
		nextID := uint64(0)
		newID := func() uint64 {
			idGen.Lock()
			defer idGen.Unlock()
			nextID++
			return nextID
		}

		wd := startWatchdog(t, entries, workers)
		defer wd.stop()

		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed ^ int64(w)*7919))
				for i := 0; i < perWorker; i++ {
					tx := txn.New(newID())
					wd.track(w, tx)
					// Plan: 1-3 distinct entries, random modes, random
					// retire decisions, occasional self-wound mid-flight.
					n := wrng.Intn(nEntries) + 1
					perm := wrng.Perm(nEntries)[:n]
					for {
						if !cfg.DynamicTS && !tx.HasTS() {
							m.AssignTS(tx)
						}
						var reqs []*Request
						values := map[int]byte{}
						aborted := false
						for _, ei := range perm {
							mode := SH
							if wrng.Intn(2) == 0 {
								mode = EX
							}
							r, err := m.Acquire(tx, mode, entries[ei])
							if err != nil {
								aborted = true
								break
							}
							reqs = append(reqs, r)
							if mode == EX {
								v := byte(wrng.Intn(250) + 1)
								r.Data[0] = v
								values[ei] = v
								if wrng.Intn(2) == 0 {
									m.Retire(r)
								}
							}
						}
						if !aborted && wrng.Intn(20) == 0 {
							tx.SetAbort(txn.CauseUser) // simulated user abort
						}
						if !aborted && committed(tx) {
							logMu.Lock()
							for ei, v := range values {
								lastCommitted[ei] = v
							}
							for _, r := range reqs {
								m.Release(r, false)
							}
							logMu.Unlock()
							tx.FinishCommit()
							if tx.Sem() != 0 {
								t.Logf("seed %d: semaphore nonzero after commit", seed)
							}
							break
						}
						for _, r := range reqs {
							m.Release(r, true)
						}
						tx.FinishAbort()
						tx.Reset()
						// Randomized backoff damps wound storms on
						// pathological seeds (DBx1000's abort penalty).
						time.Sleep(time.Duration(wrng.Intn(120)) * time.Microsecond)
					}
				}
			}(w)
		}
		wg.Wait()

		for ei, e := range entries {
			if err := e.CheckInvariants(); err != nil {
				t.Logf("seed %d: entry %d: %v", seed, ei, err)
				return false
			}
			if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
				t.Logf("seed %d: entry %d not drained (%d/%d/%d)", seed, ei, ret, own, wait)
				return false
			}
			if got := e.CurrentData()[0]; got != lastCommitted[ei] {
				t.Logf("seed %d: entry %d image %d != last committed %d",
					seed, ei, got, lastCommitted[ei])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWaitDieNeverDeadlocks scripts two-entry cross acquisition
// patterns under Wait-Die concurrently and asserts completion (the
// regression shape for the FIFO-queue deadlock found during development).
func TestPropertyWaitDieNeverDeadlocks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(Config{Variant: WaitDie})
		e1, e2 := &Entry{}, &Entry{}
		e1.Init([]byte{0})
		e2.Init([]byte{0})

		done := make(chan bool, 4)
		for w := 0; w < 4; w++ {
			order := []*Entry{e1, e2}
			if rng.Intn(2) == 0 {
				order[0], order[1] = order[1], order[0]
			}
			go func(w int, order []*Entry) {
				for i := 0; i < 50; i++ {
					tx := txn.New(uint64(w*1000 + i + 1))
					for {
						if !tx.HasTS() {
							m.AssignTS(tx)
						}
						r1, err := m.Acquire(tx, EX, order[0])
						if err != nil {
							tx.FinishAbort()
							tx.Reset()
							continue
						}
						r2, err := m.Acquire(tx, EX, order[1])
						if err != nil {
							m.Release(r1, true)
							tx.FinishAbort()
							tx.Reset()
							continue
						}
						if tx.BeginCommit() {
							m.Release(r1, false)
							m.Release(r2, false)
							tx.FinishCommit()
							break
						}
						m.Release(r1, true)
						m.Release(r2, true)
						tx.FinishAbort()
						tx.Reset()
					}
				}
				done <- true
			}(w, order)
		}
		for i := 0; i < 4; i++ {
			<-done // a deadlock hangs the test; -timeout catches it
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
