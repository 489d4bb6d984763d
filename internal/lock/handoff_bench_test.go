package lock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bamboo/internal/txn"
)

// BenchmarkWaitHandoff passes an EX lock on one entry back and forth
// between two goroutines under Wound-Wait, the hot-row hand-off that
// bounds hotspot_ww. Each runs single-lock transactions (acquire,
// commit, release), and a holder releases only once the other
// goroutine's request is queued, so every grant is a hand-off: the
// release grants the queued request, whose owner returns from
// txn.Wait, queues its next request behind the new holder, and so on.
// ns/handoff is the elapsed time per hand-off. The waiters carry a poll
// gate set as core.DB.NewWaiter sets it for two workers; -cpu 1,2 runs
// both sides of it.
func BenchmarkWaitHandoff(b *testing.B) {
	m := NewManager(Config{Variant: WoundWait})
	e := newEntry()
	var gate atomic.Bool
	gate.Store(2 <= runtime.GOMAXPROCS(0))
	queued := func() bool {
		e.latch.Lock()
		defer e.latch.Unlock()
		return e.waiters.head != nil
	}
	var running atomic.Int32 // goroutines still running transactions
	running.Store(2)
	// last and handoffs are written only by the lock's holder.
	last, handoffs := -1, 0
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			t := txn.New(0)
			t.SetWaiter(txn.NewWaiter(&gate))
			var pool Pool
			for i := g; i < b.N; i += 2 {
				t.Renew(uint64(i + 1))
				m.AssignTS(t)
				r := pool.Get()
				if err := m.AcquireInto(r, t, EX, e); err != nil {
					b.Errorf("acquire: %v", err)
					return
				}
				if last != g {
					last, handoffs = g, handoffs+1
				}
				for !queued() && running.Load() == 2 {
					runtime.Gosched()
				}
				// A request queues only behind the holder, so it drew its
				// timestamp later and is younger: nothing is wounded.
				t.BeginCommit()
				m.Release(r, false)
				t.FinishCommit()
				pool.Put(r)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(handoffs), "ns/handoff")
}
