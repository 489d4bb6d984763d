package lock

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countClock swaps the manager's clock for one that counts its reads.
func countClock(t *testing.T) *atomic.Int64 {
	t.Helper()
	var reads atomic.Int64
	real := now
	now = func() time.Duration { reads.Add(1); return real() }
	t.Cleanup(func() { now = real })
	return &reads
}

// TestClockReadOnlyWhenBlocked: the manager reads its clock only where a
// request blocks. Uncontended acquire, upgrade, retire and release read it
// never and report no wait; an acquire or an upgrade that queues reads it
// exactly twice and hands the blocked time back on the request.
func TestClockReadOnlyWhenBlocked(t *testing.T) {
	reads := countClock(t)

	for _, v := range []Variant{NoWait, WaitDie, WoundWait, Bamboo} {
		m := NewManager(Config{Variant: v, RetireReads: v == Bamboo, NoWoundRead: v == Bamboo})
		e := newEntry()
		tx := newTxnTS(1, 1)
		sh := mustAcquire(t, m, tx, SH, e)
		if err := m.Upgrade(sh); err != nil {
			t.Fatalf("%s: uncontended upgrade: %v", v, err)
		}
		m.Release(sh, false)
		ex := mustAcquire(t, m, tx, EX, e)
		m.Retire(ex)
		m.Release(ex, false)
		sh = mustAcquire(t, m, tx, SH, e)
		if err := m.Upgrade(sh); err != nil {
			t.Fatalf("%s: uncontended upgrade: %v", v, err)
		}
		m.Retire(sh)
		m.Release(sh, false)
		if n := reads.Load(); n != 0 {
			t.Fatalf("%s: %d clock reads on uncontended requests, want 0", v, n)
		}
		if w := sh.TakeWait() + ex.TakeWait(); w != 0 {
			t.Fatalf("%s: uncontended requests report %v of lock wait", v, w)
		}
	}

	const hold = 20 * time.Millisecond
	m := NewManager(Config{Variant: WoundWait})

	// blocked runs op — which must queue behind the older holder — on its
	// own goroutine, keeps the holder for `hold` once queued() says op is
	// waiting, and checks the clock reads and the wait r reports.
	blocked := func(name string, r *Request, op func() error, queued func() bool, release func()) {
		t.Helper()
		reads.Store(0)
		done := make(chan error, 1)
		go func() { done <- op() }()
		for !queued() {
			runtime.Gosched()
		}
		start := time.Now()
		time.Sleep(hold)
		release()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		elapsed := time.Since(start)
		if n := reads.Load(); n != 2 {
			t.Errorf("%s: %d clock reads for one blocked request, want 2", name, n)
		}
		// The request's own clock starts a moment after it shows as queued
		// and stops before elapsed was taken; the bounds leave room for a
		// goroutine that is descheduled in between.
		if w := r.TakeWait(); w < hold/2 || w > elapsed+hold {
			t.Errorf("%s: request reports %v of wait; the holder was kept for %v", name, w, hold)
		}
		if w := r.TakeWait(); w != 0 {
			t.Errorf("%s: second TakeWait = %v, want 0", name, w)
		}
	}

	// An acquire queued behind an older exclusive owner.
	e := newEntry()
	old, young := newTxnTS(1, 1), newTxnTS(2, 2)
	held := mustAcquire(t, m, old, EX, e)
	r := &Request{}
	blocked("acquire", r,
		func() error { return m.AcquireInto(r, young, EX, e) },
		func() bool { _, _, w := e.Snapshot(); return w == 1 },
		func() { m.Release(held, false) })
	m.Release(r, false)

	// An upgrade waiting for an older shared owner to leave.
	e = newEntry()
	old, young = newTxnTS(3, 3), newTxnTS(4, 4)
	held = mustAcquire(t, m, old, SH, e)
	up := mustAcquire(t, m, young, SH, e)
	blocked("upgrade", up,
		func() error { return m.Upgrade(up) },
		func() bool {
			e.latch.Lock()
			defer e.latch.Unlock()
			return e.upgrading == up
		},
		func() { m.Release(held, false) })
	m.Release(up, false)
}
