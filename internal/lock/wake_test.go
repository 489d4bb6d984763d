package lock

import (
	"fmt"
	"testing"
	"time"

	"bamboo/internal/txn"
)

// The wake sites. A blocked transaction parks and stays parked until the
// event that ends its wait wakes it, so each test parks a waiter behind a
// hold of at least parkHold, fires one event, and requires the waiter to
// return within wakeBound of it. None of these waits has a deadline:
// without the wake call under test the waiter would never return.
const (
	parkHold  = 5 * time.Millisecond
	wakeBound = 2 * time.Second
)

// wokenBy runs wait on its own goroutine, lets tx park and stay parked
// for parkHold, fires event and returns wait's error, failing the test if
// wait has not returned wakeBound after the event.
func wokenBy(t *testing.T, tx *txn.Txn, wait func() error, event func()) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	eventually(t, "the waiter parks", tx.Parked)
	time.Sleep(parkHold)
	event()
	select {
	case err := <-done:
		return err
	case <-time.After(wakeBound):
		t.Fatalf("the waiter has not returned %v after the event that ends its wait: %v", wakeBound, tx)
		return nil
	}
}

// commitPoint is CommitPoint as a wait for wokenBy, expecting the
// outcome want.
func commitPoint(tx *txn.Txn, want txn.AbortCause) func() error {
	return func() error {
		if got := tx.CommitPoint(nil, nil); got != want {
			return fmt.Errorf("commit point ended with %v, want %v", got, want)
		}
		return nil
	}
}

// TestWakeOnGrant: a queued request is woken by the release that grants
// it (promoteWaiters).
func TestWakeOnGrant(t *testing.T) {
	m := NewManager(Config{Variant: WoundWait})
	e := newEntry()
	holder, waiter := newTxnTS(1, 1), newTxnTS(2, 2)
	held := mustAcquire(t, m, holder, EX, e)
	var r *Request
	err := wokenBy(t, waiter,
		func() (err error) { r, err = m.Acquire(waiter, EX, e); return err },
		func() { m.Release(held, false) })
	if err != nil {
		t.Fatalf("queued request: %v", err)
	}
	m.Release(r, false)
}

// TestWakeOnWound: a transaction queued on one entry is woken by the
// wound an older transaction deals it on another (SetAbort), long before
// the entry it queues on frees up.
func TestWakeOnWound(t *testing.T) {
	m := NewManager(Config{Variant: WoundWait})
	e1, e2 := newEntry(), newEntry()
	oldest, older, victim := newTxnTS(1, 1), newTxnTS(2, 2), newTxnTS(3, 3)
	blocker := mustAcquire(t, m, oldest, EX, e2)
	held := mustAcquire(t, m, victim, EX, e1)
	got := make(chan *Request, 1)
	err := wokenBy(t, victim,
		func() error { _, err := m.Acquire(victim, EX, e2); return err },
		func() {
			go func() { r, _ := m.Acquire(older, EX, e1); got <- r }()
		})
	if err != ErrWound || victim.Cause() != txn.CauseWound {
		t.Fatalf("wounded waiter returned %v with cause %v, want %v and a wound", err, victim.Cause(), ErrWound)
	}
	m.Release(held, true)
	m.Release(<-got, false)
	m.Release(blocker, false)
}

// TestWakeOnCascade: a transaction in its commit wait on two dirty reads
// is woken by the cascade when one of its sources aborts (SetAbort); its
// semaphore does not reach zero, so nothing else would wake it.
func TestWakeOnCascade(t *testing.T) {
	m := bambooMgr()
	e1, e2 := newEntry(), newEntry()
	w1, w2, reader := newTxnTS(1, 1), newTxnTS(2, 2), newTxnTS(3, 3)
	x1 := mustAcquire(t, m, w1, EX, e1)
	m.Retire(x1)
	x2 := mustAcquire(t, m, w2, EX, e2)
	m.Retire(x2)
	r1, r2 := mustAcquire(t, m, reader, SH, e1), mustAcquire(t, m, reader, SH, e2)
	if reader.Sem() != 2 {
		t.Fatalf("reader semaphore = %d after two dirty reads, want 2", reader.Sem())
	}
	if err := wokenBy(t, reader, commitPoint(reader, txn.CauseCascade), func() { m.Release(x1, true) }); err != nil {
		t.Fatal(err)
	}
	m.Release(r1, true)
	m.Release(r2, true)
	m.Release(x2, false)
}

// TestWakeOnSemaphoreZero: a transaction in its commit wait is woken by
// the SemDecr that brings its semaphore to zero, when its source commits.
func TestWakeOnSemaphoreZero(t *testing.T) {
	m := bambooMgr()
	e := newEntry()
	w, reader := newTxnTS(1, 1), newTxnTS(2, 2)
	x := mustAcquire(t, m, w, EX, e)
	m.Retire(x)
	r := mustAcquire(t, m, reader, SH, e)
	err := wokenBy(t, reader, commitPoint(reader, txn.CauseNone), func() {
		if !committed(w) {
			t.Error("source could not commit")
		}
		m.Release(x, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Release(r, false)
}

// TestWakeOnUnblockedUpgrade: a pending upgrade is woken by the release,
// or the retire, that takes the older holder out of its way.
func TestWakeOnUnblockedUpgrade(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		event func(m *Manager, r *Request)
	}{
		{"release", Config{Variant: WoundWait}, func(m *Manager, r *Request) { m.Release(r, false) }},
		{"retire", Config{Variant: Bamboo}, (*Manager).Retire},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager(c.cfg)
			e := newEntry()
			older, upgrader := newTxnTS(1, 1), newTxnTS(2, 2)
			held := mustAcquire(t, m, older, SH, e)
			up := mustAcquire(t, m, upgrader, SH, e)
			if err := wokenBy(t, upgrader, func() error { return m.Upgrade(up) }, func() { c.event(m, held) }); err != nil {
				t.Fatalf("upgrade: %v", err)
			}
			m.Release(held, false)
			m.Release(up, false)
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
