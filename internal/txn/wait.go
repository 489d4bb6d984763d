package txn

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Waiting. Every blocking wait of a transaction — a queued lock request,
// a pending upgrade, the commit semaphore, an IC3 piece or dependency, a
// locked Silo TID word — is one call of Wait, and every event that can
// end a wait calls Wake on the transaction it affects: SetAbort's
// Running→Aborting transition, the SemDecr that reaches zero, a lock
// grant, a change to an entry with a pending upgrade, an IC3 piece
// finishing or transaction ending, a Silo TID unlock. A wait has three
// phases. It polls first, re-checking its condition in a tight loop, so
// that a hand-off from a holder running on another processor costs no
// trip through the scheduler; it then yields, so that a holder sharing
// the waiter's processor can run; and it finally parks on the
// transaction's Waiter until one of those wakes arrives.
//
// The poll phase runs only while the waiter's gate (NewWaiter) is open:
// a spinning waiter whose holder has no processor of its own keeps that
// holder from running, so the database opens the gate only while every
// worker that opened a session can have a processor (core.DB.NewWaiter).

// pollRounds is how often Wait re-checks its condition before it yields,
// when its gate is open: ~12 µs on a 2-vCPU host, about how long a
// Wound-Wait transaction holds a hot row. On hotspot_ww 500 polls read
// no better than none, and 8 000 no better than 2 000 (EXPERIMENTS.md,
// "Poll before yielding").
const pollRounds = 2000

// clockEvery is how many polls pass between two clock reads of a wait
// with a deadline, so that the deadline still ends the poll phase on
// time, within ~0.5 µs (Optimization 2's δ in CommitPoint is the only
// deadline).
const clockEvery = 64

// spinRounds is how often Wait yields the processor before it parks:
// ~10 µs on a 2-vCPU host when the holder is running. A yield finds a
// holder that shares the waiter's processor, which the poll phase cannot.
const spinRounds = 64

// now and yield are the wait's clock and its yield, variables so that
// tests can drive the one and count the other.
var (
	now   = time.Now
	yield = runtime.Gosched
)

// Waiter is the token a waiting transaction parks on, owned by the
// session whose goroutine runs the transaction. The zero value is ready
// and never polls.
type Waiter struct {
	ch    chan struct{} // one buffered wake: a wake before the park is kept
	timer *time.Timer   // a deadline's timer, made at the first one and reused
	// gate, when set and true, lets a wait poll before it yields. It is
	// the database's, shared by every session's Waiter.
	gate *atomic.Bool
}

// NewWaiter returns a Waiter whose waits poll before they yield while
// gate is true.
func NewWaiter(gate *atomic.Bool) *Waiter { return &Waiter{gate: gate} }

// Polls reports whether a wait on w polls before it yields: whether its
// gate is set and open.
func (w *Waiter) Polls() bool { return w.gate != nil && w.gate.Load() }

// SetWaiter makes w the token t parks on. Every engine's session attaches
// its own (core.DB.NewWaiter); a transaction without one makes one, which
// never polls, at its first park. Owner only, before t can be woken.
func (t *Txn) SetWaiter(w *Waiter) { t.w = w }

// Wait blocks t's owner until cond holds, t is aborting, or deadline
// passes (the zero Time: never), and reports whether cond held. cond
// must become true only through an event whose author calls t.Wake after
// it, or under a latch that cond takes too.
func (t *Txn) Wait(cond func() bool, deadline time.Time) bool {
	if t.w != nil && t.w.Polls() {
		for i := 0; i < pollRounds; i++ {
			if cond() {
				return true
			}
			if t.Aborting() || i%clockEvery == 0 && !deadline.IsZero() && !now().Before(deadline) {
				return false
			}
		}
	}
	for i := 0; ; i++ {
		park := i >= spinRounds
		if park {
			if t.w == nil {
				t.w = &Waiter{}
			}
			if t.w.ch == nil {
				t.w.ch = make(chan struct{}, 1)
			}
			// Announced before the checks: a waker changes the state and
			// then reads parked, so either the checks below see the change
			// or the waker sees the announcement and sends.
			t.parked.Store(1)
		}
		held := cond()
		if held || t.Aborting() || !deadline.IsZero() && !now().Before(deadline) {
			t.parked.Store(0)
			return held
		}
		if park {
			t.w.park(deadline)
		} else {
			yield()
		}
	}
}

// park blocks until a wake or the deadline. A wake left over from an
// earlier wait ends it early; Wait then checks again and parks again.
func (w *Waiter) park(deadline time.Time) {
	if deadline.IsZero() {
		<-w.ch
		return
	}
	if w.timer == nil {
		w.timer = time.NewTimer(time.Hour)
	}
	w.timer.Reset(deadline.Sub(now())) // drops a stale fire (Go 1.23 timers)
	select {
	case <-w.ch:
	case <-w.timer.C:
	}
	w.timer.Stop()
}

// Wake wakes t's owner if it is parked in Wait. Call it after the change
// that may end the wait; when nobody is parked it is one atomic load.
func (t *Txn) Wake() {
	if t.parked.Load() != 0 {
		select {
		case t.w.ch <- struct{}{}:
		default:
		}
	}
}

// Parked reports whether t's owner is parked in Wait.
func (t *Txn) Parked() bool { return t.parked.Load() != 0 }

// Watchers is the set of transactions waiting on one object that does
// not know its waiters — an IC3 attempt's progress, Silo's TID words. A
// waiter joins it for the length of its wait (Wait), and whoever changes
// the object wakes them all (WakeAll); each checks its own condition
// again. The zero value is empty.
type Watchers struct {
	n   atomic.Int32 // len(all), read without mu by WakeAll
	mu  sync.Mutex
	all []*Txn
}

// Wait is t.Wait(cond, time.Time{}) with t one of ws: no deadline.
func (ws *Watchers) Wait(t *Txn, cond func() bool) bool {
	ws.mu.Lock()
	ws.all = append(ws.all, t)
	ws.n.Add(1)
	ws.mu.Unlock()
	held := t.Wait(cond, time.Time{})
	ws.mu.Lock()
	ws.all = slices.DeleteFunc(ws.all, func(w *Txn) bool { return w == t })
	ws.n.Add(-1)
	ws.mu.Unlock()
	return held
}

// WakeAll wakes every watcher. Call it after the change; with nobody
// watching it is one atomic load.
func (ws *Watchers) WakeAll() {
	if ws.n.Load() == 0 {
		return
	}
	ws.mu.Lock()
	for _, t := range ws.all {
		t.Wake()
	}
	ws.mu.Unlock()
}

// CommitPoint is the commit decision of Algorithm 1 for every lock-based
// commit: wait for the commit semaphore to drain, take the commit CAS
// (BeginCommit), then check the semaphore again. An Optimization-3
// reader may have commit-ordered itself before t between the drain and
// the CAS, and waiting for it there can deadlock (it may be blocked on
// another of t's locks), so t reverts its own decision instead: a
// self-abort, CauseDie. A drain that has to wait first calls waiting,
// when it is not nil, for the wait's deadline (the zero Time: none); if
// the drain outlasts it, late runs once and the wait goes on
// (Optimization 2's adaptive retire). CommitPoint returns CauseNone once
// t is past its commit point, else the cause of its abort.
func (t *Txn) CommitPoint(waiting func() time.Time, late func()) AbortCause {
	drained := func() bool { return t.Sem() == 0 }
	if !drained() {
		var deadline time.Time
		if waiting != nil {
			deadline = waiting()
		}
		if !t.Wait(drained, deadline) && !t.Aborting() {
			late()
			t.Wait(drained, time.Time{})
		}
	}
	switch {
	case !t.BeginCommit():
		return t.Cause()
	case t.Sem() != 0:
		return CauseDie
	}
	return CauseNone
}
