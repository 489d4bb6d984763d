package txn

import (
	"sync/atomic"
	"testing"
	"time"
)

// gatedTxn returns a transaction whose waiter's poll gate is open or
// closed.
func gatedTxn(open bool) *Txn {
	var gate atomic.Bool
	gate.Store(open)
	t := New(1)
	t.SetWaiter(NewWaiter(&gate))
	return t
}

// countYields counts the wait's yields for the length of the test.
func countYields(tb testing.TB) *int {
	n := new(int)
	real := yield
	yield = func() { *n++; real() }
	tb.Cleanup(func() { yield = real })
	return n
}

// after returns a condition that holds from its k+1st check on, and the
// count of its checks.
func after(k int) (func() bool, *int) {
	calls := new(int)
	return func() bool { *calls++; return *calls > k }, calls
}

// TestWaitPollsBeforeYielding: with its gate open, a wait whose
// condition turns true within the poll budget ends without a yield. k is
// below spinRounds, so that a wait without a poll phase yields k times
// and returns instead of parking with nobody to wake it.
func TestWaitPollsBeforeYielding(t *testing.T) {
	yields := countYields(t)
	tx := gatedTxn(true)
	const k = spinRounds - 14
	cond, calls := after(k)
	if !tx.Wait(cond, time.Time{}) {
		t.Fatal("Wait reported a condition that held as not held")
	}
	if *yields != 0 || *calls != k+1 {
		t.Fatalf("%d yields and %d checks, want 0 and %d", *yields, *calls, k+1)
	}
}

// TestWaitYieldsWithGateClosed: with its gate closed, or with no gate,
// the first check that misses yields, as a wait did before it polled.
func TestWaitYieldsWithGateClosed(t *testing.T) {
	for name, tx := range map[string]*Txn{"closed": gatedTxn(false), "no gate": New(1)} {
		t.Run(name, func(t *testing.T) {
			yields := countYields(t)
			cond, calls := after(3)
			if !tx.Wait(cond, time.Time{}) {
				t.Fatal("Wait reported a condition that held as not held")
			}
			if *yields != 3 || *calls != 4 {
				t.Fatalf("%d yields and %d checks, want 3 and 4", *yields, *calls)
			}
		})
	}
}

// TestWaitPollEndsOnAbort: a wound during the poll phase ends the wait at
// the next poll, without a yield.
func TestWaitPollEndsOnAbort(t *testing.T) {
	yields := countYields(t)
	tx := gatedTxn(true)
	calls := 0
	cond := func() bool {
		if calls++; calls == 10 {
			tx.SetAbort(CauseWound)
		}
		return false
	}
	if tx.Wait(cond, time.Time{}) {
		t.Fatal("Wait reported a condition that never held")
	}
	if *yields != 0 || calls != 10 {
		t.Fatalf("%d yields and %d checks, want 0 and 10", *yields, calls)
	}
}

// fakeClock makes the wait's clock advance by one microsecond per read,
// and records how many checks of cond had run at each read.
type fakeClock struct {
	at     time.Time
	checks []int // the value of *calls at each read
	calls  *int
}

func useFakeClock(tb testing.TB, calls *int) *fakeClock {
	c := &fakeClock{at: time.Unix(1, 0), calls: calls}
	real := now
	now = func() time.Time {
		c.checks = append(c.checks, *c.calls)
		c.at = c.at.Add(time.Microsecond)
		return c.at
	}
	tb.Cleanup(func() { now = real })
	return c
}

// TestWaitPollDeadline: a poll phase reads the clock at least every
// clockEvery checks and ends at the first read past the deadline, so a
// wait with a deadline 20 µs out returns by the deadline plus one clock
// interval; CommitPoint's drain then still runs late (Optimization 2's
// adaptive retire).
func TestWaitPollDeadline(t *testing.T) {
	t.Run("Wait", func(t *testing.T) {
		yields := countYields(t)
		tx := gatedTxn(true)
		calls := 0
		clock := useFakeClock(t, &calls)
		deadline := clock.at.Add(20 * time.Microsecond)
		if tx.Wait(func() bool { calls++; return false }, deadline) {
			t.Fatal("Wait reported a condition that never held")
		}
		if !clock.at.Equal(deadline) {
			t.Fatalf("Wait returned with the clock at %v, want its deadline %v", clock.at, deadline)
		}
		for i := 1; i < len(clock.checks); i++ {
			if gap := clock.checks[i] - clock.checks[i-1]; gap > clockEvery {
				t.Fatalf("%d checks between clock reads %d and %d, want at most %d", gap, i-1, i, clockEvery)
			}
		}
		if last := clock.checks[len(clock.checks)-1]; calls != last {
			t.Fatalf("%d checks after the read past the deadline, want 0", calls-last)
		}
		if *yields != 0 {
			t.Fatalf("%d yields, want 0: a 20 µs deadline ends within the poll phase", *yields)
		}
	})
	t.Run("CommitPoint", func(t *testing.T) {
		yields := countYields(t)
		tx := gatedTxn(true)
		tx.SemIncr()
		calls := 0
		clock := useFakeClock(t, &calls)
		lates := 0
		waiting := func() time.Time { return clock.at.Add(20 * time.Microsecond) }
		late := func() { lates++; tx.SemDecr() }
		if got := tx.CommitPoint(waiting, late); got != CauseNone || lates != 1 {
			t.Fatalf("CommitPoint = %v after %d late calls, want CauseNone after one", got, lates)
		}
		if *yields != 0 {
			t.Fatalf("%d yields, want 0", *yields)
		}
	})
}
