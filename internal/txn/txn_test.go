package txn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLifecycleCommit(t *testing.T) {
	tx := New(1)
	if tx.State() != StateRunning {
		t.Fatal("not running")
	}
	if !tx.BeginCommit() {
		t.Fatal("BeginCommit failed")
	}
	// Past the commit point wounds are no-ops.
	if tx.SetAbort(CauseWound) {
		t.Fatal("wound succeeded after commit point")
	}
	tx.FinishCommit()
	if tx.State() != StateCommitted {
		t.Fatal("not committed")
	}
}

func TestLifecycleWound(t *testing.T) {
	tx := New(1)
	if !tx.SetAbort(CauseWound) {
		t.Fatal("first wound must transition")
	}
	if tx.SetAbort(CauseCascade) {
		t.Fatal("second abort must not re-transition")
	}
	if tx.Cause() != CauseWound {
		t.Fatalf("cause = %v", tx.Cause())
	}
	if tx.BeginCommit() {
		t.Fatal("commit after wound")
	}
	if !tx.Aborting() {
		t.Fatal("not aborting")
	}
	tx.FinishAbort()
	if tx.State() != StateAborted {
		t.Fatal("not aborted")
	}
}

// TestAbortCauseVisibleWithAborting: whoever sees a transaction aborting
// must also see why. The executor records the cause the moment its commit
// CAS fails, so a wound that published Aborting before its cause was
// counted as an abort with no cause. The race window is a few
// instructions wide; it shows only with two or more processors.
func TestAbortCauseVisibleWithAborting(t *testing.T) {
	for i := 0; i < 200000; i++ {
		tx := New(uint64(i))
		go tx.SetAbort(CauseWound)
		for !tx.Aborting() {
			runtime.Gosched()
		}
		if c := tx.Cause(); c != CauseWound {
			t.Fatalf("round %d: aborting with cause %v", i, c)
		}
	}
}

func TestResetKeepsTimestamp(t *testing.T) {
	tx := New(1)
	tx.SetTS(42)
	tx.SetAbort(CauseDie)
	tx.FinishAbort()
	tx.Reset()
	if tx.State() != StateRunning || tx.TS() != 42 || tx.Attempt != 1 {
		t.Fatalf("after reset: %v", tx)
	}
	if tx.Cause() != CauseNone {
		t.Fatal("cause not cleared")
	}
}

func TestCommitWoundRaceIsExclusive(t *testing.T) {
	// Exactly one of BeginCommit / SetAbort wins, under contention.
	for i := 0; i < 2000; i++ {
		tx := New(uint64(i))
		var commit, wound atomic.Int32
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if tx.BeginCommit() {
				commit.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			if tx.SetAbort(CauseWound) {
				wound.Add(1)
			}
		}()
		wg.Wait()
		if commit.Load()+wound.Load() != 1 {
			t.Fatalf("iteration %d: commit=%d wound=%d", i, commit.Load(), wound.Load())
		}
	}
}

func TestDynamicTimestampAssignment(t *testing.T) {
	var counter atomic.Uint64
	tx := New(1)
	if tx.HasTS() {
		t.Fatal("fresh txn has timestamp")
	}
	ts := tx.AssignTSIfUnassigned(&counter)
	if ts != 1 || tx.TS() != 1 {
		t.Fatalf("ts = %d", ts)
	}
	if got := tx.AssignTSIfUnassigned(&counter); got != 1 {
		t.Fatalf("second assignment changed ts: %d", got)
	}
	// Concurrent assignment converges to one value.
	tx2 := New(2)
	var wg sync.WaitGroup
	results := make([]uint64, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = tx2.AssignTSIfUnassigned(&counter)
		}(i)
	}
	wg.Wait()
	for _, r := range results {
		if r != tx2.TS() {
			t.Fatalf("divergent assignment: %v vs %d", results, tx2.TS())
		}
	}
}

func TestOlder(t *testing.T) {
	a, b := New(1), New(2)
	a.SetTS(5)
	b.SetTS(9)
	if !a.Older(b) || b.Older(a) {
		t.Fatal("Older wrong")
	}
}

func TestSemaphore(t *testing.T) {
	tx := New(1)
	tx.SemIncr()
	tx.SemIncr()
	tx.SemDecr()
	if tx.Sem() != 1 {
		t.Fatalf("sem = %d", tx.Sem())
	}
}

func TestStrings(t *testing.T) {
	if StateRunning.String() != "running" || StateAborted.String() != "aborted" {
		t.Fatal("state strings")
	}
	if CauseWound.String() != "wound" || CauseCascade.String() != "cascade" ||
		CauseUser.String() != "user" || CauseValidation.String() != "validation" {
		t.Fatal("cause strings")
	}
	tx := New(7)
	if got := tx.String(); got == "" {
		t.Fatal("empty String()")
	}
}

// TestTSAllocUniqueOrdered checks the sharded allocator's contract:
// never TSUnassigned, strictly increasing per worker, unique across
// workers, and cross-worker order roughly tracking allocation time.
func TestTSAllocUniqueOrdered(t *testing.T) {
	const workers, perWorker = 8, 2000
	results := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := NewTSAlloc(w)
			out := make([]uint64, perWorker)
			for i := range out {
				out[i] = a.Next()
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]int, workers*perWorker)
	for w, out := range results {
		for i, ts := range out {
			if ts == TSUnassigned {
				t.Fatalf("worker %d drew TSUnassigned", w)
			}
			if ts&(TSWorkerSlots-1) != uint64(w) {
				t.Fatalf("worker %d ts %d carries wrong worker bits", w, ts)
			}
			if i > 0 && out[i-1] >= ts {
				t.Fatalf("worker %d not strictly increasing at %d: %d >= %d", w, i, out[i-1], ts)
			}
			if prev, dup := seen[ts]; dup {
				t.Fatalf("timestamp %d drawn by workers %d and %d", ts, prev, w)
			}
			seen[ts] = w
		}
	}
}

// TestTSAllocAttachedOverridesCounter checks that a transaction with an
// attached allocator ignores the fallback counter (the sharded path)
// while an unattached one still uses it.
func TestTSAllocAttachedOverridesCounter(t *testing.T) {
	var counter atomic.Uint64
	with := New(1)
	with.SetTSAlloc(NewTSAlloc(3))
	ts := with.AssignTSIfUnassigned(&counter)
	if ts == TSUnassigned || counter.Load() != 0 {
		t.Fatalf("allocator-backed assignment touched the counter (ts=%d counter=%d)", ts, counter.Load())
	}
	if ts&(TSWorkerSlots-1) != 3 {
		t.Fatalf("ts %d does not carry worker 3's bits", ts)
	}
	without := New(2)
	if got := without.AssignTSIfUnassigned(&counter); got != 1 {
		t.Fatalf("fallback assignment = %d, want 1", got)
	}
}

// TestTSAllocWorkerSlotFolding documents the folding of large worker
// indexes into the slot space.
func TestTSAllocWorkerSlotFolding(t *testing.T) {
	a := NewTSAlloc(TSWorkerSlots + 5)
	if got := a.Next() & (TSWorkerSlots - 1); got != 5 {
		t.Fatalf("worker bits = %d, want 5", got)
	}
}

// TestRenewClearsEverything checks Renew resets a recycled transaction
// to a brand-new logical transaction (fresh ts, sem, cause, state).
func TestRenewClearsEverything(t *testing.T) {
	tx := New(1)
	tx.SetTS(77)
	tx.SemIncr()
	tx.SetAbort(CauseWound)
	tx.FinishAbort()
	tx.Attempt = 9
	tx.Renew(42)
	if tx.ID != 42 || tx.Attempt != 0 || tx.HasTS() || tx.Sem() != 0 ||
		tx.Cause() != CauseNone || tx.State() != StateRunning {
		t.Fatalf("renew left state behind: %+v ts=%d sem=%d cause=%s state=%s",
			tx, tx.TS(), tx.Sem(), tx.Cause(), tx.State())
	}
}

// TestWaitDeadline: a wait whose condition never holds parks and returns
// false at its deadline, and its waiter's timer serves the next one.
func TestWaitDeadline(t *testing.T) {
	tx := New(1)
	never := func() bool { return false }
	for i := 0; i < 2; i++ {
		start := time.Now()
		if tx.Wait(never, start.Add(5*time.Millisecond)) {
			t.Fatal("Wait reported a condition that never held")
		}
		if waited := time.Since(start); waited < 5*time.Millisecond {
			t.Fatalf("Wait returned after %v, before its 5ms deadline", waited)
		}
		if tx.Parked() {
			t.Fatal("still marked parked after Wait returned")
		}
	}
}

// TestCommitPoint: a drain that need not wait asks for no deadline; one
// that waits asks once, runs late once the deadline passes, and ends at
// the SemDecr to zero; an abort ends it with the abort's cause.
func TestCommitPoint(t *testing.T) {
	t.Run("drained", func(t *testing.T) {
		tx := New(1)
		asked := 0
		if got := tx.CommitPoint(func() time.Time { asked++; return time.Time{} }, nil); got != CauseNone || asked != 0 {
			t.Fatalf("CommitPoint = %v after %d deadline requests, want CauseNone after none", got, asked)
		}
	})
	t.Run("late", func(t *testing.T) {
		tx := New(1)
		tx.SemIncr()
		asked, lates := 0, 0
		go func() { time.Sleep(5 * time.Millisecond); tx.SemDecr() }()
		got := tx.CommitPoint(func() time.Time { asked++; return time.Now() }, func() { lates++ })
		if got != CauseNone || asked != 1 || lates != 1 {
			t.Fatalf("CommitPoint = %v after %d deadline requests and %d late calls, want CauseNone after one each", got, asked, lates)
		}
	})
	t.Run("wounded", func(t *testing.T) {
		tx := New(1)
		tx.SemIncr()
		go func() { time.Sleep(5 * time.Millisecond); tx.SetAbort(CauseWound) }()
		if got := tx.CommitPoint(nil, nil); got != CauseWound {
			t.Fatalf("CommitPoint = %v, want %v", got, CauseWound)
		}
	})
}
