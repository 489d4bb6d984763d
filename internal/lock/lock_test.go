package lock

import (
	"runtime"
	"testing"
	"time"

	"bamboo/internal/txn"
)

func TestConflictMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{SH, SH, false},
		{SH, EX, true},
		{EX, SH, true},
		{EX, EX, true},
	}
	for _, c := range cases {
		if got := Conflict(c.a, c.b); got != c.want {
			t.Errorf("Conflict(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestStrings(t *testing.T) {
	if SH.String() != "SH" || EX.String() != "EX" {
		t.Errorf("mode strings: %s %s", SH, EX)
	}
	for v, want := range map[Variant]string{
		NoWait: "NO_WAIT", WaitDie: "WAIT_DIE", WoundWait: "WOUND_WAIT", Bamboo: "BAMBOO",
	} {
		if v.String() != want {
			t.Errorf("variant %d string = %q, want %q", v, v.String(), want)
		}
	}
}

func newTxnTS(id, ts uint64) *txn.Txn {
	t := txn.New(id)
	t.SetTS(ts)
	return t
}

func newEntry(data ...byte) *Entry {
	e := &Entry{}
	if data == nil {
		data = []byte{0}
	}
	e.Init(data)
	return e
}

func bambooMgr() *Manager {
	return NewManager(Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true})
}

func mustAcquire(t *testing.T, m *Manager, tx *txn.Txn, mode Mode, e *Entry) *Request {
	t.Helper()
	r, err := m.Acquire(tx, mode, e)
	if err != nil {
		t.Fatalf("acquire %s for %v: %v", mode, tx, err)
	}
	return r
}

func TestInsertByTS(t *testing.T) {
	var list reqList
	for _, ts := range []uint64{5, 1, 3, 9, 2} {
		list.insertByTS(&Request{Txn: newTxnTS(ts, ts)})
	}
	var got []uint64
	for r := list.head; r != nil; r = r.next {
		got = append(got, r.Txn.TS())
	}
	want := []uint64{1, 2, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order = %v, want %v", got, want)
		}
	}
}

func TestNoWaitConflict(t *testing.T) {
	m := NewManager(Config{Variant: NoWait})
	e := newEntry()
	t1 := newTxnTS(1, 1)
	r1 := mustAcquire(t, m, t1, EX, e)
	t2 := newTxnTS(2, 2)
	if _, err := m.Acquire(t2, EX, e); err != ErrNoWait {
		t.Fatalf("second EX: err = %v, want ErrNoWait", err)
	}
	if _, err := m.Acquire(t2, SH, e); err != ErrNoWait {
		t.Fatalf("SH over EX: err = %v, want ErrNoWait", err)
	}
	m.Release(r1, false)
	// SH + SH is compatible.
	r2 := mustAcquire(t, m, t2, SH, e)
	t3 := newTxnTS(3, 3)
	r3 := mustAcquire(t, m, t3, SH, e)
	m.Release(r2, false)
	m.Release(r3, false)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitDieYoungerDies(t *testing.T) {
	m := NewManager(Config{Variant: WaitDie})
	e := newEntry()
	old := newTxnTS(1, 1)
	young := newTxnTS(2, 2)
	rOld := mustAcquire(t, m, old, EX, e)
	if _, err := m.Acquire(young, EX, e); err != ErrDie {
		t.Fatalf("younger requester: err = %v, want ErrDie", err)
	}
	m.Release(rOld, false)
}

func TestWaitDieOlderWaits(t *testing.T) {
	m := NewManager(Config{Variant: WaitDie})
	e := newEntry()
	young := newTxnTS(2, 10)
	old := newTxnTS(1, 1)
	rYoung := mustAcquire(t, m, young, EX, e)
	done := make(chan *Request)
	go func() {
		r, err := m.Acquire(old, EX, e)
		if err != nil {
			t.Errorf("older requester should wait, got %v", err)
		}
		done <- r
	}()
	// The older transaction must not be granted while the younger owns.
	select {
	case <-done:
		t.Fatal("older transaction granted while younger still owns")
	default:
	}
	m.Release(rYoung, false)
	rOld := <-done
	if rOld == nil {
		t.Fatal("older transaction was not granted after release")
	}
	m.Release(rOld, false)
}

func TestWaitDieDiesOnOlderWaiter(t *testing.T) {
	// A requester younger than a queued conflicting waiter must die, or
	// FIFO queuing could produce young-waits-for-old edges and deadlock.
	m := NewManager(Config{Variant: WaitDie})
	e := newEntry()
	owner := newTxnTS(3, 30)
	rOwner := mustAcquire(t, m, owner, EX, e)
	waiter := newTxnTS(1, 1)
	granted := make(chan *Request)
	go func() {
		r, _ := m.Acquire(waiter, EX, e)
		granted <- r
	}()
	waitForWaiters(t, e, 1)
	mid := newTxnTS(2, 5) // older than owner, younger than queued waiter
	if _, err := m.Acquire(mid, EX, e); err != ErrDie {
		t.Fatalf("requester younger than queued waiter: err = %v, want ErrDie", err)
	}
	m.Release(rOwner, false)
	if r := <-granted; r != nil {
		m.Release(r, false)
	}
}

// eventually polls cond until it holds, failing the test if it does not
// within 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

func waitForWaiters(t *testing.T, e *Entry, n int) {
	t.Helper()
	eventually(t, "a waiter is queued", func() bool { _, _, w := e.Snapshot(); return w >= n })
}

func TestWoundWaitWoundsYounger(t *testing.T) {
	m := NewManager(Config{Variant: WoundWait})
	e := newEntry()
	young := newTxnTS(2, 10)
	rYoung := mustAcquire(t, m, young, EX, e)

	old := newTxnTS(1, 1)
	granted := make(chan *Request)
	go func() {
		r, err := m.Acquire(old, EX, e)
		if err != nil {
			t.Errorf("older requester: %v", err)
		}
		granted <- r
	}()
	// The younger owner must be wounded.
	eventually(t, "the younger owner is wounded", young.Aborting)
	if young.Cause() != txn.CauseWound {
		t.Fatalf("cause = %v, want wound", young.Cause())
	}
	// The wounded owner's worker rolls back, releasing the lock.
	m.Release(rYoung, true)
	rOld := <-granted
	m.Release(rOld, false)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWoundWaitYoungerWaits(t *testing.T) {
	m := NewManager(Config{Variant: WoundWait})
	e := newEntry()
	old := newTxnTS(1, 1)
	rOld := mustAcquire(t, m, old, EX, e)
	young := newTxnTS(2, 10)
	granted := make(chan *Request)
	go func() {
		r, err := m.Acquire(young, EX, e)
		if err != nil {
			t.Errorf("younger requester should wait: %v", err)
		}
		granted <- r
	}()
	waitForWaiters(t, e, 1)
	if old.Aborting() {
		t.Fatal("older owner must not be wounded by younger requester")
	}
	m.Release(rOld, false)
	rYoung := <-granted
	m.Release(rYoung, false)
}

func TestBambooRetireAndDirtyRead(t *testing.T) {
	m := bambooMgr()
	e := newEntry(0)
	w := newTxnTS(1, 1)
	rw := mustAcquire(t, m, w, EX, e)
	rw.Data[0] = 42
	m.Retire(rw)
	if !rw.Retired() {
		t.Fatal("write lock not retired")
	}

	// A later reader sees the dirty value and picks up a dependency.
	rd := newTxnTS(2, 2)
	rr := mustAcquire(t, m, rd, SH, e)
	if rr.Data[0] != 42 {
		t.Fatalf("dirty read got %d, want 42", rr.Data[0])
	}
	if !rr.Dirty {
		t.Fatal("read not flagged dirty")
	}
	if rd.Sem() != 1 {
		t.Fatalf("reader semaphore = %d, want 1", rd.Sem())
	}
	if !rr.Retired() {
		t.Fatal("read should retire at grant (Optimization 1)")
	}

	// Writer commits: reader's dependency clears.
	m.Release(rw, false)
	if rd.Sem() != 0 {
		t.Fatalf("reader semaphore after writer commit = %d, want 0", rd.Sem())
	}
	m.Release(rr, false)
	if got := e.CurrentData()[0]; got != 42 {
		t.Fatalf("committed data = %d, want 42", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBambooWriteAfterRetiredWrite(t *testing.T) {
	// Two writers chain on the same tuple: the second reads the first's
	// dirty image as its read-modify-write base.
	m := bambooMgr()
	e := newEntry(1)
	w1 := newTxnTS(1, 1)
	r1 := mustAcquire(t, m, w1, EX, e)
	r1.Data[0] = 10
	m.Retire(r1)

	w2 := newTxnTS(2, 2)
	r2 := mustAcquire(t, m, w2, EX, e)
	if r2.Data[0] != 10 {
		t.Fatalf("RMW base = %d, want dirty 10", r2.Data[0])
	}
	if !r2.Dirty {
		t.Fatal("second writer should be flagged dirty")
	}
	if w2.Sem() != 1 {
		t.Fatalf("w2 semaphore = %d, want 1", w2.Sem())
	}
	r2.Data[0] = 20
	m.Retire(r2)

	m.Release(r1, false)
	if w2.Sem() != 0 {
		t.Fatalf("w2 semaphore after w1 commit = %d, want 0", w2.Sem())
	}
	m.Release(r2, false)
	if got := e.CurrentData()[0]; got != 20 {
		t.Fatalf("final data = %d, want 20", got)
	}
}

func TestBambooCascadingAbort(t *testing.T) {
	var chains []int
	m := NewManager(Config{
		Variant: Bamboo, RetireReads: true, NoWoundRead: true,
		OnCascade: func(n int) { chains = append(chains, n) },
	})
	e := newEntry(1)

	w1 := newTxnTS(1, 1)
	r1 := mustAcquire(t, m, w1, EX, e)
	r1.Data[0] = 10
	m.Retire(r1)

	w2 := newTxnTS(2, 2)
	r2 := mustAcquire(t, m, w2, EX, e)
	r2.Data[0] = 20
	m.Retire(r2)

	rd := newTxnTS(3, 3)
	rr := mustAcquire(t, m, rd, SH, e)
	if rr.Data[0] != 20 {
		t.Fatalf("reader sees %d, want 20", rr.Data[0])
	}

	// w1 aborts: w2 and the reader must cascade.
	w1.SetAbort(txn.CauseUser)
	m.Release(r1, true)
	if !w2.Aborting() || !rd.Aborting() {
		t.Fatal("cascade did not abort successors")
	}
	if w2.Cause() != txn.CauseCascade || rd.Cause() != txn.CauseCascade {
		t.Fatalf("causes = %v, %v; want cascade", w2.Cause(), rd.Cause())
	}
	if len(chains) != 1 || chains[0] != 2 {
		t.Fatalf("chains = %v, want [2]", chains)
	}

	// Their rollbacks arrive in an arbitrary order; data must rewind to
	// the pre-w1 image.
	m.Release(r2, true)
	m.Release(rr, true)
	if got := e.CurrentData()[0]; got != 1 {
		t.Fatalf("restored data = %d, want 1", got)
	}
	if w1.Sem() != 0 || w2.Sem() != 0 || rd.Sem() != 0 {
		t.Fatal("semaphores not drained after cascade")
	}
	if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
		t.Fatalf("entry not empty: %d/%d/%d", ret, own, wait)
	}
}

func TestVersionGuardedRestoreAllOrders(t *testing.T) {
	// Three chained dirty writers all abort; every release order must
	// rewind the entry to the initial image.
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		m := bambooMgr()
		e := newEntry(9)
		var reqs [3]*Request
		for i := 0; i < 3; i++ {
			tx := newTxnTS(uint64(i+1), uint64(i+1))
			r := mustAcquire(t, m, tx, EX, e)
			r.Data[0] = byte(10 * (i + 1))
			m.Retire(r)
			reqs[i] = r
		}
		// Abort the head: everyone cascades.
		reqs[0].Txn.SetAbort(txn.CauseUser)
		reqs[1].Txn.SetAbort(txn.CauseCascade)
		reqs[2].Txn.SetAbort(txn.CauseCascade)
		for _, i := range p {
			m.Release(reqs[i], true)
		}
		if got := e.CurrentData()[0]; got != 9 {
			t.Fatalf("order %v: restored data = %d, want 9", p, got)
		}
	}
}

func TestSuffixAbortRestoresToCommittedPrefix(t *testing.T) {
	// w1 commits, w2 and w3 abort: the image must rewind to w1's write.
	m := bambooMgr()
	e := newEntry(9)
	var reqs [3]*Request
	for i := 0; i < 3; i++ {
		tx := newTxnTS(uint64(i+1), uint64(i+1))
		r := mustAcquire(t, m, tx, EX, e)
		r.Data[0] = byte(10 * (i + 1))
		m.Retire(r)
		reqs[i] = r
	}
	m.Release(reqs[0], false) // w1 commits
	reqs[1].Txn.SetAbort(txn.CauseUser)
	m.Release(reqs[1], true)
	m.Release(reqs[2], true)
	if got := e.CurrentData()[0]; got != 10 {
		t.Fatalf("data = %d, want w1's 10", got)
	}
}

func TestOpt3ReaderDoesNotWoundYoungerWriter(t *testing.T) {
	// An older reader arriving after a younger writer retired reads the
	// pre-image instead of wounding (Optimization 3).
	m := bambooMgr()
	e := newEntry(7)
	w := newTxnTS(2, 10)
	rw := mustAcquire(t, m, w, EX, e)
	rw.Data[0] = 42
	m.Retire(rw)

	rd := newTxnTS(1, 5) // older than the writer
	rr := mustAcquire(t, m, rd, SH, e)
	if w.Aborting() {
		t.Fatal("younger writer was wounded despite Optimization 3")
	}
	if rr.Data[0] != 7 {
		t.Fatalf("older reader sees %d, want pre-image 7", rr.Data[0])
	}
	if rr.Dirty {
		t.Fatal("pre-image read must not be flagged dirty")
	}
	if rd.Sem() != 0 {
		t.Fatalf("older reader semaphore = %d, want 0", rd.Sem())
	}
	// The bypassed younger writer is retroactively commit-ordered after
	// the reader: it must not reach its commit point first.
	if w.Sem() != 1 {
		t.Fatalf("bypassed writer semaphore = %d, want 1 (retroactive hold)", w.Sem())
	}
	m.Release(rr, false)
	if w.Sem() != 0 {
		t.Fatalf("writer semaphore after reader left = %d, want 0", w.Sem())
	}
	m.Release(rw, false)
	if got := e.CurrentData()[0]; got != 42 {
		t.Fatalf("final data = %d, want 42", got)
	}
}

func TestBaseReaderWoundsYoungerWriter(t *testing.T) {
	// Without Optimization 3 the same schedule wounds the younger writer
	// (Algorithm 2 lines 2–7).
	m := NewManager(Config{Variant: Bamboo, RetireReads: true})
	e := newEntry(7)
	w := newTxnTS(2, 10)
	rw := mustAcquire(t, m, w, EX, e)
	rw.Data[0] = 42
	m.Retire(rw)

	rd := newTxnTS(1, 5)
	got := make(chan *Request)
	go func() {
		r, err := m.Acquire(rd, SH, e)
		if err != nil {
			t.Errorf("older reader: %v", err)
		}
		got <- r
	}()
	eventually(t, "the younger writer is wounded", w.Aborting)
	m.Release(rw, true) // wounded writer rolls back
	rr := <-got
	if rr.Data[0] != 7 {
		t.Fatalf("reader sees %d, want restored 7", rr.Data[0])
	}
	m.Release(rr, false)
}

func TestOpt3ReaderWaitsForOlderOwner(t *testing.T) {
	m := bambooMgr()
	e := newEntry(7)
	w := newTxnTS(1, 1)
	rw := mustAcquire(t, m, w, EX, e)
	rw.Data[0] = 42

	rd := newTxnTS(2, 5)
	got := make(chan *Request)
	go func() {
		r, err := m.Acquire(rd, SH, e)
		if err != nil {
			t.Errorf("reader: %v", err)
		}
		got <- r
	}()
	waitForWaiters(t, e, 1)
	m.Retire(rw) // writer retires: reader promoted, sees dirty 42
	rr := <-got
	if rr.Data[0] != 42 {
		t.Fatalf("reader sees %d, want dirty 42", rr.Data[0])
	}
	if !rr.Dirty || rd.Sem() != 1 {
		t.Fatalf("dirty=%v sem=%d, want true/1", rr.Dirty, rd.Sem())
	}
	m.Release(rw, false)
	m.Release(rr, false)
}

func TestSharedAbortDoesNotCascade(t *testing.T) {
	m := bambooMgr()
	e := newEntry(7)
	rd := newTxnTS(1, 1)
	rr := mustAcquire(t, m, rd, SH, e)

	w := newTxnTS(2, 2)
	rw := mustAcquire(t, m, w, EX, e)
	if w.Sem() != 1 {
		// The writer follows a retired reader: commit order is enforced
		// for the rw edge as in Algorithm 2.
		t.Fatalf("writer semaphore = %d, want 1", w.Sem())
	}
	rd.SetAbort(txn.CauseUser)
	m.Release(rr, true)
	if w.Aborting() {
		t.Fatal("reader abort must not cascade")
	}
	if w.Sem() != 0 {
		t.Fatalf("writer semaphore after reader left = %d, want 0", w.Sem())
	}
	m.Release(rw, false)
}

func TestPromoteWaitersTimestampOrder(t *testing.T) {
	// A younger compatible waiter must not leapfrog an older conflicting
	// one.
	m := NewManager(Config{Variant: WoundWait})
	e := newEntry(7)
	h := newTxnTS(1, 1)
	rh := mustAcquire(t, m, h, SH, e)

	// EX waiter (ts 5) blocks behind the SH owner.
	wEX := newTxnTS(2, 5)
	exCh := make(chan *Request)
	go func() {
		r, _ := m.Acquire(wEX, EX, e)
		exCh <- r
	}()
	waitForWaiters(t, e, 1)

	// SH waiter (ts 9) is compatible with the owner but must queue behind
	// the EX waiter.
	wSH := newTxnTS(3, 9)
	shCh := make(chan *Request)
	go func() {
		r, _ := m.Acquire(wSH, SH, e)
		shCh <- r
	}()
	waitForWaiters(t, e, 2)
	select {
	case <-shCh:
		t.Fatal("younger SH leapfrogged older EX waiter")
	default:
	}

	m.Release(rh, false)
	rEX := <-exCh
	m.Release(rEX, false)
	rSH := <-shCh
	m.Release(rSH, false)
}

func TestDynamicTSAssignment(t *testing.T) {
	m := NewManager(Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, DynamicTS: true})
	e1, e2 := newEntry(0), newEntry(0)
	t1, t2 := txn.New(1), txn.New(2)

	// Non-conflicting accesses leave timestamps unassigned... except that
	// entering the retired list requires one (sorted order), so the read
	// gets a timestamp while the EX owner of a different entry does not.
	r1 := mustAcquire(t, m, t1, EX, e1)
	if t1.HasTS() {
		t.Fatal("EX grant without conflict must not assign a timestamp")
	}
	r2 := mustAcquire(t, m, t2, SH, e2)
	_ = r2

	// A conflicting request assigns timestamps to all parties in list
	// order, then to the requester: the holder becomes older.
	t3 := txn.New(3)
	got := make(chan error, 1)
	go func() {
		r, err := m.Acquire(t3, EX, e1)
		if err == nil {
			m.Release(r, false)
		}
		got <- err
	}()
	eventually(t, "the requester has a timestamp", t3.HasTS)
	if !t1.HasTS() {
		t.Fatal("holder must be assigned a timestamp on first conflict")
	}
	if !(t1.TS() < t3.TS()) {
		t.Fatalf("holder ts %d must precede requester ts %d", t1.TS(), t3.TS())
	}
	m.Retire(r1)
	m.Release(r1, false)
	if err := <-got; err != nil {
		t.Fatalf("conflicting request failed: %v", err)
	}
}

func TestWoundInterruptsWaiter(t *testing.T) {
	m := NewManager(Config{Variant: WoundWait})
	e := newEntry(0)
	h := newTxnTS(1, 1)
	rh := mustAcquire(t, m, h, EX, e)

	w := newTxnTS(2, 5)
	res := make(chan error)
	go func() {
		_, err := m.Acquire(w, EX, e)
		res <- err
	}()
	waitForWaiters(t, e, 1)
	// Wound the waiter from the side (as an older transaction elsewhere
	// would); its Acquire must return ErrWound.
	w.SetAbort(txn.CauseWound)
	if err := <-res; err != ErrWound {
		t.Fatalf("wounded waiter got %v, want ErrWound", err)
	}
	if _, _, waiters := e.Snapshot(); waiters != 0 {
		t.Fatal("dropped waiter still queued")
	}
	m.Release(rh, false)
}

func TestReleaseWaitingRequestIsSafe(t *testing.T) {
	m := NewManager(Config{Variant: WoundWait})
	e := newEntry(0)
	h := newTxnTS(1, 1)
	rh := mustAcquire(t, m, h, EX, e)
	w := newTxnTS(2, 5)
	go func() {
		r, err := m.Acquire(w, EX, e)
		if err == nil {
			m.Release(r, false)
		}
	}()
	waitForWaiters(t, e, 1)
	m.Release(rh, false)
}
