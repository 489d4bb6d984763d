package core_test

import (
	"runtime"
	"testing"

	"bamboo/internal/core"
)

// TestPollGate: a DB's waits poll while every worker that opened a
// session can have a processor. Sessions for workers 0..P−1, P =
// GOMAXPROCS, keep the gate open, and so do sessions opened again for a
// worker that has one; worker P's session closes it. The gate is decided
// at session open, so a session opened after GOMAXPROCS grows opens it
// again.
func TestPollGate(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	db := core.NewDB(core.WoundWait())
	defer db.Close()
	eng := core.NewLockEngine(db)
	polls := func() bool { return db.NewWaiter(0).Polls() }
	for w := 0; w < procs; w++ {
		eng.NewSession(w, newCollector())
		if !polls() {
			t.Fatalf("gate closed after worker %d's session at GOMAXPROCS %d", w, procs)
		}
	}
	for range 3 {
		eng.NewSession(procs-1, newCollector())
	}
	if !polls() {
		t.Fatal("gate closed by sessions opened again for a worker that had one")
	}
	eng.NewSession(procs, newCollector())
	if polls() {
		t.Fatalf("gate open after worker %d's session at GOMAXPROCS %d", procs, procs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs + 1))
	eng.NewSession(0, newCollector())
	if !polls() {
		t.Fatalf("gate closed at GOMAXPROCS %d with %d workers", procs+1, procs+1)
	}
}
