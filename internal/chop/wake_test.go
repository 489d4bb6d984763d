package chop_test

import (
	"testing"
	"time"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/stats"
)

// IC3's wake sites: a piece finishing, and a transaction ending after
// its rollback or detach. Each test holds the waited-on transaction for
// at least parkHold, so that the waiter parks, and requires the waiter
// to return within wakeBound of the event that ends its wait, committed
// at its first attempt. An IC3 wait has no deadline: without the wake it
// would never return.
const (
	parkHold  = 5 * time.Millisecond
	wakeBound = 2 * time.Second
)

// wakeRig is two transactions on one row. A's first piece writes the
// row's stamp column and holds until release, then aborts A if abort is
// set; its second piece writes the other column and holds until end, and
// A's commit holds for parkHold after its last piece has finished. B's
// one piece writes the stamp: it waits for A's first piece to finish,
// then depends on A and waits for A's end to commit.
type wakeRig struct {
	release, end        chan struct{}
	abort               bool
	aHolds, aNext, bRan chan struct{}
	bStats              *stats.Collector
	aDone, bDone        chan error
}

// startWakeRig runs A until its first piece holds the row, then runs B,
// which blocks on it, and gives B parkHold to park. With after set, B
// starts only once A's first piece has finished and its second holds:
// B's piece then runs at once, and B parks on its commit wait alone.
func startWakeRig(t *testing.T, abort, after bool) *wakeRig {
	db := core.NewDB(core.Config{OnCommit: func(worker int, _, _ uint64, _ []core.AccessInfo, _ int) {
		if worker == 0 {
			time.Sleep(parkHold)
		}
	}})
	tbl := buildKV(db, 1)
	row := tbl.Get(0)
	stamp, other := tbl.Schema.ColIndex("stamp"), tbl.Schema.ColIndex("other")
	r := &wakeRig{
		release: make(chan struct{}), end: make(chan struct{}), abort: abort,
		aHolds: make(chan struct{}), aNext: make(chan struct{}), bRan: make(chan struct{}),
		bStats: &stats.Collector{},
		aDone:  make(chan error, 1), bDone: make(chan error, 1),
	}
	// piece writes col, closes began once it has, then runs then.
	piece := func(col int, began chan struct{}, then func() error) *chop.Piece {
		return &chop.Piece{
			Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{col}, Write: true}},
			Body: func(pt *chop.PieceTx) error {
				if err := pt.Update(row, func([]byte) {}); err != nil {
					return err
				}
				close(began)
				return then()
			},
		}
	}
	a := &chop.Template{Name: "A", Pieces: []*chop.Piece{
		piece(stamp, r.aHolds, func() error {
			if <-r.release; r.abort {
				return core.ErrUserAbort
			}
			return nil
		}),
		piece(other, r.aNext, func() error { <-r.end; return nil }),
	}}
	b := &chop.Template{Name: "B", Pieces: []*chop.Piece{
		piece(stamp, r.bRan, func() error { return nil }),
	}}
	var reg chop.Registry
	reg.Register(a)
	reg.Register(b)
	reg.Analyze()
	eng := chop.New(db)
	sa, sb := eng.NewSession(0, &stats.Collector{}), eng.NewSession(1, r.bStats)
	go func() { r.aDone <- sa.Run(chop.Call(a, nil)) }()
	<-r.aHolds
	if after {
		close(r.release)
		<-r.aNext
	}
	go func() { r.bDone <- sb.Run(chop.Call(b, nil)) }()
	time.Sleep(parkHold)
	return r
}

// within fails the test unless ch delivers within wakeBound.
func within[T any](t *testing.T, ch chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(wakeBound):
		t.Fatalf("%s %v after the event that ends the wait", what, wakeBound)
		var zero T
		return zero
	}
}

// finish waits for both transactions and checks that B committed at its
// first attempt.
func (r *wakeRig) finish(t *testing.T) {
	t.Helper()
	for _, ch := range []chan error{r.aDone, r.bDone} {
		if err := within(t, ch, "a transaction has not returned"); err != nil {
			t.Fatal(err)
		}
	}
	if c := r.bStats; c.Commits != 1 || c.Aborts != 0 {
		t.Fatalf("B: %d commits, %d aborts; want one commit at its first attempt", c.Commits, c.Aborts)
	}
}

// TestWakeOnPieceFinish: B, parked on A's running piece, is woken by the
// piece finishing and runs while A is still running. B's commit then
// waits for A's end too, which TestWakeOnTransactionEnd/commit covers
// alone.
func TestWakeOnPieceFinish(t *testing.T) {
	r := startWakeRig(t, false, false)
	close(r.release)
	within(t, r.bRan, "B's piece has not run")
	close(r.end)
	r.finish(t)
}

// TestWakeOnTransactionEnd: a waiter is woken when the transaction it
// waits on ends — B's commit wait by A's commit, after its detach, and
// B's wait on A's running piece by A's rollback.
func TestWakeOnTransactionEnd(t *testing.T) {
	t.Run("commit", func(t *testing.T) {
		r := startWakeRig(t, false, true)
		within(t, r.bRan, "B's piece has not run")
		close(r.end)
		r.finish(t)
	})
	t.Run("rollback", func(t *testing.T) {
		r := startWakeRig(t, true, false)
		close(r.release)
		r.finish(t)
	})
}
