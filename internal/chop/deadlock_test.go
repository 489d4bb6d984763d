package chop_test

import (
	"sync/atomic"
	"testing"
	"time"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/txn"
)

// IC3 waits have no deadline. A wait that would close a cycle of waits
// aborts one attempt of the cycle at once (txn.CauseDie) instead; the two
// tests below form the two kinds of cycle on every run, with channels,
// and require that exactly one attempt dies and both transactions commit
// soon after.

// runPair runs a on session 0 and b on session 1, b once a's first piece
// has signalled started, and returns their collectors and a channel that
// delivers each Run's error as it returns.
func runPair(t *testing.T, db *core.DB, a, b *chop.Template, started chan struct{}) (ac, bc *stats.Collector, done chan error) {
	t.Helper()
	var reg chop.Registry
	reg.Register(a)
	reg.Register(b)
	reg.Analyze()
	if reg.Merges() != 0 {
		t.Fatalf("Analyze merged %d times; the templates must keep their pieces", reg.Merges())
	}
	eng := chop.New(db)
	ac, bc = &stats.Collector{}, &stats.Collector{}
	sa, sb := eng.NewSession(0, ac), eng.NewSession(1, bc)
	done = make(chan error, 2)
	go func() { done <- sa.Run(chop.Call(a, nil)) }()
	<-started
	go func() { done <- sb.Run(chop.Call(b, nil)) }()
	return ac, bc, done
}

// died is the number of attempts that aborted as deadlock victims.
func died(cs ...*stats.Collector) uint64 {
	var n uint64
	for _, c := range cs {
		n += c.AbortsBy[txn.CauseDie]
	}
	return n
}

// TestCommitDependencyCycle: two attempts that each wait for the other's
// commit. D's first piece reads row 0 and finishes; W's one piece then
// updates rows 0 and 1, which makes W depend on D, and W waits for D's
// commit; D's second piece then reads W's row 1, which makes D depend on
// W. The executor's piece-order rule never made W wait for that second
// piece (see execute), so the cycle forms on every run. One of the two
// dies at once, where a commit-wait deadline took 500 ms.
func TestCommitDependencyCycle(t *testing.T) {
	db := core.NewDB(core.Config{})
	tbl := buildKV(db, 2)
	stamp := tbl.Schema.ColIndex("stamp")
	decl := []chop.AccessDecl{{Table: "kv", Cols: []int{stamp}}}
	dStarted, release, wReturned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var dRuns atomic.Int32
	read := func(pt *chop.PieceTx, k uint64) error { _, err := pt.Read(tbl.Get(k)); return err }
	d := &chop.Template{Name: "D", Pieces: []*chop.Piece{
		{Accesses: decl, Body: func(pt *chop.PieceTx) error {
			// A retry waits until W has returned, so no second cycle forms.
			if dRuns.Add(1) > 1 {
				<-wReturned
			}
			return read(pt, 0)
		}},
		{Accesses: decl, Body: func(pt *chop.PieceTx) error {
			if dRuns.Load() == 1 {
				close(dStarted)
				<-release
			}
			return read(pt, 1)
		}},
	}}
	w := &chop.Template{Name: "W", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{stamp}, Write: true}},
		Body: func(pt *chop.PieceTx) error {
			for k := uint64(0); k < 2; k++ {
				if err := pt.Update(tbl.Get(k), func(img []byte) { tbl.Schema.AddInt64(img, stamp, 1) }); err != nil {
					return err
				}
			}
			return nil
		},
	}}}
	dc, wc, done := runPair(t, db, d, w, dStarted)
	time.Sleep(parkHold) // W finishes its piece and parks on D's commit
	start := time.Now()
	close(release)
	for i := 0; i < 2; i++ {
		if err := within(t, done, "a transaction has not returned"); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			close(wReturned) // D's retry cannot have returned first
		}
	}
	elapsed := time.Since(start)
	if n := died(dc, wc); n != 1 || dc.Commits != 1 || wc.Commits != 1 {
		t.Fatalf("%d attempts died, D committed %d and W %d times; want one victim and both committed", n, dc.Commits, wc.Commits)
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("the cycle took %v to break, want under 250ms", elapsed)
	}
	for k := uint64(0); k < 2; k++ {
		if got := tbl.Schema.GetInt64(tbl.Get(k).CommittedImage(), stamp); got != 1 {
			t.Fatalf("row %d stamp = %d, want W's one committed increment", k, got)
		}
	}
}

// TestPieceDeadlock: two one-piece templates update rows 0 and 1 in
// opposite orders, each taking its second row once the other holds its
// first, so each piece waits for the other's to finish. One of the two
// dies at once, having exposed no write, and the other commits at its
// first attempt, where a piece-wait deadline took 50 ms.
func TestPieceDeadlock(t *testing.T) {
	db := core.NewDB(core.Config{})
	tbl := buildKV(db, 2)
	stamp := tbl.Schema.ColIndex("stamp")
	var runs atomic.Int32
	holds := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	survived := make(chan struct{})
	tmpl := func(name string, first uint64) *chop.Template {
		incr := func(pt *chop.PieceTx, k uint64) error {
			return pt.Update(tbl.Get(k), func(img []byte) { tbl.Schema.AddInt64(img, stamp, 1) })
		}
		return &chop.Template{Name: name, Pieces: []*chop.Piece{{
			Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{stamp}, Write: true}},
			Body: func(pt *chop.PieceTx) error {
				retry := runs.Add(1) > 2
				if retry {
					<-survived // so that no second cycle forms
				}
				if err := incr(pt, first); err != nil {
					return err
				}
				if !retry {
					close(holds[first])
					<-holds[1-first]
				}
				return incr(pt, 1-first)
			},
		}}}
	}
	ac, bc, done := runPair(t, db, tmpl("A", 0), tmpl("B", 1), holds[0])
	<-holds[1]
	start := time.Now()
	if err := within(t, done, "neither transaction has returned"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 25*time.Millisecond {
		t.Fatalf("the survivor returned %v after both pieces held a row, want under 25ms", elapsed)
	}
	close(survived)
	if err := within(t, done, "the victim has not returned"); err != nil {
		t.Fatal(err)
	}
	if n := died(ac, bc); n != 1 || ac.Aborts+bc.Aborts != 1 || ac.Commits != 1 || bc.Commits != 1 {
		t.Fatalf("%d attempts died, %d aborted, A committed %d and B %d times; want one victim and both committed",
			n, ac.Aborts+bc.Aborts, ac.Commits, bc.Commits)
	}
	for k := uint64(0); k < 2; k++ {
		if got := tbl.Schema.GetInt64(tbl.Get(k).CommittedImage(), stamp); got != 2 {
			t.Fatalf("row %d stamp = %d, want 2 committed increments", k, got)
		}
	}
}
