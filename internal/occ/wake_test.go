package occ

import (
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/verify/verifytest"
)

// Silo's wake site: a TID unlock, by a commit's install or a rollback,
// wakes the sessions parked on locked TID words. Each test parks a reader
// behind a lock held for at least parkHold and requires the reader to
// return within wakeBound of the unlock. The reader's wait has no
// deadline: without the wake it would never return.
const (
	parkHold  = 5 * time.Millisecond
	wakeBound = 2 * time.Second
)

// readAfter starts reader's readStable of row, lets it park and stay
// parked for parkHold, runs unlock and fails the test if the read has
// not returned wakeBound later.
func readAfter(t *testing.T, reader *session, row *storage.Row, unlock func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { reader.readStable(row); close(done) }()
	for deadline := time.Now().Add(wakeBound); !reader.t.Parked(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never parked on the locked TID word")
		}
	}
	time.Sleep(parkHold)
	unlock()
	select {
	case <-done:
	case <-time.After(wakeBound):
		t.Fatalf("the reader has not returned %v after the unlock: %v", wakeBound, &reader.t)
	}
}

func TestWakeOnTIDUnlock(t *testing.T) {
	t.Run("commit", func(t *testing.T) {
		// The commit hook runs with the write set locked; it holds A's
		// commit there until the reader has parked.
		holding, release := make(chan struct{}), make(chan struct{})
		db := core.NewDB(core.Config{OnCommit: func(int, uint64, uint64, []core.AccessInfo, int) {
			close(holding)
			<-release
		}})
		e := New(db)
		row := verifytest.BuildDB(db, 1).Get(0)
		a := e.NewSession(0, &stats.Collector{})
		b := e.NewSession(1, &stats.Collector{}).(*session)
		done := make(chan error, 1)
		go func() {
			done <- a.Run(func(tx core.Tx) error { return tx.Update(row, func([]byte) {}) })
		}()
		<-holding
		readAfter(t, b, row, func() { close(release) })
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("rollback", func(t *testing.T) {
		db := core.NewDB(core.Config{})
		e := New(db)
		row := verifytest.BuildDB(db, 1).Get(0)
		a := e.NewSession(0, &stats.Collector{}).(*session)
		b := e.NewSession(1, &stats.Collector{}).(*session)
		a.lockTID(row)
		a.tx.rows.Add(row)
		a.tx.order = append(a.tx.order, 0)
		a.tx.locked = 1
		readAfter(t, b, row, a.Rollback)
	})
}
