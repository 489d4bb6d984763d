package core_test

import (
	"testing"
	"time"

	"bamboo/internal/core"
)

// TestLockWaitIsBlockedTime pins what the runtime breakdown's wait
// shares mean: the time an attempt spent waiting for other transactions,
// and nothing else. A worker that never meets another reports exactly
// zero lock wait and zero commit wait on every engine, however many rows
// it touches — the CPU an acquire or a validation costs is the attempt's
// own work; a transaction queued behind a lock holder reports about the
// time the holder kept it waiting, and that time is not in its execution
// time.
func TestLockWaitIsBlockedTime(t *testing.T) {
	// Uncontended: 200 transactions of 16 accesses, reads and writes.
	for _, c := range engineCases() {
		db := core.NewDB(c.cfg)
		tbl := testTable(db, 64)
		bump := func(img []byte) { tbl.Schema.AddInt64(img, 0, 1) }
		solo := newCollector()
		sess := c.engine(db).NewSession(0, solo)
		for n := 0; n < 200; n++ {
			err := sess.Run(c.txn(func(tx core.Tx) error {
				for i := 0; i < 16; i++ {
					row := tbl.Get(uint64((n + i) % 64))
					if i%2 == 0 {
						if _, err := tx.Read(row); err != nil {
							return err
						}
					} else if err := tx.Update(row, bump); err != nil {
						return err
					}
				}
				return nil
			}))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if solo.Commits != 200 || solo.LockWait != 0 || solo.CommitWait != 0 {
			t.Errorf("%s uncontended: %d commits report %v of lock wait and %v of commit wait, want 200 and exactly 0 and 0",
				c.name, solo.Commits, solo.LockWait, solo.CommitWait)
		}
		if solo.UsefulTime <= 0 {
			t.Errorf("%s uncontended: no execution time recorded", c.name)
		}
		db.Close()
	}

	db := core.NewDB(core.WoundWait())
	defer db.Close()
	tbl := testTable(db, 64)
	eng := core.NewLockEngine(db)
	bump := func(img []byte) { tbl.Schema.AddInt64(img, 0, 1) }

	// Queued: the holder takes the row's exclusive lock and keeps it for
	// `hold`; the waiter — younger, so under Wound-Wait it queues — asks
	// for the same lock once the holder has it.
	const hold = 40 * time.Millisecond
	hot := tbl.Get(7)
	locked, finished := make(chan struct{}), make(chan error, 1)
	go func() {
		finished <- eng.NewSession(1, newCollector()).Run(func(tx core.Tx) error {
			if err := tx.Update(hot, bump); err != nil {
				return err
			}
			close(locked)
			time.Sleep(hold)
			return nil
		})
	}()
	<-locked
	waiter := newCollector()
	start := time.Now()
	err := eng.NewSession(2, waiter).Run(func(tx core.Tx) error { return tx.Update(hot, bump) })
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if waiter.Commits != 1 || waiter.Aborts != 0 {
		t.Fatalf("waiter: %d commits, %d aborts, want one clean commit", waiter.Commits, waiter.Aborts)
	}
	// The waiter asked for the lock a moment after the holder started its
	// sleep, so it was blocked for nearly all of it and never longer than
	// its whole Run.
	if waiter.LockWait < hold/2 || waiter.LockWait > elapsed {
		t.Errorf("waiter reports %v of lock wait; the row was held for %v and its Run took %v",
			waiter.LockWait, hold, elapsed)
	}
	if waiter.UsefulTime > hold/2 {
		t.Errorf("waiter reports %v of execution time: the wait leaked into it", waiter.UsefulTime)
	}
}
