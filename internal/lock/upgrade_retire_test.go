package lock

import "testing"

// upgradeRetire is the executor's un-annotated read-modify-write: upgrade
// the shared grant in place, set the first byte of the private copy, and
// retire it.
func upgradeRetire(m *Manager, r *Request, b byte) error {
	if err := m.Upgrade(r); err != nil {
		return err
	}
	r.Data[0] = b
	m.Retire(r)
	return nil
}

// TestUpgradeRetireSoleReader covers upgrade-then-retire on the
// sole-holder fast path: the dirty image is the entry's newest version as
// soon as Retire returns, and commit keeps it.
func TestUpgradeRetireSoleReader(t *testing.T) {
	for name, mk := range map[string]func() *Manager{
		"bamboo": bambooMgr,
		"dynts":  func() *Manager { return NewManager(Config{Variant: Bamboo, RetireReads: true, DynamicTS: true}) },
	} {
		t.Run(name, func(t *testing.T) {
			m := mk()
			e := newEntry(7)
			tx := newTxnTS(1, 1)
			r := mustAcquire(t, m, tx, SH, e)
			if err := upgradeRetire(m, r, 42); err != nil {
				t.Fatalf("upgrade-retire: %v", err)
			}
			if r.Mode != EX || !r.Retired() {
				t.Fatalf("after upgrade-retire: mode=%s retired=%v", r.Mode, r.Retired())
			}
			if u := tx.Sem(); u != 0 {
				t.Fatalf("sole-holder upgrade-retire took a commit dependency: sem=%d", u)
			}
			// The retire installed the mutated image as the newest (dirty)
			// version.
			if got := e.CurrentData()[0]; got != 42 {
				t.Fatalf("retired write not installed: entry data = %d", got)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			m.Release(r, false)
			if got := e.CurrentData()[0]; got != 42 {
				t.Fatalf("commit lost the installed write: %d", got)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUpgradeRetireAbortRestores pins the abort path: the upgraded
// write's install participates in the sequence-guarded restore exactly
// like any retired write.
func TestUpgradeRetireAbortRestores(t *testing.T) {
	m := bambooMgr()
	e := newEntry(7)
	tx := newTxnTS(1, 1)
	r := mustAcquire(t, m, tx, SH, e)
	if err := upgradeRetire(m, r, 42); err != nil {
		t.Fatal(err)
	}
	m.Release(r, true)
	if got := e.CurrentData()[0]; got != 7 {
		t.Fatalf("abort did not restore the pre-image: %d", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeRetireDirtyReadable: a reader arriving after the upgraded
// write retired observes the dirty image and commit-orders behind the
// writer.
func TestUpgradeRetireDirtyReadable(t *testing.T) {
	m := bambooMgr()
	e := newEntry(7)
	writer := newTxnTS(1, 1)
	r := mustAcquire(t, m, writer, SH, e)
	if err := upgradeRetire(m, r, 42); err != nil {
		t.Fatal(err)
	}
	reader := newTxnTS(2, 2)
	rr := mustAcquire(t, m, reader, SH, e)
	if rr.Data[0] != 42 || !rr.Dirty {
		t.Fatalf("reader after upgrade-retire: data=%d dirty=%v", rr.Data[0], rr.Dirty)
	}
	if reader.Sem() != 1 {
		t.Fatalf("dirty reader must commit-order behind the writer: sem=%d", reader.Sem())
	}
	m.Release(r, false)
	if reader.Sem() != 0 {
		t.Fatalf("writer release did not clear the reader's dependency: sem=%d", reader.Sem())
	}
	m.Release(rr, false)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeRetireBehindOlderRetiree: with an older retired reader
// present, the upgraded writer commit-orders behind it and retires back
// into the retired list at its timestamp slot.
func TestUpgradeRetireBehindOlderRetiree(t *testing.T) {
	m := bambooMgr()
	e := newEntry(7)
	older := newTxnTS(1, 1)
	or := mustAcquire(t, m, older, SH, e)
	younger := newTxnTS(2, 2)
	yr := mustAcquire(t, m, younger, SH, e)
	if err := upgradeRetire(m, yr, 9); err != nil {
		t.Fatalf("upgrade-retire behind older retiree: %v", err)
	}
	if younger.Sem() != 1 {
		t.Fatalf("upgraded writer must commit-order behind the older retiree: sem=%d", younger.Sem())
	}
	if ret, own, _ := e.Snapshot(); ret != 2 || own != 0 {
		t.Fatalf("retired=%d owners=%d after the retire, want 2/0", ret, own)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.Release(or, false)
	if younger.Sem() != 0 {
		t.Fatalf("older release did not clear the writer's dependency: sem=%d", younger.Sem())
	}
	m.Release(yr, false)
	if got := e.CurrentData()[0]; got != 9 {
		t.Fatalf("committed upgraded write lost: %d", got)
	}
}

// TestUpgradeRetireGrantsQueuedReader drives the contended path: an
// upgrade blocked by a younger holder wounds it, and a reader that queued
// behind the pending upgrade is granted by the retire that follows it —
// observing the dirty image and commit-ordering behind the upgraded
// writer.
func TestUpgradeRetireGrantsQueuedReader(t *testing.T) {
	m := bambooMgr()
	e := newEntry(7)
	upgrader := newTxnTS(1, 1)
	ur := mustAcquire(t, m, upgrader, SH, e)
	blocker := newTxnTS(2, 2)
	br := mustAcquire(t, m, blocker, SH, e)

	upDone := make(chan error, 1)
	go func() { upDone <- upgradeRetire(m, ur, 42) }()
	// The upgrade wounds the younger holder and waits until it drains.
	eventually(t, "the younger holder is wounded", blocker.Aborting)

	// A younger reader arriving now queues behind the pending upgrade.
	reader := newTxnTS(3, 3)
	type got struct {
		r   *Request
		err error
	}
	readDone := make(chan got, 1)
	go func() {
		r, err := m.Acquire(reader, SH, e)
		readDone <- got{r, err}
	}()
	waitForWaiters(t, e, 1)

	// Draining the wounded holder unblocks the upgrade; the retire after
	// it must install the write AND grant the queued reader.
	m.Release(br, true)
	if err := <-upDone; err != nil {
		t.Fatalf("upgrade-retire: %v", err)
	}
	g := <-readDone
	if g.err != nil {
		t.Fatalf("queued reader: %v", g.err)
	}
	if g.r.Data[0] != 42 || !g.r.Dirty {
		t.Fatalf("queued reader sees data=%d dirty=%v, want the dirty 42", g.r.Data[0], g.r.Dirty)
	}
	if reader.Sem() != 1 {
		t.Fatalf("queued reader must commit-order behind the writer: sem=%d", reader.Sem())
	}
	m.Release(ur, false)
	m.Release(g.r, false)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
