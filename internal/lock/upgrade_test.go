package lock

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bamboo/internal/txn"
)

// upgradeVariants enumerates the manager configurations upgrade tests run
// against.
func upgradeVariants() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"bamboo-full", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true}},
		{"bamboo-dynts", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, DynamicTS: true}},
		{"bamboo-plain", Config{Variant: Bamboo}},
		{"woundwait", Config{Variant: WoundWait}},
		{"waitdie", Config{Variant: WaitDie}},
		{"nowait", Config{Variant: NoWait}},
	}
}

// TestUpgradeUncontended: a sole shared holder upgrades in place, writes,
// and the write is published at release (2PL) or retire (Bamboo).
func TestUpgradeUncontended(t *testing.T) {
	for _, v := range upgradeVariants() {
		t.Run(v.name, func(t *testing.T) {
			m := NewManager(v.cfg)
			e := &Entry{}
			e.Init([]byte{1})

			tx := txn.New(1)
			m.AssignTS(tx)
			r, err := m.Acquire(tx, SH, e)
			if err != nil {
				t.Fatal(err)
			}
			shared := r.Data
			if err := m.Upgrade(r); err != nil {
				t.Fatal(err)
			}
			if r.Mode != EX {
				t.Fatalf("mode = %v after upgrade", r.Mode)
			}
			if !r.Granted() {
				t.Fatal("request not granted after upgrade")
			}
			if &r.Data[0] == &shared[0] {
				t.Fatal("upgrade did not take a private copy of the image")
			}
			r.Data[0] = 42
			if got := e.CurrentData()[0]; got != 1 {
				t.Fatalf("private write leaked into the entry: %d", got)
			}
			if v.cfg.Variant == Bamboo {
				m.Retire(r)
				if got := e.CurrentData()[0]; got != 42 {
					t.Fatalf("retired write not installed: %d", got)
				}
			}
			if !tx.BeginCommit() {
				t.Fatal("commit CAS failed")
			}
			m.Release(r, false)
			tx.FinishCommit()
			if got := e.CurrentData()[0]; got != 42 {
				t.Fatalf("entry = %d after commit, want 42", got)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
				t.Fatalf("entry not drained: %d/%d/%d", ret, own, wait)
			}
		})
	}
}

// TestUpgradeIdempotent: upgrading an already-exclusive request is a
// no-op.
func TestUpgradeIdempotent(t *testing.T) {
	m := NewManager(Config{Variant: Bamboo, RetireReads: true})
	e := &Entry{}
	e.Init([]byte{0})
	tx := txn.New(1)
	m.AssignTS(tx)
	r, err := m.Acquire(tx, EX, e)
	if err != nil {
		t.Fatal(err)
	}
	data := r.Data
	if err := m.Upgrade(r); err != nil {
		t.Fatal(err)
	}
	if &r.Data[0] != &data[0] {
		t.Fatal("no-op upgrade replaced the private image")
	}
	m.Release(r, true)
	tx.FinishAbort()
}

// TestUpgradeWoundsYoungerReader: under Wound-Wait/Bamboo an upgrader
// wounds a younger shared holder and completes once it drains; the
// younger transaction aborts (the "upgrade-upgrade deadlocks abort the
// younger txn" rule in its simplest form).
func TestUpgradeWoundsYoungerReader(t *testing.T) {
	for _, v := range upgradeVariants() {
		if v.cfg.Variant != WoundWait && v.cfg.Variant != Bamboo {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			wounds := 0
			cfg := v.cfg
			cfg.OnWound = func() { wounds++ }
			m := NewManager(cfg)
			e := &Entry{}
			e.Init([]byte{0})

			older, younger := txn.New(1), txn.New(2)
			m.AssignTS(older)
			m.AssignTS(younger)
			r1, err := m.Acquire(older, SH, e)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := m.Acquire(younger, SH, e)
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan error, 1)
			go func() { done <- m.Upgrade(r1) }()

			// The upgrade must wound the younger reader and then wait for
			// it to drain.
			for i := 0; !younger.Aborting(); i++ {
				if i > 1e7 {
					t.Fatal("younger reader never wounded")
				}
				Backoff(i)
			}
			m.Release(r2, true)
			younger.FinishAbort()

			if err := <-done; err != nil {
				t.Fatalf("upgrade failed: %v", err)
			}
			if wounds == 0 {
				t.Fatal("OnWound not called")
			}
			m.Release(r1, true)
			older.FinishAbort()
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUpgradeYoungerAbortsAgainstOlderHolder: a younger upgrader facing
// an older shared holder must not wound it — it either waits for the
// older holder to leave (Wound-Wait/Bamboo) or self-aborts (Wait-Die,
// No-Wait).
func TestUpgradeYoungerAbortsAgainstOlderHolder(t *testing.T) {
	for _, v := range upgradeVariants() {
		t.Run(v.name, func(t *testing.T) {
			m := NewManager(v.cfg)
			e := &Entry{}
			e.Init([]byte{0})

			older, younger := txn.New(1), txn.New(2)
			m.AssignTS(older)
			m.AssignTS(younger)
			r1, err := m.Acquire(older, SH, e)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := m.Acquire(younger, SH, e)
			if err != nil {
				t.Fatal(err)
			}

			switch v.cfg.Variant {
			case WaitDie:
				if err := m.Upgrade(r2); !errors.Is(err, ErrDie) {
					t.Fatalf("err = %v, want ErrDie", err)
				}
				if older.Aborting() {
					t.Fatal("older holder was aborted by a younger upgrader")
				}
				m.Release(r2, true)
				younger.FinishAbort()
				m.Release(r1, false)
			case NoWait:
				if err := m.Upgrade(r2); !errors.Is(err, ErrNoWait) {
					t.Fatalf("err = %v, want ErrNoWait", err)
				}
				m.Release(r2, true)
				younger.FinishAbort()
				m.Release(r1, false)
			case Bamboo:
				if v.cfg.RetireReads {
					// The older holder is a *retired* reader: the upgrade
					// completes immediately and commit-orders behind it
					// instead of waiting — the early-release win.
					if err := m.Upgrade(r2); err != nil {
						t.Fatalf("upgrade failed: %v", err)
					}
					if older.Aborting() {
						t.Fatal("older retired reader was wounded by a younger upgrader")
					}
					if younger.Sem() != 1 {
						t.Fatalf("sem = %d, want commit-ordering behind the older reader", younger.Sem())
					}
					m.Release(r1, false) // older reader leaves
					if younger.Sem() != 0 {
						t.Fatalf("sem = %d after older reader left, want 0", younger.Sem())
					}
					if !younger.BeginCommit() {
						t.Fatal("commit CAS failed")
					}
					m.Release(r2, false)
					younger.FinishCommit()
					break
				}
				fallthrough
			default: // WoundWait, Bamboo without RetireReads: wait, don't wound
				done := make(chan error, 1)
				go func() { done <- m.Upgrade(r2) }()
				time.Sleep(2 * time.Millisecond)
				if older.Aborting() {
					t.Fatal("older holder was wounded by a younger upgrader")
				}
				select {
				case err := <-done:
					t.Fatalf("upgrade completed alongside an older shared holder: %v", err)
				default:
				}
				m.Release(r1, false) // older leaves; the upgrade may proceed
				if err := <-done; err != nil {
					t.Fatalf("upgrade failed after older holder left: %v", err)
				}
				m.Release(r2, true)
				younger.FinishAbort()
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUpgradeUpgradeConflictYoungerAborts: two shared holders both
// upgrade; exactly the younger aborts while the older's upgrade
// completes, under every waiting variant.
func TestUpgradeUpgradeConflictYoungerAborts(t *testing.T) {
	for _, v := range upgradeVariants() {
		if v.cfg.Variant == NoWait {
			continue // no-wait upgrades never coexist with another holder
		}
		t.Run(v.name, func(t *testing.T) {
			m := NewManager(v.cfg)
			e := &Entry{}
			e.Init([]byte{0})

			older, younger := txn.New(1), txn.New(2)
			m.AssignTS(older)
			m.AssignTS(younger)
			r1, err := m.Acquire(older, SH, e)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := m.Acquire(younger, SH, e)
			if err != nil {
				t.Fatal(err)
			}

			oldDone := make(chan error, 1)
			go func() { oldDone <- m.Upgrade(r1) }()
			if v.cfg.Variant == WaitDie {
				// Wait-Die never wounds: give the older upgrade a moment to
				// claim the entry, then the younger upgrader self-aborts on
				// the older holder either way.
				time.Sleep(time.Millisecond)
			} else {
				// The older upgrade wounds the younger holder.
				for i := 0; !younger.Aborting(); i++ {
					if i > 1e7 {
						t.Fatal("younger holder never wounded by the older upgrader")
					}
					Backoff(i)
				}
			}
			if err := m.Upgrade(r2); err == nil {
				t.Fatal("younger upgrade succeeded against an older upgrader")
			}
			// On error the request is still attached; the worker's rollback
			// releases it.
			m.Release(r2, true)
			younger.FinishAbort()
			if err := <-oldDone; err != nil {
				t.Fatalf("older upgrade failed: %v", err)
			}
			m.Release(r1, true)
			older.FinishAbort()
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
				t.Fatalf("entry not drained: %d/%d/%d", ret, own, wait)
			}
		})
	}
}

// TestUpgradeFromRetiredRead: with Optimization 1 a shared grant sits in
// the retired list; upgrading must un-retire it (a retired read installed
// nothing) and move it to owners before the write image is taken.
func TestUpgradeFromRetiredRead(t *testing.T) {
	m := NewManager(Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true})
	e := &Entry{}
	e.Init([]byte{9})

	tx := txn.New(1)
	m.AssignTS(tx)
	r, err := m.Acquire(tx, SH, e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Retired() {
		t.Fatal("RetireReads grant not in retired list")
	}
	if err := m.Upgrade(r); err != nil {
		t.Fatal(err)
	}
	if r.Retired() {
		t.Fatal("upgraded request still reads as retired")
	}
	ret, own, _ := e.Snapshot()
	if ret != 0 || own != 1 {
		t.Fatalf("lists after upgrade: retired=%d owners=%d, want 0/1", ret, own)
	}
	r.Data[0] = 10
	m.Retire(r)
	if got := e.CurrentData()[0]; got != 10 {
		t.Fatalf("installed %d, want 10", got)
	}
	m.Release(r, false)
	tx.FinishCommit()
}

// TestUpgradeDirtyReadDependencyPreserved: a positioned read of an older
// writer's dirty image takes a commit-semaphore increment; the upgrade
// keeps that dependency (the writer must still commit first) and the
// upgraded write chains behind it.
func TestUpgradeDirtyReadDependencyPreserved(t *testing.T) {
	m := NewManager(Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true})
	e := &Entry{}
	e.Init([]byte{0})

	writer := txn.New(1)
	m.AssignTS(writer)
	w, err := m.Acquire(writer, EX, e)
	if err != nil {
		t.Fatal(err)
	}
	w.Data[0] = 5
	m.Retire(w) // dirty install

	reader := txn.New(2)
	m.AssignTS(reader)
	r, err := m.Acquire(reader, SH, e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Dirty || reader.Sem() != 1 {
		t.Fatalf("dirty=%v sem=%d, want dirty read with one dependency", r.Dirty, reader.Sem())
	}
	if err := m.Upgrade(r); err != nil {
		t.Fatal(err)
	}
	if reader.Sem() != 1 {
		t.Fatalf("sem = %d after upgrade, want the dependency kept", reader.Sem())
	}
	if r.Data[0] != 5 {
		t.Fatalf("upgraded image = %d, want the dirty value 5", r.Data[0])
	}

	// The writer commits; the dependency clears and the upgraded write
	// commits on top.
	if !writer.BeginCommit() {
		t.Fatal("writer commit CAS failed")
	}
	m.Release(w, false)
	writer.FinishCommit()
	if reader.Sem() != 0 {
		t.Fatalf("sem = %d after writer commit, want 0", reader.Sem())
	}
	r.Data[0]++
	m.Retire(r)
	if !reader.BeginCommit() {
		t.Fatal("reader commit CAS failed")
	}
	m.Release(r, false)
	reader.FinishCommit()
	if got := e.CurrentData()[0]; got != 6 {
		t.Fatalf("entry = %d, want 6", got)
	}
}

// TestUpgradeCascadeOnSourceAbort: a reader of a dirty image upgrades;
// when the source writer aborts, the cascade must still reach the
// upgraded transaction (its read — and now its write — are based on a
// dead image).
func TestUpgradeCascadeOnSourceAbort(t *testing.T) {
	cascades := 0
	m := NewManager(Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true,
		OnCascade: func(n int) { cascades += n }})
	e := &Entry{}
	e.Init([]byte{1})

	writer := txn.New(1)
	m.AssignTS(writer)
	w, err := m.Acquire(writer, EX, e)
	if err != nil {
		t.Fatal(err)
	}
	w.Data[0] = 2
	m.Retire(w)

	reader := txn.New(2)
	m.AssignTS(reader)
	r, err := m.Acquire(reader, SH, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Upgrade(r); err != nil {
		t.Fatal(err)
	}
	r.Data[0]++ // 3, based on the dirty 2
	m.Retire(r)

	// Source aborts: the upgraded dependent must be cascade-aborted and
	// the entry must rewind to the pre-image.
	writer.SetAbort(txn.CauseUser)
	m.Release(w, true)
	writer.FinishAbort()
	if !reader.Aborting() {
		t.Fatal("upgraded dependent not cascade-aborted")
	}
	if cascades == 0 {
		t.Fatal("OnCascade not called")
	}
	m.Release(r, true)
	reader.FinishAbort()
	if got := e.CurrentData()[0]; got != 1 {
		t.Fatalf("entry = %d after cascading abort, want the pre-image 1", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeErrorLeavesRequestAttached: a failed upgrade must leave the
// request a granted shared holder so the caller's normal rollback path
// (Release) still works — the contract exec.go relies on.
func TestUpgradeErrorLeavesRequestAttached(t *testing.T) {
	m := NewManager(Config{Variant: NoWait})
	e := &Entry{}
	e.Init([]byte{0})

	t1, t2 := txn.New(1), txn.New(2)
	m.AssignTS(t1)
	m.AssignTS(t2)
	r1, err := m.Acquire(t1, SH, e)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Acquire(t2, SH, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Upgrade(r2); !errors.Is(err, ErrNoWait) {
		t.Fatalf("err = %v, want ErrNoWait", err)
	}
	if !r2.Granted() || r2.Mode != SH {
		t.Fatalf("failed upgrade changed the request: granted=%v mode=%v", r2.Granted(), r2.Mode)
	}
	m.Release(r2, true)
	t2.FinishAbort()
	m.Release(r1, false)
	if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
		t.Fatalf("entry not drained: %d/%d/%d", ret, own, wait)
	}
}

// TestPropertyUpgradeNeverDeadlocks drives pure read-then-upgrade
// increment transactions on a single hot entry across all waiting
// variants concurrently and asserts completion (a deadlock hangs the
// test and is caught by -timeout) and exact counter conservation —
// upgrade-upgrade conflicts must always resolve by aborting the younger
// transaction, never by losing an update or waiting forever.
func TestPropertyUpgradeNeverDeadlocks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfgs := []Config{
			{Variant: Bamboo, RetireReads: true, NoWoundRead: true},
			{Variant: Bamboo, RetireReads: true, NoWoundRead: true, DynamicTS: true},
			{Variant: WoundWait},
			{Variant: WaitDie},
		}
		cfg := cfgs[rng.Intn(len(cfgs))]
		m := NewManager(cfg)
		e := &Entry{}
		e.Init(make([]byte, 8))

		const workers = 6
		const perWorker = 60
		var commits [workers]uint64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed ^ int64(w)*104729))
				alloc := m.NewTSAlloc(w)
				for i := 0; i < perWorker; i++ {
					tx := txn.New(uint64(w*perWorker+i) + 1)
					tx.SetTSAlloc(alloc)
					for {
						if !cfg.DynamicTS && !tx.HasTS() {
							m.AssignTS(tx)
						}
						r, err := m.Acquire(tx, SH, e)
						if err != nil {
							tx.FinishAbort()
							tx.Reset()
							continue
						}
						seen := binary.LittleEndian.Uint64(r.Data)
						if err := m.Upgrade(r); err != nil {
							m.Release(r, true)
							tx.FinishAbort()
							tx.Reset()
							time.Sleep(time.Duration(wrng.Intn(50)) * time.Microsecond)
							continue
						}
						binary.LittleEndian.PutUint64(r.Data, seen+1)
						if cfg.Variant == Bamboo {
							m.Retire(r)
						}
						ok := true
						for it := 0; ; it++ {
							if tx.Aborting() {
								ok = false
								break
							}
							if tx.Sem() == 0 {
								break
							}
							Backoff(it)
						}
						if ok && tx.BeginCommit() {
							m.Release(r, false)
							tx.FinishCommit()
							commits[w]++
							break
						}
						m.Release(r, true)
						tx.FinishAbort()
						tx.Reset()
						time.Sleep(time.Duration(wrng.Intn(50)) * time.Microsecond)
					}
				}
			}(w)
		}
		wg.Wait()

		var total uint64
		for _, c := range commits {
			total += c
		}
		if want := uint64(workers * perWorker); total != want {
			t.Logf("seed %d: commits = %d, want %d", seed, total, want)
			return false
		}
		if got := binary.LittleEndian.Uint64(e.CurrentData()); got != total {
			t.Logf("seed %d: counter = %d, committed = %d (lost update through an upgrade)",
				seed, got, total)
			return false
		}
		if err := e.CheckInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
			t.Logf("seed %d: entry not drained: %d/%d/%d", seed, ret, own, wait)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedReaderPassesYoungerOwner: an Optimization-3 reader that had
// to queue keeps its admission rule in the queue. The reader queues
// behind a younger writer that is past its commit point (too late to be
// commit-ordered behind the reader); a still younger transaction then
// reads past both and upgrades to an exclusive owner. Once the committer
// leaves, the reader must be granted at its position, reading the
// committer's image, with the younger owner commit-ordered behind it —
// not left waiting for that owner, which under Bamboo deadlocks as soon
// as the owner is commit-ordered behind the reader on another entry.
func TestQueuedReaderPassesYoungerOwner(t *testing.T) {
	m := bambooMgr()
	e := newEntry(0)
	committer := newTxnTS(3, 3)
	cr := mustAcquire(t, m, committer, EX, e)
	cr.Data[0] = 1
	m.Retire(cr)
	if !committer.BeginCommit() {
		t.Fatal("committer could not begin its commit")
	}

	older := newTxnTS(2, 2)
	granted := make(chan *Request, 1)
	go func() {
		r, err := m.Acquire(older, SH, e)
		if err != nil {
			t.Errorf("older reader: %v", err)
		}
		granted <- r
	}()
	for i := 0; ; i++ {
		if _, _, waiting := e.Snapshot(); waiting == 1 {
			break
		}
		Backoff(i)
	}

	younger := newTxnTS(4, 4)
	yr := mustAcquire(t, m, younger, SH, e)
	if err := m.Upgrade(yr); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	yr.Data[0] = 2

	m.Release(cr, false)
	committer.FinishCommit()
	var or *Request
	select {
	case or = <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("queued older reader still waits for the younger exclusive owner")
	}
	if or == nil {
		return
	}
	if or.Data[0] != 1 {
		t.Fatalf("older reader read %d, want the committer's image 1", or.Data[0])
	}
	if younger.Sem() == 0 {
		t.Fatal("the younger owner is not commit-ordered behind the older reader")
	}
	m.Release(or, false)
	if younger.Sem() != 0 {
		t.Fatalf("younger owner still waits after the reader left: sem=%d", younger.Sem())
	}
	m.Release(yr, false)
	if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
		t.Fatalf("entry not drained: %d/%d/%d", ret, own, wait)
	}
}
