package lock

import (
	"testing"

	"bamboo/internal/txn"
)

// TestUpgradeFastPathSoleReader covers the sole-holder upgrade fast path:
// a shared request that is the entry's only holder, with no waiters,
// promotes to exclusive under every variant without touching the
// wound/blocked machinery, and behaves exactly like a declared exclusive
// acquisition afterwards (private mutable copy, publish at release).
func TestUpgradeFastPathSoleReader(t *testing.T) {
	mgrs := map[string]*Manager{
		"nowait":    NewManager(Config{Variant: NoWait}),
		"waitdie":   NewManager(Config{Variant: WaitDie}),
		"woundwait": NewManager(Config{Variant: WoundWait}),
		"bamboo":    bambooMgr(),
		"dynts":     NewManager(Config{Variant: Bamboo, RetireReads: true, DynamicTS: true}),
	}
	for name, m := range mgrs {
		t.Run(name, func(t *testing.T) {
			e := newEntry(7)
			tx := newTxnTS(1, 1)
			r := mustAcquire(t, m, tx, SH, e)
			if err := m.Upgrade(r); err != nil {
				t.Fatalf("sole-reader upgrade: %v", err)
			}
			if r.Mode != EX || !r.Granted() || r.Retired() {
				t.Fatalf("after upgrade: mode=%s granted=%v retired=%v",
					r.Mode, r.Granted(), r.Retired())
			}
			if u := tx.Sem(); u != 0 {
				t.Fatalf("sole-holder upgrade took a commit dependency: sem=%d", u)
			}
			// The write image must be a private copy: mutating it must not
			// leak into the entry until release publishes it.
			r.Data[0] = 42
			if e.CurrentData()[0] != 7 {
				t.Fatalf("upgrade image is not private: entry data = %v", e.CurrentData())
			}
			m.Release(r, false)
			if e.CurrentData()[0] != 42 {
				t.Fatalf("commit did not publish the upgraded write: %v", e.CurrentData())
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUpgradeFastPathNotTakenWithWaiter pins the fast path's guard: with a
// waiter queued the upgrade must go through the full path (here: the
// waiter is younger, so the Wound-Wait upgrader still completes — the
// queued EX conflicts with the shared hold, so it waits rather than being
// granted into the upgrader's critical section — and is granted only once
// the upgraded writer releases).
func TestUpgradeFastPathNotTakenWithWaiter(t *testing.T) {
	m := NewManager(Config{Variant: WoundWait})
	e := newEntry(7)
	older := newTxnTS(1, 1)
	r := mustAcquire(t, m, older, SH, e)

	younger := newTxnTS(2, 2)
	done := make(chan error, 1)
	go func() {
		w, err := m.Acquire(younger, EX, e)
		if err == nil {
			m.Release(w, false)
		}
		done <- err
	}()
	waitForWaiters(t, e, 1)
	if err := m.Upgrade(r); err != nil {
		t.Fatalf("upgrade with queued younger waiter: %v", err)
	}
	if r.Mode != EX {
		t.Fatalf("mode = %s after upgrade", r.Mode)
	}
	m.Release(r, false)
	if err := <-done; err != nil && err != ErrWound {
		t.Fatalf("younger waiter: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeFastPathAllocs asserts the fast path adds zero allocations
// beyond the inherent private write-image clone: a full
// acquire-SH→upgrade→release cycle allocates exactly as much as the
// declared acquire-EX→release cycle it replaces.
func TestUpgradeFastPathAllocs(t *testing.T) {
	for _, variant := range []string{"bamboo", "woundwait"} {
		t.Run(variant, func(t *testing.T) {
			var m *Manager
			if variant == "bamboo" {
				m = bambooMgr()
			} else {
				m = NewManager(Config{Variant: WoundWait})
			}
			e := newEntry(7)
			tx := txn.New(1)
			tx.SetTS(1)
			var pool Pool

			cycle := func(upgrade bool) float64 {
				return testing.AllocsPerRun(200, func() {
					r := pool.Get()
					mode := EX
					if upgrade {
						mode = SH
					}
					if err := m.AcquireInto(r, tx, mode, e); err != nil {
						t.Fatal(err)
					}
					if upgrade {
						if err := m.Upgrade(r); err != nil {
							t.Fatal(err)
						}
					}
					m.Release(r, false)
					pool.Put(r)
				})
			}
			declared := cycle(false)
			upgraded := cycle(true)
			t.Logf("%s: declared EX %.1f allocs, SH→EX upgrade %.1f allocs", variant, declared, upgraded)
			// Each cycle's one allocation is the private write-image clone.
			if upgraded > declared {
				t.Fatalf("upgrade fast path allocates: %.1f vs %.1f for declared EX",
					upgraded, declared)
			}
			if upgraded > 1 {
				t.Fatalf("sole-reader upgrade cycle = %.1f allocs, want ≤1 (the image clone)", upgraded)
			}
		})
	}
}
