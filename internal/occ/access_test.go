package occ

import (
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/lock"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/verify/verifytest"
)

// The tests below pin Silo's one entry per row: a read and a later update
// of the same row share an entry, whose read tid is validated under the
// write lock, and the reads are validated against locks they do not hold.

func newSiloDB(t *testing.T, cfg core.Config, rows int) (*Engine, *storage.Table) {
	t.Helper()
	e := New(core.NewDB(cfg))
	return e, verifytest.BuildDB(e.Database(), rows)
}

func bumpVal(tbl *storage.Table, by int64) func([]byte) {
	return func(img []byte) { tbl.Schema.AddInt64(img, 1, by) }
}

// TestUpdateOfStaleReadFailsValidation: a row read, then written by a
// second session's commit, then updated fails the first attempt's
// validation once; the retry reads the new image and commits on it.
func TestUpdateOfStaleReadFailsValidation(t *testing.T) {
	e, tbl := newSiloDB(t, core.Config{}, 1)
	row := tbl.Get(0)
	col := &stats.Collector{}
	a, b := e.NewSession(0, col), e.NewSession(1, &stats.Collector{})
	attempts := 0
	if err := a.Run(func(tx core.Tx) error {
		attempts++
		img, err := tx.Read(row)
		if err != nil {
			return err
		}
		if attempts == 1 {
			if err := b.Run(func(tx core.Tx) error { return tx.Update(row, bumpVal(tbl, 10)) }); err != nil {
				t.Fatal(err)
			}
		} else if got := tbl.Schema.GetInt64(img, 1); got != 10 {
			t.Errorf("the retry read %d, want the second session's 10", got)
		}
		return tx.Update(row, bumpVal(tbl, 1))
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || col.AbortsBy[txn.CauseValidation] != 1 {
		t.Fatalf("%d attempts, %d validation aborts; want 2 and 1", attempts, col.AbortsBy[txn.CauseValidation])
	}
	if got := tbl.Schema.GetInt64(row.CommittedImage(), 1); got != 11 {
		t.Fatalf("row holds %d, want 11", got)
	}
}

// TestReadOfLockedRowFailsValidation: a read whose row another session
// holds locked at validation fails it even though the row's version has
// not moved — the lock is a commit in flight.
func TestReadOfLockedRowFailsValidation(t *testing.T) {
	e, tbl := newSiloDB(t, core.Config{}, 2)
	x, y := tbl.Get(0), tbl.Get(1)
	col := &stats.Collector{}
	a, b := e.NewSession(0, col), e.NewSession(1, &stats.Collector{}).(*session)
	attempts := 0
	if err := a.Run(func(tx core.Tx) error {
		attempts++
		if attempts == 2 {
			x.TID.Store(x.TID.Load() &^ lockBit) // the other commit ends
		}
		if _, err := tx.Read(x); err != nil {
			return err
		}
		if attempts == 1 {
			b.lockTID(x)
		}
		return tx.Update(y, bumpVal(tbl, 1))
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || col.AbortsBy[txn.CauseValidation] != 1 {
		t.Fatalf("%d attempts, %d validation aborts; want 2 and 1", attempts, col.AbortsBy[txn.CauseValidation])
	}
}

// TestLongAttemptCrossesIndexThreshold: a 1 000-row attempt finds its
// rows past core's walk limit — a re-read returns the image it holds, an
// update turns the row's entry into a write and a read after it sees the
// write — and commits each row as one access; a short attempt on the same
// session then finds none of the long one's rows.
func TestLongAttemptCrossesIndexThreshold(t *testing.T) {
	const n = 1000
	var last []core.AccessInfo
	e, tbl := newSiloDB(t, core.Config{OnCommit: func(_ int, _, _ uint64, accesses []core.AccessInfo, _ int) {
		last = append(last[:0], accesses...)
	}}, n)
	modes := func() (sh, ex int) {
		seen := make(map[uint64]bool, len(last))
		for _, a := range last {
			if seen[a.Key] {
				t.Fatalf("row %d appears twice in the committed access list", a.Key)
			}
			seen[a.Key] = true
			if a.Mode == lock.EX {
				ex++
			} else {
				sh++
			}
		}
		return sh, ex
	}
	sess := e.NewSession(0, &stats.Collector{})
	picks := []uint64{0, n / 2, n - 1}
	if err := sess.Run(func(tx core.Tx) error {
		imgs := make([][]byte, n)
		for k := range imgs {
			img, err := tx.Read(tbl.Get(uint64(k)))
			if err != nil {
				return err
			}
			imgs[k] = img
		}
		for _, k := range picks {
			again, err := tx.Read(tbl.Get(k))
			if err != nil {
				return err
			}
			if &again[0] != &imgs[k][0] {
				t.Errorf("re-read of row %d returned another image than the one held", k)
			}
			if err := tx.Update(tbl.Get(k), bumpVal(tbl, 1)); err != nil {
				return err
			}
			mine, err := tx.Read(tbl.Get(k))
			if err != nil {
				return err
			}
			if got := tbl.Schema.GetInt64(mine, 1); got != 1 {
				t.Errorf("read of row %d after its update saw %d, want 1", k, got)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sh, ex := modes(); sh != n-3 || ex != 3 {
		t.Fatalf("committed %d shared and %d exclusive accesses, want %d and 3", sh, ex, n-3)
	}

	if err := sess.Run(func(tx core.Tx) error {
		for k := uint64(0); k < 5; k++ {
			if _, err := tx.Read(tbl.Get(n - 1 - k)); err != nil {
				return err
			}
		}
		return tx.Update(tbl.Get(n-1), bumpVal(tbl, 1))
	}); err != nil {
		t.Fatal(err)
	}
	if sh, ex := modes(); sh != 4 || ex != 1 {
		t.Fatalf("short transaction committed %d shared and %d exclusive accesses, want 4 and 1", sh, ex)
	}
	for _, k := range picks {
		want := int64(1)
		if k == n-1 {
			want = 2
		}
		if got := tbl.Schema.GetInt64(tbl.Get(k).CommittedImage(), 1); got != want {
			t.Errorf("row %d holds %d, want %d", k, got, want)
		}
	}
}
