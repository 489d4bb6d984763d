package occ_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/occ"
	"bamboo/internal/stats"
	"bamboo/internal/verify/verifytest"
)

func newEngine(t *testing.T, cfg core.Config) *occ.Engine {
	t.Helper()
	return occ.New(core.NewDB(cfg))
}

// newVerifiedEngine is an engine whose commits, reads captured, are
// recorded in the returned history.
func newVerifiedEngine(t *testing.T) (*occ.Engine, *verifytest.History) {
	h := verifytest.NewHistory()
	return newEngine(t, core.Config{OnCommit: h.Hook}), h
}

func TestSiloSerializability(t *testing.T) {
	e, h := newVerifiedEngine(t)
	verifytest.RunSerializability(t, e, h, verifytest.DefaultOptions())
}

func TestSiloSerializabilityHighContention(t *testing.T) {
	opts := verifytest.DefaultOptions()
	opts.Rows = 2
	opts.OpsPerTxn = 2
	opts.WriteRatio = 0.8
	opts.Workers = 12
	opts.PerWorker = 200
	e, h := newVerifiedEngine(t)
	verifytest.RunSerializability(t, e, h, opts)
}

func TestSiloBankConservation(t *testing.T) {
	verifytest.RunBankConservation(t, newEngine(t, core.Config{}), 10, 8, 200)
}

func TestSiloReadOnlyNeedsNoValidationRetry(t *testing.T) {
	e := newEngine(t, core.Config{})
	tbl := verifytest.BuildDB(e.Database(), 4)
	res := core.RunN(e, 4, 100, func(worker, seq int) core.TxnFunc {
		return func(tx core.Tx) error {
			for k := uint64(0); k < 4; k++ {
				if _, err := tx.Read(tbl.Get(k)); err != nil {
					return err
				}
			}
			return nil
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Report.Aborts != 0 {
		t.Fatalf("read-only workload aborted %d times", res.Report.Aborts)
	}
}

func TestSiloUserAbort(t *testing.T) {
	e := newEngine(t, core.Config{})
	tbl := verifytest.BuildDB(e.Database(), 1)
	res := core.RunN(e, 1, 1, func(_, _ int) core.TxnFunc {
		return func(tx core.Tx) error {
			if err := tx.Update(tbl.Get(0), func(img []byte) {
				tbl.Schema.SetInt64(img, 0, 1)
			}); err != nil {
				return err
			}
			return core.ErrUserAbort
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Report.Commits != 0 || res.Report.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d, want 0/1", res.Report.Commits, res.Report.Aborts)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0); got != 0 {
		t.Fatalf("aborted write visible: %d", got)
	}
}

func TestSiloInsert(t *testing.T) {
	e := newEngine(t, core.Config{})
	tbl := verifytest.BuildDB(e.Database(), 1)
	sess := e.NewSession(0, newCollector())
	img := tbl.Schema.NewRowImage()
	tbl.Schema.SetInt64(img, 1, 7)
	if err := sess.Run(func(tx core.Tx) error { return tx.Insert(tbl, 50, img) }); err != nil {
		t.Fatal(err)
	}
	row := tbl.Get(50)
	if row == nil {
		t.Fatal("insert not visible")
	}
	sess2 := e.NewSession(1, newCollector())
	if err := sess2.Run(func(tx core.Tx) error {
		got, err := tx.Read(row)
		if err != nil {
			return err
		}
		if v := tbl.Schema.GetInt64(got, 1); v != 7 {
			t.Errorf("read inserted value %d, want 7", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSiloUpgradeReadToWrite(t *testing.T) {
	// Read-then-update of the same row is one access: the update turns
	// the read's entry into a write, whose read tid is validated under
	// the write lock.
	e := newEngine(t, core.Config{})
	tbl := verifytest.BuildDB(e.Database(), 1)
	sess := e.NewSession(0, newCollector())
	if err := sess.Run(func(tx core.Tx) error {
		if _, err := tx.Read(tbl.Get(0)); err != nil {
			return err
		}
		return tx.Update(tbl.Get(0), func(img []byte) {
			tbl.Schema.SetInt64(img, 1, 5)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 1); got != 0 {
		// Silo publishes on the version chain, not in Entry.Data.
		t.Fatalf("entry image unexpectedly mutated: %d", got)
	}
	if v := tbl.Get(0).Versions.Head(); v == nil || tbl.Schema.GetInt64(v.Image(), 1) != 5 {
		t.Fatal("Silo image not installed on the version chain")
	}
}

// TestSiloTIDFollowsObserved: a commit's TID is one past the newest TID
// its entries saw, so a fresh row's first write stamps 1 and its second
// 2, and a row a commit inserts keeps TID 0 until its own first write.
func TestSiloTIDFollowsObserved(t *testing.T) {
	e := newEngine(t, core.Config{})
	tbl := verifytest.BuildDB(e.Database(), 1)
	sess := e.NewSession(0, newCollector())
	bump := func(k uint64) core.TxnFunc {
		return func(tx core.Tx) error {
			return tx.Update(tbl.Get(k), func(img []byte) { tbl.Schema.AddInt64(img, 1, 1) })
		}
	}
	for want := uint64(1); want <= 2; want++ {
		if err := sess.Run(bump(0)); err != nil {
			t.Fatal(err)
		}
		if got := tbl.Get(0).TID.Load(); got != want {
			t.Fatalf("TID after write %d of a fresh row: %d", want, got)
		}
	}
	if err := sess.Run(func(tx core.Tx) error {
		return tx.Insert(tbl, 1, tbl.Schema.NewRowImage())
	}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Get(1).TID.Load(); got != 0 {
		t.Fatalf("inserted row's TID: %d, want 0", got)
	}
	if err := sess.Run(bump(1)); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Get(1).TID.Load(); got != 1 {
		t.Fatalf("TID after the inserted row's first write: %d, want 1", got)
	}
}

// TestSiloPublishesOnVersionChain pins where Silo publishes: concurrent
// writers of one hot row install on its version chain, which never grows
// past two versions (readers read only the head), and once they stop the
// head carries the row's TID word as its timestamp and is the row's
// committed image.
func TestSiloPublishesOnVersionChain(t *testing.T) {
	const workers, perWorker = 4, 200
	e := newEngine(t, core.Config{})
	tbl := verifytest.BuildDB(e.Database(), 1)
	row := tbl.Get(0)
	stop := make(chan struct{})
	longest := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				longest <- n
				return
			default:
				n = max(n, row.Versions.Len())
				runtime.Gosched()
			}
		}
	}()
	res := core.RunN(e, workers, perWorker, func(_, _ int) core.TxnFunc {
		return func(tx core.Tx) error {
			return tx.Update(row, func(img []byte) { tbl.Schema.AddInt64(img, 1, 1) })
		}
	})
	close(stop)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if n := <-longest; n > 2 {
		t.Fatalf("version chain reached %d versions under concurrent writers, want at most 2", n)
	}
	if n := row.Versions.Len(); n < 1 || n > 2 {
		t.Fatalf("version chain holds %d versions, want 1 or 2", n)
	}
	head := row.Versions.Head()
	if tid := row.TID.Load(); head.TS() != tid {
		t.Fatalf("head timestamp %d, TID word %d", head.TS(), tid)
	}
	if img := row.CommittedImage(); &img[0] != &head.Image()[0] {
		t.Fatal("CommittedImage is not the version chain's head image")
	}
	if got := tbl.Schema.GetInt64(head.Image(), 1); got != workers*perWorker {
		t.Fatalf("hot row holds %d after %d commits", got, workers*perWorker)
	}
}

// failDevice is a log device whose every append fails.
type failDevice struct{ err error }

func (d failDevice) Append([]byte) (uint64, error) { return 0, d.err }

// TestSiloLogFailureIsFatal: a failed log append is not a validation
// failure to retry — on a device that keeps failing the retries would
// never end — so Run returns the device's error, records no abort, and
// leaves the row as it was.
func TestSiloLogFailureIsFatal(t *testing.T) {
	errDevice := errors.New("device full")
	e := newEngine(t, core.Config{LogDevice: failDevice{errDevice}})
	tbl := verifytest.BuildDB(e.Database(), 1)
	col := newCollector()
	sess := e.NewSession(0, col)
	done := make(chan error, 1)
	go func() {
		done <- sess.Run(func(tx core.Tx) error {
			return tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.AddInt64(img, 1, 1) })
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errDevice) {
			t.Fatalf("Run = %v, want an error wrapping the device's", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run still retrying 2s after its log device started failing")
	}
	if col.Aborts != 0 {
		t.Fatalf("%d aborts recorded for a failed append, want 0", col.Aborts)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).CommittedImage(), 1); got != 0 {
		t.Fatalf("unlogged write installed: val = %d", got)
	}
}

func newCollector() *stats.Collector { return &stats.Collector{} }

// TestNewRefusesUnsupportedSettings: Silo takes no checkpoint gate and
// stamps its versions with TIDs, not snapshot timestamps, so New panics,
// naming the setting, on a DB configured with Checkpoint or MVCC instead
// of running it wrong.
func TestNewRefusesUnsupportedSettings(t *testing.T) {
	for name, mk := range map[string]func(dir string) core.Config{
		"Checkpoint": func(dir string) core.Config {
			return core.Config{WALDir: filepath.Join(dir, "wal"),
				Checkpoint: core.CheckpointConfig{Dir: filepath.Join(dir, "ckpt")}}
		},
		"MVCC": func(string) core.Config { return core.Config{MVCC: true} },
	} {
		t.Run(name, func(t *testing.T) {
			db := core.NewDB(mk(t.TempDir()))
			defer db.Close()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("New accepted Config.%s", name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "Config."+name) {
					t.Fatalf("panic %q does not name Config.%s", msg, name)
				}
			}()
			occ.New(db)
		})
	}
}
