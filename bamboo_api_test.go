package bamboo_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bamboo"
)

func openWithTable(t *testing.T, opts bamboo.Options) (*bamboo.DB, *bamboo.Table) {
	t.Helper()
	db := bamboo.Open(opts)
	t.Cleanup(db.Close)
	schema := bamboo.NewSchema("kv",
		bamboo.Column{Name: "v", Type: bamboo.ColInt64})
	tbl := db.CreateTable(schema)
	for k := uint64(0); k < 8; k++ {
		if _, err := tbl.InsertRow(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

func TestOpenAllProtocols(t *testing.T) {
	protos := []bamboo.Protocol{
		bamboo.Bamboo, bamboo.BambooBase, bamboo.WoundWait,
		bamboo.WaitDie, bamboo.NoWait, bamboo.Silo,
	}
	for _, p := range protos {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			db, tbl := openWithTable(t, bamboo.Options{Protocol: p})
			if got := db.Protocol(); got != p.String() {
				t.Fatalf("Protocol() = %q, want %q", got, p.String())
			}
			rep, err := db.Run(4, 100, func(worker, seq int) bamboo.TxnFunc {
				return func(tx bamboo.Tx) error {
					return tx.Update(tbl.Get(uint64(seq%8)), func(img []byte) {
						tbl.Schema.AddInt64(img, 0, 1)
					})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Commits != 400 {
				t.Fatalf("commits = %d", rep.Commits)
			}
			var total int64
			for k := uint64(0); k < 8; k++ {
				total += tbl.Schema.GetInt64(tbl.Get(k).CommittedImage(), 0)
			}
			if total != 400 {
				t.Fatalf("total = %d (lost updates)", total)
			}
		})
	}
}

func TestExecuteAndSession(t *testing.T) {
	db, tbl := openWithTable(t, bamboo.Options{Protocol: bamboo.Bamboo})
	if err := db.Execute(0, func(tx bamboo.Tx) error {
		return tx.Update(tbl.Get(0), func(img []byte) {
			tbl.Schema.SetInt64(img, 0, 7)
		})
	}); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession(1)
	if err := sess.Run(func(tx bamboo.Tx) error {
		img, err := tx.Read(tbl.Get(0))
		if err != nil {
			return err
		}
		if got := tbl.Schema.GetInt64(img, 0); got != 7 {
			t.Errorf("read %d, want 7", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Commits != 1 {
		t.Fatalf("session commits = %d", st.Commits)
	}
}

// TestExecuteKeepsPollGate: Execute opens a session per call, each for
// the caller's worker, and calls on one worker leave the DB's waits
// polling (core.DB.NewWaiter), on the lock engine and on Silo; a session
// for a worker past GOMAXPROCS stops them.
func TestExecuteKeepsPollGate(t *testing.T) {
	for _, p := range []bamboo.Protocol{bamboo.Bamboo, bamboo.Silo} {
		t.Run(p.String(), func(t *testing.T) {
			db, tbl := openWithTable(t, bamboo.Options{Protocol: p})
			polls := func() bool { return db.Internal().NewWaiter(0).Polls() }
			for range 100 {
				if err := db.Execute(0, func(tx bamboo.Tx) error {
					_, err := tx.Read(tbl.Get(0))
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			if !polls() {
				t.Fatal("100 Execute calls on worker 0 stopped the waits polling")
			}
			db.NewSession(runtime.GOMAXPROCS(0))
			if polls() {
				t.Fatalf("waits still poll with a session for worker %d", runtime.GOMAXPROCS(0))
			}
		})
	}
}

func TestUserAbortPublicAPI(t *testing.T) {
	db, tbl := openWithTable(t, bamboo.Options{Protocol: bamboo.Bamboo})
	if err := db.Execute(0, func(tx bamboo.Tx) error {
		if err := tx.Update(tbl.Get(0), func(img []byte) {
			tbl.Schema.SetInt64(img, 0, 99)
		}); err != nil {
			return err
		}
		return bamboo.ErrUserAbort
	}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).Entry.CurrentData(), 0); got != 0 {
		t.Fatalf("value = %d after user abort", got)
	}
}

func TestInteractiveOption(t *testing.T) {
	db, tbl := openWithTable(t, bamboo.Options{
		Protocol: bamboo.Bamboo, InteractiveRTT: time.Microsecond,
	})
	if got := db.Protocol(); got != "BAMBOO/interactive" {
		t.Fatalf("protocol = %q", got)
	}
	rep, err := db.RunFor(2, 20*time.Millisecond, func(worker, seq int) bamboo.TxnFunc {
		return func(tx bamboo.Tx) error {
			_, err := tx.Read(tbl.Get(0))
			return err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Commits == 0 {
		t.Fatal("no commits in interactive mode")
	}
}

// TestOpenRejectsProtocolFields: the five fields Options.Protocol decides
// cannot also be set through the embedded Config — Open panics rather
// than let either value silently win.
func TestOpenRejectsProtocolFields(t *testing.T) {
	for name, set := range map[string]func(*bamboo.Options){
		"Variant":     func(o *bamboo.Options) { o.Variant = bamboo.LockVariant(1) },
		"RetireReads": func(o *bamboo.Options) { o.RetireReads = true },
		"NoWoundRead": func(o *bamboo.Options) { o.NoWoundRead = true },
		"DynamicTS":   func(o *bamboo.Options) { o.DynamicTS = true },
		"Delta":       func(o *bamboo.Options) { o.Delta = 0.3 },
	} {
		t.Run(name, func(t *testing.T) {
			opts := bamboo.Options{Protocol: bamboo.WoundWait}
			set(&opts)
			defer func() {
				if recover() == nil {
					t.Fatalf("Open accepted Options with %s set", name)
				}
			}()
			bamboo.Open(opts).Close()
		})
	}
}

// TestOpenSiloRefusesMVCC: Silo's version chains hold TID-stamped images,
// not snapshot versions, so Open panics on Silo with MVCC, naming the
// setting, instead of silently running Silo without it.
func TestOpenSiloRefusesMVCC(t *testing.T) {
	opts := bamboo.Options{Protocol: bamboo.Silo}
	opts.MVCC = true
	openRefused(t, opts, "Config.MVCC")
}

// TestOpenSiloRefusesCheckpoint: Silo's commits are not checkpoint-safe,
// so Open panics on Silo with Checkpoint, naming the setting. Under
// FsyncBatch each WAL device runs a syncer goroutine, so a DB built
// before the refusal would show.
func TestOpenSiloRefusesCheckpoint(t *testing.T) {
	opts := bamboo.Options{Protocol: bamboo.Silo}
	opts.WALDir = t.TempDir()
	opts.WALFsync = bamboo.FsyncBatch
	opts.Checkpoint.Dir = t.TempDir()
	openRefused(t, opts, "Config.Checkpoint")
}

// openRefused asserts that Open(opts) panics naming setting, and that the
// refusal leaves nothing running: Open has no DB to return, so nobody
// could close what it started (an MVCC pruner, a WAL syncer).
func openRefused(t *testing.T, opts bamboo.Options, setting string) {
	t.Helper()
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("Open accepted Silo with %s", setting)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, setting) {
				t.Fatalf("panic %q does not name %s", msg, setting)
			}
		}()
		bamboo.Open(opts).Close()
	}()
	// Goroutines of earlier tests may still be ending; the count must
	// come back to where it was, not merely stop growing.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the refused Open, %d before", runtime.NumGoroutine(), before)
		}
	}
}
