package core_test

import (
	"fmt"
	"testing"
	"time"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/occ"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/wal"
)

// engineCase is one engine core.RunAttempts drives, with how a plain
// body runs on it.
type engineCase struct {
	name   string
	cfg    core.Config
	engine func(db *core.DB) core.Engine
	// txn turns a body over testTable's "t" into the engine's
	// transaction: itself, or on IC3 the only piece of a template.
	txn func(core.TxnFunc) core.TxnFunc
}

func engineCases() []engineCase {
	same := func(fn core.TxnFunc) core.TxnFunc { return fn }
	return []engineCase{
		{"WOUND_WAIT", core.WoundWait(), func(db *core.DB) core.Engine {
			return core.NewLockEngine(db)
		}, same},
		{"SILO", core.Config{}, func(db *core.DB) core.Engine { return occ.New(db) }, same},
		{"IC3", core.Config{}, func(db *core.DB) core.Engine { return chop.New(db) }, onePiece},
	}
}

// onePiece runs fn on IC3 as the only piece of an analyzed template that
// may read and write table t.
func onePiece(fn core.TxnFunc) core.TxnFunc {
	tmpl := &chop.Template{Name: "body", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "t", Cols: []int{0}, Write: true}},
		Body:     func(pt *chop.PieceTx) error { return fn(pt) },
	}}}
	var reg chop.Registry
	reg.Register(tmpl)
	reg.Analyze()
	return chop.Call(tmpl, nil)
}

// value reads row key of tbl through a committed transaction of sess.
func value(t *testing.T, c engineCase, sess core.Session, tbl *storage.Table, key uint64) int64 {
	t.Helper()
	var v int64
	if err := sess.Run(c.txn(func(tx core.Tx) error {
		img, err := tx.Read(tbl.Get(key))
		v = tbl.Schema.GetInt64(img, 0)
		return err
	})); err != nil {
		t.Fatalf("%s: read back: %v", c.name, err)
	}
	return v
}

// TestWrappedUserAbortIsFinal: a body that wraps ErrUserAbort asks for a
// user abort on every engine — no error, no retry, one abort counted as
// the user's, and its write undone.
func TestWrappedUserAbortIsFinal(t *testing.T) {
	for _, c := range engineCases() {
		db := core.NewDB(c.cfg)
		tbl := testTable(db, 1)
		col := newCollector()
		sess := c.engine(db).NewSession(0, col)
		calls := 0
		err := sess.Run(c.txn(func(tx core.Tx) error {
			calls++
			if err := tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.SetInt64(img, 0, 9) }); err != nil {
				return err
			}
			return fmt.Errorf("declined: %w", core.ErrUserAbort)
		}))
		if err != nil {
			t.Errorf("%s: Run = %v, want nil", c.name, err)
			continue
		}
		if calls != 1 || col.Commits != 0 || col.Aborts != 1 || col.AbortsBy[txn.CauseUser] != 1 {
			t.Errorf("%s: %d calls, %d commits, %d aborts (%d user); want 1, 0, 1 (1)",
				c.name, calls, col.Commits, col.Aborts, col.AbortsBy[txn.CauseUser])
		}
		if v := value(t, c, sess, tbl, 0); v != 0 {
			t.Errorf("%s: user-aborted write visible: %d", c.name, v)
		}
		db.Close()
	}
}

// TestFailedInsertAfterAppendIsFatal: an insert that fails after the
// commit record is durable — here a duplicate key — ends the run with an
// error on every engine, after exactly one record under the
// transaction's id, and the attempt's other writes are released as
// committed: the next transaction sees and overwrites them.
func TestFailedInsertAfterAppendIsFatal(t *testing.T) {
	for _, c := range engineCases() {
		dev := wal.NewMemDevice(true)
		cfg := c.cfg
		cfg.LogDevice = dev
		db := core.NewDB(cfg)
		tbl := testTable(db, 2)
		sess := c.engine(db).NewSession(0, newCollector())
		var id uint64
		done := make(chan error, 1)
		go func() {
			done <- sess.Run(c.txn(func(tx core.Tx) error {
				id = tx.ID()
				if err := tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.AddInt64(img, 0, 1) }); err != nil {
					return err
				}
				return tx.Insert(tbl, 1, tbl.Schema.NewRowImage())
			}))
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: a duplicate insert committed", c.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Run still retrying a duplicate insert after 10s", c.name)
		}
		recs, err := dev.Records()
		if err != nil {
			t.Fatal(err)
		}
		logged := 0
		for _, r := range recs {
			if r.TxnID == id {
				logged++
			}
		}
		if logged != 1 {
			t.Errorf("%s: %d records under the failed transaction's id, want 1", c.name, logged)
		}
		bump := func(tx core.Tx) error {
			return tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.AddInt64(img, 0, 1) })
		}
		if err := sess.Run(c.txn(bump)); err != nil {
			t.Errorf("%s: next writer: %v", c.name, err)
		}
		if v := value(t, c, sess, tbl, 0); v != 2 {
			t.Errorf("%s: row holds %d after the failed and the next commit, want 2", c.name, v)
		}
		db.Close()
	}
}
