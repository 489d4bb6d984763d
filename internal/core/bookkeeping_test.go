package core_test

import (
	"sync"
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/lock"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/wal"
)

// hookedDB is a lock-engine DB whose commit hook keeps the access list of
// the last committed transaction.
type hookedDB struct {
	db   *core.DB
	tbl  *storage.Table
	last []core.AccessInfo
}

func newHookedDB(t *testing.T, cfg core.Config, rows int) *hookedDB {
	h := &hookedDB{}
	cfg.OnCommit = func(_ int, _, _ uint64, accesses []core.AccessInfo, _ int) {
		h.last = append(h.last[:0], accesses...)
	}
	h.db = core.NewDB(cfg)
	t.Cleanup(func() { h.db.Close() })
	h.tbl = testTable(h.db, rows)
	return h
}

// modes counts the last commit's shared and exclusive accesses, and fails
// the test if it accessed a row twice.
func (h *hookedDB) modes(t *testing.T) (sh, ex int) {
	t.Helper()
	seen := make(map[uint64]bool, len(h.last))
	for _, a := range h.last {
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

func bumpRow(tbl *storage.Table) func([]byte) {
	return func(img []byte) { tbl.Schema.AddInt64(img, 0, 1) }
}

// TestRepeatedReadReturnsHeldImage: a second Read of a row the attempt
// holds returns the image it already holds — the same buffer — and adds
// no access.
func TestRepeatedReadReturnsHeldImage(t *testing.T) {
	h := newHookedDB(t, core.Bamboo(), 4)
	sess := core.NewLockEngine(h.db).NewSession(0, newCollector())
	if err := sess.Run(func(tx core.Tx) error {
		first, err := tx.Read(h.tbl.Get(1))
		if err != nil {
			return err
		}
		if _, err := tx.Read(h.tbl.Get(2)); err != nil {
			return err
		}
		again, err := tx.Read(h.tbl.Get(1))
		if err != nil {
			return err
		}
		if &again[0] != &first[0] {
			t.Error("the repeated Read returned another image than the one held")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sh, ex := h.modes(t); sh != 2 || ex != 0 {
		t.Fatalf("committed %d shared and %d exclusive accesses, want 2 and 0", sh, ex)
	}
}

// TestReadThenUpdateUpgradesInPlace: an Update of a row the attempt read
// promotes that access: one upgrade counted, and the access list keeps
// its length, the row now exclusive.
func TestReadThenUpdateUpgradesInPlace(t *testing.T) {
	h := newHookedDB(t, core.Bamboo(), 4)
	col := newCollector()
	sess := core.NewLockEngine(h.db).NewSession(0, col)
	if err := sess.Run(func(tx core.Tx) error {
		if _, err := tx.Read(h.tbl.Get(0)); err != nil {
			return err
		}
		if _, err := tx.Read(h.tbl.Get(3)); err != nil {
			return err
		}
		return tx.Update(h.tbl.Get(0), bumpRow(h.tbl))
	}); err != nil {
		t.Fatal(err)
	}
	if got := col.Counts[stats.Upgrades]; got != 1 {
		t.Fatalf("%d upgrades, want 1", got)
	}
	if sh, ex := h.modes(t); sh != 1 || ex != 1 {
		t.Fatalf("committed %d shared and %d exclusive accesses, want 1 and 1", sh, ex)
	}
}

// TestRetryFindsNoPreviousAttemptRow: an attempt's rows are gone when it
// retries. The first attempt reads n rows and aborts; the retry reads n
// other rows and then updates three of the first attempt's, which must be
// fresh exclusive grants, not upgrades of accesses that no longer exist.
// n runs on both sides of the walk-to-index threshold, and the second
// case also re-reads rows of the retry's own.
func TestRetryFindsNoPreviousAttemptRow(t *testing.T) {
	for _, n := range []int{4, core.WalkMax - 1, core.WalkMax, core.WalkMax + 1, 3 * core.WalkMax, 300} {
		h := newHookedDB(t, core.Bamboo(), 2*n)
		col := newCollector()
		sess := core.NewLockEngine(h.db).NewSession(0, col)
		attempt := 0
		err := sess.Run(func(tx core.Tx) error {
			attempt++
			base := 0
			if attempt > 1 {
				base = n
			}
			for k := 0; k < n; k++ {
				if _, err := tx.Read(h.tbl.Get(uint64(base + k))); err != nil {
					return err
				}
			}
			if attempt == 1 {
				return core.Abort(txn.CauseWound)
			}
			for _, k := range []int{0, n / 2, n - 1} {
				if err := tx.Update(h.tbl.Get(uint64(k)), bumpRow(h.tbl)); err != nil {
					return err
				}
				if _, err := tx.Read(h.tbl.Get(uint64(n + k))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if attempt != 2 {
			t.Fatalf("n=%d: %d attempts, want 2", n, attempt)
		}
		if got := col.Counts[stats.Upgrades]; got != 0 {
			t.Fatalf("n=%d: the retry upgraded %d rows it never read", n, got)
		}
		wantEX := 3
		if n < 3 {
			wantEX = n
		}
		if sh, ex := h.modes(t); sh != n || ex != wantEX {
			t.Fatalf("n=%d: committed %d shared and %d exclusive accesses, want %d and %d", n, sh, ex, n, wantEX)
		}
	}
}

// TestLongAttemptCrossesIndexThreshold runs one transaction far past the
// walk-to-index threshold — 1 000 distinct reads, then a re-read and an
// Update of the first, middle and last rows — and then a short one on the
// same session, which walks again.
func TestLongAttemptCrossesIndexThreshold(t *testing.T) {
	const n = 1000
	h := newHookedDB(t, core.Bamboo(), n)
	col := newCollector()
	sess := core.NewLockEngine(h.db).NewSession(0, col)
	picks := []int{0, n / 2, n - 1}
	if err := sess.Run(func(tx core.Tx) error {
		imgs := make([][]byte, n)
		for k := 0; k < n; k++ {
			img, err := tx.Read(h.tbl.Get(uint64(k)))
			if err != nil {
				return err
			}
			imgs[k] = img
		}
		for _, k := range picks {
			again, err := tx.Read(h.tbl.Get(uint64(k)))
			if err != nil {
				return err
			}
			if &again[0] != &imgs[k][0] {
				t.Errorf("re-read of row %d returned another image than the one held", k)
			}
			if err := tx.Update(h.tbl.Get(uint64(k)), bumpRow(h.tbl)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := col.Counts[stats.Upgrades]; got != 3 {
		t.Fatalf("%d upgrades, want 3", got)
	}
	if sh, ex := h.modes(t); sh != n-3 || ex != 3 {
		t.Fatalf("committed %d shared and %d exclusive accesses, want %d and 3", sh, ex, n-3)
	}

	if err := sess.Run(func(tx core.Tx) error {
		for k := 0; k < 5; k++ {
			if _, err := tx.Read(h.tbl.Get(uint64(n - 1 - k))); err != nil {
				return err
			}
		}
		if _, err := tx.Read(h.tbl.Get(n - 1)); err != nil {
			return err
		}
		return tx.Update(h.tbl.Get(n-1), bumpRow(h.tbl))
	}); err != nil {
		t.Fatal(err)
	}
	if got := col.Counts[stats.Upgrades]; got != 4 {
		t.Fatalf("%d upgrades after the short transaction, want 4", got)
	}
	if sh, ex := h.modes(t); sh != 4 || ex != 1 {
		t.Fatalf("short transaction committed %d shared and %d exclusive accesses, want 4 and 1", sh, ex)
	}
	for _, k := range picks {
		want := int64(1)
		if k == n-1 {
			want = 2
		}
		if got := h.tbl.Schema.GetInt64(h.tbl.Get(uint64(k)).CommittedImage(), 0); got != want {
			t.Errorf("row %d holds %d, want %d", k, got, want)
		}
	}
}

// TestTxnIDsUniqueAcrossSessions: N sessions of each engine commit
// concurrently, each past several id blocks. Every committed id reaches
// the commit hook exactly once, and the log holds at most one record of
// any id, each of a committed transaction.
func TestTxnIDsUniqueAcrossSessions(t *testing.T) {
	const sessions = 4
	perSession := 3*core.TxnIDBlock + 10
	if testing.Short() {
		perSession = core.TxnIDBlock + 10
	}
	for _, c := range engineCases() {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			hooked := make(map[uint64]int)
			cfg := c.cfg
			cfg.OnCommit = func(_ int, id, _ uint64, _ []core.AccessInfo, _ int) {
				mu.Lock()
				hooked[id]++
				mu.Unlock()
			}
			dev := wal.NewMemDevice(true)
			cfg.LogDevice = dev
			db := core.NewDB(cfg)
			defer db.Close()
			tbl := testTable(db, 64)
			eng := c.engine(db)
			var wg sync.WaitGroup
			errs := make(chan error, sessions)
			for w := 0; w < sessions; w++ {
				sess := eng.NewSession(w, newCollector())
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perSession; i++ {
						row := tbl.Get(uint64(w*16 + i%16))
						if err := sess.Run(c.txn(func(tx core.Tx) error {
							return tx.Update(row, bumpRow(tbl))
						})); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if len(hooked) != sessions*perSession {
				t.Fatalf("%d distinct committed ids, want %d", len(hooked), sessions*perSession)
			}
			for id, n := range hooked {
				if n != 1 {
					t.Fatalf("id %d reached the commit hook %d times", id, n)
				}
			}
			recs, err := dev.Records()
			if err != nil {
				t.Fatal(err)
			}
			logged := make(map[uint64]bool, len(recs))
			for _, r := range recs {
				if logged[r.TxnID] {
					t.Fatalf("the log holds two records of txn %d", r.TxnID)
				}
				logged[r.TxnID] = true
				if hooked[r.TxnID] != 1 {
					t.Fatalf("the log holds a record of txn %d, which never committed", r.TxnID)
				}
			}
			if len(logged) != sessions*perSession {
				t.Fatalf("the log holds %d transactions, want %d", len(logged), sessions*perSession)
			}
		})
	}
}

// TestTxnIDsReservedPerBlock: a session takes its ids from the DB a block
// at a time — one reservation per TxnIDBlock transactions — and two
// sessions draw from disjoint blocks.
func TestTxnIDsReservedPerBlock(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	defer db.Close()
	tbl := testTable(db, 1)
	eng := core.NewLockEngine(db)
	a, b := eng.NewSession(0, newCollector()), eng.NewSession(1, newCollector())
	read := func(ids *[]uint64) core.TxnFunc {
		return func(tx core.Tx) error {
			*ids = append(*ids, tx.ID())
			_, err := tx.Read(tbl.Get(0))
			return err
		}
	}
	var idsA, idsB []uint64
	for i := 0; i < 2*core.TxnIDBlock+1; i++ {
		if err := a.Run(read(&idsA)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := b.Run(read(&idsB)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// a reserved blocks 1, 3 and 4; b block 2.
	if got, want := core.TxnIDsReserved(db), uint64(4*core.TxnIDBlock); got != want {
		t.Fatalf("the DB handed out %d ids for %d transactions, want %d (4 blocks)",
			got, len(idsA)+len(idsB), want)
	}
	seen := make(map[uint64]bool)
	for _, id := range append(idsA, idsB...) {
		if id == 0 || seen[id] {
			t.Fatalf("id %d drawn twice or zero", id)
		}
		seen[id] = true
	}
	if idsB[0] != core.TxnIDBlock+1 {
		t.Fatalf("second session's first id is %d, want %d", idsB[0], core.TxnIDBlock+1)
	}
}

// TestPartitionTelemetryGuard: a DB with one partition and no metrics
// keeps no per-partition counts at all; a two-partition DB counts every
// row access, shared or exclusive, and every conflict, at an acquire or
// at an upgrade.
func TestPartitionTelemetryGuard(t *testing.T) {
	t.Run("P=1", func(t *testing.T) {
		cfg := core.NoWait()
		cfg.Partitions = 1
		db := core.NewDB(cfg)
		defer db.Close()
		tbl := testTable(db, 8)
		sess := core.NewLockEngine(db).NewSession(0, newCollector())
		for i := 0; i < 10; i++ {
			if err := sess.Run(func(tx core.Tx) error {
				if _, err := tx.Read(tbl.Get(uint64(i % 8))); err != nil {
					return err
				}
				return tx.Update(tbl.Get(uint64((i+1)%8)), bumpRow(tbl))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if a, c := db.Global.PartitionAccesses(), db.Global.PartitionConflicts(); a != nil || c != nil {
			t.Fatalf("per-partition accesses %v, conflicts %v; want nil and nil", a, c)
		}
	})

	t.Run("P=2", func(t *testing.T) {
		cfg := core.NoWait()
		cfg.Partitions = 2
		db := core.NewDB(cfg)
		defer db.Close()
		schema := storage.NewSchema("t", storage.Column{Name: "v", Type: storage.ColInt64})
		tbl := db.Catalog.MustCreateTablePartitioned(schema, 8, storage.HashPartitioner{N: 2})
		for k := uint64(0); k < 8; k++ {
			tbl.MustInsertRow(k, nil)
		}
		eng := core.NewLockEngine(db)
		want := make([]uint64, 2)
		perPart := func(k uint64) int { return tbl.Get(k).PartitionID }

		// Every row once per transaction, half of them written.
		sess := eng.NewSession(0, newCollector())
		for i := 0; i < 10; i++ {
			if err := sess.Run(func(tx core.Tx) error {
				for k := uint64(0); k < 8; k++ {
					if k%2 == 0 {
						if err := tx.Update(tbl.Get(k), bumpRow(tbl)); err != nil {
							return err
						}
						continue
					}
					if _, err := tx.Read(tbl.Get(k)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 8; k++ {
				want[perPart(k)]++
			}
		}
		if got := db.Global.PartitionAccesses(); got[0] != want[0] || got[1] != want[1] || want[0] == 0 || want[1] == 0 {
			t.Fatalf("per-partition accesses %v, want %v (both nonzero)", got, want)
		}
		if got := db.Global.PartitionConflicts(); got[0] != 0 || got[1] != 0 {
			t.Fatalf("per-partition conflicts %v without a conflict", got)
		}

		// A holder keeps row r exclusive (conflicts at acquire) or shared
		// (conflicts at upgrade) until another session has failed on it at
		// least once; that session retries until it gets through.
		for _, upgrade := range []bool{false, true} {
			r := uint64(3)
			if upgrade {
				r = 4
			}
			before := db.Global.PartitionConflicts()[perPart(r)]
			holding, release := make(chan struct{}), make(chan struct{})
			holder := eng.NewSession(1, newCollector())
			done := make(chan error, 2)
			go func() {
				done <- holder.Run(func(tx core.Tx) error {
					var err error
					if upgrade {
						_, err = tx.Read(tbl.Get(r))
					} else {
						err = tx.Update(tbl.Get(r), bumpRow(tbl))
					}
					if err != nil {
						return err
					}
					close(holding)
					<-release
					return nil
				})
			}()
			<-holding
			col := newCollector()
			other := eng.NewSession(2, col)
			go func() {
				done <- other.Run(func(tx core.Tx) error {
					if _, err := tx.Read(tbl.Get(r)); err != nil || !upgrade {
						return err
					}
					return tx.Update(tbl.Get(r), bumpRow(tbl))
				})
			}()
			deadline := time.Now().Add(10 * time.Second)
			for db.Global.PartitionConflicts()[perPart(r)] == before {
				if time.Now().After(deadline) {
					t.Fatal("no conflict recorded in 10s")
				}
				time.Sleep(100 * time.Microsecond)
			}
			close(release)
			for i := 0; i < 2; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			// The holder accessed r once; the other session once per
			// attempt, and every attempt but its last conflicted.
			attempts := col.Aborts + 1
			want[perPart(r)] += 1 + attempts
			if got := db.Global.PartitionAccesses(); got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("upgrade=%v: per-partition accesses %v, want %v", upgrade, got, want)
			}
			if got := db.Global.PartitionConflicts()[perPart(r)] - before; got != col.Aborts {
				t.Fatalf("upgrade=%v: %d conflicts recorded, want %d (one per aborted attempt)", upgrade, got, col.Aborts)
			}
		}
	})
}
