package core

import (
	"testing"
	"time"

	"bamboo/internal/stats"
	"bamboo/internal/storage"
)

// TestClockReadsIndependentOfOps pins the fast path's clock discipline: an
// uncontended committed transaction reads the executor's clock the same
// number of times whether it makes 1 operation or 16 — reads, writes and
// read-then-write upgrades alike. The count goes through the package's
// clock variable; the lock manager's own clock has the matching test
// (lock.TestClockReadOnlyWhenBlocked), and the timestamp allocator reads
// the time once per transaction at most, never per operation.
func TestClockReadsIndependentOfOps(t *testing.T) {
	reads := 0
	real := now
	now = func() time.Duration { reads++; return real() }
	defer func() { now = real }()

	for name, cfg := range map[string]Config{"BAMBOO": Bamboo(), "WOUND_WAIT": WoundWait()} {
		db := NewDB(cfg)
		tbl := db.Catalog.MustCreateTable(storage.NewSchema("t",
			storage.Column{Name: "v", Type: storage.ColInt64}), 64)
		rows := make([]*storage.Row, 64)
		for k := range rows {
			rows[k] = tbl.MustInsertRow(uint64(k), nil)
		}
		sess := NewLockEngine(db).NewSession(0, &stats.Collector{})
		next := 0
		perTxn := func(ops int) int {
			fn := func(tx Tx) error {
				for i := 0; i < ops; i++ {
					row := rows[(next+i)%len(rows)]
					switch i % 3 {
					case 0:
						if _, err := tx.Read(row); err != nil {
							return err
						}
					case 1:
						if err := tx.Update(row, func([]byte) {}); err != nil {
							return err
						}
					case 2: // read, then upgrade
						if _, err := tx.Read(row); err != nil {
							return err
						}
						if err := tx.Update(row, func([]byte) {}); err != nil {
							return err
						}
					}
				}
				return nil
			}
			const txns = 10
			reads = 0
			for i := 0; i < txns; i++ {
				next += ops
				if err := sess.Run(fn); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if reads%txns != 0 {
				t.Fatalf("%s: %d clock reads over %d identical transactions", name, reads, txns)
			}
			return reads / txns
		}
		one, sixteen := perTxn(1), perTxn(16)
		if one != sixteen {
			t.Errorf("%s: %d clock reads per 1-op transaction, %d per 16-op transaction", name, one, sixteen)
		}
		if one == 0 {
			t.Errorf("%s: no clock read counted: the seam is not on Run's path", name)
		}
		db.Close()
	}
}
