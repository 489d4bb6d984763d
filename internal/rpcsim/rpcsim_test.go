package rpcsim_test

import (
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/rpcsim"
	"bamboo/internal/verify/verifytest"
)

func TestInteractiveSerializability(t *testing.T) {
	h := verifytest.NewHistory()
	cfg := core.Bamboo()
	cfg.OnCommit = h.Hook
	db := core.NewDB(cfg)
	e := rpcsim.New(core.NewLockEngine(db), rpcsim.Config{RTT: time.Microsecond})
	opts := verifytest.DefaultOptions()
	opts.PerWorker = 60
	verifytest.RunSerializability(t, e, h, opts)
}

func TestInteractiveBankConservation(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	e := rpcsim.New(core.NewLockEngine(db), rpcsim.Config{RTT: time.Microsecond})
	verifytest.RunBankConservation(t, e, 10, 8, 60)
}

func TestLatencyIsCharged(t *testing.T) {
	db := core.NewDB(core.WoundWait())
	tbl := verifytest.BuildDB(db, 4)
	rtt := 200 * time.Microsecond
	e := rpcsim.New(core.NewLockEngine(db), rpcsim.Config{RTT: rtt})

	const txns = 50
	start := time.Now()
	res := core.RunN(e, 1, txns, func(_, _ int) core.TxnFunc {
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
	elapsed := time.Since(start)
	// 4 reads + begin + commit = 6 round trips per transaction.
	min := time.Duration(txns) * 6 * rtt
	if elapsed < min {
		t.Fatalf("elapsed %v < minimum %v implied by per-op latency", elapsed, min)
	}
	if got := e.Name(); got != "WOUND_WAIT/interactive" {
		t.Fatalf("name = %q", got)
	}
}

func TestInteractiveRetiresEveryWrite(t *testing.T) {
	// DeclareOps is swallowed, so δ-holdback cannot apply and every write
	// retires — observable as dirty reads flowing even for writes near
	// the end of a transaction. A smoke check: two-op RMW transactions on
	// one row still conserve the counter.
	db := core.NewDB(core.Bamboo())
	e := rpcsim.New(core.NewLockEngine(db), rpcsim.Config{RTT: time.Microsecond})
	verifytest.RunBankConservation(t, e, 2, 6, 50)
}
