package tpcc_test

import (
	"testing"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/workload/tpcc"
)

// TestIC3PaymentMoneyFlow runs Payments only: every committed amount
// must land in W_YTD, a D_YTD, a history row and a customer's balance
// alike (CheckConsistency's money-flow conditions).
func TestIC3PaymentMoneyFlow(t *testing.T) {
	cfg := testConfig(1)
	cfg.PaymentFraction = 1.0
	db := core.NewDB(core.Config{})
	w, err := tpcc.Load(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runMix(t, chop.New(db), w, w.IC3Generator(), 8, 150)
}
