package tpcc

import (
	"fmt"

	"bamboo/internal/storage"
)

// CheckConsistency verifies the TPC-C consistency conditions the workload
// can violate only through concurrency bugs:
//
//  1. per warehouse, ΔW_YTD = Σ districts ΔD_YTD (Payment writes both);
//  2. Σ ΔW_YTD = Σ H_AMOUNT (every Payment inserts one history row);
//  3. Σ ΔC_YTD_PAYMENT = Σ H_AMOUNT and ΔC_BALANCE = -ΔC_YTD_PAYMENT;
//  4. per district, D_NEXT_O_ID - 3001 = #orders = #new_order rows;
//  5. per order, its OL_CNT order lines exist with matching ids;
//  6. Σ stock S_YTD = Σ order-line quantities, and S_ORDER_CNT sums to
//     the number of order lines.
func (w *Workload) CheckConsistency() error {
	const initialWYTD = 30000000
	const initialDYTD = 3000000

	// 1 & 2: warehouse vs district vs history money flows.
	var totalWDelta int64
	for wid := int64(0); wid < int64(w.cfg.Warehouses); wid++ {
		ws := w.Warehouse.Schema
		wDelta := ws.GetInt64(w.Warehouse.Get(uint64(wid)).CommittedImage(), w.wc.YTD) - initialWYTD
		var dDelta int64
		for did := int64(0); did < distPerWarehouse; did++ {
			ds := w.District.Schema
			dDelta += ds.GetInt64(w.District.Get(districtKey(wid, did)).CommittedImage(), w.dc.YTD) - initialDYTD
		}
		if wDelta != dDelta {
			return fmt.Errorf("tpcc: warehouse %d ΔW_YTD=%d != ΣΔD_YTD=%d", wid, wDelta, dDelta)
		}
		totalWDelta += wDelta
	}
	var histTotal int64
	var histRows int64
	hs := w.HistoryTbl.Schema
	w.HistoryTbl.Range(func(_ uint64, r *storage.Row) bool {
		histTotal += hs.GetInt64(r.CommittedImage(), w.hc.Amount)
		histRows++
		return true
	})
	if histTotal != totalWDelta {
		return fmt.Errorf("tpcc: Σ H_AMOUNT=%d != ΣΔW_YTD=%d over %d history rows",
			histTotal, totalWDelta, histRows)
	}

	// 3: customer money flows.
	var cYTD, cBal int64
	cs := w.Customer.Schema
	var customers int64
	w.Customer.Range(func(_ uint64, r *storage.Row) bool {
		b := r.CommittedImage()
		cYTD += cs.GetInt64(b, w.cc.YTDPayment)
		cBal += cs.GetInt64(b, w.cc.Balance)
		customers++
		return true
	})
	if cYTD != histTotal {
		return fmt.Errorf("tpcc: Σ C_YTD_PAYMENT=%d != Σ H_AMOUNT=%d", cYTD, histTotal)
	}
	if want := -1000*customers - cYTD; cBal != want {
		return fmt.Errorf("tpcc: Σ C_BALANCE=%d, want %d", cBal, want)
	}

	// 4: order counters per district.
	orderCount := map[uint64]int64{}
	os := w.Orders.Schema
	w.Orders.Range(func(_ uint64, r *storage.Row) bool {
		b := r.CommittedImage()
		orderCount[districtKey(os.GetInt64(b, w.oc.WID), os.GetInt64(b, w.oc.DID))]++
		return true
	})
	noCount := map[uint64]int64{}
	ns := w.NewOrderTbl.Schema
	w.NewOrderTbl.Range(func(_ uint64, r *storage.Row) bool {
		b := r.CommittedImage()
		noCount[districtKey(ns.GetInt64(b, w.noc.WID), ns.GetInt64(b, w.noc.DID))]++
		return true
	})
	for wid := int64(0); wid < int64(w.cfg.Warehouses); wid++ {
		for did := int64(0); did < distPerWarehouse; did++ {
			dk := districtKey(wid, did)
			ds := w.District.Schema
			next := ds.GetInt64(w.District.Get(dk).CommittedImage(), w.dc.NextOID)
			if got := orderCount[dk]; got != next-3001 {
				return fmt.Errorf("tpcc: district %d/%d has %d orders, D_NEXT_O_ID implies %d",
					wid, did, got, next-3001)
			}
			if got := noCount[dk]; got != next-3001 {
				return fmt.Errorf("tpcc: district %d/%d has %d new_order rows, want %d",
					wid, did, got, next-3001)
			}
		}
	}

	// 5: order lines per order.
	var olQty, olRows int64
	ols := w.OrderLine.Schema
	olCount := map[uint64]int64{}
	w.OrderLine.Range(func(_ uint64, r *storage.Row) bool {
		b := r.CommittedImage()
		olCount[orderKey(ols.GetInt64(b, w.olc.WID), ols.GetInt64(b, w.olc.DID), ols.GetInt64(b, w.olc.OID))]++
		olQty += ols.GetInt64(b, w.olc.Quantity)
		olRows++
		return true
	})
	var checkErr error
	w.Orders.Range(func(key uint64, r *storage.Row) bool {
		b := r.CommittedImage()
		want := os.GetInt64(b, w.oc.OLCnt)
		if got := olCount[key]; got != want {
			checkErr = fmt.Errorf("tpcc: order %d has %d lines, want %d", key, got, want)
			return false
		}
		return true
	})
	if checkErr != nil {
		return checkErr
	}

	// 6: stock counters vs order lines.
	var sYTD, sOrderCnt int64
	ss := w.Stock.Schema
	w.Stock.Range(func(_ uint64, r *storage.Row) bool {
		b := r.CommittedImage()
		sYTD += ss.GetInt64(b, w.sc.YTD)
		sOrderCnt += ss.GetInt64(b, w.sc.OrderCnt)
		return true
	})
	if sYTD != olQty {
		return fmt.Errorf("tpcc: Σ S_YTD=%d != Σ OL_QUANTITY=%d", sYTD, olQty)
	}
	if sOrderCnt != olRows {
		return fmt.Errorf("tpcc: Σ S_ORDER_CNT=%d != order-line rows %d", sOrderCnt, olRows)
	}
	return nil
}
