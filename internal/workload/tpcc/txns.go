package tpcc

import (
	"fmt"
	"math/rand"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/storage"
	"bamboo/internal/workload"
)

// PaymentArgs are the inputs of one Payment transaction.
type PaymentArgs struct {
	WID, DID int64
	// Customer selection: by last name (60%) or by id (40%).
	ByLastName bool
	CLast      string
	CID        int64
	// CWID/CDID locate the customer (15% remote warehouse).
	CWID, CDID int64
	Amount     int64 // cents
}

// NewOrderArgs are the inputs of one NewOrder transaction.
type NewOrderArgs struct {
	WID, DID, CID int64
	Items         []OrderItem
	// Rollback simulates the 1% user abort on an unused item number.
	Rollback bool
	AllLocal bool
}

// OrderItem is one order line request.
type OrderItem struct {
	IID      int64
	SupplyW  int64
	Quantity int64
}

// GenPayment draws Payment arguments per the TPC-C spec.
func (w *Workload) GenPayment(rng *rand.Rand) PaymentArgs {
	wid := int64(rng.Intn(w.cfg.Warehouses))
	did := int64(rng.Intn(distPerWarehouse))
	a := PaymentArgs{
		WID: wid, DID: did,
		CWID: wid, CDID: did,
		Amount: int64(rng.Intn(499901) + 100), // $1.00–$5000.00
	}
	if w.cfg.Warehouses > 1 && rng.Intn(100) < w.cfg.RemotePaymentPct {
		a.CWID = int64(rng.Intn(w.cfg.Warehouses - 1))
		if a.CWID >= wid {
			a.CWID++
		}
		a.CDID = int64(rng.Intn(distPerWarehouse))
	}
	if rng.Intn(100) < 60 {
		a.ByLastName = true
		a.CLast = lastName(nuRand(rng, 255, 223, 0, 999))
	} else {
		a.CID = int64(nuRand(rng, 1023, 259, 0, w.cfg.CustomersPerDistrict-1))
	}
	return a
}

// GenNewOrder draws NewOrder arguments per the TPC-C spec. Item ids are
// de-duplicated within an order (DBx1000 does the same) so each stock row
// is written once, which lets Bamboo retire it at the last write.
func (w *Workload) GenNewOrder(rng *rand.Rand) NewOrderArgs {
	return w.genNewOrder(rng, &workload.Chunk[OrderItem]{})
}

// maxOrderLines is the most items a NewOrder draws, and planChunk the
// number of maximal orders whose items one allocation of a worker's
// stream holds.
const (
	maxOrderLines = 15
	planChunk     = 256
)

// genNewOrder is GenNewOrder with the order's items carved from items. A
// repeated item id is found by scanning the ids already drawn: an order
// has at most maxOrderLines of them, too few for a map to pay.
func (w *Workload) genNewOrder(rng *rand.Rand, items *workload.Chunk[OrderItem]) NewOrderArgs {
	wid := int64(rng.Intn(w.cfg.Warehouses))
	a := NewOrderArgs{
		WID:      wid,
		DID:      int64(rng.Intn(distPerWarehouse)),
		CID:      int64(nuRand(rng, 1023, 259, 0, w.cfg.CustomersPerDistrict-1)),
		AllLocal: true,
	}
	a.Items = items.Take(rng.Intn(maxOrderLines-4) + 5) // 5–15 lines
	for i := 0; i < len(a.Items); {
		iid := int64(nuRand(rng, 8191, 7911, 0, w.cfg.Items-1))
		if ordered(a.Items[:i], iid) {
			continue
		}
		it := OrderItem{IID: iid, SupplyW: wid, Quantity: int64(rng.Intn(10) + 1)}
		if w.cfg.Warehouses > 1 && rng.Intn(100) < w.cfg.RemoteStockPct {
			it.SupplyW = int64(rng.Intn(w.cfg.Warehouses - 1))
			if it.SupplyW >= wid {
				it.SupplyW++
			}
			a.AllLocal = false
		}
		a.Items[i] = it
		i++
	}
	if w.cfg.UserAbortPct > 0 && rng.Intn(100) < w.cfg.UserAbortPct {
		a.Rollback = true
	}
	return a
}

// ordered reports whether items already holds item id iid.
func ordered(items []OrderItem, iid int64) bool {
	for _, it := range items {
		if it.IID == iid {
			return true
		}
	}
	return false
}

// Payment's per-step helpers are shared by the row-engine transaction
// body and the IC3 piece bodies.

// update is tx.Update, or — in Unannotated mode — a Read of the row
// followed by the Update, driving the executor's SH→EX upgrade path the
// way a client that does not pre-declare its write set would.
func (w *Workload) update(tx core.Tx, row *storage.Row, mutate func(img []byte)) error {
	if w.cfg.Unannotated {
		if _, err := tx.Read(row); err != nil {
			return err
		}
	}
	return tx.Update(row, mutate)
}

// declare forwards the access declaration unless the workload runs
// un-annotated (no pre-declared access information at all).
func (w *Workload) declare(tx core.Tx, n int) {
	if !w.cfg.Unannotated {
		tx.DeclareOps(n)
	}
}

// PayWarehouse adds the payment amount to W_YTD.
func (w *Workload) PayWarehouse(tx core.Tx, a *PaymentArgs) error {
	return w.update(tx, w.Warehouse.Get(uint64(a.WID)), func(img []byte) {
		w.Warehouse.Schema.AddInt64(img, w.wc.YTD, a.Amount)
	})
}

// PayDistrict adds the payment amount to D_YTD.
func (w *Workload) PayDistrict(tx core.Tx, a *PaymentArgs) error {
	return w.update(tx, w.District.Get(districtKey(a.WID, a.DID)), func(img []byte) {
		w.District.Schema.AddInt64(img, w.dc.YTD, a.Amount)
	})
}

// resolveCustomer maps by-last-name selection to a concrete id.
func (w *Workload) resolveCustomer(a *PaymentArgs) int64 {
	if !a.ByLastName {
		return a.CID
	}
	ids := w.byLastName[lastNameKey(a.CWID, a.CDID, a.CLast)]
	if len(ids) == 0 {
		// No customer with this name at this district (possible at
		// reduced scale): fall back to a deterministic id.
		return 0
	}
	return ids[len(ids)/2] // spec: ceiling(n/2) position
}

// PayCustomer applies the payment to the customer row.
func (w *Workload) PayCustomer(tx core.Tx, a *PaymentArgs) error {
	cid := w.resolveCustomer(a)
	cs := w.Customer.Schema
	return w.update(tx, w.Customer.Get(customerKey(a.CWID, a.CDID, cid)), func(img []byte) {
		cs.AddInt64(img, w.cc.Balance, -a.Amount)
		cs.AddInt64(img, w.cc.YTDPayment, a.Amount)
		cs.AddInt64(img, w.cc.PaymentCnt, 1)
		if string(cs.GetBytes(img, w.cc.Credit)) == "BC" {
			data := fmt.Sprintf("%d,%d,%d,%d,%d", cid, a.CDID, a.CWID, a.DID, a.Amount)
			cs.SetBytes(img, w.cc.Data, []byte(data))
		}
	})
}

// PayHistory inserts the history row.
func (w *Workload) PayHistory(tx core.Tx, a *PaymentArgs) error {
	hs := w.HistoryTbl.Schema
	img := hs.NewRowImage()
	hs.SetInt64(img, w.hc.CID, w.resolveCustomer(a))
	hs.SetInt64(img, w.hc.CDID, a.CDID)
	hs.SetInt64(img, w.hc.CWID, a.CWID)
	hs.SetInt64(img, w.hc.DID, a.DID)
	hs.SetInt64(img, w.hc.WID, a.WID)
	hs.SetInt64(img, w.hc.Amount, a.Amount)
	return tx.Insert(w.HistoryTbl, w.histKeys.Add(1), img)
}

// Payment returns the transaction body for args.
//
// Access order matches DBx1000: warehouse (the hotspot) first, then
// district, then customer, then the history insert. With one warehouse
// the W_YTD update is the global hotspot at the transaction's beginning —
// the best case for Bamboo's early retiring.
func (w *Workload) Payment(a PaymentArgs) core.TxnFunc {
	return func(tx core.Tx) error {
		w.declare(tx, 3)
		if err := w.PayWarehouse(tx, &a); err != nil {
			return err
		}
		if err := w.PayDistrict(tx, &a); err != nil {
			return err
		}
		if err := w.PayCustomer(tx, &a); err != nil {
			return err
		}
		return w.PayHistory(tx, &a)
	}
}

// NewOrderState carries per-transaction state between NewOrder's steps
// (and, under IC3, between its pieces).
type NewOrderState struct {
	Args NewOrderArgs
	OID  int64
	WTax int64
	DTax int64
}

// NOWarehouse reads W_TAX (and, with ModifiedNewOrder, W_YTD — the §5.6
// "true conflict" with Payment, free for row-granularity protocols).
func (w *Workload) NOWarehouse(tx core.Tx, st *NewOrderState) error {
	ws := w.Warehouse.Schema
	wImg, err := tx.Read(w.Warehouse.Get(uint64(st.Args.WID)))
	if err != nil {
		return err
	}
	st.WTax = ws.GetInt64(wImg, w.wc.Tax)
	if w.cfg.ModifiedNewOrder {
		_ = ws.GetInt64(wImg, w.wc.YTD)
	}
	return nil
}

// NODistrict draws the order id from D_NEXT_O_ID — the canonical
// read-modify-write: un-annotated it reads the district row first and
// upgrades the lock for the increment.
func (w *Workload) NODistrict(tx core.Tx, st *NewOrderState) error {
	ds := w.District.Schema
	return w.update(tx, w.District.Get(districtKey(st.Args.WID, st.Args.DID)), func(img []byte) {
		st.OID = ds.GetInt64(img, w.dc.NextOID)
		ds.SetInt64(img, w.dc.NextOID, st.OID+1)
		st.DTax = ds.GetInt64(img, w.dc.Tax)
	})
}

// NOCustomer reads the ordering customer.
func (w *Workload) NOCustomer(tx core.Tx, st *NewOrderState) error {
	_, err := tx.Read(w.Customer.Get(customerKey(st.Args.WID, st.Args.DID, st.Args.CID)))
	return err
}

// NOItems processes the order lines: item reads, stock updates,
// order-line inserts, and the 1% user abort on an invalid item.
func (w *Workload) NOItems(tx core.Tx, st *NewOrderState) error {
	a := &st.Args
	for n, it := range a.Items {
		if a.Rollback && n == len(a.Items)-1 {
			// Unused item number: the transaction rolls back (1%).
			return core.ErrUserAbort
		}
		is := w.Item.Schema
		iImg, err := tx.Read(w.Item.Get(uint64(it.IID)))
		if err != nil {
			return err
		}
		price := is.GetInt64(iImg, w.ic.Price)

		ss := w.Stock.Schema
		err = w.update(tx, w.Stock.Get(stockKey(it.SupplyW, it.IID)), func(img []byte) {
			q := ss.GetInt64(img, w.sc.Quantity)
			if q >= it.Quantity+10 {
				q -= it.Quantity
			} else {
				q = q - it.Quantity + 91
			}
			ss.SetInt64(img, w.sc.Quantity, q)
			ss.AddInt64(img, w.sc.YTD, it.Quantity)
			ss.AddInt64(img, w.sc.OrderCnt, 1)
			if it.SupplyW != a.WID {
				ss.AddInt64(img, w.sc.RemoteCnt, 1)
			}
		})
		if err != nil {
			return err
		}

		ols := w.OrderLine.Schema
		olImg := ols.NewRowImage()
		ols.SetInt64(olImg, w.olc.OID, st.OID)
		ols.SetInt64(olImg, w.olc.DID, a.DID)
		ols.SetInt64(olImg, w.olc.WID, a.WID)
		ols.SetInt64(olImg, w.olc.Number, int64(n))
		ols.SetInt64(olImg, w.olc.IID, it.IID)
		ols.SetInt64(olImg, w.olc.SupplyWID, it.SupplyW)
		ols.SetInt64(olImg, w.olc.Quantity, it.Quantity)
		ols.SetInt64(olImg, w.olc.Amount, price*it.Quantity)
		if err := tx.Insert(w.OrderLine, orderLineKey(a.WID, a.DID, st.OID, int64(n)), olImg); err != nil {
			return err
		}
	}
	return nil
}

// NOInsertOrder inserts the orders and new_order rows.
func (w *Workload) NOInsertOrder(tx core.Tx, st *NewOrderState) error {
	a := &st.Args
	os := w.Orders.Schema
	oImg := os.NewRowImage()
	os.SetInt64(oImg, w.oc.OID, st.OID)
	os.SetInt64(oImg, w.oc.DID, a.DID)
	os.SetInt64(oImg, w.oc.WID, a.WID)
	os.SetInt64(oImg, w.oc.CID, a.CID)
	os.SetInt64(oImg, w.oc.EntryD, time.Now().UnixNano())
	os.SetInt64(oImg, w.oc.OLCnt, int64(len(a.Items)))
	if a.AllLocal {
		os.SetInt64(oImg, w.oc.AllLocal, 1)
	}
	if err := tx.Insert(w.Orders, orderKey(a.WID, a.DID, st.OID), oImg); err != nil {
		return err
	}

	ns := w.NewOrderTbl.Schema
	nImg := ns.NewRowImage()
	ns.SetInt64(nImg, w.noc.OID, st.OID)
	ns.SetInt64(nImg, w.noc.DID, a.DID)
	ns.SetInt64(nImg, w.noc.WID, a.WID)
	return tx.Insert(w.NewOrderTbl, orderKey(a.WID, a.DID, st.OID), nImg)
}

// NewOrder returns the transaction body for args.
func (w *Workload) NewOrder(a NewOrderArgs) core.TxnFunc {
	return func(tx core.Tx) error {
		// warehouse read + district update + customer read + per-item
		// (item read + stock update).
		w.declare(tx, 3+2*len(a.Items))
		st := &NewOrderState{Args: a}
		for _, step := range []func(core.Tx, *NewOrderState) error{
			w.NOWarehouse, w.NODistrict, w.NOCustomer, w.NOItems, w.NOInsertOrder,
		} {
			if err := step(tx, st); err != nil {
				return err
			}
		}
		return nil
	}
}

// StockLevelArgs are the inputs of one StockLevel transaction.
type StockLevelArgs struct {
	WID, DID  int64
	Threshold int64
}

// GenStockLevel draws StockLevel arguments per the TPC-C spec (threshold
// uniform in [10, 20]).
func (w *Workload) GenStockLevel(rng *rand.Rand) StockLevelArgs {
	return StockLevelArgs{
		WID:       int64(rng.Intn(w.cfg.Warehouses)),
		DID:       int64(rng.Intn(distPerWarehouse)),
		Threshold: int64(rng.Intn(11) + 10),
	}
}

// stockLevelOrders is the number of most recent orders StockLevel
// examines (spec §2.8.2.1: 20).
const stockLevelOrders = 20

// StockLevel returns the transaction body for args: read D_NEXT_O_ID,
// walk the order lines of the district's last 20 orders, and count the
// distinct items whose stock quantity is below the threshold. The
// transaction is read-only and naturally un-annotated — it shares the
// district row and the stock rows with NewOrder's write (and, in
// Unannotated mode, upgrade) path, which is what makes it the paper-era
// contended read-modify-write benchmark shape.
//
// Orders below the initial D_NEXT_O_ID (the loader populates no order
// history) and order lines trimmed at reduced scale are skipped.
func (w *Workload) StockLevel(a StockLevelArgs) core.TxnFunc {
	return func(tx core.Tx) error {
		// Declared read-only: on an MVCC engine the whole scan runs at a
		// snapshot with zero lock acquisitions, so it stops inflating
		// NewOrder's tail latency; without MVCC this is a no-op and the
		// scan takes shared locks as before.
		core.MarkReadOnly(tx)
		dImg, err := tx.Read(w.District.Get(districtKey(a.WID, a.DID)))
		if err != nil {
			return err
		}
		nextOID := w.District.Schema.GetInt64(dImg, w.dc.NextOID)

		seen := make(map[int64]bool, 32)
		low := 0
		os, ols, ss := w.Orders.Schema, w.OrderLine.Schema, w.Stock.Schema
		for oid := nextOID - stockLevelOrders; oid < nextOID; oid++ {
			oRow := w.Orders.Get(orderKey(a.WID, a.DID, oid))
			if oRow == nil {
				continue // pre-load history does not exist
			}
			oImg, err := tx.Read(oRow)
			if err != nil {
				return err
			}
			olCnt := os.GetInt64(oImg, w.oc.OLCnt)
			for n := int64(0); n < olCnt; n++ {
				olRow := w.OrderLine.Get(orderLineKey(a.WID, a.DID, oid, n))
				if olRow == nil {
					continue
				}
				olImg, err := tx.Read(olRow)
				if err != nil {
					return err
				}
				iid := ols.GetInt64(olImg, w.olc.IID)
				supplyW := ols.GetInt64(olImg, w.olc.SupplyWID)
				if seen[iid] {
					continue
				}
				seen[iid] = true
				sImg, err := tx.Read(w.Stock.Get(stockKey(supplyW, iid)))
				if err != nil {
					return err
				}
				if ss.GetInt64(sImg, w.sc.Quantity) < a.Threshold {
					low++
				}
			}
		}
		_ = low // the count is the client's result; nothing to persist
		return nil
	}
}

// Generator returns the transaction mix as a core.Generator: Payment
// with PaymentFraction, StockLevel with StockLevelFraction, NewOrder
// with the remainder.
func (w *Workload) Generator() core.Generator {
	return w.mix(func(s *stream, draw float64) core.TxnFunc {
		if draw < w.cfg.PaymentFraction {
			return w.Payment(w.GenPayment(s.rng))
		}
		if draw < w.cfg.PaymentFraction+w.cfg.StockLevelFraction {
			return w.StockLevel(w.GenStockLevel(s.rng))
		}
		return w.NewOrder(w.genNewOrder(s.rng, &s.items))
	})
}

// stream is one worker's input stream: its random source, and the chunk
// its NewOrders' items are carved from. An order keeps its items for as
// long as its TxnFunc lives, so they are never reused.
type stream struct {
	rng   *rand.Rand
	items workload.Chunk[OrderItem]
}

// mix is the per-worker draw every generator shares: each worker owns a
// stream seeded from Config.Seed, and pick turns one uniform draw from it
// (plus the stream, for the arguments) into a transaction.
func (w *Workload) mix(pick func(s *stream, draw float64) core.TxnFunc) core.Generator {
	streams := &workload.PerWorker[*stream]{New: func(worker int) *stream {
		return &stream{
			rng:   rand.New(rand.NewSource(w.cfg.Seed + int64(worker)*6364136223846793005 + 1442695040888963407)),
			items: workload.Chunk[OrderItem]{Size: planChunk * maxOrderLines},
		}
	}}
	return func(worker, seq int) core.TxnFunc {
		s := streams.Get(worker)
		return pick(s, s.rng.Float64())
	}
}
