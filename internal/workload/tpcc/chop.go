package tpcc

import (
	"math/rand"

	"bamboo/internal/chop"
	"bamboo/internal/core"
)

// ChopRegistry builds the IC3 templates for the NewOrder + Payment mix
// with column-level access declarations (§5.6).
//
// In the original workload Payment writes warehouse.w_ytd while NewOrder
// reads warehouse.w_tax — disjoint columns, so IC3's analysis finds no
// C-edge on the hottest table and the warehouse pieces run without
// waiting. With ModifiedNewOrder, NewOrder also reads w_ytd, creating the
// "true" conflict that collapses IC3's advantage (Figure 11c/d).
//
// The declarations do not depend on Config.Unannotated: IC3 needs every
// piece's write set up front, so under it the bodies' read-then-update
// accesses (see Workload.update) run as declared writes, each row held
// exclusively from its Read.
func (w *Workload) ChopRegistry() (*chop.Registry, *chop.Template, *chop.Template) {
	wc, dc, cc, ic, sc := w.wc, w.dc, w.cc, w.ic, w.sc

	noWarehouseCols := []int{wc.Tax}
	if w.cfg.ModifiedNewOrder {
		noWarehouseCols = append(noWarehouseCols, wc.YTD)
	}

	payment := &chop.Template{Name: "payment", Pieces: []*chop.Piece{
		{
			Accesses: []chop.AccessDecl{{Table: "warehouse", Cols: []int{wc.YTD}, Write: true}},
			Body: func(pt *chop.PieceTx) error {
				return w.PayWarehouse(pt, pt.Env().(*PaymentArgs))
			},
		},
		{
			Accesses: []chop.AccessDecl{{Table: "district", Cols: []int{dc.YTD}, Write: true}},
			Body: func(pt *chop.PieceTx) error {
				return w.PayDistrict(pt, pt.Env().(*PaymentArgs))
			},
		},
		{
			Accesses: []chop.AccessDecl{{
				Table: "customer", Write: true,
				Cols: []int{cc.Balance, cc.YTDPayment, cc.PaymentCnt, cc.Data, cc.Credit},
			}},
			Body: func(pt *chop.PieceTx) error {
				return w.PayCustomer(pt, pt.Env().(*PaymentArgs))
			},
		},
		{
			Accesses: []chop.AccessDecl{{Table: "history", Cols: []int{0}, Write: true}},
			Body: func(pt *chop.PieceTx) error {
				return w.PayHistory(pt, pt.Env().(*PaymentArgs))
			},
		},
	}}

	neworder := &chop.Template{Name: "neworder", Pieces: []*chop.Piece{
		{
			Accesses: []chop.AccessDecl{{Table: "warehouse", Cols: noWarehouseCols}},
			Body: func(pt *chop.PieceTx) error {
				return w.NOWarehouse(pt, pt.Env().(*NewOrderState))
			},
		},
		{
			Accesses: []chop.AccessDecl{{
				Table: "district", Cols: []int{dc.NextOID, dc.Tax}, Write: true,
			}},
			Body: func(pt *chop.PieceTx) error {
				return w.NODistrict(pt, pt.Env().(*NewOrderState))
			},
		},
		{
			Accesses: []chop.AccessDecl{{Table: "customer", Cols: []int{cc.Balance}}},
			Body: func(pt *chop.PieceTx) error {
				return w.NOCustomer(pt, pt.Env().(*NewOrderState))
			},
		},
		{
			Accesses: []chop.AccessDecl{
				{Table: "item", Cols: []int{ic.Price}},
				{Table: "stock", Write: true,
					Cols: []int{sc.Quantity, sc.YTD, sc.OrderCnt, sc.RemoteCnt}},
				{Table: "order_line", Cols: []int{0}, Write: true},
			},
			Body: func(pt *chop.PieceTx) error {
				return w.NOItems(pt, pt.Env().(*NewOrderState))
			},
		},
		{
			Accesses: []chop.AccessDecl{
				{Table: "orders", Cols: []int{0}, Write: true},
				{Table: "new_order", Cols: []int{0}, Write: true},
			},
			Body: func(pt *chop.PieceTx) error {
				return w.NOInsertOrder(pt, pt.Env().(*NewOrderState))
			},
		},
	}}

	reg := &chop.Registry{}
	reg.Register(payment)
	reg.Register(neworder)
	reg.Analyze()
	return reg, payment, neworder
}

// IC3Generator returns the NewOrder/Payment mix as chopped transactions
// for a chop.Engine: Payment with PaymentFraction, NewOrder with the
// remainder (IC3 has no StockLevel template), drawn from the same
// per-worker streams as Generator.
func (w *Workload) IC3Generator() core.Generator {
	_, payment, neworder := w.ChopRegistry()
	return w.mix(func(rng *rand.Rand, draw float64) core.TxnFunc {
		if draw < w.cfg.PaymentFraction {
			a := w.GenPayment(rng)
			return chop.Call(payment, &a)
		}
		return chop.Call(neworder, &NewOrderState{Args: w.GenNewOrder(rng)})
	})
}

var _ core.Tx = (*chop.PieceTx)(nil)
