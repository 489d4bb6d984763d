// Package tpcc implements the TPC-C workload as evaluated in the paper
// (§5.5): the nine tables, a loader, and the NewOrder + Payment
// transaction mix (50/50) with 1% of NewOrder transactions aborting on an
// invalid item to simulate user-initiated aborts. The "modified NewOrder"
// of §5.6 — which additionally reads W_YTD, a column Payment updates — is
// a flag; it changes nothing for row-granularity protocols but creates a
// true column conflict for IC3.
//
// Money columns are stored as int64 cents so consistency checks are exact.
package tpcc

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"bamboo/internal/core"
	"bamboo/internal/storage"
)

// Schema column indexes are resolved once at load into these structs so
// transaction bodies never do string lookups.

// Warehouse columns.
type warehouseCols struct {
	ID, Name, Tax, YTD int
}

// District columns.
type districtCols struct {
	ID, WID, Tax, YTD, NextOID int
}

// Customer columns.
type customerCols struct {
	ID, DID, WID, Last, Credit, Balance, YTDPayment, PaymentCnt, Data int
}

// Item columns.
type itemCols struct {
	ID, Name, Price int
}

// Stock columns.
type stockCols struct {
	IID, WID, Quantity, YTD, OrderCnt, RemoteCnt int
}

// Order columns.
type orderCols struct {
	OID, DID, WID, CID, EntryD, OLCnt, AllLocal int
}

// NewOrderTbl columns.
type newOrderCols struct {
	OID, DID, WID int
}

// OrderLine columns.
type orderLineCols struct {
	OID, DID, WID, Number, IID, SupplyWID, Quantity, Amount int
}

// History columns.
type historyCols struct {
	CID, CDID, CWID, DID, WID, Amount int
}

func warehouseSchema() *storage.Schema {
	return storage.NewSchema("warehouse",
		storage.Column{Name: "w_id", Type: storage.ColInt64},
		storage.Column{Name: "w_name", Type: storage.ColBytes, Size: 10},
		storage.Column{Name: "w_tax", Type: storage.ColInt64},
		storage.Column{Name: "w_ytd", Type: storage.ColInt64},
	)
}

func districtSchema() *storage.Schema {
	return storage.NewSchema("district",
		storage.Column{Name: "d_id", Type: storage.ColInt64},
		storage.Column{Name: "d_w_id", Type: storage.ColInt64},
		storage.Column{Name: "d_tax", Type: storage.ColInt64},
		storage.Column{Name: "d_ytd", Type: storage.ColInt64},
		storage.Column{Name: "d_next_o_id", Type: storage.ColInt64},
	)
}

func customerSchema() *storage.Schema {
	return storage.NewSchema("customer",
		storage.Column{Name: "c_id", Type: storage.ColInt64},
		storage.Column{Name: "c_d_id", Type: storage.ColInt64},
		storage.Column{Name: "c_w_id", Type: storage.ColInt64},
		storage.Column{Name: "c_last", Type: storage.ColBytes, Size: 16},
		storage.Column{Name: "c_credit", Type: storage.ColBytes, Size: 2},
		storage.Column{Name: "c_balance", Type: storage.ColInt64},
		storage.Column{Name: "c_ytd_payment", Type: storage.ColInt64},
		storage.Column{Name: "c_payment_cnt", Type: storage.ColInt64},
		storage.Column{Name: "c_data", Type: storage.ColBytes, Size: 64},
	)
}

func itemSchema() *storage.Schema {
	return storage.NewSchema("item",
		storage.Column{Name: "i_id", Type: storage.ColInt64},
		storage.Column{Name: "i_name", Type: storage.ColBytes, Size: 24},
		storage.Column{Name: "i_price", Type: storage.ColInt64},
	)
}

func stockSchema() *storage.Schema {
	return storage.NewSchema("stock",
		storage.Column{Name: "s_i_id", Type: storage.ColInt64},
		storage.Column{Name: "s_w_id", Type: storage.ColInt64},
		storage.Column{Name: "s_quantity", Type: storage.ColInt64},
		storage.Column{Name: "s_ytd", Type: storage.ColInt64},
		storage.Column{Name: "s_order_cnt", Type: storage.ColInt64},
		storage.Column{Name: "s_remote_cnt", Type: storage.ColInt64},
	)
}

func orderSchema() *storage.Schema {
	return storage.NewSchema("orders",
		storage.Column{Name: "o_id", Type: storage.ColInt64},
		storage.Column{Name: "o_d_id", Type: storage.ColInt64},
		storage.Column{Name: "o_w_id", Type: storage.ColInt64},
		storage.Column{Name: "o_c_id", Type: storage.ColInt64},
		storage.Column{Name: "o_entry_d", Type: storage.ColInt64},
		storage.Column{Name: "o_ol_cnt", Type: storage.ColInt64},
		storage.Column{Name: "o_all_local", Type: storage.ColInt64},
	)
}

func newOrderSchema() *storage.Schema {
	return storage.NewSchema("new_order",
		storage.Column{Name: "no_o_id", Type: storage.ColInt64},
		storage.Column{Name: "no_d_id", Type: storage.ColInt64},
		storage.Column{Name: "no_w_id", Type: storage.ColInt64},
	)
}

func orderLineSchema() *storage.Schema {
	return storage.NewSchema("order_line",
		storage.Column{Name: "ol_o_id", Type: storage.ColInt64},
		storage.Column{Name: "ol_d_id", Type: storage.ColInt64},
		storage.Column{Name: "ol_w_id", Type: storage.ColInt64},
		storage.Column{Name: "ol_number", Type: storage.ColInt64},
		storage.Column{Name: "ol_i_id", Type: storage.ColInt64},
		storage.Column{Name: "ol_supply_w_id", Type: storage.ColInt64},
		storage.Column{Name: "ol_quantity", Type: storage.ColInt64},
		storage.Column{Name: "ol_amount", Type: storage.ColInt64},
	)
}

func historySchema() *storage.Schema {
	return storage.NewSchema("history",
		storage.Column{Name: "h_c_id", Type: storage.ColInt64},
		storage.Column{Name: "h_c_d_id", Type: storage.ColInt64},
		storage.Column{Name: "h_c_w_id", Type: storage.ColInt64},
		storage.Column{Name: "h_d_id", Type: storage.ColInt64},
		storage.Column{Name: "h_w_id", Type: storage.ColInt64},
		storage.Column{Name: "h_amount", Type: storage.ColInt64},
	)
}

// Key encodings. TPC-C ids are small; composite keys pack into 64 bits.

const (
	distPerWarehouse = 10
	custPerDistrict  = 3000
)

func districtKey(w, d int64) uint64 { return uint64(w*distPerWarehouse + d) }
func customerKey(w, d, c int64) uint64 {
	return uint64((w*distPerWarehouse+d)*custPerDistrict + c)
}
func stockKey(w, i int64) uint64 { return uint64(w)<<32 | uint64(i) }
func orderKey(w, d, o int64) uint64 {
	return uint64(w*distPerWarehouse+d)<<40 | uint64(o)
}
func orderLineKey(w, d, o, n int64) uint64 {
	return (uint64(w*distPerWarehouse+d)<<40|uint64(o))<<5 | uint64(n)
}

// lastNames are the TPC-C syllables for C_LAST generation.
var lastSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

func lastName(num int) string {
	return lastSyllables[num/100] + lastSyllables[(num/10)%10] + lastSyllables[num%10]
}

// NURand is the TPC-C non-uniform random function.
func nuRand(rng *rand.Rand, a, c, x, y int) int {
	return ((rng.Intn(a+1)|(rng.Intn(y-x+1)+x))+c)%(y-x+1) + x
}

// Config parametrizes scale and mix.
type Config struct {
	// Warehouses is the warehouse count (paper sweeps 1–16).
	Warehouses int
	// Items is the item/stock catalog size (spec: 100000; scale down for
	// tests).
	Items int
	// CustomersPerDistrict (spec: 3000).
	CustomersPerDistrict int
	// PaymentFraction of the mix (paper: 0.5; remainder is NewOrder).
	PaymentFraction float64
	// UserAbortPct is the percent of NewOrder transactions that roll back
	// on an invalid item (spec and paper: 1).
	UserAbortPct int
	// RemotePaymentPct is the percent of Payments against a remote
	// customer warehouse (spec: 15).
	RemotePaymentPct int
	// RemoteStockPct is the per-item percent of NewOrder stock accesses
	// hitting a remote warehouse (spec: 1).
	RemoteStockPct int
	// ModifiedNewOrder makes NewOrder also read W_YTD (§5.6, Figure 11c).
	ModifiedNewOrder bool
	// StockLevelFraction adds the spec's read-only StockLevel transaction
	// to the mix (taken from the NewOrder share). StockLevel reads the
	// district's next order id and scans the stock rows of the last 20
	// orders' lines — shared locks on exactly the rows NewOrder updates,
	// so it contends with (and under Unannotated mode, with the upgrades
	// of) the write path.
	StockLevelFraction float64
	// Unannotated runs the transaction bodies without read/write
	// pre-declaration: every update first Reads the row and then Updates
	// it, so the lock engines upgrade SH→EX in place (interactive clients
	// that do not declare their write sets up front). Access declarations
	// (DeclareOps) are also withheld. IC3's pieces keep their declared
	// modes (ChopRegistry), so there the same bodies run as declared
	// writes.
	Unannotated bool
	// Seed seeds the loader and generators.
	Seed int64
}

// DefaultConfig returns the paper's mix at a test-friendly scale.
func DefaultConfig() Config {
	return Config{
		Warehouses:           1,
		Items:                10000,
		CustomersPerDistrict: 3000,
		PaymentFraction:      0.5,
		UserAbortPct:         1,
		RemotePaymentPct:     15,
		RemoteStockPct:       1,
	}
}

// Workload is a loaded TPC-C database.
type Workload struct {
	cfg Config

	Warehouse, District, Customer, Item, Stock *storage.Table
	Orders, NewOrderTbl, OrderLine, HistoryTbl *storage.Table

	wc  warehouseCols
	dc  districtCols
	cc  customerCols
	ic  itemCols
	sc  stockCols
	oc  orderCols
	noc newOrderCols
	olc orderLineCols
	hc  historyCols

	// byLastName maps (w, d, lastname) to the customer ids with that last
	// name, sorted; Payment-by-last-name picks the middle one (spec
	// §2.5.2.2). Immutable after load.
	byLastName map[string][]int64

	histKeys atomic.Uint64
}

func lastNameKey(w, d int64, name string) string {
	return strconv.FormatInt(w*distPerWarehouse+d, 10) + "/" + name
}

// Key→warehouse decoders, inverting the key encodings above; the range
// partitioner routes every warehouse-keyed table by them.

func widOfWarehouseKey(k uint64) int64 { return int64(k) }
func widOfDistrictKey(k uint64) int64  { return int64(k) / distPerWarehouse }
func widOfCustomerKey(k uint64) int64 {
	return int64(k) / (distPerWarehouse * custPerDistrict)
}
func widOfStockKey(k uint64) int64     { return int64(k >> 32) }
func widOfOrderKey(k uint64) int64     { return int64(k>>40) / distPerWarehouse }
func widOfOrderLineKey(k uint64) int64 { return int64(k>>45) / distPerWarehouse }

// Load creates and populates all nine tables. With db.Partitions() > 1
// every warehouse-keyed table is range-partitioned by warehouse —
// partition p owns the contiguous warehouse range [p·W/P, (p+1)·W/P),
// empty when P exceeds W — and the loader populates the
// partitions in parallel, one goroutine per partition, each seeding a
// per-warehouse rng so the data is deterministic for any partition count.
// Item (the global catalog) and History (runtime inserts under a
// sequential key) are hash-partitioned. A single-partition load keeps the
// original serial path and rng stream, so Partitions=1 is bit-for-bit the
// pre-partitioning behavior.
func Load(db *core.DB, cfg Config) (*Workload, error) {
	if cfg.Warehouses < 1 || cfg.Items < 100 {
		return nil, fmt.Errorf("tpcc: invalid scale W=%d I=%d", cfg.Warehouses, cfg.Items)
	}
	if cfg.CustomersPerDistrict <= 0 || cfg.CustomersPerDistrict > custPerDistrict {
		cfg.CustomersPerDistrict = custPerDistrict
	}
	w := &Workload{cfg: cfg, byLastName: make(map[string][]int64)}

	// The configured partition count is honored even when it exceeds the
	// warehouse count: wid·P/W stays < P for every wid < W, the surplus
	// partitions are simply empty, and the partition-counter telemetry
	// (sized from Config.Partitions at DB construction) stays aligned
	// with the table layout.
	parts := db.Partitions()
	widPart := func(wid int64) int { return int(wid) * parts / cfg.Warehouses }
	byWID := func(decode func(uint64) int64) storage.Partitioner {
		return storage.FuncPartitioner{N: parts, Fn: func(k uint64) int { return widPart(decode(k)) }}
	}
	byHash := storage.HashPartitioner{N: parts}

	w.Warehouse = db.Catalog.MustCreateTablePartitioned(warehouseSchema(), cfg.Warehouses, byWID(widOfWarehouseKey))
	w.District = db.Catalog.MustCreateTablePartitioned(districtSchema(), cfg.Warehouses*distPerWarehouse, byWID(widOfDistrictKey))
	w.Customer = db.Catalog.MustCreateTablePartitioned(customerSchema(),
		cfg.Warehouses*distPerWarehouse*cfg.CustomersPerDistrict, byWID(widOfCustomerKey))
	w.Item = db.Catalog.MustCreateTablePartitioned(itemSchema(), cfg.Items, byHash)
	w.Stock = db.Catalog.MustCreateTablePartitioned(stockSchema(), cfg.Warehouses*cfg.Items, byWID(widOfStockKey))
	w.Orders = db.Catalog.MustCreateTablePartitioned(orderSchema(), 1<<16, byWID(widOfOrderKey))
	w.NewOrderTbl = db.Catalog.MustCreateTablePartitioned(newOrderSchema(), 1<<16, byWID(widOfOrderKey))
	w.OrderLine = db.Catalog.MustCreateTablePartitioned(orderLineSchema(), 1<<18, byWID(widOfOrderLineKey))
	w.HistoryTbl = db.Catalog.MustCreateTablePartitioned(historySchema(), 1<<16, byHash)

	w.resolveColumns()

	if parts == 1 {
		rng := rand.New(rand.NewSource(cfg.Seed + 42))
		for wid := int64(0); wid < int64(cfg.Warehouses); wid++ {
			w.loadWarehouse(wid, rng, w.byLastName)
		}
		w.loadItems(rng)
	} else {
		var wg sync.WaitGroup
		names := make([]map[string][]int64, parts)
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				local := make(map[string][]int64)
				for wid := int64(0); wid < int64(cfg.Warehouses); wid++ {
					if widPart(wid) != p {
						continue
					}
					rng := rand.New(rand.NewSource(cfg.Seed + 42 + (wid+1)*1_000_003))
					w.loadWarehouse(wid, rng, local)
				}
				names[p] = local
			}(p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loadItems(rand.New(rand.NewSource(cfg.Seed + 43)))
		}()
		wg.Wait()
		// Last-name keys embed the warehouse id, so the per-partition maps
		// are disjoint and merge without conflict.
		for _, local := range names {
			for k, ids := range local {
				w.byLastName[k] = ids
			}
		}
	}
	for k := range w.byLastName {
		ids := w.byLastName[k]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return w, nil
}

// loadWarehouse populates one warehouse: its row, districts, customers and
// stock. names receives the (w, d, lastname)→customer-ids entries; callers
// loading warehouses in parallel pass goroutine-local maps.
func (w *Workload) loadWarehouse(wid int64, rng *rand.Rand, names map[string][]int64) {
	cfg := w.cfg
	ws := w.Warehouse.Schema
	img := ws.NewRowImage()
	ws.SetInt64(img, w.wc.ID, wid)
	ws.SetBytes(img, w.wc.Name, []byte(fmt.Sprintf("WH%03d", wid)))
	ws.SetInt64(img, w.wc.Tax, int64(rng.Intn(2001))) // 0–0.2000 in basis points
	ws.SetInt64(img, w.wc.YTD, 30000000)              // $300,000.00 in cents
	w.Warehouse.MustInsertRow(uint64(wid), img)

	for did := int64(0); did < distPerWarehouse; did++ {
		ds := w.District.Schema
		img := ds.NewRowImage()
		ds.SetInt64(img, w.dc.ID, did)
		ds.SetInt64(img, w.dc.WID, wid)
		ds.SetInt64(img, w.dc.Tax, int64(rng.Intn(2001)))
		ds.SetInt64(img, w.dc.YTD, 3000000) // $30,000.00
		ds.SetInt64(img, w.dc.NextOID, 3001)
		w.District.MustInsertRow(districtKey(wid, did), img)

		for cid := int64(0); cid < int64(cfg.CustomersPerDistrict); cid++ {
			cs := w.Customer.Schema
			img := cs.NewRowImage()
			cs.SetInt64(img, w.cc.ID, cid)
			cs.SetInt64(img, w.cc.DID, did)
			cs.SetInt64(img, w.cc.WID, wid)
			var ln string
			if cid < 1000 {
				ln = lastName(int(cid))
			} else {
				ln = lastName(nuRand(rng, 255, 157, 0, 999))
			}
			cs.SetBytes(img, w.cc.Last, []byte(ln))
			credit := "GC"
			if rng.Intn(10) == 0 {
				credit = "BC"
			}
			cs.SetBytes(img, w.cc.Credit, []byte(credit))
			cs.SetInt64(img, w.cc.Balance, -1000) // -$10.00
			w.Customer.MustInsertRow(customerKey(wid, did, cid), img)
			k := lastNameKey(wid, did, ln)
			names[k] = append(names[k], cid)
		}
	}
	for iid := int64(0); iid < int64(cfg.Items); iid++ {
		ss := w.Stock.Schema
		img := ss.NewRowImage()
		ss.SetInt64(img, w.sc.IID, iid)
		ss.SetInt64(img, w.sc.WID, wid)
		ss.SetInt64(img, w.sc.Quantity, int64(rng.Intn(91)+10))
		w.Stock.MustInsertRow(stockKey(wid, iid), img)
	}
}

// loadItems populates the global item catalog.
func (w *Workload) loadItems(rng *rand.Rand) {
	for iid := int64(0); iid < int64(w.cfg.Items); iid++ {
		is := w.Item.Schema
		img := is.NewRowImage()
		is.SetInt64(img, w.ic.ID, iid)
		is.SetBytes(img, w.ic.Name, []byte(fmt.Sprintf("item-%d", iid)))
		is.SetInt64(img, w.ic.Price, int64(rng.Intn(9901)+100)) // $1.00–$100.00
		w.Item.MustInsertRow(uint64(iid), img)
	}
}

func (w *Workload) resolveColumns() {
	ws := w.Warehouse.Schema
	w.wc = warehouseCols{ws.ColIndex("w_id"), ws.ColIndex("w_name"), ws.ColIndex("w_tax"), ws.ColIndex("w_ytd")}
	ds := w.District.Schema
	w.dc = districtCols{ds.ColIndex("d_id"), ds.ColIndex("d_w_id"), ds.ColIndex("d_tax"), ds.ColIndex("d_ytd"), ds.ColIndex("d_next_o_id")}
	cs := w.Customer.Schema
	w.cc = customerCols{cs.ColIndex("c_id"), cs.ColIndex("c_d_id"), cs.ColIndex("c_w_id"), cs.ColIndex("c_last"),
		cs.ColIndex("c_credit"), cs.ColIndex("c_balance"), cs.ColIndex("c_ytd_payment"), cs.ColIndex("c_payment_cnt"), cs.ColIndex("c_data")}
	is := w.Item.Schema
	w.ic = itemCols{is.ColIndex("i_id"), is.ColIndex("i_name"), is.ColIndex("i_price")}
	ss := w.Stock.Schema
	w.sc = stockCols{ss.ColIndex("s_i_id"), ss.ColIndex("s_w_id"), ss.ColIndex("s_quantity"), ss.ColIndex("s_ytd"),
		ss.ColIndex("s_order_cnt"), ss.ColIndex("s_remote_cnt")}
	os := w.Orders.Schema
	w.oc = orderCols{os.ColIndex("o_id"), os.ColIndex("o_d_id"), os.ColIndex("o_w_id"), os.ColIndex("o_c_id"),
		os.ColIndex("o_entry_d"), os.ColIndex("o_ol_cnt"), os.ColIndex("o_all_local")}
	ns := w.NewOrderTbl.Schema
	w.noc = newOrderCols{ns.ColIndex("no_o_id"), ns.ColIndex("no_d_id"), ns.ColIndex("no_w_id")}
	ols := w.OrderLine.Schema
	w.olc = orderLineCols{ols.ColIndex("ol_o_id"), ols.ColIndex("ol_d_id"), ols.ColIndex("ol_w_id"), ols.ColIndex("ol_number"),
		ols.ColIndex("ol_i_id"), ols.ColIndex("ol_supply_w_id"), ols.ColIndex("ol_quantity"), ols.ColIndex("ol_amount")}
	hs := w.HistoryTbl.Schema
	w.hc = historyCols{hs.ColIndex("h_c_id"), hs.ColIndex("h_c_d_id"), hs.ColIndex("h_c_w_id"),
		hs.ColIndex("h_d_id"), hs.ColIndex("h_w_id"), hs.ColIndex("h_amount")}
}

// Config returns the workload configuration.
func (w *Workload) Config() Config { return w.cfg }
