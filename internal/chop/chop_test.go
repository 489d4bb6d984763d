package chop_test

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/lock"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/verify"
)

func kvSchema() *storage.Schema {
	return storage.NewSchema("kv",
		storage.Column{Name: "stamp", Type: storage.ColInt64},
		storage.Column{Name: "val", Type: storage.ColInt64},
		storage.Column{Name: "other", Type: storage.ColInt64},
	)
}

func buildKV(db *core.DB, rows int) *storage.Table {
	tbl := db.Catalog.MustCreateTable(kvSchema(), rows)
	for k := 0; k < rows; k++ {
		tbl.MustInsertRow(uint64(k), nil)
	}
	return tbl
}

func TestAnalyzeMergesCrossingEdges(t *testing.T) {
	// Template A: writes table X then table Y; template B: Y then X.
	// The C-edges cross, so both templates must collapse to one piece.
	mk := func(tables ...string) *chop.Template {
		tt := &chop.Template{Name: tables[0] + "-first"}
		for _, tb := range tables {
			tt.Pieces = append(tt.Pieces, &chop.Piece{
				Accesses: []chop.AccessDecl{{Table: tb, Cols: []int{0}, Write: true}},
				Body:     func(*chop.PieceTx) error { return nil },
			})
		}
		return tt
	}
	a := mk("X", "Y")
	b := mk("Y", "X")
	var reg chop.Registry
	reg.Register(a)
	reg.Register(b)
	reg.Analyze()
	if reg.Merges() == 0 {
		t.Fatal("crossing C-edges not merged")
	}
	if len(a.Pieces) != 1 || len(b.Pieces) != 1 {
		t.Fatalf("pieces after merge: %d and %d, want 1 and 1", len(a.Pieces), len(b.Pieces))
	}
}

func TestAnalyzeKeepsDisjointColumns(t *testing.T) {
	// Conflicts on disjoint columns of the same table are not C-edges —
	// the IC3 advantage of Figure 11a.
	a := &chop.Template{Name: "a", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "T", Cols: []int{0}, Write: true}},
		Body:     func(*chop.PieceTx) error { return nil },
	}, {
		Accesses: []chop.AccessDecl{{Table: "U", Cols: []int{0}, Write: true}},
		Body:     func(*chop.PieceTx) error { return nil },
	}}}
	b := &chop.Template{Name: "b", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "U", Cols: []int{1}, Write: true}},
		Body:     func(*chop.PieceTx) error { return nil },
	}, {
		Accesses: []chop.AccessDecl{{Table: "T", Cols: []int{1}, Write: true}},
		Body:     func(*chop.PieceTx) error { return nil },
	}}}
	var reg chop.Registry
	reg.Register(a)
	reg.Register(b)
	reg.Analyze()
	if reg.Merges() != 0 {
		t.Fatalf("disjoint-column templates merged %d times", reg.Merges())
	}
}

// TestAnalyzeUnannotatedConservative: pieces declaring no access modes
// must be analyzed as potential writers — two mode-less templates whose
// table orders cross merge exactly as annotated writers would, where a
// read-only reading of the same declarations would see no C-edge at all.
func TestAnalyzeUnannotatedConservative(t *testing.T) {
	mk := func(tables ...string) *chop.Template {
		tt := &chop.Template{Name: tables[0] + "-first"}
		for _, tb := range tables {
			tt.Pieces = append(tt.Pieces, &chop.Piece{
				Accesses: []chop.AccessDecl{{Table: tb, Cols: []int{0}}},
				Body:     func(*chop.PieceTx) error { return nil },
			})
		}
		return tt
	}
	a := mk("X", "Y")
	b := mk("Y", "X")
	var reg chop.Registry
	reg.Register(a)
	reg.Register(b)
	reg.Analyze()
	if reg.Merges() == 0 {
		t.Fatal("un-annotated crossing templates not merged; analysis trusted absent mode declarations")
	}
	if len(a.Pieces) != 1 || len(b.Pieces) != 1 {
		t.Fatalf("pieces after merge: %d and %d, want 1 and 1", len(a.Pieces), len(b.Pieces))
	}
}

// TestInPlacePromotion: an un-annotated read-then-update piece promotes
// its read access SH→EX in place — one access per row, counted as an
// upgrade, and the concurrent increments it performs conserve.
func TestInPlacePromotion(t *testing.T) {
	var maxAccs atomic.Int64
	db := core.NewDB(core.Config{OnCommit: func(_ int, _, _ uint64, accesses []core.AccessInfo, _ int) {
		if n := int64(len(accesses)); n > maxAccs.Load() {
			maxAccs.Store(n)
		}
		for _, a := range accesses {
			if a.Mode != lock.EX {
				panic("promoted access committed as SH")
			}
		}
	}})
	tbl := buildKV(db, 4)
	valCol := tbl.Schema.ColIndex("val")

	tmpl := &chop.Template{Name: "rmw", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}}}, // no mode declared
		Body: func(pt *chop.PieceTx) error {
			k := pt.Env().(uint64)
			row := tbl.Get(k)
			if _, err := pt.Read(row); err != nil {
				return err
			}
			return pt.Update(row, func(img []byte) {
				tbl.Schema.AddInt64(img, valCol, 1)
			})
		},
	}}}
	var reg chop.Registry
	reg.Register(tmpl)
	e := chop.New(db, &reg)

	const workers, per = 8, 150
	cols := make([]*stats.Collector, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cols[w] = &stats.Collector{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := e.NewSession(w, cols[w])
			rng := rand.New(rand.NewSource(int64(w)*17 + 3))
			for i := 0; i < per; i++ {
				if err := sess.Run(tmpl, uint64(rng.Intn(4))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var total int64
	for k := uint64(0); k < 4; k++ {
		total += tbl.Schema.GetInt64(*tbl.Get(k).OCCImage.Load(), valCol)
	}
	if total != workers*per {
		t.Fatalf("total = %d, want %d (lost or doubled updates through promotion)", total, workers*per)
	}
	if got := maxAccs.Load(); got != 1 {
		t.Fatalf("%d accesses recorded for a single-row read-then-update, want 1 promoted access", got)
	}
	var upgrades uint64
	for _, c := range cols {
		upgrades += c.Counts[stats.Upgrades]
	}
	if upgrades == 0 {
		t.Fatal("no upgrades recorded; promotion path not taken")
	}
}

func TestIC3CounterConservation(t *testing.T) {
	db := core.NewDB(core.Config{})
	tbl := buildKV(db, 4)
	valCol := tbl.Schema.ColIndex("val")

	tmpl := &chop.Template{Name: "incr", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}, Write: true}},
		Body: func(pt *chop.PieceTx) error {
			rows := pt.Env().([]uint64)
			for _, k := range rows {
				if err := pt.Update(tbl.Get(k), func(img []byte) {
					tbl.Schema.AddInt64(img, valCol, 1)
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}}}
	var reg chop.Registry
	reg.Register(tmpl)
	e := chop.New(db, &reg)

	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := e.NewSession(w, &stats.Collector{})
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				keys := []uint64{uint64(rng.Intn(4))}
				if err := sess.Run(tmpl, keys); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var total int64
	for k := uint64(0); k < 4; k++ {
		total += tbl.Schema.GetInt64(*tbl.Get(k).OCCImage.Load(), valCol)
	}
	if total != workers*per {
		t.Fatalf("total = %d, want %d", total, workers*per)
	}
}

func TestIC3Serializability(t *testing.T) {
	schema := kvSchema()
	stampCol := schema.ColIndex("stamp")

	hist := verify.New()
	db := core.NewDB(core.Config{OnCommit: func(worker int, txnID, ts uint64, accesses []core.AccessInfo, inserts int) {
		var reads []verify.Read
		var wrote []string
		var myStamp uint64
		for _, a := range accesses {
			rowKey := a.Table + "/" + string(rune('0'+a.Key))
			if a.Mode == lock.EX {
				wrote = append(wrote, rowKey)
				myStamp = uint64(schema.GetInt64(a.Wrote, stampCol))
			} else {
				reads = append(reads, verify.Read{
					Row: rowKey, Stamp: uint64(schema.GetInt64(a.Read, stampCol)),
				})
			}
		}
		id := txnID
		if myStamp != 0 {
			id = myStamp
		}
		hist.RecordCommit(id, reads, wrote)
	}})
	tbl := buildKV(db, 6)

	var stampCtr atomic.Uint64
	stampCtr.Store(1 << 32)
	type env struct {
		keys   []uint64
		writes []bool
	}
	tmpl := &chop.Template{Name: "rw", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{0, 1}, Write: true}},
		Body: func(pt *chop.PieceTx) error {
			ev := pt.Env().(*env)
			stamp := stampCtr.Add(1)
			for i, k := range ev.keys {
				row := tbl.Get(k)
				if ev.writes[i] {
					err := pt.Update(row, func(img []byte) {
						tbl.Schema.SetInt64(img, 0, int64(stamp))
					})
					if err != nil {
						return err
					}
				} else if _, err := pt.Read(row); err != nil {
					return err
				}
			}
			return nil
		},
	}}}
	var reg chop.Registry
	reg.Register(tmpl)
	e := chop.New(db, &reg)

	const workers, per = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := e.NewSession(w, &stats.Collector{})
			rng := rand.New(rand.NewSource(int64(w)*31 + 5))
			for i := 0; i < per; i++ {
				ev := &env{}
				perm := rng.Perm(6)[:3]
				// Keys are accessed in sorted order: a valid chopping's
				// pieces never self-deadlock (IC3 assumes the chopped
				// program is deadlock-free; arbitrary in-piece orders are
				// not valid choppings).
				sort.Ints(perm)
				for _, k := range perm {
					ev.keys = append(ev.keys, uint64(k))
					ev.writes = append(ev.writes, rng.Float64() < 0.5)
				}
				if err := sess.Run(tmpl, ev); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if hist.Commits() != workers*per {
		t.Fatalf("commits = %d, want %d", hist.Commits(), workers*per)
	}
	if err := hist.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestIC3UserAbortRollsBack(t *testing.T) {
	db := core.NewDB(core.Config{})
	tbl := buildKV(db, 1)
	valCol := tbl.Schema.ColIndex("val")
	tmpl := &chop.Template{Name: "abort", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}, Write: true}},
		Body: func(pt *chop.PieceTx) error {
			return pt.Update(tbl.Get(0), func(img []byte) {
				tbl.Schema.SetInt64(img, valCol, 99)
			})
		},
	}, {
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}}},
		Body:     func(pt *chop.PieceTx) error { return core.ErrUserAbort },
	}}}
	var reg chop.Registry
	reg.Register(tmpl)
	e := chop.New(db, &reg)
	col := &stats.Collector{}
	if err := e.NewSession(0, col).Run(tmpl, nil); err != nil {
		t.Fatal(err)
	}
	if col.Commits != 0 || col.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d", col.Commits, col.Aborts)
	}
	if got := tbl.Schema.GetInt64(*tbl.Get(0).OCCImage.Load(), valCol); got != 0 {
		t.Fatalf("value = %d after user abort, want 0", got)
	}
}
