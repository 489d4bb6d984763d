package chop_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"bamboo/internal/chop"
	"bamboo/internal/core"
	"bamboo/internal/lock"
	"bamboo/internal/occ"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/verify"
	"bamboo/internal/verify/verifytest"
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

// analyzed registers tmpl alone and analyzes it, as running it requires.
func analyzed(tmpl *chop.Template) *chop.Template {
	var reg chop.Registry
	reg.Register(tmpl)
	reg.Analyze()
	return tmpl
}

// run drives tmpl through core.RunN on an IC3 engine over db: workers
// sessions run per transactions each, env drawing each transaction's
// environment from its worker's own random stream.
func run(t *testing.T, db *core.DB, tmpl *chop.Template, workers, per int, env func(*rand.Rand) any) core.RunResult {
	t.Helper()
	analyzed(tmpl)
	rngs := make([]*rand.Rand, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(int64(w)*31 + 5))
	}
	res := core.RunN(chop.New(db), workers, per, func(w, _ int) core.TxnFunc {
		return chop.Call(tmpl, env(rngs[w]))
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
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

// TestInPlacePromotion: a read-then-update piece that declares Write
// holds the row exclusively from its Read, so its Update turns the same
// access into a write without waiting — one access per row, counted as an
// upgrade, no attempt dying in a cycle of waits, and the concurrent
// increments it performs conserve.
func TestInPlacePromotion(t *testing.T) {
	var maxAccs atomic.Int64
	db := core.NewDB(core.Config{OnCommit: func(_ int, _, _ uint64, accesses []core.AccessInfo, _ int) {
		if n := int64(len(accesses)); n > maxAccs.Load() {
			maxAccs.Store(n)
		}
		for _, a := range accesses {
			if a.Mode != lock.EX {
				panic("read-then-update access committed as SH")
			}
		}
	}})
	tbl := buildKV(db, 4)
	valCol := tbl.Schema.ColIndex("val")

	tmpl := &chop.Template{Name: "rmw", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}, Write: true}},
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
	const workers, per = 8, 150
	res := run(t, db, tmpl, workers, per, func(rng *rand.Rand) any { return uint64(rng.Intn(4)) })

	var total int64
	for k := uint64(0); k < 4; k++ {
		total += tbl.Schema.GetInt64(tbl.Get(k).CommittedImage(), valCol)
	}
	if total != workers*per {
		t.Fatalf("total = %d, want %d (lost or doubled updates through promotion)", total, workers*per)
	}
	if got := maxAccs.Load(); got != 1 {
		t.Fatalf("%d accesses recorded for a single-row read-then-update, want 1 access", got)
	}
	if res.Report.Upgrades == 0 {
		t.Fatal("no upgrades recorded; promotion path not taken")
	}
	if n := res.Report.AbortsBy[txn.CauseDie.String()]; n != 0 {
		t.Fatalf("%d attempts died in a cycle of waits; a declared writer's Update must not wait", n)
	}
}

// TestUpdateUndeclaredWrite: an Update of a table the piece declares
// without Write is an error naming the table, not a write the analysis
// never saw; the transaction commits nothing and leaves the row free.
func TestUpdateUndeclaredWrite(t *testing.T) {
	db := core.NewDB(core.Config{})
	tbl := buildKV(db, 1)
	valCol := tbl.Schema.ColIndex("val")
	incr := func(pt *chop.PieceTx) error {
		return pt.Update(tbl.Get(0), func(img []byte) { tbl.Schema.AddInt64(img, valCol, 1) })
	}
	piece := func(write bool) *chop.Piece {
		return &chop.Piece{Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}, Write: write}}, Body: incr}
	}
	reader := &chop.Template{Name: "reader", Pieces: []*chop.Piece{piece(false)}}
	writer := &chop.Template{Name: "writer", Pieces: []*chop.Piece{piece(true)}}
	var reg chop.Registry
	reg.Register(reader)
	reg.Register(writer)
	reg.Analyze()

	col := &stats.Collector{}
	sess := chop.New(db).NewSession(0, col)
	err := sess.Run(chop.Call(reader, nil))
	if err == nil || !strings.Contains(err.Error(), "kv") {
		t.Fatalf("Update of a table declared read-only: err = %v, want an error naming table kv", err)
	}
	if col.Commits != 0 {
		t.Fatalf("%d commits from the rejected transaction", col.Commits)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).CommittedImage(), valCol); got != 0 {
		t.Fatalf("value = %d after the rejected Update, want 0", got)
	}
	if err := sess.Run(chop.Call(writer, nil)); err != nil || col.Commits != 1 || col.LockWait != 0 {
		t.Fatalf("declared writer after the rejection: err=%v commits=%d lock wait=%v", err, col.Commits, col.LockWait)
	}
}

// TestTableLoadedAfterFirstSession: a row gets its IC3 state at its first
// access, so rows loaded after the engine's first session, as a table
// created then or a row inserted outside IC3 later, run like any other.
func TestTableLoadedAfterFirstSession(t *testing.T) {
	db := core.NewDB(core.Config{})
	sess := chop.New(db).NewSession(0, &stats.Collector{})
	tbl := buildKV(db, 1)
	valCol := tbl.Schema.ColIndex("val")
	incr := analyzed(&chop.Template{Name: "incr", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}, Write: true}},
		Body: func(pt *chop.PieceTx) error {
			return pt.Update(tbl.Get(pt.Env().(uint64)), func(img []byte) { tbl.Schema.AddInt64(img, valCol, 1) })
		},
	}}})
	if err := sess.Run(chop.Call(incr, uint64(0))); err != nil {
		t.Fatalf("row of a table loaded after the first session: %v", err)
	}
	tbl.MustInsertRow(1, nil)
	if err := sess.Run(chop.Call(incr, uint64(1))); err != nil {
		t.Fatalf("row inserted outside IC3: %v", err)
	}
	for k := uint64(0); k < 2; k++ {
		if got := tbl.Schema.GetInt64(tbl.Get(k).CommittedImage(), valCol); got != 1 {
			t.Fatalf("row %d: val = %d, want 1", k, got)
		}
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
	const workers, per = 8, 200
	run(t, db, tmpl, workers, per, func(rng *rand.Rand) any { return []uint64{uint64(rng.Intn(4))} })

	var total int64
	for k := uint64(0); k < 4; k++ {
		total += tbl.Schema.GetInt64(tbl.Get(k).CommittedImage(), valCol)
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
	const workers, per = 8, 150
	run(t, db, tmpl, workers, per, func(rng *rand.Rand) any {
		ev := &env{}
		perm := rng.Perm(6)[:3]
		// Keys are accessed in sorted order: a valid chopping's pieces
		// never self-deadlock (IC3 assumes the chopped program is
		// deadlock-free; arbitrary in-piece orders are not valid
		// choppings).
		sort.Ints(perm)
		for _, k := range perm {
			ev.keys = append(ev.keys, uint64(k))
			ev.writes = append(ev.writes, rng.Float64() < 0.5)
		}
		return ev
	})
	if hist.Commits() != workers*per {
		t.Fatalf("commits = %d, want %d", hist.Commits(), workers*per)
	}
	if err := hist.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestIC3ChoppedPairSerializability runs verifytest's serializability
// oracle over a chopped template pair with the C-edge shape of fig11's
// modified NewOrder and Payment, on tables with the oracle's stamp row
// layout: "vrows" plays the warehouse, "drows" the district and "crows"
// the customer. Payment writes a warehouse, then a customer; NewOrder
// reads a warehouse, writes a district, then reads a customer. The two
// templates' C-edges, on the warehouse and the customer, do not cross,
// so Analyze keeps every piece, and the district writes order NewOrders
// among themselves: the mix forms commit-dependency cycles, which the
// executor breaks by aborting one attempt of each.
func TestIC3ChoppedPairSerializability(t *testing.T) {
	h := verifytest.NewHistory()
	db := core.NewDB(core.Config{OnCommit: h.Hook})
	wh := verifytest.BuildDB(db, 2)
	stampTable := func(name string, rows int) *storage.Table {
		tbl := db.Catalog.MustCreateTable(storage.NewSchema(name,
			storage.Column{Name: "stamp", Type: storage.ColInt64},
			storage.Column{Name: "val", Type: storage.ColInt64},
		), rows)
		for k := 0; k < rows; k++ {
			tbl.MustInsertRow(uint64(k), nil)
		}
		return tbl
	}
	dist, cust := stampTable("drows", 4), stampTable("crows", 8)
	cols := []int{0, 1}

	// A transaction's rows, and the stamp its current attempt writes:
	// every attempt draws a fresh one, so an aborted attempt's writes are
	// never taken for the committed retry's.
	type env struct {
		w, d, c uint64
		stamp   int64
	}
	var stamps atomic.Int64
	stamps.Store(1 << 32) // disjoint from transaction ids, as the oracle needs
	w := func(e *env) uint64 { return e.w }
	d := func(e *env) uint64 { return e.d }
	c := func(e *env) uint64 { return e.c }
	write := func(tbl *storage.Table, key func(*env) uint64, fresh bool) func(*chop.PieceTx) error {
		return func(pt *chop.PieceTx) error {
			ev := pt.Env().(*env)
			if fresh {
				ev.stamp = stamps.Add(1)
			}
			runtime.Gosched()
			return pt.Update(tbl.Get(key(ev)), func(img []byte) {
				tbl.Schema.SetInt64(img, 0, ev.stamp)
				tbl.Schema.AddInt64(img, 1, 1)
			})
		}
	}
	read := func(tbl *storage.Table, key func(*env) uint64) func(*chop.PieceTx) error {
		return func(pt *chop.PieceTx) error {
			runtime.Gosched()
			_, err := pt.Read(tbl.Get(key(pt.Env().(*env))))
			return err
		}
	}
	payment := &chop.Template{Name: "payment", Pieces: []*chop.Piece{
		{Accesses: []chop.AccessDecl{{Table: "vrows", Cols: cols, Write: true}}, Body: write(wh, w, true)},
		{Accesses: []chop.AccessDecl{{Table: "crows", Cols: cols, Write: true}}, Body: write(cust, c, false)},
	}}
	neworder := &chop.Template{Name: "neworder", Pieces: []*chop.Piece{
		{Accesses: []chop.AccessDecl{{Table: "vrows", Cols: cols}}, Body: read(wh, w)},
		{Accesses: []chop.AccessDecl{{Table: "drows", Cols: cols, Write: true}}, Body: write(dist, d, true)},
		{Accesses: []chop.AccessDecl{{Table: "crows", Cols: cols}}, Body: read(cust, c)},
	}}
	var reg chop.Registry
	reg.Register(payment)
	reg.Register(neworder)
	reg.Analyze()
	if reg.Merges() != 0 {
		t.Fatalf("Analyze merged %d times; the two C-edges must not cross", reg.Merges())
	}

	const workers, per = 8, 150
	res := core.RunN(chop.New(db), workers, per, func(w, seq int) core.TxnFunc {
		rng := rand.New(rand.NewSource(int64(w)*1e6 + int64(seq)))
		ev := &env{w: uint64(rng.Intn(2)), d: uint64(rng.Intn(4)), c: uint64(rng.Intn(8))}
		if rng.Intn(2) == 0 {
			return chop.Call(payment, ev)
		}
		return chop.Call(neworder, ev)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	h.Check(t, "IC3", workers*per)
	t.Logf("aborts by cause: %v", res.Report.AbortsBy)
}

func TestIC3UserAbortRollsBack(t *testing.T) {
	db := core.NewDB(core.Config{})
	tbl := buildKV(db, 1)
	valCol := tbl.Schema.ColIndex("val")
	tmpl := analyzed(&chop.Template{Name: "abort", Pieces: []*chop.Piece{{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}, Write: true}},
		Body: func(pt *chop.PieceTx) error {
			return pt.Update(tbl.Get(0), func(img []byte) {
				tbl.Schema.SetInt64(img, valCol, 99)
			})
		},
	}, {
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}}},
		Body:     func(pt *chop.PieceTx) error { return core.ErrUserAbort },
	}}})
	col := &stats.Collector{}
	if err := chop.New(db).NewSession(0, col).Run(chop.Call(tmpl, nil)); err != nil {
		t.Fatal(err)
	}
	if col.Commits != 0 || col.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d", col.Commits, col.Aborts)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(0).CommittedImage(), valCol); got != 0 {
		t.Fatalf("value = %d after user abort, want 0", got)
	}
}

// TestCallRunsOnlyOnIC3: a Call on another engine's session, a plain
// body on an IC3 session and a template nobody analyzed each fail with an
// error instead of committing an empty transaction.
func TestCallRunsOnlyOnIC3(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	tbl := buildKV(db, 1)
	valCol := tbl.Schema.ColIndex("val")
	piece := &chop.Piece{
		Accesses: []chop.AccessDecl{{Table: "kv", Cols: []int{valCol}, Write: true}},
		Body: func(pt *chop.PieceTx) error {
			return pt.Update(tbl.Get(0), func(img []byte) { tbl.Schema.AddInt64(img, valCol, 1) })
		},
	}
	tmpl := analyzed(&chop.Template{Name: "incr", Pieces: []*chop.Piece{piece}})
	raw := &chop.Template{Name: "raw", Pieces: []*chop.Piece{piece}}
	plain := func(tx core.Tx) error {
		return tx.Update(tbl.Get(0), func(img []byte) { tbl.Schema.AddInt64(img, valCol, 1) })
	}

	lockCol, ic3Col := &stats.Collector{}, &stats.Collector{}
	if err := core.NewLockEngine(db).NewSession(0, lockCol).Run(chop.Call(tmpl, nil)); err == nil {
		t.Error("chop.Call on a lock-engine session returned nil")
	}
	ic3 := chop.New(db).NewSession(0, ic3Col)
	if err := ic3.Run(plain); err == nil {
		t.Error("a non-Call body on an IC3 session returned nil")
	}
	if err := ic3.Run(chop.Call(raw, nil)); err == nil {
		t.Error("an unanalyzed template ran")
	}
	if n := lockCol.Commits + ic3Col.Commits; n != 0 {
		t.Errorf("%d commits from rejected transactions", n)
	}
	if err := ic3.Run(chop.Call(tmpl, nil)); err != nil || ic3Col.Commits != 1 {
		t.Fatalf("Call on the IC3 session: err=%v commits=%d", err, ic3Col.Commits)
	}
}

// TestEngineNamesItsDB: the engine that wraps a DB built from a zero
// Config names its live report, /metrics and /debug/vars protocol — not
// the zero Variant's NO_WAIT.
func TestEngineNamesItsDB(t *testing.T) {
	for want, wrap := range map[string]func(*core.DB) core.Engine{
		"IC3":  func(db *core.DB) core.Engine { return chop.New(db) },
		"SILO": func(db *core.DB) core.Engine { return occ.New(db) },
	} {
		db := core.NewDB(core.Config{MetricsAddr: "127.0.0.1:0"})
		e := wrap(db)
		if got := db.LiveReport().Protocol; got != want || e.Name() != want {
			t.Errorf("engine %s: live report protocol %q, want %q", e.Name(), got, want)
		}
		db.Close()
	}
}

// TestSessionsGatePolling: IC3's and Silo's sessions count towards the
// poll gate of their DB's waits as the lock engine's do
// (core.DB.NewWaiter): a session for a worker past GOMAXPROCS stops the
// waits polling.
func TestSessionsGatePolling(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for name, wrap := range map[string]func(*core.DB) core.Engine{
		"IC3":  func(db *core.DB) core.Engine { return chop.New(db) },
		"SILO": func(db *core.DB) core.Engine { return occ.New(db) },
	} {
		db := core.NewDB(core.Config{})
		e := wrap(db)
		e.NewSession(procs-1, &stats.Collector{})
		if !db.NewWaiter(0).Polls() {
			t.Errorf("%s: waits do not poll with sessions for %d workers at GOMAXPROCS %d", name, procs, procs)
		}
		e.NewSession(procs, &stats.Collector{})
		if db.NewWaiter(0).Polls() {
			t.Errorf("%s: waits poll with a session for worker %d at GOMAXPROCS %d", name, procs, procs)
		}
		db.Close()
	}
}

// TestNewRefusesUnsupportedSettings: IC3 takes no checkpoint gate, its
// piece installs are uncommitted, and it installs no versions, so New
// panics, naming the setting, on a DB configured with Checkpoint or MVCC
// instead of running it wrong.
func TestNewRefusesUnsupportedSettings(t *testing.T) {
	for name, mk := range map[string]func(dir string) core.Config{
		"Checkpoint": func(dir string) core.Config {
			return core.Config{WALDir: filepath.Join(dir, "wal"),
				Checkpoint: core.CheckpointConfig{Dir: filepath.Join(dir, "ckpt")}}
		},
		"MVCC": func(string) core.Config { return core.Config{MVCC: true} },
	} {
		t.Run(name, func(t *testing.T) {
			db := core.NewDB(mk(t.TempDir()))
			defer db.Close()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("New accepted Config.%s", name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "Config."+name) {
					t.Fatalf("panic %q does not name Config.%s", msg, name)
				}
			}()
			chop.New(db)
		})
	}
}
