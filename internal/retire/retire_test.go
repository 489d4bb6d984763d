package retire_test

import (
	"strings"
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/retire"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
)

func buildTable(db *core.DB, name string, rows int) *storage.Table {
	schema := storage.NewSchema(name,
		storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, rows)
	for k := 0; k < rows; k++ {
		tbl.MustInsertRow(uint64(k), nil)
	}
	return tbl
}

func manualDB() *core.DB {
	cfg := core.Bamboo()
	cfg.RetireWrites = false
	return core.NewDB(cfg)
}

func incr(tbl *storage.Table) func(img []byte, env *retire.Env) {
	return func(img []byte, _ *retire.Env) { tbl.Schema.AddInt64(img, 0, 1) }
}

// TestListing1and2 reproduces the paper's Listings 1–2: op1 writes tup1 of
// table1; op2 may later write tup2 of the same table, guarded by cond.
// The synthesized retire condition is "!cond || tup1.key != tup2.key".
func TestListing1and2(t *testing.T) {
	db := manualDB()
	tbl := buildTable(db, "table1", 16)

	prog := &retire.Program{Stmts: []retire.Stmt{
		&retire.Access{Name: "op1", Table: tbl, Key: retire.Var("k1"), Write: true, Mutate: incr(tbl)},
		retire.Assign{Var: "k2", Expr: retire.Fn([]string{"input"}, func(v ...int64) int64 { return v[0] % 16 })},
		retire.If{Cond: retire.Var("cond"), Then: []retire.Stmt{
			&retire.Access{Name: "op2", Table: tbl, Key: retire.Var("k2"), Write: true, Mutate: incr(tbl)},
		}},
	}}
	plan := retire.Analyze(prog)
	if rule := plan.Rule("op1"); !strings.Contains(rule, "key(op2) != key(op1)") {
		t.Fatalf("op1 rule = %q, want synthesized key comparison", rule)
	}
	if rule := plan.Rule("op2"); rule != "always" {
		t.Fatalf("op2 rule = %q, want always (last access of the table)", rule)
	}

	in := retire.NewInterpreter(prog, plan)
	sess := core.NewLockEngine(db).NewSession(0, newCollector())

	// cond true, same key: op1 must NOT retire early (2nd write would hit
	// a retired lock); the interpreter must still execute correctly.
	if err := sess.Run(func(tx core.Tx) error {
		return in.Run(tx, map[string]int64{"k1": 3, "input": 3, "cond": 1})
	}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(3).Entry.CurrentData(), 0); got != 2 {
		t.Fatalf("row 3 = %d, want 2 (both writes)", got)
	}

	// cond true, different keys: retire fires, both rows written once.
	if err := sess.Run(func(tx core.Tx) error {
		return in.Run(tx, map[string]int64{"k1": 4, "input": 5, "cond": 1})
	}); err != nil {
		t.Fatal(err)
	}
	if tbl.Schema.GetInt64(tbl.Get(4).Entry.CurrentData(), 0) != 1 ||
		tbl.Schema.GetInt64(tbl.Get(5).Entry.CurrentData(), 0) != 1 {
		t.Fatal("different-key case wrong")
	}

	// cond false: retire fires; op2 not executed.
	if err := sess.Run(func(tx core.Tx) error {
		return in.Run(tx, map[string]int64{"k1": 6, "input": 6, "cond": 0})
	}); err != nil {
		t.Fatal(err)
	}
	if tbl.Schema.GetInt64(tbl.Get(6).Entry.CurrentData(), 0) != 1 {
		t.Fatal("cond-false case wrong")
	}
}

// TestListing3and4 reproduces the loop-fission example: a fixed-count
// loop writing key[i] = f(input2[i]) retires iteration i's lock only when
// no later iteration reuses the key.
func TestListing3and4(t *testing.T) {
	db := manualDB()
	tbl := buildTable(db, "table", 16)

	// key(i) = input2_i (inputs passed as input2_0..input2_n-1).
	keyExpr := retire.Expr{
		Deps: []string{"i"},
		Eval: func(env *retire.Env) int64 {
			return env.Get("input2_" + itoa(env.Get("i")))
		},
	}
	prog := &retire.Program{Stmts: []retire.Stmt{
		retire.For{Idx: "i", Count: retire.Var("input1"), Body: []retire.Stmt{
			&retire.Access{Name: "loopw", Table: tbl, Key: keyExpr, Write: true, Mutate: incr(tbl)},
		}},
	}}
	plan := retire.Analyze(prog)
	if rule := plan.Rule("loopw"); !strings.Contains(rule, "later iteration") {
		t.Fatalf("loop rule = %q", rule)
	}

	in := retire.NewInterpreter(prog, plan)
	sess := core.NewLockEngine(db).NewSession(0, newCollector())

	// Keys 7, 9, 7: iteration 0 must NOT retire (key 7 reused at i=2);
	// iterations 1 and 2 retire. The repeated write works because the
	// lock stays unretired.
	err := sess.Run(func(tx core.Tx) error {
		return in.Run(tx, map[string]int64{
			"input1": 3, "input2_0": 7, "input2_1": 9, "input2_2": 7,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(7).Entry.CurrentData(), 0); got != 2 {
		t.Fatalf("row 7 = %d, want 2", got)
	}
	if got := tbl.Schema.GetInt64(tbl.Get(9).Entry.CurrentData(), 0); got != 1 {
		t.Fatalf("row 9 = %d, want 1", got)
	}
}

// TestLastTableAccessRetiresAlways checks the simple case: a write to a
// table never touched again retires unconditionally.
func TestLastTableAccessRetiresAlways(t *testing.T) {
	db := manualDB()
	t1 := buildTable(db, "t1", 4)
	t2 := buildTable(db, "t2", 4)
	prog := &retire.Program{Stmts: []retire.Stmt{
		&retire.Access{Name: "w1", Table: t1, Key: retire.Const(0), Write: true, Mutate: incr(t1)},
		&retire.Access{Name: "w2", Table: t2, Key: retire.Const(1), Write: true, Mutate: incr(t2)},
		&retire.Access{Name: "r1", Table: t2, Key: retire.Const(2)},
	}}
	plan := retire.Analyze(prog)
	if plan.Rule("w1") != "always" {
		t.Fatalf("w1 = %q", plan.Rule("w1"))
	}
	// w2's table is read again later (reads of the same tuple would be
	// fine, but the key differs only at runtime): condition synthesized.
	if plan.Rule("w2") == "always" || plan.Rule("w2") == "never" {
		t.Fatalf("w2 = %q, want synthesized condition", plan.Rule("w2"))
	}
	in := retire.NewInterpreter(prog, plan)
	sess := core.NewLockEngine(db).NewSession(0, newCollector())
	if err := sess.Run(func(tx core.Tx) error { return in.Run(tx, nil) }); err != nil {
		t.Fatal(err)
	}
}

// TestRetireVisibleToConcurrentReader is the end-to-end §3.3 story: with
// the synthesized retire point, a concurrent transaction can read the
// dirty value before the writer commits.
func TestRetireVisibleToConcurrentReader(t *testing.T) {
	db := manualDB()
	tbl := buildTable(db, "hot", 4)
	prog := &retire.Program{Stmts: []retire.Stmt{
		&retire.Access{Name: "w", Table: tbl, Key: retire.Const(0), Write: true, Mutate: incr(tbl)},
	}}
	plan := retire.Analyze(prog)
	in := retire.NewInterpreter(prog, plan)

	e := core.NewLockEngine(db)
	writerDone := make(chan struct{})
	readerSaw := make(chan int64)
	go func() {
		sess := e.NewSession(0, newCollector())
		_ = sess.Run(func(tx core.Tx) error {
			if err := in.Run(tx, nil); err != nil {
				return err
			}
			// Lock retired: a concurrent reader sees the dirty value now,
			// before this transaction commits.
			go func() {
				sess2 := e.NewSession(1, newCollector())
				_ = sess2.Run(func(tx2 core.Tx) error {
					img, err := tx2.Read(tbl.Get(0))
					if err != nil {
						return err
					}
					readerSaw <- tbl.Schema.GetInt64(img, 0)
					return nil
				})
			}()
			if got := <-readerSaw; got != 1 {
				t.Errorf("concurrent reader saw %d, want dirty 1", got)
			}
			return nil
		})
		close(writerDone)
	}()
	<-writerDone
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func newCollector() *stats.Collector { return &stats.Collector{} }

// TestReadThenWriteUpgradesInPlace covers the IR shape the executor used
// to hard-reject: a program that reads a tuple and later writes the same
// tuple. The write access now upgrades the SH lock in place and the
// synthesized retire point still applies to the upgraded lock.
func TestReadThenWriteUpgradesInPlace(t *testing.T) {
	db := manualDB()
	tbl := buildTable(db, "rmw", 8)

	prog := &retire.Program{Stmts: []retire.Stmt{
		&retire.Access{Name: "rd", Table: tbl, Key: retire.Var("k"), Write: false},
		&retire.Access{Name: "wr", Table: tbl, Key: retire.Var("k"), Write: true, Mutate: incr(tbl)},
	}}
	plan := retire.Analyze(prog)
	// The write is the table's last access: it retires unconditionally.
	if rule := plan.Rule("wr"); rule != "always" {
		t.Fatalf("wr rule = %q, want always", rule)
	}
	in := retire.NewInterpreter(prog, plan)

	e := core.NewLockEngine(db)
	sess := e.NewSession(0, newCollector())
	for k := int64(0); k < 4; k++ {
		if err := sess.Run(func(tx core.Tx) error {
			return in.Run(tx, map[string]int64{"k": k})
		}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	for k := int64(0); k < 4; k++ {
		if got := tbl.Schema.GetInt64(tbl.Get(uint64(k)).Entry.CurrentData(), 0); got != 1 {
			t.Fatalf("row %d = %d, want 1", k, got)
		}
	}
}
