// Package chop implements IC3 (Wang et al., "Scaling Multicore Databases
// via Constrained Parallel Execution", SIGMOD 2016), the transaction
// chopping baseline of the paper's §5.6.
//
// Transactions are registered as templates chopped into pieces, each
// declaring the tables and *columns* it reads or writes. A static analysis
// pass (Analyze) builds column-level C-edges between piece templates and
// merges pieces whose C-edges would cross — the chopping constraint that
// avoids deadlock (§2.2). At runtime, pieces pipeline: a piece may execute
// as soon as the conflicting pieces of earlier transactions have finished
// (not committed), its writes become visible when the piece completes, and
// commit order follows the accumulated dependencies. Aborts cascade to
// dependent transactions, as with any scheme exposing uncommitted writes.
//
// Deviation from the original: IC3's optional optimistic piece execution
// (validate instead of wait) is not implemented; pieces always wait for
// conflicting predecessors to finish. The column-level analysis — the
// mechanism responsible for Figure 11's shape — is implemented in full.
// No wait has a deadline: a wait that would close a cycle of waits
// aborts one attempt of the cycle at once instead (Tx.waitOn).
//
// The declarations are the whole truth at run time too: a piece touches
// a row of a table it declares Write on exclusively from the first touch,
// Read or Update, and an Update of a table it does not declare Write on
// is an error. The run-time conflict test and the static C-edges thus
// read the same declaration, and an Update after a Read of the same row
// never waits.
package chop

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/lock"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
)

// AccessDecl declares one table/column-set access of a piece.
type AccessDecl struct {
	Table string
	// Cols are the column indexes touched (≤64 columns per table).
	Cols []int
	// Write lets the piece Update rows of Table. The piece then holds
	// every row of Table it touches, read or updated, exclusively on its
	// declared columns until it finishes; without Write, PieceTx.Update
	// of a row of Table returns an error.
	Write bool
}

func (d AccessDecl) mask() uint64 {
	var m uint64
	for _, c := range d.Cols {
		if c < 0 || c >= 64 {
			panic(fmt.Sprintf("chop: column index %d out of range", c))
		}
		m |= 1 << uint(c)
	}
	return m
}

// Piece is one piece template: its declared accesses and its body.
type Piece struct {
	Accesses []AccessDecl
	// Body executes the piece. Returning core.ErrUserAbort aborts the
	// whole transaction finally, a core.Abort retries it, and any other
	// error rolls it back and ends the Run with that error.
	Body func(pt *PieceTx) error

	tables map[string]tableDecl // from Analyze
	// lastConflict[t] is the highest piece index of template t that
	// conflicts with this piece (-1 if none), from Analyze. Used to
	// inherit dependency order across pieces: a transaction must not
	// execute this piece until every transaction it depends on has
	// finished its conflicting pieces, which keeps the commit-dependency
	// graph acyclic (IC3's piece-ordering enforcement).
	lastConflict map[*Template]int
}

// tableDecl is a piece's declaration on one table: the union of its
// declared columns, and whether any of its accesses declares Write.
type tableDecl struct {
	mask  uint64
	write bool
}

// declared folds the piece's access declarations by table.
func (p *Piece) declared() map[string]tableDecl {
	m := make(map[string]tableDecl, len(p.Accesses))
	for _, a := range p.Accesses {
		d := m[a.Table]
		d.mask |= a.mask()
		d.write = d.write || a.Write
		m[a.Table] = d
	}
	return m
}

// conflictsWith reports whether two piece templates have a column-level
// conflict: a table both declare, overlapping columns, and Write declared
// by at least one side — the test conflict makes at run time.
func (p *Piece) conflictsWith(q *Piece) bool {
	qd := q.declared()
	for t, a := range p.declared() {
		if b, ok := qd[t]; ok && a.mask&b.mask != 0 && (a.write || b.write) {
			return true
		}
	}
	return false
}

// Template is a chopped transaction type.
type Template struct {
	Name   string
	Pieces []*Piece

	analyzed bool // set by Registry.Analyze
}

// Registry holds the workload's templates; IC3 requires the full workload
// to be known before execution (the paper's §2.2 critique).
type Registry struct {
	templates []*Template
	analyzed  bool
	merges    int
}

// Register adds a template. Must precede Analyze.
func (r *Registry) Register(t *Template) {
	if r.analyzed {
		panic("chop: Register after Analyze")
	}
	r.templates = append(r.templates, t)
}

// Merges reports how many piece merges Analyze performed (0 for TPC-C's
// NewOrder+Payment mix, whose table orders agree).
func (r *Registry) Merges() int { return r.merges }

// Analyze performs the static chopping analysis: pieces of different
// templates whose C-edges cross (template A touches conflicting tables in
// one order, template B in the other) are merged until no crossing
// remains, exactly as transaction chopping requires to stay
// deadlock-free.
func (r *Registry) Analyze() {
	for r.mergeOneCrossing() {
		r.merges++
	}
	for _, t := range r.templates {
		for _, p := range t.Pieces {
			p.tables = p.declared()
			p.lastConflict = make(map[*Template]int, len(r.templates))
			for _, u := range r.templates {
				last := -1
				for j, q := range u.Pieces {
					if p.conflictsWith(q) {
						last = j
					}
				}
				p.lastConflict[u] = last
			}
		}
		t.analyzed = true
	}
	r.analyzed = true
}

func (r *Registry) mergeOneCrossing() bool {
	for _, ta := range r.templates {
		for _, tb := range r.templates {
			if ta == tb {
				continue
			}
			// C-edges (a_i, b_k) and (a_j, b_l) cross when i<j but k>l.
			for i := 0; i < len(ta.Pieces); i++ {
				for j := i + 1; j < len(ta.Pieces); j++ {
					for k := 0; k < len(tb.Pieces); k++ {
						for l := 0; l < k; l++ {
							if ta.Pieces[i].conflictsWith(tb.Pieces[k]) &&
								ta.Pieces[j].conflictsWith(tb.Pieces[l]) {
								mergeRange(ta, i, j)
								mergeRange(tb, l, k)
								return true
							}
						}
					}
				}
			}
		}
	}
	return false
}

// mergeRange fuses pieces [i..j] of t into one piece executing their
// bodies in order with the union of their access declarations.
func mergeRange(t *Template, i, j int) {
	if i == j {
		return
	}
	parts := append([]*Piece(nil), t.Pieces[i:j+1]...)
	merged := &Piece{
		Body: func(pt *PieceTx) error {
			for _, p := range parts {
				if err := p.Body(pt); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for _, p := range parts {
		merged.Accesses = append(merged.Accesses, p.Accesses...)
	}
	t.Pieces = append(t.Pieces[:i], append([]*Piece{merged}, t.Pieces[j+1:]...)...)
}

// rowState is the per-row accessor list hung on Row.Aux at the row's
// first IC3 access (waitConflicts), so a row loaded, recovered or inserted
// at any time needs no preparation. It and the row's image, Entry.Data,
// which installs replace and never write into, are guarded by the row's
// entry latch (Entry.Lock).
type rowState struct {
	accs []*access
	seq  uint64 // never-reused install counter (see internal/lock)
}

// access is one transaction-piece's access to one row.
type access struct {
	t     *txn.Txn
	owner *Tx
	mask  uint64
	excl  bool // the piece declares Write on the row's table
	write bool // the piece updated the row
	done  bool // the owning piece finished

	// write bookkeeping
	local      []byte
	installed  bool
	installSeq uint64
	unwound    bool
	prev       []byte
	row        *storage.Row
	rs         *rowState
}

func conflict(a, b *access) bool {
	return a.mask&b.mask != 0 && (a.excl || b.excl)
}

// name is the protocol display name, the paper's legend.
const name = "IC3"

// Engine executes chopped transactions over a core.DB's catalog, commit
// log and commit hook. It implements core.Engine; its sessions run
// transactions written as Call(tmpl, env).
type Engine struct {
	db *core.DB
	// sessions counts NewSession calls: no more attempts than that run at
	// once, so it bounds a chain of waits (Tx.cycleVictim).
	sessions atomic.Int32
}

var _ core.Engine = (*Engine)(nil)

// New wraps db in an IC3 engine. Rows may be loaded or inserted at any
// time: a row gets its IC3 state at its first access. It panics if db's
// Config sets Checkpoint or MVCC, which IC3 cannot honour
// (core.DB.Claim).
func New(db *core.DB) *Engine {
	db.Claim(name)
	return &Engine{db: db}
}

// Name implements core.Engine.
func (e *Engine) Name() string { return name }

// Database implements core.Engine.
func (e *Engine) Database() *core.DB { return e.db }

// session executes chopped transactions for one worker. It implements
// core.Attempt: Run resolves the Call and hands execute to the attempt
// loop as the body.
type session struct {
	e      *Engine
	worker int
	col    *stats.Collector
	ids    core.TxnIDs
	log    core.CommitLog
	body   core.TxnFunc // execute, bound once

	// The running transaction: its template and environment, and the
	// state of its current attempt.
	tmpl *Template
	env  any
	tx   *Tx
	w    *txn.Waiter // every attempt's transaction parks on it
}

// NewSession implements core.Engine.
func (e *Engine) NewSession(worker int, col *stats.Collector) core.Session {
	col.AttachLive(e.db.LiveStats())
	e.sessions.Add(1)
	s := &session{e: e, worker: worker, col: col, log: e.db.NewCommitLog(), w: e.db.NewWaiter(worker)}
	s.body = s.execute
	return s
}

// Call writes a chopped transaction as a core.TxnFunc: run by an IC3
// session, tmpl's pieces execute with env as PieceTx.Env. tmpl must belong
// to an analyzed Registry. On any other engine's session the body fails
// with an error rather than committing nothing.
func Call(tmpl *Template, env any) core.TxnFunc {
	return func(tx core.Tx) error {
		c, ok := tx.(*call)
		if !ok {
			return fmt.Errorf("chop: transaction %q runs only on an IC3 session", tmpl.Name)
		}
		c.tmpl, c.env = tmpl, env
		return nil
	}
}

// errNotCall rejects a TxnFunc that is not a Call on an IC3 session.
var errNotCall = errors.New("chop: an IC3 session runs only chop.Call transactions")

// call is the core.Tx an IC3 session hands a TxnFunc: Call records its
// template and environment there. Its row operations fail, because an IC3
// transaction touches rows only from its pieces.
type call struct {
	worker int
	tmpl   *Template
	env    any
}

func (*call) Read(*storage.Row) ([]byte, error)           { return nil, errNotCall }
func (*call) Update(*storage.Row, func([]byte)) error     { return errNotCall }
func (*call) Insert(*storage.Table, uint64, []byte) error { return errNotCall }
func (*call) DeclareOps(int)                              {}
func (c *call) Worker() int                               { return c.worker }
func (*call) ID() uint64                                  { return 0 }

// Run implements core.Session: fn must be a Call, whose chopped
// transaction it executes.
func (s *session) Run(fn core.TxnFunc) error {
	c := call{worker: s.worker}
	if err := fn(&c); err != nil {
		return err
	}
	switch {
	case c.tmpl == nil:
		return errNotCall
	case !c.tmpl.analyzed:
		return fmt.Errorf("chop: template %q is not analyzed (Registry.Analyze)", c.tmpl.Name)
	}
	s.tmpl, s.env = c.tmpl, c.env
	return core.RunAttempts(s.e.db, &s.ids, s.col, s, s.body)
}

// Tx is the running transaction state shared by its pieces: one attempt.
// Other transactions keep references to it (dependencies, accesses), so
// every attempt gets a fresh one.
type Tx struct {
	e        *Engine
	t        *txn.Txn
	tmpl     *Template
	env      any
	col      *stats.Collector
	workerID int
	// deps are the attempts this one must commit after, each once, in the
	// order found.
	deps    []*Tx
	accs    []*access
	inserts []core.Insert
	// progress is the number of pieces completed, read by dependents
	// enforcing piece order.
	progress atomic.Int32
	// waited is the attempt's lock wait: time spent behind conflicting
	// pieces and dependencies' progress.
	waited time.Duration
	// pt is the PieceTx the pieces run against, its piece set per piece.
	pt PieceTx
	// watchers are the transactions waiting on this one's progress
	// (waitOn), woken when a piece finishes and when the attempt ends,
	// after its rollback or detach.
	watchers txn.Watchers
	// waitsFor is the attempt this one is blocked on in waitOn (nil when
	// it is not), and waitPast the progress it waits for that attempt to
	// pass: the one edge it has in the wait-for graph (cycleVictim).
	waitsFor atomic.Pointer[Tx]
	waitPast atomic.Int32
}

// PieceTx is the access interface a piece body sees.
type PieceTx struct {
	tx    *Tx
	piece *Piece
}

// Env returns the per-transaction environment value supplied to Run.
func (pt *PieceTx) Env() any { return pt.tx.env }

// Worker returns the session's worker index.
func (pt *PieceTx) Worker() int { return pt.tx.workerID }

// ID returns the logical transaction id.
func (pt *PieceTx) ID() uint64 { return pt.tx.t.ID }

// DeclareOps is a no-op: IC3's scheduling derives from the registered
// templates, not per-transaction declarations. Present so PieceTx
// satisfies core.Tx and piece bodies can share code with the row engines.
func (pt *PieceTx) DeclareOps(int) {}

// Read returns the row image visible to this piece, waiting for
// conflicting pieces of earlier transactions to finish.
func (pt *PieceTx) Read(row *storage.Row) ([]byte, error) {
	a, err := pt.tx.attach(row, pt.piece, false)
	if err != nil {
		return nil, err
	}
	return a.local, nil
}

// Update applies mutate to the transaction's private copy; the result
// becomes visible when the piece completes.
func (pt *PieceTx) Update(row *storage.Row, mutate func(img []byte)) error {
	a, err := pt.tx.attach(row, pt.piece, true)
	if err != nil {
		return err
	}
	mutate(a.local)
	return nil
}

// Insert buffers an insert applied at commit.
func (pt *PieceTx) Insert(tbl *storage.Table, key uint64, img []byte) error {
	pt.tx.inserts = append(pt.tx.inserts, core.Insert{Table: tbl, Key: key, Image: img})
	return nil
}

// attach waits for conflicting unfinished accesses, records dependencies,
// and registers this transaction's access. The access is exclusive if
// the piece declares Write on the row's table, whether its first touch
// is a Read or an Update.
func (tx *Tx) attach(row *storage.Row, piece *Piece, update bool) (*access, error) {
	name := row.Table.Schema.Name
	decl := piece.tables[name]
	switch {
	case decl.mask == 0:
		return nil, fmt.Errorf("chop: piece accesses undeclared table %s", name)
	case update && !decl.write:
		return nil, fmt.Errorf("chop: piece updates table %s, on which it does not declare Write", name)
	}
	// Re-access within the running piece reuses the piece's access, so
	// earlier mutations are not lost. An Update after a Read has nothing
	// to wait for, since the access is exclusive already; it takes a
	// private copy of the image the Read aliased.
	for i := len(tx.accs) - 1; i >= 0; i-- {
		if a := tx.accs[i]; a.row == row && !a.done {
			if update && !a.write {
				a.write = true
				a.local = bytes.Clone(a.local)
				tx.col.Add(stats.Upgrades, 1)
			}
			return a, nil
		}
	}
	mine := &access{t: tx.t, owner: tx, mask: decl.mask, excl: decl.write, write: update, row: row}
	if err := tx.waitConflicts(mine); err != nil {
		return nil, err
	}
	mine.local = row.Entry.Data
	if update {
		mine.local = bytes.Clone(mine.local)
	}
	mine.rs.accs = append(mine.rs.accs, mine)
	tx.accs = append(tx.accs, mine)
	row.Entry.Unlock()
	return mine, nil
}

// waitConflicts waits until no unfinished access of another transaction
// on mine's row conflicts with mine, then records commit-order
// dependencies on every conflicting accessor still present (their pieces
// finished; they have not committed). Under the latch it first sets
// mine.rs, hanging a new rowState on the row at its first access. It
// returns with the row latched, or unlatched with an error when the
// transaction is aborting, a cycle's victim included (waitOn).
func (tx *Tx) waitConflicts(mine *access) error {
	row, latch := mine.row, &mine.row.Entry
	latch.Lock()
	rs, _ := row.Aux.(*rowState)
	if rs == nil {
		rs = &rowState{}
		row.Aux = rs
	}
	mine.rs = rs
	for {
		if tx.t.Aborting() {
			latch.Unlock()
			return tx.abort()
		}
		var blocker *access
		for _, a := range rs.accs {
			if a.t != tx.t && !a.done && !a.unwound && conflict(a, mine) {
				blocker = a
				break
			}
		}
		if blocker == nil {
			break
		}
		// The blocker's piece is running, so its owner's progress, read
		// under the latch finishPiece needs, counts the pieces before it:
		// the blocker is done once the progress passes that count, and
		// gone once its owner ended.
		d, past := blocker.owner, blocker.owner.progress.Load()
		latch.Unlock()
		if !tx.waitOn(d, past, &tx.waited) {
			return tx.abort()
		}
		latch.Lock()
	}
	for _, a := range rs.accs {
		if a.t != tx.t && !a.unwound && conflict(a, mine) && !slices.Contains(tx.deps, a.owner) {
			tx.deps = append(tx.deps, a.owner)
		}
	}
	return nil
}

// waitOn waits until d has finished more than past pieces or ended, and
// reports whether it did: false means tx is aborting. A wait that blocks
// publishes its edge (waitsFor) for as long as it lasts, parks as one of
// d's watchers, and adds the time to *blocked. If the edge closes a cycle
// of waits, which no wake could end, it first aborts the cycle's victim
// (CauseDie), which may be tx itself.
func (tx *Tx) waitOn(d *Tx, past int32, blocked *time.Duration) bool {
	if d.moved(past) {
		return true
	}
	tx.waitPast.Store(past)
	tx.waitsFor.Store(d)
	defer tx.waitsFor.Store(nil)
	if v := tx.cycleVictim(); v != nil {
		v.t.SetAbort(txn.CauseDie)
	}
	start := time.Now()
	ok := d.watchers.Wait(tx.t, func() bool { return d.moved(past) })
	*blocked += time.Since(start)
	return ok
}

// moved reports whether d has finished more than past pieces or ended.
func (d *Tx) moved(past int32) bool {
	s := d.t.State()
	return d.progress.Load() > past || s == txn.StateCommitted || s == txn.StateAborted
}

// cycleVictim returns the attempt with the largest id on the cycle that
// tx's published wait closes, or nil if it closes none. A cycle is a
// chain of waits from tx, each still unmet and its waiter not aborting,
// that leads back to tx, so none of them can end. Every IC3 wait is on
// one other attempt, so the chain has one way on, and a cycle visits each
// session at most once. The attempt whose edge closes a cycle always sees
// it, since it publishes that edge last and an edge is cleared only when
// its wait ends; two that see it at once pick the same victim.
func (tx *Tx) cycleVictim() *Tx {
	x, v := tx, tx
	for n := tx.e.sessions.Load(); n > 0; n-- {
		y := x.waitsFor.Load()
		if y == nil || x.t.Aborting() || y.moved(x.waitPast.Load()) {
			return nil
		}
		if y == tx {
			return v
		}
		if y.t.ID > v.t.ID {
			v = y
		}
		x = y
	}
	return nil
}

// finishPiece publishes the piece's writes and marks its accesses done.
// Installs are column-granular: only the piece's declared columns are
// merged into the row image, so writers of disjoint columns — which IC3's
// analysis deliberately does not order — commute instead of clobbering
// each other.
func (tx *Tx) finishPiece(from int) {
	for _, a := range tx.accs[from:] {
		a.row.Entry.Lock()
		if a.write && !a.unwound {
			a.rs.seq++
			a.installSeq = a.rs.seq
			a.prev = a.row.Entry.Data
			merged := bytes.Clone(a.prev)
			a.row.Table.Schema.CopyCols(merged, a.local, a.mask)
			a.row.Entry.Data = merged
			a.installed = true
		}
		a.done = true
		a.row.Entry.Unlock()
	}
}

// rollback restores installed writes, cascades aborts to conflicting
// successors, and removes the transaction's accesses.
func (tx *Tx) rollback() {
	for i := len(tx.accs) - 1; i >= 0; i-- {
		a := tx.accs[i]
		rs := a.rs
		a.row.Entry.Lock()
		pos := slices.Index(rs.accs, a)
		if a.write && pos >= 0 {
			// Cascade: conflicting accessors after this write observed it.
			for _, x := range rs.accs[pos+1:] {
				if x.t != tx.t && conflict(a, x) {
					x.t.SetAbort(txn.CauseCascade)
				}
			}
		}
		if a.installed && !a.unwound {
			// Column-granular restore: copy this access's columns' pre-
			// values back, leaving concurrent disjoint-column installs
			// intact. Later *conflicting* installs are marked unwound so
			// an out-of-order cascade never resurrects a dirty column
			// (they form a suffix of the same-column chain).
			merged := bytes.Clone(a.row.Entry.Data)
			a.row.Table.Schema.CopyCols(merged, a.prev, a.mask)
			a.row.Entry.Data = merged
			for _, x := range rs.accs {
				if x != a && x.installed && x.installSeq > a.installSeq && x.mask&a.mask != 0 {
					x.unwound = true
				}
			}
		}
		if pos >= 0 {
			rs.accs = slices.Delete(rs.accs, pos, pos+1)
		}
		a.row.Entry.Unlock()
	}
	tx.accs = nil
	tx.t.FinishAbort()
	tx.watchers.WakeAll()
}

// detach removes a committed transaction's accesses.
func (tx *Tx) detach() {
	for _, a := range tx.accs {
		a.row.Entry.Lock()
		if j := slices.Index(a.rs.accs, a); j >= 0 {
			a.rs.accs = slices.Delete(a.rs.accs, j, j+1)
		}
		a.row.Entry.Unlock()
	}
}

// Begin implements core.Attempt.
func (s *session) Begin(id uint64, _ int) core.Tx {
	s.tx = &Tx{e: s.e, t: txn.New(id), tmpl: s.tmpl, env: s.env, col: s.col, workerID: s.worker}
	s.tx.t.SetWaiter(s.w)
	s.tx.pt.tx = s.tx
	return &s.tx.pt
}

// LockWait implements core.Attempt.
func (s *session) LockWait() time.Duration { return s.tx.waited }

// Rollback implements core.Attempt.
func (s *session) Rollback() { s.tx.rollback() }

// abort is the attempt's core.Abort with the cause recorded on the
// transaction: a cascade, or CauseDie for a deadlock victim (waitOn).
func (tx *Tx) abort() error { return core.Abort(tx.t.Cause()) }

// Commit implements core.Attempt: drain the dependencies, then sequence
// the record, apply, detach, and write the record (core.CommitLog). A
// fatal return leaves nothing of the attempt in the access lists, or
// every transaction ordered behind it waits on an attempt that never
// ends: a failed sequencing rolls back (a record that reached one
// partition log of several stays there, as core.CommitLog describes); a
// failed insert follows a sequenced record and detaches as committed.
func (s *session) Commit(time.Duration) (time.Duration, error) {
	tx := s.tx
	commitWait, ok := s.commitWait(tx)
	if !ok || !tx.t.BeginCommit() {
		return commitWait, tx.abort()
	}
	for _, a := range tx.accs {
		if a.write {
			s.log.Update(a.row, a.local)
		}
	}
	for _, ins := range tx.inserts {
		s.log.Insert(ins)
	}
	if _, err := s.log.Submit(tx.t.ID); err != nil {
		tx.rollback()
		return commitWait, err
	}
	err := core.ApplyInserts(tx.inserts, 0)
	if h := s.e.db.OnCommit(); h != nil && err == nil {
		h(s.worker, tx.t.ID, 0, tx.accessInfo(), len(tx.inserts))
	}
	tx.detach()
	tx.t.FinishCommit()
	tx.watchers.WakeAll()
	if err == nil {
		err = s.log.Wait(tx.t)
	}
	return commitWait, err
}

// execute is the body of every IC3 attempt: the template's pieces, in
// order, against the attempt's PieceTx.
func (s *session) execute(ctx core.Tx) error {
	pt := ctx.(*PieceTx)
	tx := pt.tx
	for _, p := range tx.tmpl.Pieces {
		// IC3's piece-order enforcement: inherit the dependency order
		// established by earlier conflicts. Every transaction we depend
		// on must have finished its pieces that conflict with p before p
		// executes. The rule covers only the dependencies known when p
		// starts: one that p's own accesses find (waitConflicts) is never
		// waited on before p finishes, where IC3's run-time rule also makes
		// a piece wait, before it finishes, for the pieces of such a
		// dependency that conflict with it. So p can follow a finished
		// piece of d while a later piece of d that conflicts with p has not
		// run; once it runs, d depends on tx too, and the two commit waits
		// form a cycle, which waitOn ends (TestCommitDependencyCycle).
		for _, d := range tx.deps {
			if need, ok := p.lastConflict[d.tmpl]; ok && need >= 0 && !tx.waitOn(d, int32(need), &tx.waited) {
				return tx.abort()
			}
		}
		from := len(tx.accs)
		pt.piece = p
		if err := p.Body(pt); err != nil {
			return err
		}
		tx.finishPiece(from)
		tx.progress.Add(1)
		tx.watchers.WakeAll()
		if tx.t.Aborting() {
			return tx.abort()
		}
	}
	return nil
}

// commitWait blocks until every dependency reached a terminal state,
// in the order they were found, failing if any aborted or if this
// transaction is aborting: cascaded, or a cycle's victim (waitOn). It
// returns the time it blocked.
func (s *session) commitWait(tx *Tx) (time.Duration, bool) {
	var wait time.Duration
	for _, dep := range tx.deps {
		// No dependency finishes more pieces than MaxInt32: wait for its end.
		if !tx.waitOn(dep, math.MaxInt32, &wait) {
			return wait, false
		}
		if dep.t.State() != txn.StateCommitted {
			tx.t.SetAbort(txn.CauseCascade)
			return wait, false
		}
	}
	return wait, !tx.t.Aborting()
}

func (tx *Tx) accessInfo() []core.AccessInfo {
	out := make([]core.AccessInfo, 0, len(tx.accs))
	for _, a := range tx.accs {
		info := core.AccessInfo{
			Table: a.row.Table.Schema.Name, Key: a.row.Key,
		}
		if a.write {
			info.Mode = lock.EX
			info.Wrote = a.local
		} else {
			info.Mode = lock.SH
			info.Read = a.local
		}
		out = append(out, info)
	}
	return out
}
