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
//
// Extension beyond the original: access modes are optional. A piece
// whose declarations carry no Write flag is analyzed conservatively
// (every declared access a potential write) and discovers its modes at
// runtime — an Update after a Read of the same row promotes the access
// SH→EX in place, the same upgrade semantics the lock engines expose —
// so a workload's un-annotated read-then-update bodies run under IC3
// without per-piece write-set declarations.
package chop

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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
	// Write marks the access as an update. The mode is optional: a piece
	// none of whose accesses declares Write is un-annotated — the
	// analysis treats every one of its accesses as a potential write
	// (conservative C-edges), and the actual mode is discovered at
	// runtime, where an Update after a Read of the same row promotes the
	// access SH→EX in place (see Tx.promote). Declaring modes buys the
	// precise column-level analysis; omitting them buys not having to
	// know the write set per piece.
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
	// whole transaction finally; other errors abort and retry.
	Body func(pt *PieceTx) error

	masks map[string]uint64 // table → column mask, from Analyze
	// lastConflict[t] is the highest piece index of template t that
	// conflicts with this piece (-1 if none), from Analyze. Used to
	// inherit dependency order across pieces: a transaction must not
	// execute this piece until every transaction it depends on has
	// finished its conflicting pieces, which keeps the commit-dependency
	// graph acyclic (IC3's piece-ordering enforcement).
	lastConflict map[*Template]int
}

// annotated reports whether the piece declares any access mode. An
// un-annotated piece's accesses must be analyzed as potential writes:
// the runtime may promote any of them to a write in place.
func (p *Piece) annotated() bool {
	for _, a := range p.Accesses {
		if a.Write {
			return true
		}
	}
	return false
}

// conflictsWith reports whether two piece templates have a column-level
// conflict: same table, overlapping columns, at least one side writing —
// where an access of an un-annotated piece counts as writing, since
// nothing rules the write out statically.
func (p *Piece) conflictsWith(q *Piece) bool {
	pAnn, qAnn := p.annotated(), q.annotated()
	for _, a := range p.Accesses {
		for _, b := range q.Accesses {
			if a.Table != b.Table || !(a.Write || !pAnn || b.Write || !qAnn) {
				continue
			}
			if a.mask()&b.mask() != 0 {
				return true
			}
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
	for {
		if !r.mergeOneCrossing() {
			break
		}
		r.merges++
	}
	for _, t := range r.templates {
		for _, p := range t.Pieces {
			p.masks = make(map[string]uint64, len(p.Accesses))
			for _, a := range p.Accesses {
				p.masks[a.Table] |= a.mask()
			}
		}
	}
	for _, t := range r.templates {
		for _, p := range t.Pieces {
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

// rowState is the per-row accessor list hung on Row.Aux.
type rowState struct {
	mu   chan struct{} // 1-buffered channel used as a latch
	accs []*access
	seq  uint64 // never-reused install counter (see internal/lock)
}

func newRowState() *rowState {
	rs := &rowState{mu: make(chan struct{}, 1)}
	return rs
}

func (rs *rowState) lock()   { rs.mu <- struct{}{} }
func (rs *rowState) unlock() { <-rs.mu }

// access is one transaction-piece's access to one row.
type access struct {
	t     *txn.Txn
	owner *Tx
	mask  uint64
	write bool
	done  bool // the owning piece finished

	// write bookkeeping
	local      []byte
	installed  bool
	installSeq uint64
	unwound    bool
	prev       *[]byte
	row        *storage.Row
	rs         *rowState
}

func conflict(a, b *access) bool {
	return a.mask&b.mask != 0 && (a.write || b.write)
}

// errTimeout triggers a defensive retry when a piece waits implausibly
// long (a liveness valve; chopping guarantees should prevent it).
var errTimeout = errors.New("chop: piece wait timeout")

// waitTimeout is how long a piece may wait for conflicting pieces or
// dependencies before it aborts and retries; commitWait allows ten times
// as long.
const waitTimeout = 50 * time.Millisecond

// name is the protocol display name, the paper's legend.
const name = "IC3"

// Engine executes chopped transactions over a core.DB's catalog, commit
// log and commit hook. It implements core.Engine; its sessions run
// transactions written as Call(tmpl, env).
type Engine struct {
	db      *core.DB
	prepare sync.Once
}

var _ core.Engine = (*Engine)(nil)

// New wraps db in an IC3 engine. The tables may be loaded after New: the
// rows present at the first NewSession get their IC3 state then, and rows
// inserted by IC3 transactions get it at commit. It panics if db's Config
// sets Checkpoint or MVCC, which IC3 cannot honour (core.DB.Claim).
func New(db *core.DB) *Engine {
	db.Claim(name)
	return &Engine{db: db}
}

// Name implements core.Engine.
func (e *Engine) Name() string { return name }

// Database implements core.Engine.
func (e *Engine) Database() *core.DB { return e.db }

func prepareRow(r *storage.Row) {
	if r.Aux == nil {
		r.Aux = newRowState()
	}
	if r.OCCImage.Load() == nil {
		d := r.Entry.CurrentData()
		r.OCCImage.Store(&d)
	}
}

// session executes chopped transactions for one worker.
type session struct {
	e      *Engine
	worker int
	col    *stats.Collector
	rng    *rand.Rand
	log    core.CommitLog
}

// NewSession implements core.Engine. The first call prepares every row
// loaded so far.
func (e *Engine) NewSession(worker int, col *stats.Collector) core.Session {
	e.prepare.Do(func() {
		for _, name := range e.db.Catalog.Tables() {
			e.db.Catalog.Table(name).Range(func(_ uint64, r *storage.Row) bool {
				prepareRow(r)
				return true
			})
		}
	})
	col.AttachLive(e.db.LiveStats())
	return &session{e: e, worker: worker, col: col,
		rng: rand.New(rand.NewSource(int64(worker)*6553 + 17)),
		log: e.db.NewCommitLog()}
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
	return s.run(c.tmpl, c.env)
}

// retryBackoff sleeps a jittered, attempt-scaled amount before retrying
// an aborted transaction. Retrying immediately can livelock on few-core
// hosts: two transactions that cascade-abort (or timeout) each other
// restart in lockstep and re-create the same conflict forever — the
// jitter breaks the symmetry, and the escalation yields the CPU to
// whichever transaction can actually finish. The cap is the lock
// engine's abort-only backoff, core.DefaultAbortBackoff (DBx1000's
// ABORT_PENALTY): for IC3 the jitter is a liveness requirement, not a
// tuning option.
func (s *session) retryBackoff(attempt int) {
	runtime.Gosched()
	scale := attempt
	if scale > 8 {
		scale = 8
	}
	if d := core.DefaultAbortBackoff / 8 * time.Duration(scale); d > 0 {
		time.Sleep(time.Duration(s.rng.Int63n(int64(d))))
	}
}

// Tx is the running transaction state shared by its pieces.
type Tx struct {
	e        *Engine
	t        *txn.Txn
	tmpl     *Template
	env      any
	col      *stats.Collector
	workerID int
	deps     map[*Tx]struct{}
	accs     []*access
	inserts  []insertOp
	// progress is the number of pieces completed, read by dependents
	// enforcing piece order.
	progress atomic.Int32
	// timing
	waited time.Duration
}

type insertOp struct {
	tbl *storage.Table
	key uint64
	img []byte
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
	pt.tx.inserts = append(pt.tx.inserts, insertOp{tbl, key, img})
	return nil
}

// attach waits for conflicting unfinished accesses, records dependencies,
// and registers this transaction's access.
func (tx *Tx) attach(row *storage.Row, piece *Piece, write bool) (*access, error) {
	rs, _ := row.Aux.(*rowState)
	if rs == nil {
		return nil, fmt.Errorf("chop: row of table %s not prepared", row.Table.Schema.Name)
	}
	mask := piece.masks[row.Table.Schema.Name]
	if mask == 0 {
		return nil, fmt.Errorf("chop: piece accesses undeclared table %s", row.Table.Schema.Name)
	}
	// Re-access within the running piece: reuse the existing access so
	// earlier mutations are not lost. A write after a read of the same
	// row promotes the read access in place rather than stacking a
	// second access next to it — the chop-side analogue of the lock
	// manager's SH→EX upgrade, and what lets un-annotated piece bodies
	// run read-then-update without pre-declaring their write set.
	for i := len(tx.accs) - 1; i >= 0; i-- {
		if a := tx.accs[i]; a.row == row && !a.done {
			if !write || a.write {
				return a, nil
			}
			return tx.promote(a)
		}
	}
	mine := &access{t: tx.t, owner: tx, mask: mask, write: write, row: row, rs: rs}
	if err := tx.waitConflicts(rs, func(a *access) bool { return conflict(a, mine) }); err != nil {
		return nil, err
	}
	cur := *row.OCCImage.Load()
	if write {
		mine.local = bytes.Clone(cur)
	} else {
		mine.local = cur
	}
	rs.accs = append(rs.accs, mine)
	tx.accs = append(tx.accs, mine)
	rs.unlock()
	return mine, nil
}

// promote upgrades a same-piece read access to a write in place,
// mirroring the lock manager's SH→EX upgrade semantics: the read hold is
// never given up, so an upgraded read-modify-write cannot lose an
// update. Becoming a writer creates conflicts with the plain readers the
// access previously commuted with, so promote first waits for every
// unfinished overlapping access of other transactions to finish its
// piece, then records commit dependencies on all overlapping accessors
// and re-clones the row image — the read path aliases the published
// image, which a writer must never mutate in place. Two running pieces
// promoting against each other on the same row are a symmetric upgrade
// deadlock; the wait deadline converts it into an abort-and-retry, the
// same resolution the lock engine reaches by wounding.
func (tx *Tx) promote(a *access) (*access, error) {
	rs := a.rs
	if err := tx.waitConflicts(rs, func(b *access) bool { return b.mask&a.mask != 0 }); err != nil {
		return nil, err
	}
	a.write = true
	a.local = bytes.Clone(*a.row.OCCImage.Load())
	rs.unlock()
	if tx.col != nil {
		tx.col.Add(stats.Upgrades, 1)
	}
	return a, nil
}

// waitConflicts waits until no unfinished access of another transaction
// on rs conflicts (per conflicts) with the one being placed, then records
// commit-order dependencies on every conflicting accessor still present
// (their pieces finished; they have not committed). It returns with rs
// latched, or unlatched with an error when the transaction is aborting
// or the wait exceeds waitTimeout.
func (tx *Tx) waitConflicts(rs *rowState, conflicts func(*access) bool) error {
	// The deadline runs from the first moment the wait blocks: an access
	// that finds no blocker reads no clock.
	var deadline time.Time
	// One escalating backoff counter for the whole wait: resetting it
	// per blocker keeps the loop in the busy-yield phase forever when
	// blockers keep trading places, which on a 1-CPU host (worse under
	// -race, which serializes goroutines further) can starve the very
	// goroutine that would resolve the conflict. Carrying the counter
	// across blockers escalates to real sleeps and lets it run.
	spin := 0
	rs.lock()
	for {
		if tx.t.Aborting() {
			rs.unlock()
			return lock.ErrAborting
		}
		var blocker *access
		for _, a := range rs.accs {
			if a.t != tx.t && !a.done && !a.unwound && conflicts(a) {
				blocker = a
				break
			}
		}
		if blocker == nil {
			break
		}
		rs.unlock()
		waitStart := time.Now()
		if deadline.IsZero() {
			deadline = waitStart.Add(waitTimeout)
		}
		for ; ; spin++ {
			if tx.t.Aborting() {
				tx.waited += time.Since(waitStart)
				return lock.ErrAborting
			}
			if blockerResolved(rs, blocker) {
				break
			}
			if time.Now().After(deadline) {
				tx.waited += time.Since(waitStart)
				return errTimeout
			}
			lock.Backoff(spin)
		}
		tx.waited += time.Since(waitStart)
		rs.lock()
	}
	for _, a := range rs.accs {
		if a.t != tx.t && !a.unwound && conflicts(a) {
			if tx.deps == nil {
				tx.deps = make(map[*Tx]struct{}, 8)
			}
			tx.deps[a.owner] = struct{}{}
		}
	}
	return nil
}

// blockerResolved reports whether the blocking access finished or left.
func blockerResolved(rs *rowState, b *access) bool {
	rs.lock()
	defer rs.unlock()
	if b.done || b.unwound {
		return true
	}
	for _, a := range rs.accs {
		if a == b {
			return false
		}
	}
	return true // removed (its transaction terminated)
}

// finishPiece publishes the piece's writes and marks its accesses done.
// Installs are column-granular: only the piece's declared columns are
// merged into the row image, so writers of disjoint columns — which IC3's
// analysis deliberately does not order — commute instead of clobbering
// each other.
func (tx *Tx) finishPiece(from int) {
	for _, a := range tx.accs[from:] {
		a.rs.lock()
		if a.write && !a.unwound {
			a.rs.seq++
			a.installSeq = a.rs.seq
			cur := a.row.OCCImage.Load()
			a.prev = cur
			merged := bytes.Clone(*cur)
			a.row.Table.Schema.CopyCols(merged, a.local, a.mask)
			a.row.OCCImage.Store(&merged)
			a.installed = true
		}
		a.done = true
		a.rs.unlock()
	}
}

// rollback restores installed writes, cascades aborts to conflicting
// successors, and removes the transaction's accesses.
func (tx *Tx) rollback() {
	for i := len(tx.accs) - 1; i >= 0; i-- {
		a := tx.accs[i]
		rs := a.rs
		rs.lock()
		pos := -1
		for j, x := range rs.accs {
			if x == a {
				pos = j
				break
			}
		}
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
			cur := a.row.OCCImage.Load()
			merged := bytes.Clone(*cur)
			a.row.Table.Schema.CopyCols(merged, *a.prev, a.mask)
			a.row.OCCImage.Store(&merged)
			for _, x := range rs.accs {
				if x != a && x.installed && x.installSeq > a.installSeq &&
					x.mask&a.mask != 0 && x.write {
					x.unwound = true
				}
			}
		}
		if pos >= 0 {
			rs.accs = append(rs.accs[:pos], rs.accs[pos+1:]...)
		}
		rs.unlock()
	}
	tx.accs = nil
	tx.t.FinishAbort()
}

// detach removes a committed transaction's accesses.
func (tx *Tx) detach() {
	for _, a := range tx.accs {
		a.rs.lock()
		for j, x := range a.rs.accs {
			if x == a {
				a.rs.accs = append(a.rs.accs[:j], a.rs.accs[j+1:]...)
				break
			}
		}
		a.rs.unlock()
	}
}

// run executes one logical chopped transaction, retrying protocol aborts
// with a jittered backoff between attempts.
func (s *session) run(t *Template, env any) error {
	id := s.e.db.NextTxnID()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			s.retryBackoff(attempt)
		}
		tt := txn.New(id)
		tx := &Tx{e: s.e, t: tt, tmpl: t, env: env, col: s.col, workerID: s.worker}
		start := time.Now()
		err := s.execute(tx, t)
		exec := time.Since(start) - tx.waited

		switch {
		case err == nil && !tt.Aborting():
			commitWait, ok := s.commitWait(tx)
			if ok && tt.BeginCommit() {
				// An error return must leave nothing of the attempt in the
				// access lists, or every transaction ordered behind it
				// times out and retries without end: a failed append rolls
				// back (a record that reached one partition log of several
				// stays there, as core.CommitLog describes); a failed
				// insert follows a durable record and detaches as
				// committed.
				for _, a := range tx.accs {
					if a.write {
						s.log.Update(a.row, a.local)
					}
				}
				for _, ins := range tx.inserts {
					s.log.Insert(ins.tbl, ins.key, ins.img)
				}
				if _, err := s.log.Commit(id); err != nil {
					tx.rollback()
					return err
				}
				for _, ins := range tx.inserts {
					row, err := ins.tbl.InsertRow(ins.key, ins.img)
					if err != nil {
						tx.detach()
						tt.FinishCommit()
						return fmt.Errorf("chop: insert: %w", err)
					}
					img := ins.img
					prepareRow(row)
					row.OCCImage.Store(&img)
				}
				if h := s.e.db.OnCommit(); h != nil {
					h(s.worker, id, 0, tx.accessInfo(), len(tx.inserts))
				}
				tx.detach()
				tt.FinishCommit()
				s.col.RecordCommit(exec, tx.waited, commitWait)
				return nil
			}
			tx.rollback()
			s.col.RecordAbort(tt.Cause(), exec, tx.waited, commitWait)
		case errors.Is(err, core.ErrUserAbort):
			tt.SetCause(txn.CauseUser)
			tx.rollback()
			s.col.RecordAbort(txn.CauseUser, exec, tx.waited, 0)
			return nil
		case err == nil || errors.Is(err, lock.ErrAborting) || errors.Is(err, errTimeout):
			cause := tt.Cause()
			if cause == txn.CauseNone {
				cause = txn.CauseValidation
			}
			tx.rollback()
			s.col.RecordAbort(cause, exec, tx.waited, 0)
		default:
			tx.rollback()
			return err
		}
	}
}

func (s *session) execute(tx *Tx, t *Template) error {
	for _, p := range t.Pieces {
		// IC3's piece-order enforcement: inherit the dependency order
		// established by earlier conflicts. Every transaction we depend
		// on must have finished its pieces that conflict with p before p
		// executes; this keeps the commit-dependency graph acyclic.
		if err := tx.enforcePieceOrder(p); err != nil {
			return err
		}
		from := len(tx.accs)
		pt := &PieceTx{tx: tx, piece: p}
		if err := p.Body(pt); err != nil {
			return err
		}
		tx.finishPiece(from)
		tx.progress.Add(1)
		if tx.t.Aborting() {
			return lock.ErrAborting
		}
	}
	return nil
}

func (tx *Tx) enforcePieceOrder(p *Piece) error {
	if len(tx.deps) == 0 {
		return nil
	}
	// As in waitConflicts: the deadline runs from the first dependency
	// that makes the piece wait (a piece whose dependencies are all far
	// enough along reads no clock), and one escalating counter spans all
	// dependencies, so a transaction polling several slow ones reaches
	// the sleeping phase instead of busy-yielding against them
	// round-robin.
	var waitStart, deadline time.Time
	spin := 0
	for d := range tx.deps {
		need, ok := p.lastConflict[d.tmpl]
		if !ok || need < 0 {
			continue
		}
		for ; int(d.progress.Load()) <= need; spin++ {
			if s := d.t.State(); s == txn.StateCommitted || s == txn.StateAborted {
				break
			}
			if waitStart.IsZero() {
				waitStart = time.Now()
				deadline = waitStart.Add(waitTimeout)
			}
			if tx.t.Aborting() {
				tx.waited += time.Since(waitStart)
				return lock.ErrAborting
			}
			if time.Now().After(deadline) {
				tx.waited += time.Since(waitStart)
				return errTimeout
			}
			lock.Backoff(spin)
		}
	}
	if !waitStart.IsZero() {
		tx.waited += time.Since(waitStart)
	}
	return nil
}

// commitWait blocks until every dependency reached a terminal state,
// failing if any aborted (or this transaction was cascade-aborted). A
// defensive timeout converts any residual ordering anomaly into an abort
// and retry rather than a hang.
func (s *session) commitWait(tx *Tx) (time.Duration, bool) {
	if len(tx.deps) == 0 {
		return 0, !tx.t.Aborting()
	}
	start := time.Now()
	deadline := start.Add(10 * waitTimeout)
	for dep := range tx.deps {
		for i := 0; ; i++ {
			if tx.t.Aborting() {
				return time.Since(start), false
			}
			switch dep.t.State() {
			case txn.StateCommitted:
			case txn.StateAborted:
				tx.t.SetAbort(txn.CauseCascade)
				return time.Since(start), false
			default:
				if time.Now().After(deadline) {
					tx.t.SetAbort(txn.CauseValidation)
					return time.Since(start), false
				}
				lock.Backoff(i)
				continue
			}
			break
		}
	}
	return time.Since(start), !tx.t.Aborting()
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
