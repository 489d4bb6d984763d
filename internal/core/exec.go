package core

import (
	"errors"
	"time"

	"bamboo/internal/lock"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
)

// now is the executor's clock: monotonic time since clockEpoch.
// RunAttempts reads it twice per attempt and Commit only once a commit
// actually waits; no per-operation path reads it. A variable so tests can
// count the reads.
var now = func() time.Duration { return time.Since(clockEpoch) }

// clockEpoch anchors now; only differences are used.
var clockEpoch = time.Now()

// LockEngine is the executor for the lock-based protocols (Bamboo and the
// three 2PL baselines). It implements Engine.
type LockEngine struct{ db *DB }

// NewLockEngine wraps db in an Engine.
func NewLockEngine(db *DB) *LockEngine { return &LockEngine{db: db} }

// Name implements Engine.
func (e *LockEngine) Name() string { return e.db.ProtocolName() }

// Database implements Engine.
func (e *LockEngine) Database() *DB { return e.db }

// NewSession implements Engine. A session owns every piece of per-worker
// state the transaction hot path needs — request freelist, timestamp
// allocator, transaction id block, reusable transaction/access storage
// and the commit log — so steady-state execution does not allocate and
// touches no DB-wide counter.
func (e *LockEngine) NewSession(worker int, col *stats.Collector) Session {
	col.AttachLive(e.db.live)
	s := &lockSession{
		db:     e.db,
		worker: worker,
		col:    col,
		t:      txn.New(0),
		log:    e.db.NewCommitLog(),
	}
	s.alloc = e.db.Lock.NewTSAlloc(worker)
	s.t.SetTSAlloc(s.alloc)
	s.t.SetWaiter(e.db.NewWaiter(worker))
	if e.db.Snap != nil {
		e.db.Snap.Register(worker)
		s.free = &versionFree{}
	}
	s.tx.s = s
	s.tx.t = s.t
	s.tx.db = e.db
	return s
}

type lockSession struct {
	db     *DB
	worker int
	col    *stats.Collector

	// Reused across logical transactions (see Begin).
	pool  lock.Pool
	t     *txn.Txn
	tx    lockTx
	alloc *txn.TSAlloc
	ids   TxnIDs

	// free is the session's MVCC recycling state, nil on a DB without
	// version chains (one pointer, so that a session's size — and with it
	// where the allocator puts it — is what it is without MVCC).
	free *versionFree

	log CommitLog
}

// versionFree holds what a session harvested from the version tails its
// installs detached: nodes feed its next installs, images become the
// spare of a write grant whose pooled request carries none. See
// installVersions.
type versionFree struct {
	nodes []*storage.Version
	imgs  [][]byte
}

// access is one row access of the running attempt; its row is at the
// same position in the attempt's RowSet.
type access struct {
	req     *lock.Request
	mode    lock.Mode
	retired bool
}

// AccessInfo is the verifier-visible view of one access of a committed
// transaction.
type AccessInfo struct {
	Table string
	Key   uint64
	Mode  lock.Mode
	// Read is the image observed (for EX: the installed pre-mutation
	// image the private write copy was built from, lock.Request.Read).
	Read []byte
	// Wrote is the installed after-image (EX only).
	Wrote []byte
	// Dirty reports whether the observed image was uncommitted at grant.
	Dirty bool
}

// lockTx implements Tx over the lock table. One lockTx lives inside each
// session and is reset between attempts instead of reallocated.
type lockTx struct {
	s  *lockSession
	t  *txn.Txn
	db *DB

	// rows are the attempt's rows in access order, and accesses what it
	// holds of each, at the same positions.
	rows     RowSet
	accesses []access
	inserts  []Insert

	lockWait time.Duration

	// MVCC snapshot-read state. snap is the attempt's snapshot timestamp
	// (nonzero iff the attempt runs on the lock-free snapshot path);
	// roFallback records that a snapshot attempt of this logical
	// transaction needed the locking path (it wrote, or read a row with
	// no visible version), so retries stop re-entering snapshot mode.
	snap        uint64
	snapReads   uint64
	roFallback  bool
	declaredOps int32

	// Image-copy telemetry accumulated from released requests
	// (recycleReq) and flushed to the collector at attempt end.
	imgCopies uint32
	imgReuses uint32
}

// reset prepares the lockTx for the next attempt, keeping the backing
// storage of the row set, access list and insert buffer.
func (tx *lockTx) reset() {
	tx.rows.Reset()
	clear(tx.accesses)
	tx.accesses = tx.accesses[:0]
	tx.inserts = tx.inserts[:0]
	tx.declaredOps = 0
	tx.lockWait = 0
	tx.snapReads = 0
}

// Worker implements Tx.
func (tx *lockTx) Worker() int { return tx.s.worker }

// ID implements Tx.
func (tx *lockTx) ID() uint64 { return tx.t.ID }

// DeclareOps implements Tx.
func (tx *lockTx) DeclareOps(n int) { tx.declaredOps = int32(n) }

// ReadOnly is implemented by transactions that support the MVCC snapshot
// read mode. Use the MarkReadOnly helper rather than asserting directly.
type ReadOnly interface {
	// MarkReadOnly switches the current attempt to lock-free snapshot
	// reads, returning false when it cannot: MVCC is off, a previous
	// attempt of this transaction fell back to the locking path, or
	// accesses were already made. After a true return, every Read is
	// served from the row's version chain with zero lock acquisitions,
	// and a write restarts the transaction on the locking path.
	MarkReadOnly() bool
}

// MarkReadOnly marks tx read-only if its engine supports snapshot reads;
// it returns whether the attempt is on the snapshot path. Transaction
// bodies call it first thing and must tolerate false (the locking path
// executes the same statements correctly).
func MarkReadOnly(tx Tx) bool {
	if ro, ok := tx.(ReadOnly); ok {
		return ro.MarkReadOnly()
	}
	return false
}

// MarkReadOnly implements ReadOnly.
func (tx *lockTx) MarkReadOnly() bool {
	if tx.snap != 0 {
		return true
	}
	if tx.db.Snap == nil || tx.roFallback || len(tx.accesses) > 0 || len(tx.inserts) > 0 {
		return false
	}
	tx.snap = tx.db.Snap.AcquireSnapshot(tx.s.worker, tx.s.alloc)
	return true
}

// endSnapshot retires the attempt's snapshot, if any.
func (tx *lockTx) endSnapshot() {
	if tx.snap != 0 {
		tx.db.Snap.EndSnapshot(tx.s.worker)
		tx.snap = 0
	}
}

// acquire obtains a lock, drawing the request from the session freelist.
// Lock wait is whatever time the manager saw the request blocked; an
// acquire granted on the spot reads no clock and adds nothing. On failure
// the request is quiescent (the manager guarantees it is detached) and
// goes straight back to the pool.
func (tx *lockTx) acquire(row *storage.Row, mode lock.Mode) (*lock.Request, error) {
	req := tx.s.pool.Get()
	if mode == lock.EX {
		tx.s.giveSpare(req)
	}
	err := tx.db.Lock.AcquireInto(req, tx.t, mode, &row.Entry)
	tx.lockWait += req.TakeWait()
	if g := tx.db.Global; g.NumPartitions() > 0 {
		g.RecordPartAccess(row.PartitionID)
		if err != nil {
			g.RecordPartConflict(row.PartitionID)
		}
	}
	if err != nil {
		tx.recycleReq(req)
		return nil, tx.abort(err)
	}
	return req, nil
}

// abort is the attempt's Abort for a refusal by the lock manager: the
// cause a wound or cascade recorded on the transaction, else the one the
// refusal names.
func (tx *lockTx) abort(err error) error {
	switch {
	case tx.t.Cause() != txn.CauseNone:
		return Abort(tx.t.Cause())
	case errors.Is(err, lock.ErrDie), errors.Is(err, lock.ErrNoWait):
		return Abort(txn.CauseDie)
	default:
		return Abort(txn.CauseWound)
	}
}

// recycleReq harvests the request's image-copy telemetry and returns it
// to the session freelist. The spare image buffer rides along: Pool.Put
// keeps it attached, so the storage captured from a superseded image at
// release seeds the next write grant's private copy.
func (tx *lockTx) recycleReq(req *lock.Request) {
	c, ru := req.ImageStats()
	tx.imgCopies += c
	tx.imgReuses += ru
	tx.s.pool.Put(req)
}

// flushImageStats records the attempt's accumulated image-copy counters.
func (tx *lockTx) flushImageStats() {
	if tx.imgCopies > 0 {
		tx.s.col.Add(stats.ImageCopies, uint64(tx.imgCopies))
		tx.imgCopies = 0
	}
	if tx.imgReuses > 0 {
		tx.s.col.Add(stats.ImagePoolRecycled, uint64(tx.imgReuses))
		tx.imgReuses = 0
	}
}

// Read implements Tx.
func (tx *lockTx) Read(row *storage.Row) ([]byte, error) {
	if row == nil {
		return nil, fatalf("read of nil row")
	}
	if tx.snap != 0 {
		// Snapshot path: resolve the newest version committed at or
		// before the snapshot with a latch-free chain walk. No lock
		// manager, no request, no allocation.
		if g := tx.db.Global; g.NumPartitions() > 0 {
			g.RecordPartAccess(row.PartitionID)
		}
		if img, ok := row.Versions.ReadAt(tx.snap); ok {
			tx.snapReads++
			return img, nil
		}
		return nil, errSnapshotFallback
	}
	if i := tx.rows.Find(row); i >= 0 {
		return tx.accesses[i].req.Data, nil
	}
	req, err := tx.acquire(row, lock.SH)
	if err != nil {
		return nil, err
	}
	tx.record(row, req, lock.SH)
	return req.Data, nil
}

// Update implements Tx.
func (tx *lockTx) Update(row *storage.Row, mutate func(img []byte)) error {
	if row == nil {
		return fatalf("update of nil row")
	}
	if tx.snap != 0 {
		// A write inside a read-only attempt: restart on the locking path.
		return errSnapshotFallback
	}
	i := tx.rows.Find(row)
	if i >= 0 && tx.accesses[i].mode == lock.EX {
		if tx.accesses[i].retired {
			return fatalf("second write to a retired row (table %s key %d); "+
				"declare accesses so the last write is known (§3.3)",
				row.Table.Schema.Name, row.Key)
		}
		mutate(tx.accesses[i].req.Data)
		return nil
	}
	var req *lock.Request
	if i >= 0 {
		// SH→EX upgrade: promote the existing request in place. The access
		// entry, its position and (for Bamboo) any dirty-read dependency the
		// shared grant took all carry over; only the mode is new, and the
		// write then retires like a freshly acquired one. On error the
		// request is still a granted shared lock and the normal rollback
		// releases it.
		req = tx.accesses[i].req
		tx.s.giveSpare(req)
		err := tx.db.Lock.Upgrade(req)
		tx.lockWait += req.TakeWait()
		if err != nil {
			if g := tx.db.Global; g.NumPartitions() > 0 {
				g.RecordPartConflict(row.PartitionID)
			}
			return tx.abort(err)
		}
		tx.accesses[i].mode = lock.EX
		tx.s.col.Add(stats.Upgrades, 1)
	} else {
		var err error
		if req, err = tx.acquire(row, lock.EX); err != nil {
			return err
		}
		i = tx.record(row, req, lock.EX)
	}
	mutate(req.Data)
	if tx.shouldRetire() {
		tx.retire(&tx.accesses[i])
	}
	return nil
}

// retire retires a's exclusive lock, publishing its write (LockRetire).
func (tx *lockTx) retire(a *access) {
	tx.db.Lock.Retire(a.req)
	a.retired = true
	tx.s.col.Add(stats.Retires, 1)
}

// shouldRetire applies Optimization 2 (paper §3.5): retire unless the
// write falls in the last δ fraction of the transaction's declared
// accesses. With no declaration every write retires — the paper's
// interactive-mode behavior where each write is treated as the last. The
// write's place is the number of distinct rows accessed so far: an
// upgrade's row was counted at its Read, as workloads declare an RMW row
// as one access.
func (tx *lockTx) shouldRetire() bool {
	cfg := &tx.db.cfg
	if cfg.Variant != lock.Bamboo {
		return false
	}
	if cfg.Delta <= 0 || tx.declaredOps == 0 {
		return true
	}
	cutoff := float64(tx.declaredOps) * (1 - cfg.Delta)
	return float64(tx.rows.Len()) <= cutoff
}

// retireRemaining retires every unretired write; the adaptive part of
// Optimization 2 invokes it when commit-waiting exceeds δ of execution.
func (tx *lockTx) retireRemaining() {
	for i := range tx.accesses {
		if a := &tx.accesses[i]; a.mode == lock.EX && !a.retired {
			tx.retire(a)
		}
	}
}

// record appends a new access and returns its position.
func (tx *lockTx) record(row *storage.Row, req *lock.Request, mode lock.Mode) int {
	tx.accesses = append(tx.accesses, access{req: req, mode: mode})
	return tx.rows.Add(row)
}

// Insert implements Tx: inserts are buffered and applied at the commit
// point, so aborting needs no index undo. The paper's workloads (TPC-C
// new-order/payment) never read rows inserted by concurrent uncommitted
// transactions, so deferred visibility preserves their semantics; phantom
// protection via next-key locking (§3.4) is out of scope here.
func (tx *lockTx) Insert(tbl *storage.Table, key uint64, img []byte) error {
	if tbl == nil {
		return fatalf("insert into nil table")
	}
	if tx.snap != 0 {
		return errSnapshotFallback
	}
	tx.inserts = append(tx.inserts, Insert{tbl, key, img})
	return nil
}

// rollback releases every lock with is_abort, recycles the requests and
// drops buffered inserts. A snapshot attempt rolls back only to fall
// back, so the retry takes the locking path.
func (tx *lockTx) rollback() {
	if tx.snap != 0 {
		tx.roFallback = true
		tx.endSnapshot()
	}
	for i := range tx.accesses {
		tx.db.Lock.Release(tx.accesses[i].req, true)
		tx.recycleReq(tx.accesses[i].req)
		tx.accesses[i].req = nil
	}
	tx.flushImageStats()
	tx.t.FinishAbort()
}

// releaseCommitted releases every lock after the commit point and
// recycles the requests.
func (tx *lockTx) releaseCommitted() {
	for i := range tx.accesses {
		tx.db.Lock.Release(tx.accesses[i].req, false)
		tx.recycleReq(tx.accesses[i].req)
		tx.accesses[i].req = nil
	}
	tx.flushImageStats()
}

// Accesses returns the verifier view of the attempt's accesses. Must be
// called before the locks are released.
func (tx *lockTx) Accesses() []AccessInfo {
	out := make([]AccessInfo, 0, len(tx.accesses))
	for i := range tx.accesses {
		a, row := &tx.accesses[i], tx.rows.Row(i)
		info := AccessInfo{
			Table: row.Table.Schema.Name,
			Key:   row.Key,
			Mode:  a.mode,
			Dirty: a.req.Dirty,
		}
		if a.mode == lock.EX {
			info.Wrote = a.req.Data
			info.Read = a.req.Read
		} else {
			info.Read = a.req.Data
		}
		out = append(out, info)
	}
	return out
}

// OnCommitHook receives every committed transaction of a DB built with
// Config.OnCommit set; the verifier uses it. ts is the transaction's
// priority timestamp at commit. The AccessInfo images (Read, Wrote) are
// valid only for the duration of the call — after lock release the engine
// may reuse their storage for a later write — so a hook that keeps them
// must copy them.
type OnCommitHook func(worker int, txnID, ts uint64, accesses []AccessInfo, inserts int)

// OnCommit returns the DB's commit hook (nil if none). Alternate engines
// (Silo, IC3) call it at their own commit points.
func (db *DB) OnCommit() OnCommitHook { return db.cfg.OnCommit }

// Run implements Session: the transaction lifecycle of Algorithm 1, one
// attempt at a time through RunAttempts.
//
// The session's Txn, lockTx, lock requests and WAL buffers are recycled
// from one logical transaction to the next; this is safe because by the
// time Run returns every request has been released, and after release no
// other goroutine can reach the transaction (the lock.Pool quiescence
// rule).
func (s *lockSession) Run(fn TxnFunc) error { return RunAttempts(s.db, &s.ids, s.col, s, fn) }

// Begin implements Attempt. A retry keeps the transaction's timestamp
// (Reset), which is what makes Wound-Wait, and so Bamboo, starvation-free
// (paper §2.1).
func (s *lockSession) Begin(id uint64, n int) Tx {
	t, tx := s.t, &s.tx
	if n == 0 {
		t.Renew(id)
		tx.roFallback = false
	} else {
		t.Reset()
	}
	if !s.db.cfg.DynamicTS && !t.HasTS() {
		s.db.Lock.AssignTS(t)
	}
	tx.reset()
	return tx
}

// Rollback implements Attempt.
func (s *lockSession) Rollback() { s.tx.rollback() }

// LockWait implements Attempt: the time the lock manager saw the
// attempt's requests blocked.
func (s *lockSession) LockWait() time.Duration { return s.tx.lockWait }

// Commit implements Attempt: Algorithm 1 from the commit semaphore on.
func (s *lockSession) Commit(start time.Duration) (time.Duration, error) {
	t, tx := s.t, &s.tx
	// A snapshot attempt commits by just retiring its snapshot: it holds
	// no locks, wrote nothing, and nothing can wound it (zero lock
	// presence), so the semaphore wait, the commit CAS and the whole
	// logging window do not apply. On a file-logged DB it still waits
	// for the records of the versions it may have read (CommitLog).
	// Zero allocations.
	if tx.snap != 0 {
		s.log.Submit(t.ID) // nothing to log: marks what it waits for
		tx.endSnapshot()
		t.FinishCommit()
		s.col.Add(stats.SnapshotReads, tx.snapReads)
		return 0, s.log.Wait(t)
	}

	// Wait for the transactions this one depends on (commit_semaphore)
	// and take the commit point, adaptively retiring held-back writes if
	// the wait passes δ of the execution time (Optimization 2's second
	// half). A commit that need not wait reads no clock.
	waitStart := time.Duration(-1)
	cause := t.CommitPoint(func() time.Time {
		waitStart = now()
		if d := s.db.cfg.Delta; d > 0 {
			return clockEpoch.Add(waitStart + time.Duration(float64(waitStart-start-tx.lockWait)*d))
		}
		return time.Time{}
	}, tx.retireRemaining)
	var commitWait time.Duration
	if waitStart >= 0 {
		commitWait = now() - waitStart
	}
	if cause != txn.CauseNone {
		return commitWait, Abort(cause)
	}

	// Commit point. With an active checkpointer the whole window holds
	// the checkpoint gate in shared mode, so a checkpoint LSN is never
	// captured between "the record is sequenced at seq" and "its effects
	// are installed" — the gap in which a fuzzy snapshot stamped ≥ seq
	// could miss the transaction entirely.
	g := s.db.ckptGate
	if g != nil {
		g.RLock()
	}
	err := s.commitPoint(tx)
	if g != nil {
		g.RUnlock()
	}
	if err != nil {
		return commitWait, err
	}
	t.FinishCommit()
	// Released: now write the record, or wait for the committer writing it.
	return commitWait, s.log.Wait(t)
}

// commitPoint is the commit path of every layout — Algorithm 1 past the
// semaphore: sequence the commit record(s), publish versions, apply the
// buffered inserts, fire the commit hook, release every lock. The record
// is written after it returns (CommitLog.Wait). It leaves the attempt
// holding nothing on every return. A failed sequencing rolls the attempt
// back: the transaction reverts its own commit decision, as the Sem
// recheck in Commit does, and its dependents cascade. (A record that
// reached one partition log of several stays there — the cross-partition
// tear the CommitLog comment describes.) A failure after it releases as
// committed, because the record is in the log's sequence.
func (s *lockSession) commitPoint(tx *lockTx) error {
	for i := range tx.accesses {
		if a := &tx.accesses[i]; a.mode == lock.EX {
			s.log.Update(tx.rows.Row(i), a.req.Data)
		}
	}
	for _, ins := range tx.inserts {
		s.log.Insert(ins)
	}
	wrote, err := s.log.Submit(tx.t.ID)
	if err != nil {
		tx.rollback()
		return err
	}
	// Inserts are stamped with the commit timestamp of the version install
	// on an MVCC DB and seeded at 0, visible to all, otherwise. Read-only
	// locking-path attempts skip the snapshot table's window entirely.
	var cts uint64
	mvcc := wrote && s.db.Snap != nil
	if mvcc {
		cts = s.installVersions(tx)
	}
	err = ApplyInserts(tx.inserts, cts)
	if mvcc {
		s.db.Snap.EndCommit(s.worker)
	}
	if h := s.db.cfg.OnCommit; h != nil && err == nil {
		h(s.worker, s.t.ID, s.t.TS(), tx.Accesses(), len(tx.inserts))
	}
	tx.releaseCommitted()
	return err
}

// Capacities of a session's MVCC free lists. Harvest comes in bursts —
// the first install on each hot row after a watermark tick takes that
// row's whole tail — and drains one write at a time until the next tick,
// so a list is useful up to what one session installs per tick and no
// further. A session flat out commits a write every ~1.25 µs, 1 600 per
// 2 ms pruneInterval tick: at 1 024 slots its bursts overflowed (1.4–4
// allocs/txn in TestAllocBudgetMVCCWrites), at 2 048 they fit (≤ 0.1).
// On ycsb_snapshot's two workers (~1 100 installs a tick each) the share
// of write copies built in a recycled buffer was 0.74 at 64 slots, 0.87
// at 256 and flat from 1 024 up. 2 048 of that workload's 1 KB images
// bound a session's idle inventory at 2 MB; nodes are 48 bytes. With a
// longer tick the bursts outgrow the lists and the surplus goes to the
// collector.
const (
	maxFreeNodes = 2048
	maxFreeImgs  = 2048
)

// giveSpare hands req an image buffer from the session's harvest if it
// carries no spare of its own, so the private write copy the grant (or
// upgrade) is about to build allocates nothing. On a DB without
// version chains the list is always empty: one predictable branch.
func (s *lockSession) giveSpare(req *lock.Request) {
	f := s.free
	if f == nil {
		return
	}
	if n := len(f.imgs); n > 0 && !req.HasSpare() {
		req.StashBuf(f.imgs[n-1])
		f.imgs[n-1] = nil
		f.imgs = f.imgs[:n-1]
	}
}

// installVersions opens the snapshot table's in-flight commit window and
// publishes the attempt's after-images into the row version chains,
// returning the window's commit timestamp; the caller stamps the inserts
// with it and closes the window (EndCommit), so snapshot readers observe
// the whole commit or none of it.
//
// It is also where versions are recycled. Each install takes its node
// from the session's free list and gets back the whole tail it detached,
// if the watermark has passed one since the chain was last scanned. The
// tail's nodes are unreachable by any snapshot reader (they are below the
// reclaim watermark) and its images by the lock side too (only the newest
// committed image can still be referenced there; these were superseded at
// least one committed generation ago), so the nodes go back on the free
// list and so do the images.
func (s *lockSession) installVersions(tx *lockTx) uint64 {
	st := s.db.Snap
	cts := st.BeginCommit(s.worker, s.alloc)
	rts := st.Reclaim()
	f := s.free
	reclaimed := 0
	for i := range tx.accesses {
		a := &tx.accesses[i]
		if a.mode != lock.EX {
			continue
		}
		var node *storage.Version
		if n := len(f.nodes); n > 0 {
			node = f.nodes[n-1]
			f.nodes[n-1] = nil
			f.nodes = f.nodes[:n-1]
		}
		// The chain adopts the committed image by reference — chain and
		// lock entry share one buffer per committed version.
		tail := tx.rows.Row(i).Versions.InstallNode(node, a.req.Data, cts, rts)
		for tail != nil {
			next, img := tail.Recycle()
			reclaimed++
			if len(f.nodes) < maxFreeNodes {
				f.nodes = append(f.nodes, tail)
			}
			if len(img) > 0 && len(f.imgs) < maxFreeImgs {
				f.imgs = append(f.imgs, img)
			}
			tail = next
		}
	}
	s.col.Add(stats.VersionsPruned, uint64(reclaimed))
	return cts
}
