// Package occ implements the Silo optimistic concurrency control protocol
// (Tu et al., "Speedy Transactions in Multicore In-Memory Databases",
// SOSP 2013), the OCC baseline the paper evaluates against (SILO in
// §5.1).
//
// Each row carries a TID word (lock bit + version). Reads are latch-free:
// a reader samples the TID, takes the image at the head of the row's
// version chain, and re-samples the TID. Writes are buffered. At commit
// the write set is locked in a global (address) order, the read set is
// validated, a commit TID greater than every observed TID is chosen, and
// each new image is published on its row's version chain, followed by the
// TID store that releases the row's lock. Epochs advance on a timer and
// form the TID high bits, as in the original.
package occ

import (
	"bytes"
	"cmp"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"bamboo/internal/core"
	"bamboo/internal/lock"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
)

const (
	lockBit    = uint64(1) << 63
	epochShift = 40
	name       = "SILO"
)

// Engine is the Silo engine. It implements core.Engine.
type Engine struct {
	db    *core.DB
	epoch atomic.Uint64
	stop  chan struct{}
	// waiters are the sessions waiting for a TID word to unlock
	// (awaitUnlock), woken after every unlock.
	waiters txn.Watchers
}

// New wraps db in a Silo engine and starts the epoch advancer. Call Close
// when done (tests); leaking the goroutine for process-lifetime engines is
// also fine. It panics if db's Config sets Checkpoint or MVCC, which Silo
// cannot honour (core.DB.Claim).
func New(db *core.DB) *Engine {
	db.Claim(name)
	e := &Engine{db: db, stop: make(chan struct{})}
	e.epoch.Store(1)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.epoch.Add(1)
			case <-e.stop:
				return
			}
		}
	}()
	return e
}

// Close stops the epoch advancer.
func (e *Engine) Close() { close(e.stop) }

// Name implements core.Engine.
func (e *Engine) Name() string { return name }

// Database implements core.Engine.
func (e *Engine) Database() *core.DB { return e.db }

// NewSession implements core.Engine.
func (e *Engine) NewSession(worker int, col *stats.Collector) core.Session {
	col.AttachLive(e.db.LiveStats())
	s := &session{e: e, worker: worker, col: col, log: e.db.NewCommitLog()}
	s.tx.s = s
	return s
}

// session implements core.Attempt over one siloTx, reset between
// attempts instead of reallocated.
type session struct {
	e       *Engine
	worker  int
	col     *stats.Collector
	lastTID uint64
	ids     core.TxnIDs
	log     core.CommitLog
	tx      siloTx
	// t exists only to park on: it is always Running, so its waits end
	// when their condition holds.
	t txn.Txn
}

// entry is what an attempt knows of one row it accessed; its row is at
// the same position in the attempt's RowSet.
type entry struct {
	tid  uint64 // tid observed when base was read
	base []byte // the image read
	img  []byte // what the attempt sees: base, or a write's private copy
	// write marks an updated row, locked and installed at commit; a row
	// read first and updated later is one entry whose read tid is checked
	// under the write lock.
	write bool
}

type siloTx struct {
	s      *session
	id     uint64
	rows   core.RowSet
	ents   []entry
	insrts []core.Insert
	// order holds the positions of the write entries, sorted by row
	// address at commit; locked is how many of them hold their TID lock.
	order  []int
	locked int
}

// readStable samples a consistent (tid, image) pair, the image at the head
// of the row's version chain, which a row's first read seeds from Entry.
//
// The sampled image reference outlives the seqlock window: read-set
// entries hold it until validation and write-set entries clone from it,
// with no lifetime tracking the installer could consult. Silo therefore
// opts out of the lock engine's image-recycling protocol — its commit
// path publishes freshly cloned images (below) and never recycles a
// superseded one, so a reference sampled here stays immutable forever.
func (s *session) readStable(row *storage.Row) (uint64, []byte) {
	for {
		t1 := row.TID.Load()
		if t1&lockBit != 0 {
			s.awaitUnlock(row)
			continue
		}
		v := row.Versions.Head()
		if v == nil {
			v = row.Versions.SeedOnce(t1, row.Entry.CurrentData())
		}
		if row.TID.Load() == t1 {
			return t1, v.Image()
		}
	}
}

// awaitUnlock waits until row's TID word is unlocked. Its committer holds
// it across the log append, which may wait for its device's fsync, so
// the wait parks once its yield phase is over, and every unlock wakes it.
func (s *session) awaitUnlock(row *storage.Row) {
	s.e.waiters.Wait(&s.t, func() bool { return row.TID.Load()&lockBit == 0 })
}

// ID implements core.Tx.
func (tx *siloTx) ID() uint64 { return tx.id }

// Worker implements core.Tx.
func (tx *siloTx) Worker() int { return tx.s.worker }

// DeclareOps implements core.Tx (no-op for OCC).
func (tx *siloTx) DeclareOps(int) {}

// Read implements core.Tx.
func (tx *siloTx) Read(row *storage.Row) ([]byte, error) {
	if i := tx.rows.Find(row); i >= 0 {
		return tx.ents[i].img, nil
	}
	return tx.add(row).img, nil
}

// Update implements core.Tx. Updating a row the attempt read turns its
// entry into a write, so the read and the write are one access, as on
// the lock engine.
func (tx *siloTx) Update(row *storage.Row, mutate func(img []byte)) error {
	var ent *entry
	if i := tx.rows.Find(row); i >= 0 {
		ent = &tx.ents[i]
	} else {
		ent = tx.add(row)
	}
	if !ent.write {
		// Private clones, deliberately not the lock engine's pooled
		// takeBuf copies: latch-free readers (readStable) may still hold
		// the base image, so no buffer here is ever provably unreferenced.
		ent.img = bytes.Clone(ent.base)
		ent.write = true
	}
	mutate(ent.img)
	return nil
}

// add reads row into a new entry.
func (tx *siloTx) add(row *storage.Row) *entry {
	tid, img := tx.s.readStable(row)
	tx.rows.Add(row)
	tx.ents = append(tx.ents, entry{tid: tid, base: img, img: img})
	return &tx.ents[len(tx.ents)-1]
}

// Insert implements core.Tx.
func (tx *siloTx) Insert(tbl *storage.Table, key uint64, img []byte) error {
	tx.insrts = append(tx.insrts, core.Insert{Table: tbl, Key: key, Image: img})
	return nil
}

// Run implements core.Session.
func (s *session) Run(fn core.TxnFunc) error { return core.RunAttempts(s.e.db, &s.ids, s.col, s, fn) }

// Begin implements core.Attempt.
func (s *session) Begin(id uint64, _ int) core.Tx {
	tx := &s.tx
	tx.id = id
	tx.rows.Reset()
	clear(tx.ents)
	clear(tx.insrts)
	tx.ents, tx.insrts = tx.ents[:0], tx.insrts[:0]
	return tx
}

// LockWait implements core.Attempt. Silo reports none: its waits for a
// TID word (awaitUnlock) count as the attempt's own time.
func (s *session) LockWait() time.Duration { return 0 }

// Rollback implements core.Attempt: the write-set locks a failed
// validation left held are all there is to undo.
func (s *session) Rollback() {
	for _, i := range s.tx.order[:s.tx.locked] {
		row := s.tx.rows.Row(i)
		row.TID.Store(row.TID.Load() &^ lockBit)
	}
	s.tx.locked = 0
	s.e.waiters.WakeAll()
}

// errValidation aborts an attempt whose read or write set changed since
// the body read it.
var errValidation = core.Abort(txn.CauseValidation)

// Commit implements core.Attempt: Silo's commit protocol, which waits for
// no other transaction's commit decision, only for TID locks that other
// committers hold through their log append and install (awaitUnlock). A
// validation failure returns errValidation with the write-set locks taken
// so far still held, for Rollback. A failed log append is not a
// validation failure — a retry cannot fix the device — and comes back as
// the error, with the write set unlocked and nothing installed. A failed
// insert follows the durable record: it is fatal too, but the writes are
// installed and unlocked as committed.
func (s *session) Commit(time.Duration) (time.Duration, error) {
	tx := &s.tx
	// Phase 1: lock the write set in a global order.
	tx.order = tx.order[:0]
	for i := range tx.ents {
		if tx.ents[i].write {
			tx.order = append(tx.order, i)
		}
	}
	slices.SortFunc(tx.order, func(a, b int) int {
		return cmp.Compare(rowAddr(tx.rows.Row(a)), rowAddr(tx.rows.Row(b)))
	})
	for _, i := range tx.order {
		row := tx.rows.Row(i)
		s.lockTID(row)
		tx.locked++
		// Write-write validation: the row changed since we took our base.
		if row.TID.Load()&^lockBit != tx.ents[i].tid {
			return 0, errValidation
		}
	}

	// Phase 2: validate the reads. A read's row is never one this attempt
	// locked, so a lock bit, like a new version, fails it.
	for i := range tx.ents {
		if e := &tx.ents[i]; !e.write && tx.rows.Row(i).TID.Load() != e.tid {
			return 0, errValidation
		}
	}

	// Phase 3: pick the commit TID and install.
	tid := s.lastTID
	for i := range tx.ents {
		tid = max(tid, tx.ents[i].tid)
	}
	tid++
	if e := s.e.epoch.Load() << epochShift; tid < e {
		tid = e
	}
	s.lastTID = tid

	for _, i := range tx.order {
		s.log.Update(tx.rows.Row(i), tx.ents[i].img)
	}
	for _, ins := range tx.insrts {
		s.log.Insert(ins)
	}
	if _, err := s.log.Commit(tx.id); err != nil {
		s.Rollback()
		return 0, err
	}
	err := core.ApplyInserts(tx.insrts, 0, func(row *storage.Row) { row.TID.Store(tid) })
	if h := s.e.db.OnCommit(); h != nil && err == nil {
		h(s.worker, tx.id, tid, tx.accessInfo(), len(tx.insrts))
	}
	for _, i := range tx.order {
		// A fresh node, as a reader may still hold the one detached below
		// the replaced head; so the chain stays two versions long.
		row := tx.rows.Row(i)
		row.Versions.InstallNode(nil, tx.ents[i].img, tid, tid)
		row.TID.Store(tid) // clears the lock bit
	}
	tx.locked = 0
	s.e.waiters.WakeAll()
	return 0, err
}

func (tx *siloTx) accessInfo() []core.AccessInfo {
	out := make([]core.AccessInfo, len(tx.ents))
	for i := range tx.ents {
		e, row := &tx.ents[i], tx.rows.Row(i)
		out[i] = core.AccessInfo{Table: row.Table.Schema.Name, Key: row.Key, Mode: lock.SH, Read: e.base}
		if e.write {
			out[i].Mode, out[i].Wrote = lock.EX, e.img
		}
	}
	return out
}

// rowAddr gives the global lock-acquisition order for write sets: row
// pointer addresses, as in the original Silo.
func rowAddr(r *storage.Row) uintptr { return uintptr(unsafe.Pointer(r)) }

// lockTID takes row's TID lock. Write sets lock in address order, and
// otherwise a holder waits only for its log and commit hook, so the wait
// always ends.
func (s *session) lockTID(row *storage.Row) {
	for {
		cur := row.TID.Load()
		if cur&lockBit != 0 {
			s.awaitUnlock(row)
		} else if row.TID.CompareAndSwap(cur, cur|lockBit) {
			return
		}
	}
}
