// Package occ implements the Silo optimistic concurrency control protocol
// (Tu et al., "Speedy Transactions in Multicore In-Memory Databases",
// SOSP 2013), the OCC baseline the paper evaluates against (SILO in
// §5.1).
//
// Each row carries a TID word (lock bit + version). Reads are latch-free:
// a reader samples the TID, grabs the atomically-published image pointer,
// and re-samples the TID. Writes are buffered. At commit the write set is
// locked in a global (address) order, the read set is validated, a commit
// TID greater than every observed TID is chosen, and the new images are
// published with the TID store that also releases the locks. Epochs
// advance on a timer and form the TID high bits, as in the original.
package occ

import (
	"bytes"
	"sort"
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
	return &session{e: e, worker: worker, col: col, log: e.db.NewCommitLog()}
}

type session struct {
	e       *Engine
	worker  int
	col     *stats.Collector
	lastTID uint64
	log     core.CommitLog
}

type readEnt struct {
	row *storage.Row
	tid uint64
	img []byte
}

type writeEnt struct {
	row  *storage.Row
	tid  uint64 // tid observed when the base image was taken
	base []byte
	img  []byte
}

type siloTx struct {
	s      *session
	id     uint64
	reads  []readEnt
	writes []writeEnt
	byRow  map[*storage.Row]int // index+1 into writes; negative-1 none
	rbyRow map[*storage.Row]int
	insrts []insertEnt
}

type insertEnt struct {
	tbl *storage.Table
	key uint64
	img []byte
}

// image returns the row's current OCC image pointer, lazily adopting the
// loader-installed Entry image on first access.
func image(row *storage.Row) *[]byte {
	if p := row.OCCImage.Load(); p != nil {
		return p
	}
	d := row.Entry.CurrentData()
	row.OCCImage.CompareAndSwap(nil, &d)
	return row.OCCImage.Load()
}

// readStable samples a consistent (tid, image) pair.
//
// The sampled image reference outlives the seqlock window: read-set
// entries hold it until validation and write-set entries clone from it,
// with no lifetime tracking the installer could consult. Silo therefore
// opts out of the lock engine's image-recycling protocol — its commit
// path publishes freshly cloned images (below) and never recycles a
// superseded one, so a reference sampled here stays immutable forever.
func readStable(row *storage.Row) (uint64, []byte) {
	for i := 0; ; i++ {
		t1 := row.TID.Load()
		if t1&lockBit == 0 {
			img := *image(row)
			if row.TID.Load() == t1 {
				return t1, img
			}
		}
		lock.Backoff(i)
	}
}

// ID implements core.Tx.
func (tx *siloTx) ID() uint64 { return tx.id }

// Worker implements core.Tx.
func (tx *siloTx) Worker() int { return tx.s.worker }

// DeclareOps implements core.Tx (no-op for OCC).
func (tx *siloTx) DeclareOps(int) {}

// Read implements core.Tx.
func (tx *siloTx) Read(row *storage.Row) ([]byte, error) {
	if i, ok := tx.byRow[row]; ok {
		return tx.writes[i].img, nil
	}
	if i, ok := tx.rbyRow[row]; ok {
		return tx.reads[i].img, nil
	}
	tid, img := readStable(row)
	if tx.rbyRow == nil {
		tx.rbyRow = make(map[*storage.Row]int, 16)
	}
	tx.rbyRow[row] = len(tx.reads)
	tx.reads = append(tx.reads, readEnt{row: row, tid: tid, img: img})
	return img, nil
}

// Update implements core.Tx.
func (tx *siloTx) Update(row *storage.Row, mutate func(img []byte)) error {
	if i, ok := tx.byRow[row]; ok {
		mutate(tx.writes[i].img)
		return nil
	}
	if _, ok := tx.rbyRow[row]; ok {
		// Upgrade is trivially safe under OCC (the read stays in the read
		// set and is validated), but keep parity with the lock engine's
		// declared-mode discipline: promote the read entry to a write.
		i := tx.rbyRow[row]
		ent := tx.reads[i]
		// Private clones, deliberately not the lock engine's pooled
		// takeBuf copies: latch-free readers (readStable) may still hold
		// the base image, so no buffer here is ever provably unreferenced.
		w := writeEnt{row: row, tid: ent.tid, base: ent.img, img: bytes.Clone(ent.img)}
		if tx.byRow == nil {
			tx.byRow = make(map[*storage.Row]int, 8)
		}
		tx.byRow[row] = len(tx.writes)
		tx.writes = append(tx.writes, w)
		mutate(tx.writes[len(tx.writes)-1].img)
		return nil
	}
	tid, img := readStable(row)
	w := writeEnt{row: row, tid: tid, base: img, img: bytes.Clone(img)}
	if tx.byRow == nil {
		tx.byRow = make(map[*storage.Row]int, 8)
	}
	tx.byRow[row] = len(tx.writes)
	tx.writes = append(tx.writes, w)
	mutate(tx.writes[len(tx.writes)-1].img)
	return nil
}

// Insert implements core.Tx.
func (tx *siloTx) Insert(tbl *storage.Table, key uint64, img []byte) error {
	tx.insrts = append(tx.insrts, insertEnt{tbl: tbl, key: key, img: img})
	return nil
}

// Run implements core.Session.
func (s *session) Run(fn core.TxnFunc) error {
	id := s.e.db.NextTxnID()
	for {
		tx := &siloTx{s: s, id: id}
		start := time.Now()
		err := fn(tx)
		exec := time.Since(start)
		switch {
		case err == nil:
			// fall through to commit
		case err == core.ErrUserAbort:
			s.col.RecordAbort(txn.CauseUser, exec, 0, 0)
			return nil
		default:
			return err
		}

		vStart := time.Now()
		ok, err := s.commit(tx)
		vTime := time.Since(vStart)
		if err != nil {
			return err
		}
		if ok {
			s.col.RecordCommit(exec, 0, vTime)
			return nil
		}
		s.col.RecordAbort(txn.CauseValidation, exec, 0, vTime)
	}
}

// commit runs Silo's commit protocol, returning false on validation
// failure (the attempt aborts and the caller retries). A failed log append
// is not a validation failure — a retry cannot fix the device — and comes
// back as the error, with the write set unlocked and nothing installed.
func (s *session) commit(tx *siloTx) (bool, error) {
	// Phase 1: lock the write set in a global order.
	sort.Slice(tx.writes, func(i, j int) bool {
		return rowAddr(tx.writes[i].row) < rowAddr(tx.writes[j].row)
	})
	locked := 0
	for i := range tx.writes {
		row := tx.writes[i].row
		if !lockTID(row) {
			unlockAll(tx.writes[:locked])
			return false, nil
		}
		locked++
		// Write-write validation: the row changed since we took our base.
		if row.TID.Load()&^lockBit != tx.writes[i].tid {
			unlockAll(tx.writes[:locked])
			return false, nil
		}
	}

	// Phase 2: validate the read set.
	for i := range tx.reads {
		r := &tx.reads[i]
		cur := r.row.TID.Load()
		if cur&^lockBit != r.tid {
			unlockAll(tx.writes[:locked])
			return false, nil
		}
		if cur&lockBit != 0 {
			if _, mine := tx.byRow[r.row]; !mine {
				unlockAll(tx.writes[:locked])
				return false, nil
			}
		}
	}

	// Phase 3: pick the commit TID and install.
	tid := s.lastTID
	for i := range tx.reads {
		if tx.reads[i].tid > tid {
			tid = tx.reads[i].tid
		}
	}
	for i := range tx.writes {
		if tx.writes[i].tid > tid {
			tid = tx.writes[i].tid
		}
	}
	tid++
	if e := s.e.epoch.Load() << epochShift; tid < e {
		tid = e
	}
	s.lastTID = tid

	for i := range tx.writes {
		s.log.Update(tx.writes[i].row, tx.writes[i].img)
	}
	for _, ins := range tx.insrts {
		s.log.Insert(ins.tbl, ins.key, ins.img)
	}
	if _, err := s.log.Commit(tx.id); err != nil {
		unlockAll(tx.writes[:locked])
		return false, err
	}
	for _, ins := range tx.insrts {
		row, err := ins.tbl.InsertRow(ins.key, ins.img)
		if err != nil {
			// Duplicate key from a concurrent insert: treat as a
			// validation failure (the paper's workloads use unique keys
			// drawn from locked counters, so this is defensive).
			unlockAll(tx.writes[:locked])
			return false, nil
		}
		img := ins.img
		row.OCCImage.Store(&img)
		row.TID.Store(tid)
	}
	if h := s.e.db.OnCommit(); h != nil {
		h(s.worker, tx.id, tid, tx.accessInfo(), len(tx.insrts))
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		img := w.img
		w.row.OCCImage.Store(&img)
		w.row.TID.Store(tid) // clears the lock bit
	}
	return true, nil
}

func (tx *siloTx) accessInfo() []core.AccessInfo {
	out := make([]core.AccessInfo, 0, len(tx.reads)+len(tx.writes))
	for i := range tx.reads {
		r := &tx.reads[i]
		out = append(out, core.AccessInfo{
			Table: r.row.Table.Schema.Name, Key: r.row.Key,
			Mode: lock.SH, Read: r.img,
		})
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		out = append(out, core.AccessInfo{
			Table: w.row.Table.Schema.Name, Key: w.row.Key,
			Mode: lock.EX, Read: w.base, Wrote: w.img,
		})
	}
	return out
}

// rowAddr gives the global lock-acquisition order for write sets: row
// pointer addresses, as in the original Silo.
func rowAddr(r *storage.Row) uintptr { return uintptr(unsafe.Pointer(r)) }

func lockTID(row *storage.Row) bool {
	for i := 0; ; i++ {
		cur := row.TID.Load()
		if cur&lockBit == 0 {
			if row.TID.CompareAndSwap(cur, cur|lockBit) {
				return true
			}
		}
		if i > 1<<20 {
			return false // safety valve; Silo never deadlocks here
		}
		lock.Backoff(i)
	}
}

func unlockAll(ws []writeEnt) {
	for i := range ws {
		row := ws[i].row
		row.TID.Store(row.TID.Load() &^ lockBit)
	}
}
