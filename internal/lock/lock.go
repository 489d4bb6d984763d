// Package lock implements the pluggable lock table at the core of this
// reproduction: a per-tuple lock entry with the three lists of the Bamboo
// paper's Figure 2 (owners, waiters, and — Bamboo only — retired), plus a
// Manager that implements four 2PL deadlock-handling variants behind one
// interface:
//
//   - NoWait    — any conflict aborts the requester immediately;
//   - WaitDie   — older requesters wait, younger self-abort;
//   - WoundWait — younger holders are wounded, otherwise the requester waits;
//   - Bamboo    — WoundWait plus early lock retiring (the paper's §3.2
//     Algorithm 2), dirty reads, commit-semaphore dependency
//     tracking and cascading aborts.
//
// The entry also owns the tuple's data image. Installed images are treated
// as immutable: writers mutate a private copy and publish it with a pointer
// swap at retire (Bamboo) or commit (2PL), so readers can hold references
// without copying and aborts restore pre-images by swapping pointers back.
//
// Hot-path memory discipline: the three lists are intrusive doubly-linked
// lists threaded through the Request itself, so list surgery (grant,
// retire, release, promote) never allocates. Requests are recycled through
// per-worker freelists (Pool); see the quiescence rule on Pool.Put.
package lock

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bamboo/internal/txn"
)

// Mode is a lock mode.
type Mode uint8

const (
	// SH is a shared (read) lock.
	SH Mode = iota
	// EX is an exclusive (write) lock.
	EX
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == SH {
		return "SH"
	}
	return "EX"
}

// Conflict reports whether two lock modes conflict: everything conflicts
// with EX, SH is compatible with SH.
func Conflict(a, b Mode) bool { return a == EX || b == EX }

// Variant selects the deadlock-handling discipline of a Manager.
type Variant uint8

const (
	// NoWait aborts the requester on any conflict.
	NoWait Variant = iota
	// WaitDie lets older transactions wait and aborts younger requesters.
	WaitDie
	// WoundWait aborts younger lock holders and lets younger requesters wait.
	WoundWait
	// Bamboo is WoundWait extended with lock retiring (the paper's protocol).
	Bamboo
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case NoWait:
		return "NO_WAIT"
	case WaitDie:
		return "WAIT_DIE"
	case WoundWait:
		return "WOUND_WAIT"
	case Bamboo:
		return "BAMBOO"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// Sentinel errors returned by Acquire. Each maps to an abort cause; the
// caller rolls the transaction back and retries.
var (
	// ErrWound means this transaction was wounded by a higher-priority
	// transaction (possibly while waiting for this very lock).
	ErrWound = errors.New("lock: wounded by higher-priority transaction")
	// ErrDie means the Wait-Die rule requires the requester to self-abort.
	ErrDie = errors.New("lock: wait-die self-abort")
	// ErrNoWait means the No-Wait rule requires the requester to self-abort.
	ErrNoWait = errors.New("lock: no-wait conflict")
	// ErrAborting means the transaction was already marked aborting when it
	// requested the lock (e.g. a cascading abort landed between operations).
	ErrAborting = errors.New("lock: transaction already aborting")
)

// reqState is the lifecycle of a single lock request.
type reqState int32

const (
	reqWaiting  reqState = iota
	reqOwner             // granted, in owners
	reqRetired           // granted, in retired (Bamboo)
	reqDropped           // removed from waiters because the txn is aborting
	reqReleased          // terminal
)

// Request is one transaction's lock request on one entry. It doubles as
// the access handle: the granted data image (Data), the pre-image saved at
// install time (prevImg) and the commit-semaphore bookkeeping live here.
//
// A Request is a member of at most one entry list at a time (waiters →
// owners → retired); the intrusive next/prev links and the onList back
// pointer are guarded by the entry latch.
type Request struct {
	Txn  *txn.Txn
	Mode Mode

	// Data is the data image visible to this request once granted. For SH
	// it references an installed (immutable) image; for EX it is a private
	// mutable copy that will be installed at retire or commit.
	Data []byte

	// Dirty reports whether the image read by this request was produced by
	// a transaction that had not committed at grant time.
	Dirty bool

	// Intrusive list node. Guarded by the entry latch.
	next, prev *Request
	onList     *reqList

	// Read is the installed image an exclusive grant or upgrade observed
	// — the immutable pre-image its private copy (Data) was built from.
	// The executor reports it to a commit hook (core.AccessInfo.Read) as a
	// reference instead of cloning; it is meaningful only while the
	// request is held, and only safe to retain past release when image
	// recycling is off (installed images are then never overwritten).
	Read []byte

	// gen counts recycles through a Pool; tests use it to detect
	// reuse-after-release (a request whose generation changed while a
	// caller still held it was recycled under that caller's feet).
	gen uint64

	// buf is the request's spare image buffer: storage captured from a
	// provably unreferenced superseded image at commit release (or handed
	// over by the executor from its version-chain harvest, StashBuf),
	// consumed by the next private write copy (takeBuf). Like gen it
	// survives reset()/Pool.Put, so the spare rides the freelist and
	// steady-state write grants stop allocating.
	buf []byte

	// imgCopies/imgReuses count private image copies built for this
	// request since Get: fresh allocations vs. spare-buffer reuses.
	// Harvested by the executor (ImageStats) after Release, before
	// Pool.Put.
	imgCopies uint32
	imgReuses uint32

	// wait accumulates the time this request spent blocked — queued in
	// waitGranted or waiting in an upgrade — until the holder collects it
	// (TakeWait). An uncontended request never adds to it.
	wait time.Duration

	entry      *Entry
	state      atomic.Int32
	semHeld    bool   // this request holds one commit_semaphore increment
	installed  bool   // EX image has been published into the entry
	installSeq uint64 // never-reused sequence number of the install
	unwound    bool   // a predecessor's abort rewound past this install
	prevImg    []byte // image replaced at install (for abort restore)
}

// State snapshot helpers (the canonical state lives behind the entry latch;
// these atomics let waiters check without the latch).

func (r *Request) stateLoad() reqState { return reqState(r.state.Load()) }

// Granted reports whether the request currently holds the lock (as owner
// or retired).
func (r *Request) Granted() bool {
	s := r.stateLoad()
	return s == reqOwner || s == reqRetired
}

// Retired reports whether the request is in the retired list.
func (r *Request) Retired() bool { return r.stateLoad() == reqRetired }

// Gen returns the request's recycle generation. It changes only inside
// Pool.Put, so a holder that observes a changed generation has witnessed a
// reuse-after-release bug.
func (r *Request) Gen() uint64 { return r.gen }

// reset returns the request to its zero state, keeping the generation
// counter and the spare image buffer. Called by Pool.Put on quiescent
// requests only.
func (r *Request) reset() {
	r.Txn = nil
	r.Mode = SH
	r.Data = nil
	r.Read = nil
	r.Dirty = false
	r.next, r.prev, r.onList = nil, nil, nil
	r.entry = nil
	r.semHeld = false
	r.installed = false
	r.installSeq = 0
	r.unwound = false
	r.prevImg = nil
	r.imgCopies = 0
	r.imgReuses = 0
	r.wait = 0
	r.state.Store(int32(reqWaiting))
}

// takeBuf builds a private copy of src, drawing storage from the
// request's spare buffer when it fits. The spare slot is consumed either
// way, so a capture at release can never alias an image that is still
// someone's private copy. A nil src stays nil (keyless entries) and the
// spare is kept.
func (r *Request) takeBuf(src []byte) []byte {
	if src == nil {
		return nil
	}
	b := r.buf
	r.buf = nil
	if cap(b) < len(src) {
		r.imgCopies++
		b = make([]byte, len(src))
	} else {
		r.imgReuses++
		b = b[:len(src)]
	}
	copy(b, src)
	return b
}

// writeCopy gives the request a private mutable copy of the installed
// image img as Data and keeps img itself as Read: what both paths to an
// exclusive hold (fresh grant, upgrade) do with the image the writer
// observed.
func (r *Request) writeCopy(img []byte) {
	r.Read = img
	r.Data = r.takeBuf(img)
}

// captureSpare stashes img as the request's spare buffer. Callers must
// prove img is unreachable by every other holder, reader, version chain
// and WAL batch — see the release-time capture rules in releaseLocked.
// The capacity clamp keeps a capture from ever growing into a neighbor's
// storage (loader images may be sliced from larger allocations).
func (r *Request) captureSpare(img []byte) {
	if len(img) > 0 {
		r.buf = img[:len(img):len(img)]
	}
}

// StashBuf donates b as the request's spare image buffer. b must be
// unreachable by any other component (a version-chain image detached
// below the reclaim watermark). Only the holding session may call it.
func (r *Request) StashBuf(b []byte) {
	if len(b) > 0 {
		r.buf = b[:len(b):len(b)]
	}
}

// HasSpare reports whether the request carries a spare image buffer. An
// executor with image buffers of its own checks it before a write grant
// so that it hands one over (StashBuf) only where the copy would allocate.
func (r *Request) HasSpare() bool { return r.buf != nil }

// TakeWait returns and resets the time the request has spent blocked
// since the last call: the lock-wait share of the paper's runtime
// breakdown. It is written by the goroutine that called AcquireInto or
// Upgrade, before that call returned, so the same goroutine may read it
// right after — on success or on error.
func (r *Request) TakeWait() time.Duration {
	w := r.wait
	r.wait = 0
	return w
}

// ImageStats returns and resets the request's image-copy counters: fresh
// after-image allocations and spare-buffer reuses since Get. Executors
// harvest them after Release (or an Acquire error) into their per-worker
// stats collector.
func (r *Request) ImageStats() (copies, reuses uint32) {
	c, u := r.imgCopies, r.imgReuses
	r.imgCopies, r.imgReuses = 0, 0
	return c, u
}

// Pool is a per-worker freelist of Requests. It is NOT safe for concurrent
// use: each worker session owns one. The zero value is ready to use.
type Pool struct {
	free []*Request
}

// Get returns a zeroed Request, recycling a quiescent one if available.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	return &Request{}
}

// Put recycles r.
//
// Quiescence rule: a Request may be recycled only once it is detached from
// every entry list and no other goroutine can reach it. Both conditions
// hold exactly when AcquireInto returned an error for r, or Release(r)
// returned: list membership changes only under the entry latch, and every
// cross-request reference the protocol takes (wound scans, cascade scans,
// versionAt, orderSuccessors, notifyHeads) is derived from list membership
// inside one latch critical section and never retained past it — wounds
// and semaphore operations target the Txn, not the Request. Put panics if
// r is still on a list, which would be a caller bug.
func (p *Pool) Put(r *Request) {
	if r.onList != nil {
		panic("lock: Pool.Put of a request still on an entry list")
	}
	r.gen++
	r.reset()
	p.free = append(p.free, r)
}

// reqList is an intrusive doubly-linked list of Requests, guarded by the
// owning entry's latch.
type reqList struct {
	head, tail *Request
	n          int
}

func (l *reqList) len() int { return l.n }

func (l *reqList) pushBack(r *Request) { l.insertBefore(r, nil) }

func (l *reqList) pushFront(r *Request) { l.insertBefore(r, l.head) }

// insertBefore links r into the list immediately before at; at == nil
// appends at the tail. r must be detached.
func (l *reqList) insertBefore(r, at *Request) {
	if r.onList != nil {
		panic("lock: insert of a request already on a list")
	}
	r.onList = l
	if at == nil {
		r.prev = l.tail
		r.next = nil
		if l.tail != nil {
			l.tail.next = r
		} else {
			l.head = r
		}
		l.tail = r
	} else {
		r.prev = at.prev
		r.next = at
		if at.prev != nil {
			at.prev.next = r
		} else {
			l.head = r
		}
		at.prev = r
	}
	l.n++
}

// insertByTS inserts r in ascending timestamp order (after any equal
// timestamps, preserving arrival order).
func (l *reqList) insertByTS(r *Request) {
	ts := r.Txn.TS()
	at := l.head
	for at != nil && at.Txn.TS() <= ts {
		at = at.next
	}
	l.insertBefore(r, at)
}

// remove unlinks r; it must be a member of this list.
func (l *reqList) remove(r *Request) {
	if r.onList != l {
		panic("lock: remove of a request not on this list")
	}
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.tail = r.prev
	}
	r.next, r.prev, r.onList = nil, nil, nil
	l.n--
}

// Entry is the per-tuple lock entry of Figure 2 plus the tuple's data
// image and a version counter used to make abort restores idempotent.
//
// The zero value is NOT ready to use: initialize Data with Init (or leave
// nil for keyless tuples).
type Entry struct {
	latch sync.Mutex

	// Data is the newest installed image (possibly dirty under Bamboo).
	// Guarded by latch for the lock-based protocols.
	Data []byte

	// seq hands out never-reused install sequence numbers; cur is the
	// sequence position of the image currently in Data (restores rewind
	// cur but never seq, so a stale install can always be told apart from
	// a fresh one). Guarded by latch.
	seq uint64
	cur uint64

	retired reqList // sorted by ascending timestamp
	owners  reqList // mutually compatible
	waiters reqList // sorted by ascending timestamp (FIFO under Wait-Die)

	// upgrading marks a pending SH→EX upgrade (the oldest one, if several
	// race). Grant paths treat it as an exclusive request at its holder's
	// timestamp so younger readers queue instead of being granted and
	// immediately wounded again — without it an upgrade could be starved
	// by reader churn, since the upgrader never joins the waiters list.
	// Guarded by latch.
	upgrading *Request

	// scratch is reused by orderSuccessorsLocked to track applied
	// semaphore increments without allocating. Guarded by latch.
	scratch []*Request
}

// Init sets the initial committed image.
func (e *Entry) Init(data []byte) { e.Data = data }

// Snapshot returns the sizes of the three lists; used by tests and stats.
func (e *Entry) Snapshot() (retired, owners, waiters int) {
	e.latch.Lock()
	defer e.latch.Unlock()
	return e.retired.len(), e.owners.len(), e.waiters.len()
}

// CurrentData returns the newest installed image under the latch. Intended
// for tests and for single-threaded inspection.
func (e *Entry) CurrentData() []byte {
	e.latch.Lock()
	defer e.latch.Unlock()
	return e.Data
}

// AppendCommittedData appends the entry's newest *committed* image onto
// buf under the latch and returns the extended slice. Under Bamboo the
// entry's current image may be a dirty install published by a retired —
// not yet committed — writer; checkpointing that image would persist
// state a later abort unwinds. The committed image is the version a
// reader inserted before every retired request would observe: the
// pre-image of the first live exclusive install in the retired list, or
// Data itself when no uncommitted install exists. Fuzzy checkpoints use
// this to snapshot rows without stopping writers.
func (e *Entry) AppendCommittedData(buf []byte) []byte {
	e.latch.Lock()
	defer e.latch.Unlock()
	return append(buf, versionAt(e, e.retired.head)...)
}

// CheckInvariants verifies structural invariants of the entry under the
// latch; tests call it after randomized histories. It returns an error
// describing the first violation found.
func (e *Entry) CheckInvariants() error {
	e.latch.Lock()
	defer e.latch.Unlock()
	// intrusive links must be consistent.
	for _, l := range []*reqList{&e.retired, &e.owners, &e.waiters} {
		n := 0
		var prev *Request
		for x := l.head; x != nil; x = x.next {
			if x.onList != l {
				return fmt.Errorf("list node %s has wrong back pointer", x.Txn)
			}
			if x.prev != prev {
				return fmt.Errorf("broken prev link at %s", x.Txn)
			}
			prev = x
			n++
		}
		if l.tail != prev {
			return fmt.Errorf("tail pointer mismatch")
		}
		if n != l.n {
			return fmt.Errorf("list length %d, counted %d", l.n, n)
		}
	}
	// owners must be mutually compatible.
	for a := e.owners.head; a != nil; a = a.next {
		for b := a.next; b != nil; b = b.next {
			if Conflict(a.Mode, b.Mode) {
				return fmt.Errorf("owners %s and %s conflict", a.Txn, b.Txn)
			}
		}
	}
	// retired must be timestamp-sorted (waiters are sorted for all
	// variants except Wait-Die, which uses FIFO order; the entry does not
	// know its manager's variant, so only retired is checked here).
	for x := e.retired.head; x != nil && x.next != nil; x = x.next {
		if x.Txn.TS() > x.next.Txn.TS() {
			return fmt.Errorf("retired not sorted at %s", x.next.Txn)
		}
	}
	// a pending upgrade must reference a granted member of this entry.
	if u := e.upgrading; u != nil {
		if u.onList != &e.owners && u.onList != &e.retired {
			return fmt.Errorf("pending upgrade %s is not a holder", u.Txn)
		}
	}
	// request states must match list membership.
	for x := e.retired.head; x != nil; x = x.next {
		if x.stateLoad() != reqRetired {
			return fmt.Errorf("retired list holds request in state %d", x.stateLoad())
		}
	}
	for x := e.owners.head; x != nil; x = x.next {
		if x.stateLoad() != reqOwner {
			return fmt.Errorf("owners list holds request in state %d", x.stateLoad())
		}
	}
	return nil
}

// DebugString renders the entry's lists with transaction details; used by
// tests to diagnose stalls.
func (e *Entry) DebugString() string {
	e.latch.Lock()
	defer e.latch.Unlock()
	var b strings.Builder
	dump := func(name string, l *reqList) {
		fmt.Fprintf(&b, "  %s:", name)
		for r := l.head; r != nil; r = r.next {
			fmt.Fprintf(&b, " {%s %s sem=%d st=%d semHeld=%v inst=%v unw=%v}",
				r.Mode, r.Txn, r.Txn.Sem(), r.stateLoad(), r.semHeld, r.installed, r.unwound)
		}
		b.WriteString("\n")
	}
	dump("retired", &e.retired)
	dump("owners", &e.owners)
	dump("waiters", &e.waiters)
	return b.String()
}
