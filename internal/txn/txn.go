// Package txn defines the transaction identity and synchronization state
// shared by every concurrency-control protocol in this repository.
//
// A Txn carries three pieces of protocol-visible state:
//
//   - a priority timestamp used by the Wound-Wait / Wait-Die deadlock
//     prevention rules (smaller timestamp = higher priority, paper §2.1);
//   - the commit_semaphore introduced by Bamboo (paper §3.2.1), counting
//     the number of unresolved dirty-read dependencies;
//   - an atomic lifecycle state used to implement wounds (set_abort in the
//     paper) without races against the commit point.
//
// The package deliberately knows nothing about rows, locks or logging so
// that the lock manager, the Bamboo executor and the OCC/IC3 baselines can
// all share it without import cycles.
package txn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TSUnassigned is the sentinel timestamp of a transaction that has not yet
// been assigned a priority. With dynamic timestamp assignment (paper §3.5,
// Optimization 4) transactions start unassigned and receive a timestamp on
// their first conflict.
const TSUnassigned uint64 = 0

// State is the lifecycle state of a transaction attempt.
//
// The state machine is:
//
//	Running ──CommitCAS──▶ Committing ──▶ Committed
//	   │
//	   └──Wound/Die/SelfAbort──▶ Aborting ──▶ Aborted
//
// Both transitions out of Running are compare-and-swap so that a wound
// racing with the commit point resolves deterministically: once a
// transaction has won the CAS into Committing it is past its commit point
// (paper Definition 1) and subsequent wounds are no-ops; conversely a
// transaction that has been wounded can never enter Committing.
type State int32

const (
	// StateRunning is the normal executing state.
	StateRunning State = iota
	// StateCommitting means the transaction passed its commit check
	// (commit_semaphore == 0 and not wounded) and is writing its log
	// record. It can no longer be aborted by other transactions.
	StateCommitting
	// StateCommitted is terminal.
	StateCommitted
	// StateAborting means some party (a wound, a cascading abort, or the
	// transaction itself) has decided this attempt must abort; the owning
	// worker will observe the state and roll back.
	StateAborting
	// StateAborted is terminal for this attempt. The worker typically
	// resets the transaction and retries.
	StateAborted
)

// String implements fmt.Stringer for diagnostics.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateCommitting:
		return "committing"
	case StateCommitted:
		return "committed"
	case StateAborting:
		return "aborting"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// AbortCause records why a transaction attempt aborted. It feeds the
// abort-rate breakdowns reported in the paper's runtime-analysis figures.
type AbortCause int32

const (
	// CauseNone means the attempt did not abort.
	CauseNone AbortCause = iota
	// CauseWound: aborted by a higher-priority transaction to prevent
	// deadlock (Wound-Wait rule; paper §4.1 case 1).
	CauseWound
	// CauseCascade: aborted because a transaction whose dirty data this
	// transaction read aborted (paper §4.1 case 2).
	CauseCascade
	// CauseDie: self-abort on conflict under Wait-Die or No-Wait.
	CauseDie
	// CauseUser: user/logic-initiated abort, e.g. the 1% of TPC-C
	// new-order transactions with an invalid item (paper §4.1 case 3).
	CauseUser
	// CauseValidation: OCC (Silo) read-set validation failure, or IC3
	// optimistic piece validation failure.
	CauseValidation
)

// String implements fmt.Stringer.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseWound:
		return "wound"
	case CauseCascade:
		return "cascade"
	case CauseDie:
		return "die"
	case CauseUser:
		return "user"
	case CauseValidation:
		return "validation"
	default:
		return fmt.Sprintf("cause(%d)", int32(c))
	}
}

// Sharded timestamp allocation. Priority timestamps feed the Wound-Wait
// and Wait-Die rules, whose behavior depends on the order being a good
// proxy for arrival order: a transaction with an anomalously small
// timestamp wounds every hotspot holder it meets. That rules out the
// classic "per-worker blocks claimed off a global counter" sharding — a
// worker draining a low block outranks everything another worker starts
// for the whole block, which measurably turns a two-worker hotspot into a
// perpetual wound storm (~48% aborts where a global counter gives ~0%).
//
// TSAlloc therefore shards by *time*, not by counter range: a timestamp
// is the worker-private monotonic-clock reading shifted left, with the
// worker id in the low bits for uniqueness. No shared cacheline is ever
// touched, cross-worker order tracks real arrival order within clock
// resolution (ties broken by worker id), and the wound-ordering
// invariants survive: timestamps are unique (distinct low bits per
// worker, monotone per worker), retried transactions keep their original
// timestamp (starvation freedom, paper §2.1), and under DynamicTS the
// assignment still happens at first conflict, so assignment order still
// approximates conflict order as Algorithm 3 intends.
const (
	tsWorkerBits = 10
	// TSWorkerSlots is the number of distinct worker ids the sharded
	// allocator can disambiguate; at most this many sessions may allocate
	// timestamps concurrently against one lock manager.
	TSWorkerSlots = 1 << tsWorkerBits
)

// tsEpoch anchors the monotonic clock; only differences matter.
var tsEpoch = time.Now()

// TSAlloc hands out priority timestamps for one worker without touching
// any shared state.
//
// A TSAlloc is owned by one worker but must tolerate cross-worker Next
// calls: under dynamic timestamp assignment (Algorithm 3) the lock
// manager assigns timestamps to *other* workers' transactions inside its
// critical sections, through each transaction's attached allocator. A
// mutex (virtually uncontended — the owner is spinning or running user
// code at that point, not allocating) keeps that safe.
type TSAlloc struct {
	mu   sync.Mutex
	last uint64
}

// NewTSAlloc returns the timestamp allocator for the given worker index.
// Indexes are folded into TSWorkerSlots slots; two *concurrently
// allocating* sessions of one manager must not share a slot or uniqueness
// is no longer guaranteed.
func NewTSAlloc(worker int) *TSAlloc {
	return &TSAlloc{last: uint64(worker) & (TSWorkerSlots - 1)}
}

// Next returns the next timestamp: strictly increasing per worker, unique
// across workers, never TSUnassigned, and globally ordered by allocation
// time within clock resolution.
func (a *TSAlloc) Next() uint64 {
	a.mu.Lock()
	ts := uint64(time.Since(tsEpoch))<<tsWorkerBits | a.last&(TSWorkerSlots-1)
	if ts <= a.last {
		// Clock stall (or first call in the epoch's opening nanoseconds):
		// advance by one full slot stride, preserving the worker bits.
		ts = a.last + TSWorkerSlots
	}
	a.last = ts
	a.mu.Unlock()
	return ts
}

// Txn is the protocol-visible core of a transaction attempt.
//
// A Txn is owned by exactly one worker goroutine, but its fields are read
// and written by other workers through the lock table (wounds, semaphore
// increments), hence the atomics.
type Txn struct {
	// ID uniquely identifies the logical transaction across retries.
	ID uint64
	// Attempt counts retries of the same logical transaction.
	Attempt uint64

	// alloc, when set, overrides the counter passed to
	// AssignTSIfUnassigned so timestamps come from the owning worker's
	// block allocator. Written by the owner between transactions, read by
	// any assigner.
	alloc *TSAlloc

	ts    atomic.Uint64 // priority timestamp; TSUnassigned until assigned
	sem   atomic.Int64  // Bamboo commit_semaphore
	state atomic.Int32  // State
	cause atomic.Int32  // AbortCause of the current attempt

	// Pads the struct to one 64-byte cache line. A Txn is the one object
	// other workers poll (sem and state in the commit-wait spin, ts at
	// every conflict); at 48 bytes it shares its allocator size class,
	// and so its cache lines, with whatever else sessions allocate at that
	// size — the next session's Txn, a one-ticket commit scratch written
	// at every commit — and every such write stalls the pollers.
	_ [16]byte
}

// New returns a transaction with the given ID in StateRunning and an
// unassigned timestamp.
func New(id uint64) *Txn {
	t := &Txn{ID: id}
	t.state.Store(int32(StateRunning))
	return t
}

// SetTSAlloc attaches a block allocator; subsequent timestamp assignments
// draw from it instead of the global counter. Must only be called by the
// owning worker while the transaction holds no locks.
func (t *Txn) SetTSAlloc(a *TSAlloc) { t.alloc = a }

// Renew re-initializes the transaction as a brand-new logical transaction
// with the given ID, keeping the attached allocator. It must only be
// called once every request of the previous transaction has been released
// (at that point no other goroutine holds a reference; see the quiescence
// rule on lock.Pool.Put).
func (t *Txn) Renew(id uint64) {
	t.ID = id
	t.Attempt = 0
	t.ts.Store(TSUnassigned)
	t.sem.Store(0)
	t.cause.Store(int32(CauseNone))
	t.state.Store(int32(StateRunning))
}

// Reset prepares the transaction for a retry of the same logical
// transaction. The priority timestamp is preserved: Wound-Wait (and
// therefore Bamboo) relies on restarted transactions keeping their original
// — hence oldest-wins — timestamp for starvation freedom (paper §2.1).
func (t *Txn) Reset() {
	t.Attempt++
	t.sem.Store(0)
	t.cause.Store(int32(CauseNone))
	t.state.Store(int32(StateRunning))
}

// ResetWithNewTS additionally clears the timestamp. Used by protocols or
// tests that want fresh priorities per attempt.
func (t *Txn) ResetWithNewTS() {
	t.Reset()
	t.ts.Store(TSUnassigned)
}

// TS returns the current priority timestamp (TSUnassigned if none).
func (t *Txn) TS() uint64 { return t.ts.Load() }

// SetTS unconditionally sets the timestamp. Used when timestamps are
// assigned at start (the paper's basic protocol).
func (t *Txn) SetTS(ts uint64) { t.ts.Store(ts) }

// AssignTSIfUnassigned implements set_ts_if_unassigned from Algorithm 3:
// a single compare-and-swap that draws the next value — from the
// transaction's block allocator when one is attached, else from counter —
// if and only if the transaction has no timestamp yet. It returns the
// resulting timestamp in either case.
func (t *Txn) AssignTSIfUnassigned(counter *atomic.Uint64) uint64 {
	if ts := t.ts.Load(); ts != TSUnassigned {
		return ts
	}
	var next uint64
	if a := t.alloc; a != nil {
		next = a.Next()
	} else {
		next = counter.Add(1)
	}
	if t.ts.CompareAndSwap(TSUnassigned, next) {
		return next
	}
	return t.ts.Load()
}

// HasTS reports whether a timestamp has been assigned.
func (t *Txn) HasTS() bool { return t.ts.Load() != TSUnassigned }

// Older reports whether t has higher priority than other (strictly smaller
// timestamp). Both transactions must have assigned timestamps; this is
// guaranteed by the lock manager, which assigns timestamps to all parties
// of a conflict before comparing them.
func (t *Txn) Older(other *Txn) bool { return t.ts.Load() < other.ts.Load() }

// State returns the current lifecycle state.
func (t *Txn) State() State { return State(t.state.Load()) }

// SetAbort requests that this transaction abort with the given cause
// (set_abort in Algorithm 2). It has no effect if the transaction has
// already passed its commit point (the wound is then a no-op, which is
// safe: the wounder simply keeps waiting until the target releases its
// locks at commit) or if an abort was already requested.
//
// SetAbort returns true only when this call performed the
// Running→Aborting transition, which makes it usable for wound and
// cascade counting; use WillAbort to test the resulting state.
func (t *Txn) SetAbort(cause AbortCause) bool {
	for {
		s := State(t.state.Load())
		switch s {
		case StateRunning:
			// Cause first: whoever sees Aborting must also see why. If the
			// commit CAS wins instead, the committed attempt keeps a cause
			// nobody reads; Reset and Renew clear it.
			t.cause.CompareAndSwap(int32(CauseNone), int32(cause))
			if t.state.CompareAndSwap(int32(StateRunning), int32(StateAborting)) {
				return true
			}
		case StateAborting, StateAborted, StateCommitting, StateCommitted:
			return false
		}
	}
}

// WillAbort reports whether the current attempt is doomed: an abort has
// been requested or performed.
func (t *Txn) WillAbort() bool { return t.Aborting() }

// Aborting reports whether an abort has been requested or performed for
// the current attempt. The lock-wait and commit-semaphore spin loops poll
// this so that wounds interrupt any wait.
func (t *Txn) Aborting() bool {
	s := State(t.state.Load())
	return s == StateAborting || s == StateAborted
}

// BeginCommit attempts to move the transaction past its commit point
// (Definition 1 in the paper). It fails iff an abort was requested first.
func (t *Txn) BeginCommit() bool {
	return t.state.CompareAndSwap(int32(StateRunning), int32(StateCommitting))
}

// FinishCommit marks the attempt committed. Must follow BeginCommit.
func (t *Txn) FinishCommit() { t.state.Store(int32(StateCommitted)) }

// FinishAbort marks the attempt aborted.
func (t *Txn) FinishAbort() { t.state.Store(int32(StateAborted)) }

// Cause returns why the current attempt aborted (CauseNone if it did not).
func (t *Txn) Cause() AbortCause { return AbortCause(t.cause.Load()) }

// SetCause overrides the abort cause; used for self-aborts where the
// worker, not a remote wound, decides the cause.
func (t *Txn) SetCause(c AbortCause) { t.cause.Store(int32(c)) }

// Commit semaphore operations (paper §3.2.1). The semaphore is incremented
// when the transaction acquires a lock that conflicts with a retired
// transaction and decremented when that dependency clears. The transaction
// may reach its commit point only when the semaphore is zero.

// SemIncr increments the commit semaphore.
func (t *Txn) SemIncr() { t.sem.Add(1) }

// SemDecr decrements the commit semaphore.
func (t *Txn) SemDecr() { t.sem.Add(-1) }

// Sem returns the current commit semaphore value.
func (t *Txn) Sem() int64 { return t.sem.Load() }

// String implements fmt.Stringer for diagnostics.
func (t *Txn) String() string {
	return fmt.Sprintf("txn{id=%d attempt=%d ts=%d state=%s sem=%d}",
		t.ID, t.Attempt, t.TS(), t.State(), t.Sem())
}
