package lock

import (
	"sync/atomic"
	"time"

	"bamboo/internal/txn"
)

// Config selects a Manager's protocol variant and, for Bamboo, the
// optimization toggles of paper §3.5. The zero value is plain No-Wait.
type Config struct {
	Variant Variant

	// RetireReads (Optimization 1) moves shared locks straight into the
	// retired list at grant time, inside the same critical section, so
	// reads never need a second latch acquisition to retire.
	RetireReads bool

	// NoWoundRead (Optimization 3) makes shared requests never wound:
	// instead of aborting conflicting writers the reader is inserted into
	// the retired list at its timestamp position and reads the data
	// version belonging to that position (possibly a pre-image of a
	// younger uncommitted writer). Readers then only ever wait for
	// *older* exclusive owners, which preserves the invariant that every
	// wait/dependency edge points from a younger to an older timestamp.
	NoWoundRead bool

	// DynamicTS (Optimization 4) defers timestamp assignment to a
	// transaction's first conflict (Algorithm 3).
	DynamicTS bool

	// RecycleImages enables superseded-image recycling: when an exclusive
	// request releases at commit, the committed image its install (or
	// 2PL publish) superseded is captured into the request's spare buffer,
	// and the next exclusive grant builds its private copy in that storage
	// instead of allocating. Safe only while nothing outside the lock
	// table retains references to installed images past release:
	// core.NewDB enables it exactly when MVCC is off (version chains
	// adopt every committed image), and a commit hook must copy the
	// images it keeps. Off (the zero value), images are never
	// overwritten after publication.
	RecycleImages bool

	// OnWound, if non-nil, is called once per transaction newly wounded by
	// an Acquire on this manager.
	OnWound func()

	// OnCascade, if non-nil, is called with the number of transactions
	// newly aborted by one cascading abort (the paper's abort chain
	// length metric, §4.2).
	OnCascade func(chain int)
}

// Manager implements lock acquisition, retiring and release for one of the
// four protocol variants. A Manager is shared by all entries of a database
// instance and is safe for concurrent use.
type Manager struct {
	cfg       Config
	tsCounter atomic.Uint64
}

// NewManager returns a manager with the given configuration.
// Optimization 3 requires the positioned-read machinery of Optimization 1,
// so NoWoundRead implies RetireReads.
func NewManager(cfg Config) *Manager {
	if cfg.NoWoundRead {
		cfg.RetireReads = true
	}
	return &Manager{cfg: cfg}
}

// Variant returns the configured protocol variant.
func (m *Manager) Variant() Variant { return m.cfg.Variant }

// DynamicTS reports whether dynamic timestamp assignment is enabled.
func (m *Manager) DynamicTS() bool { return m.cfg.DynamicTS }

// NewTSAlloc returns the sharded (worker-local, clock-based) timestamp
// allocator for the given worker index; see txn.TSAlloc for the ordering
// discussion. Sessions attach it to their transactions so both static
// start-time assignment and DynamicTS conflict-time assignment stop
// touching the manager's shared counter.
func (m *Manager) NewTSAlloc(worker int) *txn.TSAlloc {
	return txn.NewTSAlloc(worker)
}

// AssignTS assigns a start timestamp to t (static assignment mode),
// drawing from t's allocator when one is attached.
func (m *Manager) AssignTS(t *txn.Txn) { t.AssignTSIfUnassigned(&m.tsCounter) }

// Acquire requests a lock of the given mode on entry e for transaction t,
// blocking until granted or until the variant's deadlock-prevention rule
// decides the transaction must abort. On success the returned Request
// carries the data image visible to the transaction.
//
// Acquire allocates its Request; the zero-allocation path is AcquireInto
// with a Pool-recycled request.
func (m *Manager) Acquire(t *txn.Txn, mode Mode, e *Entry) (*Request, error) {
	r := &Request{}
	if err := m.AcquireInto(r, t, mode, e); err != nil {
		return nil, err
	}
	return r, nil
}

// AcquireInto is Acquire with a caller-provided request, which must be
// zeroed (freshly allocated or from Pool.Get). On error the request is
// guaranteed detached from every entry list and may be recycled
// immediately; on success it must not be recycled until Release(r) has
// returned.
func (m *Manager) AcquireInto(r *Request, t *txn.Txn, mode Mode, e *Entry) error {
	if t.Aborting() {
		return ErrAborting
	}
	r.Txn = t
	r.Mode = mode
	r.entry = e

	e.latch.Lock()
	if m.cfg.DynamicTS {
		m.assignOnConflictLocked(t, mode, e)
	}

	switch m.cfg.Variant {
	case NoWait:
		if m.conflictsWithHolders(e, mode) {
			e.latch.Unlock()
			return ErrNoWait
		}
	case WaitDie:
		// Older transactions wait; younger requesters die. The check must
		// cover waiters as well as owners: Wait-Die queues are FIFO (an
		// older transaction cutting ahead of a younger waiter — fine under
		// Wound-Wait, where wounds break the resulting cycles — deadlocks
		// under Wait-Die), so a requester will wait behind every already
		// queued conflicting transaction and must be older than all of
		// them.
		die := false
		// A pending upgrade is exclusive intent at its holder's timestamp:
		// without this clause a younger compatible reader would be admitted
		// and then blocked behind the upgrade marker in promoteWaiters — a
		// younger-waits-for-older edge that Wait-Die's deadlock-freedom
		// argument forbids (and that closes real cross-entry cycles).
		if u := e.upgrading; u != nil && u.Txn != t && u.Txn.TS() < t.TS() {
			die = true
		}
		for _, l := range []*reqList{&e.retired, &e.owners, &e.waiters} {
			for h := l.head; h != nil; h = h.next {
				if Conflict(mode, h.Mode) && h.Txn.TS() < t.TS() {
					die = true
					break
				}
			}
			if die {
				break
			}
		}
		if die {
			e.latch.Unlock()
			return ErrDie
		}
	case WoundWait:
		m.woundLocked(t, mode, e)
	case Bamboo:
		if mode == SH && m.cfg.NoWoundRead {
			// Optimization 3: reads never wound. If no conflicting *older*
			// owner or waiter exists, try to grant immediately into the
			// retired list at the reader's timestamp position; younger
			// uncommitted writers the reader bypasses are retroactively
			// commit-ordered after it (see grantLocked). The grant can
			// fail if such a writer is already past its commit point, in
			// which case the reader queues briefly until it drains.
			if !m.olderConflicting(e, t, mode) && m.grantLocked(e, r, true) {
				e.latch.Unlock()
				return nil
			}
			// Otherwise wait (without wounding).
		} else {
			m.woundLocked(t, mode, e)
		}
	}

	if m.cfg.Variant == WaitDie {
		// FIFO: with the admission rule above, queue order is oldest-last
		// and every wait edge points from an older to a younger
		// transaction, which keeps Wait-Die deadlock-free.
		e.waiters.pushBack(r)
	} else {
		e.waiters.insertByTS(r)
	}
	m.promoteWaiters(e)
	granted := r.Granted()
	e.latch.Unlock()
	if granted {
		return nil
	}
	return m.waitGranted(r)
}

// Upgrade promotes r — a granted shared request — to exclusive mode in
// place, without ever giving up the shared hold (so the image the
// transaction read stays protected through the upgrade; an upgraded
// read-modify-write can never lose an update to a concurrent writer).
// With intrusive lists the upgrade itself is a relink plus a wound check:
// no second Request, no release/re-acquire window.
//
// Deadlock handling follows each variant's discipline, treating the
// upgrade as an exclusive request at r's own timestamp:
//
//   - NoWait: any other holder aborts the upgrader (ErrNoWait).
//   - WaitDie: an older conflicting holder makes the upgrader self-abort
//     (ErrDie); otherwise it waits for the younger holders to drain (they
//     release, or die when they attempt their own upgrade against us).
//   - WoundWait/Bamboo: younger holders — shared owners and, for Bamboo,
//     retired readers that bypassed us — are wounded; the upgrader waits
//     only for older holders to leave. Two upgraders of the same entry
//     therefore resolve like any other wound: the older one wounds the
//     younger, which observes Aborting and returns ErrWound. Every wait
//     edge an upgrade introduces points from a younger to an older
//     timestamp (or older to younger under Wait-Die), so the variant's
//     deadlock-freedom argument carries over unchanged.
//
// On success r is an exclusive member of the owners list (a retired
// shared request is un-retired: unlike a retired write it has installed
// nothing yet) and r.Data is a private mutable copy of the image the
// request was reading, exactly as if the lock had been acquired EX. Under
// Bamboo the upgrader commit-orders itself behind every remaining retiree
// (all older and live at that point, or it could not have completed).
//
// On error r is STILL a granted shared request, attached to its entry:
// the caller's normal rollback path releases it along with the rest of
// the access list. This differs from AcquireInto's detached-on-error
// contract and is what keeps the executor's bookkeeping trivial.
//
// A write the executor retires right away (Bamboo's un-annotated
// read-modify-write) calls Retire after Upgrade, exactly as after an
// exclusive grant: the retire is a second latch pass, which re-inserts r
// into the retired list at its timestamp slot and grants the readers that
// queued behind the upgrade.
func (m *Manager) Upgrade(r *Request) error {
	if r.Mode == EX {
		return nil
	}
	if r.Txn.Aborting() {
		return ErrAborting
	}
	done, err := m.tryUpgrade(r)
	if done {
		return err
	}
	// Blocked behind other holders: from here to the outcome is lock wait,
	// handed back on the request like an acquire's (waitGranted). Every
	// change to the entry wakes the pending upgrade (promoteWaiters), and
	// a wound wakes its transaction, after which tryUpgrade gives up.
	start := now()
	if !r.Txn.Wait(func() bool { done, err = m.tryUpgrade(r); return done }, time.Time{}) {
		_, err = m.tryUpgrade(r)
	}
	r.wait += now() - start
	return err
}

// tryUpgrade is one entry-latch pass of an upgrade: it applies the
// variant's deadlock rule and completes the promotion if the entry has
// quiesced around r. done is false when the upgrader has to keep waiting.
func (m *Manager) tryUpgrade(r *Request) (done bool, err error) {
	t := r.Txn
	e := r.entry
	e.latch.Lock()
	defer e.latch.Unlock()
	if t.Aborting() {
		dropUpgradeLocked(e, r)
		return true, ErrWound
	}
	// The deadlock rule applies only when somebody else is on the entry.
	// With the upgrader its only holder and nobody queued — the common
	// uncontended read-modify-write — every variant agrees on the outcome
	// (no conflict to abort on, wound, or wait for), DynamicTS would
	// assign nothing (no other request exists), and the pending-upgrade
	// slot never needs claiming because there is no grant race to fence
	// off: the promotion completes in place.
	if e.waiters.head != nil || (e.upgrading != nil && e.upgrading != r) || otherHolder(e, r, false) {
		// The promotion to exclusive conflicts with every other request
		// on the entry, and one exists here: under DynamicTS all parties
		// receive timestamps, and Wound-Wait/Bamboo wound every younger
		// holder (r's own request carries t's timestamp, so it is never
		// wounded).
		if m.cfg.DynamicTS {
			m.assignOnConflictLocked(t, EX, e)
		}
		claimUpgradeLocked(e, r)
		switch m.cfg.Variant {
		case NoWait:
			if otherHolder(e, r, false) {
				dropUpgradeLocked(e, r)
				return true, ErrNoWait
			}
		case WaitDie:
			if otherHolder(e, r, true) {
				dropUpgradeLocked(e, r)
				return true, ErrDie
			}
		case WoundWait, Bamboo:
			m.woundLocked(t, EX, e)
		}
		if upgradeBlockedLocked(e, r) {
			return false, nil
		}
	}
	m.completeUpgradeLocked(e, r)
	dropUpgradeLocked(e, r)
	return true, nil
}

// claimUpgradeLocked registers r as the entry's pending upgrade unless an
// older upgrade already holds the slot (in which case r is doomed anyway:
// the older upgrader wounds it under Wound-Wait/Bamboo, or r dies on the
// older holder under Wait-Die).
func claimUpgradeLocked(e *Entry, r *Request) {
	if e.upgrading == nil || e.upgrading.Txn.TS() > r.Txn.TS() {
		e.upgrading = r
	}
}

// dropUpgradeLocked clears the pending-upgrade slot if r holds it.
func dropUpgradeLocked(e *Entry, r *Request) {
	if e.upgrading == r {
		e.upgrading = nil
	}
}

// otherHolder reports whether a granted request besides r exists on the
// entry — with older set, one with a strictly smaller timestamp (the
// Wait-Die upgrade self-abort condition). An upgrade conflicts with every
// other holder regardless of mode.
func otherHolder(e *Entry, r *Request, older bool) bool {
	for _, l := range [...]*reqList{&e.owners, &e.retired} {
		for x := l.head; x != nil; x = x.next {
			if x != r && (!older || x.Txn.TS() < r.Txn.TS()) {
				return true
			}
		}
	}
	return false
}

// upgradeBlockedLocked reports whether the upgrade must keep waiting:
// any other owner (exclusive conflicts with everything), or a retiree
// that is younger than r or doomed. Older live retirees do not block —
// the completed upgrade commit-orders behind them instead. A younger
// retiree past its commit point cannot be wounded and simply drains;
// completing after it has left is safe because its read preceded r's
// install, so it serializes before r and no later arrival can observe
// the two in conflicting order.
func upgradeBlockedLocked(e *Entry, r *Request) bool {
	for x := e.owners.head; x != nil; x = x.next {
		if x != r {
			return true
		}
	}
	ts := r.Txn.TS()
	for x := e.retired.head; x != nil; x = x.next {
		if x == r {
			continue
		}
		if x.Txn.TS() > ts || x.unwound || x.Txn.Aborting() {
			return true
		}
	}
	return false
}

// completeUpgradeLocked performs the in-place promotion once the entry
// has quiesced around r: relink out of retired if the shared grant was
// positioned there, switch the mode, and take a private mutable copy of
// the image the request was reading (the installed image itself stays
// referenced by concurrent committed readers and must not be mutated).
func (m *Manager) completeUpgradeLocked(e *Entry, r *Request) {
	if r.stateLoad() == reqRetired {
		// A retired *read* installed nothing, so un-retiring it is pure
		// list surgery; the semHeld increment it may carry (dirty
		// positioned read) remains valid — its source is among the older
		// retirees the write must now also commit-order behind.
		e.retired.remove(r)
		e.owners.pushBack(r)
		r.state.Store(int32(reqOwner))
	}
	r.Mode = EX
	r.writeCopy(r.Data)
	if m.cfg.Variant == Bamboo && !r.semHeld && e.retired.len() > 0 {
		// Every remaining retiree is older and live (upgradeBlockedLocked),
		// conflicts with the now-exclusive hold, and must commit first.
		r.semHeld = true
		r.Txn.SemIncr()
	}
}

// Retire moves t's exclusive lock from owners to retired (LockRetire in
// Algorithm 2), publishing the transaction's private image as the entry's
// newest — dirty — version so that successors may read it. Retiring a
// shared lock is also permitted (it is a no-op on the data image).
// Retire is optional: if never called, Bamboo degenerates to Wound-Wait.
func (m *Manager) Retire(r *Request) {
	e := r.entry
	e.latch.Lock()
	defer e.latch.Unlock()
	if r.stateLoad() != reqOwner {
		return // dropped, already retired, or released
	}
	if m.cfg.DynamicTS {
		// Entries in the retired list must carry a timestamp so that
		// future conflicts can be ordered against them.
		r.Txn.AssignTSIfUnassigned(&m.tsCounter)
	}
	if r.Mode == EX {
		e.seq++
		r.installSeq = e.seq
		r.prevImg = e.Data
		e.Data = r.Data
		e.cur = r.installSeq
		r.installed = true
	}
	e.owners.remove(r)
	e.retired.insertByTS(r)
	r.state.Store(int32(reqRetired))
	m.promoteWaiters(e)
}

// Release removes the request from the entry (LockRelease in Algorithm 2).
// With isAbort set and an exclusive mode it triggers cascading aborts of
// every transaction positioned after r in retired∪owners, and restores the
// entry's data image to r's pre-image. With isAbort unset it publishes a
// not-yet-installed exclusive image (the 2PL commit path). In all cases it
// then notifies transactions whose dependencies became clear and promotes
// waiters.
func (m *Manager) Release(r *Request, isAbort bool) {
	e := r.entry
	e.latch.Lock()
	defer e.latch.Unlock()
	m.releaseLocked(e, r, isAbort)
}

func (m *Manager) releaseLocked(e *Entry, r *Request, isAbort bool) {
	st := r.stateLoad()
	switch st {
	case reqDropped, reqReleased:
		return
	case reqWaiting:
		e.waiters.remove(r)
		r.state.Store(int32(reqReleased))
		return
	}

	if isAbort && r.Mode == EX && st == reqRetired {
		// Cascading aborts: all transactions after r in retired∪owners
		// have (directly or transitively) observed r's dirty write.
		chain := 0
		for x := r.next; x != nil; x = x.next {
			if x.Txn.SetAbort(txn.CauseCascade) {
				chain++
			}
		}
		for x := e.owners.head; x != nil; x = x.next {
			if x.Txn.SetAbort(txn.CauseCascade) {
				chain++
			}
		}
		if chain > 0 && m.cfg.OnCascade != nil {
			m.cfg.OnCascade(chain)
		}
	}

	// Superseded-image capture (RecycleImages): the storage of an image
	// that provably has no remaining reference is stashed as the leaving
	// request's spare buffer, to be reused by its next private write copy.
	// The capture rules and why each is safe:
	//
	//   - Commit of an installed (retired) write: the pre-image r.prevImg
	//     was superseded by r's install. Every reader or writer that could
	//     reference it conflicts with r (all images come from EX installs,
	//     and SH conflicts with EX), so Bamboo's commit ordering — the
	//     semaphore taken at grant, orderSuccessorsLocked for positioned
	//     readers, and the post-CAS Sem recheck — guarantees they all
	//     released before r reached its commit point. A chain predecessor
	//     writer W1 (whose Data is r's prevImg) likewise released first,
	//     and captured only its *own* prevImg. The !unwound guard keeps the
	//     rewind path sound: !unwound implies e.cur ≥ r.installSeq, so
	//     e.Data is r's image or a newer install, never r.prevImg.
	//   - Commit of a non-installed write (2PL publish): the old e.Data is
	//     superseded. Mutual exclusion at grant (2PL) or the semaphore
	//     ordering (Bamboo) drained every conflicting holder first.
	//   - Abort of a non-installed write: r.Data is a private copy that was
	//     never published; nobody else ever saw it.
	//   - Abort of an installed write captures nothing: cascaded readers
	//     may still hold r.Data, and the restored pre-image is live again.
	//
	// Capture is gated on Config.RecycleImages because MVCC version chains
	// retain image references past release; core.NewDB enables recycling
	// only when MVCC is off.
	if r.Mode == EX {
		if isAbort {
			// Sequence-guarded restore: cascaded aborts arrive in
			// arbitrary order but always form a suffix of the exclusive
			// chain. Rewind to r's pre-image unless a predecessor's abort
			// already rewound past r's install (then r's image is gone
			// and r was marked unwound). Rewinding marks every later,
			// still-present install as unwound so it never restores a
			// dead image later.
			if r.installed && !r.unwound && e.cur >= r.installSeq {
				e.Data = r.prevImg
				e.cur = r.installSeq - 1
				for x := e.retired.head; x != nil; x = x.next {
					if x != r && x.installed && x.installSeq > r.installSeq {
						x.unwound = true
					}
				}
			} else if !r.installed && m.cfg.RecycleImages {
				r.captureSpare(r.Data)
			}
		} else if !r.installed {
			// 2PL (or non-retired Bamboo write): publish at commit.
			old := e.Data
			e.seq++
			e.cur = e.seq
			e.Data = r.Data
			if m.cfg.RecycleImages {
				r.captureSpare(old)
			}
		} else if !r.unwound && m.cfg.RecycleImages {
			r.captureSpare(r.prevImg)
		}
	}

	if st == reqRetired {
		e.retired.remove(r)
	} else {
		e.owners.remove(r)
	}
	if r.semHeld {
		// The request leaves with an unresolved dependency (abort path);
		// give the increment back so the semaphore stays balanced.
		r.semHeld = false
		r.Txn.SemDecr()
	}
	r.state.Store(int32(reqReleased))

	if m.cfg.Variant == Bamboo {
		m.notifyHeads(e)
	}
	m.promoteWaiters(e)
}

// woundLocked applies the Wound-Wait rule over retired∪owners exactly as
// in Algorithm 2 lines 2–7: once a conflict has been seen, every
// lower-priority (younger) transaction at or after the conflict point is
// wounded.
func (m *Manager) woundLocked(t *txn.Txn, mode Mode, e *Entry) {
	ts := t.TS()
	hasConflict := false
	wound := func(r *Request) {
		if Conflict(mode, r.Mode) {
			hasConflict = true
		}
		if hasConflict && ts < r.Txn.TS() {
			if r.Txn.SetAbort(txn.CauseWound) && m.cfg.OnWound != nil {
				m.cfg.OnWound()
			}
		}
	}
	for r := e.retired.head; r != nil; r = r.next {
		wound(r)
	}
	for r := e.owners.head; r != nil; r = r.next {
		wound(r)
	}
}

// olderConflicting reports whether a conflicting request with a strictly
// smaller timestamp than t exists among owners or waiters. Used by the
// Optimization-3 read path: such a request must be waited for (it will
// install a version the reader has to see), whereas younger writers can be
// bypassed by reading the pre-image at the reader's position.
func (m *Manager) olderConflicting(e *Entry, t *txn.Txn, mode Mode) bool {
	ts := t.TS()
	// A pending upgrade is an exclusive request at its holder's timestamp
	// even though the holder's mode still reads SH.
	if u := e.upgrading; u != nil && u.Txn != t && u.Txn.TS() < ts {
		return true
	}
	for r := e.owners.head; r != nil; r = r.next {
		if Conflict(mode, r.Mode) && r.Txn.TS() < ts {
			return true
		}
	}
	for r := e.waiters.head; r != nil; r = r.next {
		if Conflict(mode, r.Mode) && r.Txn.TS() < ts {
			return true
		}
	}
	return false
}

// conflictsWithHolders reports a conflict against retired∪owners.
func (m *Manager) conflictsWithHolders(e *Entry, mode Mode) bool {
	for r := e.retired.head; r != nil; r = r.next {
		if Conflict(mode, r.Mode) {
			return true
		}
	}
	return conflictsWithOwners(e, mode)
}

func conflictsWithOwners(e *Entry, mode Mode) bool {
	for r := e.owners.head; r != nil; r = r.next {
		if Conflict(mode, r.Mode) {
			return true
		}
	}
	return false
}

// promoteWaiters implements PromoteWaiters of Algorithm 2: scan waiters in
// ascending timestamp order, granting each that does not conflict with the
// current owners, stopping at the first conflict. Waiters whose
// transactions are already aborting are dropped.
//
// Its callers — an enqueue, a retire, a release — have changed the entry,
// which may unblock a pending upgrade, so it wakes the upgrader to check
// again under the latch; and it wakes each waiter it grants.
func (m *Manager) promoteWaiters(e *Entry) {
	if u := e.upgrading; u != nil {
		u.Txn.Wake()
	}
	for {
		w := e.waiters.head
		if w == nil {
			return
		}
		if w.Txn.Aborting() {
			e.waiters.remove(w)
			w.state.Store(int32(reqDropped))
			continue
		}
		// An Optimization-3 reader keeps its admission rule (AcquireInto)
		// in the queue: it waits for older conflicting requests only, and
		// its positioned grant commit-orders younger owners behind it.
		// Waiting for a younger owner as well deadlocks once that owner
		// is commit-ordered behind the reader on another entry.
		if m.cfg.Variant == Bamboo && w.Mode == SH && m.cfg.NoWoundRead {
			if m.olderConflicting(e, w.Txn, w.Mode) {
				return
			}
		} else if conflictsWithOwners(e, w.Mode) {
			return
		}
		// A pending upgrade blocks every younger waiter: granting one
		// would only feed the upgrade's wound loop (Wound-Wait/Bamboo) or
		// extend its drain wait (Wait-Die). Older waiters pass — the
		// upgrader waits for them (or was wounded by them) instead.
		if u := e.upgrading; u != nil && u.Txn != w.Txn && w.Txn.TS() > u.Txn.TS() {
			return
		}
		// A non-positioned grant reads the entry's newest image, so it
		// must not consume a version installed by a *younger* conflicting
		// retiree: that writer is necessarily doomed (it was wounded when
		// the older waiter arrived, or this waiter could not have been
		// admitted), and granting now would let the consumer retire ahead
		// of its source in timestamp order, escaping both the cascade
		// ("abort everything after me") and the sequence-guarded restore.
		// Positioned shared grants (Optimization 1) are exempt: they read
		// the version belonging to their timestamp slot.
		positioned := m.cfg.Variant == Bamboo && w.Mode == SH && m.cfg.RetireReads
		if !positioned && m.cfg.Variant == Bamboo && youngerConflictingRetired(e, w) {
			return
		}
		// grantLocked moves the request onto owners or retired, so it
		// must leave waiters first; re-queue at the front if the grant
		// has to be retried (a bypassed writer is mid-commit).
		e.waiters.remove(w)
		if !m.grantLocked(e, w, positioned) {
			e.waiters.pushFront(w)
			return
		}
		w.Txn.Wake()
	}
}

// youngerConflictingRetired reports whether a conflicting retiree exists
// that is either younger than w's transaction or already doomed. Waiting
// for such retirees to drain (they are aborting, or were wounded the
// moment the older waiter arrived) keeps every dependency edge pointing
// from an older to a younger timestamp and keeps a fresh grant from
// basing its read-modify-write on a dead image.
func youngerConflictingRetired(e *Entry, w *Request) bool {
	ts := w.Txn.TS()
	for x := e.retired.head; x != nil; x = x.next {
		if !Conflict(x.Mode, w.Mode) {
			continue
		}
		if x.Txn.TS() > ts || x.unwound || x.Txn.Aborting() {
			return true
		}
	}
	return false
}

// grantLocked makes r a lock holder, returning false if the grant must be
// retried later. r must be detached from the waiters list. With
// positioned set (Bamboo shared requests with RetireReads) the request
// goes straight into the retired list at its timestamp position and reads
// the version belonging to that position; otherwise the request joins
// owners with the newest image (a private mutable copy for EX). Bamboo
// increments the commit semaphore when the new holder conflicts with a
// retired transaction (Algorithm 2, lines 29–30).
func (m *Manager) grantLocked(e *Entry, r *Request, positioned bool) bool {
	if positioned {
		if m.cfg.DynamicTS {
			r.Txn.AssignTSIfUnassigned(&m.tsCounter)
		}
		at := retiredInsertPos(e, r.Txn.TS())
		if !m.orderSuccessorsLocked(e, at, r) {
			return false
		}
		r.Data = versionAt(e, at)
		r.Dirty = exBefore(e, at)
		if r.Dirty {
			// The version read was produced by an uncommitted writer:
			// commit-order after it (paper §3.2.1).
			r.semHeld = true
			r.Txn.SemIncr()
		}
		e.retired.insertBefore(r, at)
		r.state.Store(int32(reqRetired))
		return true
	}

	if m.cfg.Variant == Bamboo {
		for x := e.retired.head; x != nil; x = x.next {
			if Conflict(x.Mode, r.Mode) {
				r.semHeld = true
				r.Txn.SemIncr()
				break
			}
		}
	}
	dirty := false
	for x := e.retired.head; x != nil; x = x.next {
		if x.Mode == EX {
			dirty = true
			break
		}
	}
	r.Dirty = dirty
	if r.Mode == EX {
		r.writeCopy(e.Data)
	} else {
		r.Data = e.Data
	}
	e.owners.pushBack(r)
	r.state.Store(int32(reqOwner))
	return true
}

// orderSuccessorsLocked retroactively commit-orders every live conflicting
// request positioned after the insertion point at (the retired tail plus
// conflicting owners) behind the reader about to be inserted there: each
// such successor must hold a commit-semaphore increment so it cannot reach
// its commit point before the reader leaves, or the rw anti-dependency
// (reader before writer in the version order) would not imply commit-point
// ordering and Lemma 1 would break.
//
// It returns false when a successor is already past its commit point —
// too late to order it — in which case the reader must wait for it to
// drain. A successor racing into its commit point after the increment is
// handled on the committing side: transactions re-check their semaphore
// once after winning the commit CAS and wait for retroactive holders to
// leave before logging.
func (m *Manager) orderSuccessorsLocked(e *Entry, at *Request, r *Request) bool {
	committed := func(x *Request) bool {
		s := x.Txn.State()
		return s == txn.StateCommitting || s == txn.StateCommitted
	}
	for x := at; x != nil; x = x.next {
		if Conflict(x.Mode, r.Mode) && committed(x) {
			return false
		}
	}
	for x := e.owners.head; x != nil; x = x.next {
		if Conflict(x.Mode, r.Mode) && committed(x) {
			return false
		}
	}
	// Apply increments, tracking them in the entry's scratch list (reused
	// across calls; guarded by the latch) so a lost race can be undone.
	applied := e.scratch[:0]
	apply := func(x *Request) bool {
		if !Conflict(x.Mode, r.Mode) || x.semHeld || x.Txn.Aborting() {
			return true // already ordered behind a predecessor, or doomed
		}
		x.semHeld = true
		x.Txn.SemIncr()
		if committed(x) {
			// Lost the race: undo and let the reader wait instead.
			x.semHeld = false
			x.Txn.SemDecr()
			return false
		}
		applied = append(applied, x)
		return true
	}
	ok := true
	for x := at; ok && x != nil; x = x.next {
		ok = apply(x)
	}
	for x := e.owners.head; ok && x != nil; x = x.next {
		ok = apply(x)
	}
	if !ok {
		for _, y := range applied {
			y.semHeld = false
			y.Txn.SemDecr()
		}
	}
	for i := range applied {
		applied[i] = nil
	}
	e.scratch = applied[:0]
	return ok
}

// retiredInsertPos returns the first retired request with a strictly
// greater timestamp (insert before it); nil means append at the tail.
func retiredInsertPos(e *Entry, ts uint64) *Request {
	for x := e.retired.head; x != nil; x = x.next {
		if x.Txn.TS() > ts {
			return x
		}
	}
	return nil
}

// versionAt returns the data image a reader inserted before at (nil = at
// the retired tail) must observe: the image installed by the nearest
// preceding exclusive retiree, or — if none — the pre-image of the first
// exclusive retiree at or after the position, or the entry's current image
// when no uncommitted installs exist.
func versionAt(e *Entry, at *Request) []byte {
	// Nearest exclusive install before the position: its image is the
	// version at this slot. (If that writer is doomed, a reader here is
	// doomed with it — the read stays consistent and the cascade covers
	// the reader.)
	before := e.retired.tail
	if at != nil {
		before = at.prev
	}
	for x := before; x != nil; x = x.prev {
		if x.Mode == EX {
			return x.Data
		}
	}
	// No exclusive install precedes the position: the version here is the
	// image from before the first *live* install at or after it. Unwound
	// installs are skipped — their pre-images point into an abort-rewound
	// chain that no longer exists.
	for x := at; x != nil; x = x.next {
		if x.Mode == EX && !x.unwound {
			return x.prevImg
		}
	}
	return e.Data
}

// exBefore reports whether an exclusive retiree precedes the insertion
// point at (nil = the retired tail).
func exBefore(e *Entry, at *Request) bool {
	before := e.retired.tail
	if at != nil {
		before = at.prev
	}
	for x := before; x != nil; x = x.prev {
		if x.Mode == EX {
			return true
		}
	}
	return false
}

// notifyHeads recomputes the heads — the leading mutually-compatible
// prefix of retired∪owners — and clears the dependency of every head that
// still holds a commit-semaphore increment. Called after each removal;
// this subsumes Algorithm 2's "old head departed and conflicted with the
// new head" condition and also handles removals from the middle of the
// list (e.g. wounded transactions).
func (m *Manager) notifyHeads(e *Entry) {
	anySH, anyEX := false, false
	visit := func(r *Request) bool {
		if anyEX || (anySH && r.Mode == EX) {
			return false
		}
		if r.semHeld {
			r.semHeld = false
			r.Txn.SemDecr()
		}
		if r.Mode == EX {
			anyEX = true
		} else {
			anySH = true
		}
		return true
	}
	for r := e.retired.head; r != nil; r = r.next {
		if !visit(r) {
			return
		}
	}
	for r := e.owners.head; r != nil; r = r.next {
		if !visit(r) {
			return
		}
	}
}

// assignOnConflictLocked implements Algorithm 3: when the incoming request
// conflicts with any transaction already on the entry, assign timestamps
// to every transaction in the three lists (in list order) and then to the
// requester.
func (m *Manager) assignOnConflictLocked(t *txn.Txn, mode Mode, e *Entry) {
	conflict := false
	for _, l := range []*reqList{&e.retired, &e.owners, &e.waiters} {
		for r := l.head; r != nil; r = r.next {
			if Conflict(mode, r.Mode) {
				conflict = true
				break
			}
		}
		if conflict {
			break
		}
	}
	if !conflict {
		return
	}
	for _, l := range []*reqList{&e.retired, &e.owners, &e.waiters} {
		for r := l.head; r != nil; r = r.next {
			r.Txn.AssignTSIfUnassigned(&m.tsCounter)
		}
	}
	t.AssignTSIfUnassigned(&m.tsCounter)
}

// waitGranted parks until the request is granted (promoteWaiters wakes
// it) or the transaction is marked aborting.
//
// This is where an acquire blocks, so this is where lock wait is measured:
// the time from entry to return is added to the request (TakeWait). An
// acquire granted inside its own latch section never gets here and reads
// no clock.
func (m *Manager) waitGranted(r *Request) error {
	start := now()
	defer func() { r.wait += now() - start }()
	if r.Txn.Wait(r.Granted, time.Time{}) {
		return nil
	}
	// Aborting: leave the queue (unless promoteWaiters dropped the request
	// already), or give back a grant that raced the wound, so the caller
	// sees a clean abort.
	e := r.entry
	e.latch.Lock()
	m.releaseLocked(e, r, true)
	e.latch.Unlock()
	return ErrWound
}

// now is the manager's clock, read only where a request blocks
// (waitGranted, upgrade). A variable so tests can count the reads.
var now = func() time.Duration { return time.Since(clockEpoch) }

// clockEpoch anchors now; only differences are used.
var clockEpoch = time.Now()
