package txn

import (
	"runtime"
	"sync/atomic"
)

// Snapshot coordination for the MVCC read path.
//
// Read-only transactions execute at a snapshot timestamp drawn from the
// same time-sharded TSAlloc space as priority timestamps, with zero lock
// acquisitions. Three parties must agree on what a snapshot may observe:
//
//   - committing writers, which publish their commit timestamp while
//     their versions are being installed (the in-flight window);
//   - snapshot readers, which must not read "above" an in-flight commit
//     (its versions may be half installed across rows);
//   - the version pruner, which reclaims versions superseded below the
//     oldest timestamp any active or future snapshot can observe.
//
// SnapshotTable is the shared state: one padded slot per worker holding
// that worker's in-flight commit timestamp and active snapshot timestamp,
// plus the monotone reclaim watermark. All coordination is a handful of
// uncontended atomic stores per transaction — no locks, no allocation.
//
// # Protocol
//
// A committing writer stores snapPending in its commit slot, draws its
// commit timestamp, publishes it in the slot, installs its versions, and
// clears the slot (EndCommit) only after every version is visible.
//
// A snapshot reader stores snapPending in its snapshot slot, draws a
// fresh candidate timestamp, then scans the commit slots: any in-flight
// commit c ≤ candidate lowers the candidate to c−1 (spinning the couple
// of instructions a slot may be snapPending). The final snapshot is then
// published in the slot. Because the candidate is a fresh clock reading
// and in-flight commits cap it from below only, the snapshot is always ≥
// the reclaim watermark (see AdvanceReclaim) — acquisition never retries.
//
// The pruner draws a fresh candidate, rounds it down to a full clock
// tick (so every timestamp drawn later by anyone strictly exceeds it),
// then scans commit slots first, snapshot slots second — spinning past
// snapPending in both — taking the minimum of (commit−1) and snapshot
// values. The scan-order and pending-spin discipline close the race where
// a reader lowers its snapshot below an in-flight commit the pruner no
// longer sees; see snapshot_test.go for the adversarial interleavings.
const snapPending = ^uint64(0)

// settled loads slot once it is not snapPending. Its writer is running
// and a few instructions from the store, so the wait does not park: it is
// busy for 64 rounds, then yields the processor.
func settled(slot *atomic.Uint64) uint64 {
	for spin := 0; ; spin++ {
		if v := slot.Load(); v != snapPending {
			return v
		}
		if spin > 64 {
			runtime.Gosched()
		}
	}
}

// snapSlot is one worker's published snapshot state, padded so
// neighbouring workers' slots do not false-share a cacheline.
type snapSlot struct {
	commit atomic.Uint64 // in-flight commit ts; 0 = none, snapPending = drawing
	snap   atomic.Uint64 // active snapshot ts; 0 = none, snapPending = drawing
	_      [48]byte
}

// SnapshotTable coordinates snapshot timestamps between committing
// writers, snapshot readers and the version pruner. One per DB; workers
// are identified by the same folded index space as TSAlloc (two
// concurrently active sessions must not share a slot).
type SnapshotTable struct {
	slots [TSWorkerSlots]snapSlot
	// maxSlot is the high-water mark of registered slot indexes + 1,
	// bounding every scan to the workers that actually exist.
	maxSlot atomic.Int64
	// reclaim is the monotone watermark: every version superseded by a
	// newer version with ts ≤ reclaim is unreachable by any active or
	// future snapshot and may be reclaimed.
	reclaim atomic.Uint64
}

// NewSnapshotTable returns an empty table.
func NewSnapshotTable() *SnapshotTable { return &SnapshotTable{} }

func (st *SnapshotTable) slot(worker int) *snapSlot {
	return &st.slots[uint64(worker)&(TSWorkerSlots-1)]
}

// Register notes that worker's slot is in use, bounding future scans.
// Called once per session at construction; idempotent.
func (st *SnapshotTable) Register(worker int) {
	idx := int64(uint64(worker)&(TSWorkerSlots-1)) + 1
	for {
		cur := st.maxSlot.Load()
		if idx <= cur || st.maxSlot.CompareAndSwap(cur, idx) {
			return
		}
	}
}

// ScanBound returns how many slots AcquireSnapshot and AdvanceReclaim scan:
// the highest registered slot index plus one.
func (st *SnapshotTable) ScanBound() int { return int(st.maxSlot.Load()) }

// BeginCommit opens worker's in-flight commit window and returns the
// commit timestamp for the whole transaction. The caller must install
// every version it commits before calling EndCommit.
func (st *SnapshotTable) BeginCommit(worker int, alloc *TSAlloc) uint64 {
	s := st.slot(worker)
	s.commit.Store(snapPending)
	cts := alloc.Next()
	s.commit.Store(cts)
	return cts
}

// EndCommit closes worker's in-flight commit window; every version of the
// commit must be installed first.
func (st *SnapshotTable) EndCommit(worker int) {
	st.slot(worker).commit.Store(0)
}

// AcquireSnapshot assigns worker a snapshot timestamp and publishes it as
// active. The snapshot observes every commit with ts ≤ snapshot and no
// in-flight or future commit; it is always ≥ the reclaim watermark, so a
// version chain always holds a visible version for rows that existed at
// the snapshot. Zero allocations; the caller must EndSnapshot when done.
func (st *SnapshotTable) AcquireSnapshot(worker int, alloc *TSAlloc) uint64 {
	s := st.slot(worker)
	s.snap.Store(snapPending)
	cand := alloc.Next()
	n := int(st.maxSlot.Load())
	for i := 0; i < n; i++ {
		if c := settled(&st.slots[i].commit); c != 0 && c <= cand {
			cand = c - 1
		}
	}
	s.snap.Store(cand)
	return cand
}

// EndSnapshot retires worker's active snapshot.
func (st *SnapshotTable) EndSnapshot(worker int) {
	st.slot(worker).snap.Store(0)
}

// Reclaim returns the current reclaim watermark: committing writers pass
// it to the version-chain install so superseded tails are reclaimed (and
// their nodes reused) on the spot.
func (st *SnapshotTable) Reclaim() uint64 { return st.reclaim.Load() }

// AdvanceReclaim recomputes and publishes the reclaim watermark, drawing
// a fresh upper-bound candidate from alloc (which must own a slot no
// concurrently allocating session uses). It returns the watermark in
// effect after the call. Monotone: the watermark never moves backward.
//
// The caller needs an allocator id, not a registered slot. Registration
// bounds the scans to the slots that can hold a published commit or
// snapshot; a caller that publishes neither (the engine's pruner) has
// nothing in its slot for anyone to read, and what it draws from alloc
// is used only as the upper bound below — the argument needs that draw
// to be a fresh clock reading, which every TSAlloc gives, and needs the
// scan to cover every slot a session writes, which Register (called by
// every session before its first transaction) gives.
//
// Safety argument, sketched: the candidate is rounded down to a whole
// clock tick minus one, so every timestamp anyone draws after the
// candidate strictly exceeds it. Commit slots are scanned before
// snapshot slots. A reader active after the publish either (a) had
// published its final snapshot before the scan read its slot — the spin
// past snapPending guarantees the scan saw it — so the watermark is ≤
// that snapshot; or (b) drew its candidate after the scan's candidate,
// in which case its fresh draw exceeds the candidate, and any in-flight
// commit c that lowers it to c−1 was either seen by the commit-slot pass
// (watermark ≤ c−1) or begun after the candidate draw (c−1 ≥ candidate).
// Either way every active and future snapshot is ≥ the watermark.
func (st *SnapshotTable) AdvanceReclaim(alloc *TSAlloc) uint64 {
	raw := alloc.Next()
	cand := (raw >> tsWorkerBits << tsWorkerBits) - 1
	n := int(st.maxSlot.Load())
	for i := 0; i < n; i++ {
		if c := settled(&st.slots[i].commit); c != 0 && c-1 < cand {
			cand = c - 1
		}
	}
	for i := 0; i < n; i++ {
		if sn := settled(&st.slots[i].snap); sn != 0 && sn < cand {
			cand = sn
		}
	}
	for {
		cur := st.reclaim.Load()
		if cand <= cur {
			return cur
		}
		if st.reclaim.CompareAndSwap(cur, cand) {
			return cand
		}
	}
}
