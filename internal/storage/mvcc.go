package storage

import "sync/atomic"

// Version chains. Each row optionally carries a small, newest-first
// chain of committed images stamped with their commit timestamp, so
// latch-free readers resolve a row image with a pointer walk: MVCC
// snapshots, and Silo, whose readers read only the head.
//
// Concurrency contract:
//
//   - Installs on one row are serialized by the protocol itself (a
//     committing writer holds the row's write authority: under 2PL the
//     exclusive lock, under Bamboo the retire/semaphore ordering that
//     admits writers to their commit points in dependency order, under
//     Silo the TID lock), so Install needs no latch of its own.
//   - Readers traverse concurrently with installs and pruning. A node's
//     ts/img are written only while the node is unreachable (before its
//     publishing store, or after a detach proved no reader can reach it);
//     reachable nodes are immutable.
//   - The pruner may run concurrently with installs; the two detach a
//     given tail at most once (a CAS on the detach point arbitrates), and
//     whoever wins the CAS owns every node of that tail.
//
// Reclamation rule: a version is dead once a newer version exists with
// ts ≤ the reclaim watermark (txn.SnapshotTable.AdvanceReclaim keeps the
// watermark ≤ every active and future snapshot). A reader's walk stops at
// the first version with ts ≤ its snapshot, so no reader ever follows the
// next pointer of a version with ts ≤ watermark — which is exactly the
// link an install and Prune sever.
//
// The recycling loop: an install scans for that link only when the
// watermark differs from the one the chain was last scanned at (the memo
// rides the head node, see Version.scannedAt) — every version installed
// since is newer than that watermark, so nothing new can have become
// reclaimable and a write costs O(1) chain work however deep the chain
// is. When the watermark has moved, one walk finds the link and the whole
// detached tail goes back to the installer (InstallNode), which owns its
// nodes and their images, and feeds them to later installs and private
// write copies. Version turnover on a hot row
// therefore allocates nothing in steady state.

// Version is one committed row image in a row's version chain. Its five
// words plus the memo fill the 48-byte allocation size class exactly.
type Version struct {
	next atomic.Pointer[Version]
	ts   uint64
	img  []byte
	// scannedAt is the chain's scan memo, meaningful on the head node
	// only: the reclaim watermark the chain was last scanned at (by the
	// install that published this node, or carried over from the head it
	// replaced). Written by the installer while the node is unreachable
	// and read only by the next installer, so the install serialization
	// orders it; readers and the pruner never look at it. The zero value
	// is right for a seeded chain: a single version has no tail to
	// reclaim at any watermark.
	scannedAt uint64
}

// TS returns the version's commit timestamp.
func (v *Version) TS() uint64 { return v.ts }

// Image returns the version's row image. Callers must not mutate it.
func (v *Version) Image() []byte { return v.img }

// Next returns the next-older version, or nil.
func (v *Version) Next() *Version { return v.next.Load() }

// Recycle clears a node of a detached tail for reuse and returns what it
// held: its successor in the tail and its image. Only the owner of the
// tail (the caller InstallNode returned it to) may call it.
func (v *Version) Recycle() (next *Version, img []byte) {
	next, img = v.next.Load(), v.img
	v.next.Store(nil)
	v.img = nil
	return next, img
}

// VersionChain is a newest-first linked list of committed versions with
// an atomic head. The zero value is an empty chain.
type VersionChain struct {
	head atomic.Pointer[Version]
}

// Head returns the newest version, or nil.
func (c *VersionChain) Head() *Version { return c.head.Load() }

// ReadAt returns the newest image committed at or before snap, or
// (nil, false) if no version is visible (the row did not exist at snap,
// or the chain was never seeded). Latch-free and allocation-free.
func (c *VersionChain) ReadAt(snap uint64) ([]byte, bool) {
	for v := c.head.Load(); v != nil; v = v.next.Load() {
		if v.ts <= snap {
			return v.img, true
		}
	}
	return nil, false
}

// Len returns the current chain length (diagnostic; racy under writes).
func (c *VersionChain) Len() int {
	n := 0
	for v := c.head.Load(); v != nil; v = v.next.Load() {
		n++
	}
	return n
}

// Seed resets the chain to the single version (ts, img). Only for
// single-threaded contexts: loaders and crash recovery.
func (c *VersionChain) Seed(ts uint64, img []byte) {
	v := &Version{ts: ts, img: img}
	c.head.Store(v)
}

// SeedOnce seeds an empty chain with (ts, img), concurrently with readers
// and installs, and returns the head, whichever call published it.
func (c *VersionChain) SeedOnce(ts uint64, img []byte) *Version {
	c.head.CompareAndSwap(nil, &Version{ts: ts, img: img})
	return c.head.Load()
}

// InstallNode publishes img as the newest version with commit timestamp
// ts and returns the tail of versions superseded at or below reclaimTS,
// if this call detached one. img must be an immutable committed image
// that the chain adopts by reference; ts must be greater than every
// active snapshot's timestamp (guaranteed by drawing it inside the
// SnapshotTable in-flight window). node is the storage for the new
// version — a node the caller owns (fresh, or recycled from an earlier
// tail), or nil to allocate one. Installs on one chain must be externally
// serialized; readers and the pruner may run concurrently.
//
// The returned tail is linked through Next and belongs to the caller, all
// of it: its nodes are unreachable by every snapshot reader (a reader's
// walk stops at the first version at or below the watermark, which the
// detach keeps), and its images are at least one committed generation
// older than anything the lock entry can still reference. Whether an
// image's storage may be reused is the engine's ownership rule, not the
// chain's (a commit hook may hold a reference).
func (c *VersionChain) InstallNode(node *Version, img []byte, ts, reclaimTS uint64) (tail *Version) {
	head := c.head.Load()
	_, tail = c.detach(head, reclaimTS)
	if node == nil {
		node = &Version{}
	}
	c.publish(head, node, img, ts, reclaimTS)
	return tail
}

// Install is InstallNode for callers that keep no nodes of their own: the
// new version takes over the first node of the tail it detached (or a
// fresh one) and the rest of the tail is left to the collector. It
// returns the chain length after the install when this call scanned the
// chain (0 when the memo let it skip the walk — the length is then not
// known), the number of version nodes reclaimed, and the displaced image
// of the reused node, which the caller owns under the same rule as
// InstallNode's tail.
func (c *VersionChain) Install(img []byte, ts, reclaimTS uint64) (length, reclaimed int, freed []byte) {
	head := c.head.Load()
	walked, tail := c.detach(head, reclaimTS)
	node := tail
	if node == nil {
		node = &Version{}
	} else {
		freed = node.img
		for v := tail; v != nil; v = v.next.Load() {
			reclaimed++
		}
	}
	c.publish(head, node, img, ts, reclaimTS)
	if walked > 0 {
		length = walked + 1
	}
	return length, reclaimed, freed
}

// detach severs and returns the tail superseded at or below reclaimTS,
// with the number of versions it walked to find it. It walks only when
// the chain was last scanned at another watermark: versions installed
// since the last scan are all newer than that scan's watermark, so at an
// unchanged watermark the newest version at or below it is the one the
// last scan kept, and its tail is already gone.
func (c *VersionChain) detach(head *Version, reclaimTS uint64) (walked int, tail *Version) {
	if head == nil || head.scannedAt == reclaimTS {
		return 0, nil
	}
	// Find the newest version already visible at the watermark; every
	// older version is unreachable by any active or future reader.
	for v := head; v != nil; v = v.next.Load() {
		walked++
		if v.ts <= reclaimTS {
			if t := v.next.Load(); t != nil && v.next.CompareAndSwap(t, nil) {
				tail = t
			}
			break
		}
	}
	return walked, tail
}

// publish links node in as the version (ts, img) and records that the
// chain has been scanned at reclaimTS. node is unreachable until the
// publishing store.
func (c *VersionChain) publish(head, node *Version, img []byte, ts, reclaimTS uint64) {
	node.ts = ts
	node.img = img
	node.scannedAt = reclaimTS
	if head == nil || head.ts < ts {
		node.next.Store(head)
		c.head.Store(node)
		return
	}
	// Defensive slow path for an out-of-order install (commit timestamps
	// per row arrive in order under the lock protocols; this guards rare
	// clock-resolution ties). Link the node at its sorted position; CAS
	// handles a concurrent pruner detaching at the same link. The head
	// keeps its own memo, which is still true of the chain; at worst the
	// next install scans once more.
	for {
		pred := c.head.Load()
		for {
			succ := pred.next.Load()
			if succ == nil || succ.ts < ts {
				node.next.Store(succ)
				if pred.next.CompareAndSwap(succ, node) {
					return
				}
				break // re-walk from the head
			}
			pred = succ
		}
	}
}

// Prune detaches every version superseded at or below reclaimTS. Safe
// concurrently with readers and with installs (the detach CAS arbitrates).
// Returns the chain length observed before pruning and the number of
// nodes reclaimed.
func (c *VersionChain) Prune(reclaimTS uint64) (length, reclaimed int) {
	return c.PruneSettled(reclaimTS, reclaimTS)
}

// PruneSettled is Prune for a background sweep that leaves fresh tails to
// the row's writers: it detaches the tail superseded at or below
// reclaimTS only if the version that supersedes it is itself at or below
// settledTS (≤ reclaimTS) — that is, only if the tail was already dead at
// the earlier watermark settledTS and no install has come for it since.
// An install would have recycled its nodes; what is pruned here goes to
// the collector. The length returned counts the versions down to the kept
// one plus those reclaimed: a tail left in place is not walked (it is not
// this caller's), so it is not counted either.
//
// The walk itself must use the current watermark, never an older one: it
// stops at the newest version at or below reclaimTS, and an installer —
// whose watermark is at most the current one — detaches at that version
// or an older one, so the walk never enters a tail an installer owns and
// is rewriting. Walking to the newest version at or below an older
// watermark would.
func (c *VersionChain) PruneSettled(reclaimTS, settledTS uint64) (length, reclaimed int) {
	var keep *Version
	for v := c.head.Load(); v != nil; v = v.next.Load() {
		length++
		if v.ts <= reclaimTS {
			keep = v
			break
		}
	}
	if keep == nil || keep.ts > settledTS {
		return length, 0
	}
	tail := keep.next.Load()
	if tail == nil {
		return length, 0
	}
	if !keep.next.CompareAndSwap(tail, nil) {
		return length, 0
	}
	for v := tail; v != nil; v = v.next.Load() {
		reclaimed++
	}
	return length + reclaimed, reclaimed
}
