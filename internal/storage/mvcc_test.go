package storage

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"bamboo/internal/txn"
)

func img64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// TestVersionChainReadAt pins the visibility rule: ReadAt returns the
// newest image committed at or before the snapshot.
func TestVersionChainReadAt(t *testing.T) {
	var c VersionChain
	c.Seed(0, img64(0))
	c.Install(img64(10), 10, 0)
	c.Install(img64(20), 20, 0)

	cases := []struct {
		snap, want uint64
		ok         bool
	}{
		{0, 0, true}, {5, 0, true}, {9, 0, true},
		{10, 10, true}, {19, 10, true},
		{20, 20, true}, {100, 20, true},
	}
	for _, tc := range cases {
		img, ok := c.ReadAt(tc.snap)
		if ok != tc.ok {
			t.Fatalf("ReadAt(%d): ok=%v want %v", tc.snap, ok, tc.ok)
		}
		if got := binary.LittleEndian.Uint64(img); got != tc.want {
			t.Fatalf("ReadAt(%d) = image %d, want %d", tc.snap, got, tc.want)
		}
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("chain length %d, want 3", n)
	}
}

// TestVersionChainUnseeded: a chain never seeded (MVCC off, or a row
// created at a commit ts above the snapshot) reports no visible version.
func TestVersionChainUnseeded(t *testing.T) {
	var c VersionChain
	if _, ok := c.ReadAt(100); ok {
		t.Fatal("empty chain returned a version")
	}
	c.Seed(50, img64(50))
	if _, ok := c.ReadAt(49); ok {
		t.Fatal("snapshot below the row's creation ts saw it")
	}
	if _, ok := c.ReadAt(50); !ok {
		t.Fatal("snapshot at the creation ts missed the row")
	}
}

// TestVersionChainInstallReclaims covers both ways an install reclaims.
// Install: with the watermark caught up, every install detaches the
// superseded tail and the chain stays at two versions (the new one plus
// the newest at-or-below-watermark one). InstallNode: the loop a caller
// with a free list sees — the watermark moves once per burst of installs,
// the install that follows gets the whole superseded tail back, and the
// caller installs from what it was handed. Every detached node must come
// back exactly once (never while it is still free, never while it is
// reachable from the head), and no node may be lost: reachable plus free
// is every node ever made.
func TestVersionChainInstallReclaims(t *testing.T) {
	t.Run("Install", testInstallReclaims)
	t.Run("InstallNode", testInstallNodeHandsBackWholeTail)
}

func testInstallReclaims(t *testing.T) {
	var c VersionChain
	c.Seed(0, img64(0))
	totalReclaimed := 0
	for ts := uint64(10); ts <= 100; ts += 10 {
		// Watermark = previous commit: everything older is superseded.
		_, rec, freed := c.Install(img64(ts), ts, ts-10)
		totalReclaimed += rec
		if rec > 0 && freed == nil {
			t.Fatalf("install at ts %d reclaimed %d nodes but returned no displaced image", ts, rec)
		}
	}
	if n := c.Len(); n > 2 {
		t.Fatalf("chain grew to %d versions despite a caught-up watermark", n)
	}
	if totalReclaimed == 0 {
		t.Fatal("no versions reclaimed at install time")
	}
	// The newest image must win at a high snapshot.
	img, ok := c.ReadAt(1000)
	if !ok || binary.LittleEndian.Uint64(img) != 100 {
		t.Fatalf("newest version lost: ok=%v img=%v", ok, img)
	}
}

func testInstallNodeHandsBackWholeTail(t *testing.T) {
	var c VersionChain
	c.Seed(0, img64(0))
	const burst = 7
	var (
		free   []*Version
		made   = 1 // the seed
		isFree = map[*Version]bool{}
		ts     = uint64(0)
		water  = uint64(0)
	)
	reachable := func() map[*Version]bool {
		m := map[*Version]bool{}
		for v := c.Head(); v != nil; v = v.Next() {
			m[v] = true
		}
		return m
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < burst; i++ {
			ts += 10
			var node *Version
			if n := len(free); n > 0 {
				node, free = free[n-1], free[:n-1]
				delete(isFree, node)
			} else {
				node = &Version{}
				made++
			}
			tail := c.InstallNode(node, img64(ts), ts, water)
			if i > 0 && tail != nil {
				t.Fatalf("round %d install %d: a tail came back at an unchanged watermark", round, i)
			}
			if i == 0 && round > 0 && tail == nil {
				t.Fatalf("round %d: the watermark passed %d versions and the install detached nothing", round, burst)
			}
			live := reachable()
			got := 0
			for v := tail; v != nil; {
				if isFree[v] {
					t.Fatalf("round %d: node handed back twice", round)
				}
				if live[v] {
					t.Fatalf("round %d: a handed-back node is still reachable from the head", round)
				}
				next, img := v.Recycle()
				if want := binary.LittleEndian.Uint64(img); want > water {
					t.Fatalf("round %d: version %d handed back above the watermark %d", round, want, water)
				}
				isFree[v] = true
				free = append(free, v)
				got++
				v = next
			}
			if i == 0 && round > 0 && got != burst {
				t.Fatalf("round %d: %d nodes handed back, want the whole tail of %d", round, got, burst)
			}
			if len(live)+len(free) != made {
				t.Fatalf("round %d: %d reachable + %d free != %d nodes made", round, len(live), len(free), made)
			}
		}
		// Everything installed so far is now below the watermark; the
		// newest of it stays (a snapshot at the watermark reads it).
		water = ts
	}
	if img, ok := c.ReadAt(ts); !ok || binary.LittleEndian.Uint64(img) != ts {
		t.Fatalf("newest version lost: ok=%v img=%v", ok, img)
	}
	if made > 2*burst+1 {
		t.Fatalf("%d nodes made for a chain that never holds more than %d: the tail is not being reused", made, 2*burst+1)
	}
}

// TestVersionSizeClass pins the node at the 48-byte allocation size class
// the scan memo was fitted into.
func TestVersionSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Version{}); got != 48 {
		t.Fatalf("Version is %d bytes, want 48", got)
	}
}

// TestVersionChainInstallZeroAlloc: steady-state version turnover on a
// hot row reuses detached nodes — zero allocations per install.
func TestVersionChainInstallZeroAlloc(t *testing.T) {
	var c VersionChain
	c.Seed(0, img64(0))
	img := img64(1)
	ts := uint64(10)
	// Warm up: first install allocates the second node.
	c.Install(img, ts, ts-1)
	got := testing.AllocsPerRun(100, func() {
		ts += 10
		c.Install(img, ts, ts-1)
	})
	if got > 0 {
		t.Fatalf("steady-state install allocates %.1f/op, want 0", got)
	}
}

// TestVersionChainPrune: pruning keeps the newest version at or below
// the watermark (some snapshot may still need it) plus everything newer,
// and reclaims the rest.
func TestVersionChainPrune(t *testing.T) {
	var c VersionChain
	c.Seed(0, img64(0))
	for ts := uint64(10); ts <= 50; ts += 10 {
		c.Install(img64(ts), ts, 0) // watermark 0: nothing reclaimed yet
	}
	if n := c.Len(); n != 6 {
		t.Fatalf("precondition: chain length %d, want 6", n)
	}
	_, reclaimed := c.Prune(25)
	if reclaimed != 2 { // ts 10 and 0 are superseded by ts 20 ≤ 25
		t.Fatalf("reclaimed %d versions, want 2", reclaimed)
	}
	// ts 20 must survive: a snapshot at 25 reads it.
	img, ok := c.ReadAt(25)
	if !ok || binary.LittleEndian.Uint64(img) != 20 {
		t.Fatalf("prune reclaimed the version visible at the watermark: ok=%v img=%v", ok, img)
	}
	// Idempotent at the same watermark.
	if _, rec := c.Prune(25); rec != 0 {
		t.Fatalf("second prune at the same watermark reclaimed %d", rec)
	}
}

// TestVersionChainPruneSettled: the sweep's variant leaves a tail alone
// until it has been dead since the earlier watermark — the version that
// supersedes it must itself be at or below settledTS — and does not walk
// (or count) a tail it leaves in place.
func TestVersionChainPruneSettled(t *testing.T) {
	var c VersionChain
	c.Seed(0, img64(0))
	c.Install(img64(10), 10, 0)
	c.Install(img64(20), 20, 0)
	// Watermark 25: version 20 supersedes 10 and 0, but it was installed
	// after the earlier watermark 15, so the tail is its writer's to take.
	if n, rec := c.PruneSettled(25, 15); n != 1 || rec != 0 {
		t.Fatalf("PruneSettled(25, 15) = (%d, %d), want one version walked and nothing reclaimed", n, rec)
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("chain length %d after a refused prune, want 3", n)
	}
	// No install came; one sweep later the earlier watermark covers it.
	if n, rec := c.PruneSettled(35, 25); n != 3 || rec != 2 {
		t.Fatalf("PruneSettled(35, 25) = (%d, %d), want (3, 2)", n, rec)
	}
	if msg := checkReadAt(&c, 25, []uint64{10, 20}); msg != "" {
		t.Fatal(msg)
	}
}

// visibleAt is the reference the chain is checked against: installed is the
// ascending list of commit timestamps installed so far (over a seed at 0),
// and a snapshot must see the newest of them at or below it.
func visibleAt(installed []uint64, snap uint64) uint64 {
	i := sort.Search(len(installed), func(i int) bool { return installed[i] > snap })
	if i == 0 {
		return 0
	}
	return installed[i-1]
}

// checkReadAt is the visibility oracle shared by the pinned and the
// unpinned test: images encode their commit timestamp, so a read that
// resolves to any version but visibleAt's — or to none — shows. It returns
// "" when the read is right.
func checkReadAt(c *VersionChain, snap uint64, installed []uint64) string {
	img, ok := c.ReadAt(snap)
	if !ok {
		return "visible version missing"
	}
	if got, want := binary.LittleEndian.Uint64(img), visibleAt(installed, snap); got != want {
		return fmt.Sprintf("snapshot %d sees version %d, want %d", snap, got, want)
	}
	return ""
}

// TestVersionChainConcurrent is the property test for the chain's
// concurrency contract, run with -race: a writer, two readers and a pruner
// coordinate through a txn.SnapshotTable exactly as the engine's commit
// path, snapshot transactions and background pruner do. The writer draws
// each commit timestamp inside an in-flight window and installs with the
// published watermark; the pruner advances the watermark under the active
// snapshots and prunes; a reader pins its snapshot (AcquireSnapshot), walks
// the chain several times while holding the pin, and must see the newest
// version at or below the snapshot every time — never a node the writer is
// reusing. If a pinned reader can reach a reused node, that is an engine
// bug, and this test (or the race detector under it) is where it shows.
func TestVersionChainConcurrent(t *testing.T) {
	const (
		writer = iota
		reader0
		reader1
		pruner
		workers
	)
	var c VersionChain
	c.Seed(0, img64(0))
	st := txn.NewSnapshotTable()
	for w := 0; w < workers; w++ {
		st.Register(w)
	}

	// installed[:n] is the writer's log, ascending; an entry is written
	// before n publishes it, and n before the commit window closes, so a
	// snapshot's commits are all in the log by the time it is acquired.
	installed := make([]uint64, 1<<20)
	var (
		n      atomic.Int64
		reused atomic.Int64 // installs that took over a detached node
		stop   atomic.Bool
		fail   atomic.Value
		wg     sync.WaitGroup
	)

	wg.Add(1)
	go func() {
		defer wg.Done()
		alloc := txn.NewTSAlloc(writer)
		for i := 0; i < len(installed) && !stop.Load(); i++ {
			cts := st.BeginCommit(writer, alloc)
			if _, _, freed := c.Install(img64(cts), cts, st.Reclaim()); freed != nil {
				reused.Add(1)
			}
			installed[i] = cts
			n.Store(int64(i + 1))
			st.EndCommit(writer)
			runtime.Gosched()
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		alloc := txn.NewTSAlloc(pruner)
		// Like the engine's pruner: advance the watermark every tick, sweep
		// the chain only now and then, so that most tails are left for the
		// writer's installs to detach and reuse.
		for tick := 0; !stop.Load(); tick++ {
			if w := st.AdvanceReclaim(alloc); tick%8 == 7 {
				c.Prune(w)
			}
			runtime.Gosched()
		}
	}()

	for _, r := range []int{reader0, reader1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			alloc := txn.NewTSAlloc(r)
			for !stop.Load() {
				snap := st.AcquireSnapshot(r, alloc)
				log := installed[:n.Load()]
				// Several walks under one pin, yielding in between, so the
				// writer and the pruner get to overtake a reader that is
				// still using its snapshot.
				for walk := 0; walk < 4; walk++ {
					if msg := checkReadAt(&c, snap, log); msg != "" {
						fail.Store(msg)
						stop.Store(true)
						break
					}
					runtime.Gosched()
				}
				st.EndSnapshot(r)
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if v := fail.Load(); v != nil {
		t.Fatal(v)
	}
	if n.Load() < 10 {
		t.Fatal("writer made no progress")
	}
	if reused.Load() == 0 {
		t.Fatal("no install reused a node: the readers were never at risk")
	}
}

// TestVersionChainUnpinnedReader is the counterpart that shows the oracle
// above is not vacuous, and why readers pin: a reader that picks a
// snapshot without publishing it holds nothing back, so the watermark
// passes it, the next install detaches the version it needs (reusing the
// node for the new version), and the same oracle reports the loss.
// Single-goroutine on purpose — the interleaving is spelled out, not
// hoped for.
func TestVersionChainUnpinnedReader(t *testing.T) {
	var c VersionChain
	c.Seed(0, img64(0))
	installed := []uint64{10, 20}
	c.Install(img64(10), 10, 0)
	c.Install(img64(20), 20, 0)

	const snap = 15 // never published: no watermark computation can see it
	if msg := checkReadAt(&c, snap, installed); msg != "" {
		t.Fatalf("before the watermark passes the reader: %s", msg)
	}
	// The watermark moves to 25 (nothing pinned below it) and the next
	// commit installs against it: version 20 is kept, 10 and 0 go.
	_, reclaimed, _ := c.Install(img64(30), 30, 25)
	installed = append(installed, 30)
	if reclaimed != 2 {
		t.Fatalf("install reclaimed %d versions, want 2", reclaimed)
	}
	if msg := checkReadAt(&c, snap, installed); msg == "" {
		t.Fatal("an unpinned reader below the watermark still resolved its version: the oracle cannot see a reclaimed version")
	}
	// A snapshot at or above the watermark is what pinning guarantees, and
	// it still reads correctly.
	if msg := checkReadAt(&c, 25, installed); msg != "" {
		t.Fatalf("reader at the watermark: %s", msg)
	}
}
