package core

import (
	"sync"
	"time"

	"bamboo/internal/storage"
	"bamboo/internal/txn"
)

// Background version pruning for the MVCC read path.
//
// Hot rows reclaim their own version tails: the first commit-time install
// after the watermark moves detaches the whole tail superseded below it
// into the installing session's free lists (installVersions), so turnover
// on contended rows allocates nothing in steady state. What installs
// cannot do is advance the watermark or trim rows that stopped being
// written — that is this goroutine's job. Each tick it advances the
// watermark (SnapshotTable.AdvanceReclaim, keyed off the oldest active
// snapshot and in-flight commit); every sweepEvery ticks it also walks
// the catalog and prunes cold rows' chains, feeding the versions_pruned /
// version_chain_max telemetry.

// pruneInterval is the watermark-advance tick.
const pruneInterval = 2 * time.Millisecond

// sweepEvery is the number of watermark ticks per full catalog sweep.
// Watermark advance is cheap and keeps install-time reuse effective;
// whole-table sweeps are not, so they run at a coarser cadence.
const sweepEvery = 25

// prunerSlot is the TSAlloc slot the pruner draws watermark candidates
// from: the last slot of the folded worker-id space, which no benchmark
// or test session uses (sessions would need 1024 concurrent workers to
// collide). It is an allocator id only, there for timestamp uniqueness.
// The pruner does not register the slot with the snapshot table — it
// publishes neither commits nor snapshots, and registering slot 1023
// would stretch every snapshot acquisition's scan to all 1 024 slots
// (see SnapshotTable.AdvanceReclaim on why an unregistered caller is
// sound).
const prunerSlot = txn.TSWorkerSlots - 1

type pruner struct {
	db       *DB
	alloc    *txn.TSAlloc
	interval time.Duration
	quit     chan struct{}
	done     chan struct{}
	once     sync.Once
}

func startPruner(db *DB, interval time.Duration) *pruner {
	p := &pruner{
		db:       db,
		alloc:    txn.NewTSAlloc(prunerSlot),
		interval: interval,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *pruner) stop() {
	p.once.Do(func() { close(p.quit) })
	<-p.done
}

func (p *pruner) run() {
	defer close(p.done)
	tick := time.NewTicker(p.interval)
	defer tick.Stop()
	var swept uint64 // the watermark at the previous sweep
	for n := 0; ; n++ {
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
		w := p.db.Snap.AdvanceReclaim(p.alloc)
		if n%sweepEvery == sweepEvery-1 {
			// One sweep behind: a tail is the sweep's only once it has been
			// dead for a whole sweep period. A row written more often than
			// that keeps its tail for its next writer, whose install takes
			// nodes and images into a session's free lists; what the sweep
			// detaches goes to the collector.
			p.sweep(w, swept)
			swept = w
		}
	}
}

// sweep prunes every row's chain against watermark w — the tails that
// were already dead at the earlier watermark settled — and records the
// telemetry. The walk is latch-free end to end: the index is ranged
// without locks, chain pruning takes none either, and arbitration with
// concurrent installs is a CAS on the detach link.
func (p *pruner) sweep(w, settled uint64) {
	var pruned, maxLen uint64
	for _, tbl := range p.db.Catalog.AllTables() {
		tbl.Range(func(_ uint64, r *storage.Row) bool {
			n, rec := r.Versions.PruneSettled(w, settled)
			pruned += uint64(rec)
			if uint64(n) > maxLen {
				maxLen = uint64(n)
			}
			return true
		})
	}
	p.db.Global.RecordVersionsPruned(pruned)
	p.db.Global.RecordVersionChainLen(maxLen)
}
