package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// plan is the shape of one run. Everything but seed and the window
// lengths is a constant of the benchmark (see newPlan).
type plan struct {
	workers int
	ring    int // pre-generated transactions per worker
	windows int
	warm    time.Duration
	timed   time.Duration
	// The traced window's lengths; runWorkload copies them into warm and
	// timed for that window.
	traceWarm  time.Duration
	traceTimed time.Duration
	seed       int64
	mode       int    // modeFull, modeTimed or modeTraced
	smoke      bool   // toy scale: see scale and probeShrink
	outDir     string // trace files and tpcc_wal log directories
}

// scale divides the workloads' table sizes.
func (p plan) scale() int {
	if p.smoke {
		return 10
	}
	return 1
}

// latCap is the room preallocated for one worker's latency samples.
func (p plan) latCap() int {
	if p.smoke {
		return latCap / 64
	}
	return latCap
}

// probeShrink divides the probes' operation counts.
func (p plan) probeShrink() int {
	if p.smoke {
		return 200
	}
	return 1
}

// window is what one fresh-DB window measured.
type window struct {
	setup     time.Duration // NewDB + Load + ring generation
	planNS    float64       // ring generation per ring slot
	timed     time.Duration
	commits   uint64   // completed inside the timed part
	lat       []uint32 // their latencies in ns, sorted
	mallocs   uint64   // runtime.MemStats.Mallocs delta over the timed part
	attempted uint64   // logical transactions issued, warm-up included
	allCommit uint64   // commits, warm-up included (what the oracles see)
	problems  []string // fatal Run errors and violated oracles

	// Timed-part deltas for the per-layer ledger.
	report stats.Report
	global globalCounters
	wal    wal.DeviceStats
	trace  *traceTotals // nil on untraced windows

	walDir string // kept log directory, "" once removed
}

func (w *window) tps() float64 { return float64(w.commits) / w.timed.Seconds() }

// globalCounters are the stats.Global counters the lock manager and the
// version pruner feed.
type globalCounters struct {
	wounds, cascades, chainSum, chainMax uint64
	versionsPruned, versionChainMax      uint64
}

func readGlobal(g *stats.Global) globalCounters {
	return globalCounters{
		wounds:          g.Wounds.Load(),
		cascades:        g.Cascades.Load(),
		chainSum:        g.ChainSum.Load(),
		chainMax:        g.ChainMax.Load(),
		versionsPruned:  g.VersionsPruned.Load(),
		versionChainMax: g.VersionChainMax.Load(),
	}
}

// since returns the counters accumulated after base; the two maxima are
// not differences and stay as read.
func (c globalCounters) since(base globalCounters) globalCounters {
	c.wounds -= base.wounds
	c.cascades -= base.cascades
	c.chainSum -= base.chainSum
	c.versionsPruned -= base.versionsPruned
	return c
}

// countingTx is the Tx stub ring generation dry-runs YCSB bodies against
// to learn how many row writes each performs.
type countingTx struct{ writes int32 }

func (c *countingTx) Read(*storage.Row) ([]byte, error)           { return nil, nil }
func (c *countingTx) Update(*storage.Row, func([]byte)) error     { c.writes++; return nil }
func (c *countingTx) Insert(*storage.Table, uint64, []byte) error { return nil }
func (c *countingTx) DeclareOps(int)                              {}
func (c *countingTx) Worker() int                                 { return 0 }
func (c *countingTx) ID() uint64                                  { return 0 }

// workerOut is what one worker goroutine hands back.
type workerOut struct {
	attempted uint64
	commits   uint64 // warm-up included
	writes    int64  // row writes of committed transactions (YCSB)
	timed     uint64 // commits completed inside the timed part
	// lat holds the latency in ns of every timed commit. Raw samples, not a
	// stats.Hist: its 1.6 % buckets would make the medians of quiet runs
	// read exactly alike. Preallocated, so recording does not allocate.
	lat []uint32
	err error
}

// latCap is room for a worker's samples in one window (8 MB); append grows
// it if a faster engine ever needs more.
const latCap = 1 << 21

// quantile returns the q-quantile of sorted, interpolating linearly between
// the two nearest samples.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

// runWorker is the closed loop of one worker: the next transaction is
// issued only when the previous Run has returned. A transaction belongs to
// the timed part when it starts at or after warmEnd and returns before end.
func runWorker(sess core.Session, col *stats.Collector, tr *workerTrace,
	ring []core.TxnFunc, writes []int32, warmEnd, end time.Time, out *workerOut) {
	timing := false
	for i := 0; ; i++ {
		if i == len(ring) {
			i = 0
		}
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		if !timing && !t0.Before(warmEnd) {
			timing = true
			// The collector is this worker's own: restart it so the
			// report covers the timed part only.
			*col = stats.Collector{Live: col.Live}
			if tr != nil {
				tr.reset()
			}
		}
		before := col.Commits
		err := sess.Run(ring[i])
		d := time.Since(t0)
		out.attempted++
		if err != nil {
			out.err = err
			return
		}
		if col.Commits == before {
			continue // user abort (TPC-C's 1 % rollbacks): expected, not a commit
		}
		out.commits++
		if writes != nil {
			out.writes += int64(writes[i])
		}
		if timing && t0.Add(d).Before(end) {
			out.timed++
			out.lat = append(out.lat, uint32(min(d, math.MaxUint32)))
		}
	}
}

// runWindow builds a fresh DB, loads w from the seed, pre-generates the
// rings, drives the closed loop for warm+timed and runs the oracle.
// keepWAL leaves a file-backed log on disk for recoverWAL.
func runWindow(w *workload, p plan, traced, keepWAL bool) (res *window, err error) {
	// The previous window's DB is garbage by now; collect it outside both
	// the set-up clock and the timed part.
	runtime.GC()

	res = &window{timed: p.timed}
	setupStart := time.Now()
	cfg := w.engine()
	var dev *tracedDevice
	if traced {
		dev = &tracedDevice{epoch: setupStart}
		cfg.LogDevice = dev
	}
	switch {
	case w.fileWAL:
		if err := os.MkdirAll(p.outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(p.outDir, "wal-"+w.Name+"-")
		if err != nil {
			return nil, err
		}
		res.walDir = dir
		defer func() {
			if !keepWAL {
				res.removeWAL()
			}
		}()
		if traced {
			fd, err := wal.OpenFileDevice(wal.PartitionLogPath(dir, 0), wal.FsyncNone, 0)
			if err != nil {
				return nil, err
			}
			dev.inner = fd
		} else {
			cfg.WALDir, cfg.WALFsync = dir, wal.FsyncNone
		}
	case traced:
		dev.inner = wal.NewMemDevice(false)
	default:
		// Count-only: with a nil device the engine falls back to a
		// recording MemDevice that retains every commit record.
		cfg.LogDevice = wal.NewMemDevice(false)
	}
	db := core.NewDB(cfg)
	defer func() {
		// Close flushes and closes a file-backed log; recoverWAL reads it.
		if cerr := db.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", w.Name, cerr)
		}
	}()
	ld, err := w.load(db, p.seed, p.scale())
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", w.Name, err)
	}
	planStart := time.Now()
	rings := make([][]core.TxnFunc, p.workers)
	writes := make([][]int32, p.workers)
	for k := range rings {
		gen := ld.gen(k)
		rings[k] = make([]core.TxnFunc, p.ring)
		for i := range rings[k] {
			rings[k][i] = gen(i)
		}
		if ld.learnWrites {
			writes[k] = make([]int32, p.ring)
			for i, fn := range rings[k] {
				var c countingTx
				if err := fn(&c); err != nil {
					return nil, fmt.Errorf("dry run of %s slot %d: %w", w.Name, i, err)
				}
				writes[k][i] = c.writes
			}
		}
	}
	res.planNS = float64(time.Since(planStart)) / float64(p.workers*p.ring)
	res.setup = time.Since(setupStart)

	eng := core.NewLockEngine(db)
	cols := make([]*stats.Collector, p.workers)
	// One allocation per worker: in a shared array the tail of one worker's
	// histogram and the head of the next worker's counters would share a
	// cache line that both write on every transaction.
	outs := make([]*workerOut, p.workers)
	traces := make([]*workerTrace, p.workers)
	sessions := make([]core.Session, p.workers)
	for k := range sessions {
		cols[k], outs[k] = &stats.Collector{}, &workerOut{lat: make([]uint32, 0, p.latCap())}
		sessions[k] = eng.NewSession(k, cols[k])
		if traced {
			traces[k] = newWorkerTrace(k, setupStart)
			sessions[k] = newTracedSession(sessions[k], traces[k])
		}
	}

	warmEnd := time.Now().Add(p.warm)
	end := warmEnd.Add(p.timed)
	var wg sync.WaitGroup
	for k := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker(sessions[k], cols[k], traces[k], rings[k], writes[k], warmEnd, end, outs[k])
		}()
	}
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(warmEnd))
	runtime.ReadMemStats(&m0)
	g0, wal0 := readGlobal(db.Global), db.WALStats()
	if traced {
		dev.reset()
	}
	time.Sleep(time.Until(end))
	runtime.ReadMemStats(&m1)
	res.global = readGlobal(db.Global).since(g0)
	wal1 := db.WALStats()
	wg.Wait()

	res.mallocs = m1.Mallocs - m0.Mallocs
	res.wal = wal.DeviceStats{
		Bytes:    wal1.Bytes - wal0.Bytes,
		Syncs:    wal1.Syncs - wal0.Syncs,
		SyncTime: wal1.SyncTime - wal0.SyncTime,
	}
	var totalWrites int64
	for k, o := range outs {
		res.attempted += o.attempted
		res.allCommit += o.commits
		res.commits += o.timed
		res.lat = append(res.lat, o.lat...)
		totalWrites += o.writes
		if o.err != nil {
			res.problems = append(res.problems, fmt.Sprintf("worker %d: fatal Run error: %v", k, o.err))
		}
	}
	slices.Sort(res.lat)
	res.report = stats.Summarize(db.ProtocolName(), p.timed, cols, nil)
	if traced {
		res.trace = collectTrace(traces, dev)
	}
	if err := ld.check(res.allCommit, totalWrites); err != nil {
		res.problems = append(res.problems, "oracle: "+err.Error())
	}
	return res, nil
}

func (w *window) removeWAL() {
	if w.walDir != "" {
		os.RemoveAll(w.walDir)
		w.walDir = ""
	}
}

// recovery is what replaying a window's log measured.
type recovery struct {
	seconds  float64
	records  int
	problems []string
}

// recoverWAL replays win's file-backed log into a freshly loaded DB, the
// way a restart would, then removes the log. Oracles: the replay applied
// one record per commit (every transaction of a file-logged workload
// writes), and the recovered DB passes the workload's own check.
func recoverWAL(w *workload, p plan, win *window) (*recovery, error) {
	defer win.removeWAL()
	runtime.GC()
	cfg := w.engine()
	cfg.LogDevice = wal.NewMemDevice(false)
	db := core.NewDB(cfg)
	defer db.Close()
	ld, err := w.load(db, p.seed, p.scale())
	if err != nil {
		return nil, fmt.Errorf("reload %s: %w", w.Name, err)
	}
	start := time.Now()
	st, err := db.ReplayDir(win.walDir, false)
	rec := &recovery{seconds: time.Since(start).Seconds(), records: st.Records}
	switch {
	case err != nil:
		rec.problems = append(rec.problems, "oracle: ReplayDir: "+err.Error())
	case uint64(st.Records) != win.allCommit:
		rec.problems = append(rec.problems,
			fmt.Sprintf("oracle: ReplayDir applied %d records, want %d commits", st.Records, win.allCommit))
	default:
		if err := ld.check(win.allCommit, 0); err != nil {
			rec.problems = append(rec.problems, "oracle after recovery: "+err.Error())
		}
	}
	return rec, nil
}
