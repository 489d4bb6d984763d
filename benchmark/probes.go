package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bamboo/internal/lock"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/wal"
	"bamboo/internal/zipfian"
)

// Layer probes: each calls one exported function of one package in a tight
// single-goroutine loop, a fixed number of times, and reports the median
// ns/op of probeReps repetitions. Operation counts are sized so that one
// repetition runs for ~45 ms, the five of a probe together for at least
// 200 ms, on the host the benchmark was written on.

const (
	probeReps    = 5
	probeEntries = 4096 // lock entries / version chains a probe cycles over
	// probeRowBytes is the image size the lock probes copy on an exclusive
	// grant: the YCSB row (8 B counter + 9 × 100 B columns), so probe cost ×
	// call count is comparable to ycsb_uniform's traced run.
	probeRowBytes = 908
	// The wal probes log the record the issue names: 8 writes × 1 KB.
	probeRecWrites = 8
	probeRecImage  = 1024
)

// probe is one layer probe. run performs ops operations; setup cost stays
// outside it.
type probe struct {
	name string
	ops  int
	run  func(ops int)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// runProbes runs every probe and returns ns/op by metric name. div divides
// the operation counts (1 except under -smoke).
func runProbes(outDir string, workers, div int) (values, error) {
	probes, cleanup, err := buildProbes(outDir, workers)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	v := values{}
	for _, p := range probes {
		ops := max(p.ops/div, 1)
		p.run(ops) // untimed first pass: pools, buffers and caches fill
		reps := make([]float64, probeReps)
		for i := range reps {
			start := time.Now()
			p.run(ops)
			reps[i] = float64(time.Since(start)) / float64(ops)
		}
		sort.Float64s(reps)
		v[p.name] = reps[probeReps/2]
	}
	return v, nil
}

func buildProbes(outDir string, workers int) ([]probe, func(), error) {
	var probes []probe
	for _, variant := range lockVariants {
		probes = append(probes, lockProbes(variant)...)
	}

	alloc := txn.NewTSAlloc(0)
	probes = append(probes, probe{"txn.ts_alloc_ns", 1_000_000, func(ops int) {
		for i := 0; i < ops; i++ {
			sink += alloc.Next()
		}
	}})
	snaps := txn.NewSnapshotTable()
	for w := 0; w < workers; w++ {
		snaps.Register(w) // AcquireSnapshot scans every registered slot
	}
	probes = append(probes, probe{"txn.snapshot_begin_end_ns", 700_000, func(ops int) {
		for i := 0; i < ops; i++ {
			sink += snaps.AcquireSnapshot(0, alloc)
			snaps.EndSnapshot(0)
		}
	}})

	// storage.index_get_ns: uniform random keys over a table the size of
	// the YCSB one. Keys are drawn beforehand so the rng is not measured.
	const rows = 200_000
	tbl := storage.NewTable(storage.NewSchema("probe", storage.Column{Name: "v", Type: storage.ColInt64}), rows)
	for k := uint64(0); k < rows; k++ {
		tbl.MustInsertRow(k, nil)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(rng.Intn(rows))
	}
	probes = append(probes, probe{"storage.index_get_ns", 800_000, func(ops int) {
		for i := 0; i < ops; i++ {
			sink += tbl.Get(keys[i&(len(keys)-1)]).Key
		}
	}})

	// Version chains in steady state: the reclaim watermark trails the
	// commit timestamp by one, so every install detaches and reuses the
	// node it displaced, as a hot row's chain does once the pruner keeps up.
	chains := make([]storage.VersionChain, probeEntries)
	img := make([]byte, probeRowBytes)
	ts := uint64(1)
	for i := range chains {
		chains[i].Seed(0, img)
	}
	probes = append(probes, probe{"storage.version_install_ns", 1_500_000, func(ops int) {
		for i := 0; i < ops; i++ {
			ts++
			n, _, _ := chains[i&(probeEntries-1)].Install(img, ts, ts-1)
			sink += uint64(n)
		}
	}})
	for _, depth := range []int{1, 4} {
		var c storage.VersionChain
		c.Seed(1, img)
		for v := 2; v <= depth; v++ {
			c.Install(img, uint64(v), 0) // watermark 0: nothing is reclaimed
		}
		// A snapshot at ts 1 sees only the oldest version: depth hops.
		probes = append(probes, probe{fmt.Sprintf("storage.version_read_d%d_ns", depth), 15_000_000, func(ops int) {
			for i := 0; i < ops; i++ {
				b, _ := c.ReadAt(1)
				sink += uint64(len(b))
			}
		}})
	}

	rec := &wal.Record{TxnID: 1}
	for i := 0; i < probeRecWrites; i++ {
		rec.Writes = append(rec.Writes, wal.Write{Table: "probe", Key: uint64(i), Image: make([]byte, probeRecImage)})
	}
	var buf []byte
	probes = append(probes, probe{"wal.encode_ns", 350_000, func(ops int) {
		for i := 0; i < ops; i++ {
			buf = wal.AppendRecord(buf[:0], rec)
		}
		sink += uint64(len(buf))
	}})
	commit := func(a *wal.Appender) func(int) {
		return func(ops int) {
			for i := 0; i < ops; i++ {
				lsn, err := a.Commit(rec)
				if err != nil {
					panic(fmt.Sprintf("wal probe: %v", err)) // a full disk; nothing to measure
				}
				sink += lsn
			}
		}
	}
	probes = append(probes, probe{"wal.commit_mem_ns", 350_000, commit(wal.New(wal.NewMemDevice(false)).NewAppender())})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(outDir, "wal-probe-")
	if err != nil {
		return nil, nil, err
	}
	fd, err := wal.OpenFileDevice(filepath.Join(dir, "probe.log"), wal.FsyncNone, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	cleanup := func() { fd.Close(); os.RemoveAll(dir) }
	// ~8 KB per commit: the op count bounds the file at ~0.4 GB.
	probes = append(probes, probe{"wal.commit_file_ns", 8_000, commit(wal.New(fd).NewAppender())})

	var col stats.Collector
	probes = append(probes, probe{"stats.record_commit_ns", 10_000_000, func(ops int) {
		for i := 0; i < ops; i++ {
			col.RecordCommit(time.Duration(5000+i&1023), 100, 50)
		}
		sink += col.Commits
	}})
	var hist stats.Hist
	probes = append(probes, probe{"stats.hist_record_ns", 15_000_000, func(ops int) {
		for i := 0; i < ops; i++ {
			hist.Record(time.Duration(5000 + i&1023))
		}
		sink += hist.Count()
	}})

	z := zipfian.New(rows, 0.9, 1)
	probes = append(probes, probe{"zipfian.next_ns", 800_000, func(ops int) {
		for i := 0; i < ops; i++ {
			sink += z.Next()
		}
	}})
	return probes, cleanup, nil
}

// lockProbes drives lock.Manager the way core's executor does — a pooled
// request, the transaction renewed per operation, BeginCommit before a
// committing release — over probeEntries uncontended entries.
func lockProbes(variant string) []probe {
	cfg := lock.Config{Variant: lock.WoundWait, RecycleImages: true}
	if variant == "bamboo" {
		cfg = lock.Config{Variant: lock.Bamboo, RetireReads: true, NoWoundRead: true, DynamicTS: true, RecycleImages: true}
	}
	m := lock.NewManager(cfg)
	entries := make([]lock.Entry, probeEntries)
	for i := range entries {
		entries[i].Init(make([]byte, probeRowBytes))
	}
	t := txn.New(0)
	t.SetTSAlloc(m.NewTSAlloc(0))
	var pool lock.Pool
	var id uint64

	// cycle runs one single-lock transaction: acquire, hold, commit-release.
	cycle := func(mode lock.Mode, hold func(*lock.Request)) func(int) {
		return func(ops int) {
			for i := 0; i < ops; i++ {
				id++
				t.Renew(id)
				if !cfg.DynamicTS {
					m.AssignTS(t)
				}
				r := pool.Get()
				if err := m.AcquireInto(r, t, mode, &entries[i&(probeEntries-1)]); err != nil {
					panic(fmt.Sprintf("lock probe: uncontended acquire failed: %v", err))
				}
				if hold != nil {
					hold(r)
				}
				t.BeginCommit()
				m.Release(r, false)
				t.FinishCommit()
				pool.Put(r)
			}
		}
	}
	probes := []probe{
		{"lock.acquire_release_sh_ns_" + variant, 250_000, cycle(lock.SH, nil)},
		{"lock.acquire_release_ex_ns_" + variant, 250_000, cycle(lock.EX, nil)},
		{"lock.upgrade_ns_" + variant, 200_000, cycle(lock.SH, func(r *lock.Request) {
			if err := m.Upgrade(r); err != nil {
				panic(fmt.Sprintf("lock probe: uncontended upgrade failed: %v", err))
			}
		})},
	}
	if variant == "bamboo" {
		probes = append(probes, probe{"lock.acquire_retire_release_ex_ns_bamboo", 200_000, cycle(lock.EX, m.Retire)})
	}
	return probes
}
