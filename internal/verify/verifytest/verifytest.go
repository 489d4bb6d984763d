// Package verifytest provides reusable randomized correctness harnesses
// run against every concurrency-control engine in the repository: a
// serializability check built on internal/verify, a bank-transfer
// conservation check, a snapshot-consistency check and a partition-log
// check. The engines under test only need to implement core.Engine.
package verifytest

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bamboo/internal/core"
	"bamboo/internal/lock"
	"bamboo/internal/storage"
	"bamboo/internal/verify"
	"bamboo/internal/wal"
)

// stampSchema is the row layout of the verification table: a writer stamp
// and a payload value.
var stampSchema = func() *storage.Schema {
	return storage.NewSchema("vrows",
		storage.Column{Name: "stamp", Type: storage.ColInt64},
		storage.Column{Name: "val", Type: storage.ColInt64},
	)
}

// Options tunes the randomized serializability run.
type Options struct {
	Rows       int
	Workers    int
	PerWorker  int
	OpsPerTxn  int
	WriteRatio float64 // probability an op is an update
	// RMWRatio is the probability an update is performed un-annotated —
	// a Read of the row followed by an Update, driving the executor's
	// SH→EX upgrade path instead of a declared exclusive acquisition.
	RMWRatio float64
	Seed     int64
}

// DefaultOptions is a contentious configuration that exercises dirty
// reads, cascades and wounds heavily (few rows, many workers).
func DefaultOptions() Options {
	return Options{Rows: 8, Workers: 8, PerWorker: 150, OpsPerTxn: 4, WriteRatio: 0.5, Seed: 1}
}

// BuildDB creates the verification table inside db, hash-partitioned
// over db's partitions so a partitioned DB logs through every partition
// log.
func BuildDB(db *core.DB, rows int) *storage.Table {
	tbl := db.Catalog.MustCreateTablePartitioned(stampSchema(), rows,
		storage.HashPartitioner{N: db.Partitions()})
	for k := 0; k < rows; k++ {
		img := tbl.Schema.NewRowImage()
		// stamp 0 = verify.InitialStamp
		tbl.MustInsertRow(uint64(k), img)
	}
	return tbl
}

// History records the committed transactions of one RunSerializability
// run. Its Hook is the DB's commit hook and must be in place when the DB
// is built:
//
//	h := verifytest.NewHistory()
//	cfg.OnCommit = h.Hook
//	db := core.NewDB(cfg)
type History struct {
	hist   *verify.History
	schema *storage.Schema // layout of the images the hook decodes

	mu        sync.Mutex
	commitLog map[uint64]commitInfo
}

type commitInfo struct {
	ts       uint64
	worker   int
	accesses []core.AccessInfo
}

// Column indexes of stampSchema.
const (
	stampCol = 0
	valCol   = 1
)

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{hist: verify.New(), schema: stampSchema(), commitLog: make(map[uint64]commitInfo)}
}

// Hook is the core.OnCommitHook that feeds the history. It keeps a copy
// of the access list, images included, for the failure dump: the images
// it is handed are valid only for the duration of the call.
func (h *History) Hook(worker int, txnID, ts uint64, accesses []core.AccessInfo, inserts int) {
	schema := h.schema
	var reads []verify.Read
	var wrote []string
	var myStamp uint64
	accesses = slices.Clone(accesses)
	for i := range accesses {
		a := &accesses[i]
		a.Read, a.Wrote = bytes.Clone(a.Read), bytes.Clone(a.Wrote)
		if a.Mode == lock.EX {
			wrote = append(wrote, a.Table+"/"+itoa(a.Key))
			myStamp = uint64(schema.GetInt64(a.Wrote, stampCol))
			if a.Read != nil {
				reads = append(reads, verify.Read{
					Row:   a.Table + "/" + itoa(a.Key),
					Stamp: uint64(schema.GetInt64(a.Read, stampCol)),
				})
			}
		} else {
			reads = append(reads, verify.Read{
				Row:   a.Table + "/" + itoa(a.Key),
				Stamp: uint64(schema.GetInt64(a.Read, stampCol)),
			})
		}
	}
	id := txnID
	if myStamp != 0 {
		id = myStamp
	}
	h.mu.Lock()
	h.commitLog[id] = commitInfo{ts: ts, worker: worker, accesses: accesses}
	h.mu.Unlock()
	h.hist.RecordCommit(id, reads, wrote)
}

func (h *History) dumpTxn(t *testing.T, id uint64) {
	schema := h.schema
	h.mu.Lock()
	defer h.mu.Unlock()
	ci, ok := h.commitLog[id]
	if !ok {
		t.Logf("  txn %d: not in commit log", id)
		return
	}
	t.Logf("  txn %d: ts=%d worker=%d", id, ci.ts, ci.worker)
	for _, a := range ci.accesses {
		var rd, wr int64 = -1, -1
		if a.Read != nil {
			rd = schema.GetInt64(a.Read, stampCol)
		}
		if a.Wrote != nil {
			wr = schema.GetInt64(a.Wrote, stampCol)
		}
		t.Logf("    %s key=%d mode=%v dirty=%v readStamp=%d wroteStamp=%d",
			a.Table, a.Key, a.Mode, a.Dirty, rd, wr)
	}
}

// RunSerializability drives a random contentious workload through the
// engine and checks the committed history for serializability. The engine
// must run over a core.DB built with h.Hook as its Config.OnCommit.
func RunSerializability(t *testing.T, e core.Engine, h *History, opts Options) {
	t.Helper()
	db := e.Database()
	tbl := db.Catalog.Table("vrows")
	if tbl == nil {
		tbl = BuildDB(db, opts.Rows)
	}
	schema := tbl.Schema

	// Per-attempt stamps: fn bodies draw a fresh stamp every invocation,
	// so an aborted attempt's dirty writes can never be confused with the
	// committed retry's.
	var stampCtr atomic.Uint64
	stampCtr.Store(1 << 32) // keep stamps disjoint from txn ids

	gen := func(worker, seq int) core.TxnFunc {
		rng := rand.New(rand.NewSource(opts.Seed + int64(worker)*1e6 + int64(seq)))
		keys := pickDistinct(rng, opts.Rows, opts.OpsPerTxn)
		writes := make([]bool, len(keys))
		rmw := make([]bool, len(keys))
		for i := range keys {
			writes[i] = rng.Float64() < opts.WriteRatio
			rmw[i] = writes[i] && rng.Float64() < opts.RMWRatio
		}
		return func(tx core.Tx) error {
			tx.DeclareOps(len(keys))
			stamp := stampCtr.Add(1)
			for i, k := range keys {
				row := tbl.Get(uint64(k))
				if writes[i] {
					if rmw[i] {
						// Un-annotated read-modify-write: the Update below
						// upgrades the shared lock in place.
						if _, err := tx.Read(row); err != nil {
							return err
						}
					}
					err := tx.Update(row, func(img []byte) {
						schema.SetInt64(img, stampCol, int64(stamp))
						schema.AddInt64(img, valCol, 1)
					})
					if err != nil {
						return err
					}
				} else {
					if _, err := tx.Read(row); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}

	res := core.RunN(e, opts.Workers, opts.PerWorker, gen)
	if res.Err != nil {
		t.Fatalf("%s: run failed: %v", e.Name(), res.Err)
	}
	want := uint64(opts.Workers * opts.PerWorker)
	if res.Report.Commits != want {
		t.Fatalf("%s: commits = %d, want %d", e.Name(), res.Report.Commits, want)
	}
	h.Check(t, e.Name(), int(want))
	checkEntriesDrained(t, e, tbl, opts.Rows)
}

// Check fails t unless the history holds want commits and they are
// serializable, dumping the transactions a violation names; engine names
// the engine in the failure. A test that drives its own transactions
// through h.Hook calls it after the run.
func (h *History) Check(t *testing.T, engine string, want int) {
	t.Helper()
	if h.hist.Commits() != want {
		t.Fatalf("%s: history has %d commits, want %d (is h.Hook the DB's Config.OnCommit?)",
			engine, h.hist.Commits(), want)
	}
	if err := h.hist.Check(); err != nil {
		for _, id := range extractIDs(err.Error()) {
			h.dumpTxn(t, id)
		}
		t.Fatalf("%s: %v", engine, err)
	}
}

// RunBankConservation transfers money between accounts concurrently and
// checks the total is conserved — an end-to-end atomicity+isolation check
// that also exercises rollback restore paths.
func RunBankConservation(t *testing.T, e core.Engine, accounts, workers, perWorker int) {
	t.Helper()
	db := e.Database()
	schema := storage.NewSchema("accounts",
		storage.Column{Name: "balance", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, accounts)
	const initial = 1000
	for k := 0; k < accounts; k++ {
		img := schema.NewRowImage()
		schema.SetInt64(img, 0, initial)
		tbl.MustInsertRow(uint64(k), img)
	}

	gen := func(worker, seq int) core.TxnFunc {
		rng := rand.New(rand.NewSource(int64(worker)*1e6 + int64(seq)))
		from := rng.Intn(accounts)
		to := rng.Intn(accounts - 1)
		if to >= from {
			to++
		}
		amount := int64(rng.Intn(50) + 1)
		return func(tx core.Tx) error {
			tx.DeclareOps(2)
			if err := tx.Update(tbl.Get(uint64(from)), func(img []byte) {
				schema.AddInt64(img, 0, -amount)
			}); err != nil {
				return err
			}
			return tx.Update(tbl.Get(uint64(to)), func(img []byte) {
				schema.AddInt64(img, 0, amount)
			})
		}
	}
	res := core.RunN(e, workers, perWorker, gen)
	if res.Err != nil {
		t.Fatalf("%s: run failed: %v", e.Name(), res.Err)
	}
	// Sum via the partition-aware Range: the conservation total does not
	// depend on iteration order, and Range visits every row exactly once
	// regardless of how the table is partitioned.
	var total int64
	var counted int
	tbl.Range(func(_ uint64, row *storage.Row) bool {
		total += schema.GetInt64(row.CommittedImage(), 0)
		counted++
		return true
	})
	if counted != accounts {
		t.Fatalf("%s: Range visited %d rows, want %d", e.Name(), counted, accounts)
	}
	if want := int64(accounts * initial); total != want {
		t.Fatalf("%s: total balance = %d, want %d (money not conserved)", e.Name(), total, want)
	}
	checkEntriesDrained(t, e, tbl, accounts)
}

// RunSnapshotConsistency is the MVCC snapshot-read oracle: transfer
// writers run through the locking path while read-only transactions sum
// every account at a snapshot timestamp. Because a transfer moves money
// between two rows under one commit timestamp, a snapshot observing a
// transaction-consistent prefix of history sums to exactly the invariant
// at *every* snapshot — a torn read (one leg of a transfer visible, the
// other not) breaks the sum immediately. The engine must be backed by an
// MVCC-enabled DB; the run fails if no read was actually served from the
// snapshot path (the oracle would be vacuous).
func RunSnapshotConsistency(t *testing.T, e core.Engine, accounts, workers, perWorker int) {
	t.Helper()
	db := e.Database()
	schema := storage.NewSchema("accounts",
		storage.Column{Name: "balance", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, accounts)
	const initial = 1000
	for k := 0; k < accounts; k++ {
		img := schema.NewRowImage()
		schema.SetInt64(img, 0, initial)
		tbl.MustInsertRow(uint64(k), img)
	}
	want := int64(accounts * initial)

	var torn atomic.Int64 // first inconsistent sum observed (0 = none)
	gen := func(worker, seq int) core.TxnFunc {
		if worker%2 == 0 {
			// Writer: a two-account transfer on the locking path.
			rng := rand.New(rand.NewSource(int64(worker)*1e6 + int64(seq)))
			from := rng.Intn(accounts)
			to := rng.Intn(accounts - 1)
			if to >= from {
				to++
			}
			amount := int64(rng.Intn(50) + 1)
			return func(tx core.Tx) error {
				tx.DeclareOps(2)
				if err := tx.Update(tbl.Get(uint64(from)), func(img []byte) {
					schema.AddInt64(img, 0, -amount)
				}); err != nil {
					return err
				}
				return tx.Update(tbl.Get(uint64(to)), func(img []byte) {
					schema.AddInt64(img, 0, amount)
				})
			}
		}
		// Reader: sum every account at one snapshot.
		return func(tx core.Tx) error {
			core.MarkReadOnly(tx)
			tx.DeclareOps(accounts)
			var sum int64
			for k := 0; k < accounts; k++ {
				img, err := tx.Read(tbl.Get(uint64(k)))
				if err != nil {
					return err
				}
				sum += schema.GetInt64(img, 0)
			}
			if sum != want {
				torn.CompareAndSwap(0, sum)
			}
			return nil
		}
	}
	res := core.RunN(e, workers, perWorker, gen)
	if res.Err != nil {
		t.Fatalf("%s: run failed: %v", e.Name(), res.Err)
	}
	if s := torn.Load(); s != 0 {
		t.Fatalf("%s: snapshot read observed a torn total %d, want %d "+
			"(a transfer was half visible — the snapshot is not transaction-consistent)",
			e.Name(), s, want)
	}
	if res.Report.SnapshotReads == 0 {
		t.Fatalf("%s: no reads served from the snapshot path — the oracle ran vacuously", e.Name())
	}
	var total int64
	tbl.Range(func(_ uint64, row *storage.Row) bool {
		total += schema.GetInt64(row.CommittedImage(), 0)
		return true
	})
	if total != want {
		t.Fatalf("%s: final total = %d, want %d (money not conserved)", e.Name(), total, want)
	}
	checkEntriesDrained(t, e, tbl, accounts)
}

// RequirePartitionLocalLogs is the durability oracle of a partitioned
// run whose DB, live, logged to the WALDir dir and has been closed. Every
// write partition log p holds must belong to partition p, a transaction
// has at most one record per log, and replaying dir into fresh — a DB
// with live's partition count, loaded by the same deterministic loader
// and never run — must reproduce every committed row image of live,
// inserted rows included. The run must have filled every log and, with
// more than one, committed at least one transaction across logs, or the
// check ran vacuously.
func RequirePartitionLocalLogs(t *testing.T, dir string, live, fresh *core.DB) {
	t.Helper()
	logsOf := make(map[uint64]int) // how many logs hold each transaction
	for p := 0; p < live.Partitions(); p++ {
		records, foreign := 0, 0
		var first string
		seen := make(map[uint64]bool)
		_, err := wal.ReplayPartition(dir, p, 0, func(rec *wal.Record) error {
			records++
			if seen[rec.TxnID] {
				t.Errorf("log %d holds two records of txn %d", p, rec.TxnID)
			}
			seen[rec.TxnID] = true
			logsOf[rec.TxnID]++
			for _, w := range rec.Writes {
				if got := live.Catalog.Table(w.Table).PartitionFor(w.Key); got != p {
					if foreign++; foreign == 1 {
						first = fmt.Sprintf("txn %d's write of %s/%d, which routes to partition %d",
							rec.TxnID, w.Table, w.Key, got)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("read log %d: %v", p, err)
		}
		if foreign > 0 {
			t.Errorf("log %d holds %d writes of other partitions, the first %s", p, foreign, first)
		}
		if records == 0 {
			t.Errorf("log %d is empty: the routing check ran vacuously", p)
		}
	}
	crossing := 0
	for _, n := range logsOf {
		if n > 1 {
			crossing++
		}
	}
	if live.Partitions() > 1 && crossing == 0 {
		t.Errorf("no transaction logged to more than one partition: the cross-partition case ran vacuously")
	}
	if _, err := fresh.ReplayDir(dir, true); err != nil {
		t.Fatalf("replay %s: %v", dir, err)
	}
	for _, tbl := range live.Catalog.AllTables() {
		name := tbl.Schema.Name
		rtbl := fresh.Catalog.Table(name)
		if got, want := rtbl.Rows(), tbl.Rows(); got != want {
			t.Errorf("table %s: replay rebuilt %d rows, the run committed %d", name, got, want)
		}
		tbl.Range(func(k uint64, row *storage.Row) bool {
			r := rtbl.Get(k)
			if r == nil || !bytes.Equal(r.Entry.CurrentData(), row.CommittedImage()) {
				t.Errorf("table %s key %d: replayed image differs from the committed one", name, k)
				return false
			}
			return true
		})
	}
}

func checkEntriesDrained(t *testing.T, e core.Engine, tbl *storage.Table, rows int) {
	t.Helper()
	seen := 0
	tbl.Range(func(k uint64, row *storage.Row) bool {
		seen++
		if ret, own, wait := row.Entry.Snapshot(); ret+own+wait != 0 {
			t.Errorf("%s: row %d entry not drained: retired=%d owners=%d waiters=%d",
				e.Name(), k, ret, own, wait)
		}
		if err := row.Entry.CheckInvariants(); err != nil {
			t.Errorf("%s: row %d: %v", e.Name(), k, err)
		}
		return true
	})
	if seen != rows {
		t.Errorf("%s: Range visited %d rows, want %d", e.Name(), seen, rows)
	}
}

func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	keys := perm[:k]
	return keys
}

// extractIDs pulls the txn ids out of a verify error message for dumping.
func extractIDs(s string) []uint64 {
	var ids []uint64
	seen := map[uint64]bool{}
	cur, in := uint64(0), false
	flush := func() {
		if in && cur > 1<<30 && !seen[cur] {
			seen[cur] = true
			ids = append(ids, cur)
		}
		cur, in = 0, false
	}
	for _, c := range s {
		if c >= '0' && c <= '9' {
			cur = cur*10 + uint64(c-'0')
			in = true
		} else {
			flush()
		}
	}
	flush()
	return ids
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
