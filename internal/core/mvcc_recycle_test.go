package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"bamboo/internal/stats"
	"bamboo/internal/storage"
)

// Stamped rows for the recycle-safety test: an image describes itself —
// the key it belongs to, a version counter, a payload derived from both
// and a checksum over all three — so a reader can tell from the bytes
// alone whether the image it holds is one committed version or a buffer
// somebody is writing the next one into.
const (
	stampKey = iota
	stampVer
	stampPayload
	stampSum
)

func stampSchema() *storage.Schema {
	return storage.NewSchema("stamped",
		storage.Column{Name: "key", Type: storage.ColInt64},
		storage.Column{Name: "ver", Type: storage.ColInt64},
		storage.Column{Name: "payload", Type: storage.ColBytes, Size: 104},
		storage.Column{Name: "sum", Type: storage.ColInt64})
}

func stampChecksum(s *storage.Schema, img []byte) int64 {
	h := fnv.New64a()
	h.Write(img[:s.Offset(stampSum)])
	return int64(h.Sum64())
}

// stamp rewrites img as version ver of key.
func stamp(s *storage.Schema, img []byte, key, ver int64) {
	s.SetInt64(img, stampKey, key)
	s.SetInt64(img, stampVer, ver)
	p := s.GetBytes(img, stampPayload)
	for i := range p {
		p[i] = byte(ver*31 + key*7 + int64(i))
	}
	s.SetInt64(img, stampSum, stampChecksum(s, img))
}

// checkStamp returns the image's version counter, or an error if the
// image is not a whole committed version of key.
func checkStamp(s *storage.Schema, img []byte, key int64) (int64, error) {
	if got := s.GetInt64(img, stampKey); got != key {
		return 0, fmt.Errorf("image of key %d carries key %d", key, got)
	}
	ver := s.GetInt64(img, stampVer)
	if got, want := s.GetInt64(img, stampSum), stampChecksum(s, img); got != want {
		return 0, fmt.Errorf("key %d version %d: checksum %x, image hashes to %x (torn image)", key, ver, got, want)
	}
	p := s.GetBytes(img, stampPayload)
	if want := byte(ver*31 + key*7); p[0] != want {
		return 0, fmt.Errorf("key %d version %d: payload starts %d, want %d", key, ver, p[0], want)
	}
	return ver, nil
}

// TestMVCCRecycledImagesStayImmutable is the recycle-safety test for the
// MVCC write loop, run with -race: two writers hammer four hot rows on an
// MVCC DB with image recycling on, so every private write copy is built
// in a buffer harvested from a detached version tail, while two snapshot
// readers pin a snapshot, check the stamp of every image the chains give
// them, yield, and check the same images again before unpinning. An image
// handed to a writer while a pinned reader can still reach it shows as a
// torn stamp (and as a race). The pruner tick is 1 ms, so tails of many
// nodes are detached, harvested and reused hundreds of times; the test
// checks that this happened — free lists that held more than one node
// (only a multi-node harvest does that: an install takes one node and,
// without it, gives back at most one) and write copies served from
// harvested buffers.
func TestMVCCRecycledImagesStayImmutable(t *testing.T) {
	const (
		hotRows = 4
		writers = 2
		readers = 2
	)
	cfg := Bamboo()
	cfg.MVCC = true
	db := NewDB(cfg)
	defer db.Close()
	SetPruneInterval(db, time.Millisecond)
	schema := stampSchema()
	tbl := db.Catalog.MustCreateTable(schema, hotRows)
	rows := make([]*storage.Row, hotRows)
	for k := range rows {
		img := schema.NewRowImage()
		stamp(schema, img, int64(k), 0)
		rows[k] = tbl.MustInsertRow(uint64(k), img)
	}
	eng := NewLockEngine(db)

	var (
		stop     atomic.Bool
		fail     atomic.Value
		wg       sync.WaitGroup
		maxFree  [writers]int
		cols     [writers]*stats.Collector
		verified atomic.Int64
	)
	failf := func(format string, args ...any) {
		fail.CompareAndSwap(nil, fmt.Sprintf(format, args...))
		stop.Store(true)
	}

	for w := 0; w < writers; w++ {
		cols[w] = &stats.Collector{}
		sess := eng.NewSession(w, cols[w]).(*lockSession)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				a, b := rows[i%hotRows], rows[(i+1+w)%hotRows]
				if a.Key > b.Key {
					a, b = b, a
				}
				err := sess.Run(func(tx Tx) error {
					tx.DeclareOps(2)
					for _, r := range []*storage.Row{a, b} {
						key := int64(r.Key)
						if err := tx.Update(r, func(img []byte) {
							stamp(schema, img, key, schema.GetInt64(img, stampVer)+1)
						}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					failf("writer %d: %v", w, err)
					return
				}
				if n := len(sess.free.nodes); n > maxFree[w] {
					maxFree[w] = n
				}
			}
		}()
	}

	for r := 0; r < readers; r++ {
		sess := eng.NewSession(writers+r, &stats.Collector{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last [hotRows]int64
			for !stop.Load() {
				err := sess.Run(func(tx Tx) error {
					if !MarkReadOnly(tx) {
						return fatalf("snapshot mode refused")
					}
					var imgs [hotRows][]byte
					var vers [hotRows]int64
					for k, row := range rows {
						img, err := tx.Read(row)
						if err != nil {
							return err
						}
						ver, err := checkStamp(schema, img, int64(k))
						if err != nil {
							return fatalf("at read: %w", err)
						}
						if ver < last[k] {
							return fatalf("key %d went back from version %d to %d", k, last[k], ver)
						}
						imgs[k], vers[k], last[k] = img, ver, ver
						runtime.Gosched()
					}
					// Still pinned: every image read above must be the
					// version it was, however many commits have passed.
					for k, img := range imgs {
						ver, err := checkStamp(schema, img, int64(k))
						if err != nil {
							return fatalf("at the end of the walk: %w", err)
						}
						if ver != vers[k] {
							return fatalf("key %d: pinned image changed from version %d to %d", k, vers[k], ver)
						}
					}
					verified.Add(hotRows)
					return nil
				})
				if err != nil {
					failf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if v := fail.Load(); v != nil {
		t.Fatal(v)
	}
	if verified.Load() == 0 {
		t.Fatal("no snapshot read was verified")
	}
	var reused, pruned uint64
	most := 0
	for w := range cols {
		reused += cols[w].Counts[stats.ImagePoolRecycled]
		pruned += cols[w].Counts[stats.VersionsPruned]
		most = max(most, maxFree[w])
	}
	t.Logf("%d images verified twice; %d nodes harvested by installs, free list peaked at %d nodes, %d write copies built in harvested buffers",
		verified.Load(), pruned, most, reused)
	if most <= 1 {
		t.Fatalf("free lists never held more than %d node: no install harvested a tail of several", most)
	}
	if reused == 0 {
		t.Fatal("no write copy was built in a harvested buffer: the readers were never at risk")
	}
}

// TestSessionSizeClass keeps lockSession within the 320-byte allocation
// size class (at 280 bytes it is in the 288-byte one). With the MVCC
// free lists inline it was 360 bytes, the allocator
// moved every session to the 384-byte class, and hotspot — MVCC off, two
// sessions polling each other's transactions — lost 4 % on where its
// sessions landed; behind one pointer it reads as before.
func TestSessionSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(lockSession{}); got > 320 {
		t.Fatalf("lockSession is %d bytes, over the 320-byte size class", got)
	}
}
