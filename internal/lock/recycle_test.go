package lock

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"bamboo/internal/txn"
)

// TestImageCaptureRecycle pins the capture/consume protocol
// deterministically: a committing exclusive release captures the
// superseded image's storage into the request's spare buffer, and the
// request's next exclusive grant serves its private copy from that exact
// array instead of allocating. Covers the 2PL publish path, Bamboo's
// retired-install path, and the gate (no capture with recycling off).
func TestImageCaptureRecycle(t *testing.T) {
	run := func(t *testing.T, cfg Config, retire bool) {
		m := NewManager(cfg)
		e := &Entry{}
		orig := make([]byte, 8)
		e.Init(orig)
		var pool Pool

		// Txn 1: exclusive write, commit. The grant copies the committed
		// image into a fresh private buffer (first copy ever: nothing to
		// recycle yet) and records the old image as the Read reference.
		tx := txn.New(1)
		tx.SetTSAlloc(m.NewTSAlloc(0))
		m.AssignTS(tx)
		r := pool.Get()
		if err := m.AcquireInto(r, tx, EX, e); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if &r.Data[0] == &orig[0] {
			t.Fatal("exclusive grant aliased the committed image instead of copying")
		}
		if &r.Read[0] != &orig[0] {
			t.Fatal("Read does not reference the superseded committed image")
		}
		if c, u := r.ImageStats(); c != 1 || u != 0 {
			t.Fatalf("first grant: copies=%d reuses=%d, want 1/0", c, u)
		}
		binary.LittleEndian.PutUint64(r.Data, 7)
		if retire {
			m.Retire(r)
		}
		if tx.Sem() != 0 || !tx.BeginCommit() {
			t.Fatal("single transaction failed to commit")
		}
		m.Release(r, false)
		tx.FinishCommit()

		if m.cfg.RecycleImages {
			if r.buf == nil || &r.buf[0] != &orig[0] {
				t.Fatal("commit release did not capture the superseded image into the spare buffer")
			}
		} else if r.buf != nil {
			t.Fatal("captured a spare buffer with recycling off")
		}
		pool.Put(r)

		// Txn 2: the same pooled request's next exclusive grant. With
		// recycling on, its private copy must reuse the captured array —
		// same backing storage, fresh contents from the committed image.
		tx2 := txn.New(2)
		tx2.SetTSAlloc(m.NewTSAlloc(0))
		m.AssignTS(tx2)
		r2 := pool.Get()
		if r2 != r {
			t.Fatal("pool did not return the recycled request")
		}
		if err := m.AcquireInto(r2, tx2, EX, e); err != nil {
			t.Fatalf("second acquire: %v", err)
		}
		if got := binary.LittleEndian.Uint64(r2.Data); got != 7 {
			t.Fatalf("second grant sees image %d, want 7", got)
		}
		if m.cfg.RecycleImages {
			if &r2.Data[0] != &orig[0] {
				t.Fatal("second grant allocated instead of consuming the recycled spare")
			}
			if c, u := r2.ImageStats(); c != 0 || u != 1 {
				t.Fatalf("second grant: copies=%d reuses=%d, want 0/1", c, u)
			}
		} else if c, u := r2.ImageStats(); c != 1 || u != 0 {
			t.Fatalf("second grant with recycling off: copies=%d reuses=%d, want 1/0", c, u)
		}
		m.Release(r2, true)
		tx2.FinishAbort()
		pool.Put(r2)
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("woundwait-publish", func(t *testing.T) {
		run(t, Config{Variant: WoundWait, RecycleImages: true}, false)
	})
	t.Run("bamboo-retired", func(t *testing.T) {
		run(t, Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, RecycleImages: true}, true)
	})
	t.Run("gated-off", func(t *testing.T) {
		run(t, Config{Variant: WoundWait}, false)
	})
}

// TestImageRecycleStress is the reuse-after-release property test for the
// shared-image protocol, run under -race in CI: with image recycling on,
// a superseded committed image may be recycled into a later writer's
// private buffer ONLY once no lock holder can still reference it. Every
// shared holder snapshots its granted image's contents and re-verifies
// them just before release — a buffer recycled while reachable gets
// overwritten by the next writer's copy under the holder's feet, failing
// the comparison, and the concurrent read/write is itself a data race the
// race detector flags. The per-entry counter conservation and generation
// oracles of the pooled-reuse stress tests ride along, and the run must
// actually serve recycled buffers (a zero reuse count would make the
// property vacuous).
func TestImageRecycleStress(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"bamboo-full", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, RecycleImages: true}},
		{"bamboo-dynts", Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, DynamicTS: true, RecycleImages: true}},
		{"bamboo-plain", Config{Variant: Bamboo, RecycleImages: true}},
		{"woundwait", Config{Variant: WoundWait, RecycleImages: true}},
		{"waitdie", Config{Variant: WaitDie, RecycleImages: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			m := NewManager(v.cfg)
			const nEntries = 3
			entries := make([]*Entry, nEntries)
			for i := range entries {
				entries[i] = &Entry{}
				entries[i].Init(make([]byte, 8))
			}

			const workers = 8
			perWorker := 300
			if testing.Short() {
				perWorker = 120
			}
			var committedWrites [workers]uint64
			var reused [workers]uint64
			var wg sync.WaitGroup
			retire := v.cfg.Variant == Bamboo
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var pool Pool
					alloc := m.NewTSAlloc(w)
					rng := rand.New(rand.NewSource(int64(w)*733 + 11))
					tx := txn.New(0)
					tx.SetTSAlloc(alloc)
					reqs := make([]*Request, 0, nEntries)
					gens := make([]uint64, 0, nEntries)
					seen := make([]uint64, 0, nEntries)
					for i := 0; i < perWorker; i++ {
						tx.Renew(uint64(w*perWorker+i) + 1)
						n := 1 + rng.Intn(nEntries)
						for {
							if !v.cfg.DynamicTS && !tx.HasTS() {
								m.AssignTS(tx)
							}
							reqs, gens, seen = reqs[:0], gens[:0], seen[:0]
							aborted := false
							writes := uint64(0)
							for ei := 0; ei < n && !aborted; ei++ {
								r := pool.Get()
								gens = append(gens, r.Gen())
								if err := m.AcquireInto(r, tx, SH, entries[ei]); err != nil {
									if r.Gen() != gens[len(gens)-1] {
										t.Errorf("request recycled while held (gen %d -> %d)", gens[len(gens)-1], r.Gen())
									}
									pool.Put(r)
									gens = gens[:len(gens)-1]
									aborted = true
									break
								}
								reqs = append(reqs, r)
								val := binary.LittleEndian.Uint64(r.Data)
								seen = append(seen, val)
								if rng.Intn(2) == 0 { // read-modify-write: upgrade in place
									if err := m.Upgrade(r); err != nil {
										aborted = true
										break
									}
									binary.LittleEndian.PutUint64(r.Data, val+1)
									writes++
									if retire && rng.Intn(2) == 0 {
										m.Retire(r)
									}
								}
							}
							commit := false
							if !aborted {
								ok := true
								for it := 0; ; it++ {
									if tx.Aborting() {
										ok = false
										break
									}
									if tx.Sem() == 0 {
										break
									}
									Backoff(it)
								}
								// A positioned reader may have commit-ordered
								// itself before this transaction between the
								// semaphore check and the CAS: back out, as the
								// core executor does.
								commit = ok && tx.BeginCommit() && tx.Sem() == 0
							}
							for ri, r := range reqs {
								// The shared-image property: a granted SH
								// holder's image is immutable until its
								// release. A wrongful recycle overwrites it.
								if r.Mode == SH {
									if got := binary.LittleEndian.Uint64(r.Data); got != seen[ri] {
										t.Errorf("held shared image mutated: read %d at grant, %d at release (buffer recycled while reachable)", seen[ri], got)
									}
								}
								m.Release(r, !commit)
								if r.Gen() != gens[ri] {
									t.Errorf("request recycled while held (gen %d -> %d)", gens[ri], r.Gen())
								}
								_, u := r.ImageStats()
								reused[w] += uint64(u)
								pool.Put(r)
							}
							if commit {
								tx.FinishCommit()
								committedWrites[w] += writes
								break
							}
							tx.FinishAbort()
							tx.Reset()
						}
					}
				}(w)
			}
			wg.Wait()

			var want, got, totalReused uint64
			for w := range committedWrites {
				want += committedWrites[w]
				totalReused += reused[w]
			}
			for _, e := range entries {
				got += binary.LittleEndian.Uint64(e.CurrentData())
				if ret, own, wait := e.Snapshot(); ret+own+wait != 0 {
					t.Fatalf("entry not drained: %d/%d/%d\n%s", ret, own, wait, e.DebugString())
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if got != want {
				t.Fatalf("summed counters = %d, committed increments = %d (lost/phantom updates through recycled images)", got, want)
			}
			if want == 0 {
				t.Fatal("no committed upgraded writes observed")
			}
			if totalReused == 0 {
				t.Fatal("no write copies served from recycled buffers — the property run was vacuous")
			}
		})
	}
}

// TestPrivateCopyPaths pins what every path to an exclusive hold leaves on
// the request: Read is the installed image the writer observed, Data is a
// private buffer holding the same bytes, and building it cost exactly one
// copy — a fresh allocation, or a reuse when the request carried a spare.
func TestPrivateCopyPaths(t *testing.T) {
	cases := []struct {
		name string
		// upgrade takes a granted SH request to an exclusive hold; nil
		// means the path under test is the exclusive grant itself.
		upgrade func(m *Manager, r *Request) error
	}{
		{name: "grant"},
		{name: "upgrade", upgrade: (*Manager).Upgrade},
	}
	for _, tc := range cases {
		for _, spare := range []bool{false, true} {
			name := tc.name + "/alloc"
			if spare {
				name = tc.name + "/reuse"
			}
			t.Run(name, func(t *testing.T) {
				m := NewManager(Config{Variant: Bamboo, RetireReads: true, NoWoundRead: true, RecycleImages: true})
				installed := []byte{1, 2, 3, 4, 5, 6, 7, 8}
				e := &Entry{}
				e.Init(installed)
				r := &Request{}
				var buf []byte
				if spare {
					buf = make([]byte, len(installed))
					r.StashBuf(buf)
				}
				mode := EX
				if tc.upgrade != nil {
					mode = SH
				}
				if err := m.AcquireInto(r, newTxnTS(1, 1), mode, e); err != nil {
					t.Fatalf("acquire %s: %v", mode, err)
				}
				if tc.upgrade != nil {
					if c, u := r.ImageStats(); c+u != 0 {
						t.Fatalf("shared grant copied an image: copies=%d reuses=%d", c, u)
					}
					if err := tc.upgrade(m, r); err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
				}

				if r.Mode != EX || r.Retired() {
					t.Fatalf("mode=%s retired=%v, want EX owner", r.Mode, r.Retired())
				}
				if &r.Read[0] != &installed[0] {
					t.Fatal("Read is not the previously installed image")
				}
				if &r.Data[0] == &installed[0] {
					t.Fatal("Data aliases the installed image")
				}
				if !bytes.Equal(r.Data, installed) {
					t.Fatalf("Data = %v, want a copy of %v", r.Data, installed)
				}
				if spare && &r.Data[0] != &buf[0] {
					t.Fatal("Data was not built in the spare buffer")
				}
				wantC, wantU := uint32(1), uint32(0)
				if spare {
					wantC, wantU = 0, 1
				}
				if c, u := r.ImageStats(); c != wantC || u != wantU {
					t.Fatalf("copies=%d reuses=%d, want %d/%d", c, u, wantC, wantU)
				}
				cur := e.CurrentData()
				if &cur[0] == &r.Data[0] {
					t.Fatal("Data installed as the entry's image before any retire")
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				m.Release(r, true)
				if cur = e.CurrentData(); &cur[0] != &installed[0] {
					t.Fatal("abort did not restore the installed image")
				}
			})
		}
	}
}
