package blockcache

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"stegfs/internal/vdisk"
)

// cacheModel is the block cache stated in block numbers over a reference
// policy, for a cache without write-behind driven by one goroutine. Reads
// resolve a batch in passes, the way ReadBlocks' slow path does: every
// resident block is a hit, touched in batch order; the first copy of each
// absent block is fetched and, after the pass, inserted as a miss; a
// duplicate of a block fetched in the same pass is resolved in the next
// one. It has no fast path, so it checks that the cache's fast path serves
// exactly what a pass would.
type cacheModel struct {
	pol       blockPolicy
	cap       int
	resident  map[int64]bool
	dirty     map[int64]bool
	val       map[int64]byte // every written block's tag; unwritten block n holds tag byte(n)
	failWrite map[int64]bool // blocks whose next device write fails
	sticky    bool           // a failed eviction write-back awaits the next barrier
	stats     Stats
}

func newCacheModel(pol blockPolicy, capacity int) *cacheModel {
	return &cacheModel{
		pol: pol, cap: capacity,
		resident: make(map[int64]bool), dirty: make(map[int64]bool),
		val: make(map[int64]byte), failWrite: make(map[int64]bool),
	}
}

func (m *cacheModel) tag(n int64) byte {
	if v, ok := m.val[n]; ok {
		return v
	}
	return byte(n)
}

func (m *cacheModel) read(ns []int64) {
	for remaining := ns; len(remaining) > 0; {
		var fetch, retry []int64
		for _, n := range remaining {
			switch {
			case m.resident[n]:
				m.stats.Hits++
				m.pol.Touch(n)
			case slices.Contains(fetch, n):
				retry = append(retry, n)
			default:
				fetch = append(fetch, n)
			}
		}
		for _, n := range fetch {
			m.stats.Misses++
			m.insert(n, false)
		}
		remaining = retry
	}
}

func (m *cacheModel) write(ns []int64, tags []byte) {
	for i, n := range ns {
		if !m.resident[n] {
			m.val[n] = tags[i]
			m.insert(n, true)
			continue
		}
		m.pol.Touch(n)
		if m.tag(n) == tags[i] {
			m.stats.Unchanged++
			continue
		}
		m.val[n] = tags[i]
		m.dirty[n] = true
	}
}

// insert makes n resident and evicts victims while over capacity, stopping
// at the first failed write-back, which keeps its victim resident and dirty.
func (m *cacheModel) insert(n int64, dirty bool) {
	m.resident[n] = true
	if dirty {
		m.dirty[n] = true
	}
	m.pol.Insert(n)
	for len(m.resident) > m.cap {
		v, _ := m.pol.Victim()
		if m.dirty[v] {
			if m.failWrite[v] {
				delete(m.failWrite, v)
				m.sticky = true
				m.pol.Touch(v)
				return
			}
			m.stats.WriteBacks++
			delete(m.dirty, v)
		}
		m.pol.Remove(v)
		delete(m.resident, v)
		m.stats.Evictions++
	}
}

// flush writes every dirty block and reports whether the barrier returns
// the sticky eviction error.
func (m *cacheModel) flush() (sticky bool) {
	m.stats.WriteBacks += int64(len(m.dirty))
	clear(m.dirty)
	sticky, m.sticky = m.sticky, false
	return sticky
}

func (m *cacheModel) invalidate() (sticky bool) {
	sticky = m.flush()
	clear(m.resident)
	m.pol.Reset()
	return sticky
}

// check compares the cache's counters, resident set and dirty flags with
// the model's.
func (m *cacheModel) check(t *testing.T, c *Cache, where string) {
	t.Helper()
	got := c.Stats()
	if got.Hits != m.stats.Hits || got.Misses != m.stats.Misses || got.Evictions != m.stats.Evictions ||
		got.WriteBacks != m.stats.WriteBacks || got.Unchanged != m.stats.Unchanged {
		t.Fatalf("%s: cache stats %+v, model %+v", where, got, m.stats)
	}
	c.mu.Lock()
	resident := slices.Sorted(maps.Keys(c.entries))
	for n, e := range c.entries {
		if e.block != n || e.dirty != m.dirty[n] {
			c.mu.Unlock()
			t.Fatalf("%s: entry for block %d holds block %d, dirty %v; model dirty %v", where, n, e.block, e.dirty, m.dirty[n])
		}
	}
	c.mu.Unlock()
	if want := slices.Sorted(maps.Keys(m.resident)); !slices.Equal(resident, want) {
		t.Fatalf("%s: resident %v, model %v", where, resident, want)
	}
	checkDirtyIndex(t, c)
}

// TestPolicyCacheModel drives a Cache and a cacheModel over the reference
// policies through the same seeded steps — ReadBlocks and WriteBlocks
// batches, some with duplicate block numbers and some that hit only in
// part, Flush, Invalidate, and writes whose eviction write-back a
// FaultStore fails — and after every step requires the two to agree on
// every counter, the resident set and the dirty flags, and every read to
// return the model's bytes.
func TestPolicyCacheModel(t *testing.T) {
	const bs = 16
	refs := map[string]func(int) blockPolicy{
		PolicyLRU: func(int) blockPolicy { return newRefLRU() },
		Policy2Q:  func(capacity int) blockPolicy { return newRefTwoQ(capacity) },
	}
	for _, policy := range PolicyNames() {
		for _, capacity := range []int{1, 3, 64} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/cap=%d/seed=%d", policy, capacity, seed), func(t *testing.T) {
					universe := int64(3*capacity + 5)
					store, err := vdisk.NewMemStore(universe, bs)
					if err != nil {
						t.Fatal(err)
					}
					for n := range universe {
						if err := store.WriteBlock(n, blockPayload(bs, byte(n))); err != nil {
							t.Fatal(err)
						}
					}
					fs := vdisk.NewFaultStore(store, seed)
					c := newCache(t, fs, Options{Capacity: capacity, Policy: policy})
					m := newCacheModel(refs[policy](capacity), capacity)
					rng := rand.New(rand.NewSource(seed))
					batch := func() []int64 {
						ns := make([]int64, 1+rng.Intn(8))
						residents := slices.Sorted(maps.Keys(m.resident))
						fromResident := len(residents) > 0 && rng.Intn(3) == 0
						for i := range ns {
							switch {
							case i > 0 && rng.Intn(4) == 0:
								ns[i] = ns[rng.Intn(i)] // a duplicate
							case fromResident:
								ns[i] = residents[rng.Intn(len(residents))]
							default:
								ns[i] = rng.Int63n(universe)
							}
						}
						return ns
					}
					write := func(ns []int64) {
						tags := make([]byte, len(ns))
						bufs := make([][]byte, len(ns))
						for i, n := range ns {
							tags[i] = byte(n) + byte(rng.Intn(3)) // sometimes the current tag
							bufs[i] = blockPayload(bs, tags[i])
						}
						if err := c.WriteBlocks(ns, bufs); err != nil {
							t.Fatal(err)
						}
						m.write(ns, tags)
					}
					barrier := func(name string, err error, sticky bool) {
						if sticky != errors.Is(err, vdisk.ErrTransient) || (!sticky && err != nil) {
							t.Fatalf("%s = %v; model expects the sticky eviction error: %v", name, err, sticky)
						}
					}
					failed := 0
					for step := range 2000 {
						where := fmt.Sprintf("step %d", step)
						switch r := rng.Intn(100); {
						case r < 45:
							ns := batch()
							bufs := make([][]byte, len(ns))
							for i := range bufs {
								bufs[i] = make([]byte, bs)
							}
							if err := c.ReadBlocks(ns, bufs); err != nil {
								t.Fatal(err)
							}
							for i, n := range ns {
								if !bytes.Equal(bufs[i], blockPayload(bs, m.tag(n))) {
									t.Fatalf("%s: ReadBlocks(%v) returned wrong bytes for block %d", where, ns, n)
								}
							}
							m.read(ns)
						case r < 85:
							write(batch())
						case r < 93:
							// Fail the write-back of the victim the model
							// expects next, then write an absent block. The
							// eviction may pick another victim (2Q's choice
							// depends on the insert), so the fault is lifted
							// after the step either way.
							v, ok := m.pol.Victim()
							n := rng.Int63n(universe)
							if !ok || !m.dirty[v] || len(m.resident) < capacity || m.resident[n] {
								continue
							}
							fs.FailNextWrites(v, 1)
							m.failWrite[v] = true
							before := fs.Stats().WriteFaults
							write([]int64{n})
							if fs.Stats().WriteFaults > before {
								failed++
							}
							fs.Disarm()
							clear(m.failWrite)
						case r < 98:
							barrier("Flush", c.Flush(), m.flush())
						default:
							barrier("Invalidate", c.Invalidate(), m.invalidate())
						}
						m.check(t, c, where)
					}
					if failed == 0 {
						t.Fatal("no eviction write-back failed; the fault steps test nothing")
					}
				})
			}
		}
	}
}
