package blockcache

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"stegfs/internal/vdisk"
)

func newCache(t *testing.T, dev vdisk.Device, o Options) *Cache {
	t.Helper()
	c, err := NewWithOptions(dev, o)
	if err != nil {
		t.Fatalf("NewWithOptions(%+v): %v", o, err)
	}
	return c
}

func TestPolicyRegistry(t *testing.T) {
	if got := fmt.Sprint(PolicyNames()); got != "[lru 2q]" {
		t.Fatalf("PolicyNames() = %s, want [lru 2q]", got)
	}
	for _, name := range append(PolicyNames(), "", "twoq", "2Q") {
		p, err := NewPolicy(name, 8)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("NewPolicy(%q) returned unnamed policy", name)
		}
	}
	for _, name := range []string{"clock", "arc"} {
		if _, err := NewPolicy(name, 8); err == nil {
			t.Fatalf("unknown policy %q accepted", name)
		}
	}
	if _, err := NewWithOptions(nil, Options{Capacity: 4, Policy: "nope"}); err == nil {
		t.Fatal("cache accepted unknown policy")
	}
	// A cache always caches: the uncached configuration is no cache at all.
	for _, capacity := range []int{0, -1} {
		if _, err := NewWithOptions(nil, Options{Capacity: capacity}); err == nil {
			t.Fatalf("cache accepted capacity %d", capacity)
		}
	}
	// Write-behind always runs on the background pool; there is no
	// synchronous mode for a negative count to select.
	if _, err := NewWithOptions(nil, Options{Capacity: 4, WriteBehind: 2, FlushWorkers: -1}); err == nil {
		t.Fatal("cache accepted FlushWorkers -1")
	}
}

// TestPolicyReadYourWrites reruns the cache-correctness workload under every
// policy: whatever the eviction order, the cache must never lose or tear a
// block.
func TestPolicyReadYourWrites(t *testing.T) {
	for _, policy := range PolicyNames() {
		for _, capacity := range []int{1, 3, 7, 64} {
			t.Run(fmt.Sprintf("%s/cap=%d", policy, capacity), func(t *testing.T) {
				dev := newTraceDev(t, 128, 32)
				c := newCache(t, dev, Options{Capacity: capacity, Policy: policy})
				want := make(map[int64][]byte)
				for round := 0; round < 3; round++ {
					for n := int64(0); n < 20; n++ {
						p := blockPayload(32, byte(n)+byte(round)*31)
						want[n] = p
						if err := c.WriteBlock(n, p); err != nil {
							t.Fatal(err)
						}
					}
					// Interleave reads so hits and misses both occur.
					buf := make([]byte, 32)
					for n := int64(0); n < 20; n += 3 {
						if err := c.ReadBlock(n, buf); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(buf, want[n]) {
							t.Fatalf("block %d torn mid-round", n)
						}
					}
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 32)
				for n, p := range want {
					if err := dev.MemStore.ReadBlock(n, buf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, p) {
						t.Fatalf("block %d wrong on device after flush", n)
					}
				}
			})
		}
	}
}

// scanHotHitRate replays the thrash-regime access pattern — a hot set
// re-read after every scan burst, with the scan+hot reuse distance exceeding
// the capacity — and returns the policy's hit rate on the post-warmup
// rounds. With cyclic=false every scan burst touches fresh blocks (pure
// one-shot scan pollution); with cyclic=true the same scan blocks recur each
// round, so a big-enough cache can serve everything.
func scanHotHitRate(t *testing.T, policy string, capacity, hotBlocks, scanBlocks, rounds int, cyclic bool) float64 {
	t.Helper()
	total := int64(hotBlocks + scanBlocks*rounds + 16)
	store, err := vdisk.NewMemStore(total, 32)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, store, Options{Capacity: capacity, Policy: policy})
	buf := make([]byte, 32)
	readAll := func(lo, hi int64) {
		for n := lo; n < hi; n++ {
			if err := c.ReadBlock(n, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	var pre Stats
	for r := 0; r < rounds; r++ {
		if r == 1 {
			pre = c.Stats() // round 0 is cold for every policy
		}
		// One scan burst, then the full hot sweep.
		scanLo := int64(hotBlocks + r*scanBlocks)
		if cyclic {
			scanLo = int64(hotBlocks)
		}
		readAll(scanLo, scanLo+int64(scanBlocks))
		readAll(0, int64(hotBlocks))
	}
	return c.Stats().Sub(pre).HitRate()
}

// TestScanResistantPoliciesBeatLRUInThrashRegime pins the tentpole's whole
// point: at a capacity below hot+scan, LRU serves (almost) nothing while 2Q
// keeps the hot set resident.
func TestScanResistantPoliciesBeatLRUInThrashRegime(t *testing.T) {
	// 96 hot blocks + 160-block scans, capacity 192: reuse distance 256 >
	// capacity, hot set exactly half the capacity.
	const capacity, hot, scan, rounds = 192, 96, 160, 6
	lru := scanHotHitRate(t, PolicyLRU, capacity, hot, scan, rounds, false)
	twoQ := scanHotHitRate(t, Policy2Q, capacity, hot, scan, rounds, false)
	t.Logf("thrash-regime hit rates: lru=%.1f%% 2q=%.1f%%", lru*100, twoQ*100)
	if lru > 0.05 {
		t.Errorf("LRU hit rate %.1f%% in thrash regime; the regime is mis-built if this is high", lru*100)
	}
	// The hot set is 96 of 256 accesses per round ~ 37.5% ceiling.
	if twoQ < 0.25 {
		t.Errorf("2Q hit rate %.1f%%, want >= 25%% (hot set should be resident)", twoQ*100)
	}
}

// TestPoliciesConvergeAtFullCapacity: once everything fits, every policy
// serves the cyclic workload entirely from memory after the cold round.
func TestPoliciesConvergeAtFullCapacity(t *testing.T) {
	for _, policy := range PolicyNames() {
		rate := scanHotHitRate(t, policy, 4096, 96, 160, 4, true)
		if rate < 0.999 {
			t.Errorf("%s: hit rate %.2f%% at full capacity, want 100%%", policy, rate*100)
		}
	}
}

func TestWriteBehindBoundsDirtyBacklog(t *testing.T) {
	dev := newTraceDev(t, 256, 32)
	c := newCache(t, dev, Options{Capacity: 128, WriteBehind: 16})
	// Dirty 40 blocks in descending order: well past the high-water mark.
	for n := int64(39); n >= 0; n-- {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	// The background flusher drains asynchronously; once it idles the
	// backlog must sit at (or below) the high-water mark.
	waitUntil(t, func() bool { return c.FlushInFlight() == 0 && c.Dirty() <= 16 })
	if d := c.Dirty(); d > 16 {
		t.Fatalf("dirty backlog %d exceeds high-water mark 16", d)
	}
	st := c.Stats()
	if st.WriteBehinds == 0 {
		t.Fatal("write-behind never triggered")
	}
	if st.WriteBacks == 0 {
		t.Fatal("write-behind issued no device writes")
	}
	// Early write-backs stream in ascending order within each run.
	writes := dev.writes()
	if len(writes) == 0 {
		t.Fatal("no device writes observed")
	}
	// Blocks written early stay resident: re-reading them is a pure hit.
	pre := c.Stats()
	buf := make([]byte, 32)
	for n := int64(0); n < 40; n++ {
		if err := c.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d wrong after write-behind", n)
		}
	}
	if got := c.Stats().Sub(pre); got.Misses != 0 {
		t.Fatalf("write-behind evicted blocks: %d misses on resident re-reads", got.Misses)
	}
	// Flush completes the remainder; device ends fully consistent.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n < 40; n++ {
		if err := dev.MemStore.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d wrong on device after flush", n)
		}
	}
}

func TestWriteBehindRunsAscending(t *testing.T) {
	dev := newTraceDev(t, 512, 32)
	c := newCache(t, dev, Options{Capacity: 256, WriteBehind: 8, FlushWorkers: 1})
	defer c.Close()
	// Scattered dirty blocks in a shuffled order, written as one batch: the
	// mark is crossed once, so the single flusher issues exactly one run.
	blocks := []int64{300, 7, 150, 42, 9, 260, 81, 13, 199, 2}
	bufs := make([][]byte, len(blocks))
	for i, n := range blocks {
		bufs[i] = blockPayload(32, byte(n))
	}
	if err := c.WriteBlocks(blocks, bufs); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return c.Stats().WriteBehinds == 1 && c.FlushInFlight() == 0 })
	got := dev.writes()
	if len(got) == 0 {
		t.Fatal("write-behind high-water mark never crossed")
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("write-behind run not ascending: %v", got)
		}
	}
}

// TestStickyWriteBackError: a transient device failure during an eviction
// write-back must not vanish — the next barrier reports it even though the
// retry succeeds, and the data survives throughout.
func TestStickyWriteBackError(t *testing.T) {
	injected := errors.New("injected write error")
	dev := newTraceDev(t, 64, 32)
	c := newCache(t, dev, Options{Capacity: 2})
	dev.writeErr = injected
	// Overflow the capacity with dirty blocks: evictions fail silently.
	for n := int64(0); n < 5; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if d := c.Dirty(); d != 5 {
		t.Fatalf("dirty = %d, want all 5 retained after failed evictions", d)
	}
	// Device recovers; the barrier must still surface the earlier failure.
	dev.writeErr = nil
	if err := c.Flush(); !errors.Is(err, injected) {
		t.Fatalf("first Flush error = %v, want sticky injected error", err)
	}
	// The flush itself succeeded: data is on the device, state is clean.
	if err := c.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil (sticky error reported once)", err)
	}
	buf := make([]byte, 32)
	for n := int64(0); n < 5; n++ {
		if err := dev.MemStore.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blockPayload(32, byte(n))) {
			t.Fatalf("block %d lost across failed eviction", n)
		}
	}
}

func TestStickyWriteBehindError(t *testing.T) {
	injected := errors.New("injected write error")
	dev := newTraceDev(t, 64, 32)
	// The Flush-barrier variant lives in pipeline_test; this one pins that
	// Sync surfaces the background run's sticky error too.
	c := newCache(t, dev, Options{Capacity: 32, WriteBehind: 4, FlushWorkers: 1})
	defer c.Close()
	dev.mu.Lock()
	dev.writeErr = injected
	dev.mu.Unlock()
	for n := int64(0); n < 8; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.wbErr != nil
	})
	dev.mu.Lock()
	dev.writeErr = nil
	dev.mu.Unlock()
	if err := c.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync error = %v, want sticky injected error", err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("second Sync = %v, want nil", err)
	}
}

// TestStickyErrorDoesNotSkipBarrierWork: surfacing the historical failure
// must not short-circuit the barrier's real job — Invalidate still drops
// every entry, and a second barrier is clean.
func TestStickyErrorDoesNotSkipBarrierWork(t *testing.T) {
	injected := errors.New("injected write error")
	dev := newTraceDev(t, 64, 32)
	c := newCache(t, dev, Options{Capacity: 2})
	dev.writeErr = injected
	for n := int64(0); n < 4; n++ {
		if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	dev.writeErr = nil
	if err := c.Invalidate(); !errors.Is(err, injected) {
		t.Fatalf("Invalidate = %v, want sticky injected error", err)
	}
	// Despite the reported sticky error the cache really was invalidated:
	// re-reads go to the device.
	pre := c.Stats()
	buf := make([]byte, 32)
	if err := c.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Misses != pre.Misses+1 {
		t.Fatal("Invalidate with sticky error left entries resident")
	}
	if !bytes.Equal(buf, blockPayload(32, 0)) {
		t.Fatal("dirty data lost across sticky Invalidate")
	}
}

// TestFailedWriteBackStillEvictsCleanBlocks: with the device refusing
// writes, eviction must keep making progress on clean residents instead of
// retrying the same dirty victim forever — under every policy.
func TestFailedWriteBackStillEvictsCleanBlocks(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			dev := newTraceDev(t, 64, 32)
			c := newCache(t, dev, Options{Capacity: 4, Policy: policy})
			buf := make([]byte, 32)
			for n := int64(0); n < 4; n++ {
				if err := c.ReadBlock(n, buf); err != nil { // clean residents
					t.Fatal(err)
				}
			}
			dev.writeErr = errors.New("injected write error")
			for n := int64(10); n < 13; n++ {
				if err := c.WriteBlock(n, blockPayload(32, byte(n))); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.Stats().Evictions; got < 3 {
				t.Fatalf("evictions = %d, want >= 3 (clean blocks must still evict)", got)
			}
			checkDirtyIndex(t, c)
			dev.writeErr = nil
			if err := c.Flush(); err != nil {
				// The sticky error may or may not have been recorded depending
				// on whether a dirty victim was ever tried; either way the
				// second barrier must be clean and the data durable.
				if err2 := c.Flush(); err2 != nil {
					t.Fatalf("second Flush = %v, want nil", err2)
				}
			}
			checkDirtyIndex(t, c)
			for n := int64(10); n < 13; n++ {
				if err := dev.MemStore.ReadBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, blockPayload(32, byte(n))) {
					t.Fatalf("block %d lost under failing-device eviction", n)
				}
			}
		})
	}
}

// TestPolicyConcurrentAccess hammers every policy from several goroutines;
// run with -race. Each goroutine owns a disjoint block range so contents are
// verifiable.
func TestPolicyConcurrentAccess(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			dev := newTraceDev(t, 256, 32)
			c := newCache(t, dev, Options{Capacity: 32, Policy: policy, WriteBehind: 12})
			const workers = 8
			const perWorker = 16
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := int64(w * perWorker)
					buf := make([]byte, 32)
					for round := 0; round < 12; round++ {
						for i := int64(0); i < perWorker; i++ {
							n := base + i
							p := blockPayload(32, byte(n)+byte(round))
							if err := c.WriteBlock(n, p); err != nil {
								errs <- err
								return
							}
							if err := c.ReadBlock(n, buf); err != nil {
								errs <- err
								return
							}
							if !bytes.Equal(buf, p) {
								errs <- fmt.Errorf("worker %d block %d torn read", w, n)
								return
							}
						}
						if round%5 == 0 {
							if err := c.Flush(); err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 32)
			for n := int64(0); n < workers*perWorker; n++ {
				if err := dev.MemStore.ReadBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, blockPayload(32, byte(n)+11)) {
					t.Fatalf("block %d final content wrong", n)
				}
			}
		})
	}
}

// refLRU and refTwoQ are the container/list implementations the slot-indexed
// lruPolicy and twoQPolicy replaced, kept as oracles: the replacement must
// choose exactly the same victims.
type refLRU struct {
	order *list.List // of int64; front = most recently used
	elems map[int64]*list.Element
}

func newRefLRU() *refLRU {
	return &refLRU{order: list.New(), elems: make(map[int64]*list.Element)}
}

func (p *refLRU) Name() string { return "ref-lru" }

func (p *refLRU) Touch(n int64) {
	if e, ok := p.elems[n]; ok {
		p.order.MoveToFront(e)
	}
}

func (p *refLRU) Insert(n int64) {
	if e, ok := p.elems[n]; ok {
		p.order.MoveToFront(e)
		return
	}
	p.elems[n] = p.order.PushFront(n)
}

func (p *refLRU) Victim() (int64, bool) {
	back := p.order.Back()
	if back == nil {
		return 0, false
	}
	return back.Value.(int64), true
}

func (p *refLRU) Remove(n int64) {
	if e, ok := p.elems[n]; ok {
		p.order.Remove(e)
		delete(p.elems, n)
	}
}

func (p *refLRU) Reset() {
	p.order.Init()
	p.elems = make(map[int64]*list.Element)
}

type refTwoQ struct {
	kin, kout       int
	a1in, am, a1out *list.List
	where           map[int64]*refTwoQEntry
}

type refTwoQEntry struct {
	elem *list.Element
	list int32
}

func newRefTwoQ(capacity int) *refTwoQ {
	if capacity < 1 {
		capacity = 1
	}
	return &refTwoQ{
		kin:   max(1, capacity/4),
		kout:  max(1, 2*capacity),
		a1in:  list.New(),
		am:    list.New(),
		a1out: list.New(),
		where: make(map[int64]*refTwoQEntry),
	}
}

func (p *refTwoQ) Name() string { return "ref-2q" }

func (p *refTwoQ) Touch(n int64) {
	e, ok := p.where[n]
	if !ok {
		return
	}
	switch e.list {
	case twoQAm:
		p.am.MoveToFront(e.elem)
	case twoQA1in:
		p.a1in.MoveToFront(e.elem)
	}
}

func (p *refTwoQ) Insert(n int64) {
	if e, ok := p.where[n]; ok {
		switch e.list {
		case twoQA1in, twoQAm:
			p.Touch(n)
		case twoQA1out:
			p.a1out.Remove(e.elem)
			e.elem = p.am.PushFront(n)
			e.list = twoQAm
		}
		return
	}
	p.where[n] = &refTwoQEntry{elem: p.a1in.PushFront(n), list: twoQA1in}
}

func (p *refTwoQ) Victim() (int64, bool) {
	if p.a1in.Len() > p.kin || p.am.Len() == 0 {
		if back := p.a1in.Back(); back != nil {
			return back.Value.(int64), true
		}
	}
	if back := p.am.Back(); back != nil {
		return back.Value.(int64), true
	}
	return 0, false
}

func (p *refTwoQ) Remove(n int64) {
	e, ok := p.where[n]
	if !ok {
		return
	}
	switch e.list {
	case twoQA1in:
		p.a1in.Remove(e.elem)
		e.elem = p.a1out.PushFront(n)
		e.list = twoQA1out
		for p.a1out.Len() > p.kout {
			back := p.a1out.Back()
			old := back.Value.(int64)
			p.a1out.Remove(back)
			delete(p.where, old)
		}
	case twoQAm:
		p.am.Remove(e.elem)
		delete(p.where, n)
	case twoQA1out:
		p.a1out.Remove(e.elem)
		delete(p.where, n)
	}
}

func (p *refTwoQ) Reset() {
	p.a1in.Init()
	p.am.Init()
	p.a1out.Init()
	p.where = make(map[int64]*refTwoQEntry)
}

// TestPolicyMatchesReference drives each policy and its oracle through the
// same seeded random sequence of Insert, Touch, Victim, Remove and Reset —
// inserting past capacity and evicting the way the cache does, sometimes
// failing the write-back (Touch instead of Remove) — and requires every
// Victim to agree.
func TestPolicyMatchesReference(t *testing.T) {
	oracles := map[string]func(int) Policy{
		PolicyLRU: func(int) Policy { return newRefLRU() },
		Policy2Q:  func(capacity int) Policy { return newRefTwoQ(capacity) },
	}
	for _, name := range PolicyNames() {
		for _, capacity := range []int{1, 3, 64} {
			for seed := int64(1); seed <= 8; seed++ {
				got, err := NewPolicy(name, capacity)
				if err != nil {
					t.Fatal(err)
				}
				want := oracles[name](capacity)
				rng := rand.New(rand.NewSource(seed))
				universe := int64(4*capacity + 4) // residents, ghosts and strangers
				resident := make(map[int64]bool)
				step := 0
				victim := func() (int64, bool) {
					gn, gok := got.Victim()
					wn, wok := want.Victim()
					if gn != wn || gok != wok {
						t.Fatalf("%s cap=%d seed=%d step %d: Victim() = (%d, %v), reference (%d, %v)",
							name, capacity, seed, step, gn, gok, wn, wok)
					}
					return gn, gok
				}
				for ; step < 5000; step++ {
					n := rng.Int63n(universe)
					switch r := rng.Intn(200); {
					case r < 90: // a miss fill or fresh write, then eviction
						if resident[n] {
							continue
						}
						got.Insert(n)
						want.Insert(n)
						resident[n] = true
						for len(resident) > capacity {
							v, _ := victim()
							if rng.Intn(8) == 0 { // failed write-back
								got.Touch(v)
								want.Touch(v)
								break
							}
							got.Remove(v)
							want.Remove(v)
							delete(resident, v)
						}
					case r < 150:
						got.Touch(n)
						want.Touch(n)
					case r < 175:
						victim()
					case r < 199:
						got.Remove(n)
						want.Remove(n)
						delete(resident, n)
					default:
						got.Reset()
						want.Reset()
						clear(resident)
					}
				}
			}
		}
	}
}

// TestPolicyTwoQEvictsItsOwnInsert pins the case that forbids evicting before
// inserting: at capacity 1, a 2Q ghost readmitted to Am is itself the
// victim, because A1in is within its share and Am's only block is the new
// one. The cache must insert first, evict the new block, and keep the old.
func TestPolicyTwoQEvictsItsOwnInsert(t *testing.T) {
	for _, p := range []Policy{newTwoQPolicy(1), newRefTwoQ(1)} {
		p.Insert(1)
		p.Insert(2)
		if v, _ := p.Victim(); v != 1 {
			t.Fatalf("%s: victim %d, want 1", p.Name(), v)
		}
		p.Remove(1) // 1 becomes a ghost
		p.Insert(1) // ghost hit: 1 enters Am
		if v, _ := p.Victim(); v != 1 {
			t.Fatalf("%s: victim %d after readmitting ghost 1, want 1 itself", p.Name(), v)
		}
	}

	store := fillStore(t, 8, 32)
	c := newCache(t, store, Options{Capacity: 1, Policy: Policy2Q})
	buf := make([]byte, 32)
	for _, n := range []int64{1, 2, 1, 2} {
		if err := c.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, expectBlock(n, 32)) {
			t.Fatalf("block %d read back wrong", n)
		}
	}
	if s := c.Stats(); s.Hits != 1 || s.Evictions != 2 {
		t.Fatalf("hits=%d evictions=%d, want 1 and 2: the readmitted ghost must evict itself, not block 2", s.Hits, s.Evictions)
	}
}
