package stegfs

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"stegfs/internal/sgcrypto"
	"stegfs/internal/vdisk"
)

// perfVolume builds a small cached, deterministic volume for the data-path
// benchmarks and the allocation-regression tests.
func perfVolume(tb testing.TB) (*FS, *HiddenView) {
	tb.Helper()
	store, err := vdisk.NewMemStore(16384, 1024)
	if err != nil {
		tb.Fatal(err)
	}
	p := DefaultParams()
	p.FillVolume = false
	p.DeterministicKeys = true
	p.NDummy = 4
	p.DummyAvgSize = 4096
	fs, err := Format(store, p, WithCache(16384))
	if err != nil {
		tb.Fatal(err)
	}
	v := fs.NewHiddenView("bench")
	return fs, v
}

// TestCachedReadAllocFree pins the zero-allocation guarantee of the cached
// read path: once the ref pool, lock freelist and block cache are warm, a
// ReadAt (open → header reload → tree walk → batched cache read → vectored
// open → release) must not touch the heap. CI runs this as the allocs/op
// regression gate alongside BenchmarkCachedReadAt.
func TestCachedReadAllocFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	fs, v := perfVolume(t)
	data := make([]byte, 65536)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := v.Create("f", data); err != nil {
		t.Fatal(err)
	}
	readAt := func(t *testing.T, buf []byte, off int64) {
		if _, err := v.ReadAt("f", buf, off); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("4KiB", func(t *testing.T) {
		buf := make([]byte, 4096)
		// Warm pools and cache.
		for i := 0; i < 8; i++ {
			readAt(t, buf, 4096)
		}
		allocs := testing.AllocsPerRun(200, func() { readAt(t, buf, 4096) })
		if allocs != 0 {
			t.Fatalf("cached ReadAt allocates %.1f objects/op, want 0", allocs)
		}
		if !bytes.Equal(buf, data[4096:8192]) {
			t.Fatal("read returned wrong bytes")
		}
	})

	// Writes go through the same mover: a block-aligned span seals straight
	// from the caller's buffer, and an unaligned one stages its two edge
	// blocks in the ref, so neither allocates once the pools are warm. Each
	// write stamps a fresh counter into every block it covers, so it really
	// changes them: the block cache absorbs a rewrite of unchanged bytes,
	// which the last case pins on its own. data tracks the file throughout.
	var stamp uint64
	for _, c := range []struct {
		name    string
		off     int64
		n       int
		stamped bool
	}{
		{"WriteAt-4KiB-aligned", 4096, 4096, true},
		{"WriteAt-100B-unaligned", 4000, 100, true},
		{"WriteAt-4KiB-unchanged", 4096, 4096, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			buf := append([]byte(nil), data[c.off:c.off+int64(c.n)]...)
			before, _ := fs.CacheStats()
			calls := 0
			writeAt := func() {
				calls++
				if c.stamped {
					stamp++
					stampBlocks(buf, c.off, 1024, stamp)
				}
				if _, err := v.WriteAt("f", buf, c.off); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				writeAt()
			}
			if allocs := testing.AllocsPerRun(200, writeAt); allocs != 0 {
				t.Fatalf("cached %s allocates %.1f objects/op, want 0", c.name, allocs)
			}
			after, _ := fs.CacheStats()
			if u := after.Sub(before).Unchanged; !c.stamped && u < int64(calls*c.n/1024) {
				t.Fatalf("%d identical rewrites of %d blocks absorbed only %d block writes", calls, c.n/1024, u)
			}
			copy(data[c.off:], buf)
		})
	}

	// testing.AllocsPerRun pins GOMAXPROCS to 1 while it measures, so it
	// cannot see allocations the read path makes only on a multi-CPU box.
	// This case raises GOMAXPROCS itself and counts heap allocations from
	// MemStats deltas over a warm loop of whole-file (64-block) reads,
	// averaged the way AllocsPerRun does.
	t.Run("64KiB-GOMAXPROCS4", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		buf := make([]byte, len(data))
		for i := 0; i < 8; i++ {
			readAt(t, buf, 0)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			readAt(t, buf, 0)
		}
		runtime.ReadMemStats(&after)
		if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
			t.Fatalf("cached 64 KiB ReadAt at GOMAXPROCS=4 allocates %d objects/op, want 0", allocs)
		}
		if !bytes.Equal(buf, data) {
			t.Fatal("read returned wrong bytes")
		}
	})
}

// stampBlocks writes v into the leading bytes of every block that a write
// of buf at offset off covers, in blocks of bs bytes.
func stampBlocks(buf []byte, off int64, bs int, v uint64) {
	for p := 0; p < len(buf); p += bs - int((off+int64(p))%int64(bs)) {
		for k := 0; k < 8 && p+k < len(buf); k++ {
			buf[p+k] = byte(v >> (8 * k))
		}
	}
}

// TestSealerCacheRecycle exercises the staleness paths of the sealer cache:
// create → open (hint inserted) → delete (hint dropped) → re-create, with
// the re-created object typically landing on the same header block (same
// PRBG chain, same volume state). Every open in between must see exactly
// the current object's content, including a second view whose own opens
// race the first view's hints, and a delete+miss must report not-found.
func TestSealerCacheRecycle(t *testing.T) {
	fs, v := perfVolume(t)
	for gen := 0; gen < 5; gen++ {
		content := []byte(fmt.Sprintf("generation %d payload", gen))
		if err := v.Create("cycled", content); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		got, err := v.Read("cycled")
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("gen %d: read %q, want %q", gen, got, content)
		}
		// A second view adopts the same file: its open goes through the
		// shared FS-level cache populated by the first view's operations.
		v2 := fs.NewHiddenView("bench")
		if err := v2.Adopt("cycled"); err != nil {
			t.Fatalf("gen %d: adopt: %v", gen, err)
		}
		got2, err := v2.Read("cycled")
		if err != nil {
			t.Fatalf("gen %d: adopted read: %v", gen, err)
		}
		if !bytes.Equal(got2, content) {
			t.Fatalf("gen %d: adopted read %q, want %q", gen, got2, content)
		}
		if err := v.Delete("cycled"); err != nil {
			t.Fatalf("gen %d: delete: %v", gen, err)
		}
		// The hint is gone and the object is gone: a fresh open must miss.
		if _, err := v2.Read("cycled"); err == nil {
			t.Fatalf("gen %d: read after delete succeeded", gen)
		}
	}
}

// TestSealerCacheStaleHint plants a deliberately stale hint — the entry
// survives while the object is destroyed behind the cache's back — and
// checks that verify-on-open heals it rather than serving garbage.
func TestSealerCacheStaleHint(t *testing.T) {
	fs, v := perfVolume(t)
	if err := v.Create("victim", []byte("first body")); err != nil {
		t.Fatal(err)
	}
	vf, err := v.fileFor("victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fs.sealers.get(vf.sig); !ok {
		t.Fatal("create did not populate the sealer cache")
	}
	// Destroy the object without telling the cache (simulating a hint that
	// outlived its object), then re-create it: the PRBG chain may pick a
	// different header block this time, so the hint can point at a block
	// now owned by the new generation's data.
	r, err := fs.open(vf.phys, vf.fak, true)
	if err != nil {
		t.Fatal(err)
	}
	hb := r.headerBlk
	fs.destroyHidden(r)
	fs.release(r)
	staleSealer, err := sgcrypto.NewSealer(vf.phys, vf.fak)
	if err != nil {
		t.Fatal(err)
	}
	fs.sealers.add(vf.sig, staleSealer, hb)
	if _, err := fs.createHidden(vf.phys, vf.fak, FlagFile, []byte("second body")); err != nil {
		t.Fatal(err)
	}
	got, err := v.Read("victim")
	if err != nil {
		t.Fatalf("read through stale hint: %v", err)
	}
	if !bytes.Equal(got, []byte("second body")) {
		t.Fatalf("read %q through stale hint, want %q", got, "second body")
	}
}

func BenchmarkCachedReadAt(b *testing.B) {
	for _, sz := range []int{4096, 16384, 65536} {
		b.Run(fmt.Sprintf("%dB", sz), func(b *testing.B) {
			_, v := perfVolume(b)
			data := make([]byte, sz)
			for i := range data {
				data[i] = byte(i)
			}
			if err := v.Create("f", data); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, sz)
			if _, err := v.ReadAt("f", buf, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(sz))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.ReadAt("f", buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCachedRead(b *testing.B) {
	_, v := perfVolume(b)
	data := make([]byte, 65536)
	if err := v.Create("f", data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Read("f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachedWriteAt(b *testing.B) {
	_, v := perfVolume(b)
	data := make([]byte, 16384)
	if err := v.Create("f", data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.WriteAt("f", data, 0); err != nil {
			b.Fatal(err)
		}
	}
}
