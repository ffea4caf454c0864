package stegfs

import (
	"bytes"
	"fmt"
	"testing"

	"stegfs/internal/vdisk"
)

// newCachedTestFS formats a volume mounted through a block cache of the
// given capacity (0 = uncached, no cache object at all).
func newCachedTestFS(t *testing.T, numBlocks int64, blockSize int, cacheBlocks int) (*FS, *vdisk.MemStore) {
	t.Helper()
	store, err := vdisk.NewMemStore(numBlocks, blockSize)
	if err != nil {
		t.Fatalf("NewMemStore: %v", err)
	}
	p := DefaultParams()
	p.NDummy = 2
	p.DummyAvgSize = 4 * int64(blockSize)
	p.MaxPlainFiles = 64
	p.DeterministicKeys = true // so a fresh view can re-derive FAKs via Adopt
	fs, err := Format(store, p, WithCache(cacheBlocks))
	if err != nil {
		t.Fatalf("Format (cache=%d): %v", cacheBlocks, err)
	}
	return fs, store
}

// TestCacheMountAfterFlushRoundTrip proves correctness is cache-transparent:
// at every capacity (including 0 = uncached and 1 = maximal thrashing),
// hidden and plain files written through a cached mount survive a Sync and
// are readable from a fresh, UNCACHED mount of the raw store — i.e. no data
// is ever stranded in the cache.
func TestCacheMountAfterFlushRoundTrip(t *testing.T) {
	for _, capacity := range []int{0, 1, 8, 64, 1024} {
		t.Run(fmt.Sprintf("cache=%d", capacity), func(t *testing.T) {
			fs, store := newCachedTestFS(t, 8192, 512, capacity)
			view := fs.NewHiddenView("alice")

			hidden := map[string][]byte{}
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("h%d", i)
				hidden[name] = mkPayload(3000+i*700, byte(i+1))
				if err := view.Create(name, hidden[name]); err != nil {
					t.Fatalf("Create %s: %v", name, err)
				}
			}
			// Overwrite one with a different shape to exercise realloc paths.
			hidden["h1"] = mkPayload(9000, 0xAB)
			if err := view.Write("h1", hidden["h1"]); err != nil {
				t.Fatalf("Write h1: %v", err)
			}
			plain := map[string][]byte{}
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("p%d", i)
				plain[name] = mkPayload(1200+i*300, byte(0x40+i))
				if err := fs.Create(name, plain[name]); err != nil {
					t.Fatalf("plain Create %s: %v", name, err)
				}
			}

			// Close path: flush everything through the view.
			if err := view.Close(); err != nil {
				t.Fatalf("view Close: %v", err)
			}
			if capacity > 0 {
				if d := fs.Cache().Dirty(); d != 0 {
					t.Fatalf("%d dirty blocks left after Close", d)
				}
			}

			// Remount the raw store with no cache: everything must be there.
			fs2, err := Mount(store)
			if err != nil {
				t.Fatalf("uncached remount: %v", err)
			}
			view2 := fs2.NewHiddenView("alice")
			for name, want := range hidden {
				if err := view2.Adopt(name); err != nil {
					t.Fatalf("Adopt %s: %v", name, err)
				}
				got, err := view2.Read(name)
				if err != nil {
					t.Fatalf("Read %s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("hidden %s corrupted across cached Sync + remount", name)
				}
			}
			for name, want := range plain {
				got, err := fs2.Read(name)
				if err != nil {
					t.Fatalf("plain Read %s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("plain %s corrupted across cached Sync + remount", name)
				}
			}

			// And a cached remount reads the same bytes.
			fs3, err := Mount(store, WithCache(capacity))
			if err != nil {
				t.Fatalf("cached remount: %v", err)
			}
			view3 := fs3.NewHiddenView("alice")
			for name, want := range hidden {
				if err := view3.Adopt(name); err != nil {
					t.Fatalf("cached Adopt %s: %v", name, err)
				}
				got, err := view3.Read(name)
				if err != nil {
					t.Fatalf("cached Read %s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("hidden %s corrupted through cached mount", name)
				}
			}
		})
	}
}

// TestCacheHitsOnRepeatedReads checks the perf contract: re-reading the same
// hidden file through a cached mount is served from memory (nonzero hit
// rate, fewer device reads) and costs less simulated disk time than the
// uncached mount.
func TestCacheHitsOnRepeatedReads(t *testing.T) {
	run := func(capacity int) (elapsed float64, fs *FS, disk *vdisk.Disk) {
		t.Helper()
		store, err := vdisk.NewMemStore(8192, 512)
		if err != nil {
			t.Fatal(err)
		}
		disk = vdisk.NewDisk(store, vdisk.DefaultGeometry())
		p := DefaultParams()
		p.NDummy = 2
		p.DummyAvgSize = 4 * 512
		p.MaxPlainFiles = 64
		p.FillVolume = false
		p.DeterministicKeys = true
		fs, err = Format(disk, p, WithCache(capacity))
		if err != nil {
			t.Fatal(err)
		}
		view := fs.NewHiddenView("u")
		payload := mkPayload(20000, 0x5A)
		if err := view.Create("doc", payload); err != nil {
			t.Fatal(err)
		}
		disk.ResetClock()
		for i := 0; i < 8; i++ {
			got, err := view.Read("doc")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("payload corrupted")
			}
		}
		return disk.Elapsed().Seconds(), fs, disk
	}

	uncached, _, _ := run(0)
	cached, fs, _ := run(2048)
	stats, ok := fs.CacheStats()
	if !ok {
		t.Fatal("CacheStats: no cache mounted")
	}
	if stats.Hits == 0 {
		t.Fatalf("no cache hits on repeated reads: %+v", stats)
	}
	if stats.HitRate() <= 0 {
		t.Fatalf("hit rate %v not positive", stats.HitRate())
	}
	if cached >= uncached {
		t.Fatalf("cached repeated reads (%.6fs) not faster than uncached (%.6fs)", cached, uncached)
	}
}
