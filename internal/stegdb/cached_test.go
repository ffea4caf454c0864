package stegdb

import (
	"fmt"
	"testing"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// newCachedView provisions a StegFS volume mounted through a block cache.
func newCachedView(t *testing.T, blocks int64, cacheBlocks int) (*stegfs.HiddenView, *stegfs.FS, *vdisk.MemStore) {
	t.Helper()
	store, err := vdisk.NewMemStore(blocks, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	p := stegfs.DefaultParams()
	p.NDummy = 2
	p.DummyAvgSize = 8 << 10
	p.DeterministicKeys = true
	p.Seed = 42
	fs, err := stegfs.Format(store, p, stegfs.WithCache(cacheBlocks))
	if err != nil {
		t.Fatal(err)
	}
	return fs.NewHiddenView("db"), fs, store
}

// TestTableThroughBlockCache runs the whole database stack — pager, B-tree,
// hash index — over a cached StegFS volume and proves the result survives a
// table Sync plus a cold, uncached remount of the raw store.
func TestTableThroughBlockCache(t *testing.T) {
	for _, capacity := range []int{0, 32, 2048} {
		t.Run(fmt.Sprintf("cache=%d", capacity), func(t *testing.T) {
			view, fs, store := newCachedView(t, 16<<10, capacity)
			tbl, err := CreatePartitionedTable(view, "accounts", 1, true, 64)
			if err != nil {
				t.Fatal(err)
			}
			const rows = 200
			for i := 0; i < rows; i++ {
				key := fmt.Sprintf("user%04d", i)
				val := fmt.Sprintf("balance=%d", i*37)
				if err := tbl.Put([]byte(key), []byte(val)); err != nil {
					t.Fatalf("Put %s: %v", key, err)
				}
			}
			if err := tbl.Sync(); err != nil {
				t.Fatalf("table Sync: %v", err)
			}
			if capacity > 0 {
				stats, ok := fs.CacheStats()
				if !ok || stats.Hits == 0 {
					t.Fatalf("stegdb workload produced no cache hits: %+v", stats)
				}
				if fs.Cache().Dirty() != 0 {
					t.Fatal("dirty blocks left after Pager.Sync")
				}
			}

			// Cold remount of the raw store without any cache: the database
			// must be fully there.
			fs2, err := stegfs.Mount(store)
			if err != nil {
				t.Fatal(err)
			}
			view2 := fs2.NewHiddenView("db")
			if _, err := CheckAny(view2, view2.Adopt, "accounts"); err != nil {
				t.Fatal(err)
			}
			tbl2, err := OpenPartitionedTable(view2, "accounts")
			if err != nil {
				t.Fatalf("OpenPartitionedTable after remount: %v", err)
			}
			for i := 0; i < rows; i++ {
				key := fmt.Sprintf("user%04d", i)
				want := fmt.Sprintf("balance=%d", i*37)
				got, ok, err := tbl2.Get([]byte(key))
				if err != nil {
					t.Fatalf("Get %s: %v", key, err)
				}
				if !ok || string(got) != want {
					t.Fatalf("Get %s = %q/%v, want %q", key, got, ok, want)
				}
			}
		})
	}
}
