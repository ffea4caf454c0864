package bench

import (
	"fmt"
	"sort"
	"strings"

	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
)

// Shared-table shape of the stegdb sweeps (A8, A9). The database files fit
// both the block cache and the pager page cache, so nothing is evicted
// mid-window — the window's miss set is exactly the deliberately-cold key
// space's pages.
const (
	sdbCacheBlocks = 8192 // block cache: comfortably above the files' blocks
	sdbPageCache   = 1024 // pager page cache frames (per partition in A9)
	sdbHotKeys     = 64   // "a-ro-*": read-only, warmed, page-cache hits
	sdbRWKeys      = 32   // "b-rw-*": in-cache replace targets + snapshot Range window
	sdbColdKeys    = 4096 // never-warmed key space: each access pays page misses
	// sdbColdStride spaces A8's successive cold Gets further apart than
	// the cold rows one leaf holds (about 56 after ascending-order splits),
	// so each cold Get misses on a leaf of its own.
	sdbColdStride = 64
)

// StegDBConcurrencySweep runs ablation A8: goroutines x {1,2,4,8,16} of a
// mixed point/range workload over ONE shared one-partition hidden table (one
// hidden file) on a cached, latency-emulated volume. Per 8 ops: 3 hot Gets
// (pager-cache hits), 2 cold Gets (each misses on a never-warmed leaf —
// emulated device latency), 1 replace Put (in-cache), 1 transient
// Put+Delete, and 1 snapshot Range over the replace window (verifying a
// consistent view while writers run). Scaling has to come from stegdb's
// latching (pager page latches, tree latches, snapshot reads). The
// write-back Sync runs right after each window, untimed but charged to the
// level's disk-sec — the flush pipeline's timing is ablation A7's subject,
// and folding its serial drain into the window would measure the block
// cache, not stegdb's locking.
func StegDBConcurrencySweep(cfg Config, levels []int, totalOps int, emuScale float64) ([]SweepRow, error) {
	if totalOps <= 0 {
		totalOps = 256
	}
	var (
		fs  *stegfs.FS
		tab *stegdb.PartitionedTable
	)
	coldKey := func(c int) string { return fmt.Sprintf("e-cold-%05d", c%sdbColdKeys) }
	op := func(i int) error {
		switch i % 8 {
		case 1:
			return putRW(tab, i)
		case 3, 7: // cold Get: a never-warmed leaf pays device latency
			k := coldKey(((i/8)*2 + i%8/7) * sdbColdStride)
			v, ok, err := tab.Get([]byte(k))
			if err != nil || !ok || string(v) != k+"=coldrow" {
				return fmt.Errorf("cold get %s = %q %v %v", k, v, ok, err)
			}
			return nil
		case 4:
			return putDelete(tab, fmt.Sprintf("d-tmp-%06d", i))
		case 6:
			return checkRWRange(tab)
		default: // 0, 2, 5
			return getHot(tab, i)
		}
	}

	lv, err := sweep{
		opts: []stegfs.Option{stegfs.WithCache(sdbCacheBlocks), stegfs.WithCachePolicy(scanResistant(cfg))},
		ops:  totalOps,
		populate: func(f *stegfs.FS) error {
			fs = f
			var err error
			if tab, err = stegdb.CreatePartitionedTable(f.NewHiddenView("dbc"), "a8.db", 1, false, 0); err != nil {
				return err
			}
			tab.SetPageCacheSize(sdbPageCache)
			if err := putHotRW(tab); err != nil {
				return err
			}
			for c := 0; c < sdbColdKeys; c++ {
				if err := tab.Put([]byte(coldKey(c)), []byte(coldKey(c)+"=coldrow")); err != nil {
					return err
				}
			}
			return settle(tab, totalOps, op)
		},
		op: op,
		// Same cold start every level: drop the pager page cache and the
		// block cache, then re-warm the tree short of the cold key space
		// (one snapshot Range over every leaf below "e-") and the hot/rw
		// rows.
		reset: func() error {
			if err := tab.InvalidatePageCache(); err != nil {
				return err
			}
			if err := fs.Cache().Invalidate(); err != nil {
				return err
			}
			if err := tab.Range(nil, []byte("e-"), func(k, v []byte) bool { return true }); err != nil {
				return err
			}
			return getHotRW(tab)
		},
		drain:  func() error { return tab.Sync() },
		finish: func() error { return postFlight(tab) },
	}.run(cfg, levels, emuScale)
	return sweepRows(lv), err
}

func sdbHotKey(i int) string { return fmt.Sprintf("a-ro-%04d", i%sdbHotKeys) }
func sdbRWKey(i int) string  { return fmt.Sprintf("b-rw-%04d", i%sdbRWKeys) }

// putHotRW populates the hot and rw rows. Values are fixed-width so
// replaces never change page layout, and every value embeds its key so
// torn rows are detectable.
func putHotRW(t *stegdb.PartitionedTable) error {
	for i := 0; i < sdbHotKeys; i++ {
		if err := t.Put([]byte(sdbHotKey(i)), []byte(sdbHotKey(i)+"=hotrow")); err != nil {
			return err
		}
	}
	for i := 0; i < sdbRWKeys; i++ {
		if err := t.Put([]byte(sdbRWKey(i)), []byte(fmt.Sprintf("%s:%06d", sdbRWKey(i), 0))); err != nil {
			return err
		}
	}
	return nil
}

// getHotRW re-warms the hot and rw rows' pages: their leaves and interior
// descent paths. The cold key space is deliberately left out — it is the
// window's fixed miss set.
func getHotRW(t *stegdb.PartitionedTable) error {
	for i := 0; i < sdbHotKeys; i++ {
		if _, _, err := t.Get([]byte(sdbHotKey(i))); err != nil {
			return err
		}
	}
	for i := 0; i < sdbRWKeys; i++ {
		if _, _, err := t.Get([]byte(sdbRWKey(i))); err != nil {
			return err
		}
	}
	return nil
}

// settle commits the populated table, then runs the whole op set once
// (unmeasured, no emulation) and commits again, so one-time page splits,
// allocations and file growth happen before any level is timed.
func settle(t *stegdb.PartitionedTable, ops int, op func(int) error) error {
	if err := t.Sync(); err != nil {
		return err
	}
	for i := 0; i < ops; i++ {
		if err := op(i); err != nil {
			return fmt.Errorf("settle: op %d: %w", i, err)
		}
	}
	return t.Sync()
}

// getHot is a hot Get (a page-cache hit).
func getHot(t *stegdb.PartitionedTable, i int) error {
	k := sdbHotKey(i)
	v, ok, err := t.Get([]byte(k))
	if err != nil || !ok || string(v) != k+"=hotrow" {
		return fmt.Errorf("hot get %s = %q %v %v", k, v, ok, err)
	}
	return nil
}

// putRW replaces an rw row (in-cache).
func putRW(t *stegdb.PartitionedTable, i int) error {
	k := sdbRWKey(i / 8)
	if err := t.Put([]byte(k), []byte(fmt.Sprintf("%s:%06d", k, i))); err != nil {
		return fmt.Errorf("rw put: %w", err)
	}
	return nil
}

// putDelete puts a transient row and deletes it again.
func putDelete(t *stegdb.PartitionedTable, key string) error {
	if err := t.Put([]byte(key), []byte("transient-row!")); err != nil {
		return fmt.Errorf("tmp put: %w", err)
	}
	found, err := t.Delete([]byte(key))
	if err != nil || !found {
		return fmt.Errorf("tmp delete = %v %v", found, err)
	}
	return nil
}

// checkRWRange runs a snapshot Range over the rw window, concurrent with
// its writers, and checks it sees every rw row whole.
func checkRWRange(t *stegdb.PartitionedTable) error {
	var n int
	err := t.Range([]byte("b-"), []byte("b-~"), func(k, v []byte) bool {
		ks, vs := string(k), string(v)
		if !strings.HasPrefix(vs, ks+":") || len(vs) != len(ks)+1+6 {
			n = -1 << 20 // torn row; force the count check to fail
			return false
		}
		n++
		return true
	})
	if err != nil {
		return fmt.Errorf("range: %w", err)
	}
	if n != sdbRWKeys {
		return fmt.Errorf("range saw %d rw rows, want %d", n, sdbRWKeys)
	}
	return nil
}

// postFlight checks the table came out of the sweep fully consistent: the
// row count, the structural check, and an in-order scan of every row
// (snapshot reads share this path).
func postFlight(t *stegdb.PartitionedTable) error {
	want := int64(sdbHotKeys + sdbRWKeys + sdbColdKeys)
	got, err := t.Rows()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("bench: table ended with %d rows, want %d", got, want)
	}
	if err := t.Check(); err != nil {
		return fmt.Errorf("bench: post-sweep check: %w", err)
	}
	var keys []string
	if err := t.Scan(func(k, v []byte) bool { keys = append(keys, string(k)); return true }); err != nil {
		return err
	}
	if !sort.StringsAreSorted(keys) {
		return fmt.Errorf("bench: post-sweep scan out of order")
	}
	if int64(len(keys)) != want {
		return fmt.Errorf("bench: post-sweep scan saw %d rows, want %d", len(keys), want)
	}
	return nil
}
