package bench

import (
	"fmt"
	"strings"

	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
)

// StegDBWriteRow is one level of the stegdb write-scalability ablation (A9):
// a write-heavy mixed Put/Delete/Get/Range op set fanned across Goroutines
// workers on ONE shared partitioned hidden table.
type StegDBWriteRow struct {
	SweepRow
	Partitions int
}

// sdwPartitions is the partitioned table's width; one hidden file each. The
// rest of the table's shape is the sdb* set A8 uses.
const sdwPartitions = 16

// StegDBWriteSweep runs ablation A9: goroutines x {1,2,4,8,16} of a
// write-heavy mixed workload over ONE shared PARTITIONED hidden table on a
// cached, latency-emulated volume. Per 8 ops: 3 cold Puts (each rewrites a
// row on a never-warmed leaf, paying device latency for the leaf read), 1
// in-cache replace Put on the rw window, 1 transient Put+Delete pair, 1 hot
// Get (cache hit), 1 cold Get (a leaf miss), and 1
// cross-partition snapshot Range over the rw window (verifying a consistent
// merged view while writers run).
//
// This is the regime the B-link tree + partitioned layout exists for: with
// one exclusive tree lock — or one hidden file, whose stegfs object lock
// serializes every WriteAt — concurrent writers queue behind each other's
// device-latency page misses. With per-page tree latches and the table
// sharded across sdwPartitions hidden files, writers touching different
// keys proceed in parallel and their cold misses overlap. The group-commit
// Sync runs right after each window, untimed but charged to disk-sec, like
// A8.
func StegDBWriteSweep(cfg Config, levels []int, totalOps int, emuScale float64) ([]StegDBWriteRow, error) {
	if totalOps <= 0 {
		totalOps = 256
	}
	var (
		fs *stegfs.FS
		pt *stegdb.PartitionedTable
	)
	coldKey := func(c int) string { return fmt.Sprintf("c-%05d", c%sdbColdKeys) }
	op := func(i int) error {
		stripe := i / 8
		switch i % 8 {
		case 0, 2, 4: // cold Put: rewrite a row on a never-warmed page
			k := coldKey(stripe*3 + (i%8)/2)
			if err := pt.Put([]byte(k), []byte(fmt.Sprintf("%s#%06d", k, i))); err != nil {
				return fmt.Errorf("cold put: %w", err)
			}
			return nil
		case 1:
			return putRW(pt, i)
		case 3:
			return putDelete(pt, fmt.Sprintf("t-%06d", i))
		case 5:
			return getHot(pt, i)
		case 6: // cross-partition snapshot Range
			return checkRWRange(pt)
		default: // 7: cold Get on a never-warmed page
			k := coldKey(sdbColdKeys - 1 - stripe)
			v, ok, err := pt.Get([]byte(k))
			if err != nil || !ok || !strings.HasPrefix(string(v), k+"#") {
				return fmt.Errorf("cold get %s = %q %v %v", k, v, ok, err)
			}
			return nil
		}
	}

	lv, err := sweep{
		opts: []stegfs.Option{stegfs.WithCache(sdbCacheBlocks), stegfs.WithCachePolicy(scanResistant(cfg))},
		ops:  totalOps,
		populate: func(f *stegfs.FS) error {
			fs = f
			var err error
			if pt, err = stegdb.CreatePartitionedTable(f.NewHiddenView("dbw"), "a9.db", sdwPartitions, false, 0); err != nil {
				return err
			}
			pt.SetPageCacheSize(sdbPageCache)
			if err := putHotRW(pt); err != nil {
				return err
			}
			for c := 0; c < sdbColdKeys; c++ {
				if err := pt.Put([]byte(coldKey(c)), []byte(fmt.Sprintf("%s#%06d", coldKey(c), 0))); err != nil {
					return err
				}
			}
			return settle(pt, totalOps, op)
		},
		op: op,
		// Same cold start every level: drop every partition's page cache and
		// the block cache, then re-warm the hot/rw rows.
		reset: func() error {
			if err := pt.InvalidatePageCache(); err != nil {
				return err
			}
			if err := fs.Cache().Invalidate(); err != nil {
				return err
			}
			return getHotRW(pt)
		},
		drain:  func() error { return pt.Sync() },
		finish: func() error { return postFlight(pt) },
	}.run(cfg, levels, emuScale)
	if err != nil {
		return nil, err
	}
	rows := make([]StegDBWriteRow, len(lv))
	for i, l := range lv {
		rows[i] = StegDBWriteRow{SweepRow: l.SweepRow, Partitions: sdwPartitions}
	}
	return rows, nil
}
