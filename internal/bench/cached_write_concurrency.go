package bench

import (
	"fmt"

	"stegfs/internal/alloc"
	"stegfs/internal/stegfs"
	"stegfs/internal/workload"
)

// CachedWriteConcurrencyRow is one level of the cached parallel-write-path
// ablation (A7): the A6 mutation cycle plus a cold-read stream fanned across
// Goroutines workers on one shared CACHED StegFS instance with the
// asynchronous write-behind pipeline active. Its window ends at the closing
// FS.Sync, so WallSeconds includes that barrier.
type CachedWriteConcurrencyRow struct {
	SweepRow
	// SyncTailSeconds is the closing FS.Sync barrier alone: the dirty
	// backlog write-behind left for the barrier to drain. The elevator
	// (C-SCAN) flusher keeps this tail short — without the sweep cursor the
	// background runs restart at the lowest dirty block every time and the
	// starved high-block tail lands on the barrier.
	SyncTailSeconds float64

	// Flush-pipeline evidence: deferred writes must reach the device as
	// batched sorted runs, not per-block synchronous writes.
	WriteBacks   int64 // blocks written back inside the window
	FlushBatches int64 // batched flush submissions those blocks rode in
	WriteBehinds int64 // background write-behind runs
	FlushStalls  int64 // writer stalls at the hard dirty cap
}

// AllocReport summarizes the sharded allocator's per-group counters for a
// sweep, so the harness can print allocation skew and lock contention next
// to the scaling numbers.
type AllocReport struct {
	Groups     int
	Allocs     int64
	Frees      int64
	Locks      int64 // counted group-lock acquisitions (alloc, free, bit probes)
	Contended  int64 // of Locks, how many found the group mutex held
	MinAllocs  int64
	MaxAllocs  int64
	MeanAllocs float64
}

// NewAllocReport snapshots an allocator into an AllocReport.
func NewAllocReport(a *alloc.Allocator) AllocReport {
	st := a.Stats()
	tot := st.Totals()
	min, max, mean := st.AllocSkew()
	return AllocReport{
		Groups:     a.Groups(),
		Allocs:     tot.Allocs,
		Frees:      tot.Frees,
		Locks:      tot.Locks,
		Contended:  tot.Contended,
		MinAllocs:  min,
		MaxAllocs:  max,
		MeanAllocs: mean,
	}
}

// Workload shape for the cached write sweep. Ops come in 8-op stripes, each
// pinned to one goroutine: four cold hidden reads (every read file is
// touched exactly once per level, so the window's miss set is identical at
// every concurrency level) interleaved with the A6 four-op mutation cycle on
// the stripe's own write object. Reads model the multi-user cover traffic
// the paper assumes runs at full speed; the mutation cycle is the write path
// under test.
const (
	cwcStripes      = 32 // 8 ops each -> 256 ops per level
	cwcOpsPerStripe = 8
	cwcReadFiles    = cwcStripes * 4 // touched once per level each
	cwcReadBlocks   = 8              // blocks per read file
	cwcWriteBlocks  = 2              // payload blocks per write object

	cwcCacheBlocks  = 4096 // covers the level working set; Invalidate re-colds it
	cwcWriteBehind  = 128  // high-water: background flushing runs inside the window
	cwcFlushWorkers = 4
)

// CachedWriteConcurrencySweep runs ablation A7: goroutines x {1,2,4,8,16}
// over one shared StegFS volume mounted THROUGH the write-back cache with
// write-behind and the background flush pipeline enabled, on a
// latency-emulating disk. This is the regime where the pre-pipeline cache
// collapsed the A6 curve back toward 1x: every dirty write-back went out
// one synchronous WriteBlock at a time while holding the cache mutex, so a
// cached writer — and every concurrent reader hitting the cache — stalled
// behind the device. With the asynchronous pipeline, foreground writes are
// absorbed by the cache, dirty runs stream out in sorted batches on
// background flusher goroutines, and the only foreground device waits left
// are the cold-read misses, which overlap across goroutines exactly like
// the uncached A5/A6 paths.
//
// Each level's window starts from an identical cold-cache, fully-synced
// state (Sync + Invalidate between levels, outside the window) and ENDS
// with FS.Sync inside the window, so the window prices the full write-back
// cost of the level's mutations — wall-clock speedup cannot come from
// deferring device work past the measurement.
func CachedWriteConcurrencySweep(cfg Config, levels []int, emuScale float64) ([]CachedWriteConcurrencyRow, AllocReport, error) {
	var (
		fs            *stegfs.FS
		view          *stegfs.HiddenView
		reads         [cwcReadFiles]string
		writes        [cwcStripes]string
		payloads, alt [cwcStripes][]byte // canonical and rewrite content
		report        AllocReport
	)
	bs := int64(cfg.BlockSize)
	lv, err := sweep{
		opts: []stegfs.Option{
			stegfs.WithCache(cwcCacheBlocks),
			stegfs.WithCachePolicy(cfg.CachePolicy),
			stegfs.WithWriteBehind(cwcWriteBehind, cwcFlushWorkers),
		},
		ops:  cwcStripes * cwcOpsPerStripe,
		unit: cwcOpsPerStripe,
		populate: func(f *stegfs.FS) error {
			fs, view = f, f.NewHiddenView("cwc")
			for i := range reads {
				spec := workload.FileSpec{Name: fmt.Sprintf("r%03d", i), Size: cwcReadBlocks * bs}
				reads[i] = spec.Name
				if err := view.Create(spec.Name, workload.Payload(spec, cfg.Seed)); err != nil {
					return fmt.Errorf("%s: %w", spec.Name, err)
				}
			}
			for i := range payloads {
				spec := workload.FileSpec{Name: fmt.Sprintf("w%03d", i), Size: cwcWriteBlocks * bs}
				writes[i] = spec.Name
				payloads[i] = workload.Payload(spec, cfg.Seed)
				alt[i] = workload.Payload(spec, cfg.Seed+7)
				if err := view.Create(spec.Name, payloads[i]); err != nil {
					return fmt.Errorf("%s: %w", spec.Name, err)
				}
			}
			return nil
		},
		// Stripe s owns write object s and the four read files 4s..4s+3;
		// even positions are cold reads, odd positions walk the A6 cycle in
		// order: in-place rewrite, delete, re-create (fresh uniform
		// allocation), rewrite back to the canonical content.
		op: func(i int) error {
			stripe, pos := i/cwcOpsPerStripe, i%cwcOpsPerStripe
			if pos%2 == 0 {
				_, err := view.Read(reads[stripe*4+pos/2])
				return err
			}
			name := writes[stripe]
			switch pos / 2 {
			case 0:
				return view.Write(name, alt[stripe])
			case 1:
				return view.Delete(name)
			case 2:
				return view.Create(name, alt[stripe])
			default:
				return view.Write(name, payloads[stripe])
			}
		},
		// Identical cold-cache, clean state before every level.
		reset: func() error {
			if err := fs.Sync(); err != nil {
				return err
			}
			return fs.Cache().Invalidate()
		},
		// The window ends at the Sync barrier: the level's full write-back
		// cost is inside the measurement, and the barrier's own time is the
		// write-behind debt the background flushers failed to retire.
		barrier: func() error { return fs.Sync() },
		after:   func() error { return verifyHidden(view, writes[:], payloads[:]) },
		finish: func() error {
			report = NewAllocReport(fs.Alloc())
			return nil
		},
	}.run(cfg, levels, emuScale)
	if err != nil {
		return nil, AllocReport{}, err
	}
	rows := make([]CachedWriteConcurrencyRow, len(lv))
	for i, l := range lv {
		rows[i] = CachedWriteConcurrencyRow{
			SweepRow:        l.SweepRow,
			SyncTailSeconds: l.barrier.Seconds(),
			WriteBacks:      l.cache.WriteBacks,
			FlushBatches:    l.cache.FlushBatches,
			WriteBehinds:    l.cache.WriteBehinds,
			FlushStalls:     l.cache.FlushStalls,
		}
	}
	return rows, report, nil
}
