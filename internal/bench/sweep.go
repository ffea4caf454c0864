package bench

import (
	"fmt"
	"sync"
	"time"

	"stegfs/internal/blockcache"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// SweepRow is one concurrency level of a goroutine-sweep ablation (A5–A9):
// the level's deterministic op set fanned across Goroutines workers on one
// shared volume. Wall-clock is real time on a latency-emulating disk; disk
// seconds are the simulated clock, which must stay flat across levels —
// concurrency buys wall time, it does not re-price the device.
type SweepRow struct {
	Goroutines  int
	WallSeconds float64 // wall-clock time of the window (ops plus any in-window barrier)
	OpsPerSec   float64 // ops / WallSeconds
	Speedup     float64 // OpsPerSec relative to the first row
	DiskSeconds float64 // simulated-disk time charged to the level
	HitRate     float64 `json:",omitempty"` // block-cache hit rate of the level; absent when uncached
}

// sweepLevel is one measured level: the row, plus the raw deltas a workload
// with extra columns (A7) builds on.
type sweepLevel struct {
	SweepRow
	cache   blockcache.Stats // cache counter deltas charged to the level
	barrier time.Duration    // the in-window barrier alone
}

// sweep is one goroutine-sweep workload. Its run method owns what every
// A5–A9 sweep shares — the volume, the levels, latency emulation, the
// fan-out and every measurement — and the workload supplies only its op set
// and hooks. Nil hooks are skipped.
type sweep struct {
	opts []stegfs.Option // mount options of the shared volume
	ops  int             // op(i) runs once for every i in [0, ops) at each level
	// unit, if > 1, is the block of consecutive ops one goroutine must own
	// whole (A6's object cycle, A7's stripe): every level must split the op
	// set into equal chunks of whole units.
	unit int

	populate func(fs *stegfs.FS) error // once, on the freshly formatted volume
	op       func(i int) error         // the index fixes the op; the level only picks the goroutine
	reset    func() error              // before each level's window, unmeasured
	barrier  func() error              // closes each window inside its wall-clock time; timed on its own
	drain    func() error              // right after each window: charged to disk-sec and cache deltas, not to wall time
	after    func() error              // after each level's row is taken, unmeasured
	finish   func() error              // once, after the last level, before the volume is closed
}

// run formats the shared volume, populates it and measures one row per
// level. Latency emulation is on only inside each window; every other step
// runs without it. Nil levels default to {1,2,4,8,16}, a non-positive
// emuScale to 0.5.
func (s sweep) run(cfg Config, levels []int, emuScale float64) (out []sweepLevel, err error) {
	if levels == nil {
		levels = []int{1, 2, 4, 8, 16}
	}
	if emuScale <= 0 {
		emuScale = 0.5
	}
	for _, g := range levels {
		if g <= 0 {
			return nil, fmt.Errorf("bench: invalid concurrency level %d", g)
		}
		// Every goroutine boundary w*ops/g must land on a unit boundary, or
		// one unit's ops would split across two goroutines and race.
		if s.unit > 1 && (s.ops%g != 0 || (s.ops/g)%s.unit != 0) {
			return nil, fmt.Errorf("bench: level %d does not tile %d ops in whole %d-op units", g, s.ops, s.unit)
		}
	}
	disk, fs, err := newVolume(cfg, s.opts...)
	if err != nil {
		return nil, err
	}
	defer func() {
		// Close also stops any background flushers.
		if cerr := fs.Close(); cerr != nil && err == nil {
			out, err = nil, fmt.Errorf("close: %w", cerr)
		}
	}()
	if err := s.populate(fs); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	for _, g := range levels {
		lv, err := s.level(fs, disk, g, emuScale)
		if err != nil {
			return nil, fmt.Errorf("g=%d: %w", g, err)
		}
		out = append(out, lv)
	}
	if len(out) > 0 && out[0].OpsPerSec > 0 {
		for i := range out {
			out[i].Speedup = out[i].OpsPerSec / out[0].OpsPerSec
		}
	}
	if s.finish != nil {
		if err := s.finish(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// level runs one measured window at g goroutines, between its unmeasured
// reset and after steps.
func (s sweep) level(fs *stegfs.FS, disk *vdisk.Disk, g int, emuScale float64) (sweepLevel, error) {
	if s.reset != nil {
		if err := s.reset(); err != nil {
			return sweepLevel{}, fmt.Errorf("reset: %w", err)
		}
	}
	preDisk := disk.Elapsed()
	preCache, cached := fs.CacheStats()
	disk.EmulateLatency(emuScale)
	start := time.Now()
	opErr := s.fanOut(g)
	var barrier time.Duration
	var barrierErr error
	if s.barrier != nil {
		t := time.Now()
		barrierErr = s.barrier()
		barrier = time.Since(t)
	}
	wall := time.Since(start)
	disk.EmulateLatency(0)
	if opErr != nil {
		return sweepLevel{}, opErr
	}
	if barrierErr != nil {
		return sweepLevel{}, fmt.Errorf("barrier: %w", barrierErr)
	}
	if s.drain != nil {
		if err := s.drain(); err != nil {
			return sweepLevel{}, fmt.Errorf("drain: %w", err)
		}
	}

	lv := sweepLevel{
		SweepRow: SweepRow{
			Goroutines:  g,
			WallSeconds: wall.Seconds(),
			DiskSeconds: (disk.Elapsed() - preDisk).Seconds(),
		},
		barrier: barrier,
	}
	if wall > 0 {
		lv.OpsPerSec = float64(s.ops) / wall.Seconds()
	}
	if cached {
		post, _ := fs.CacheStats()
		lv.cache = post.Sub(preCache)
		lv.HitRate = lv.cache.HitRate()
	}
	if s.after != nil {
		if err := s.after(); err != nil {
			return sweepLevel{}, err
		}
	}
	return lv, nil
}

// fanOut runs the op set split into g contiguous chunks, one goroutine each,
// and returns the first error with its op index. Contiguous, not strided: a
// strided split (i % g == w) would alias the op mixes' period-4/8 structure
// and hand every cold op to the same goroutine at small g.
func (s sweep) fanOut(g int) error {
	errs := make(chan error, g) // each goroutine sends at most once
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		lo, hi := w*s.ops/g, (w+1)*s.ops/g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := s.op(i); err != nil {
					errs <- fmt.Errorf("op %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs // nil once drained: no op failed
}

// sweepRows strips the measured levels down to their rows.
func sweepRows(levels []sweepLevel) []SweepRow {
	var rows []SweepRow
	for _, lv := range levels {
		rows = append(rows, lv.SweepRow)
	}
	return rows
}

// scanResistant is the cache policy of the read-heavy sweeps (A5, A8, A9):
// the configured one, or 2Q so a cold cycle cannot evict the hot set.
func scanResistant(cfg Config) string {
	if cfg.CachePolicy == "" {
		return "2q"
	}
	return cfg.CachePolicy
}
