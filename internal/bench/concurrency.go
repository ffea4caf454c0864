package bench

import (
	"bytes"
	"fmt"

	"stegfs/internal/stegfs"
	"stegfs/internal/workload"
)

// Defaults for the sweep's shared instance. The hot set (plus headers and
// pointer blocks) fits the cache; the cold set cycles far beyond it, so
// every cold read pays emulated device latency. With the default 256 ops the
// 64 cold reads touch the 64 cold files exactly once each, so the window's
// miss set — and with it the simulated-disk cost — is identical at every
// concurrency level no matter how the goroutines interleave.
const (
	concCacheBlocks = 2048
	concHotFiles    = 12
	concHotBlocks   = 32
	concColdFiles   = 64
	concColdBlocks  = 64
	concPlainFiles  = 6
	concFillFiles   = 8 // warm-up scan set; never read inside the window
	concFillBlocks  = 64
)

// ConcurrencySweep runs ablation A5: goroutines x {1,2,4,8,16} over one
// shared cached StegFS volume, reproducing the multi-user regime of Figure 7
// with real parallelism instead of interleaved turns. The disk runs in
// latency-emulation mode (vdisk.Disk.EmulateLatency), so every cache miss
// actually waits its simulated service time; wall-clock throughput then
// measures how much of that device latency the FS software stack can keep in
// flight. Under the old whole-FS mutex the sleeps serialized no matter how
// many users piled on; with per-object locks, a shared allocation RWMutex
// and non-blocking cache miss fetches, readers of distinct objects overlap
// their waits and throughput scales until the op mix's CPU share saturates.
// Per 8 ops: 5 hot hidden reads (cache hits), 2 cold hidden reads (emulated
// device latency) and 1 plain file read; every level starts from the same
// re-warmed cache state.
func ConcurrencySweep(cfg Config, levels []int, totalOps int, emuScale float64) ([]SweepRow, error) {
	if totalOps <= 0 {
		totalOps = 256
	}
	type file struct {
		name string
		data []byte
	}
	var (
		fs                     *stegfs.FS
		view                   *stegfs.HiddenView
		hot, cold, fill, plain []file
	)
	bs := int64(cfg.BlockSize)
	mkFiles := func(prefix string, count int, blocks int64) ([]file, error) {
		files := make([]file, count)
		for i := range files {
			spec := workload.FileSpec{Name: fmt.Sprintf("%s%02d", prefix, i), Size: blocks * bs}
			files[i] = file{spec.Name, workload.Payload(spec, cfg.Seed)}
			if err := view.Create(spec.Name, files[i].data); err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
		}
		return files, nil
	}
	// check reads f through read and verifies its content.
	check := func(read func(string) ([]byte, error), f file) error {
		got, err := read(f.name)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		if !bytes.Equal(got, f.data) {
			return fmt.Errorf("%s corrupted", f.name)
		}
		return nil
	}

	lv, err := sweep{
		ops:  totalOps,
		opts: []stegfs.Option{stegfs.WithCache(concCacheBlocks), stegfs.WithCachePolicy(scanResistant(cfg))},
		populate: func(f *stegfs.FS) error {
			fs, view = f, f.NewHiddenView("conc")
			var err error
			if hot, err = mkFiles("hot", concHotFiles, concHotBlocks); err != nil {
				return err
			}
			if cold, err = mkFiles("cold", concColdFiles, concColdBlocks); err != nil {
				return err
			}
			if fill, err = mkFiles("fill", concFillFiles, concFillBlocks); err != nil {
				return err
			}
			plain = make([]file, concPlainFiles)
			for i := range plain {
				name := fmt.Sprintf("plain%02d", i)
				plain[i] = file{name, workload.Payload(workload.FileSpec{Name: name, Size: 8 * bs}, cfg.Seed+3)}
				if err := fs.Create(name, plain[i].data); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
			return view.Sync()
		},
		op: func(i int) error {
			switch {
			case i%8 == 5:
				return check(fs.Read, plain[(i/8)%len(plain)])
			case i%4 == 3:
				return check(view.Read, cold[(i/4)%len(cold)])
			default:
				return check(view.Read, hot[i%len(hot)])
			}
		},
		// Re-establish the canonical cache state: hot pass, a filler scan
		// (pushes the hot set out of 2Q's probation FIFO — deliberately NOT
		// the cold set, or whichever cold blocks survived in the FIFO would
		// hand position-dependent free hits to some window schedules), hot
		// pass (the re-reference promotes the hot set into the protected
		// region), plain pass.
		reset: func() error {
			if err := fs.Cache().Invalidate(); err != nil {
				return err
			}
			for _, files := range [][]file{hot, fill, hot} {
				for _, f := range files {
					if _, err := view.Read(f.name); err != nil {
						return err
					}
				}
			}
			for _, f := range plain {
				if _, err := fs.Read(f.name); err != nil {
					return err
				}
			}
			return nil
		},
	}.run(cfg, levels, emuScale)
	return sweepRows(lv), err
}
