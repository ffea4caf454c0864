package bench

import (
	"bytes"
	"fmt"

	"stegfs/internal/blockcache"
	"stegfs/internal/stegfs"
	"stegfs/internal/workload"
)

// CacheRow is one row of the cached-vs-uncached ablation (A4): a StegFS
// volume driven by a repeated-read hidden-file workload, mounted through
// block caches of increasing capacity. Capacity 0 is the uncached baseline.
type CacheRow struct {
	CacheBlocks int
	Seconds     float64 // simulated disk time for the whole workload
	Speedup     float64 // baseline seconds / this row's seconds
	HitRate     float64
	Stats       blockcache.Stats
}

// CacheSweep runs ablation A4. The workload hides a batch of files, then
// performs `rounds` passes in which every file is re-read and one file in
// four is rewritten in place, ending with an FS.Sync — so cached rows pay
// their deferred write-backs inside the measurement window. Reported time
// is vdisk.Disk.Elapsed(), the same simulated-disk clock as every other
// experiment.
func CacheSweep(cfg Config, capacities []int, files, rounds int) ([]CacheRow, error) {
	if capacities == nil {
		capacities = []int{0, 64, 256, 1024, 4096, 16384}
	}
	if files <= 0 {
		files = 12
	}
	if rounds <= 0 {
		rounds = 4
	}
	var out []CacheRow
	var baseline float64
	for i, capacity := range capacities {
		if i == 0 && capacity != 0 {
			return nil, fmt.Errorf("bench: cache sweep must start at capacity 0 (the baseline)")
		}
		row, err := cachePoint(cfg, capacity, files, rounds)
		if err != nil {
			return nil, fmt.Errorf("cache=%d: %w", capacity, err)
		}
		if i == 0 {
			baseline = row.Seconds
		}
		if row.Seconds > 0 {
			row.Speedup = baseline / row.Seconds
		}
		out = append(out, row)
	}
	return out, nil
}

func cachePoint(cfg Config, capacity, files, rounds int) (CacheRow, error) {
	disk, fs, err := newVolume(cfg, stegfs.WithCache(capacity), stegfs.WithCachePolicy(cfg.CachePolicy))
	if err != nil {
		return CacheRow{}, err
	}
	view := fs.NewHiddenView("cache-ablate")

	specs := make([]workload.FileSpec, files)
	payloads := make([][]byte, files)
	for i := range specs {
		size := cfg.FileLo + 1 + int64(i)*(cfg.FileHi-cfg.FileLo)/int64(files)
		specs[i] = workload.FileSpec{Name: fmt.Sprintf("c%04d", i), Size: size}
		payloads[i] = workload.Payload(specs[i], cfg.Seed)
		if err := view.Create(specs[i].Name, payloads[i]); err != nil {
			return CacheRow{}, fmt.Errorf("populate %s: %w", specs[i].Name, err)
		}
	}
	// Setup I/O (format + populate) is not part of the measurement; start
	// the clock from a flushed, consistent image and snapshot the cache
	// counters so the reported stats cover only the workload window.
	if err := view.Sync(); err != nil {
		return CacheRow{}, err
	}
	disk.ResetClock()
	preStats, _ := fs.CacheStats()

	for r := 0; r < rounds; r++ {
		for i, spec := range specs {
			got, err := view.Read(spec.Name)
			if err != nil {
				return CacheRow{}, fmt.Errorf("round %d read %s: %w", r, spec.Name, err)
			}
			if !bytes.Equal(got, payloads[i]) {
				return CacheRow{}, fmt.Errorf("round %d: %s corrupted through cache", r, spec.Name)
			}
			if i%4 == 0 {
				// In-place rewrite: same shape, new bytes — dirties the data
				// blocks and the header.
				payloads[i] = workload.Payload(workload.FileSpec{Name: spec.Name, Size: spec.Size}, cfg.Seed+int64(r)+1)
				if err := view.Write(spec.Name, payloads[i]); err != nil {
					return CacheRow{}, fmt.Errorf("round %d write %s: %w", r, spec.Name, err)
				}
			}
		}
	}
	// The barrier is part of the workload: cached runs pay their coalesced
	// write-back here, uncached runs already paid per-write.
	if err := fs.Sync(); err != nil {
		return CacheRow{}, err
	}

	row := CacheRow{CacheBlocks: capacity, Seconds: seconds(disk.Elapsed())}
	if stats, ok := fs.CacheStats(); ok {
		row.Stats = stats.Sub(preStats)
		row.HitRate = row.Stats.HitRate()
	}
	return row, nil
}
