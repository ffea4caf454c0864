package bench

import (
	"bytes"
	"fmt"

	"stegfs/internal/blockcache"
	"stegfs/internal/stegfs"
	"stegfs/internal/workload"
)

// PolicyRow is one cell of the replacement-policy ablation (A4b): one
// {policy, capacity} pair driven by the scan+hot hidden-file workload.
// Capacity 0 with an empty policy is the shared uncached baseline.
type PolicyRow struct {
	Policy      string
	CacheBlocks int
	Seconds     float64 // simulated disk time for the measured rounds
	Speedup     float64 // uncached baseline seconds / this row's seconds
	HitRate     float64
	Stats       blockcache.Stats
}

// PolicySweep runs ablation A4b, crossing replacement policies with cache
// capacities over the workload regime where plain LRU collapses: cyclic
// re-read rounds in which every pass over a large hidden file (the scan —
// its data blocks are touched once per round) is followed by a sweep over a
// set of small hot files (headers, p-tree blocks and a handful of data
// blocks that are re-read after every scan). The hot set fits in a few
// hundred blocks, but the scan pushes the reuse distance beyond the cache
// capacity, so a pure recency policy evicts every hot block just before its
// next use. Scan-resistant policies keep the hot set resident.
//
// One unmeasured warm-up round lets each policy reach steady state (cold
// compulsory misses are identical across policies and would only dilute the
// contrast); the measured window covers `rounds` full rounds plus the final
// FS.Sync, on the same simulated-disk clock as every other experiment.
func PolicySweep(cfg Config, policies []string, capacities []int, rounds int) ([]PolicyRow, error) {
	if policies == nil {
		policies = blockcache.PolicyNames()
	}
	if capacities == nil {
		capacities = []int{64, 256, 1024, 4096}
	}
	if rounds <= 0 {
		rounds = 4
	}
	base, err := policyPoint(cfg, "", 0, rounds)
	if err != nil {
		return nil, fmt.Errorf("uncached baseline: %w", err)
	}
	base.Policy = "uncached"
	base.Speedup = 1.0
	out := []PolicyRow{base}
	for _, pol := range policies {
		for _, capacity := range capacities {
			row, err := policyPoint(cfg, pol, capacity, rounds)
			if err != nil {
				return nil, fmt.Errorf("policy=%s cache=%d: %w", pol, capacity, err)
			}
			if row.Seconds > 0 {
				row.Speedup = base.Seconds / row.Seconds
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// policySpecs returns the scan and hot file lists for the sweep. Scan files
// span [FileHi, 1.25*FileHi] — large enough that every scan, plus one hot
// sweep, exceeds the mid-range capacities, so a recency policy has evicted
// each hot block before its re-read on every single pass. Hot files are 8
// blocks each, so the whole hot set — data plus headers and probe
// candidates — stays well under those same capacities.
func policySpecs(cfg Config) (scan, hot []workload.FileSpec) {
	const scanFiles, hotFiles = 12, 16
	scan = make([]workload.FileSpec, scanFiles)
	for i := range scan {
		size := cfg.FileHi + int64(i)*(cfg.FileHi/4)/int64(scanFiles)
		scan[i] = workload.FileSpec{Name: fmt.Sprintf("scan%04d", i), Size: size}
	}
	hot = make([]workload.FileSpec, hotFiles)
	for i := range hot {
		hot[i] = workload.FileSpec{Name: fmt.Sprintf("hot%04d", i), Size: 8 * int64(cfg.BlockSize)}
	}
	return scan, hot
}

func policyPoint(cfg Config, policy string, capacity, rounds int) (PolicyRow, error) {
	disk, fs, err := newVolume(cfg, stegfs.WithCache(capacity), stegfs.WithCachePolicy(policy))
	if err != nil {
		return PolicyRow{}, err
	}
	view := fs.NewHiddenView("policy-ablate")

	scan, hot := policySpecs(cfg)
	payload := make(map[string][]byte, len(scan)+len(hot))
	for _, spec := range append(append([]workload.FileSpec(nil), scan...), hot...) {
		payload[spec.Name] = workload.Payload(spec, cfg.Seed)
		if err := view.Create(spec.Name, payload[spec.Name]); err != nil {
			return PolicyRow{}, fmt.Errorf("populate %s: %w", spec.Name, err)
		}
	}

	oneRound := func(r int) error {
		for _, sp := range scan {
			got, err := view.Read(sp.Name)
			if err != nil {
				return fmt.Errorf("round %d read %s: %w", r, sp.Name, err)
			}
			if !bytes.Equal(got, payload[sp.Name]) {
				return fmt.Errorf("round %d: %s corrupted through cache", r, sp.Name)
			}
			for _, hp := range hot {
				got, err := view.Read(hp.Name)
				if err != nil {
					return fmt.Errorf("round %d read %s: %w", r, hp.Name, err)
				}
				if !bytes.Equal(got, payload[hp.Name]) {
					return fmt.Errorf("round %d: %s corrupted through cache", r, hp.Name)
				}
			}
		}
		return nil
	}

	// Warm-up round outside the window, then measure from a flushed image.
	if err := oneRound(0); err != nil {
		return PolicyRow{}, err
	}
	if err := view.Sync(); err != nil {
		return PolicyRow{}, err
	}
	disk.ResetClock()
	preStats, _ := fs.CacheStats()

	for r := 1; r <= rounds; r++ {
		if err := oneRound(r); err != nil {
			return PolicyRow{}, err
		}
	}
	if err := fs.Sync(); err != nil {
		return PolicyRow{}, err
	}

	row := PolicyRow{Policy: policy, CacheBlocks: capacity, Seconds: seconds(disk.Elapsed())}
	if stats, ok := fs.CacheStats(); ok {
		row.Stats = stats.Sub(preStats)
		row.HitRate = row.Stats.HitRate()
	}
	return row, nil
}
