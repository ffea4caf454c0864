package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"stegfs/internal/adversary"
	"stegfs/internal/fsapi"
	"stegfs/internal/workload"
)

// AbandonedRow is one row of the abandoned-block ablation (A1): more
// abandoned blocks buy more cover (higher attacker guess-work) at the cost
// of utilization.
type AbandonedRow struct {
	PctAbandoned float64
	Utilization  float64 // achievable space utilization
	Candidates   int     // used-unlisted blocks the attacker must sift
	HiddenBlocks int     // blocks actually holding user hidden data
	GuessWork    float64 // expected probes per real hidden block
}

// AbandonedSweep runs ablation A1: sweep the abandoned-block percentage,
// loading a fixed batch of hidden files, and report both the space cost and
// the brute-force examination resistance.
func AbandonedSweep(cfg Config, pcts []float64, filesToHide int) ([]AbandonedRow, error) {
	if pcts == nil {
		pcts = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20}
	}
	var out []AbandonedRow
	for _, pct := range pcts {
		row, err := abandonedPoint(cfg, pct, filesToHide)
		if err != nil {
			return nil, fmt.Errorf("abandoned=%v: %w", pct, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func abandonedPoint(cfg Config, pct float64, filesToHide int) (AbandonedRow, error) {
	cfg.Steg.PctAbandoned = pct
	_, fs, err := newVolume(cfg)
	if err != nil {
		return AbandonedRow{}, err
	}
	view := fs.NewHiddenView("ablate")
	rng := rand.New(rand.NewSource(cfg.Seed))

	var stored int64
	names := make([]string, 0, filesToHide)
	truth := make(map[int64]bool)
	for i := 0; ; i++ {
		size := cfg.FileLo + 1 + rng.Int63n(cfg.FileHi-cfg.FileLo)
		spec := workload.FileSpec{Name: fmt.Sprintf("a%05d", i), Size: size}
		if err := view.Create(spec.Name, workload.Payload(spec, cfg.Seed)); err != nil {
			if errors.Is(err, fsapi.ErrNoSpace) {
				break
			}
			return AbandonedRow{}, err
		}
		stored += size
		if len(names) < filesToHide {
			names = append(names, spec.Name)
		}
		if filesToHide > 0 && i+1 >= filesToHide {
			break
		}
	}
	for _, n := range names {
		data, _, err := view.BlocksOf(n)
		if err != nil {
			return AbandonedRow{}, err
		}
		for _, b := range data {
			truth[b] = true
		}
	}
	plainRefs := map[int64]bool{} // no plain files in this ablation
	cands := adversary.UsedUnlisted(fs.Bitmap(), plainRefs, fs.DataStart())
	return AbandonedRow{
		PctAbandoned: pct,
		Utilization:  float64(stored) / float64(cfg.VolumeBytes),
		Candidates:   len(cands),
		HiddenBlocks: len(truth),
		GuessWork:    adversary.GuessWork(len(cands), len(truth)),
	}, nil
}

// FreePoolRow is one row of the free-pool ablation (A2): larger pools blur
// the snapshot attack (lower precision) and change write cost.
type FreePoolRow struct {
	FreeMax         int
	AttackPrecision float64 // snapshot-delta attack precision
	CreateSeconds   float64 // simulated time to create the probe file
}

// FreePoolSweep runs ablation A2: sweep FreeMax and measure how well the
// internal free pools hide which newly allocated blocks hold data.
func FreePoolSweep(cfg Config, freeMaxes []int) ([]FreePoolRow, error) {
	if freeMaxes == nil {
		freeMaxes = []int{0, 2, 4, 10, 20, 28}
	}
	var out []FreePoolRow
	for _, fm := range freeMaxes {
		c := cfg
		c.Steg.FreeMax = fm
		disk, fs, err := newVolume(c)
		if err != nil {
			return nil, fmt.Errorf("FreeMax=%d: %w", fm, err)
		}
		view := fs.NewHiddenView("ablate")

		before := fs.Bitmap()
		disk.ResetClock()
		spec := workload.FileSpec{Name: "probe", Size: (cfg.FileLo + cfg.FileHi) / 2}
		if err := view.Create(spec.Name, workload.Payload(spec, cfg.Seed)); err != nil {
			return nil, fmt.Errorf("FreeMax=%d: %w", fm, err)
		}
		elapsed := disk.Elapsed()
		after := fs.Bitmap()
		data, _, err := view.BlocksOf(spec.Name)
		if err != nil {
			return nil, err
		}
		truth := make(map[int64]bool, len(data))
		for _, b := range data {
			truth[b] = true
		}
		res := adversary.DeltaAttack(before, after, nil, truth)
		out = append(out, FreePoolRow{
			FreeMax:         fm,
			AttackPrecision: res.Precision,
			CreateSeconds:   elapsed.Seconds(),
		})
	}
	return out, nil
}

// DummyRow is one row of the dummy-file ablation (A3): with more dummy
// churn between snapshots, fewer of the attacker's candidates are real.
type DummyRow struct {
	NDummy          int
	AttackPrecision float64
	Candidates      int
}

// DummySweep runs ablation A3: the intruder snapshots the bitmap, the victim
// hides one file while the system performs a dummy-maintenance tick, and the
// intruder diffs. More dummies mean more churn attributed to nothing.
func DummySweep(cfg Config, counts []int) ([]DummyRow, error) {
	if counts == nil {
		counts = []int{0, 2, 4, 10, 16, 32}
	}
	var out []DummyRow
	for _, nd := range counts {
		c := cfg
		c.Steg.NDummy = nd
		_, fs, err := newVolume(c)
		if err != nil {
			return nil, fmt.Errorf("NDummy=%d: %w", nd, err)
		}
		view := fs.NewHiddenView("ablate")

		before := fs.Bitmap()
		spec := workload.FileSpec{Name: "probe", Size: (cfg.FileLo + cfg.FileHi) / 2}
		if err := view.Create(spec.Name, workload.Payload(spec, cfg.Seed)); err != nil {
			return nil, fmt.Errorf("NDummy=%d: %w", nd, err)
		}
		if err := fs.TickDummies(); err != nil {
			return nil, fmt.Errorf("NDummy=%d tick: %w", nd, err)
		}
		after := fs.Bitmap()
		data, _, err := view.BlocksOf(spec.Name)
		if err != nil {
			return nil, err
		}
		truth := make(map[int64]bool, len(data))
		for _, b := range data {
			truth[b] = true
		}
		res := adversary.DeltaAttack(before, after, nil, truth)
		out = append(out, DummyRow{NDummy: nd, AttackPrecision: res.Precision, Candidates: res.Candidates})
	}
	return out, nil
}
