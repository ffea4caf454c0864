package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"stegfs/internal/fsapi"
	"stegfs/internal/stegrand"
	"stegfs/internal/workload"
)

// SpaceRow is one row of the §5.2 space-utilization comparison.
type SpaceRow struct {
	Scheme      string
	Utilization float64 // aggregate unique file bytes / volume capacity
	Note        string
}

// SpaceUtilCover measures StegCover's effective space utilization by filling
// every level of every cover set with files drawn from the workload
// distribution. With 2 MB covers and (1,2] MB files the paper derives 75%.
func SpaceUtilCover(cfg Config) (SpaceRow, error) {
	inst, err := BuildInstance("StegCover", cfg, nil)
	if err != nil {
		return SpaceRow{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var stored int64
	for i := 0; ; i++ {
		size := cfg.FileLo + 1 + rng.Int63n(cfg.FileHi-cfg.FileLo)
		spec := workload.FileSpec{Name: fmt.Sprintf("c%05d", i), Size: size}
		if err := inst.FS.Create(spec.Name, workload.Payload(spec, cfg.Seed)); err != nil {
			if errors.Is(err, fsapi.ErrNoSpace) {
				break
			}
			return SpaceRow{}, err
		}
		stored += size
	}
	return SpaceRow{
		Scheme:      "StegCover",
		Utilization: float64(stored) / float64(cfg.VolumeBytes),
		Note:        "one file per cover; avg (lo+hi)/2 per cover of size hi",
	}, nil
}

// SpaceUtilStegRand measures StegRand's utilization at its safe-recovery
// limit for the config's block size (the best point of Figure 6 is ~5-8%).
func SpaceUtilStegRand(cfg Config, replication int) SpaceRow {
	res := stegrand.SimulateLoad(cfg.NumBlocks(), cfg.BlockSize, replication, cfg.Seed,
		stegrand.UniformFileSize(cfg.FileLo, cfg.FileHi))
	return SpaceRow{
		Scheme:      "StegRand",
		Utilization: res.Utilization,
		Note:        fmt.Sprintf("replication=%d, loaded %d files before first loss", replication, res.FilesLoaded),
	}
}

// SpaceUtilStegFS measures StegFS's utilization by loading hidden files
// until the volume refuses more. The only overheads are the abandoned
// blocks, the dummy files, the inode structures and the internal free pools
// (§5.2: ">80% with the default settings").
func SpaceUtilStegFS(cfg Config) (SpaceRow, error) {
	_, fs, err := newVolume(cfg)
	if err != nil {
		return SpaceRow{}, err
	}
	view := fs.NewHiddenView("space")
	rng := rand.New(rand.NewSource(cfg.Seed))
	var stored int64
	for i := 0; ; i++ {
		size := cfg.FileLo + 1 + rng.Int63n(cfg.FileHi-cfg.FileLo)
		spec := workload.FileSpec{Name: fmt.Sprintf("s%05d", i), Size: size}
		if err := view.Create(spec.Name, workload.Payload(spec, cfg.Seed)); err != nil {
			if errors.Is(err, fsapi.ErrNoSpace) {
				break
			}
			return SpaceRow{}, err
		}
		stored += size
	}
	return SpaceRow{
		Scheme:      "StegFS",
		Utilization: float64(stored) / float64(cfg.VolumeBytes),
		Note: fmt.Sprintf("abandoned=%.0f%%, dummies=%d x %dKB avg",
			cfg.Steg.PctAbandoned*100, cfg.Steg.NDummy, cfg.Steg.DummyAvgSize>>10),
	}, nil
}

// SpaceTable assembles the §5.2 comparison: StegCover ~75%, StegRand ~5%
// (at 1 KB blocks), StegFS >80%.
func SpaceTable(cfg Config) ([]SpaceRow, error) {
	cover, err := SpaceUtilCover(cfg)
	if err != nil {
		return nil, err
	}
	randRow := SpaceUtilStegRand(cfg, 8) // the favourable middle of Fig. 6
	steg, err := SpaceUtilStegFS(cfg)
	if err != nil {
		return nil, err
	}
	return []SpaceRow{cover, randRow, steg}, nil
}
