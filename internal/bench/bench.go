// Package bench is the experiment harness: one function per table or figure
// of the paper's evaluation (Section 5), each returning the same rows or
// series the paper reports. cmd/stegbench prints them; bench_test.go wraps
// them as Go benchmarks.
//
// Absolute numbers are simulated-disk seconds (see internal/vdisk); what the
// reproduction preserves is the shape of each figure — which scheme wins, by
// roughly what factor, and where the curves cross.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"stegfs/internal/fsapi"
	"stegfs/internal/nativefs"
	"stegfs/internal/stegcover"
	"stegfs/internal/stegfs"
	"stegfs/internal/stegrand"
	"stegfs/internal/vdisk"
	"stegfs/internal/workload"
)

// SchemeNames lists the five systems of Table 4, in the paper's order.
var SchemeNames = []string{"CleanDisk", "FragDisk", "StegCover", "StegRand", "StegFS"}

// Config parameterizes an experiment run. PaperConfig reproduces the
// workload of Table 3; SmallConfig shrinks everything proportionally so the
// full suite runs in seconds under `go test`.
type Config struct {
	VolumeBytes int64 // capacity of the disk volume (Table 3: 1 GB)
	BlockSize   int   // size of each disk block (Table 3: 1 KB)
	NumFiles    int   // number of files in the file system (Table 3: 100)
	FileLo      int64 // file sizes drawn uniformly from (FileLo, FileHi]
	FileHi      int64 // (Table 3: (1, 2] MB)
	OpsPerUser  int   // file operations each user performs per data point
	Seed        int64
	Geometry    vdisk.Geometry
	CachePolicy string // cache replacement policy: "lru" (default) or "2q"

	CoverBytes  int64 // StegCover cover size (>= FileHi; paper: 2 MB)
	Replication int   // StegRand replication (paper: 4)
	Steg        stegfs.Params
}

// PaperConfig returns the evaluation defaults of Tables 1-3.
func PaperConfig() Config {
	p := stegfs.DefaultParams()
	p.FillVolume = false       // benches reset the clock after setup anyway
	p.DeterministicKeys = true // block placement must replay exactly
	return Config{
		VolumeBytes: 1 << 30,
		BlockSize:   1 << 10,
		NumFiles:    100,
		FileLo:      1 << 20,
		FileHi:      2 << 20,
		OpsPerUser:  4,
		Seed:        1,
		Geometry:    vdisk.DefaultGeometry(),
		CoverBytes:  2 << 20,
		Replication: 4,
		Steg:        p,
	}
}

// SmallConfig returns a 1/16-scale configuration with the same shape
// (64 MB volume, (64,128] KB files) for fast tests.
func SmallConfig() Config {
	cfg := PaperConfig()
	cfg.VolumeBytes = 64 << 20
	cfg.FileLo = 64 << 10
	cfg.FileHi = 128 << 10
	cfg.NumFiles = 100
	cfg.CoverBytes = 128 << 10
	cfg.OpsPerUser = 2
	cfg.Steg.DummyAvgSize = 64 << 10
	return cfg
}

// NumBlocks returns the volume size in blocks.
func (c Config) NumBlocks() int64 { return c.VolumeBytes / int64(c.BlockSize) }

// Point is one (x, y) sample of a figure.
type Point struct {
	X float64
	Y float64
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Instance bundles a formatted scheme with its simulated disk.
type Instance struct {
	Scheme string
	Disk   *vdisk.Disk
	FS     fsapi.CursorFS
	store  *vdisk.MemStore
	// Steg is non-nil for the StegFS instance (exposes volume internals).
	Steg *stegfs.FS
	// View is the hidden-file view driving StegFS benchmarks.
	View *stegfs.HiddenView
}

// BuildInstance formats a fresh volume for the named scheme and populates it
// with the given files, then zeroes the simulated clock so measurements see
// only the workload.
func BuildInstance(scheme string, cfg Config, specs []workload.FileSpec) (*Instance, error) {
	store, err := vdisk.NewMemStore(cfg.NumBlocks(), cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	disk := vdisk.NewDisk(store, cfg.Geometry)
	inst := &Instance{Scheme: scheme, Disk: disk, store: store}
	switch scheme {
	case "CleanDisk", "FragDisk":
		fs, err := nativefs.Format(disk, scheme == "CleanDisk", maxFilesFor(cfg), cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scheme, err)
		}
		inst.FS = fs
	case "StegCover":
		fs, err := stegcover.Format(disk, stegcover.Config{
			NumCovers:  16,
			CoverBytes: cfg.CoverBytes,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("StegCover: %w", err)
		}
		inst.FS = fs
	case "StegRand":
		fs, err := stegrand.Format(disk, stegrand.Config{Replication: cfg.Replication, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("StegRand: %w", err)
		}
		inst.FS = fs
	case "StegFS":
		p := cfg.Steg
		p.Seed = cfg.Seed
		fs, err := stegfs.Format(disk, p)
		if err != nil {
			return nil, fmt.Errorf("StegFS: %w", err)
		}
		inst.Steg = fs
		inst.View = fs.NewHiddenView("bench")
		inst.FS = inst.View
	default:
		return nil, fmt.Errorf("bench: unknown scheme %q", scheme)
	}
	if specs != nil {
		if err := workload.Populate(inst.FS, specs, cfg.Seed); err != nil {
			return nil, fmt.Errorf("%s: populate: %w", scheme, err)
		}
	}
	disk.ResetClock()
	return inst, nil
}

// newVolume formats a StegFS volume, seeded from cfg, on a fresh in-memory
// store behind the simulated disk.
func newVolume(cfg Config, opts ...stegfs.Option) (*vdisk.Disk, *stegfs.FS, error) {
	store, err := vdisk.NewMemStore(cfg.NumBlocks(), cfg.BlockSize)
	if err != nil {
		return nil, nil, err
	}
	disk := vdisk.NewDisk(store, cfg.Geometry)
	p := cfg.Steg
	p.Seed = cfg.Seed
	fs, err := stegfs.Format(disk, p, opts...)
	return disk, fs, err
}

// maxFilesFor sizes the central directory comfortably above the workload.
func maxFilesFor(cfg Config) int {
	n := cfg.NumFiles * 2
	if n < 64 {
		n = 64
	}
	return n
}

// Specs draws the workload's file list for a config.
func (c Config) Specs() []workload.FileSpec {
	rng := rand.New(rand.NewSource(c.Seed))
	return workload.UniformSpecs(rng, c.NumFiles, c.FileLo, c.FileHi, "f")
}

// seconds converts a simulated duration to float seconds for plotting.
func seconds(d time.Duration) float64 { return d.Seconds() }
