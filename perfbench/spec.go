package main

import (
	"fmt"
	"time"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// blockSize is the volume block size of every workload.
const blockSize = 1024

// allocGroups pins the allocator's group count. The stegfs default scales
// with GOMAXPROCS, and the group count decides which blocks a seeded
// allocator hands out, so leaving it to the default would make the exact
// device counts depend on the machine.
const allocGroups = 64

// spec is the fixed configuration of one workload. Everything that shapes
// the volume, the cache and the op mix lives here; the seed only picks the
// content, keys, placement and op order.
type spec struct {
	name string

	volBlocks   int64 // volume size in blocks
	cacheBlocks int   // blockcache capacity
	writeBehind int   // write-behind high-water mark (0 = off, no flusher)
	flushers    int   // background flusher goroutines when write-behind is on

	files   int // hidden-read / hidden-churn: live hidden files
	minSize int // smallest file, bytes
	maxSize int // largest file, bytes

	rows       int // stegdb-oltp: rows in the table
	partitions int // stegdb-oltp: PartitionedTable partitions
	buckets    int // stegdb-oltp: hash-index buckets per partition
	scanRows   int // stegdb-oltp: rows per Range

	commitEvery int // window ops between commits (0 = never)
	warmOps     int // ops run before the window, counted in set-up
	exactOps    int // window prefix over which the exact metrics are taken
	maxRate     int // ops/s the pre-generated sequence is sized for
}

// specFor returns the full-size configuration of a workload, or its small
// variant for the package's own tests.
func specFor(name string, small bool) (spec, error) {
	var s spec
	switch name {
	case "hidden-read":
		s = spec{volBlocks: 128 << 10, cacheBlocks: 4096, files: 512, minSize: 8 << 10, maxSize: 64 << 10,
			warmOps: 8192, exactOps: 32768, maxRate: 100000}
		if small {
			s.volBlocks, s.cacheBlocks, s.files, s.warmOps, s.exactOps = 32<<10, 1024, 128, 512, 2048
		}
	case "hidden-churn":
		s = spec{volBlocks: 128 << 10, cacheBlocks: 4096, writeBehind: 256, flushers: 1, files: 256,
			minSize: 4 << 10, maxSize: 64 << 10, commitEvery: 64, warmOps: 2048, exactOps: 8192, maxRate: 50000}
		if small {
			s.warmOps, s.exactOps = 512, 4096
		}
	case "stegdb-oltp":
		s = spec{volBlocks: 128 << 10, cacheBlocks: 16384, rows: 20000, partitions: 8, buckets: 256, scanRows: 50,
			commitEvery: 100, warmOps: 2000, exactOps: 20000, maxRate: 100000}
		if small {
			s.volBlocks, s.cacheBlocks, s.rows, s.warmOps, s.exactOps = 32<<10, 8192, 2000, 200, 1000
		}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want hidden-read, hidden-churn or stegdb-oltp)", name)
	}
	s.name = name
	return s, nil
}

// volume is one formatted StegFS volume: a MemStore under the vdisk timing
// model, mounted through the block cache, reached through one HiddenView.
type volume struct {
	store *vdisk.MemStore
	disk  *vdisk.Disk
	fs    *stegfs.FS
	view  *stegfs.HiddenView
}

// uid is the HiddenView user every workload runs as.
const uid = "bench"

// formatVolume builds a fresh volume for s. With a tracer, the device handed
// to stegfs.Format is a span-recording wrapper around the Disk, so it sits
// under the block cache.
func formatVolume(s spec, seed int64, tr *tracer) (*volume, error) {
	store, err := vdisk.NewMemStore(s.volBlocks, blockSize)
	if err != nil {
		return nil, err
	}
	disk := vdisk.NewDisk(store, vdisk.DefaultGeometry())
	var dev vdisk.Device = disk
	if tr != nil {
		dev = &tracedDevice{BatchDevice: disk, tr: tr}
	}
	p := stegfs.DefaultParams()
	p.Seed = seed
	p.FillVolume = true
	p.DeterministicKeys = true
	p.DummyAvgSize = 64 << 10
	opts := []stegfs.Option{stegfs.WithCache(s.cacheBlocks), stegfs.WithAllocGroups(allocGroups)}
	if s.writeBehind > 0 {
		opts = append(opts, stegfs.WithWriteBehind(s.writeBehind, s.flushers))
	}
	fs, err := stegfs.Format(dev, p, opts...)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	return &volume{store: store, disk: disk, fs: fs, view: fs.NewHiddenView(uid)}, nil
}

// close syncs the volume and stops the cache's flusher goroutines.
func (v *volume) close() error { return v.fs.Close() }

// allocatedBytes is the data region's allocated space: every used block
// past the metadata regions, whoever owns it.
func (v *volume) allocatedBytes() int64 {
	return (v.store.NumBlocks() - v.fs.DataStart() - v.fs.FreeBlocks()) * blockSize
}

// setupTimes splits one set-up into its phases.
type setupTimes struct {
	format, populate, warm time.Duration
}

func (t setupTimes) total() time.Duration { return t.format + t.populate + t.warm }
