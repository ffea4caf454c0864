package bench

import (
	"bytes"
	"fmt"

	"stegfs/internal/stegfs"
	"stegfs/internal/workload"
)

// Workload shape for the write sweep. Ops come in blocks of opsPerObject
// consecutive indexes, all touching one object, so any contiguous partition
// whose chunk size is a multiple of opsPerObject keeps every object inside
// one goroutine — concurrent ops always hit DISTINCT hidden objects, which
// is exactly the regime the sharded allocator is supposed to scale.
const (
	wcObjects      = 64
	wcOpsPerObject = 4 // rewrite, delete, re-create, rewrite
	wcObjectBlocks = 8 // payload blocks per object
)

// WriteConcurrencySweep runs ablation A6: goroutines x {1,2,4,8,16} of mixed
// hidden-file mutations — same-shape rewrites, deletes and re-creates — over
// one shared UNCACHED StegFS volume on a latency-emulating disk, so every
// block write actually waits its simulated service time at the device.
// Wall-clock throughput then measures how much of that device latency the
// write path keeps in flight. Under the old single allocation mutex every
// mutation serialized on fs.mu no matter how many writers piled on; with the
// sharded allocator, per-object locks and name-striped creates, writers to
// distinct objects contend only when their allocations land in the same
// allocation group, and the emulated waits overlap. Every delete is paired
// with a re-create of the same object at the same size, so volume occupancy
// — and with uniformly random placement, the expected seek cost — is stable
// across the window and across levels.
func WriteConcurrencySweep(cfg Config, levels []int, emuScale float64) ([]SweepRow, AllocReport, error) {
	var (
		fs            *stegfs.FS
		view          *stegfs.HiddenView
		names         [wcObjects]string
		payloads, alt [wcObjects][]byte // canonical and rewrite content
		report        AllocReport
	)
	lv, err := sweep{
		// Uncached: the sweep prices the write path itself. (The cached
		// regime — write-back absorption plus the asynchronous flush
		// pipeline — is ablation A7, CachedWriteConcurrencySweep.)
		ops:  wcObjects * wcOpsPerObject,
		unit: wcOpsPerObject,
		populate: func(f *stegfs.FS) error {
			fs, view = f, f.NewHiddenView("wconc")
			for i := range names {
				spec := workload.FileSpec{Name: fmt.Sprintf("w%03d", i), Size: wcObjectBlocks * int64(cfg.BlockSize)}
				names[i] = spec.Name
				payloads[i] = workload.Payload(spec, cfg.Seed)
				alt[i] = workload.Payload(spec, cfg.Seed+7)
				if err := view.Create(spec.Name, payloads[i]); err != nil {
					return fmt.Errorf("%s: %w", spec.Name, err)
				}
			}
			return nil
		},
		// Index i belongs to object i/4; the four ops of an object run in
		// order within one goroutine: in-place rewrite, delete, re-create
		// (fresh uniform allocation), rewrite back to the canonical content.
		op: func(i int) error {
			obj := i / wcOpsPerObject
			switch i % wcOpsPerObject {
			case 0:
				return view.Write(names[obj], alt[obj])
			case 1:
				return view.Delete(names[obj])
			case 2:
				return view.Create(names[obj], alt[obj])
			default:
				return view.Write(names[obj], payloads[obj])
			}
		},
		after: func() error { return verifyHidden(view, names[:], payloads[:]) },
		finish: func() error {
			report = NewAllocReport(fs.Alloc())
			return nil
		},
	}.run(cfg, levels, emuScale)
	if err != nil {
		return nil, AllocReport{}, err
	}
	return sweepRows(lv), report, nil
}

// verifyHidden checks that every named hidden file holds its canonical
// content after a write window.
func verifyHidden(view *stegfs.HiddenView, names []string, want [][]byte) error {
	for i, name := range names {
		got, err := view.Read(name)
		if err != nil {
			return fmt.Errorf("verify %s: %w", name, err)
		}
		if !bytes.Equal(got, want[i]) {
			return fmt.Errorf("%s corrupted after write window", name)
		}
	}
	return nil
}
