package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"stegfs/internal/stegfs"
)

// TestSweepsScaleAndKeepDiskCost asserts the acceptance shape of every
// goroutine-sweep ablation (A5–A9) at a reduced size: wall-clock throughput
// must rise with goroutines (the emulated device waits overlap instead of
// serializing), and the simulated-disk cost of the level must stay
// essentially unchanged — concurrency buys wall time, it does not re-price
// the device.
func TestSweepsScaleAndKeepDiskCost(t *testing.T) {
	cfg := SmallConfig()
	levels := []int{1, 4}
	for _, tc := range []struct {
		name string
		run  func() ([]SweepRow, error)
	}{
		{"A5-read", func() ([]SweepRow, error) { return ConcurrencySweep(cfg, levels, 64, 0.25) }},
		{"A6-write", func() ([]SweepRow, error) {
			rows, report, err := WriteConcurrencySweep(cfg, levels, 0.25)
			if err == nil && (report.Groups == 0 || report.Allocs == 0) {
				err = fmt.Errorf("empty allocator report: %+v", report)
			}
			return rows, err
		}},
		{"A7-cached-write", func() ([]SweepRow, error) {
			rows, report, err := CachedWriteConcurrencySweep(cfg, levels, 0.25)
			if err == nil && (report.Groups == 0 || report.Allocs == 0) {
				err = fmt.Errorf("empty allocator report: %+v", report)
			}
			// Deferred writes must reach the device as batched flush
			// submissions, not per-block writes.
			var out []SweepRow
			for _, r := range rows {
				if r.WriteBacks == 0 || r.FlushBatches == 0 || r.FlushBatches >= r.WriteBacks {
					err = errors.Join(err, fmt.Errorf("write-backs not batched: %d submissions for %d blocks", r.FlushBatches, r.WriteBacks))
				}
				out = append(out, r.SweepRow)
			}
			return out, err
		}},
		{"A8-stegdb", func() ([]SweepRow, error) { return StegDBConcurrencySweep(cfg, levels, 64, 0.25) }},
		{"A9-stegdb-write", func() ([]SweepRow, error) {
			rows, err := StegDBWriteSweep(cfg, levels, 64, 0.25)
			var out []SweepRow
			for _, r := range rows {
				out = append(out, r.SweepRow)
			}
			return out, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(levels) {
				t.Fatalf("got %d rows, want %d", len(rows), len(levels))
			}
			for _, r := range rows {
				if r.OpsPerSec <= 0 || r.WallSeconds <= 0 {
					t.Fatalf("degenerate row: %+v", r)
				}
				if r.DiskSeconds <= 0 {
					t.Fatalf("level consumed no simulated disk time: %+v", r)
				}
			}
			if rows[1].Speedup < 1.5 {
				t.Errorf("4 goroutines speedup %.2fx, want >= 1.5x (emulated waits should overlap)", rows[1].Speedup)
			}
			ratio := rows[1].DiskSeconds / rows[0].DiskSeconds
			if ratio < 0.8 || ratio > 1.25 {
				t.Errorf("simulated-disk cost moved %.2fx across levels; concurrency must not re-price the device", ratio)
			}
		})
	}
}

// TestSweepRunRejectsAndReports pins sweep.run's two failure paths: a
// level that would split a whole-unit op block across goroutines is
// rejected before the volume is even populated, and an op error comes back
// with the index of the op that failed.
func TestSweepRunRejectsAndReports(t *testing.T) {
	cfg := SmallConfig()
	populated := false
	errBoom := errors.New("boom")
	s := sweep{
		ops:      16,
		unit:     4,
		populate: func(*stegfs.FS) error { populated = true; return nil },
		op: func(i int) error {
			if i == 9 {
				return errBoom
			}
			return nil
		},
	}
	for _, g := range []int{0, 3, 8} {
		_, err := s.run(cfg, []int{1, g}, 0)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("level %d", g)) {
			t.Errorf("level %d: err = %v, want it rejected", g, err)
		}
	}
	if populated {
		t.Fatal("a rejected level set still formatted and populated the volume")
	}
	_, err := s.run(cfg, []int{2}, 0)
	if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "op 9:") || !strings.Contains(err.Error(), "g=2") {
		t.Fatalf("op error = %v, want errBoom tagged with g=2 and op 9", err)
	}
}
