// Package stegfs_test hosts the top-level benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation (Section 5), plus
// per-scheme micro-benchmarks. Benchmarks run at reduced scale so the whole
// suite completes quickly; cmd/stegbench runs the same experiments at paper
// scale and prints the full tables.
//
// Reported custom metrics are simulated-disk seconds (sim-s/op and
// sim-s-per-KB), the paper's y-axes.
package stegfs_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"stegfs/internal/bench"
	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
	"stegfs/internal/stegrand"
	"stegfs/internal/vdisk"
	"stegfs/internal/workload"
)

// benchConfig returns the reduced-scale configuration used by all harness
// benchmarks.
func benchConfig() bench.Config {
	cfg := bench.SmallConfig()
	cfg.VolumeBytes = 16 << 20
	cfg.FileLo = 32 << 10
	cfg.FileHi = 64 << 10
	cfg.NumFiles = 24
	cfg.CoverBytes = 64 << 10
	cfg.OpsPerUser = 2
	cfg.Steg.DummyAvgSize = 32 << 10
	cfg.Steg.NDummy = 4
	return cfg
}

// BenchmarkSpaceUtilization regenerates the §5.2 space-utilization
// comparison (StegCover ~75%, StegRand ~5%, StegFS >80%).
func BenchmarkSpaceUtilization(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.SpaceTable(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Utilization*100, "util%/"+r.Scheme)
			}
		}
	}
}

// BenchmarkFig6StegRandSpace regenerates Figure 6: StegRand space
// utilization versus replication factor, per block size.
func BenchmarkFig6StegRandSpace(b *testing.B) {
	cfg := benchConfig()
	for _, bs := range []int{512, 1 << 10, 4 << 10} {
		for _, repl := range []int{1, 4, 8, 16, 64} {
			b.Run(fmt.Sprintf("bs=%d/repl=%d", bs, repl), func(b *testing.B) {
				var util float64
				for i := 0; i < b.N; i++ {
					res := stegrand.SimulateLoad(cfg.VolumeBytes/int64(bs), bs, repl, cfg.Seed,
						stegrand.UniformFileSize(cfg.FileLo, cfg.FileHi))
					util = res.Utilization
				}
				b.ReportMetric(util*100, "util%")
			})
		}
	}
}

// BenchmarkFig7Concurrency regenerates Figure 7: read and write access time
// versus the number of concurrent users, for all five schemes.
func BenchmarkFig7Concurrency(b *testing.B) {
	cfg := benchConfig()
	specs := cfg.Specs()
	for _, scheme := range bench.SchemeNames {
		for _, users := range []int{1, 8, 32} {
			for _, op := range []workload.Op{workload.OpRead, workload.OpWrite} {
				b.Run(fmt.Sprintf("%s/u=%d/%s", scheme, users, op), func(b *testing.B) {
					var lat float64
					for i := 0; i < b.N; i++ {
						inst, err := bench.BuildInstance(scheme, cfg, specs)
						if err != nil {
							b.Fatal(err)
						}
						res, err := workload.RunInterleaved(inst.Disk, inst.FS, specs, users, cfg.OpsPerUser, op, cfg.Seed)
						if err != nil {
							b.Fatal(err)
						}
						lat = res.AvgPerOp.Seconds()
					}
					b.ReportMetric(lat, "sim-s/op")
				})
			}
		}
	}
}

// BenchmarkFig8FileSize regenerates Figure 8: normalized access time (per
// KB) versus file size under interleaved multi-user load.
func BenchmarkFig8FileSize(b *testing.B) {
	cfg := benchConfig()
	for _, scheme := range bench.SchemeNames {
		for _, kb := range []int{16, 32, 64} {
			b.Run(fmt.Sprintf("%s/%dKB", scheme, kb), func(b *testing.B) {
				var perKB float64
				for i := 0; i < b.N; i++ {
					sized := cfg
					sized.FileLo = int64(kb) << 10
					sized.FileHi = int64(kb) << 10
					sized.NumFiles = 16
					specs := workload.FixedSpecs(sized.NumFiles, int64(kb)<<10, "f")
					inst, err := bench.BuildInstance(scheme, sized, specs)
					if err != nil {
						b.Fatal(err)
					}
					res, err := workload.RunInterleaved(inst.Disk, inst.FS, specs, 8, sized.OpsPerUser, workload.OpRead, sized.Seed)
					if err != nil {
						b.Fatal(err)
					}
					perKB = res.AvgPerOp.Seconds() / float64(kb)
				}
				b.ReportMetric(perKB, "sim-s-per-KB")
			})
		}
	}
}

// BenchmarkFig9BlockSize regenerates Figure 9: serial single-user access
// time versus block size.
func BenchmarkFig9BlockSize(b *testing.B) {
	cfg := benchConfig()
	for _, scheme := range bench.SchemeNames {
		for _, bs := range []int{512, 4 << 10, 32 << 10} {
			b.Run(fmt.Sprintf("%s/bs=%d", scheme, bs), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					sized := cfg
					sized.BlockSize = bs
					sized.FileLo = 64 << 10
					sized.FileHi = 64 << 10
					sized.NumFiles = 8
					specs := workload.FixedSpecs(sized.NumFiles, 64<<10, "f")
					inst, err := bench.BuildInstance(scheme, sized, specs)
					if err != nil {
						b.Fatal(err)
					}
					res, err := workload.RunInterleaved(inst.Disk, inst.FS, specs, 1, sized.OpsPerUser, workload.OpRead, sized.Seed)
					if err != nil {
						b.Fatal(err)
					}
					lat = res.AvgPerOp.Seconds()
				}
				b.ReportMetric(lat, "sim-s/op")
			})
		}
	}
}

// BenchmarkAblateAbandoned regenerates ablation A1 (abandoned-block
// percentage vs utilization and attacker guess-work).
func BenchmarkAblateAbandoned(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AbandonedSweep(cfg, []float64{0, 0.01, 0.10}, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Utilization*100, fmt.Sprintf("util%%@%.0f%%", r.PctAbandoned*100))
			}
		}
	}
}

// BenchmarkAblateFreePool regenerates ablation A2 (free-pool size vs
// snapshot-attack precision).
func BenchmarkAblateFreePool(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.FreePoolSweep(cfg, []int{0, 10, 28})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.AttackPrecision, fmt.Sprintf("precision@max=%d", r.FreeMax))
			}
		}
	}
}

// BenchmarkAblateDummies regenerates ablation A3 (dummy count vs
// snapshot-attack precision).
func BenchmarkAblateDummies(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.DummySweep(cfg, []int{0, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.AttackPrecision, fmt.Sprintf("precision@n=%d", r.NDummy))
			}
		}
	}
}

// BenchmarkSchemeCreate micro-benchmarks file creation per scheme (real CPU
// time, not simulated time): allocation, encryption and device writes.
func BenchmarkSchemeCreate(b *testing.B) {
	cfg := benchConfig()
	payloadSpec := workload.FileSpec{Name: "x", Size: 64 << 10}
	payload := workload.Payload(payloadSpec, 1)
	for _, scheme := range bench.SchemeNames {
		b.Run(scheme, func(b *testing.B) {
			inst, err := bench.BuildInstance(scheme, cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("m%06d", i)
				if err := inst.FS.Create(name, payload); err != nil {
					// Volume full: recycle.
					b.StopTimer()
					inst, err = bench.BuildInstance(scheme, cfg, nil)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := inst.FS.Create(name, payload); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSchemeRead micro-benchmarks whole-file reads per scheme.
func BenchmarkSchemeRead(b *testing.B) {
	cfg := benchConfig()
	specs := workload.FixedSpecs(4, 64<<10, "f")
	for _, scheme := range bench.SchemeNames {
		b.Run(scheme, func(b *testing.B) {
			inst, err := bench.BuildInstance(scheme, cfg, specs)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.FS.Read(specs[i%len(specs)].Name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtIDA regenerates the E-IDA extension: replication vs Rabin IDA
// utilization at equal storage overhead (Mnemosyne, paper §2 ref [10]).
func BenchmarkExtIDA(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows := bench.IDAComparison(cfg, []int{2, 4}, 4)
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.ReplUtilization*100, fmt.Sprintf("repl%%@%gx", r.Overhead))
				b.ReportMetric(r.IDAUtilization*100, fmt.Sprintf("ida%%@%gx", r.Overhead))
			}
		}
	}
}

// BenchmarkExtStegDB measures the hidden-database extension (paper §6): row
// inserts and point lookups through a B-link tree living entirely in hidden
// pages.
func BenchmarkExtStegDB(b *testing.B) {
	store, err := vdisk.NewMemStore(64<<10, 1<<10)
	if err != nil {
		b.Fatal(err)
	}
	p := stegfs.DefaultParams()
	p.NDummy = 2
	p.DummyAvgSize = 16 << 10
	p.DeterministicKeys = true
	p.FillVolume = false
	fs, err := stegfs.Format(store, p)
	if err != nil {
		b.Fatal(err)
	}
	view := fs.NewHiddenView("bench")
	table, err := stegdb.CreatePartitionedTable(view, "bench.db", 1, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := table.Put(binary.BigEndian.AppendUint64(nil, uint64(i)), []byte("benchmark row payload")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		var k [8]byte
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint64(k[:], uint64(i%1000))
			if _, _, err := table.Get(k[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
