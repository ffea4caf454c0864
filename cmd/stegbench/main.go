// Command stegbench regenerates the tables and figures of the paper's
// evaluation (Section 5). Each experiment prints the same rows/series the
// paper reports; values are simulated-disk seconds (see internal/vdisk).
//
// Usage:
//
//	stegbench -exp all                     # everything, paper-scale
//	stegbench -exp fig7 -scale small       # one experiment, test-scale
//	stegbench -exp space -volume 1073741824 -bs 1024
//	stegbench -exp ablate-cache -json out.jsonl
//
// With -json <path>, every sweep row is also appended to <path> as one
// JSON object per line (JSON Lines), tagged with its experiment name, so
// plots and regression tracking can consume runs without scraping the
// human-readable tables.
//
// Experiments: space, fig6, fig7, fig8, fig9, ablate-abandoned,
// ablate-pool, ablate-dummy, ablate-cache, ablate-policy,
// ablate-concurrency, ablate-write-concurrency, ablate-cached-write,
// ablate-stegdb, ablate-stegdb-write, ablate-faults, ida, speed, all.
//
// The speed experiment is the odd one out: it reports wall-clock CPU
// throughput (MB/s and allocs/op) of the crypto primitives and the cached
// sealed data path, not simulated-disk seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"stegfs/internal/bench"
)

// sink, when non-nil, receives one JSON object per sweep row (-json).
var sink *jsonSink

type jsonSink struct {
	f   *os.File
	enc *json.Encoder
}

func openSink(path string) (*jsonSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &jsonSink{f: f, enc: json.NewEncoder(f)}, nil
}

// emit writes row as a single flattened JSON object with an "experiment"
// tag. No-op when -json was not given.
func emit(experiment string, row any) {
	if sink == nil {
		return
	}
	b, err := json.Marshal(row)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stegbench: -json: %v\n", err)
		os.Exit(1)
	}
	m := map[string]any{}
	if err := json.Unmarshal(b, &m); err != nil {
		// Row is not an object (e.g. a bare value); nest it instead.
		m["row"] = json.RawMessage(b)
	}
	m["experiment"] = experiment
	if err := sink.enc.Encode(m); err != nil {
		fmt.Fprintf(os.Stderr, "stegbench: -json: %v\n", err)
		os.Exit(1)
	}
}

// emitSeries flattens figure series into one object per (series, point).
func emitSeries(experiment string, series []bench.Series, xLabel, yLabel string) {
	if sink == nil {
		return
	}
	for _, s := range series {
		for _, p := range s.Points {
			emit(experiment, map[string]any{
				"series": s.Label,
				xLabel:   p.X,
				yLabel:   p.Y,
			})
		}
	}
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: space|fig6|fig7|fig8|fig9|ablate-abandoned|ablate-pool|ablate-dummy|ablate-cache|ablate-policy|ablate-concurrency|ablate-write-concurrency|ablate-cached-write|ablate-stegdb|ablate-stegdb-write|ablate-faults|ida|speed|all")
		scale    = flag.String("scale", "small", "workload scale: paper|small")
		volume   = flag.Int64("volume", 0, "override volume size in bytes")
		bs       = flag.Int("bs", 0, "override block size in bytes")
		files    = flag.Int("files", 0, "override number of files")
		ops      = flag.Int("ops", 0, "override file operations per user")
		seed     = flag.Int64("seed", 1, "workload seed")
		policy   = flag.String("cache-policy", "", "cache replacement policy for cached experiments: lru|arc|2q (default lru)")
		jsonPath = flag.String("json", "", "append one JSON object per sweep row to this file (JSON Lines)")
	)
	flag.Parse()

	if *jsonPath != "" {
		s, err := openSink(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stegbench: -json: %v\n", err)
			os.Exit(2)
		}
		sink = s
		defer s.f.Close()
	}

	var cfg bench.Config
	switch *scale {
	case "paper":
		cfg = bench.PaperConfig()
	case "small":
		cfg = bench.SmallConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *volume > 0 {
		cfg.VolumeBytes = *volume
	}
	if *bs > 0 {
		cfg.BlockSize = *bs
	}
	if *files > 0 {
		cfg.NumFiles = *files
	}
	if *ops > 0 {
		cfg.OpsPerUser = *ops
	}
	cfg.Seed = *seed
	cfg.CachePolicy = *policy

	run := func(name string, fn func(bench.Config) error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("space", runSpace)
	run("fig6", runFig6)
	run("fig7", runFig7)
	run("fig8", runFig8)
	run("fig9", runFig9)
	run("ablate-abandoned", runAblateAbandoned)
	run("ablate-pool", runAblatePool)
	run("ablate-dummy", runAblateDummy)
	run("ablate-cache", runAblateCache)
	run("ablate-policy", runAblatePolicy)
	run("ablate-concurrency", runAblateConcurrency)
	run("ablate-write-concurrency", runAblateWriteConcurrency)
	run("ablate-cached-write", runAblateCachedWrite)
	run("ablate-stegdb", runAblateStegDB)
	run("ablate-stegdb-write", runAblateStegDBWrite)
	run("ablate-faults", runAblateFaults)
	run("ida", runIDA)
	run("speed", runSpeed)
}

func runSpeed(cfg bench.Config) error {
	// Small scale keeps each row's measured window tiny so the CI smoke run
	// finishes in seconds; paper scale measures long enough to be stable.
	budget := 20 * time.Millisecond
	if cfg.VolumeBytes >= 1<<30 {
		budget = 200 * time.Millisecond
	}
	rows, err := bench.SpeedSuite(cfg, budget)
	if err != nil {
		return err
	}
	fmt.Println("Raw speed — crypto primitives and cached sealed data path")
	fmt.Println("(single goroutine, wall clock; not simulated-disk seconds):")
	for _, line := range bench.FormatSpeedRows(rows) {
		fmt.Println(line)
	}
	for _, r := range rows {
		emit("speed", r)
	}
	return nil
}

func runAblateFaults(cfg bench.Config) error {
	fmt.Println("Ablation A-F — transient device faults (create/read/rewrite hidden-file workload):")
	fmt.Println("  fault-rate  retries-max       ops   errors  goodput  dev-retries  giveups  injected  read-only  disk-sec")
	for _, maxRetries := range []int{6, 0} {
		rows, err := bench.FaultSweep(cfg, nil, maxRetries)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("  %10.3f  %11d  %8d  %7d  %6.1f%%  %11d  %7d  %8d  %9v  %8.4f\n",
				r.Rate, r.MaxRetries, r.Ops, r.OpErrors, r.Goodput*100,
				r.Retries, r.GiveUps, r.Faults, r.ReadOnly, r.SimSeconds)
			emit("ablate-faults", r)
		}
	}
	return nil
}

func runAblatePolicy(cfg bench.Config) error {
	rows, err := bench.PolicySweep(cfg, nil, nil, 0)
	if err != nil {
		return err
	}
	fmt.Println("Ablation A4b — replacement policy x capacity (scan+hot hidden-file workload):")
	fmt.Println("  policy    cache-blocks  disk-sec   speedup  hit-rate    hits  misses  writebacks")
	for _, r := range rows {
		fmt.Printf("  %-8s  %12d  %8.4f  %7.2fx  %7.1f%%  %6d  %6d  %10d\n",
			r.Policy, r.CacheBlocks, r.Seconds, r.Speedup, r.HitRate*100,
			r.Stats.Hits, r.Stats.Misses, r.Stats.WriteBacks)
		emit("ablate-policy", r)
	}
	return nil
}

func runAblateConcurrency(cfg bench.Config) error {
	rows, err := bench.ConcurrencySweep(cfg, nil, 0, 0)
	if err != nil {
		return err
	}
	printSweep("ablate-concurrency", `Ablation A5 — parallel read path (goroutines over one shared cached volume,
latency-emulated disk; wall-clock is real time, disk-sec the simulated clock):`,
		rows, "", sweepOnly)
	return nil
}

func runAblateWriteConcurrency(cfg bench.Config) error {
	rows, report, err := bench.WriteConcurrencySweep(cfg, nil, 0)
	if err != nil {
		return err
	}
	printSweep("ablate-write-concurrency", `Ablation A6 — parallel write path (goroutines over one shared uncached volume,
mixed create/rewrite/delete on distinct objects; latency-emulated disk):`,
		rows, "", sweepOnly)
	printAllocReport(report)
	emit("ablate-write-concurrency-alloc", report)
	return nil
}

func runAblateCachedWrite(cfg bench.Config) error {
	rows, report, err := bench.CachedWriteConcurrencySweep(cfg, nil, 0)
	if err != nil {
		return err
	}
	printSweep("ablate-cached-write", `Ablation A7 — cached parallel write path (goroutines over one shared volume
mounted through the write-back cache with the async flush pipeline; cold reads +
mixed create/rewrite/delete; window ends at the Sync barrier; latency-emulated disk;
sync-tail is the closing barrier alone — the elevator (C-SCAN) flusher keeps it short):`,
		rows, "  sync-tail  writebacks  batches  wbehind  stalls",
		func(r bench.CachedWriteConcurrencyRow) (bench.SweepRow, string) {
			return r.SweepRow, fmt.Sprintf("  %9.3f  %10d  %7d  %7d  %6d",
				r.SyncTailSeconds, r.WriteBacks, r.FlushBatches, r.WriteBehinds, r.FlushStalls)
		})
	printAllocReport(report)
	emit("ablate-cached-write-alloc", report)
	return nil
}

func runAblateStegDB(cfg bench.Config) error {
	rows, err := bench.StegDBConcurrencySweep(cfg, nil, 0, 0)
	if err != nil {
		return err
	}
	printSweep("ablate-stegdb", `Ablation A8 — concurrent hidden database (goroutines of mixed Get/Put/Delete/
Scan over ONE shared stegdb table on a cached, latency-emulated volume; scans
read pager snapshots; write-back Sync runs after each window, outside wall-sec):`,
		rows, "", sweepOnly)
	return nil
}

func runAblateStegDBWrite(cfg bench.Config) error {
	rows, err := bench.StegDBWriteSweep(cfg, nil, 0, 0)
	if err != nil {
		return err
	}
	printSweep("ablate-stegdb-write", `Ablation A9 — stegdb write scalability (goroutines of a write-heavy mixed
Put/Delete/Get/Range op set over ONE shared PARTITIONED hidden table — B-link
tree writers, hash-sharded partitions, group-commit Sync after each window,
outside wall-sec; cached, latency-emulated volume; identical op set per level):`,
		rows, "  partitions",
		func(r bench.StegDBWriteRow) (bench.SweepRow, string) {
			return r.SweepRow, fmt.Sprintf("  %10d", r.Partitions)
		})
	return nil
}

// printSweep prints one A5–A9 table — the shared SweepRow columns (hit-rate
// only when the sweep is cached), then the experiment's own columns that
// split returns under extraHdr — and emits every row to the JSON sink.
func printSweep[R any](exp, title string, rows []R, extraHdr string, split func(R) (bench.SweepRow, string)) {
	cached := false
	for _, r := range rows {
		s, _ := split(r)
		cached = cached || s.HitRate > 0
	}
	fmt.Println(title)
	hdr := "  goroutines  wall-sec     ops/s   speedup  disk-sec"
	if cached {
		hdr += "  hit-rate"
	}
	fmt.Println(hdr + extraHdr)
	for _, r := range rows {
		s, extra := split(r)
		line := fmt.Sprintf("  %10d  %8.3f  %8.1f  %7.2fx  %8.3f",
			s.Goroutines, s.WallSeconds, s.OpsPerSec, s.Speedup, s.DiskSeconds)
		if cached {
			line += fmt.Sprintf("  %7.1f%%", s.HitRate*100)
		}
		fmt.Println(line + extra)
		emit(exp, r)
	}
}

// sweepOnly is printSweep's split for rows with no columns of their own.
func sweepOnly(r bench.SweepRow) (bench.SweepRow, string) { return r, "" }

// printAllocReport prints the sharded allocator's group-skew summary under a
// concurrency sweep's table.
func printAllocReport(rep bench.AllocReport) {
	contPct := 0.0
	if rep.Locks > 0 {
		contPct = 100 * float64(rep.Contended) / float64(rep.Locks)
	}
	fmt.Printf("  alloc groups=%d allocs=%d frees=%d lock-contention=%d/%d (%.2f%%) per-group allocs min/mean/max=%d/%.1f/%d\n",
		rep.Groups, rep.Allocs, rep.Frees, rep.Contended, rep.Locks, contPct,
		rep.MinAllocs, rep.MeanAllocs, rep.MaxAllocs)
}

func runAblateCache(cfg bench.Config) error {
	rows, err := bench.CacheSweep(cfg, nil, 0, 0)
	if err != nil {
		return err
	}
	fmt.Println("Ablation A4 — block cache capacity (repeated-read hidden-file workload):")
	fmt.Println("  cache-blocks  disk-sec   speedup  hit-rate   hits  misses  writebacks")
	for _, r := range rows {
		fmt.Printf("  %12d  %8.4f  %7.2fx  %7.1f%%  %5d  %6d  %10d\n",
			r.CacheBlocks, r.Seconds, r.Speedup, r.HitRate*100,
			r.Stats.Hits, r.Stats.Misses, r.Stats.WriteBacks)
		emit("ablate-cache", r)
	}
	return nil
}

func runIDA(cfg bench.Config) error {
	rows := bench.IDAComparison(cfg, nil, 4)
	fmt.Println("Extension E-IDA — replication vs Rabin IDA at equal overhead:")
	for _, line := range bench.FormatIDARows(rows) {
		fmt.Println(line)
	}
	for _, r := range rows {
		emit("ida", r)
	}
	return nil
}

func runSpace(cfg bench.Config) error {
	rows, err := bench.SpaceTable(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Effective space utilization (§5.2):")
	for _, r := range rows {
		fmt.Printf("  %-10s %6.1f%%   %s\n", r.Scheme, r.Utilization*100, r.Note)
		emit("space", r)
	}
	return nil
}

func runFig6(cfg bench.Config) error {
	series := bench.StegRandSpaceCurve(cfg, nil, nil)
	fmt.Println("Figure 6 — StegRand space utilization vs replication factor:")
	printSeries(series, "repl", "util")
	emitSeries("fig6", series, "repl", "util")
	return nil
}

func runFig7(cfg bench.Config) error {
	readS, writeS, err := bench.ConcurrencyCurve(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("Figure 7(a) — read access time (s) vs concurrent users:")
	printSeries(readS, "users", "sec")
	emitSeries("fig7a", readS, "users", "sec")
	fmt.Println("Figure 7(b) — write access time (s) vs concurrent users:")
	printSeries(writeS, "users", "sec")
	emitSeries("fig7b", writeS, "users", "sec")
	return nil
}

func runFig8(cfg bench.Config) error {
	sizes := scaledFig8Sizes(cfg)
	readS, writeS, err := bench.FileSizeCurve(cfg, sizes, 16)
	if err != nil {
		return err
	}
	fmt.Println("Figure 8(a) — normalized read time (s/KB) vs file size (KB):")
	printSeries(readS, "KB", "s/KB")
	emitSeries("fig8a", readS, "kb", "sPerKB")
	fmt.Println("Figure 8(b) — normalized write time (s/KB) vs file size (KB):")
	printSeries(writeS, "KB", "s/KB")
	emitSeries("fig8b", writeS, "kb", "sPerKB")
	return nil
}

// scaledFig8Sizes keeps the Figure 8 sweep inside the configured file-size
// range when running at reduced scale.
func scaledFig8Sizes(cfg bench.Config) []int {
	if cfg.FileHi >= 2<<20 {
		return nil // paper scale: use the figure's own axis
	}
	hiKB := int(cfg.FileHi >> 10)
	var out []int
	for f := 1; f <= 10; f++ {
		out = append(out, hiKB*f/10)
	}
	return out
}

func runFig9(cfg bench.Config) error {
	readS, writeS, err := bench.BlockSizeCurve(cfg, nil, 0)
	if err != nil {
		return err
	}
	fmt.Println("Figure 9(a) — serial read access time (s) vs block size (KB):")
	printSeries(readS, "KB", "sec")
	emitSeries("fig9a", readS, "kb", "sec")
	fmt.Println("Figure 9(b) — serial write access time (s) vs block size (KB):")
	printSeries(writeS, "KB", "sec")
	emitSeries("fig9b", writeS, "kb", "sec")
	return nil
}

func runAblateAbandoned(cfg bench.Config) error {
	rows, err := bench.AbandonedSweep(cfg, nil, 16)
	if err != nil {
		return err
	}
	fmt.Println("Ablation A1 — abandoned-block percentage:")
	fmt.Println("  pct%   util%   candidates  hidden  guesswork")
	for _, r := range rows {
		fmt.Printf("  %4.0f  %6.1f  %10d  %6d  %9.2f\n",
			r.PctAbandoned*100, r.Utilization*100, r.Candidates, r.HiddenBlocks, r.GuessWork)
		emit("ablate-abandoned", r)
	}
	return nil
}

func runAblatePool(cfg bench.Config) error {
	rows, err := bench.FreePoolSweep(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("Ablation A2 — hidden-file free-pool size:")
	fmt.Println("  FreeMax  attack-precision  create-sec")
	for _, r := range rows {
		fmt.Printf("  %7d  %16.3f  %10.4f\n", r.FreeMax, r.AttackPrecision, r.CreateSeconds)
		emit("ablate-pool", r)
	}
	return nil
}

func runAblateDummy(cfg bench.Config) error {
	rows, err := bench.DummySweep(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("Ablation A3 — dummy hidden files:")
	fmt.Println("  NDummy  attack-precision  candidates")
	for _, r := range rows {
		fmt.Printf("  %6d  %16.3f  %10d\n", r.NDummy, r.AttackPrecision, r.Candidates)
		emit("ablate-dummy", r)
	}
	return nil
}

// printSeries renders series as aligned columns, one row per X value.
func printSeries(series []bench.Series, xLabel, yLabel string) {
	if len(series) == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %8s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "  %12s", s.Label)
	}
	fmt.Println(b.String())
	for i := range series[0].Points {
		b.Reset()
		fmt.Fprintf(&b, "  %8.4g", series[0].Points[i].X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "  %12.5g", s.Points[i].Y)
			}
		}
		fmt.Println(b.String())
	}
	_ = yLabel
}
