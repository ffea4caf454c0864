package bench

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"stegfs/internal/sgcrypto"
	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// SpeedRow is one line of the raw-speed table (-exp speed): a crypto or
// data-path operation with its single-goroutine throughput and heap cost.
// Unlike the rest of the suite these are wall-clock numbers, not simulated
// disk seconds — the point is the CPU cost of the sealed data path itself.
type SpeedRow struct {
	Op          string  `json:"op"`
	Bytes       int     `json:"bytes"`
	NsPerOp     float64 `json:"nsPerOp"`
	MBps        float64 `json:"mbps"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// speedMeasure times fn until one doubling run lasts at least budget, then
// reports that run's per-op time, throughput and heap allocations. One
// unmeasured warm-up call primes pools, caches and lazily built tables.
func speedMeasure(op string, bytesPerOp int, budget time.Duration, fn func()) SpeedRow {
	fn()
	var before, after runtime.MemStats
	for iters := 1; ; iters *= 2 {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed < budget && iters < 1<<22 {
			continue
		}
		row := SpeedRow{
			Op:          op,
			Bytes:       bytesPerOp,
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		}
		if bytesPerOp > 0 && elapsed > 0 {
			row.MBps = float64(bytesPerOp) * float64(iters) / elapsed.Seconds() / 1e6
		}
		return row
	}
}

// speedVolume builds a small cached volume for the end-to-end rows. The
// volume is deliberately cache-resident (~32 MB, fully covered by the block
// cache) so the rows measure the sealed software path — open, header reload,
// tree walk, batched cache read, per-block open/seal — rather than the
// simulated disk.
func speedVolume(cfg Config) (*stegfs.HiddenView, error) {
	bs := cfg.BlockSize
	nBlocks := int64(32<<20) / int64(bs)
	store, err := vdisk.NewMemStore(nBlocks, bs)
	if err != nil {
		return nil, err
	}
	p := cfg.Steg
	p.Seed = cfg.Seed
	p.FillVolume = false
	p.DeterministicKeys = true
	p.NDummy = 4
	p.DummyAvgSize = int64(4 * bs)
	fs, err := stegfs.Format(store, p, stegfs.WithCache(int(nBlocks)))
	if err != nil {
		return nil, err
	}
	return fs.NewHiddenView("speed"), nil
}

// SpeedSuite measures the crypto primitives and the cached end-to-end data
// path. budget is the minimum measured duration per row; CI smoke passes a
// tiny budget, interactive runs a larger one for stable numbers.
func SpeedSuite(cfg Config, budget time.Duration) ([]SpeedRow, error) {
	bs := cfg.BlockSize
	fak, err := sgcrypto.NewFAK()
	if err != nil {
		return nil, err
	}
	sealer, err := sgcrypto.NewSealer("bench/speed", fak)
	if err != nil {
		return nil, err
	}
	var rows []SpeedRow
	add := func(r SpeedRow) { rows = append(rows, r) }

	// Per-block sealing: the unit of every data-block write and of cache
	// misses on the read path.
	src := make([]byte, bs)
	dst := make([]byte, bs)
	for i := range src {
		src[i] = byte(i)
	}
	add(speedMeasure("seal-block", bs, budget, func() {
		_ = sealer.Seal(7, dst, src)
	}))
	add(speedMeasure("open-block", bs, budget, func() {
		_ = sealer.Open(7, dst, src)
	}))

	// Sealer construction: the fixed cost of a header probe step.
	add(speedMeasure("sealer-new", 0, budget, func() {
		_, _ = sgcrypto.NewSealer("bench/speed", fak)
	}))

	// Random filler: every freed or formatted block passes through this.
	filler := sgcrypto.NewRandomFiller(fak)
	add(speedMeasure("filler-fill", bs, budget, func() {
		filler.Fill(dst)
	}))

	// End-to-end cached data path through a hidden file.
	v, err := speedVolume(cfg)
	if err != nil {
		return nil, err
	}
	fileData := make([]byte, 64<<10)
	for i := range fileData {
		fileData[i] = byte(i * 7)
	}
	if err := v.Create("f", fileData); err != nil {
		return nil, err
	}
	rbuf := make([]byte, 4096)
	add(speedMeasure("cached-readat-4k", len(rbuf), budget, func() {
		_, _ = v.ReadAt("f", rbuf, 4096)
	}))
	rbig := make([]byte, 64<<10)
	add(speedMeasure("cached-readat-64k", len(rbig), budget, func() {
		_, _ = v.ReadAt("f", rbig, 0)
	}))
	add(speedMeasure("cached-read-64k", len(fileData), budget, func() {
		_, _ = v.Read("f")
	}))
	wbuf := make([]byte, 16<<10)
	add(speedMeasure("cached-writeat-16k", len(wbuf), budget, func() {
		_, _ = v.WriteAt("f", wbuf, 0)
	}))

	// A 4 KiB WriteAt at the end of a 2 MiB hidden file: at 1 KiB blocks
	// the span lies deep in the double-indirect region, so the row times
	// mapping just the span rather than the whole pointer tree.
	if err := v.Create("big", make([]byte, 2<<20)); err != nil {
		return nil, err
	}
	w4k := make([]byte, 4096)
	add(speedMeasure("cached-writeat-4k-2m", len(w4k), budget, func() {
		_, _ = v.WriteAt("big", w4k, 2<<20-int64(len(w4k)))
	}))

	// stegdb reads over a cache-resident table shaped like perfbench's
	// stegdb-oltp: 8 partitions with a hash index, 8-byte keys and 100-byte
	// values. Get and Range walk pages in place, so they allocate only the
	// returned value and per-partition snapshot state.
	tab, err := stegdb.CreatePartitionedTable(v, "speed.db", 8, true, 256)
	if err != nil {
		return nil, err
	}
	const dbRows = 2000
	val := make([]byte, 100)
	for i := uint64(0); i < dbRows; i++ {
		if err := tab.Put(binary.BigEndian.AppendUint64(nil, i), val); err != nil {
			return nil, err
		}
	}
	if err := tab.Sync(); err != nil {
		return nil, err
	}
	key, hi := make([]byte, 8), make([]byte, 8)
	var next uint64
	add(speedMeasure("stegdb-get", len(val), budget, func() {
		next = (next + 7919) % dbRows
		binary.BigEndian.PutUint64(key, next)
		_, _, _ = tab.Get(key)
	}))
	add(speedMeasure("stegdb-range-50", 50*len(val), budget, func() {
		next = (next + 7919) % (dbRows - 50)
		binary.BigEndian.PutUint64(key, next)
		binary.BigEndian.PutUint64(hi, next+50)
		_ = tab.Range(key, hi, func(k, v []byte) bool { return true })
	}))
	if err := tab.Close(); err != nil {
		return nil, err
	}
	if err := v.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatSpeedRows renders the table body for cmd/stegbench.
func FormatSpeedRows(rows []SpeedRow) []string {
	out := []string{fmt.Sprintf("  %-20s %8s %12s %10s %10s", "op", "bytes", "ns/op", "MB/s", "allocs/op")}
	for _, r := range rows {
		mbps := "-"
		if r.MBps > 0 {
			mbps = fmt.Sprintf("%.1f", r.MBps)
		}
		out = append(out, fmt.Sprintf("  %-20s %8d %12.0f %10s %10.1f",
			r.Op, r.Bytes, r.NsPerOp, mbps, r.AllocsPerOp))
	}
	return out
}
