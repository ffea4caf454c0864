package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"stegfs/internal/blockcache"
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
// reports that run's per-op time and throughput, and the heap allocations
// speedAllocs counts. One unmeasured warm-up call primes pools, caches and
// lazily built tables.
func speedMeasure(op string, bytesPerOp int, budget time.Duration, fn func()) SpeedRow {
	fn()
	row := SpeedRow{Op: op, Bytes: bytesPerOp, AllocsPerOp: speedAllocs(fn)}
	for iters := 1; ; iters *= 2 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed < budget && iters < 1<<22 {
			continue
		}
		row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
		if bytesPerOp > 0 && elapsed > 0 {
			row.MBps = float64(bytesPerOp) * float64(iters) / elapsed.Seconds() / 1e6
		}
		return row
	}
}

// allocRuns is the number of calls one allocation count averages over, and
// allocBatches how many such counts speedAllocs takes.
const allocRuns, allocBatches = 64, 8

// speedAllocs returns fn's heap allocations per call: the least average over
// allocBatches loops of allocRuns calls, with the garbage collector paused.
// A collection empties the sync.Pools the data path recycles its buffers
// through, and their refills would count as op allocations; with the
// collector off after one more warm-up call, the count is the op's own, a
// whole number. Stray allocations still land in some loops: a pooled buffer
// left on another P after the goroutine migrated, the first growth of a map
// the op fills, and about one allocation per few hundred calls of
// sealer-new that comes from below this repository's code. None lands in
// every loop, so the least count is the op's cost. A regression that
// allocates in every call, or at least once in every allocRuns calls, shows
// in every loop. The pause covers only these short loops, not the timed one, whose
// ops may allocate far more in total.
func speedAllocs(fn func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	best := math.Inf(1)
	var before, after runtime.MemStats
	for range allocBatches {
		runtime.ReadMemStats(&before)
		for range allocRuns {
			fn()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/allocRuns)
	}
	return best
}

// stampBlocks writes v into the first bytes of every bs-byte block of buf.
// The block cache absorbs a write of the bytes a block already holds, so a
// row that rewrote the same buffer every call would time that no-op
// instead of sealing and dirtying blocks.
func stampBlocks(buf []byte, bs int, v uint64) {
	for p := 0; p < len(buf); p += bs {
		binary.LittleEndian.PutUint64(buf[p:], v)
	}
}

// speedVolume builds a small cached volume for the end-to-end rows. With
// cacheBlocks 0 the volume is cache-resident (~32 MB, fully covered by the
// block cache), so the rows measure the sealed software path — open, header
// reload, tree walk, batched cache read, per-block open/seal — rather than
// the simulated disk; a smaller cache makes the rows that cycle over more
// than it holds time the miss path instead. fill formats with FillVolume,
// which writes (and so dirties in the cache) every block once.
func speedVolume(cfg Config, cacheBlocks int, fill bool) (*stegfs.HiddenView, error) {
	bs := cfg.BlockSize
	nBlocks := int64(32<<20) / int64(bs)
	store, err := vdisk.NewMemStore(nBlocks, bs)
	if err != nil {
		return nil, err
	}
	p := cfg.Steg
	p.Seed = cfg.Seed
	p.FillVolume = fill
	p.DeterministicKeys = true
	p.NDummy = 4
	p.DummyAvgSize = int64(4 * bs)
	if cacheBlocks == 0 {
		cacheBlocks = int(nBlocks)
	}
	fs, err := stegfs.Format(store, p, stegfs.WithCache(cacheBlocks))
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

	// The block cache alone: an 8-block ReadBlocks on a bare LRU cache of
	// 1024 blocks over a MemStore. cache-hit-8 reads resident blocks, so it
	// times the hit path's lookup, copy and policy touch; cache-miss-evict-8
	// sweeps a store twice the cache's size in order, so every block it
	// reads was evicted since its last read and every call misses and
	// evicts 8 clean blocks.
	if err := speedCacheRows(bs, budget, add); err != nil {
		return nil, err
	}

	// End-to-end cached data path through a hidden file.
	v, err := speedVolume(cfg, 0, false)
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
	// The cache miss path: a second volume whose 256-block cache is smaller
	// than the eight 64 KiB files the row reads in turn, so under LRU every
	// block of a read was evicted since that file's last read, and every
	// call misses and evicts all 66 of its blocks (64 data blocks, the
	// header and a pointer block).
	mv, err := speedVolume(cfg, 256, false)
	if err != nil {
		return nil, err
	}
	missNames := make([]string, 8)
	for i := range missNames {
		missNames[i] = fmt.Sprintf("m%d", i)
		if err := mv.Create(missNames[i], fileData); err != nil {
			return nil, err
		}
	}
	var missNext int
	add(speedMeasure("cached-read-miss-64k", len(fileData), budget, func() {
		missNext = (missNext + 1) % len(missNames)
		_, _ = mv.Read(missNames[missNext])
	}))
	if err := mv.Close(); err != nil {
		return nil, err
	}

	// Every write stamps a fresh counter into each block it covers, so it
	// changes every block and the cache cannot absorb it.
	var stamp uint64
	wbuf := make([]byte, 16<<10)
	add(speedMeasure("cached-writeat-16k", len(wbuf), budget, func() {
		stamp++
		stampBlocks(wbuf, bs, stamp)
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
		stamp++
		stampBlocks(w4k, bs, stamp)
		_, _ = v.WriteAt("big", w4k, 2<<20-int64(len(w4k)))
	}))

	// stegdb over a cache-resident table shaped like perfbench's
	// stegdb-oltp: 8 partitions, 8-byte keys and 100-byte values. Get and
	// Range walk pages in place, so they allocate only the returned value
	// and per-partition snapshot state; a replace Put edits a pooled copy
	// of its leaf in place, so it allocates nothing.
	tab, err := stegdb.CreatePartitionedTable(v, "speed.db", 8, false, 0)
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
	add(speedMeasure("stegdb-put", len(val), budget, func() {
		next = (next + 7919) % dbRows
		binary.BigEndian.PutUint64(key, next)
		_ = tab.Put(key, val)
	}))
	if err := tab.Close(); err != nil {
		return nil, err
	}
	if err := v.Close(); err != nil {
		return nil, err
	}

	// A barrier over 8 dirty blocks on a volume whose format filled, and
	// so once dirtied, every block of the cache: FS.Sync must cost what is
	// dirty, not what the cache has held. Each call stamps 8 data blocks
	// of a hidden file and syncs; the unchanged bitmap is absorbed.
	sv, err := speedVolume(cfg, 0, true)
	if err != nil {
		return nil, err
	}
	sbuf := make([]byte, 8*bs)
	if err := sv.Create("s", sbuf); err != nil {
		return nil, err
	}
	add(speedMeasure("fs-sync-dirty-8", 0, budget, func() {
		stamp++
		stampBlocks(sbuf, bs, stamp)
		_, _ = sv.WriteAt("s", sbuf, 0)
		_ = sv.Sync()
	}))
	if err := sv.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// speedCacheRows adds the cache-hit-8 and cache-miss-evict-8 rows.
func speedCacheRows(bs int, budget time.Duration, add func(SpeedRow)) error {
	const capacity, batch = 1024, 8
	store, err := vdisk.NewMemStore(2*capacity, bs)
	if err != nil {
		return err
	}
	c, err := blockcache.NewWithOptions(store, blockcache.Options{Capacity: capacity, Policy: blockcache.PolicyLRU})
	if err != nil {
		return err
	}
	ns := make([]int64, batch)
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, bs)
	}
	// readFrom reads the batch of blocks starting at first.
	readFrom := func(first int64) {
		for i := range ns {
			ns[i] = first + int64(i)
		}
		_ = c.ReadBlocks(ns, bufs)
	}
	for n := int64(0); n < capacity; n += batch {
		readFrom(n) // fill the cache with blocks [0, capacity)
	}
	add(speedMeasure("cache-hit-8", batch*bs, budget, func() { readFrom(0) }))
	next := int64(capacity)
	add(speedMeasure("cache-miss-evict-8", batch*bs, budget, func() {
		readFrom(next)
		next = (next + batch) % (2 * capacity)
	}))
	return c.Close()
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
