package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"stegfs/internal/blockcache"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// setupRepeats is how many times an untraced run sets up its volume; set-up
// time is reported as the median.
const setupRepeats = 3

// counters are the exact, device-model and allocator counts of a volume.
// With one client and no background flusher they repeat bit for bit for a
// seed.
type counters struct {
	diskTime  time.Duration
	disk      vdisk.Stats
	cache     blockcache.Stats
	allocs    int64
	frees     int64
	userBytes int64
	pages     int64
	allocated int64 // allocated data-region bytes (absolute, not a delta)
	live      int64 // live user bytes (absolute)
}

func takeCounters(v *volume, w workload, userBytes int64) counters {
	cs, _ := v.fs.CacheStats()
	at := v.fs.Alloc().Stats().Totals()
	return counters{
		diskTime:  v.disk.Elapsed(),
		disk:      v.disk.Stats(),
		cache:     cs,
		allocs:    at.Allocs,
		frees:     at.Frees,
		userBytes: userBytes,
		pages:     w.pages(),
		allocated: v.allocatedBytes(),
		live:      w.liveBytes(),
	}
}

// sub turns two snapshots into the counts of the interval between them.
func (c counters) sub(o counters) counters {
	d := c
	d.diskTime -= o.diskTime
	d.disk = vdisk.Stats{
		Reads: c.disk.Reads - o.disk.Reads, Writes: c.disk.Writes - o.disk.Writes,
		SeqHits: c.disk.SeqHits - o.disk.SeqHits, Seeks: c.disk.Seeks - o.disk.Seeks,
		BytesRead: c.disk.BytesRead - o.disk.BytesRead, BytesWritten: c.disk.BytesWritten - o.disk.BytesWritten,
		BatchReads: c.disk.BatchReads - o.disk.BatchReads, BatchWrites: c.disk.BatchWrites - o.disk.BatchWrites,
		Busy: c.disk.Busy - o.disk.Busy,
	}
	d.cache = c.cache.Sub(o.cache)
	d.allocs -= o.allocs
	d.frees -= o.frees
	d.userBytes -= o.userBytes
	d.pages -= o.pages
	return d
}

// exactMetrics are the counts over the exact prefix that must repeat for a
// seed, by name.
func (c counters) exactMetrics(ops int) map[string]float64 {
	n := float64(ops)
	m := map[string]float64{
		"disk_ms_per_op":                 ms(c.diskTime) / n,
		"space_amp":                      ratio(float64(c.allocated), float64(c.live)),
		"write_amp":                      ratio(float64(c.disk.BytesWritten), float64(c.userBytes)),
		"vdisk.reads_per_op":             float64(c.disk.Reads) / n,
		"vdisk.seeks_per_op":             float64(c.disk.Seeks) / n,
		"vdisk.writes_per_op":            float64(c.disk.Writes) / n,
		"vdisk.blocks_per_batch":         ratio(float64(c.disk.Writes), float64(c.disk.BatchWrites)),
		"blockcache.hit_ratio":           c.cache.HitRate(),
		"blockcache.evictions_per_op":    float64(c.cache.Evictions) / n,
		"blockcache.writebacks_per_op":   float64(c.cache.WriteBacks) / n,
		"blockcache.flush_stalls_per_op": float64(c.cache.FlushStalls) / n,
		"alloc.allocs_per_op":            float64(c.allocs) / n,
		"alloc.frees_per_op":             float64(c.frees) / n,
		"stegdb.pages_per_kop":           float64(c.pages) / n * 1000,
	}
	return m
}

// subWindow is how long the window is cut into slices; the end-to-end read
// latencies are medians over the slices.
const subWindow = time.Second

// slice is one subWindow of a window: its op count, its length, and the
// range of read-latency samples it holds.
type slice struct {
	ops            int
	wall           time.Duration
	readLo, readHi int
}

// window is what one measured pass over the op sequence produced.
type window struct {
	ops      int
	wall     time.Duration
	slices   []slice
	lat      [numClasses][]time.Duration
	commits  []time.Duration
	failed   int
	firstErr error
	exact    counters // over the first exactOps window ops
	heapPeak uint64   // peak heap object bytes
	mallocs  uint64
	allocB   uint64
	gcs      uint32
}

func (win *window) fail(err error) {
	win.failed++
	if win.firstErr == nil {
		win.firstErr = err
	}
}

// heapSampler tracks the peak of the heap's object bytes (live objects and
// garbage not yet swept), read without stopping the world.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// setUp formats a volume, populates it and runs the warm-up ops.
func setUp(w workload, seed int64, tr *tracer) (*volume, setupTimes, error) {
	var st setupTimes
	s := w.spec()
	t0 := time.Now()
	v, err := formatVolume(s, seed, tr)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	if err := w.populate(v, tr); err != nil {
		v.close()
		return nil, st, fmt.Errorf("populate: %w", err)
	}
	t2 := time.Now()
	for i := 0; i < s.warmOps; i++ {
		_, _, _, err := w.op(i)
		if err == nil && s.commitEvery > 0 && (i+1)%s.commitEvery == 0 {
			err = w.commit()
		}
		if err != nil {
			v.close()
			return nil, st, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	st = setupTimes{format: t1.Sub(t0), populate: t2.Sub(t1), warm: time.Since(t2)}
	return v, st, nil
}

// runWindow runs window ops from the end of the warm-up until limit has
// passed, or, with fixedOps > 0, for exactly fixedOps ops. It never stops
// before the exact prefix is complete, and with a commit interval it stops
// only right after a commit, so every op of the window is committed.
func runWindow(w workload, v *volume, limit time.Duration, fixedOps int, tr *tracer) window {
	s := w.spec()
	var win window
	// Start from a collected heap with freed memory returned, so the
	// discarded set-up volumes are not collected inside the window.
	debug.FreeOSMemory()
	heap := newHeapSampler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base := takeCounters(v, w, 0)
	var user int64
	tr.enable()
	t0 := time.Now()
	deadline := t0.Add(limit)
	cut, cutOps := t0, 0
	i := 0
	for s.warmOps+i < w.length() {
		c, d, ub, err := w.op(s.warmOps + i)
		win.lat[c] = append(win.lat[c], d)
		user += ub
		if err != nil {
			win.fail(err)
		}
		i++
		if s.commitEvery > 0 && i%s.commitEvery == 0 {
			tc := time.Now()
			err := w.commit()
			win.commits = append(win.commits, time.Since(tc))
			if err != nil {
				win.fail(fmt.Errorf("commit after op %d: %w", i, err))
			}
		}
		if i == s.exactOps {
			win.exact = takeCounters(v, w, user).sub(base)
		}
		if i&255 == 0 {
			heap.sample()
		}
		if now := time.Now(); now.Sub(cut) >= subWindow {
			lo := 0
			if n := len(win.slices); n > 0 {
				lo = win.slices[n-1].readHi
			}
			win.slices = append(win.slices, slice{ops: i - cutOps, wall: now.Sub(cut), readLo: lo, readHi: len(win.lat[classRead])})
			cut, cutOps = now, i
		}
		if i >= s.exactOps && (s.commitEvery == 0 || i%s.commitEvery == 0) {
			if fixedOps > 0 && i >= fixedOps || fixedOps <= 0 && !time.Now().Before(deadline) {
				break
			}
		}
	}
	win.wall = time.Since(t0)
	tr.disable()
	heap.sample()
	runtime.ReadMemStats(&m1)
	win.ops = i
	win.heapPeak = heap.peak
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.allocB = m1.TotalAlloc - m0.TotalAlloc
	win.gcs = m1.NumGC - m0.NumGC
	if i < s.exactOps {
		win.fail(fmt.Errorf("op sequence ended after %d window ops, before the exact prefix of %d", i, s.exactOps))
	}
	return win
}

// outcome is the post-window verification of a volume.
type outcome struct {
	lost     int // acknowledged writes a remount did not read back
	problems []error
}

// finish verifies a volume after its window, unmeasured: the live
// structures, then an image taken right after the last commit returned,
// restored into a fresh store, checked with stegfs.Check and remounted to
// read every acknowledged write back. It closes v.
func finish(w workload, v *volume) outcome {
	var out outcome
	img := v.store.Snapshot()
	if err := w.verify(); err != nil {
		out.problems = append(out.problems, err)
	}
	if err := v.close(); err != nil {
		out.problems = append(out.problems, fmt.Errorf("close: %w", err))
	}
	store, err := vdisk.NewMemStore(v.store.NumBlocks(), blockSize)
	if err == nil {
		err = store.Restore(img)
	}
	if err != nil {
		out.problems = append(out.problems, err)
		return out
	}
	rep, err := stegfs.Check(store, w.checkOptions())
	switch {
	case err != nil:
		out.problems = append(out.problems, fmt.Errorf("stegfs.Check: %w", err))
	case !rep.OK():
		out.problems = append(out.problems, fmt.Errorf("stegfs.Check: %d errors, first: %s", len(rep.Errors), rep.Errors[0]))
	}
	fs, err := stegfs.Mount(store)
	if err != nil {
		out.problems = append(out.problems, fmt.Errorf("remount: %w", err))
		return out
	}
	out.lost, err = w.durable(fs)
	if err != nil {
		out.problems = append(out.problems, err)
	}
	return out
}

// result is one run's report.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	text              []string // human-readable lines printed before the JSON
}

func (r *result) printf(format string, args ...any) {
	r.text = append(r.text, fmt.Sprintf(format, args...))
}

// account folds a window and its verification into the result.
func (r *result) account(win window, out outcome) {
	r.attempted += win.ops
	r.failed += win.failed + out.lost + len(out.problems)
	if win.firstErr != nil {
		r.printf("FAILED op: %v", win.firstErr)
	}
	for _, p := range out.problems {
		r.printf("FAILED check: %v", p)
	}
	r.printf("verified: %d ops, %d failed, %d lost writes after remount, %d check problems",
		win.ops, win.failed, out.lost, len(out.problems))
}

// classMetrics are the wall-clock metrics of a window. Read latency is the
// median over the window's slices of each slice's percentile, so a few
// seconds of machine noise do not move it; the other classes are too
// sparse per slice and use the whole window.
func classMetrics(win window, storeBytes int64) map[string]float64 {
	m := map[string]float64{
		"ops_per_s":     float64(win.ops) / win.wall.Seconds(),
		"heap_peak_mib": float64(int64(win.heapPeak)-storeBytes) / (1 << 20),
	}
	for c := classWrite; c < numClasses; c++ {
		if len(win.lat[c]) == 0 {
			continue
		}
		m[classNames[c]+"_p50_ms"] = percentileMs(win.lat[c], 0.50)
		m[classNames[c]+"_p99_ms"] = percentileMs(win.lat[c], 0.99)
	}
	_, p50, p99 := sliceSeries(win)
	if len(p50) > 0 {
		m["read_p50_ms"], m["read_p99_ms"] = median(p50), median(p99)
	}
	if len(win.commits) > 0 {
		m["commit_p50_ms"] = percentileMs(win.commits, 0.50)
		m["commit_p90_ms"] = percentileMs(win.commits, 0.90)
	}
	return m
}

// sliceSeries gives each slice's throughput and read percentiles; a window
// shorter than one slice counts as one slice.
func sliceSeries(win window) (rate, p50, p99 []float64) {
	reads := win.lat[classRead]
	slices := win.slices
	if len(slices) == 0 {
		slices = []slice{{ops: win.ops, wall: win.wall, readHi: len(reads)}}
	}
	for _, sl := range slices {
		rate = append(rate, float64(sl.ops)/sl.wall.Seconds())
		if sl.readHi > sl.readLo {
			p50 = append(p50, percentileMs(reads[sl.readLo:sl.readHi], 0.50))
			p99 = append(p99, percentileMs(reads[sl.readLo:sl.readHi], 0.99))
		}
	}
	return rate, p50, p99
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// measure is the untraced run: set up setupRepeats times (the last volume
// is kept), run the window for limit, verify.
func measure(s spec, seed int64, limit time.Duration) (result, error) {
	w := newWorkload(s, seed, limit.Seconds())
	var v *volume
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if v != nil {
			if err := v.close(); err != nil {
				return result{}, err
			}
			v = nil
			runtime.GC()
		}
		var st setupTimes
		var err error
		if v, st, err = setUp(w, seed, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, st.total().Seconds())
	}
	win := runWindow(w, v, limit, 0, nil)
	out := finish(w, v)

	var r result
	r.account(win, out)
	storeBytes := s.volBlocks * blockSize
	all := classMetrics(win, storeBytes)
	for k, val := range win.exact.exactMetrics(s.exactOps) {
		all[k] = val
	}
	all["setup_s"] = median(setups)
	all["failed_frac"] = float64(r.failed) / float64(r.attempted)
	r.metrics = map[string]float64{}
	for _, k := range endToEnd {
		r.metrics[k.name] = all[k.name]
	}
	r.printf("workload %s seed %d: %d ops in %.3fs, GOMAXPROCS=%d, commits=%d, exact prefix %d ops",
		s.name, seed, win.ops, win.wall.Seconds(), runtime.GOMAXPROCS(0), len(win.commits), s.exactOps)
	rate, p50, p99 := sliceSeries(win)
	r.printf("per %v slice ops/s: %s", subWindow, joinFloats(rate, "%.0f"))
	r.printf("per %v slice read p50 ms: %s", subWindow, joinFloats(p50, "%.4f"))
	r.printf("per %v slice read p99 ms: %s", subWindow, joinFloats(p99, "%.4f"))
	r.printf("samples: read=%d write=%d scan=%d commit=%d", len(win.lat[classRead]), len(win.lat[classWrite]),
		len(win.lat[classScan]), len(win.commits))
	for _, k := range sortedKeys(all) {
		r.printf("  %-34s %14.6f", k, all[k])
	}
	return r, nil
}

// measureTraced is the traced run: an untraced pass for half of limit, then
// the same ops again on a fresh volume with every layer traced. Per-layer
// counts come from the untraced pass, times from the traced one, and the
// two passes' exact counts must agree.
func measureTraced(s spec, seed int64, limit time.Duration, spanFile string) (result, error) {
	w := newWorkload(s, seed, limit.Seconds()/2)
	v, st, err := setUp(w, seed, nil)
	if err != nil {
		return result{}, err
	}
	plain := runWindow(w, v, limit/2, 0, nil)
	if err := v.close(); err != nil {
		return result{}, err
	}
	runtime.GC()

	tr := newTracer()
	tv, _, err := setUp(w, seed, tr)
	if err != nil {
		return result{}, err
	}
	traced := runWindow(w, tv, 0, plain.ops, tr)
	out := finish(w, tv)

	var r result
	r.account(traced, out)
	if plain.failed > 0 {
		r.failed += plain.failed
		r.printf("FAILED untraced op: %v", plain.firstErr)
	}
	if traced.ops != plain.ops {
		r.failed++
		r.printf("FAILED: traced pass ran %d ops, untraced %d", traced.ops, plain.ops)
	}
	pe, te := plain.exact.exactMetrics(s.exactOps), traced.exact.exactMetrics(s.exactOps)
	for _, diff := range compareExact(s, pe, te) {
		r.failed++
		r.printf("FAILED transparency: %s", diff)
	}

	lt := analyze(tr.spans)
	n := float64(traced.ops)
	commits := float64(len(traced.commits))
	perCommit := func(x float64) float64 { return ratio(x, commits) }
	writeOps := float64(lt.count[kFsWrite] + lt.count[kFsCreate])
	m := pe
	m["vdisk.self_ms_per_op"] = ms(lt.fgDevice) / n
	m["blockcache.background_ms_per_op"] = ms(lt.bgDevice) / n
	m["stegfs.read_self_ms"] = ratio(ms(lt.self[kFsRead]), float64(lt.count[kFsRead]))
	m["stegfs.write_self_ms"] = ratio(ms(lt.self[kFsWrite]+lt.self[kFsDelete]+lt.self[kFsCreate]), writeOps)
	m["stegfs.sync_ms_per_commit"] = perCommit(ms(lt.total[kFsSync] + lt.total[kViewSync]))
	m["stegfs.readat_per_get"] = ratio(float64(lt.readAtInGet), float64(lt.count[kDbGet]))
	m["stegfs.view_self_ms_per_op"] = ms(lt.viewSelf) / n
	m["stegdb.self_ms_per_op"] = ms(lt.dbSelf) / n
	m["stegdb.commit_self_ms"] = perCommit(ms(lt.self[kDbSync]))
	m["stegdb.wal_bytes_per_commit"] = perCommit(float64(lt.walBytes))
	m["stegdb.home_bytes_per_commit"] = perCommit(float64(lt.homeBytes))
	m["stegdb.view_calls_per_commit"] = perCommit(float64(lt.viewCallsInCommit))
	pn := float64(plain.ops)
	m["go.alloc_bytes_per_op"] = float64(plain.allocB) / pn
	m["go.mallocs_per_op"] = float64(plain.mallocs) / pn
	m["go.gc_per_kop"] = float64(plain.gcs) / pn * 1000
	m["setup.format_s"] = st.format.Seconds()
	m["setup.populate_s"] = st.populate.Seconds()
	m["trace.untraced_ops_per_s"] = pn / plain.wall.Seconds()
	m["trace.traced_ops_per_s"] = n / traced.wall.Seconds()
	m["trace.slowdown"] = traced.wall.Seconds() / plain.wall.Seconds()
	e2e := classMetrics(plain, s.volBlocks*blockSize)
	e2e["write_amp"] = pe["write_amp"]
	r.metrics = map[string]float64{}
	for _, d := range perLayer {
		if name, ok := strings.CutPrefix(d.name, "e2e."); ok {
			r.metrics[d.name] = e2e[name]
		} else {
			r.metrics[d.name] = m[d.name]
		}
	}
	r.printf("workload %s seed %d traced: %d ops untraced in %.3fs, traced in %.3fs, %d spans, GOMAXPROCS=%d",
		s.name, seed, plain.ops, plain.wall.Seconds(), traced.wall.Seconds(), len(tr.spans), runtime.GOMAXPROCS(0))
	for k := kind(0); k < numKinds; k++ {
		if lt.count[k] > 0 {
			r.printf("  span %-14s n=%-8d total %10.3f ms  self %10.3f ms", kindNames[k], lt.count[k], ms(lt.total[k]), ms(lt.self[k]))
		}
	}
	for _, k := range sortedKeys(r.metrics) {
		r.printf("  %-34s %14.6f", k, r.metrics[k])
	}
	if spanFile != "" {
		if err := dump(spanFile, tr.spans); err != nil {
			return r, fmt.Errorf("write spans: %w", err)
		}
		r.printf("spans written to %s", spanFile)
	}
	return r, nil
}

// flusherTimed are the exact metrics a background flusher's scheduling
// moves: how many blocks one write-behind run batches and how often a
// writer meets the dirty cap depend on how far the flusher has got.
var flusherTimed = map[string]bool{"vdisk.blocks_per_batch": true, "blockcache.flush_stalls_per_op": true}

// compareExact lists the exact metrics on which two runs of one seed
// differ. With one client and no flusher they must match bit for bit; a
// background flusher may shift a write by a hair, so there they may differ
// by 0.1%, and the flusher-timed ones are not compared.
func compareExact(s spec, a, b map[string]float64) []string {
	flusher := s.writeBehind > 0 && s.flushers > 0
	tol := 0.0
	if flusher {
		tol = 0.001
	}
	var diffs []string
	for _, k := range sortedKeys(a) {
		if flusher && flusherTimed[k] {
			continue
		}
		if vb, ok := b[k]; !ok || !within(a[k], vb, tol) {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", k, a[k], vb))
		}
	}
	return diffs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// percentileMs is the nearest-rank q-quantile of ds, in milliseconds.
func percentileMs(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
