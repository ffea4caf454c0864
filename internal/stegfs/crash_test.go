package stegfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"stegfs/internal/vdisk"
)

// Crash-consistency harness: the volume sits on a vdisk.FaultStore armed
// with a clean cut (TearAfter with a zero-width window), which silently
// drops every device write after the cut point — a power cut that strikes
// mid-Sync. The tests pin FS.Sync's data-before-metadata barrier
// WITH the write-behind pipeline and its background flusher active: no cut
// point may ever leave the on-device superblock/bitmap referencing state
// whose data never reached the device.

const (
	crashBlocks   = 2048
	crashBS       = 512
	crashFiles    = 6
	crashWBehind  = 8 // small high-water: the background flusher runs mid-scenario
	crashCacheCap = 256
)

func crashParams() Params {
	p := DefaultParams()
	p.Seed = 42
	p.FillVolume = false
	p.DeterministicKeys = true
	p.NDummy = 1
	p.DummyAvgSize = 2 * crashBS
	p.PctAbandoned = 0.02
	p.MaxPlainFiles = 16
	return p
}

func crashPayload(i int, tag byte) []byte {
	buf := make([]byte, crashBS) // exactly one block: a surviving block is old or new, never torn
	for j := range buf {
		buf[j] = tag ^ byte(i*31) ^ byte(j)
	}
	return buf
}

// runCrashScenario formats a cached volume with write-behind + background
// flusher, checkpoints a set of hidden files with Sync, rewrites them all
// in place (and creates two uncheckpointed files), arms the cut cutAt
// accepted writes into the final Sync window, runs that Sync, and returns
// the surviving raw image plus the accepted-write count of the window.
// cutAt < 0 leaves the cut disarmed (the probe run measuring the window).
func runCrashScenario(t *testing.T, cutAt int64, flushWorkers int) (img []byte, windowWrites int64) {
	t.Helper()
	mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
	if err != nil {
		t.Fatal(err)
	}
	cs := vdisk.NewFaultStore(mem, 1)
	fs, err := Format(cs, crashParams(),
		WithCache(crashCacheCap), WithWriteBehind(crashWBehind, flushWorkers))
	if err != nil {
		t.Fatal(err)
	}
	view := fs.NewHiddenView("crash")
	for i := 0; i < crashFiles; i++ {
		if err := view.Create(fmt.Sprintf("f%d", i), crashPayload(i, 0xA0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil { // the checkpoint every cut must preserve
		t.Fatal(err)
	}

	// Mutation phase: in-place rewrites of every checkpointed file plus two
	// fresh (uncheckpointed) creates, all riding the async pipeline.
	for i := 0; i < crashFiles; i++ {
		if err := view.Write(fmt.Sprintf("f%d", i), crashPayload(i, 0xB0)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 2; j++ {
		if err := view.Create(fmt.Sprintf("new%d", j), crashPayload(j, 0xC0)); err != nil {
			t.Fatal(err)
		}
	}

	pre := cs.Writes()
	if cutAt >= 0 {
		cs.TearAfter(cutAt, 0)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync with cut at %d: %v", cutAt, err)
	}
	img, window := mem.Snapshot(), cs.Writes()-pre
	// Stop the mount's background flusher (its writes land past the cut and
	// after the snapshot, so they cannot perturb the crash image).
	if err := fs.Close(); err != nil {
		t.Fatalf("close after cut %d: %v", cutAt, err)
	}
	return img, window
}

// fsckCrashImage runs the offline checker over a surviving image, keyed for
// the checkpointed files. Only checkpointed objects are discoverable after a
// crash (an unsynced create's header block is free in the surviving bitmap,
// so the probe's free-block stop hides it), so those are exactly the keys
// fsck gets — and with them, every cut point must yield a clean report.
func fsckCrashImage(t *testing.T, img []byte, cutAt int64) {
	t.Helper()
	mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Restore(img); err != nil {
		t.Fatal(err)
	}
	names := make([]string, crashFiles)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	rep, err := Check(mem, CheckOptions{ViewFiles: map[string][]string{"crash": names}})
	if err != nil {
		t.Fatalf("cut %d: fsck: %v", cutAt, err)
	}
	if !rep.OK() {
		t.Fatalf("cut %d: fsck found inconsistencies:\n%s", cutAt, rep.Summary())
	}
	if rep.HiddenChecked != crashFiles {
		t.Fatalf("cut %d: fsck verified %d/%d checkpointed files", cutAt, rep.HiddenChecked, crashFiles)
	}
}

// verifyCrashImage remounts a surviving image and checks the barrier's
// promise: every checkpointed file reads back whole — old or new content,
// never garbage — and keeps doing so after heavy post-recovery churn
// re-allocates whatever the surviving bitmap says is free. The image must
// also pass the offline checker before any recovery churn touches it.
func verifyCrashImage(t *testing.T, img []byte, cutAt int64) {
	t.Helper()
	fsckCrashImage(t, img, cutAt)
	mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Restore(img); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(mem)
	if err != nil {
		t.Fatalf("cut %d: remount failed: %v", cutAt, err)
	}
	view := fs.NewHiddenView("crash")
	// FAKs live only in the creating view; re-derive them (DeterministicKeys).
	for i := 0; i < crashFiles; i++ {
		name := fmt.Sprintf("f%d", i)
		if err := view.Adopt(name); err != nil {
			t.Fatalf("cut %d: checkpointed file %s lost: %v", cutAt, name, err)
		}
	}
	check := func(phase string) {
		for i := 0; i < crashFiles; i++ {
			name := fmt.Sprintf("f%d", i)
			got, err := view.Read(name)
			if err != nil {
				t.Fatalf("cut %d (%s): checkpointed file %s unreadable: %v", cutAt, phase, name, err)
			}
			if !bytes.Equal(got, crashPayload(i, 0xA0)) && !bytes.Equal(got, crashPayload(i, 0xB0)) {
				t.Fatalf("cut %d (%s): file %s is neither old nor new content", cutAt, phase, name)
			}
		}
	}
	check("remount")
	// Churn: hammer allocation from the surviving bitmap. If any surviving
	// metadata referenced blocks whose data never hit the device — or worse,
	// marked live blocks free — this re-allocation storm would overwrite a
	// checkpointed file's blocks and the recheck below would catch it.
	for j := 0; j < 24; j++ {
		if err := view.Create(fmt.Sprintf("churn%d", j), crashPayload(j, 0xD0)); err != nil {
			t.Fatalf("cut %d: churn create: %v", cutAt, err)
		}
	}
	for j := 0; j < 8; j++ {
		if err := fs.Create(fmt.Sprintf("plain%d", j), crashPayload(j, 0xE0)); err != nil {
			t.Fatalf("cut %d: churn plain create: %v", cutAt, err)
		}
	}
	if err := fs.TickDummies(); err != nil {
		t.Fatalf("cut %d: dummy tick after recovery: %v", cutAt, err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("cut %d: sync after churn: %v", cutAt, err)
	}
	check("post-churn")
}

// TestSyncCrashCutSweep sweeps the cut point across the entire Sync write
// window (and past it): wherever the power fails — before the data flush,
// mid-flush, between the data flush and the superblock/bitmap write, or
// mid-metadata — the remounted volume must serve every checkpointed hidden
// file intact, even after churn.
func TestSyncCrashCutSweep(t *testing.T) {
	// Probe run: measure the window with the cut disarmed. The async flusher
	// makes the exact count vary slightly run to run, so the sweep extends a
	// little past the probe's answer; every run checks its own invariant.
	_, window := runCrashScenario(t, -1, 1)
	if window == 0 {
		t.Fatal("probe run saw no writes in the Sync window")
	}
	for cut := int64(0); cut <= window+2; cut++ {
		img, _ := runCrashScenario(t, cut, 1)
		verifyCrashImage(t, img, cut)
	}
}

// TestSyncCrashMultiWorker repeats the boundary cuts with a multi-worker
// flush pipeline, where batched runs complete out of order.
func TestSyncCrashMultiWorker(t *testing.T) {
	_, window := runCrashScenario(t, -1, 4)
	for _, cut := range []int64{0, 1, window / 2, window - 1, window} {
		if cut < 0 {
			continue
		}
		img, _ := runCrashScenario(t, cut, 4)
		verifyCrashImage(t, img, cut)
	}
}

// runTornScenario is runCrashScenario on a vdisk.FaultStore armed with
// TearAfter instead of a clean cut: the final Sync's write stream accepts
// acceptAt writes, then a window of coin-flipped writes lands partially (in
// any combination), then everything is dropped. This models a dying device
// reordering or losing the tail of a batch rather than stopping cleanly —
// per-block atomicity holds, cross-block ordering does not.
func runTornScenario(t *testing.T, acceptAt int64, window int, seed int64) []byte {
	t.Helper()
	mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
	if err != nil {
		t.Fatal(err)
	}
	fstore := vdisk.NewFaultStore(mem, seed)
	fs, err := Format(fstore, crashParams(),
		WithCache(crashCacheCap), WithWriteBehind(crashWBehind, 1))
	if err != nil {
		t.Fatal(err)
	}
	view := fs.NewHiddenView("crash")
	for i := 0; i < crashFiles; i++ {
		if err := view.Create(fmt.Sprintf("f%d", i), crashPayload(i, 0xA0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashFiles; i++ {
		if err := view.Write(fmt.Sprintf("f%d", i), crashPayload(i, 0xB0)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 2; j++ {
		if err := view.Create(fmt.Sprintf("new%d", j), crashPayload(j, 0xC0)); err != nil {
			t.Fatal(err)
		}
	}
	if acceptAt >= 0 {
		fstore.TearAfter(acceptAt, window)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync torn at %d+%d: %v", acceptAt, window, err)
	}
	img := mem.Snapshot()
	// The flusher's post-snapshot writes all fall past the torn window and
	// are silently dropped, so Close cannot perturb the image.
	if err := fs.Close(); err != nil {
		t.Fatalf("close after tear %d: %v", acceptAt, err)
	}
	return img
}

// TestSyncTornBatchSweep slides a torn window across the whole Sync write
// stream: every partial commit of the window — not just a clean prefix —
// must leave an image that passes fsck and serves every checkpointed file
// old-or-new. This leans on same-shape rewrites being byte-identical at the
// header and single-block payloads being per-block atomic.
func TestSyncTornBatchSweep(t *testing.T) {
	// Probe: measure the Sync window with tearing disarmed.
	_, window := runCrashScenario(t, -1, 1)
	if window == 0 {
		t.Fatal("probe run saw no writes in the Sync window")
	}
	const tornWindow = 8
	for accept := int64(0); accept <= window+2; accept += 2 {
		// Vary the seed with the cut point so the window's commit/drop
		// pattern differs across sweep positions.
		img := runTornScenario(t, accept, tornWindow, 1000+accept)
		verifyCrashImage(t, img, accept)
	}
}

// TestSyncWriteOrderDataBeforeMetadata pins the barrier at the device-write
// level: within one Sync's accepted-write stream, every data-region write
// precedes the first superblock/bitmap write. With the background flusher
// active this is exactly the property the cut sweep relies on. The cache
// absorbs rewrites of unchanged blocks, so the second round also creates a
// file: its allocation changes the bitmap, whose write must then follow
// the data.
func TestSyncWriteOrderDataBeforeMetadata(t *testing.T) {
	mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
	if err != nil {
		t.Fatal(err)
	}
	cs := vdisk.NewFaultStore(mem, 1)
	fs, err := Format(cs, crashParams(), WithCache(crashCacheCap), WithWriteBehind(crashWBehind))
	if err != nil {
		t.Fatal(err)
	}
	view := fs.NewHiddenView("crash")
	for i := 0; i < crashFiles; i++ {
		if err := view.Create(fmt.Sprintf("f%d", i), crashPayload(i, 0xA0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashFiles; i++ {
		if err := view.Write(fmt.Sprintf("f%d", i), crashPayload(i, 0xB0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := view.Create("new0", crashPayload(0, 0xC0)); err != nil {
		t.Fatal(err)
	}
	cs.StartTrace()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	trace := cs.StopTrace()
	if len(trace) == 0 {
		t.Fatal("Sync issued no device writes")
	}
	dataStart := fs.DataStart()
	metaSeen := false
	for i, b := range trace {
		isMeta := b < dataStart // superblock, bitmap region, central directory
		if isMeta {
			metaSeen = true
			continue
		}
		if metaSeen {
			t.Fatalf("data-region block %d written at position %d AFTER metadata in the Sync stream: %v", b, i, trace)
		}
	}
	if !metaSeen {
		t.Fatal("Sync stream carried no superblock/bitmap write")
	}
}

// syncStore records the order of its block writes and Syncs. A Sync is
// logged as block -1.
type syncStore struct {
	vdisk.Store
	mu  sync.Mutex
	log []int64
}

func (s *syncStore) WriteBlock(n int64, buf []byte) error {
	s.mu.Lock()
	s.log = append(s.log, n)
	s.mu.Unlock()
	return s.Store.WriteBlock(n, buf)
}

func (s *syncStore) Sync() error {
	s.mu.Lock()
	s.log = append(s.log, -1)
	s.mu.Unlock()
	return nil
}

func (s *syncStore) take() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.log
	s.log = nil
	return log
}

// TestSyncBarrierReachesDevice: FS.Sync makes the data durable with a device
// Sync before it writes its first metadata block, and ends with a Sync
// covering the metadata writes — on cached and uncached mounts alike. The
// second round creates a file, so the bitmap changes and must be written.
// An uncached mount rewrites every metadata block and starts at the
// superblock (block 0); a cached mount writes only the metadata blocks
// that changed, so the first write below DataStart marks its metadata.
// The cached mount is also run over the timing simulator (vdisk.Disk),
// which must pass each barrier through to its store.
func TestSyncBarrierReachesDevice(t *testing.T) {
	cachedMeta := func(b, dataStart int64) bool { return b >= 0 && b < dataStart }
	for _, tc := range []struct {
		name   string
		opts   []Option
		isMeta func(b, dataStart int64) bool
		disk   bool // mount through a vdisk.Disk over the store
	}{
		{"uncached", nil, func(b, _ int64) bool { return b == 0 }, false},
		{"cached", []Option{WithCache(crashCacheCap), WithWriteBehind(crashWBehind)}, cachedMeta, false},
		{"cached-over-disk", []Option{WithCache(crashCacheCap), WithWriteBehind(crashWBehind)}, cachedMeta, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, err := vdisk.NewMemStore(crashBlocks, crashBS)
			if err != nil {
				t.Fatal(err)
			}
			st := &syncStore{Store: mem}
			var dev vdisk.Device = st
			if tc.disk {
				dev = vdisk.NewDisk(st, vdisk.DefaultGeometry())
			}
			fs, err := Format(dev, crashParams(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			view := fs.NewHiddenView("crash")
			for i := 0; i < crashFiles; i++ {
				if err := view.Create(fmt.Sprintf("f%d", i), crashPayload(i, 0xA0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			st.take()
			for i := 0; i < crashFiles; i++ {
				if err := view.Write(fmt.Sprintf("f%d", i), crashPayload(i, 0xB0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := view.Create("new0", crashPayload(0, 0xC0)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			log := st.take()
			meta, lastData := -1, -1
			for i, b := range log {
				if tc.isMeta(b, fs.DataStart()) && meta < 0 {
					meta = i
				}
				if b >= fs.DataStart() {
					lastData = i
				}
			}
			if meta < 0 || lastData < 0 {
				t.Fatalf("no metadata or data write in %v", log)
			}
			if lastData > meta {
				t.Fatalf("data block written at %d after the first metadata write at %d: %v", lastData, meta, log)
			}
			synced := false
			for _, b := range log[lastData:meta] {
				synced = synced || b == -1
			}
			if !synced {
				t.Fatalf("no Sync between the last data write (%d) and the first metadata write (%d): %v", lastData, meta, log)
			}
			if log[len(log)-1] != -1 {
				t.Fatalf("FS.Sync did not end with a device Sync: %v", log)
			}
		})
	}
}
