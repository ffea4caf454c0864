package stegfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"stegfs/internal/fsapi"
	"stegfs/internal/vdisk"
)

// The tests in this file pin the parallel write path: mutations of distinct
// hidden objects — and plain files — run concurrently over the sharded
// allocator with no whole-volume allocation lock. All of them are meant to
// run under -race.

// TestParallelDistinctObjectWrites: each goroutine owns a disjoint set of
// hidden files and churns them through the full mutation mix — in-place
// rewrite, delete, re-create, rewrite — through one shared view. Every
// object must come out with exactly its final payload, and the volume must
// not leak blocks across the churn.
func TestParallelDistinctObjectWrites(t *testing.T) {
	fs, _ := newTestFS(t, 32768, 512, func(p *Params) { p.DeterministicKeys = true })
	view := fs.NewHiddenView("u")
	const workers = 8
	const objsPerWorker = 3
	const rounds = 4
	payload := func(w, o, round int) []byte {
		return mkPayload(2000+o*512, byte(1+w*16+o*4+round%3))
	}
	for w := 0; w < workers; w++ {
		for o := 0; o < objsPerWorker; o++ {
			if err := view.Create(fmt.Sprintf("w%d/f%d", w, o), payload(w, o, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	free0 := fs.FreeBlocks()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				for o := 0; o < objsPerWorker; o++ {
					name := fmt.Sprintf("w%d/f%d", w, o)
					if err := view.Write(name, payload(w, o, r)); err != nil {
						errs <- fmt.Errorf("%s rewrite %d: %w", name, r, err)
						return
					}
					if err := view.Delete(name); err != nil {
						errs <- fmt.Errorf("%s delete %d: %w", name, r, err)
						return
					}
					if err := view.Create(name, payload(w, o, r)); err != nil {
						errs <- fmt.Errorf("%s re-create %d: %w", name, r, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for o := 0; o < objsPerWorker; o++ {
			name := fmt.Sprintf("w%d/f%d", w, o)
			got, err := view.Read(name)
			if err != nil {
				t.Fatalf("%s after churn: %v", name, err)
			}
			if !bytes.Equal(got, payload(w, o, rounds)) {
				t.Fatalf("%s corrupted after churn", name)
			}
		}
	}
	// Churn is create/delete-balanced per object; pools may differ in fill
	// but never exceed FreeMax, so the free count must sit within the pool
	// slack of where it started.
	slack := int64(workers*objsPerWorker*fs.params.FreeMax) + 8
	if free1 := fs.FreeBlocks(); free1 < free0-slack || free1 > free0+slack {
		t.Fatalf("block leak across churn: free %d -> %d (slack %d)", free0, free1, slack)
	}
}

// TestPlainHiddenWriteInterleave: plain-file mutators and hidden-file
// writers share the allocator groups; running them concurrently must leave
// every file intact on both sides of the namespace.
func TestPlainHiddenWriteInterleave(t *testing.T) {
	fs, _ := newTestFS(t, 32768, 512, nil)
	view := fs.NewHiddenView("u")
	const rounds = 12
	hidden := mkPayload(5000, 0x21)
	plainA := mkPayload(3000, 0x42)
	plainB := mkPayload(3000, 0x43)
	if err := view.Create("h", hidden); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() { // hidden writer
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if err := view.Write("h", hidden); err != nil {
				errs <- fmt.Errorf("hidden write %d: %w", r, err)
				return
			}
		}
	}()
	go func() { // plain create/write/delete churn
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("p%d", r%3)
			if err := fs.Create(name, plainA); err != nil && !errors.Is(err, fsapi.ErrExists) {
				errs <- fmt.Errorf("plain create %d: %w", r, err)
				return
			}
			if err := fs.Write(name, plainB); err != nil {
				errs <- fmt.Errorf("plain write %d: %w", r, err)
				return
			}
			if r%3 == 2 {
				if err := fs.Delete(name); err != nil {
					errs <- fmt.Errorf("plain delete %d: %w", r, err)
					return
				}
			}
		}
	}()
	go func() { // plain + hidden readers alongside the writers
		defer wg.Done()
		for r := 0; r < rounds*2; r++ {
			if got, err := view.Read("h"); err != nil {
				errs <- fmt.Errorf("hidden read %d: %w", r, err)
				return
			} else if !bytes.Equal(got, hidden) {
				errs <- fmt.Errorf("hidden read %d: corrupted", r)
				return
			}
			_, _ = fs.Read("p0") // may race with delete; content checked below
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := view.Read("h")
	if err != nil || !bytes.Equal(got, hidden) {
		t.Fatalf("hidden file after interleave: %v", err)
	}
	for _, name := range fs.PlainNames() {
		got, err := fs.Read(name)
		if err != nil {
			t.Fatalf("plain %s after interleave: %v", name, err)
		}
		if !bytes.Equal(got, plainB) {
			t.Fatalf("plain %s corrupted after interleave", name)
		}
	}
}

// TestSyncUnderWriteLoad: FS.Sync's freeze gate must quiesce hidden AND
// plain mutators (and the bitmap write must see quiesced allocation groups)
// while writers hammer the volume. After the dust settles, a remount from
// the synced device must see every plain file — Sync's bitmap was written
// with data already flushed — and the hidden files must read back intact.
func TestSyncUnderWriteLoad(t *testing.T) {
	store, err := vdisk.NewMemStore(32768, 512)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.NDummy = 2
	p.DummyAvgSize = 4 * 512
	p.MaxPlainFiles = 64
	p.DeterministicKeys = true
	fs, err := Format(store, p, WithCache(1024))
	if err != nil {
		t.Fatal(err)
	}
	view := fs.NewHiddenView("u")
	const workers = 4
	const rounds = 6
	payload := func(w int) []byte { return mkPayload(4000, byte(0x30+w)) }
	for w := 0; w < workers; w++ {
		if err := view.Create(fmt.Sprintf("f%d", w), payload(w)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", w)
			for r := 0; r < rounds; r++ {
				if err := view.Write(name, payload(w)); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
				if err := view.Delete(name); err != nil {
					errs <- fmt.Errorf("%s delete: %w", name, err)
					return
				}
				if err := view.Create(name, payload(w)); err != nil {
					errs <- fmt.Errorf("%s re-create: %w", name, err)
					return
				}
			}
		}(w)
	}
	// The plain writer cycles a bounded name set, deleting each name before
	// it creates it again, so however slowly the Syncs run it never fills
	// the 64-entry central directory. last[i] is the round that last
	// created name q<i>.
	const plainNames = 16
	var last [plainNames]int
	plainPayload := func(r int) []byte { return mkPayload(1500, byte(r)) }
	wg.Add(1)
	go func() { // plain writer crossing the same Sync barriers
		defer wg.Done()
		for r := 0; !stop.Load(); r++ {
			name := fmt.Sprintf("q%d", r%plainNames)
			if r >= plainNames {
				if err := fs.Delete(name); err != nil {
					errs <- fmt.Errorf("plain delete %d: %w", r, err)
					return
				}
			}
			if err := fs.Create(name, plainPayload(r)); err != nil {
				errs <- fmt.Errorf("plain create %d: %w", r, err)
				return
			}
			last[r%plainNames] = r
		}
	}()
	syncs := 0
	for done := false; !done; {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		if err := fs.Sync(); err != nil {
			t.Fatalf("Sync under load: %v", err)
		}
		syncs++
		// Stop once the hidden churn finished (detect via a channel-free
		// join: try a non-blocking wait by checking after each sync round).
		if syncs >= 8 {
			done = true
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Remount from the raw device image and verify both namespaces.
	fs2, err := Mount(store)
	if err != nil {
		t.Fatalf("remount after sync-under-load: %v", err)
	}
	view2 := fs2.NewHiddenView("u")
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("f%d", w)
		if err := view2.Adopt(name); err != nil {
			t.Fatalf("adopt %s on remount: %v", name, err)
		}
		got, err := view2.Read(name)
		if err != nil {
			t.Fatalf("%s on remount: %v", name, err)
		}
		if !bytes.Equal(got, payload(w)) {
			t.Fatalf("%s corrupted on remount", name)
		}
	}
	for _, name := range fs2.PlainNames() {
		got, err := fs2.Read(name)
		if err != nil {
			t.Fatalf("plain %s on remount: %v", name, err)
		}
		var i int
		if _, err := fmt.Sscanf(name, "q%d", &i); err != nil || i >= plainNames {
			t.Fatalf("unexpected plain file %s on remount", name)
		}
		if !bytes.Equal(got, plainPayload(last[i])) {
			t.Fatalf("plain %s on remount is not its last write (round %d)", name, last[i])
		}
	}
}

// TestBackupUnderWriteLoad: Backup freezes the volume mid-churn; the
// resulting stream must recover into a volume where every hidden object is
// wholly one of the two alternating payloads (never a torn mix) and the
// plain files restore.
func TestBackupUnderWriteLoad(t *testing.T) {
	fs, _ := newTestFS(t, 32768, 512, func(p *Params) { p.DeterministicKeys = true })
	view := fs.NewHiddenView("u")
	const files = 4
	a := mkPayload(4500, 0x5A)
	b := mkPayload(4500, 0xA5)
	for i := 0; i < files; i++ {
		if err := view.Create(fmt.Sprintf("f%d", i), a); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Create("plain", mkPayload(2000, 7)); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, files)
	for i := 0; i < files; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", i)
			for r := 0; !stop.Load(); r++ {
				p := a
				if r%2 == 1 {
					p = b
				}
				if err := view.Write(name, p); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
			}
		}(i)
	}
	var img bytes.Buffer
	if err := fs.Backup(&img); err != nil {
		t.Fatalf("backup under write load: %v", err)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	store2, err := vdisk.NewMemStore(32768, 512)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := Recover(store2, bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	view2 := fs2.NewHiddenView("u")
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("f%d", i)
		if err := view2.Adopt(name); err != nil {
			t.Fatalf("adopt %s: %v", name, err)
		}
		got, err := view2.Read(name)
		if err != nil {
			t.Fatalf("%s from backup: %v", name, err)
		}
		if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
			t.Fatalf("%s from backup is a torn mix of payloads", name)
		}
	}
	if _, err := fs2.Read("plain"); err != nil {
		t.Fatalf("plain file from backup: %v", err)
	}
}

// TestCreateHiddenBatch: the parallel batch create registers every object
// under the UAK, the contents round-trip, and duplicate names — in the
// batch or already registered — fail without leaving orphans.
func TestCreateHiddenBatch(t *testing.T) {
	fs, _ := newTestFS(t, 32768, 512, nil)
	s, err := fs.NewSession("u")
	if err != nil {
		t.Fatal(err)
	}
	uak := []byte("k")
	names := []string{"x0", "x1", "x2", "x3", "x4", "x5"}
	datas := make([][]byte, len(names))
	for i := range datas {
		datas[i] = mkPayload(1500+300*i, byte(i+1))
	}
	if err := s.CreateHiddenBatch(names, uak, datas, 4); err != nil {
		t.Fatal(err)
	}
	entries, err := s.ListHidden(uak)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("%d entries registered, want %d", len(entries), len(names))
	}
	for i, n := range names {
		if err := s.Connect(n, uak); err != nil {
			t.Fatalf("connect %s: %v", n, err)
		}
		got, err := s.ReadHidden(n)
		if err != nil {
			t.Fatalf("read %s: %v", n, err)
		}
		if !bytes.Equal(got, datas[i]) {
			t.Fatalf("%s corrupted", n)
		}
	}

	free0 := fs.FreeBlocks()
	if err := s.CreateHiddenBatch([]string{"y", "y"}, uak, [][]byte{{1}, {2}}, 2); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("duplicate in-batch name = %v, want ErrExists", err)
	}
	if err := s.CreateHiddenBatch([]string{"z", "x0"}, uak, [][]byte{{1}, {2}}, 2); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("existing-name batch = %v, want ErrExists", err)
	}
	// All-or-nothing: the failed batch must not have registered "z".
	entries, err = s.ListHidden(uak)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("failed batch left %d entries, want %d (partial registration)", len(entries), len(names))
	}
	if err := s.Connect("z", uak); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("connect of rolled-back batch member = %v, want ErrNotFound", err)
	}
	// Rolled-back batches must not leak blocks (pool slack only).
	slack := int64(4 * fs.params.FreeMax)
	if free1 := fs.FreeBlocks(); free1 < free0-slack {
		t.Fatalf("failed batch leaked blocks: free %d -> %d", free0, free1)
	}
	// x0 must still read back after the failed batch tried to reuse it.
	got, err := s.ReadHidden("x0")
	if err != nil || !bytes.Equal(got, datas[0]) {
		t.Fatalf("x0 damaged by failed batch: %v", err)
	}

	// Multi-parent batch: entries split between the UAK root and a hidden
	// directory; registration groups by parent (one rewrite each).
	if err := s.CreateHidden("d", uak, FlagDir, nil); err != nil {
		t.Fatal(err)
	}
	nested := []string{"d/a", "top", "d/b"}
	nestedData := [][]byte{mkPayload(900, 0x61), mkPayload(900, 0x62), mkPayload(900, 0x63)}
	if err := s.CreateHiddenBatch(nested, uak, nestedData, 3); err != nil {
		t.Fatalf("multi-parent batch: %v", err)
	}
	for i, n := range nested {
		if err := s.Connect(n, uak); err != nil {
			t.Fatalf("connect %s: %v", n, err)
		}
		got, err := s.ReadHidden(n)
		if err != nil || !bytes.Equal(got, nestedData[i]) {
			t.Fatalf("%s from multi-parent batch: %v", n, err)
		}
	}
	// A failing multi-parent batch (duplicate under d) unwinds both parents.
	if err := s.CreateHiddenBatch([]string{"top2", "d/a"}, uak, [][]byte{{1}, {2}}, 2); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("duplicate nested batch = %v, want ErrExists", err)
	}
	if err := s.Connect("top2", uak); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("top2 from failed multi-parent batch = %v, want ErrNotFound", err)
	}
}

// TestRewriteOnFullVolumeRecycles: a reshaping rewrite on a (nearly) full
// volume cannot hold the old and new payload simultaneously; it must fall
// back to recycling the old blocks instead of wedging with ErrNoSpace —
// deletes of directory entries go through this path, so a full volume that
// refused would never free space again.
func TestRewriteOnFullVolumeRecycles(t *testing.T) {
	fs, _ := newTestFS(t, 4096, 512, func(p *Params) { p.FreeMin = 0; p.FreeMax = 4 })
	view := fs.NewHiddenView("u")
	big := mkPayload(40*512, 0x11)
	if err := view.Create("big", big); err != nil {
		t.Fatal(err)
	}
	// Exhaust the remaining free space.
	var eaten int
	for {
		if err := view.Create(fmt.Sprintf("fill%03d", eaten), mkPayload(8*512, 0x22)); err != nil {
			break
		}
		eaten++
	}
	if fs.FreeBlocks() > 4 {
		t.Fatalf("volume not full enough: %d free", fs.FreeBlocks())
	}
	// Reshape "big" down: needs 20 fresh blocks while 40 old ones are still
	// held — impossible without recycling.
	smaller := mkPayload(20*512, 0x33)
	if err := view.Write("big", smaller); err != nil {
		t.Fatalf("reshaping rewrite on full volume: %v", err)
	}
	got, err := view.Read("big")
	if err != nil || !bytes.Equal(got, smaller) {
		t.Fatalf("rewrite on full volume corrupted payload: %v", err)
	}
	// The shrink must have returned space to the volume.
	if err := view.Delete("big"); err != nil {
		t.Fatalf("delete after full-volume rewrite: %v", err)
	}
}

// TestConcurrentSessionCreates: steg_create's bulk write now runs outside
// nsMu, so concurrent creates of distinct names overlap; every name must
// end up registered exactly once with intact content.
func TestConcurrentSessionCreates(t *testing.T) {
	fs, _ := newTestFS(t, 32768, 512, nil)
	s, err := fs.NewSession("u")
	if err != nil {
		t.Fatal(err)
	}
	uak := []byte("k")
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	payload := func(w int) []byte { return mkPayload(2500, byte(w+1)) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.CreateHidden(fmt.Sprintf("c%d", w), uak, FlagFile, payload(w)); err != nil {
				errs <- fmt.Errorf("create c%d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	entries, err := s.ListHidden(uak)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != workers {
		t.Fatalf("%d entries registered, want %d", len(entries), workers)
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("c%d", w)
		if err := s.Connect(name, uak); err != nil {
			t.Fatalf("connect %s: %v", name, err)
		}
		got, err := s.ReadHidden(name)
		if err != nil || !bytes.Equal(got, payload(w)) {
			t.Fatalf("%s corrupted: %v", name, err)
		}
	}
}

// TestWriteScalingAcrossGroups is the in-package smoke for the A6 property:
// concurrent creators from many goroutines must all succeed and place
// blocks across many allocation groups (no single-group convoy).
func TestWriteScalingAcrossGroups(t *testing.T) {
	fs, _ := newTestFS(t, 65536, 512, nil)
	view := fs.NewHiddenView("u")
	if g := fs.Alloc().Groups(); g < 8 {
		t.Fatalf("test volume built only %d allocation groups", g)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := 0; o < 4; o++ {
				if err := view.Create(fmt.Sprintf("g%d_%d", w, o), mkPayload(3000, byte(w+1))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The created blocks must spread over many groups.
	groups := make(map[int]bool)
	for w := 0; w < workers; w++ {
		for o := 0; o < 4; o++ {
			data, all, err := view.BlocksOf(fmt.Sprintf("g%d_%d", w, o))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range append(data, all...) {
				groups[fs.Alloc().GroupOf(b)] = true
			}
		}
	}
	if len(groups) < fs.Alloc().Groups()/4 {
		t.Fatalf("allocations clustered in %d of %d groups", len(groups), fs.Alloc().Groups())
	}
}
