package stegrand

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"stegfs/internal/fsapi"
	"stegfs/internal/vdisk"
)

func newTestFS(t *testing.T, numBlocks int64, bs, repl int) (*FS, *vdisk.Disk) {
	t.Helper()
	store, err := vdisk.NewMemStore(numBlocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	disk := vdisk.NewDisk(store, vdisk.DefaultGeometry())
	fs, err := Format(disk, Config{Replication: repl, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fs, disk
}

func mk(n int, tag byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = tag ^ byte(i*11)
	}
	return out
}

func TestRoundTripSparseVolume(t *testing.T) {
	// A sparse volume (one small file in 64K blocks) should survive intact.
	fs, _ := newTestFS(t, 1<<16, 512, 4)
	want := mk(20_000, 1)
	if err := fs.Create("f", want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestWriteUpdatesAllReplicas(t *testing.T) {
	fs, disk := newTestFS(t, 1<<16, 512, 4)
	if err := fs.Create("f", mk(512*10, 1)); err != nil {
		t.Fatal(err)
	}
	w0 := disk.Stats().Writes
	if err := fs.Write("f", mk(512*10, 2)); err != nil {
		t.Fatal(err)
	}
	writes := disk.Stats().Writes - w0
	if writes != 40 { // 10 blocks x 4 replicas
		t.Fatalf("overwrite issued %d writes, want 40", writes)
	}
	got, err := fs.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mk(512*10, 2)) {
		t.Fatal("overwrite mismatch")
	}
}

func TestOverwriteCorruptsVictims(t *testing.T) {
	// Load a tiny volume until something dies: the defining flaw of the
	// scheme ("different files could map to the same disk addresses, thus
	// causing data loss").
	fs, _ := newTestFS(t, 256, 512, 1)
	var anyCorrupt bool
	for i := 0; i < 100; i++ {
		if err := fs.Create(fmt.Sprintf("f%d", i), mk(512*20, byte(i))); err != nil {
			t.Fatal(err)
		}
		if fs.AnyCorrupt() {
			anyCorrupt = true
			break
		}
	}
	if !anyCorrupt {
		t.Fatal("no corruption after overfilling a 256-block volume — collision tracking broken")
	}
}

func TestCorruptReadReturnsErrCorrupt(t *testing.T) {
	fs, _ := newTestFS(t, 128, 512, 1)
	if err := fs.Create("a", mk(512*30, 1)); err != nil {
		t.Fatal(err)
	}
	// Keep loading until file "a" specifically is corrupted.
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("could not corrupt file a")
		}
		if err := fs.Create(fmt.Sprintf("x%d", i), mk(512*30, byte(i))); err != nil {
			t.Fatal(err)
		}
		if c, _ := fs.Corrupt("a"); c {
			break
		}
	}
	if _, err := fs.Read("a"); !errors.Is(err, fsapi.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	// A cursor pays for the lost block's replicas and carries on.
	cur, err := fs.ReadCursor("a")
	if err != nil {
		t.Fatal(err)
	}
	if steps, err := fsapi.Drain(cur); err != nil || steps != 30 {
		t.Fatalf("ReadCursor over a corrupt file: %d steps, err %v; want 30, nil", steps, err)
	}
}

func TestCursorOverShortenedFile(t *testing.T) {
	fs, _ := newTestFS(t, 128, 512, 2)
	if err := fs.Create("a", mk(512*4, 1)); err != nil {
		t.Fatal(err)
	}
	rc, err := fs.ReadCursor("a")
	if err != nil {
		t.Fatal(err)
	}
	wc, err := fs.WriteCursor("a", mk(512*4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("a", mk(512, 3)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []fsapi.Cursor{rc, wc} {
		if steps, err := fsapi.Drain(c); err == nil || steps != 1 {
			t.Fatalf("cursor over a shortened file: %d steps, err %v; want 1 step, then an error", steps, err)
		}
	}
}

func TestReplicationSavesData(t *testing.T) {
	// Same workload, higher replication: the file survives collisions that
	// would kill an unreplicated copy.
	load := func(repl int) bool {
		fs, _ := newTestFS(t, 2048, 512, repl)
		if err := fs.Create("precious", mk(512*40, 9)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := fs.Create(fmt.Sprintf("noise%d", i), mk(512*10, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		c, err := fs.Corrupt("precious")
		if err != nil {
			t.Fatal(err)
		}
		return !c
	}
	// At this light load (~16% of blocks claimed by noise), 8-fold
	// replication protects the file with overwhelming probability: every
	// data block would need all 8 copies overwritten.
	if !load(8) {
		t.Fatal("replication 8 failed to protect the file at light load")
	}
}

func TestReadHuntsReplicas(t *testing.T) {
	fs, disk := newTestFS(t, 1024, 512, 4)
	if err := fs.Create("f", mk(512*8, 1)); err != nil {
		t.Fatal(err)
	}
	// Damage some primary copies by loading more data.
	for i := 0; i < 4; i++ {
		if err := fs.Create(fmt.Sprintf("n%d", i), mk(512*8, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	r0 := disk.Stats().Reads
	if _, err := fs.Read("f"); err != nil && !errors.Is(err, fsapi.ErrCorrupt) {
		t.Fatal(err)
	}
	reads := disk.Stats().Reads - r0
	if reads < 8 {
		t.Fatalf("read issued %d device reads for 8 blocks", reads)
	}
}

func TestDeleteDisowns(t *testing.T) {
	fs, _ := newTestFS(t, 1<<14, 512, 2)
	if err := fs.Create("f", mk(512*5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("f"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	// Recreating under the same name works (same addresses, re-owned).
	if err := fs.Create("f", mk(512*5, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mk(512*5, 2)) {
		t.Fatal("recreate mismatch")
	}
}

func TestCursorStepsAndLossTolerance(t *testing.T) {
	fs, _ := newTestFS(t, 1<<14, 512, 2)
	if err := fs.Create("f", mk(512*6, 1)); err != nil {
		t.Fatal(err)
	}
	rc, err := fs.ReadCursor("f")
	if err != nil {
		t.Fatal(err)
	}
	steps, err := fsapi.Drain(rc)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 6 {
		t.Fatalf("read cursor %d steps, want 6", steps)
	}
	wc, err := fs.WriteCursor("f", mk(512*6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsapi.Drain(wc); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mk(512*6, 3)) {
		t.Fatal("cursor write mismatch")
	}
}

func TestAddressChainsDeterministic(t *testing.T) {
	fs, _ := newTestFS(t, 4096, 512, 2)
	a := fs.replicaAddrs("name", 0, 20)
	b := fs.replicaAddrs("name", 0, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("address chain not deterministic")
		}
		if a[i] <= 0 || a[i] >= 4096 {
			t.Fatalf("address %d out of range", a[i])
		}
	}
	c := fs.replicaAddrs("name", 1, 20)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("replica chains overlap %d/20 positions", same)
	}
}

func TestSimulateLoadBasics(t *testing.T) {
	res := SimulateLoad(1<<20, 1024, 4, 1, UniformFileSize(1<<20, 2<<20))
	if res.FilesLoaded <= 0 {
		t.Fatal("no files loaded before first loss")
	}
	if res.Utilization <= 0 || res.Utilization > 0.5 {
		t.Fatalf("utilization %v implausible", res.Utilization)
	}
	// Determinism.
	res2 := SimulateLoad(1<<20, 1024, 4, 1, UniformFileSize(1<<20, 2<<20))
	if res.FilesLoaded != res2.FilesLoaded || res.BytesLoaded != res2.BytesLoaded {
		t.Fatal("SimulateLoad not deterministic for a fixed seed")
	}
}

func TestSimulateLoadReplicationShape(t *testing.T) {
	// The Figure 6 shape: some replication beats none, and extreme
	// replication is worse than the sweet spot (overheads dominate).
	util := func(repl int) float64 {
		var sum float64
		for s := int64(0); s < 5; s++ {
			sum += SimulateLoad(1<<20, 1024, repl, s, UniformFileSize(1<<20, 2<<20)).Utilization
		}
		return sum / 5
	}
	u1, u8, u64 := util(1), util(8), util(64)
	if u8 <= u1 {
		t.Fatalf("replication 8 (%.4f) should beat 1 (%.4f)", u8, u1)
	}
	if u64 >= u8 {
		t.Fatalf("replication 64 (%.4f) should trail the sweet spot 8 (%.4f)", u64, u8)
	}
}

func TestUniformFileSizeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := UniformFileSize(100, 200)
	for i := 0; i < 1000; i++ {
		v := sample(rng)
		if v <= 100 || v > 200 {
			t.Fatalf("size %d outside (100,200]", v)
		}
	}
}

// TestPropertyAliveCountsConsistent: after arbitrary create sequences, a
// file is corrupt exactly when one of its logical blocks has no owning
// replica left.
func TestPropertyAliveCountsConsistent(t *testing.T) {
	f := func(sizes []uint8) bool {
		fs, _ := newTestFS(t, 512, 512, 2)
		for i, szRaw := range sizes {
			if i >= 8 {
				break
			}
			name := fmt.Sprintf("f%d", i)
			if err := fs.Create(name, mk(int(szRaw)%4000+1, byte(i))); err != nil {
				return false
			}
		}
		fs.mu.Lock()
		defer fs.mu.Unlock()
		for _, f := range fs.files {
			wantCorrupt := false
			for idx := int64(0); idx < f.nblocks; idx++ {
				live := 0
				for r := 0; r < fs.cfg.Replication; r++ {
					b := f.addrs[r][idx]
					if o, ok := fs.owners[b]; ok && o.fileID == f.id && o.replica == r && o.idx == idx {
						live++
					}
				}
				if live != f.alive[idx] {
					return false
				}
				if live == 0 {
					wantCorrupt = true
				}
			}
			if wantCorrupt != f.corrupt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
