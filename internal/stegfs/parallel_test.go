package stegfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"stegfs/internal/fsapi"
	"stegfs/internal/ptree"
)

// TestParallelReadHiddenDistinctObjects: many goroutines read disjoint
// hidden files through one shared cached FS. Run with -race; every read must
// return the exact payload.
func TestParallelReadHiddenDistinctObjects(t *testing.T) {
	fs, _ := newCachedTestFS(t, 16384, 512, 2048)
	view := fs.NewHiddenView("u")
	const files = 8
	const rounds = 6
	payloads := make([][]byte, files)
	for i := 0; i < files; i++ {
		payloads[i] = mkPayload(9000+i*311, byte(i+1))
		if err := view.Create(fmt.Sprintf("f%d", i), payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, files)
	for i := 0; i < files; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", i)
			for r := 0; r < rounds; r++ {
				got, err := view.Read(name)
				if err != nil {
					errs <- fmt.Errorf("%s round %d: %w", name, r, err)
					return
				}
				if !bytes.Equal(got, payloads[i]) {
					errs <- fmt.Errorf("%s round %d: corrupted", name, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReadWriteRaceSameObject: one writer alternates two same-shape payloads
// while readers hammer the same object. Under the per-object lock every read
// must observe exactly one of the two payloads — never a torn mix.
func TestReadWriteRaceSameObject(t *testing.T) {
	fs, _ := newCachedTestFS(t, 16384, 512, 2048)
	view := fs.NewHiddenView("u")
	a := mkPayload(6000, 0x11)
	b := mkPayload(6000, 0x77)
	if err := view.Create("f", a); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	writeErr := make(chan error, 1)
	go func() {
		defer close(writeErr)
		for i := 0; !stop.Load(); i++ {
			p := a
			if i%2 == 1 {
				p = b
			}
			if err := view.Write("f", p); err != nil {
				writeErr <- err
				return
			}
		}
	}()
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := view.Read("f")
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
					errs <- errors.New("torn read: payload is neither version")
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	if err := <-writeErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlainHiddenInterleaving: plain reads/writes and hidden reads/writes
// from separate goroutines share the volume (and its allocation bitmap)
// without corrupting either side. Run with -race.
func TestPlainHiddenInterleaving(t *testing.T) {
	fs, _ := newCachedTestFS(t, 16384, 512, 2048)
	view := fs.NewHiddenView("u")
	if err := view.Create("h", mkPayload(5000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("p", mkPayload(3000, 2)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	run(func(i int) error { // hidden reader
		got, err := view.Read("h")
		if err == nil && len(got) != 5000 {
			err = fmt.Errorf("hidden read length %d", len(got))
		}
		return err
	})
	run(func(i int) error { // hidden writer (same shape)
		return view.Write("h", mkPayload(5000, byte(10+i)))
	})
	run(func(i int) error { // plain reader
		got, err := fs.Read("p")
		if err == nil && len(got) != 3000 {
			err = fmt.Errorf("plain read length %d", len(got))
		}
		return err
	})
	run(func(i int) error { // plain writer
		return fs.Write("p", mkPayload(3000, byte(50+i)))
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentCreateSameKey: two goroutines race createHidden on the same
// (name, key). Exactly one wins; the loser gets ErrExists and no duplicate
// header is minted (a subsequent read returns the winner's payload intact).
func TestConcurrentCreateSameKey(t *testing.T) {
	fs, _ := newTestFS(t, 16384, 512, nil)
	pa := mkPayload(4000, 0xAA)
	pb := mkPayload(4000, 0xBB)
	var wg sync.WaitGroup
	results := make([]error, 2)
	for i, p := range [][]byte{pa, pb} {
		wg.Add(1)
		go func(i int, p []byte) {
			defer wg.Done()
			_, results[i] = fs.createHidden("u/race", []byte("k"), FlagFile, p)
		}(i, p)
	}
	wg.Wait()
	var okCount, existsCount int
	for _, err := range results {
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, fsapi.ErrExists):
			existsCount++
		default:
			t.Fatalf("unexpected create error: %v", err)
		}
	}
	if okCount != 1 || existsCount != 1 {
		t.Fatalf("want exactly one winner and one ErrExists, got %d/%d", okCount, existsCount)
	}
	r, err := fs.open("u/race", []byte("k"), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.readHidden(r)
	fs.release(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pa) && !bytes.Equal(got, pb) {
		t.Fatal("surviving object holds neither racer's payload")
	}
}

// TestBackupQuiescesConcurrentActivity: Backup runs while readers and a
// writer are active; the freeze gate must produce a loadable, self-
// consistent stream.
func TestBackupQuiescesConcurrentActivity(t *testing.T) {
	fs, _ := newTestFS(t, 16384, 512, nil)
	view := fs.NewHiddenView("u")
	for i := 0; i < 4; i++ {
		if err := view.Create(fmt.Sprintf("f%d", i), mkPayload(3000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := view.Read(fmt.Sprintf("f%d", i%4)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := view.Write("f0", mkPayload(3000, byte(i))); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		var img bytes.Buffer
		if err := fs.Backup(&img); err != nil {
			stop.Store(true)
			t.Fatalf("backup under load: %v", err)
		}
		if img.Len() == 0 {
			stop.Store(true)
			t.Fatal("empty backup")
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestVectoredReadMatchesBlockwise: the vectored read path must return
// byte-identical data to a manual block-by-block sealed read of the same
// object.
func TestVectoredReadMatchesBlockwise(t *testing.T) {
	fs, _ := newTestFS(t, 16384, 512, nil)
	view := fs.NewHiddenView("u")
	want := mkPayload(200*512, 3) // double-indirect territory
	if err := view.Create("big", want); err != nil {
		t.Fatal(err)
	}
	got, err := view.Read("big") // vectored
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("vectored read mismatch")
	}
	// Serial path: walk the p-tree and open one sealed block at a time.
	r, err := view.open("big", false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.release(r)
	blocks, err := ptree.Read(r.io(fs.dev), r.hdr.root, r.hdr.nblocks)
	if err != nil {
		t.Fatal(err)
	}
	var serial []byte
	buf := make([]byte, 512)
	for _, b := range blocks {
		if err := r.io(fs.dev).ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		serial = append(serial, buf...)
	}
	if !bytes.Equal(serial[:len(want)], want) {
		t.Fatal("serial block-by-block read disagrees with vectored path")
	}
}

// TestCreateBackupSyncNoDeadlock is the regression test for the freeze-gate
// lock order: createHidden pre-takes the gate before its name stripe, while
// Backup/Sync take the gate exclusively. Creates, backups and
// syncs race here; any ordering mistake deadlocks and trips the test
// timeout.
func TestCreateBackupSyncNoDeadlock(t *testing.T) {
	fs, _ := newTestFS(t, 16384, 512, nil)
	view := fs.NewHiddenView("u")
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() { // creator: every create locks its object while holding the stripe
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := view.Create(fmt.Sprintf("c%d", i), mkPayload(2000, byte(i))); err != nil {
				errs <- fmt.Errorf("create: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // backup: freeze gate exclusively
		defer wg.Done()
		for i := 0; i < 6; i++ {
			var img bytes.Buffer
			if err := fs.Backup(&img); err != nil {
				errs <- fmt.Errorf("backup: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // sync: same order as backup
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := fs.Sync(); err != nil {
				errs <- fmt.Errorf("sync: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := view.Read(fmt.Sprintf("c%d", i))
		if err != nil || !bytes.Equal(got, mkPayload(2000, byte(i))) {
			t.Fatalf("c%d corrupted after backup/sync races (%v)", i, err)
		}
	}
}
