package stegdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"stegfs/internal/stegfs"
)

// TestStegDBParallelChurn: goroutines churn disjoint key ranges through one
// shared table; the table must survive races on the pager, free list, hash
// directory and row counter. Run under -race.
func TestStegDBParallelChurn(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "churn", 1, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		keysPerG   = 40
		opsPerG    = 240
	)
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				key := []byte(fmt.Sprintf("w%d-k%04d", w, i%keysPerG))
				switch i % 4 {
				case 0, 1:
					if err := tab.Put(key, []byte(fmt.Sprintf("v%d-%d", w, i))); err != nil {
						errCh <- err
						return
					}
				case 2:
					if _, _, err := tab.Get(key); err != nil {
						errCh <- err
						return
					}
				case 3:
					if _, err := tab.Delete(key); err != nil {
						errCh <- err
						return
					}
				}
			}
			// Deterministic final state for verification.
			for i := 0; i < keysPerG; i++ {
				key := []byte(fmt.Sprintf("w%d-k%04d", w, i))
				if err := tab.Put(key, []byte(fmt.Sprintf("final-%d-%d", w, i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	rows, err := tab.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if rows != goroutines*keysPerG {
		t.Fatalf("rows = %d, want %d", rows, goroutines*keysPerG)
	}
	for w := 0; w < goroutines; w++ {
		for i := 0; i < keysPerG; i++ {
			key := []byte(fmt.Sprintf("w%d-k%04d", w, i))
			want := fmt.Sprintf("final-%d-%d", w, i)
			v, ok, err := tab.Get(key)
			if err != nil || !ok || string(v) != want {
				t.Fatalf("key %s = %q %v %v, want %q", key, v, ok, err, want)
			}
		}
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStegDBScanSnapshotIsolation: scans run concurrently with writers and
// must each observe a consistent point-in-time state — every stable key
// exactly once, in order, with a well-formed value bound to its key (no
// torn rows, no doubled or missing keys from in-flight splits).
func TestStegDBScanSnapshotIsolation(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "snap", 1, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	const nStable = 64
	for i := 0; i < nStable; i++ {
		key := fmt.Sprintf("s%04d", i)
		if err := tab.Put([]byte(key), []byte(key+":00000000")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for ver := 1; ; ver++ {
				select {
				case <-stop:
					return
				default:
				}
				// Rewrite a stable key (fixed-width value keyed to its key)
				// and churn a volatile key to force splits and frees.
				key := fmt.Sprintf("s%04d", rng.Intn(nStable))
				if err := tab.Put([]byte(key), []byte(fmt.Sprintf("%s:%08d", key, ver))); err != nil {
					errCh <- err
					return
				}
				vk := []byte(fmt.Sprintf("vol%d-%02d", w, ver%40))
				if ver%2 == 0 {
					if err := tab.Put(vk, []byte("x")); err != nil {
						errCh <- err
						return
					}
				} else if _, err := tab.Delete(vk); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for scan := 0; scan < 25; scan++ {
		seen := make(map[string]bool, nStable)
		var order []string
		err := tab.Scan(func(k, v []byte) bool {
			ks := string(k)
			if !strings.HasPrefix(ks, "s") {
				return true
			}
			if seen[ks] {
				t.Errorf("scan %d: key %s seen twice", scan, ks)
			}
			seen[ks] = true
			order = append(order, ks)
			vs := string(v)
			if !strings.HasPrefix(vs, ks+":") || len(vs) != len(ks)+1+8 {
				t.Errorf("scan %d: torn row %s = %q", scan, ks, vs)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != nStable {
			t.Fatalf("scan %d: saw %d stable keys, want %d", scan, len(seen), nStable)
		}
		if !sort.StringsAreSorted(order) {
			t.Fatalf("scan %d: keys out of order", scan)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStegDBSyncUnderLoad: Sync runs repeatedly while writers churn; after
// a final Sync the volume is remounted cold and every row must be there.
func TestStegDBSyncUnderLoad(t *testing.T) {
	view, store := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "t", 1, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 4
		keysPerG   = 80
	)
	errCh := make(chan error, goroutines+1)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // syncer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := tab.Sync(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < keysPerG; i++ {
				key := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if err := tab.Put(key, []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
					errCh <- err
					return
				}
				if i%5 == 4 { // churn: delete and re-put
					if _, err := tab.Delete(key); err != nil {
						errCh <- err
						return
					}
					if err := tab.Put(key, []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}

	// Cold remount: a fresh mount and view must see every row.
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	if _, err := CheckAny(view2, view2.Adopt, "t"); err != nil {
		t.Fatal(err)
	}
	tab2, err := OpenPartitionedTable(view2, "t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tab2.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if rows != goroutines*keysPerG {
		t.Fatalf("remounted rows = %d, want %d", rows, goroutines*keysPerG)
	}
	for w := 0; w < goroutines; w++ {
		for i := 0; i < keysPerG; i++ {
			key := []byte(fmt.Sprintf("w%d-%04d", w, i))
			want := fmt.Sprintf("val-%d-%d", w, i)
			v, ok, err := tab2.Get(key)
			if err != nil || !ok || string(v) != want {
				t.Fatalf("remount key %s = %q %v %v", key, v, ok, err)
			}
		}
	}
	if err := tab2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStegDBSnapshotPinsState: a snapshot taken before a batch of writes
// keeps serving the old state after them.
func TestStegDBSnapshotPinsState(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "pin", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tab.Put(u64key(i), []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := tab.Snapshot()
	defer snap.Close()

	for i := 0; i < 200; i++ {
		if err := tab.Put(u64key(i), []byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 200; i < 400; i++ { // splits after the snapshot
		if err := tab.Put(u64key(i), []byte("extra")); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	err = snap.Scan(func(k, v []byte) bool {
		if want := fmt.Sprintf("old-%d", n); string(v) != want {
			t.Fatalf("snapshot row %d = %q, want %q", n, v, want)
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("snapshot saw %d rows, want 200", n)
	}
	if got := snap.Rows(); got != 200 {
		t.Fatalf("snapshot Rows() = %d, want 200", got)
	}
	// The live table sees the new state.
	v, ok, err := tab.Get(u64key(7))
	if err != nil || !ok || string(v) != "new-7" {
		t.Fatalf("live read = %q %v %v", v, ok, err)
	}
}
