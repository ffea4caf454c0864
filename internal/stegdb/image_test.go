package stegdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// TestCachedImageEqualsUncached pins what the §3.1 adversary, who compares
// raw disk images, can see of the block cache: nothing. The same seeded
// sequence — partitioned-table Put, Delete and Put+Delete commits, hidden
// WriteAt spans and FS.Syncs — runs on an uncached mount and on cached
// mounts, and after every commit and every Sync the raw images must be
// byte-identical. A cached mount skips rewrites of blocks it already holds
// with the same sealed bytes; this shows that skipping them stores exactly
// the image the uncached mount writes in full.
func TestCachedImageEqualsUncached(t *testing.T) {
	const (
		blocks  = 8192
		bs      = 1 << 10
		commits = 24
		ops     = 40
	)
	type mount struct {
		name  string
		store *vdisk.MemStore
		fs    *stegfs.FS
		view  *stegfs.HiddenView
		tbl   *PartitionedTable
	}
	newMount := func(name string, opts ...stegfs.Option) *mount {
		store, err := vdisk.NewMemStore(blocks, bs)
		if err != nil {
			t.Fatal(err)
		}
		p := stegfs.DefaultParams()
		p.Seed = 7
		p.FillVolume = true
		p.DeterministicKeys = true
		p.NDummy = 2
		p.DummyAvgSize = 8 * bs
		fs, err := stegfs.Format(store, p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		view := fs.NewHiddenView("db")
		tbl, err := CreatePartitionedTable(view, "rows", 4, false, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := view.Create("blob", make([]byte, 24*bs)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return &mount{name: name, store: store, fs: fs, view: view, tbl: tbl}
	}
	mounts := []*mount{
		newMount("uncached"),
		newMount("cached", stegfs.WithCache(blocks)),
		newMount("cached-small-write-behind", stegfs.WithCache(256), stegfs.WithWriteBehind(32)),
	}
	defer func() {
		for _, m := range mounts {
			m.fs.Close()
		}
	}()
	same := func(when string) {
		t.Helper()
		ref := mounts[0].store.Snapshot()
		for _, m := range mounts[1:] {
			img := m.store.Snapshot()
			if bytes.Equal(ref, img) {
				continue
			}
			diff := 0
			for b := 0; b < blocks; b++ {
				if !bytes.Equal(ref[b*bs:(b+1)*bs], img[b*bs:(b+1)*bs]) {
					diff++
				}
			}
			t.Fatalf("%s: %s image differs from the uncached image in %d blocks", when, m.name, diff)
		}
	}
	// every applies one step to each mount in turn.
	every := func(step func(m *mount) error) {
		t.Helper()
		for _, m := range mounts {
			if err := step(m); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
		}
	}

	every(func(m *mount) error { return m.fs.Sync() })
	same("after set-up")
	rng := rand.New(rand.NewSource(28))
	val := make([]byte, 100)
	for c := 0; c < commits; c++ {
		for i := 0; i < ops; i++ {
			key := binary.BigEndian.AppendUint64(nil, uint64(rng.Intn(600)))
			rng.Read(val)
			switch rng.Intn(4) {
			case 0:
				every(func(m *mount) error { _, err := m.tbl.Delete(key); return err })
			case 1:
				// Put then Delete: the row's pages may return to their
				// committed bytes.
				every(func(m *mount) error {
					if err := m.tbl.Put(key, val); err != nil {
						return err
					}
					_, err := m.tbl.Delete(key)
					return err
				})
			default:
				every(func(m *mount) error { return m.tbl.Put(key, val) })
			}
		}
		every(func(m *mount) error { return m.tbl.Sync() })
		same(fmt.Sprintf("commit %d", c))
		if c%4 == 3 {
			span := make([]byte, 1+rng.Intn(3*bs))
			rng.Read(span)
			off := rng.Int63n(int64(20 * bs))
			every(func(m *mount) error { _, err := m.view.WriteAt("blob", span, off); return err })
			every(func(m *mount) error { return m.fs.Sync() })
			same(fmt.Sprintf("Sync after commit %d", c))
		}
	}
	if st, ok := mounts[1].fs.CacheStats(); !ok || st.Unchanged == 0 {
		t.Fatalf("the cached mount absorbed no unchanged writes: %+v", st)
	}
}
