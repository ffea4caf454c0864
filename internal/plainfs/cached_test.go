package plainfs

import (
	"bytes"
	"fmt"
	"testing"

	"stegfs/internal/bitmapvec"
	"stegfs/internal/blockcache"
	"stegfs/internal/vdisk"
)

// TestVolumeThroughBlockCache proves plainfs is cache-transparent: a volume
// whose device is a write-back blockcache behaves identically, and after a
// Flush the raw store alone (fresh mount, no cache) serves every file.
// cache=0 is the uncached baseline: the volume sits on the store directly.
func TestVolumeThroughBlockCache(t *testing.T) {
	for _, capacity := range []int{0, 1, 16, 512} {
		t.Run(fmt.Sprintf("cache=%d", capacity), func(t *testing.T) {
			store, err := vdisk.NewMemStore(4096, 512)
			if err != nil {
				t.Fatal(err)
			}
			var dev vdisk.Device = store
			flush := func() error { return nil }
			if capacity > 0 {
				c, err := blockcache.NewWithOptions(store, blockcache.Options{Capacity: capacity})
				if err != nil {
					t.Fatal(err)
				}
				dev, flush = c, c.Flush
			}
			bm := bitmapvec.New(4096)
			cfg := DefaultConfig(Random)
			cfg.MaxFiles = 32
			const inoStart = 1
			inoLen := InodeBlocksFor(dev, cfg.MaxFiles)
			for b := int64(0); b < inoStart+inoLen; b++ {
				_ = bm.Set(b)
			}
			v, err := NewEmbedded(dev, bm, inoStart, inoLen, inoStart+inoLen, cfg)
			if err != nil {
				t.Fatal(err)
			}

			want := map[string][]byte{}
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("f%d", i)
				want[name] = payload(2000+i*333, byte(i+1))
				if err := v.Create(name, want[name]); err != nil {
					t.Fatalf("Create %s: %v", name, err)
				}
			}
			want["f2"] = payload(5000, 0xEE)
			if err := v.Write("f2", want["f2"]); err != nil {
				t.Fatal(err)
			}
			if err := v.Delete("f7"); err != nil {
				t.Fatal(err)
			}
			delete(want, "f7")

			// Reads through the cache see the latest data.
			for name, data := range want {
				got, err := v.Read(name)
				if err != nil {
					t.Fatalf("Read %s: %v", name, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s corrupted through cache", name)
				}
			}

			// After a flush, the raw store alone has everything: remount the
			// inode region straight off the MemStore.
			if err := flush(); err != nil {
				t.Fatal(err)
			}
			v2, err := NewEmbedded(store, bm.Clone(), inoStart, inoLen, inoStart+inoLen, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, data := range want {
				got, err := v2.Read(name)
				if err != nil {
					t.Fatalf("uncached Read %s: %v", name, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s lost in the cache (not flushed to store)", name)
				}
			}
		})
	}
}
