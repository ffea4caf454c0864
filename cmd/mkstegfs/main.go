// Command mkstegfs formats a file-backed StegFS volume.
//
// Usage:
//
//	mkstegfs -vol volume.img -size 67108864 -bs 1024 \
//	         -abandoned 0.01 -dummies 10 -dummy-size 1048576
//
// Formatting writes random patterns into every block, abandons the requested
// fraction of blocks, and creates the dummy hidden files — after this, used
// and free blocks are indistinguishable on the raw image.
package main

import (
	"flag"
	"fmt"
	"os"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

func main() {
	var (
		vol       = flag.String("vol", "", "path of the volume image to create (required)")
		size      = flag.Int64("size", 64<<20, "volume size in bytes")
		bs        = flag.Int("bs", 1<<10, "block size in bytes")
		abandoned = flag.Float64("abandoned", 0.01, "fraction of blocks to abandon")
		dummies   = flag.Int("dummies", 10, "number of dummy hidden files")
		dummySize = flag.Int64("dummy-size", 1<<20, "average dummy file size in bytes")
		freeMin   = flag.Int("free-min", 0, "minimum free blocks held per hidden file")
		freeMax   = flag.Int("free-max", 10, "maximum free blocks held per hidden file")
		maxPlain  = flag.Int("max-plain", 1024, "central directory capacity")
		seed      = flag.Int64("seed", 0, "deterministic seed (0 = derive from size)")
		cache     = flag.Int("cache", 4096, "format through a block cache of this many blocks (0 = uncached)")
		policy    = flag.String("cache-policy", "", "cache replacement policy: lru|2q (default lru)")
		wbehind   = flag.Int("write-behind", 0, "start early write-back once this many dirty blocks accumulate (0 = only at sync)")
		flushers  = flag.Int("flush-workers", 0, "background flusher goroutines servicing write-behind runs (0 = default 1; negative is rejected)")
	)
	flag.Parse()
	if *vol == "" {
		fmt.Fprintln(os.Stderr, "mkstegfs: -vol is required")
		flag.Usage()
		os.Exit(2)
	}
	if *size%int64(*bs) != 0 {
		fmt.Fprintf(os.Stderr, "mkstegfs: size %d is not a multiple of block size %d\n", *size, *bs)
		os.Exit(2)
	}
	store, err := vdisk.CreateFileStore(*vol, *size/int64(*bs), *bs)
	if err != nil {
		fatal(err)
	}
	defer store.Close()

	p := stegfs.DefaultParams()
	p.PctAbandoned = *abandoned
	p.NDummy = *dummies
	p.DummyAvgSize = *dummySize
	p.FreeMin = *freeMin
	p.FreeMax = *freeMax
	p.MaxPlainFiles = *maxPlain
	if *seed != 0 {
		p.Seed = *seed
	} else {
		p.Seed = *size ^ int64(*bs)
	}
	// Formatting writes every block of the volume; a write-back cache batches
	// those writes into sequential flush passes. Write-behind keeps the dirty
	// backlog bounded when the cache is large.
	fs, err := stegfs.Format(store, p, stegfs.WithCache(*cache),
		stegfs.WithCachePolicy(*policy), stegfs.WithWriteBehind(*wbehind, *flushers))
	if err != nil {
		fatal(err)
	}
	if err := fs.Sync(); err != nil {
		fatal(err)
	}
	if err := store.Sync(); err != nil {
		fatal(err)
	}
	fmt.Printf("formatted %s: %d blocks x %d bytes, %d abandoned, %d dummies\n",
		*vol, *size/int64(*bs), *bs, fs.AbandonedCount(), *dummies)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mkstegfs:", err)
	os.Exit(1)
}
