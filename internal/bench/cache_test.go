package bench

import "testing"

// TestCacheSweepSpeedsUpRepeatedReads asserts the acceptance criterion of
// the cache layer on a repeated-read hidden-file workload. Since the read
// path went vectored (sorted batch submission per file), the uncached
// baseline itself streams sequentially, so an LRU cache in its thrashing
// regime (capacity below the scan working set) is only required to stay
// near par with uncached; once capacity covers the working set the cached
// run must be strictly faster with a high hit rate.
func TestCacheSweepSpeedsUpRepeatedReads(t *testing.T) {
	cfg := SmallConfig()
	rows, err := CacheSweep(cfg, []int{0, 256, 4096}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	base := rows[0]
	if base.CacheBlocks != 0 || base.HitRate != 0 {
		t.Fatalf("baseline row not uncached: %+v", base)
	}
	// Thrashing regime: no win required, but caching must not cost more
	// than a few percent over running uncached.
	if rows[1].Seconds > base.Seconds*1.05 {
		t.Errorf("cache=%d: %.4fs more than 5%% above uncached %.4fs",
			rows[1].CacheBlocks, rows[1].Seconds, base.Seconds)
	}
	// Covering capacity: strict win, real hit rate.
	big := rows[2]
	if big.Seconds >= base.Seconds {
		t.Errorf("cache=%d: %.4fs not strictly below uncached %.4fs",
			big.CacheBlocks, big.Seconds, base.Seconds)
	}
	if big.Stats.Hits == 0 || big.HitRate <= 0.5 {
		t.Errorf("cache=%d: hit rate %.2f too low on a repeated-read workload (%+v)",
			big.CacheBlocks, big.HitRate, big.Stats)
	}
	if big.Speedup <= 1 {
		t.Errorf("cache=%d: speedup %.2f not > 1", big.CacheBlocks, big.Speedup)
	}
	// Bigger cache must not be slower than the small one on this workload.
	if rows[2].Seconds > rows[1].Seconds*1.05 {
		t.Errorf("larger cache slower: %v vs %v", rows[2].Seconds, rows[1].Seconds)
	}
}
