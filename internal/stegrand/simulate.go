package stegrand

import "math/rand"

// LoadResult summarizes one Figure 6 loading run.
type LoadResult struct {
	FilesLoaded int     // files fully stored before the first loss
	BytesLoaded int64   // unique bytes of those files
	Utilization float64 // BytesLoaded / volume capacity
}

// SimulateLoad reproduces the Figure 6 loading procedure without touching a
// device: "for each replication factor ... we load the data files one at a
// time until all copies of any data block of a file are overwritten — that
// is when StegRand has just passed the limit where it can safely recover all
// its hidden files." It returns the effective space utilization, counting
// each file once regardless of replication.
//
// numBlocks and blockSize describe the volume; fileSize draws the next file
// size in bytes; replication is the number of copies per block. k-fold
// replication is dispersal with m = 1: every block is a group of k shares,
// lost once none survives.
func SimulateLoad(numBlocks int64, blockSize int, replication int, seed int64, fileSize func(*rand.Rand) int64) LoadResult {
	return SimulateLoadIDA(numBlocks, blockSize, 1, replication, seed, fileSize)
}

// SimulateLoadIDA models the Mnemosyne variant of the random-addressing
// scheme (Hand & Roscoe, IPTPS'02 — the paper's reference [10]): instead of
// k full replicas, each file is dispersed with Rabin's IDA into n shares of
// size 1/m of the file, any m of which reconstruct it. The storage overhead
// is n/m (vs k for replication). It loads files one at a time, as
// SimulateLoad does, until some file drops below a reconstruction quorum,
// and reports the effective space utilization at that point; the E-IDA
// extension experiment compares the two at equal overhead.
//
// Dispersal is at block-group granularity, as in Mnemosyne: every run of m
// logical blocks becomes n share blocks written to fresh pseudorandom
// addresses (storage overhead n/m, the same physical write count as
// (n/m)-fold replication). A group survives while at least m of its n share
// blocks are intact; a file is lost when any of its groups dies. Compared
// with replication at equal overhead k = n/m, the group tolerates *any*
// n-m losses, whereas replication fails as soon as the k copies of one
// particular block are all hit.
func SimulateLoadIDA(numBlocks int64, blockSize, m, n int, seed int64, fileSize func(*rand.Rand) int64) LoadResult {
	if m <= 0 || n < m {
		return LoadResult{}
	}
	rng := rand.New(rand.NewSource(seed))
	type slot struct {
		fileID  int32
		groupID int32
	}
	owners := make(map[int64]slot, numBlocks/4)
	// groupAlive[fileID][groupID] counts intact share blocks of the group.
	var groupAlive [][]int16

	var bytesLoaded int64
	filesLoaded := 0
	for fileID := 0; ; fileID++ {
		size := fileSize(rng)
		logical := (size + int64(blockSize) - 1) / int64(blockSize)
		if logical <= 0 {
			logical = 1
		}
		groups := int((logical + int64(m) - 1) / int64(m))
		ga := make([]int16, groups)
		groupAlive = append(groupAlive, ga)
		lost := false

		for g := 0; g < groups && !lost; g++ {
			for sh := 0; sh < n; sh++ {
				// One fresh pseudorandom address per share. Drawing from
				// the rng is statistically identical to the SHA-256 chain
				// and an order of magnitude faster, which matters when
				// sweeping 8 block sizes x 7 replication factors.
				addr := 1 + rng.Int63n(numBlocks-1)
				if prev, ok := owners[addr]; ok {
					pa := groupAlive[prev.fileID]
					pa[prev.groupID]--
					if pa[prev.groupID] == int16(m)-1 {
						// The victim group just dropped below quorum.
						lost = true
					}
				}
				owners[addr] = slot{fileID: int32(fileID), groupID: int32(g)}
				ga[g]++
			}
			if ga[g] < int16(m) {
				lost = true
			}
		}
		if lost {
			// This load destroyed the last quorum of some group (its own
			// or an earlier file's): the safe-recovery limit has been
			// passed.
			break
		}
		filesLoaded++
		bytesLoaded += size
	}
	capacity := numBlocks * int64(blockSize)
	return LoadResult{
		FilesLoaded: filesLoaded,
		BytesLoaded: bytesLoaded,
		Utilization: float64(bytesLoaded) / float64(capacity),
	}
}

// UniformFileSize returns a sampler drawing sizes uniformly from (lo, hi].
func UniformFileSize(lo, hi int64) func(*rand.Rand) int64 {
	return func(rng *rand.Rand) int64 {
		if hi <= lo {
			return hi
		}
		return lo + 1 + rng.Int63n(hi-lo)
	}
}
