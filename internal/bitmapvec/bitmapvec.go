// Package bitmapvec implements the block-allocation bitmap used by every
// file system in this repository. A 0 bit marks a free block and a 1 bit a
// used block, exactly as in Section 3.1 of the paper.
//
// Beyond the usual set/clear/test operations it supports the pieces the
// steganographic schemes need: uniform sampling of a random free block (so
// hidden-file blocks land anywhere in the free space), snapshots and set
// differences (the intruder attack in Section 3.1 tracks bitmap deltas
// between observations), and flat serialization so the bitmap can live in a
// reserved region of the volume.
package bitmapvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
)

// ErrNoFree is returned when an allocation is requested but no block is free.
var ErrNoFree = errors.New("bitmapvec: no free block")

// Bitmap is a fixed-size bit vector over block numbers [0, N).
// The zero value is unusable; use New or Unmarshal.
//
// A Bitmap is not internally synchronized, with one deliberate carve-out for
// the sharded allocator (internal/alloc): callers that partition the block
// space into ranges whose boundaries are multiples of 64 (so no two ranges
// share a word) may mutate distinct ranges concurrently, each under its own
// lock, using the *InRange primitives plus Set/Clear/Test on blocks inside
// their own range. The set-count is kept atomically so those disjoint-word
// mutations never race on the shared counter. Whole-bitmap operations
// (Marshal, Clone, RandomFree, NewlySet, ...) still require all ranges to be
// quiescent.
type Bitmap struct {
	n     int64
	words []uint64
	nset  atomic.Int64
}

// New creates a bitmap for n blocks, all free (zero).
func New(n int64) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of blocks tracked.
func (b *Bitmap) Len() int64 { return b.n }

// CountSet returns the number of used (1) blocks.
func (b *Bitmap) CountSet() int64 { return b.nset.Load() }

// CountFree returns the number of free (0) blocks.
func (b *Bitmap) CountFree() int64 { return b.n - b.nset.Load() }

func (b *Bitmap) checkRange(i int64) error {
	if i < 0 || i >= b.n {
		return fmt.Errorf("bitmapvec: index %d out of range [0,%d)", i, b.n)
	}
	return nil
}

// Test reports whether block i is marked used.
func (b *Bitmap) Test(i int64) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set marks block i used. It returns an error when i is out of range.
func (b *Bitmap) Set(i int64) error {
	if err := b.checkRange(i); err != nil {
		return err
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.nset.Add(1)
	}
	return nil
}

// Clear marks block i free. It returns an error when i is out of range.
func (b *Bitmap) Clear(i int64) error {
	if err := b.checkRange(i); err != nil {
		return err
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m != 0 {
		b.words[w] &^= m
		b.nset.Add(-1)
	}
	return nil
}

// FirstFreeFrom returns the lowest free block number >= from, wrapping past
// the end of the volume. It returns ErrNoFree when every block is used.
func (b *Bitmap) FirstFreeFrom(from int64) (int64, error) {
	if b.nset.Load() >= b.n {
		return 0, ErrNoFree
	}
	if from < 0 || from >= b.n {
		from = 0
	}
	// Scan [from, n) then [0, from).
	if i, ok := b.scanFree(from, b.n); ok {
		return i, nil
	}
	if i, ok := b.scanFree(0, from); ok {
		return i, nil
	}
	return 0, ErrNoFree
}

// scanFree finds the first zero bit in [lo, hi), using word-at-a-time scans.
func (b *Bitmap) scanFree(lo, hi int64) (int64, bool) {
	if lo >= hi {
		return 0, false
	}
	for i := lo; i < hi; {
		w := i >> 6
		word := b.words[w]
		// Mask off bits below i within this word.
		word |= (1 << (uint(i) & 63)) - 1
		inv := ^word
		if inv != 0 {
			bit := int64(bits.TrailingZeros64(inv))
			cand := w<<6 + bit
			if cand < hi {
				return cand, true
			}
			return 0, false
		}
		i = (w + 1) << 6
	}
	return 0, false
}

// RandomFree returns a uniformly random free block, using rng for
// randomness. It returns ErrNoFree when every block is used.
//
// The sampler first tries bounded rejection sampling (fast while the volume
// has plenty of free space) and then falls back to rank selection, so it
// stays correct and O(n) worst-case even at 99%+ occupancy.
func (b *Bitmap) RandomFree(rng *rand.Rand) (int64, error) {
	free := b.CountFree()
	if free == 0 {
		return 0, ErrNoFree
	}
	// Rejection sampling: expected tries = n/free.
	if free*4 >= b.n {
		for tries := 0; tries < 32; tries++ {
			i := rng.Int63n(b.n)
			if !b.Test(i) {
				return i, nil
			}
		}
	}
	// Rank selection: pick the k-th free block.
	k := rng.Int63n(free)
	for w, word := range b.words {
		zeros := int64(64 - bits.OnesCount64(word))
		if int64(w) == int64(len(b.words))-1 {
			// Exclude bits beyond n in the last word.
			extra := int64(len(b.words))*64 - b.n
			hi := ^uint64(0)
			if extra > 0 {
				hi = ^uint64(0) >> uint(extra) // valid-bit mask
			}
			zeros = int64(bits.OnesCount64(^word & hi))
		}
		if k >= zeros {
			k -= zeros
			continue
		}
		// The k-th zero bit lives in this word.
		for bit := int64(0); bit < 64; bit++ {
			i := int64(w)<<6 + bit
			if i >= b.n {
				break
			}
			if word&(1<<uint(bit)) == 0 {
				if k == 0 {
					return i, nil
				}
				k--
			}
		}
	}
	return 0, ErrNoFree
}

// AllocFirstFree finds, marks and returns the lowest free block >= from.
func (b *Bitmap) AllocFirstFree(from int64) (int64, error) {
	i, err := b.FirstFreeFrom(from)
	if err != nil {
		return 0, err
	}
	if err := b.Set(i); err != nil {
		return 0, err
	}
	return i, nil
}

// AllocRandomFree finds, marks and returns a uniformly random free block.
func (b *Bitmap) AllocRandomFree(rng *rand.Rand) (int64, error) {
	i, err := b.RandomFree(rng)
	if err != nil {
		return 0, err
	}
	if err := b.Set(i); err != nil {
		return 0, err
	}
	return i, nil
}

// AllocContiguous finds, marks and returns the start of the lowest run of
// count contiguous free blocks. Used by the CleanDisk baseline.
func (b *Bitmap) AllocContiguous(count int64) (int64, error) {
	if count <= 0 {
		return 0, fmt.Errorf("bitmapvec: invalid run length %d", count)
	}
	var runStart, runLen int64 = -1, 0
	for i := int64(0); i < b.n; i++ {
		if b.Test(i) {
			runStart, runLen = -1, 0
			continue
		}
		if runStart < 0 {
			runStart = i
		}
		runLen++
		if runLen == count {
			for j := runStart; j <= i; j++ {
				if err := b.Set(j); err != nil {
					return 0, err
				}
			}
			return runStart, nil
		}
	}
	return 0, ErrNoFree
}

// AllocContiguousAt finds, marks and returns the start of a run of count
// contiguous free blocks at or after a random position (wrapping around).
// The FragDisk baseline uses this to scatter its 8-block fragments the way a
// well-used disk does.
func (b *Bitmap) AllocContiguousAt(rng *rand.Rand, count int64) (int64, error) {
	if count <= 0 {
		return 0, fmt.Errorf("bitmapvec: invalid run length %d", count)
	}
	if b.CountFree() < count {
		return 0, ErrNoFree
	}
	start := rng.Int63n(b.n)
	var runStart, runLen int64 = -1, 0
	scan := func(lo, hi int64) (int64, bool) {
		runStart, runLen = -1, 0
		for i := lo; i < hi; i++ {
			if b.Test(i) {
				runStart, runLen = -1, 0
				continue
			}
			if runStart < 0 {
				runStart = i
			}
			runLen++
			if runLen == count {
				return runStart, true
			}
		}
		return 0, false
	}
	s, ok := scan(start, b.n)
	if !ok {
		s, ok = scan(0, start)
	}
	if !ok {
		return 0, ErrNoFree
	}
	for j := s; j < s+count; j++ {
		if err := b.Set(j); err != nil {
			return 0, err
		}
	}
	return s, nil
}

// Clone returns a deep copy of the bitmap (a snapshot an observer might take).
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	c := &Bitmap{n: b.n, words: w}
	c.nset.Store(b.nset.Load())
	return c
}

// NewlySet returns the block numbers that are used in cur but were free in
// prev — the delta an intruder computes from two bitmap snapshots.
func NewlySet(prev, cur *Bitmap) []int64 {
	var out []int64
	n := cur.n
	if prev.n < n {
		n = prev.n
	}
	for w := int64(0); w <= (n-1)>>6 && n > 0; w++ {
		diff := cur.words[w] &^ prev.words[w]
		for diff != 0 {
			bit := int64(bits.TrailingZeros64(diff))
			i := w<<6 + bit
			if i < n {
				out = append(out, i)
			}
			diff &^= 1 << uint(bit)
		}
	}
	return out
}

// MarshaledLen returns the byte length of the serialized bitmap for n blocks.
func MarshaledLen(n int64) int { return int((n + 7) / 8) }

// Marshal serializes the bitmap to a compact little-endian byte slice.
// Whole words are stored eight bytes at a time; only the last word's
// bytes that fit are stored one by one.
func (b *Bitmap) Marshal() []byte {
	out := make([]byte, MarshaledLen(b.n))
	full := len(out) / 8
	for i, w := range b.words[:full] {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	for j := full * 8; j < len(out); j++ {
		out[j] = byte(b.words[full] >> uint(8*(j-full*8)))
	}
	return out
}

// Unmarshal reconstructs a bitmap for n blocks from data produced by Marshal.
func Unmarshal(n int64, data []byte) (*Bitmap, error) {
	want := MarshaledLen(n)
	if len(data) < want {
		return nil, fmt.Errorf("bitmapvec: short data %d < %d", len(data), want)
	}
	b := New(n)
	var nset int64
	for i := int64(0); i < n; i++ {
		if data[i>>3]&(1<<(uint(i)&7)) != 0 {
			b.words[i>>6] |= 1 << (uint(i) & 63)
			nset++
		}
	}
	b.nset.Store(nset)
	return b, nil
}
