package bitmapvec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetClearTest(t *testing.T) {
	b := New(130) // spans three words
	for _, i := range []int64{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("fresh bitmap has bit %d set", i)
		}
		if err := b.Set(i); err != nil {
			t.Fatal(err)
		}
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.CountSet() != 8 {
		t.Fatalf("CountSet = %d, want 8", b.CountSet())
	}
	if err := b.Clear(64); err != nil {
		t.Fatal(err)
	}
	if b.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if b.CountSet() != 7 {
		t.Fatalf("CountSet = %d, want 7", b.CountSet())
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(10)
	for i := 0; i < 3; i++ {
		if err := b.Set(5); err != nil {
			t.Fatal(err)
		}
	}
	if b.CountSet() != 1 {
		t.Fatalf("double Set counted twice: %d", b.CountSet())
	}
	for i := 0; i < 3; i++ {
		if err := b.Clear(5); err != nil {
			t.Fatal(err)
		}
	}
	if b.CountSet() != 0 {
		t.Fatalf("double Clear miscounted: %d", b.CountSet())
	}
}

func TestRangeErrors(t *testing.T) {
	b := New(10)
	if err := b.Set(10); err == nil {
		t.Fatal("Set out of range should fail")
	}
	if err := b.Clear(-1); err == nil {
		t.Fatal("Clear out of range should fail")
	}
	if b.Test(10) || b.Test(-5) {
		t.Fatal("Test out of range should be false")
	}
}

func TestFirstFreeFromWraps(t *testing.T) {
	b := New(8)
	for i := int64(4); i < 8; i++ {
		_ = b.Set(i)
	}
	i, err := b.FirstFreeFrom(5)
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 {
		t.Fatalf("FirstFreeFrom(5) = %d, want 0 (wrap)", i)
	}
	for i := int64(0); i < 4; i++ {
		_ = b.Set(i)
	}
	if _, err := b.FirstFreeFrom(0); !errors.Is(err, ErrNoFree) {
		t.Fatalf("want ErrNoFree on full bitmap, got %v", err)
	}
}

func TestRandomFreeUniform(t *testing.T) {
	const n = 64
	b := New(n)
	for i := int64(0); i < n; i += 2 {
		_ = b.Set(i) // even blocks used; odd blocks free
	}
	rng := rand.New(rand.NewSource(42))
	hits := make(map[int64]int)
	for i := 0; i < 3200; i++ {
		blk, err := b.RandomFree(rng)
		if err != nil {
			t.Fatal(err)
		}
		if blk%2 == 0 {
			t.Fatalf("RandomFree returned used block %d", blk)
		}
		hits[blk]++
	}
	if len(hits) != 32 {
		t.Fatalf("sampler reached %d of 32 free blocks", len(hits))
	}
	for blk, c := range hits {
		if c < 40 || c > 200 { // expectation 100; loose uniformity bound
			t.Fatalf("block %d sampled %d times (expected ~100)", blk, c)
		}
	}
}

func TestRandomFreeNearlyFull(t *testing.T) {
	const n = 1000
	b := New(n)
	for i := int64(0); i < n-1; i++ {
		_ = b.Set(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		blk, err := b.RandomFree(rng)
		if err != nil {
			t.Fatal(err)
		}
		if blk != n-1 {
			t.Fatalf("only free block is %d, got %d", n-1, blk)
		}
	}
	_ = b.Set(n - 1)
	if _, err := b.RandomFree(rng); !errors.Is(err, ErrNoFree) {
		t.Fatalf("want ErrNoFree, got %v", err)
	}
}

func TestRandomFreeLastWordBoundary(t *testing.T) {
	// n not a multiple of 64: the rank-selection path must not return
	// phantom bits beyond n.
	const n = 70
	b := New(n)
	for i := int64(0); i < n; i++ {
		if i != 67 {
			_ = b.Set(i)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		blk, err := b.RandomFree(rng)
		if err != nil {
			t.Fatal(err)
		}
		if blk != 67 {
			t.Fatalf("got %d, want 67", blk)
		}
	}
}

func TestAllocContiguous(t *testing.T) {
	b := New(32)
	_ = b.Set(3) // split the space: [0,3) and [4,32)
	start, err := b.AllocContiguous(5)
	if err != nil {
		t.Fatal(err)
	}
	if start != 4 {
		t.Fatalf("AllocContiguous(5) = %d, want 4", start)
	}
	for i := start; i < start+5; i++ {
		if !b.Test(i) {
			t.Fatalf("block %d of run not marked", i)
		}
	}
	start2, err := b.AllocContiguous(3)
	if err != nil {
		t.Fatal(err)
	}
	if start2 != 0 {
		t.Fatalf("second run = %d, want 0", start2)
	}
	if _, err := b.AllocContiguous(25); !errors.Is(err, ErrNoFree) {
		t.Fatalf("oversized run should fail, got %v", err)
	}
	if _, err := b.AllocContiguous(0); err == nil {
		t.Fatal("zero-length run should fail")
	}
}

func TestAllocContiguousAtScatters(t *testing.T) {
	b := New(4096)
	rng := rand.New(rand.NewSource(9))
	starts := make(map[int64]bool)
	for i := 0; i < 32; i++ {
		s, err := b.AllocContiguousAt(rng, 8)
		if err != nil {
			t.Fatal(err)
		}
		if s%1 != 0 {
			t.Fatal("impossible")
		}
		starts[s] = true
		for j := s; j < s+8; j++ {
			if !b.Test(j) {
				t.Fatalf("run block %d unmarked", j)
			}
		}
	}
	// Fragments must not all be adjacent: with random placement over 4096
	// blocks, consecutive starts would be astronomically unlikely.
	adjacent := 0
	for s := range starts {
		if starts[s+8] {
			adjacent++
		}
	}
	if adjacent > 16 {
		t.Fatalf("fragments look sequential: %d adjacent pairs of 32", adjacent)
	}
}

func TestSnapshotDelta(t *testing.T) {
	b := New(128)
	_ = b.Set(3)
	prev := b.Clone()
	_ = b.Set(70)
	_ = b.Set(100)
	_ = b.Clear(3)
	delta := NewlySet(prev, b)
	if len(delta) != 2 || delta[0] != 70 || delta[1] != 100 {
		t.Fatalf("NewlySet = %v, want [70 100]", delta)
	}
	// Clone is deep: mutating b must not affect prev.
	if prev.Test(70) {
		t.Fatal("Clone is shallow")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	for _, n := range []int64{1, 7, 8, 63, 64, 65, 1000} {
		b := New(n)
		rng := rand.New(rand.NewSource(n))
		for i := int64(0); i < n; i++ {
			if rng.Intn(2) == 0 {
				_ = b.Set(i)
			}
		}
		got, err := Unmarshal(n, b.Marshal())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.CountSet() != b.CountSet() {
			t.Fatalf("n=%d: counts differ", n)
		}
		for i := int64(0); i < n; i++ {
			if got.Test(i) != b.Test(i) {
				t.Fatalf("n=%d: bit %d differs", n, i)
			}
		}
	}
	if _, err := Unmarshal(100, make([]byte, 3)); err == nil {
		t.Fatal("short unmarshal should fail")
	}
}

// marshalBytewise is the byte-at-a-time encoding Marshal must reproduce:
// byte k holds bits 8k..8k+7, least significant bit first.
func marshalBytewise(b *Bitmap) []byte {
	out := make([]byte, MarshaledLen(b.n))
	for i, w := range b.words {
		for j := 0; j < 8 && i*8+j < len(out); j++ {
			out[i*8+j] = byte(w >> uint(8*j))
		}
	}
	return out
}

// TestMarshalMatchesBytewise pins the word-at-a-time Marshal to the
// byte-loop encoding at every tail shape, including the empty bitmap and a
// volume-sized one, and round-trips each through Unmarshal.
func TestMarshalMatchesBytewise(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 63, 64, 65, 127, 131077} {
		b := New(n)
		rng := rand.New(rand.NewSource(n + 1))
		for i := int64(0); i < n; i++ {
			if rng.Intn(3) == 0 {
				_ = b.Set(i)
			}
		}
		if n > 0 {
			_ = b.Set(n - 1) // the last bit exercises the tail bytes
		}
		got := b.Marshal()
		if want := marshalBytewise(b); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: Marshal differs from the byte loop", n)
		}
		back, err := Unmarshal(n, got)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(back.Marshal(), got) || back.CountSet() != b.CountSet() {
			t.Fatalf("n=%d: Marshal→Unmarshal is not the identity", n)
		}
	}
}

// TestPropertyCountInvariant: CountSet always equals the number of set bits,
// under arbitrary operation sequences.
func TestPropertyCountInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 257
		b := New(n)
		ref := make(map[int64]bool)
		for _, op := range ops {
			i := int64(op) % n
			if op%2 == 0 {
				_ = b.Set(i)
				ref[i] = true
			} else {
				_ = b.Clear(i)
				delete(ref, i)
			}
		}
		if b.CountSet() != int64(len(ref)) {
			return false
		}
		for i := int64(0); i < n; i++ {
			if b.Test(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMarshalRoundTrip: marshal/unmarshal is the identity for
// arbitrary bit patterns.
func TestPropertyMarshalRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		n := int64(len(bits))
		if n == 0 {
			n = 1
			bits = []bool{false}
		}
		b := New(n)
		for i, set := range bits {
			if set {
				_ = b.Set(int64(i))
			}
		}
		got, err := Unmarshal(n, b.Marshal())
		if err != nil {
			return false
		}
		for i := int64(0); i < n; i++ {
			if got.Test(i) != b.Test(i) {
				return false
			}
		}
		return got.CountSet() == b.CountSet()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAllocNeverDoubleAllocates: random allocation never returns a
// block that is already used.
func TestPropertyAllocNeverDoubleAllocates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := New(512)
	seen := make(map[int64]bool)
	for {
		blk, err := b.AllocRandomFree(rng)
		if errors.Is(err, ErrNoFree) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seen[blk] {
			t.Fatalf("block %d allocated twice", blk)
		}
		seen[blk] = true
	}
	if len(seen) != 512 {
		t.Fatalf("allocated %d of 512", len(seen))
	}
}
