package fsapi

import (
	"bytes"
	"errors"
	"testing"
)

// countCursor returns a NewCursor of n steps that records each step index
// and fails at index failAt (when failAt >= 0).
func countCursor(n, failAt int, seen *[]int) Cursor {
	return NewCursor(n, func(i int) error {
		if i == failAt {
			return errors.New("boom")
		}
		*seen = append(*seen, i)
		return nil
	})
}

func TestDrainCompletes(t *testing.T) {
	var seen []int
	c := countCursor(5, -1, &seen)
	steps, err := Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
	if c.Remaining() != 0 {
		t.Fatal("cursor not drained")
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("step indices %v, want 0..4 in order", seen)
		}
	}
}

func TestDrainPropagatesError(t *testing.T) {
	var seen []int
	c := countCursor(5, 3, &seen)
	steps, err := Drain(c)
	if err == nil {
		t.Fatal("expected error")
	}
	if steps != 3 {
		t.Fatalf("steps before failure = %d, want 3", steps)
	}
	if c.Remaining() != 2 {
		t.Fatalf("a failed step advanced the cursor: Remaining = %d, want 2", c.Remaining())
	}
}

func TestStepPastEnd(t *testing.T) {
	var seen []int
	c := countCursor(2, -1, &seen)
	if _, err := Drain(c); err != nil {
		t.Fatal(err)
	}
	done, err := c.Step()
	if !done || err == nil {
		t.Fatalf("Step past end = (%v, %v), want (true, error)", done, err)
	}
	if len(seen) != 2 {
		t.Fatalf("step ran past the end: %v", seen)
	}
}

func TestFillBlock(t *testing.T) {
	data := []byte("abcdefghij") // two full 4-byte blocks and a 2-byte tail
	for _, tc := range []struct {
		name string
		i    int
		want string
	}{
		{"full", 1, "efgh"},
		{"partial tail", 2, "ij\x00\x00"},
		{"past end", 3, "\x00\x00\x00\x00"},
	} {
		buf := []byte("XXXX") // stale contents must not survive
		FillBlock(buf, data, tc.i)
		if !bytes.Equal(buf, []byte(tc.want)) {
			t.Errorf("%s: FillBlock(block %d) = %q, want %q", tc.name, tc.i, buf, tc.want)
		}
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{ErrNotFound, ErrExists, ErrNoSpace, ErrCorrupt, ErrIsDir, ErrNotDir}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Fatalf("error %v conflated with %v", a, b)
			}
		}
	}
}
