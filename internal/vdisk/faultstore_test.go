package vdisk

import (
	"bytes"
	"errors"
	"testing"
)

func newFaultFixture(t *testing.T) (*MemStore, *FaultStore) {
	t.Helper()
	mem, err := NewMemStore(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	return mem, NewFaultStore(mem, 7)
}

func fillBlock(tag byte, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = tag ^ byte(i*31)
	}
	return buf
}

func TestFaultStoreTransientFailKThenSucceed(t *testing.T) {
	_, fs := newFaultFixture(t)
	buf := fillBlock(1, 512)
	if err := fs.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	// Rate 1: every fresh request starts an incident of exactly 3 failures,
	// and the attempt after the incident drains is guaranteed to succeed.
	fs.SetTransientRates(1, 1, 3)
	got := make([]byte, 512)
	var failures int
	for {
		err := fs.ReadBlock(3, got)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("want ErrTransient, got %v", err)
		}
		failures++
		if failures > 10 {
			t.Fatal("transient incident never cleared")
		}
	}
	if failures != 3 {
		t.Fatalf("want exactly 3 failures, got %d", failures)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("payload mismatch after incident cleared")
	}
}

func TestFaultStoreTransientDeterministic(t *testing.T) {
	run := func() (FaultStats, error) {
		mem, err := NewMemStore(64, 512)
		if err != nil {
			return FaultStats{}, err
		}
		fs := NewFaultStore(mem, 99)
		fs.SetTransientRates(0.3, 0.3, 2)
		buf := fillBlock(5, 512)
		for i := int64(0); i < 40; i++ {
			fs.WriteBlock(i%8, buf) //nolint:errcheck // faults are the point
			fs.ReadBlock(i%8, buf)  //nolint:errcheck
		}
		return fs.Stats(), nil
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different fault schedule: %+v vs %+v", a, b)
	}
	if a.ReadFaults == 0 && a.WriteFaults == 0 {
		t.Fatal("rate 0.3 over 80 ops injected nothing")
	}
}

func TestFaultStorePermanentFaults(t *testing.T) {
	_, fs := newFaultFixture(t)
	buf := fillBlock(2, 512)
	fs.FailWrite(5)
	fs.FailRead(6)
	if err := fs.WriteBlock(5, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt writing failed block, got %v", err)
	}
	if err := fs.WriteBlock(6, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadBlock(6, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt reading failed block, got %v", err)
	}
	// Permanent faults are never retryable.
	if Retryable(fs.ReadBlock(6, buf)) {
		t.Fatal("ErrCorrupt must not be retryable")
	}
	if fs.Stats().PermFaults != 3 {
		t.Fatalf("want 3 permanent faults, got %d", fs.Stats().PermFaults)
	}
}

func TestFaultStoreBitFlipHealsOnRewrite(t *testing.T) {
	_, fs := newFaultFixture(t)
	buf := fillBlock(3, 512)
	if err := fs.WriteBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	fs.FlipBit(2, 17) // byte 2, bit 1
	got := make([]byte, 512)
	if err := fs.ReadBlock(2, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, buf) {
		t.Fatal("bit flip had no effect")
	}
	want := append([]byte(nil), buf...)
	want[2] ^= 1 << 1
	if !bytes.Equal(got, want) {
		t.Fatal("wrong bit flipped")
	}
	// Rewriting the block heals the rot.
	if err := fs.WriteBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadBlock(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("rewrite did not heal the flip")
	}
	if fs.Stats().CorruptReads != 1 {
		t.Fatalf("want 1 corrupt read, got %d", fs.Stats().CorruptReads)
	}
}

func TestFaultStoreTornWindow(t *testing.T) {
	mem, fs := newFaultFixture(t)
	buf := fillBlock(4, 512)
	// Accept 3 writes, coin-flip the next 8, drop the rest.
	fs.TearAfter(3, 8)
	for i := int64(0); i < 20; i++ {
		if err := fs.WriteBlock(i%32, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := fs.Stats()
	if st.TornApplied+st.TornDropped != 8 {
		t.Fatalf("window saw %d writes, want 8", st.TornApplied+st.TornDropped)
	}
	if st.Dropped != 20-3-8 {
		t.Fatalf("want %d post-window drops, got %d", 20-3-8, st.Dropped)
	}
	if got := fs.Writes(); got != 3+st.TornApplied {
		t.Fatalf("applied writes %d != accepted 3 + torn-applied %d", got, st.TornApplied)
	}
	// Blocks 0..2 (pre-window) must carry the payload.
	got := make([]byte, 512)
	for i := int64(0); i < 3; i++ {
		if err := mem.ReadBlock(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("pre-window block %d not applied", i)
		}
	}
	// Disarm: writes pass through again.
	fs.Disarm()
	if err := fs.WriteBlock(30, buf); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadBlock(30, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("write after Disarm not applied")
	}
}

// TestFaultStoreCutDropsWritesAfterCut: TearAfter(n, 0) is a clean power
// cut — exactly n more writes land, no coin is drawn, every later write is
// acknowledged but dropped, and the trace records only the applied writes.
func TestFaultStoreCutDropsWritesAfterCut(t *testing.T) {
	_, fs := newFaultFixture(t)
	fs.StartTrace()
	fs.TearAfter(2, 0)
	for i := int64(0); i < 4; i++ {
		if err := fs.WriteBlock(i, fillBlock(byte(1+i), 512)); err != nil {
			t.Fatalf("write %d: %v (dropped writes must still acknowledge)", i, err)
		}
	}
	if got := fs.Writes(); got != 2 {
		t.Fatalf("applied writes = %d, want 2", got)
	}
	if st := fs.Stats(); st.Dropped != 2 || st.TornApplied+st.TornDropped != 0 {
		t.Fatalf("stats = %+v, want 2 dropped and no torn-window coins", st)
	}
	if trace := fs.StopTrace(); len(trace) != 2 || trace[0] != 0 || trace[1] != 1 {
		t.Fatalf("trace = %v, want [0 1]", trace)
	}
	// Blocks 0-1 persisted; blocks 2-3 never reached the store.
	buf := make([]byte, 512)
	for i := int64(0); i < 4; i++ {
		want := fillBlock(byte(1+i), 512)
		if i >= 2 {
			want = make([]byte, 512)
		}
		if err := fs.ReadBlock(i, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("block %d content wrong after cut (err=%v)", i, err)
		}
	}
	// Disarm lifts the cut.
	fs.Disarm()
	if err := fs.WriteBlock(5, fillBlock(9, 512)); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadBlock(5, buf); err != nil || !bytes.Equal(buf, fillBlock(9, 512)) {
		t.Fatalf("write after Disarm lost (err=%v)", err)
	}
}

func TestFaultStoreErrorsClassify(t *testing.T) {
	_, fs := newFaultFixture(t)
	buf := fillBlock(6, 512)
	fs.SetTransientRates(0, 1, 1)
	err := fs.WriteBlock(1, buf)
	if !errors.Is(err, ErrTransient) || !IsFault(err) || !Retryable(err) {
		t.Fatalf("transient classification broken: %v", err)
	}
	fs.SetTransientRates(0, 0, 1)
	fs.FailWrite(1)
	err = fs.WriteBlock(1, buf)
	if !errors.Is(err, ErrCorrupt) || !IsFault(err) || Retryable(err) {
		t.Fatalf("permanent classification broken: %v", err)
	}
	if IsFault(ErrOutOfRange) || IsFault(ErrBadBuffer) || IsFault(nil) {
		t.Fatal("usage errors must not classify as faults")
	}
}
