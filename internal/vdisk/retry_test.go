package vdisk

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// sleepRecorder collects the backoff waits a RetryDevice asked for.
type sleepRecorder struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (s *sleepRecorder) sleep(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waits = append(s.waits, d)
}

func newRetryFixture(t *testing.T, pol RetryPolicy) (*FaultStore, *RetryDevice, *sleepRecorder) {
	t.Helper()
	mem, err := NewMemStore(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(mem, 11)
	rec := &sleepRecorder{}
	pol.Sleep = rec.sleep
	return fs, NewRetryDevice(fs, pol), rec
}

func TestRetryDeviceAbsorbsTransients(t *testing.T) {
	fs, dev, rec := newRetryFixture(t, RetryPolicy{MaxRetries: 4})
	fs.SetTransientRates(1, 1, 3) // every op: exactly 3 failures then success
	buf := fillBlock(1, 512)
	if err := dev.WriteBlock(9, buf); err != nil {
		t.Fatalf("retry should absorb a 3-failure incident: %v", err)
	}
	got := make([]byte, 512)
	if err := dev.ReadBlock(9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("payload mismatch through retry layer")
	}
	st := dev.Stats()
	if st.Retries != 6 || st.GiveUps != 0 {
		t.Fatalf("want 6 retries 0 giveups, got %+v", st)
	}
	if len(rec.waits) != 6 {
		t.Fatalf("want 6 backoff sleeps, got %d", len(rec.waits))
	}
}

func TestRetryDeviceBackoffGrowsWithJitter(t *testing.T) {
	fs, dev, rec := newRetryFixture(t, RetryPolicy{
		MaxRetries: 6,
		BaseDelay:  time.Millisecond,
		MaxDelay:   8 * time.Millisecond,
	})
	fs.SetTransientRates(1, 0, 6)
	if err := dev.ReadBlock(0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if len(rec.waits) != 6 {
		t.Fatalf("want 6 waits, got %d", len(rec.waits))
	}
	// Equal jitter: attempt i waits in [base*2^i/2, base*2^i], capped.
	delay := time.Millisecond
	for i, w := range rec.waits {
		if w < delay/2 || w > delay {
			t.Fatalf("wait %d = %v outside [%v, %v]", i, w, delay/2, delay)
		}
		delay *= 2
		if delay > 8*time.Millisecond {
			delay = 8 * time.Millisecond
		}
	}
}

func TestRetryDeviceGivesUp(t *testing.T) {
	fs, dev, _ := newRetryFixture(t, RetryPolicy{MaxRetries: 2})
	fs.SetTransientRates(0, 1, 100) // incident longer than the budget
	err := dev.WriteBlock(1, fillBlock(2, 512))
	if err == nil {
		t.Fatal("want give-up error")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("give-up must preserve the fault class: %v", err)
	}
	st := dev.Stats()
	if st.GiveUps != 1 || st.Retries != 2 {
		t.Fatalf("want 2 retries 1 giveup, got %+v", st)
	}
}

func TestRetryDeviceDoesNotRetryUsageOrCorrupt(t *testing.T) {
	fs, dev, rec := newRetryFixture(t, RetryPolicy{MaxRetries: 4})
	buf := fillBlock(3, 512)
	if err := dev.WriteBlock(999, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	fs.FailWrite(4)
	if err := dev.WriteBlock(4, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if len(rec.waits) != 0 {
		t.Fatal("non-retryable errors must not back off")
	}
	if st := dev.Stats(); st.Retries != 0 {
		t.Fatalf("non-retryable errors must not count retries: %+v", st)
	}
}

func TestRetryDeviceBatchRetry(t *testing.T) {
	fs, dev, _ := newRetryFixture(t, RetryPolicy{MaxRetries: 4})
	ns := []int64{10, 11, 12, 13}
	bufs := make([][]byte, len(ns))
	for i := range bufs {
		bufs[i] = fillBlock(byte(i), 512)
	}
	fs.FailNextWrites(10, 2) // first block of the batch fails twice
	if err := dev.WriteBlocks(ns, bufs); err != nil {
		t.Fatalf("batch retry failed: %v", err)
	}
	got := make([][]byte, len(ns))
	for i := range got {
		got[i] = make([]byte, 512)
	}
	if err := dev.ReadBlocks(ns, got); err != nil {
		t.Fatal(err)
	}
	for i := range ns {
		if !bytes.Equal(got[i], bufs[i]) {
			t.Fatalf("block %d mismatch after batch retry", ns[i])
		}
	}
	if dev.Stats().Retries == 0 {
		t.Fatal("expected at least one batch retry")
	}
}

// TestRetryDeviceAbsorbsOneShotReadIncident: a k-read incident armed with
// FailNextReads fails exactly the next k reads of its block. Within the
// retry budget the retry layer absorbs it and counts k retries, in a
// single read and in a batch; past the budget it gives up once, and the
// spent incident leaves the next read clean.
func TestRetryDeviceAbsorbsOneShotReadIncident(t *testing.T) {
	fs, dev, rec := newRetryFixture(t, RetryPolicy{MaxRetries: 4})
	ns := []int64{20, 21, 22}
	for _, n := range ns {
		if err := fs.WriteBlock(n, fillBlock(byte(n), 512)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 512)
	fs.FailNextReads(21, 3)
	if err := dev.ReadBlock(21, got); err != nil {
		t.Fatalf("retry should absorb a 3-read incident: %v", err)
	}
	if !bytes.Equal(got, fillBlock(21, 512)) {
		t.Fatal("payload mismatch after the absorbed incident")
	}
	if st := dev.Stats(); st.Retries != 3 || st.GiveUps != 0 || len(rec.waits) != 3 {
		t.Fatalf("want 3 retries, 0 give-ups and 3 backoffs, got %+v and %d backoffs", dev.Stats(), len(rec.waits))
	}
	if err := dev.ReadBlock(21, got); err != nil || dev.Stats().Retries != 3 {
		t.Fatalf("a spent incident must not fail again: err %v, %+v", err, dev.Stats())
	}

	// In a batch: the whole-batch attempt meets the first failure (one
	// retry), then the per-block pass meets the second (another).
	fs.FailNextReads(22, 2)
	bufs := [][]byte{make([]byte, 512), make([]byte, 512), make([]byte, 512)}
	if err := dev.ReadBlocks(ns, bufs); err != nil {
		t.Fatalf("batch retry should absorb a 2-read incident: %v", err)
	}
	for i, n := range ns {
		if !bytes.Equal(bufs[i], fillBlock(byte(n), 512)) {
			t.Fatalf("block %d mismatch after the batch retry", n)
		}
	}
	if st := dev.Stats(); st.Retries != 5 || st.GiveUps != 0 {
		t.Fatalf("want 5 retries and 0 give-ups after the batch, got %+v", st)
	}

	// Past the budget: 5 failures exhaust 4 retries, and the incident is
	// spent by the time the caller reads again.
	fs.FailNextReads(20, 5)
	if err := dev.ReadBlock(20, got); !errors.Is(err, ErrTransient) {
		t.Fatalf("want a give-up wrapping ErrTransient, got %v", err)
	}
	if st := dev.Stats(); st.Retries != 9 || st.GiveUps != 1 {
		t.Fatalf("want 9 retries and 1 give-up, got %+v", st)
	}
	if err := dev.ReadBlock(20, got); err != nil || !bytes.Equal(got, fillBlock(20, 512)) {
		t.Fatalf("read after the spent incident: %v", err)
	}
}

// TestRetryDeviceThroughDisk checks the intended stack order: a Disk over a
// FaultStore, wrapped by RetryDevice. A failed store pass charges the Disk
// nothing, so the retry reissues an uncharged batch and only the successful
// submission hits the simulator clock.
func TestRetryDeviceThroughDisk(t *testing.T) {
	mem, err := NewMemStore(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(mem, 3)
	disk := NewDisk(fs, DefaultGeometry())
	rec := &sleepRecorder{}
	dev := NewRetryDevice(disk, RetryPolicy{MaxRetries: 4, Sleep: rec.sleep})
	fs.SetTransientRates(0, 1, 2)
	buf := fillBlock(9, 512)
	if err := dev.WriteBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	if st.Writes != 1 {
		t.Fatalf("failed attempts must not be charged: disk saw %d writes", st.Writes)
	}
}

func TestRetryDeviceConcurrent(t *testing.T) {
	fs, dev, _ := newRetryFixture(t, RetryPolicy{MaxRetries: 8})
	fs.SetTransientRates(0.05, 0.05, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := fillBlock(byte(g), 512)
			got := make([]byte, 512)
			for i := 0; i < 50; i++ {
				n := int64((g*50 + i) % 64)
				if err := dev.WriteBlock(n, buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := dev.ReadBlock(n, got); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRetryDeviceBatchFallsBackPerBlock: at a fault rate where some write in
// every whole-batch attempt fails, the device must degrade to per-block
// retries — whole-batch reissue would multiply the fault rate by the batch
// size and never complete.
func TestRetryDeviceBatchFallsBackPerBlock(t *testing.T) {
	fs, dev, _ := newRetryFixture(t, RetryPolicy{MaxRetries: 4})
	fs.SetTransientRates(1, 1, 2) // every fresh access starts a 2-fail incident
	ns := make([]int64, 16)
	bufs := make([][]byte, len(ns))
	for i := range ns {
		ns[i] = int64(10 + i)
		bufs[i] = fillBlock(byte(i), 512)
	}
	if err := dev.WriteBlocks(ns, bufs); err != nil {
		t.Fatalf("batch under total transient noise: %v", err)
	}
	got := make([][]byte, len(ns))
	for i := range got {
		got[i] = make([]byte, 512)
	}
	if err := dev.ReadBlocks(ns, got); err != nil {
		t.Fatalf("read-back under total transient noise: %v", err)
	}
	for i := range ns {
		if !bytes.Equal(got[i], bufs[i]) {
			t.Fatalf("block %d mismatch after per-block fallback", ns[i])
		}
	}
	if st := dev.Stats(); st.GiveUps != 0 {
		t.Fatalf("per-block fallback gave up %d times", st.GiveUps)
	}
}
