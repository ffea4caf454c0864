package vdisk

import (
	"fmt"
	"math/rand"
	"sync"
)

// FaultStore wraps a Store with deterministic, seeded fault injection for
// fault-tolerance and crash-consistency tests. Four failure modes are
// supported, all drawn from one seeded PRNG so a run is exactly
// reproducible:
//
//   - transient errors: each read/write independently fails with a configured
//     probability; once a request faults it keeps failing until it has been
//     retried failsPer times in total (fail k times, then succeed), modeling a
//     momentary bus or controller glitch that clears on retry. Errors wrap
//     ErrTransient.
//   - permanent per-block errors: blocks marked with FailRead/FailWrite fail
//     every time with an error wrapping ErrCorrupt (a grown media defect).
//   - bit-flip corruption: blocks marked with FlipBit return their contents
//     with one bit inverted on every read — silent bit rot the device itself
//     does not report. Rewriting the block heals it (fresh magnetization).
//   - torn batches: TearAfter models power loss during an in-flight window of
//     writes. After an accept budget is exhausted, each of the next `window`
//     writes commits or vanishes on an independent seeded coin flip, and
//     everything after the window is dropped — a device cache that had
//     reordered its queue and committed a random subset before power failed.
//     Per-block old-or-new atomicity is preserved (sector atomicity), only
//     cross-block ordering is lost. TearAfter(n, 0) is a clean power cut:
//     a window of 0 draws no coins, so exactly n more writes land.
//
// Batch writes arriving via Disk reach the store one block at a time, so both
// the torn window and the transient coin apply at per-block granularity —
// exactly how a real device commits. StartTrace records the block number of
// every applied write in submission order, for write-ordering assertions.
type FaultStore struct {
	store Store

	// f.mu is deliberately NOT noio: the injection decision and the wrapped
	// store call stay under one mutex hold so the fault schedule (and a
	// torn-window cut point) is exact under concurrent callers.
	//
	// lockcheck:level 65 volume/faultMu
	mu sync.Mutex
	// lockcheck:guardedby mu
	rng *rand.Rand
	// lockcheck:guardedby mu
	readRate float64 // per-read transient fault probability
	// lockcheck:guardedby mu
	writeRate float64 // per-write transient fault probability
	// lockcheck:guardedby mu
	failsPer int // consecutive failures per transient incident
	// lockcheck:guardedby mu
	pendingRead map[int64]int // outstanding transient failures per block
	// lockcheck:guardedby mu
	pendingWrite map[int64]int
	// graceRead/graceWrite mark blocks whose incident just drained: the next
	// attempt is guaranteed to succeed (the "then succeed" half of the
	// fail-k-then-succeed contract), even at a transient rate of 1.
	//
	// lockcheck:guardedby mu
	graceRead map[int64]bool
	// lockcheck:guardedby mu
	graceWrite map[int64]bool
	// lockcheck:guardedby mu
	permRead map[int64]bool // permanently unreadable blocks
	// lockcheck:guardedby mu
	permWrite map[int64]bool // permanently unwritable blocks
	// lockcheck:guardedby mu
	flips map[int64]uint // bit index inverted on every read of the block
	// lockcheck:guardedby mu
	tornAccept int64 // writes still accepted before the torn window; < 0 = disarmed
	// lockcheck:guardedby mu
	tornWindow int64 // coin-flip writes remaining in the torn window
	// lockcheck:guardedby mu
	writes int64 // writes applied to the wrapped store
	// lockcheck:guardedby mu
	stats FaultStats
	// lockcheck:guardedby mu
	trace []int64 // applied writes while tracing; nil when not tracing
}

// FaultStats counts the faults a FaultStore has injected.
type FaultStats struct {
	ReadFaults   int64 // transient read errors returned
	WriteFaults  int64 // transient write errors returned
	PermFaults   int64 // permanent per-block errors returned
	CorruptReads int64 // reads returned with a flipped bit
	TornApplied  int64 // torn-window writes the coin committed
	TornDropped  int64 // torn-window writes the coin discarded
	Dropped      int64 // writes discarded after the torn window closed
}

// NewFaultStore wraps store with no faults armed. All randomness (transient
// coins, torn-window coins) comes from the given seed.
func NewFaultStore(store Store, seed int64) *FaultStore {
	return &FaultStore{
		store:        store,
		rng:          rand.New(rand.NewSource(seed)),
		failsPer:     1,
		pendingRead:  make(map[int64]int),
		pendingWrite: make(map[int64]int),
		graceRead:    make(map[int64]bool),
		graceWrite:   make(map[int64]bool),
		permRead:     make(map[int64]bool),
		permWrite:    make(map[int64]bool),
		flips:        make(map[int64]uint),
		tornAccept:   -1,
	}
}

// SetTransientRates arms transient faults: each read (write) independently
// starts a fault incident with probability readRate (writeRate), and each
// incident fails failsPer consecutive attempts on that block before the
// request succeeds. Rates of 0 disarm the respective direction.
func (f *FaultStore) SetTransientRates(readRate, writeRate float64, failsPer int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if failsPer < 1 {
		failsPer = 1
	}
	f.readRate, f.writeRate, f.failsPer = readRate, writeRate, failsPer
}

// FailNextReads arms a one-shot transient incident on block n: the next k
// reads of it fail with ErrTransient, then reads succeed again.
func (f *FaultStore) FailNextReads(n int64, k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k > 0 {
		f.pendingRead[n] = k
	}
}

// FailNextWrites arms a one-shot transient incident on block n: the next k
// writes to it fail with ErrTransient, then writes succeed again.
func (f *FaultStore) FailNextWrites(n int64, k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k > 0 {
		f.pendingWrite[n] = k
	}
}

// FailRead marks block n permanently unreadable (errors wrap ErrCorrupt).
func (f *FaultStore) FailRead(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.permRead[n] = true
}

// FailWrite marks block n permanently unwritable (errors wrap ErrCorrupt).
func (f *FaultStore) FailWrite(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.permWrite[n] = true
}

// FlipBit arms silent corruption on block n: every read returns the stored
// contents with the given bit (counted from the start of the block) inverted,
// until the block is rewritten.
func (f *FaultStore) FlipBit(n int64, bit uint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flips[n] = bit
}

// TearAfter arms a torn batch: the next n writes are applied normally, each
// of the following `window` writes commits or is silently dropped on a seeded
// coin flip, and every write after the window is dropped. Reads pass through,
// so the surviving image can be examined like a post-crash disk.
func (f *FaultStore) TearAfter(n int64, window int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if window < 0 {
		window = 0
	}
	f.tornAccept = n
	f.tornWindow = int64(window)
}

// Disarm lifts every armed fault mode: transient rates to zero, permanent
// and bit-flip marks cleared, torn window disarmed, pending incidents
// forgotten. Counters are preserved.
func (f *FaultStore) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readRate, f.writeRate = 0, 0
	f.pendingRead = make(map[int64]int)
	f.pendingWrite = make(map[int64]int)
	f.graceRead = make(map[int64]bool)
	f.graceWrite = make(map[int64]bool)
	f.permRead = make(map[int64]bool)
	f.permWrite = make(map[int64]bool)
	f.flips = make(map[int64]uint)
	f.tornAccept = -1
	f.tornWindow = 0
}

// Writes returns the number of writes applied to the wrapped store.
func (f *FaultStore) Writes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// Stats returns a copy of the injected-fault counters.
func (f *FaultStore) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// StartTrace begins recording the block number of every applied write, in
// device submission order. Crash-consistency tests use the trace to assert
// ordering invariants (e.g. data blocks before superblock/bitmap).
func (f *FaultStore) StartTrace() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trace = []int64{}
}

// StopTrace stops recording and returns the applied-write trace.
func (f *FaultStore) StopTrace() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.trace
	f.trace = nil
	return out
}

// NumBlocks returns the number of blocks on the wrapped store.
func (f *FaultStore) NumBlocks() int64 { return f.store.NumBlocks() }

// BlockSize returns the block size of the wrapped store.
func (f *FaultStore) BlockSize() int { return f.store.BlockSize() }

// ReadBlock reads block n, possibly injecting a fault or corrupting the
// returned data.
func (f *FaultStore) ReadBlock(n int64, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.permRead[n] {
		f.stats.PermFaults++
		return fmt.Errorf("vdisk: injected media error reading block %d: %w", n, ErrCorrupt)
	}
	if left := f.pendingRead[n]; left > 0 {
		if left == 1 {
			delete(f.pendingRead, n)
			f.graceRead[n] = true
		} else {
			f.pendingRead[n] = left - 1
		}
		f.stats.ReadFaults++
		return fmt.Errorf("vdisk: injected transient error reading block %d: %w", n, ErrTransient)
	}
	if f.graceRead[n] {
		delete(f.graceRead, n)
	} else if f.readRate > 0 && f.rng.Float64() < f.readRate {
		if f.failsPer > 1 {
			f.pendingRead[n] = f.failsPer - 1
		} else {
			f.graceRead[n] = true
		}
		f.stats.ReadFaults++
		return fmt.Errorf("vdisk: injected transient error reading block %d: %w", n, ErrTransient)
	}
	if err := f.store.ReadBlock(n, buf); err != nil {
		return err
	}
	if bit, ok := f.flips[n]; ok && int(bit/8) < len(buf) {
		buf[bit/8] ^= 1 << (bit % 8)
		f.stats.CorruptReads++
	}
	return nil
}

// WriteBlock writes block n, possibly injecting a fault or tearing the
// write. Torn and dropped writes report success: the device acknowledged
// them, the platter never saw them.
func (f *FaultStore) WriteBlock(n int64, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.permWrite[n] {
		f.stats.PermFaults++
		return fmt.Errorf("vdisk: injected media error writing block %d: %w", n, ErrCorrupt)
	}
	if left := f.pendingWrite[n]; left > 0 {
		if left == 1 {
			delete(f.pendingWrite, n)
			f.graceWrite[n] = true
		} else {
			f.pendingWrite[n] = left - 1
		}
		f.stats.WriteFaults++
		return fmt.Errorf("vdisk: injected transient error writing block %d: %w", n, ErrTransient)
	}
	if f.graceWrite[n] {
		delete(f.graceWrite, n)
	} else if f.writeRate > 0 && f.rng.Float64() < f.writeRate {
		if f.failsPer > 1 {
			f.pendingWrite[n] = f.failsPer - 1
		} else {
			f.graceWrite[n] = true
		}
		f.stats.WriteFaults++
		return fmt.Errorf("vdisk: injected transient error writing block %d: %w", n, ErrTransient)
	}
	if f.tornAccept >= 0 {
		switch {
		case f.tornAccept > 0:
			f.tornAccept--
		case f.tornWindow > 0:
			f.tornWindow--
			if f.rng.Intn(2) == 0 {
				f.stats.TornDropped++
				return nil
			}
			f.stats.TornApplied++
		default:
			f.stats.Dropped++
			return nil
		}
	}
	if err := f.store.WriteBlock(n, buf); err != nil {
		return err
	}
	delete(f.flips, n) // a fresh write heals bit rot
	f.writes++
	if f.trace != nil {
		f.trace = append(f.trace, n)
	}
	return nil
}

// Sync passes through to the wrapped store when it supports it.
func (f *FaultStore) Sync() error {
	if s, ok := f.store.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Close closes the wrapped store.
func (f *FaultStore) Close() error { return f.store.Close() }

var _ Store = (*FaultStore)(nil)
