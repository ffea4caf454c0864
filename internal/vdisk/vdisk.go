// Package vdisk implements the virtual block device substrate used by every
// file system in this repository.
//
// The ICDE 2003 StegFS evaluation ran on a physical Ultra ATA/100 disk; its
// measured access times are dominated by mechanical latency (seek and
// rotational delay) and by the drive's read-ahead behaviour. vdisk reproduces
// that cost structure with a deterministic simulator: every block request is
// charged a simulated service time derived from the head position, the seek
// distance, the rotational latency and the transfer rate. Sequential reads
// that fall inside the read-ahead window are served from the prefetch cache
// at transfer cost only.
//
// The simulated clock is the Disk's Elapsed() value; nothing ever sleeps, so
// experiments are fast and perfectly repeatable.
package vdisk

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// Common errors returned by stores and disks.
var (
	// ErrOutOfRange reports a block number outside the device.
	ErrOutOfRange = errors.New("vdisk: block number out of range")
	// ErrBadBuffer reports a buffer whose length differs from the block size.
	ErrBadBuffer = errors.New("vdisk: buffer length != block size")
	// ErrClosed reports use of a closed device.
	ErrClosed = errors.New("vdisk: device is closed")
	// ErrTransient reports a fault that may clear on retry (a momentary bus
	// or controller error). RetryDevice retries these; nothing above the
	// retry seam should ever observe one.
	ErrTransient = errors.New("vdisk: transient device error")
	// ErrCorrupt reports an unrecoverable media fault on a block (a grown
	// defect, an uncorrectable ECC error). Retrying cannot help.
	ErrCorrupt = errors.New("vdisk: unrecoverable media error")
	// ErrIO wraps an operating-system I/O error from a file-backed store, so
	// callers can classify host failures without matching os/syscall errors
	// directly. RetryDevice treats these as retryable.
	ErrIO = errors.New("vdisk: host I/O error")
)

// IsFault reports whether err is a device-level fault (as opposed to a usage
// error such as ErrOutOfRange or ErrBadBuffer). stegfs uses this to decide
// when a failed write should degrade the mount to read-only.
func IsFault(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrIO)
}

// Device is the block-level interface the file systems are written against.
// Both raw stores (no timing) and Disk (timing simulator) implement it.
//
// Buffer ownership: a device reads a write's buffer only until the call
// returns, never writes into it, and never retains it; a read's buffer is
// the caller's again once the call returns. The block cache relies on this
// to hand its own resident buffers to a write-back flight (see
// blockcache's flush pipeline). Wrappers keep the rule by passing buffers
// down within the call: Disk's latency emulation sleeps after the store
// pass is done with them, RetryDevice reissues from the caller's buffers
// before it returns, and FaultStore's torn and dropped writes only decide
// whether the store sees the buffer.
type Device interface {
	// ReadBlock reads block n into buf. len(buf) must equal BlockSize().
	//
	// lockcheck:io
	ReadBlock(n int64, buf []byte) error
	// WriteBlock writes buf to block n. len(buf) must equal BlockSize().
	//
	// lockcheck:io
	WriteBlock(n int64, buf []byte) error
	// NumBlocks returns the number of blocks on the device.
	NumBlocks() int64
	// BlockSize returns the block size in bytes.
	BlockSize() int
}

// BatchDevice is a Device that can service many blocks in one call. A batch
// is submitted to the device as a unit: implementations sort the requests by
// block number before issuing them (so sequential runs earn the read-ahead /
// streaming reward of the timing model) and acquire their internal locks once
// per batch instead of once per block. The data read or written is exactly
// what the equivalent sequence of per-block calls would produce; only the
// submission order and the locking cost differ. Every bufs[i] follows the
// Device buffer-ownership rule.
type BatchDevice interface {
	Device
	// ReadBlocks reads block ns[i] into bufs[i] for every i. len(ns) must
	// equal len(bufs) and every buffer must be exactly one block long.
	//
	// lockcheck:io
	ReadBlocks(ns []int64, bufs [][]byte) error
	// WriteBlocks writes bufs[i] to block ns[i] for every i.
	//
	// lockcheck:io
	WriteBlocks(ns []int64, bufs [][]byte) error
}

// ReadBlocks reads many blocks through dev, using the BatchDevice fast path
// when the device offers one and falling back to per-block calls otherwise.
func ReadBlocks(dev Device, ns []int64, bufs [][]byte) error {
	if len(ns) != len(bufs) {
		return fmt.Errorf("%w: %d block numbers, %d buffers", ErrBadBuffer, len(ns), len(bufs))
	}
	if bd, ok := dev.(BatchDevice); ok {
		return bd.ReadBlocks(ns, bufs)
	}
	for i, n := range ns {
		if err := dev.ReadBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocks writes many blocks through dev, using the BatchDevice fast
// path when available.
func WriteBlocks(dev Device, ns []int64, bufs [][]byte) error {
	if len(ns) != len(bufs) {
		return fmt.Errorf("%w: %d block numbers, %d buffers", ErrBadBuffer, len(ns), len(bufs))
	}
	if bd, ok := dev.(BatchDevice); ok {
		return bd.WriteBlocks(ns, bufs)
	}
	for i, n := range ns {
		if err := dev.WriteBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Geometry describes the mechanical timing model of the simulated drive.
// The defaults approximate a 2003-era 7200 RPM Ultra ATA/100 disk, matching
// the testbed in Table 2 of the paper.
type Geometry struct {
	// AvgSeek is the average (one-third stroke) seek time.
	AvgSeek time.Duration
	// TrackToTrack is the minimum seek time between adjacent tracks.
	TrackToTrack time.Duration
	// RPM is the spindle speed; rotational latency is half a revolution.
	RPM int
	// TransferRate is the sustained media transfer rate in bytes/second.
	TransferRate float64
	// TrackSizeBytes is the amount of data per track, used to decide when a
	// sequential run crosses a track boundary (charged TrackToTrack).
	TrackSizeBytes int
	// ReadAheadBytes is the size of the drive's prefetch window. A read that
	// continues a sequential run within this window is served by streaming:
	// it is charged the transfer time of every block passed over (the media
	// still rotates under the head), or a fresh seek if that would be
	// cheaper.
	ReadAheadBytes int
	// PerRequest is the fixed per-request overhead (controller, interrupt,
	// kernel path) charged on every block request.
	PerRequest time.Duration
	// VolumeSpan is the fraction of the physical platter the volume
	// occupies. The paper's 1 GB volume lives on a 20 GB disk, so seeks
	// within the volume are short-stroke: distance fractions are scaled by
	// this factor before entering the seek curve.
	VolumeSpan float64
}

// DefaultGeometry returns timing parameters approximating the paper's
// testbed disk (Ultra ATA/100, 7200 RPM, ~40 MB/s sustained).
func DefaultGeometry() Geometry {
	return Geometry{
		AvgSeek:        8900 * time.Microsecond,
		TrackToTrack:   1200 * time.Microsecond,
		RPM:            7200,
		TransferRate:   40 << 20, // 40 MiB/s
		TrackSizeBytes: 512 << 10,
		ReadAheadBytes: 256 << 10,
		PerRequest:     200 * time.Microsecond,
		VolumeSpan:     0.05, // 1 GB volume on a 20 GB disk
	}
}

// rotLatency returns the average rotational latency (half a revolution).
func (g Geometry) rotLatency() time.Duration {
	if g.RPM <= 0 {
		return 0
	}
	perRev := time.Minute / time.Duration(g.RPM)
	return perRev / 2
}

// transferTime returns the media transfer time for n bytes.
func (g Geometry) transferTime(n int) time.Duration {
	if g.TransferRate <= 0 {
		return 0
	}
	sec := float64(n) / g.TransferRate
	return time.Duration(sec * float64(time.Second))
}

// seekTime models the classic square-root seek curve: track-to-track cost
// for distance 1, rising with the square root of the seek distance toward
// roughly 2x the average seek for a full-stroke move.
func (g Geometry) seekTime(distBlocks, totalBlocks int64) time.Duration {
	if distBlocks <= 0 || totalBlocks <= 0 {
		return 0
	}
	frac := float64(distBlocks) / float64(totalBlocks)
	if g.VolumeSpan > 0 && g.VolumeSpan <= 1 {
		frac *= g.VolumeSpan
	}
	if frac > 1 {
		frac = 1
	}
	// full-stroke seek ~= 2 * average seek (uniform-random seeks average to
	// one third of the stroke; sqrt model calibrated so that frac=1/3 yields
	// approximately AvgSeek).
	full := 2 * float64(g.AvgSeek-g.TrackToTrack)
	t := float64(g.TrackToTrack) + full*math.Sqrt(frac)*0.866
	return time.Duration(t)
}

// Stats aggregates the operation counts and simulated costs of a Disk.
type Stats struct {
	Reads        int64         // block reads issued
	Writes       int64         // block writes issued
	SeqHits      int64         // reads served from the read-ahead window
	Seeks        int64         // requests that paid a mechanical seek
	BytesRead    int64         // total bytes read
	BytesWritten int64         // total bytes written
	BatchReads   int64         // ReadBlocks submissions (each covers >= 1 blocks)
	BatchWrites  int64         // WriteBlocks submissions (each covers >= 1 blocks)
	Busy         time.Duration // accumulated service time
	Retries      int64         // requests reissued after a retryable fault (RetryDevice)
	GiveUps      int64         // requests abandoned after exhausting the retry budget
}

// Disk wraps a Store with the mechanical timing simulator. It is safe for
// concurrent use; requests are serialized exactly like a single spindle.
type Disk struct {
	// The timing state below is mutated per request, but the store I/O
	// itself always runs outside the mutex (the noio flag enforces that):
	// a held d.mu only ever covers clock arithmetic, never a device wait.
	//
	// lockcheck:level 62 volume/diskMu noio
	mu    sync.Mutex
	store Store
	geom  Geometry

	// lockcheck:guardedby mu
	clock time.Duration
	// lockcheck:guardedby mu
	headPos int64 // next block after the last serviced request; -1 = unknown
	// lockcheck:guardedby mu
	raEnd int64 // exclusive end of the current read-ahead window
	// lockcheck:guardedby mu
	stats Stats

	// emuScale > 0 turns on latency emulation: every request additionally
	// sleeps emuScale x its simulated service time, outside d.mu. See
	// EmulateLatency.
	//
	// lockcheck:guardedby mu
	emuScale float64
}

// NewDisk builds a timing-simulated disk over store.
func NewDisk(store Store, geom Geometry) *Disk {
	return &Disk{store: store, geom: geom, headPos: -1, raEnd: -1}
}

// NumBlocks returns the number of blocks on the device.
func (d *Disk) NumBlocks() int64 { return d.store.NumBlocks() }

// BlockSize returns the block size in bytes.
func (d *Disk) BlockSize() int { return d.store.BlockSize() }

// Geometry returns the timing model in use.
func (d *Disk) Geometry() Geometry { return d.geom }

// Elapsed returns the simulated time consumed by all requests so far.
func (d *Disk) Elapsed() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// EmulateLatency makes every request actually sleep scale x its simulated
// service time (0 disables, the default). The simulated clock is untouched:
// it remains the serialized single-spindle cost and stays the canonical
// experiment metric. The sleep happens outside the simulator lock, so
// requests from concurrent callers overlap their waits the way a
// command-queuing device overlaps outstanding requests. Concurrency
// experiments use this to measure how much device latency the software
// stack above the disk can keep in flight: a layer that holds a shared lock
// across its device calls serializes the sleeps and its wall-clock
// throughput stays flat no matter how many callers pile on.
func (d *Disk) EmulateLatency(scale float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if scale < 0 {
		scale = 0
	}
	d.emuScale = scale
}

// emulate sleeps the emulated share of cost, if emulation is on. Called
// without d.mu held; scale is the emuScale captured under the lock.
func emulate(scale float64, cost time.Duration) {
	if scale > 0 && cost > 0 {
		time.Sleep(time.Duration(float64(cost) * scale))
	}
}

// ResetClock zeroes the simulated clock and statistics without touching the
// stored data or the head position.
func (d *Disk) ResetClock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock = 0
	d.stats = Stats{}
}

// ReadBlock reads block n, charging simulated service time. The store is
// consulted first: a rejected request (out of range, bad buffer, closed
// store) returns its error without touching the clock, the head position or
// the statistics, so failed I/O can never skew an experiment window.
func (d *Disk) ReadBlock(n int64, buf []byte) error {
	if err := d.store.ReadBlock(n, buf); err != nil {
		return err
	}
	d.mu.Lock()
	cost := d.chargeLocked(n, true)
	d.stats.Reads++
	d.stats.BytesRead += int64(len(buf))
	d.clock += cost
	d.stats.Busy += cost
	scale := d.emuScale
	d.mu.Unlock()
	emulate(scale, cost)
	return nil
}

// WriteBlock writes block n, charging simulated service time. As with
// ReadBlock, a store error short-circuits before any simulator state is
// mutated.
func (d *Disk) WriteBlock(n int64, buf []byte) error {
	if err := d.store.WriteBlock(n, buf); err != nil {
		return err
	}
	d.mu.Lock()
	cost := d.chargeLocked(n, false)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(buf))
	d.clock += cost
	d.stats.Busy += cost
	scale := d.emuScale
	d.mu.Unlock()
	emulate(scale, cost)
	return nil
}

// ReadBlocks implements BatchDevice: the batch is sorted by block number and
// charged as one uninterrupted submission, so an ascending run earns the
// sequential/read-ahead pricing even when other callers are hammering the
// disk concurrently. All store reads are performed (and validated) before
// any simulator state is touched, so a failed batch charges nothing.
func (d *Disk) ReadBlocks(ns []int64, bufs [][]byte) error {
	return d.batch(ns, bufs, true)
}

// WriteBlocks implements BatchDevice with the same sorted-submission and
// fail-charge-nothing semantics as ReadBlocks.
func (d *Disk) WriteBlocks(ns []int64, bufs [][]byte) error {
	return d.batch(ns, bufs, false)
}

func (d *Disk) batch(ns []int64, bufs [][]byte, read bool) error {
	if len(ns) != len(bufs) {
		return fmt.Errorf("%w: %d block numbers, %d buffers", ErrBadBuffer, len(ns), len(bufs))
	}
	if len(ns) == 0 {
		return nil
	}
	order := make([]int, len(ns))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ns[a], ns[b]) })

	// Store pass first: every block transfers (or the whole batch is
	// rejected) before the clock, head position or statistics move.
	for _, i := range order {
		var err error
		if read {
			err = d.store.ReadBlock(ns[i], bufs[i])
		} else {
			err = d.store.WriteBlock(ns[i], bufs[i])
		}
		if err != nil {
			return err
		}
	}
	var total time.Duration
	d.mu.Lock()
	if read {
		d.stats.BatchReads++
	} else {
		d.stats.BatchWrites++
	}
	for _, i := range order {
		cost := d.chargeLocked(ns[i], read)
		if read {
			d.stats.Reads++
			d.stats.BytesRead += int64(len(bufs[i]))
		} else {
			d.stats.Writes++
			d.stats.BytesWritten += int64(len(bufs[i]))
		}
		d.clock += cost
		d.stats.Busy += cost
		total += cost
	}
	scale := d.emuScale
	d.mu.Unlock()
	emulate(scale, total)
	return nil
}

// CostOf returns the simulated service time a request for block n would be
// charged right now, without performing it. Used by tests. The full
// simulator state is restored, including the SeqHits/Seeks counters that
// chargeLocked updates — an earlier version leaked those into Stats.
func (d *Disk) CostOf(n int64, read bool) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	saveHead, saveRA, saveStats := d.headPos, d.raEnd, d.stats
	cost := d.chargeLocked(n, read)
	d.headPos, d.raEnd, d.stats = saveHead, saveRA, saveStats
	return cost
}

// chargeLocked computes the service time for a request on block n and
// updates the head position and read-ahead window. Caller holds d.mu.
//
// lockcheck:holds volume/diskMu
func (d *Disk) chargeLocked(n int64, read bool) time.Duration {
	bs := d.store.BlockSize()
	total := d.store.NumBlocks()
	xfer := d.geom.transferTime(bs)

	sequential := d.headPos >= 0 && n == d.headPos
	inWindow := read && d.raEnd >= 0 && n >= d.headPos && n < d.raEnd

	// Cost of servicing this request with a fresh mechanical seek.
	dist := n - d.headPos
	if d.headPos < 0 {
		dist = total / 3
	}
	if dist < 0 {
		dist = -dist
	}
	missCost := d.geom.seekTime(dist, total) + d.geom.rotLatency() + xfer

	var cost time.Duration
	switch {
	case sequential:
		// Continuing the sequential run: media transfer only, plus a
		// track-to-track hop when a track boundary is crossed.
		cost = xfer
		blocksPerTrack := int64(d.geom.TrackSizeBytes / bs)
		if blocksPerTrack > 0 && n%blocksPerTrack == 0 && n != 0 {
			cost += d.geom.TrackToTrack
		}
		d.stats.SeqHits++
	case inWindow:
		// Streaming forward inside the prefetch window: the media rotates
		// under the head, so every skipped block costs its transfer time.
		// Drive firmware falls back to a seek when that is cheaper.
		catchup := xfer * time.Duration(n-d.headPos+1)
		if catchup <= missCost {
			cost = catchup
			d.stats.SeqHits++
		} else {
			cost = missCost
			d.stats.Seeks++
		}
	default:
		cost = missCost
		d.stats.Seeks++
	}
	cost += d.geom.PerRequest

	d.headPos = n + 1
	if read {
		ra := int64(d.geom.ReadAheadBytes / bs)
		d.raEnd = n + 1 + ra
		if d.raEnd > total {
			d.raEnd = total
		}
	} else {
		d.raEnd = -1
	}
	return cost
}

// Sync passes a barrier through to the store when it supports one (a
// FileStore fsyncs), as RetryDevice and FaultStore do. It charges no
// simulated time: the timing model prices block transfers, not barriers.
func (d *Disk) Sync() error {
	if s, ok := d.store.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// String summarizes the disk for logs.
func (d *Disk) String() string {
	return fmt.Sprintf("vdisk.Disk{blocks=%d bs=%d}", d.NumBlocks(), d.BlockSize())
}

var _ BatchDevice = (*Disk)(nil)
