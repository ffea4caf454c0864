package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"time"

	"stegfs/internal/sgcrypto"
	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
)

// class is an op's latency class. Latency is recorded per class and never
// mixed across classes: a mixed-op percentile sits on whichever class
// boundary the mix puts there and swings with it.
type class int

const (
	classRead  class = iota // HiddenView.Read, PartitionedTable.Get
	classWrite              // Write, Delete+Create, Put, Put+Delete
	classScan               // PartitionedTable.Range
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan"}

// workload is one seeded op mix. The op sequence is generated up front from
// the seed; op i is the same operation on every run with that seed. Ops
// [0, warmOps) are the warm-up, run during set-up; the window starts at
// warmOps.
type workload interface {
	spec() spec
	// length is the number of ops in the pre-generated sequence.
	length() int
	// populate creates the workload's data on a freshly formatted volume
	// and resets the model the ops are verified against.
	populate(v *volume, tr *tracer) error
	// op runs op i and checks its result against the model. It returns the
	// op's class, the time spent in the calls into the system under test,
	// and the user payload bytes written.
	op(i int) (class, time.Duration, int64, error)
	// commit makes every write made so far durable.
	commit() error
	// liveBytes is the user payload currently live.
	liveBytes() int64
	// pages is the stegdb page count (0 for the file workloads).
	pages() int64
	// verify checks the live structures after the window.
	verify() error
	// checkOptions names everything stegfs.Check should verify.
	checkOptions() stegfs.CheckOptions
	// durable counts writes acknowledged by the last commit that a fresh
	// mount of the volume image does not read back.
	durable(fs *stegfs.FS) (int, error)
}

func newWorkload(s spec, seed int64, seconds float64) workload {
	n := s.warmOps + s.exactOps
	if extra := int(seconds*float64(s.maxRate)) - s.exactOps; extra > 0 {
		n += extra
	}
	if s.commitEvery > 0 {
		n = (n + s.commitEvery - 1) / s.commitEvery * s.commitEvery
	}
	switch s.name {
	case "hidden-read":
		return newHiddenRead(s, seed, n)
	case "hidden-churn":
		return newHiddenChurn(s, seed, n)
	default:
		return newOLTP(s, seed, n)
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// contentPool is the seeded byte pool every file's contents are sliced
// from, so writes cost the benchmark no generation time.
func contentPool(seed int64, maxSize int) []byte {
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], uint64(seed))
	pool := make([]byte, 1<<20+maxSize)
	sgcrypto.NewRandomFiller(append([]byte("perfbench.content"), key[:]...)).Fill(pool)
	return pool
}

// rankSize is the r-th size of the golden-ratio sequence over [lo, hi]: a
// low-discrepancy walk that covers the range evenly. hidden-read gives the
// file of popularity rank r this size instead of a seeded draw, so the size
// mix of the hot set is the same under every seed and the read latency
// does not jump with the size of whichever file a seed makes hottest.
func rankSize(r, lo, hi int) int {
	_, frac := math.Modf(float64(r+1) * 0.6180339887498949)
	return lo + int(frac*float64(hi-lo+1))
}

// fileState is one hidden file as the model knows it.
type fileState struct {
	gen  int32 // name generation (hidden-churn re-creates under new names)
	off  int32 // offset of the contents in the pool
	size int32
	sum  uint32
}

func fileName(slot, gen int32) string { return fmt.Sprintf("f%04d.%d", slot, gen) }

// readFile reads one hidden file and checks it against the model.
func readFile(v *volume, tr *tracer, name string, st fileState) (time.Duration, error) {
	sp := tr.begin(kFsRead)
	t0 := time.Now()
	data, err := v.view.Read(name)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return d, fmt.Errorf("read %s: %w", name, err)
	}
	if len(data) != int(st.size) || checksum(data) != st.sum {
		return d, fmt.Errorf("read %s: %d bytes with checksum %08x, want %d bytes with %08x",
			name, len(data), checksum(data), st.size, st.sum)
	}
	return d, nil
}

// durableFiles adopts every model file on a fresh mount and counts the ones
// that are missing or read back wrong.
func durableFiles(fs *stegfs.FS, files []fileState) int {
	view := fs.NewHiddenView(uid)
	lost := 0
	for slot, st := range files {
		name := fileName(int32(slot), st.gen)
		if err := view.Adopt(name); err != nil {
			lost++
			continue
		}
		data, err := view.Read(name)
		if err != nil || len(data) != int(st.size) || checksum(data) != st.sum {
			lost++
		}
	}
	return lost
}

func fileCheckOptions(files []fileState) stegfs.CheckOptions {
	names := make([]string, len(files))
	for slot, st := range files {
		names[slot] = fileName(int32(slot), st.gen)
	}
	return stegfs.CheckOptions{ViewFiles: map[string][]string{uid: names}}
}

func liveFileBytes(files []fileState) int64 {
	var n int64
	for _, st := range files {
		n += int64(st.size)
	}
	return n
}

// hiddenRead reads whole hidden files picked by a Zipf law.
type hiddenRead struct {
	s     spec
	v     *volume
	tr    *tracer
	pool  []byte
	files []fileState // indexed by popularity rank
	names []string
	seq   []int32 // rank read by each op
}

func newHiddenRead(s spec, seed int64, n int) *hiddenRead {
	rng := rand.New(rand.NewSource(seed))
	w := &hiddenRead{s: s, pool: contentPool(seed, s.maxSize), files: make([]fileState, s.files), seq: make([]int32, n)}
	for r := range w.files {
		size := rankSize(r, s.minSize, s.maxSize)
		off := rng.Intn(len(w.pool) - size + 1)
		w.files[r] = fileState{off: int32(off), size: int32(size), sum: checksum(w.pool[off : off+size])}
		w.names = append(w.names, fileName(int32(r), 0))
	}
	z := rand.NewZipf(rng, 1.1, 1, uint64(s.files-1))
	for i := range w.seq {
		w.seq[i] = int32(z.Uint64())
	}
	return w
}

func (w *hiddenRead) spec() spec  { return w.s }
func (w *hiddenRead) length() int { return len(w.seq) }

func (w *hiddenRead) populate(v *volume, tr *tracer) error {
	w.v, w.tr = v, tr
	for r, st := range w.files {
		if err := v.view.Create(w.names[r], w.pool[st.off:st.off+st.size]); err != nil {
			return fmt.Errorf("create file %d: %w", r, err)
		}
	}
	return v.fs.Sync()
}

func (w *hiddenRead) op(i int) (class, time.Duration, int64, error) {
	r := w.seq[i]
	d, err := readFile(w.v, w.tr, w.names[r], w.files[r])
	return classRead, d, 0, err
}

func (w *hiddenRead) commit() error                      { return nil }
func (w *hiddenRead) liveBytes() int64                   { return liveFileBytes(w.files) }
func (w *hiddenRead) pages() int64                       { return 0 }
func (w *hiddenRead) verify() error                      { return nil }
func (w *hiddenRead) checkOptions() stegfs.CheckOptions  { return fileCheckOptions(w.files) }
func (w *hiddenRead) durable(fs *stegfs.FS) (int, error) { return durableFiles(fs, w.files), nil }

// Op kinds of hidden-churn.
const (
	churnRead    = iota // whole-file Read
	churnWrite          // in-place Write with a new size
	churnReplace        // Delete, then Create under a new name
)

type churnOp struct {
	kind uint8
	slot int32
	off  int32
	size int32
	sum  uint32
}

// hiddenChurn rewrites, replaces and reads a fixed-size population of
// hidden files, with an FS.Sync every commitEvery ops.
type hiddenChurn struct {
	s     spec
	v     *volume
	tr    *tracer
	pool  []byte
	init  []fileState // population after populate
	files []fileState // model during the run
	seq   []churnOp
}

func newHiddenChurn(s spec, seed int64, n int) *hiddenChurn {
	rng := rand.New(rand.NewSource(seed))
	w := &hiddenChurn{s: s, pool: contentPool(seed, s.maxSize), init: make([]fileState, s.files), seq: make([]churnOp, n)}
	// Sizes walk the golden-ratio sequence from a seeded start rather than
	// being drawn independently: they stay uniform over [minSize, maxSize]
	// but the live total, and with it space_amp, barely moves with the seed.
	var k int
	start := rng.Intn(1 << 20)
	content := func() (int32, int32, uint32) {
		size := rankSize(start+k, s.minSize, s.maxSize)
		k++
		off := rng.Intn(len(w.pool) - size + 1)
		return int32(off), int32(size), checksum(w.pool[off : off+size])
	}
	for slot := range w.init {
		off, size, sum := content()
		w.init[slot] = fileState{off: off, size: size, sum: sum}
	}
	for i := range w.seq {
		o := churnOp{slot: int32(rng.Intn(s.files))}
		switch u := rng.Intn(10); {
		case u < 5:
			o.kind = churnWrite
		case u < 7:
			o.kind = churnReplace
		default:
			o.kind = churnRead
		}
		if o.kind != churnRead {
			o.off, o.size, o.sum = content()
		}
		w.seq[i] = o
	}
	return w
}

func (w *hiddenChurn) spec() spec  { return w.s }
func (w *hiddenChurn) length() int { return len(w.seq) }

func (w *hiddenChurn) populate(v *volume, tr *tracer) error {
	w.v, w.tr = v, tr
	w.files = append(w.files[:0], w.init...)
	for slot, st := range w.files {
		if err := v.view.Create(fileName(int32(slot), 0), w.pool[st.off:st.off+st.size]); err != nil {
			return fmt.Errorf("create file %d: %w", slot, err)
		}
	}
	return v.fs.Sync()
}

func (w *hiddenChurn) op(i int) (class, time.Duration, int64, error) {
	o := w.seq[i]
	st := &w.files[o.slot]
	name := fileName(o.slot, st.gen)
	if o.kind == churnRead {
		d, err := readFile(w.v, w.tr, name, *st)
		return classRead, d, 0, err
	}
	data := w.pool[o.off : o.off+o.size]
	var d time.Duration
	var err error
	if o.kind == churnWrite {
		sp := w.tr.begin(kFsWrite)
		t0 := time.Now()
		err = w.v.view.Write(name, data)
		d = time.Since(t0)
		w.tr.end(sp)
	} else {
		next := fileName(o.slot, st.gen+1)
		sp := w.tr.begin(kFsDelete)
		t0 := time.Now()
		err = w.v.view.Delete(name)
		w.tr.end(sp)
		if err == nil {
			sp = w.tr.begin(kFsCreate)
			err = w.v.view.Create(next, data)
			w.tr.end(sp)
		}
		d = time.Since(t0)
		st.gen++
	}
	st.off, st.size, st.sum = o.off, o.size, o.sum
	if err != nil {
		return classWrite, d, 0, fmt.Errorf("op %d on slot %d: %w", i, o.slot, err)
	}
	return classWrite, d, int64(o.size), nil
}

func (w *hiddenChurn) commit() error {
	sp := w.tr.begin(kFsSync)
	err := w.v.fs.Sync()
	w.tr.end(sp)
	return err
}

func (w *hiddenChurn) liveBytes() int64                   { return liveFileBytes(w.files) }
func (w *hiddenChurn) pages() int64                       { return 0 }
func (w *hiddenChurn) verify() error                      { return nil }
func (w *hiddenChurn) checkOptions() stegfs.CheckOptions  { return fileCheckOptions(w.files) }
func (w *hiddenChurn) durable(fs *stegfs.FS) (int, error) { return durableFiles(fs, w.files), nil }

// Op kinds of stegdb-oltp.
const (
	dbGet       = iota // point Get of a live row
	dbPut              // replace Put of a live row
	dbTransient        // Put of a fresh key, then its Delete
	dbRange            // Range over scanRows consecutive rows
)

// tableName is the PartitionedTable stegdb-oltp runs on.
const tableName = "oltp"

// valueLen is the stegdb-oltp row value size; keys are 8 bytes.
const valueLen = 100

// transientBase keeps transient keys clear of every live row and Range.
const transientBase = 1 << 40

type dbOp struct {
	kind uint8
	id   uint32 // row id; the transient key index for dbTransient
	ver  uint32 // dbPut: the row's new version
}

// oltp runs a Get/Put/Put+Delete/Range mix on a PartitionedTable, with a
// group-commit Sync every commitEvery ops.
type oltp struct {
	s    spec
	v    *volume
	tr   *tracer
	pt   *stegdb.PartitionedTable
	vers []uint32 // model: each row's current version
	seq  []dbOp

	key, val, want []byte // scratch
}

func newOLTP(s spec, seed int64, n int) *oltp {
	rng := rand.New(rand.NewSource(seed))
	w := &oltp{s: s, seq: make([]dbOp, n), key: make([]byte, 8), val: make([]byte, valueLen), want: make([]byte, valueLen)}
	next := make([]uint32, s.rows)
	var transient uint32
	for i := range w.seq {
		var o dbOp
		switch u := rng.Intn(10); {
		case u < 6:
			o = dbOp{kind: dbGet, id: uint32(rng.Intn(s.rows))}
		case u < 8:
			o = dbOp{kind: dbPut, id: uint32(rng.Intn(s.rows))}
			next[o.id]++
			o.ver = next[o.id]
		case u < 9:
			o = dbOp{kind: dbTransient, id: transient}
			transient++
		default:
			o = dbOp{kind: dbRange, id: uint32(rng.Intn(s.rows - s.scanRows + 1))}
		}
		w.seq[i] = o
	}
	return w
}

func putKey(dst []byte, id uint64) []byte {
	binary.BigEndian.PutUint64(dst, id)
	return dst
}

// putValue fills dst with row id's value at version ver: the id and version
// followed by a splitmix64 stream of both, so a torn or stale row shows.
func putValue(dst []byte, id uint64, ver uint32) []byte {
	binary.BigEndian.PutUint64(dst, id)
	binary.BigEndian.PutUint32(dst[8:], ver)
	x := id<<32 ^ uint64(ver)
	for off := 12; off < len(dst); off += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], z^z>>31)
		copy(dst[off:], b[:])
	}
	return dst
}

func (w *oltp) spec() spec  { return w.s }
func (w *oltp) length() int { return len(w.seq) }

func (w *oltp) populate(v *volume, tr *tracer) error {
	w.v, w.tr = v, tr
	var view stegdb.View = v.view
	if tr != nil {
		view = &tracedView{view: v.view, tr: tr}
	}
	pt, err := stegdb.CreatePartitionedTable(view, tableName, w.s.partitions, true, w.s.buckets)
	if err != nil {
		return fmt.Errorf("create table: %w", err)
	}
	w.pt = pt
	w.vers = make([]uint32, w.s.rows)
	for id := range w.vers {
		if err := pt.Put(putKey(w.key, uint64(id)), putValue(w.val, uint64(id), 0)); err != nil {
			return fmt.Errorf("populate row %d: %w", id, err)
		}
	}
	return pt.Sync()
}

func (w *oltp) op(i int) (class, time.Duration, int64, error) {
	o := w.seq[i]
	switch o.kind {
	case dbGet:
		sp := w.tr.begin(kDbGet)
		t0 := time.Now()
		got, ok, err := w.pt.Get(putKey(w.key, uint64(o.id)))
		d := time.Since(t0)
		w.tr.end(sp)
		if err != nil || !ok {
			return classRead, d, 0, fmt.Errorf("get row %d: found=%v err=%v", o.id, ok, err)
		}
		if !bytes.Equal(got, putValue(w.want, uint64(o.id), w.vers[o.id])) {
			return classRead, d, 0, fmt.Errorf("get row %d: value differs from version %d", o.id, w.vers[o.id])
		}
		return classRead, d, 0, nil
	case dbPut:
		sp := w.tr.begin(kDbPut)
		t0 := time.Now()
		err := w.pt.Put(putKey(w.key, uint64(o.id)), putValue(w.val, uint64(o.id), o.ver))
		d := time.Since(t0)
		w.tr.end(sp)
		if err != nil {
			return classWrite, d, 0, fmt.Errorf("put row %d: %w", o.id, err)
		}
		w.vers[o.id] = o.ver
		return classWrite, d, 8 + valueLen, nil
	case dbTransient:
		k := putKey(w.key, transientBase+uint64(o.id))
		sp := w.tr.begin(kDbPut)
		t0 := time.Now()
		err := w.pt.Put(k, putValue(w.val, transientBase+uint64(o.id), 0))
		w.tr.end(sp)
		found := false
		if err == nil {
			sp = w.tr.begin(kDbDelete)
			found, err = w.pt.Delete(k)
			w.tr.end(sp)
		}
		d := time.Since(t0)
		if err != nil || !found {
			return classWrite, d, 0, fmt.Errorf("transient row %d: found=%v err=%v", o.id, found, err)
		}
		return classWrite, d, 8 + valueLen, nil
	default:
		lo := uint64(o.id)
		next := lo
		var bad error
		visit := func(k, val []byte) bool {
			if id := binary.BigEndian.Uint64(k); id != next {
				bad = fmt.Errorf("range from %d: got row %d, want %d", lo, id, next)
				return false
			}
			if !bytes.Equal(val, putValue(w.want, next, w.vers[next])) {
				bad = fmt.Errorf("range from %d: row %d differs from version %d", lo, next, w.vers[next])
				return false
			}
			next++
			return true
		}
		hi := make([]byte, 8)
		sp := w.tr.begin(kDbRange)
		t0 := time.Now()
		err := w.pt.Range(putKey(w.key, lo), putKey(hi, lo+uint64(w.s.scanRows)), visit)
		d := time.Since(t0)
		w.tr.end(sp)
		switch {
		case err != nil:
			return classScan, d, 0, fmt.Errorf("range from %d: %w", lo, err)
		case bad != nil:
			return classScan, d, 0, bad
		case next != lo+uint64(w.s.scanRows):
			return classScan, d, 0, fmt.Errorf("range from %d: %d rows, want %d", lo, next-lo, w.s.scanRows)
		}
		return classScan, d, 0, nil
	}
}

func (w *oltp) commit() error {
	sp := w.tr.begin(kDbSync)
	err := w.pt.Sync()
	w.tr.end(sp)
	return err
}

func (w *oltp) liveBytes() int64 { return int64(w.s.rows) * (8 + valueLen) }
func (w *oltp) pages() int64     { return w.pt.Pages() }

func (w *oltp) verify() error {
	if err := w.pt.Check(); err != nil {
		return fmt.Errorf("table check: %w", err)
	}
	rows, err := w.pt.Rows()
	if err != nil {
		return err
	}
	if rows != int64(w.s.rows) {
		return fmt.Errorf("table holds %d rows, want %d", rows, w.s.rows)
	}
	return nil
}

func (w *oltp) checkOptions() stegfs.CheckOptions {
	return stegfs.CheckOptions{
		Tables: []stegfs.TableRef{{UID: uid, Name: tableName}},
		CheckTable: func(view *stegfs.HiddenView, name string) ([]string, error) {
			return stegdb.CheckAny(view, view.Adopt, name)
		},
	}
}

func (w *oltp) durable(fs *stegfs.FS) (int, error) {
	view := fs.NewHiddenView(uid)
	for _, f := range w.pt.Files() {
		if err := view.Adopt(f); err != nil {
			return 0, fmt.Errorf("adopt %s: %w", f, err)
		}
	}
	pt, err := stegdb.OpenPartitionedTable(view, tableName)
	if err != nil {
		return 0, fmt.Errorf("reopen table: %w", err)
	}
	lost := 0
	for id, ver := range w.vers {
		got, ok, err := pt.Get(putKey(w.key, uint64(id)))
		if err != nil || !ok || !bytes.Equal(got, putValue(w.want, uint64(id), ver)) {
			lost++
		}
	}
	rows, err := pt.Rows()
	if err != nil {
		return lost, err
	}
	if rows != int64(w.s.rows) {
		return lost, errors.New("reopened table has the wrong row count")
	}
	return lost, nil
}
