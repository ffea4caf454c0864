package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stegfs/internal/fsapi"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// kind names the call a span times. Spans come from three places, all in
// this package: the workloads' own calls into stegfs and stegdb, the
// stegdb.View wrapper between stegdb and the HiddenView, and the
// vdisk.BatchDevice wrapper under the block cache.
type kind uint8

const (
	kFsRead kind = iota // HiddenView.Read
	kFsWrite
	kFsDelete
	kFsCreate
	kFsSync // FS.Sync
	kDbGet  // PartitionedTable.Get
	kDbPut
	kDbDelete
	kDbRange
	kDbSync
	kViewReadAt // HiddenView calls made by stegdb
	kViewWriteAt
	kViewResize
	kViewCreate
	kViewStat
	kViewSync
	kDevRead // Disk.ReadBlock(s)
	kDevWrite
	numKinds
)

var kindNames = [numKinds]string{
	"stegfs.Read", "stegfs.Write", "stegfs.Delete", "stegfs.Create", "stegfs.Sync",
	"stegdb.Get", "stegdb.Put", "stegdb.Delete", "stegdb.Range", "stegdb.Sync",
	"view.ReadAt", "view.WriteAt", "view.Resize", "view.Create", "view.Stat", "view.Sync",
	"vdisk.Read", "vdisk.Write",
}

func (k kind) isDB() bool     { return k >= kDbGet && k <= kDbSync }
func (k kind) isView() bool   { return k >= kViewReadAt && k <= kViewSync }
func (k kind) isDevice() bool { return k == kDevRead || k == kDevWrite }

// span is one timed call. Times are offsets from the tracer's start.
type span struct {
	kind       kind
	background bool  // a device call made by no client span (the flusher)
	wal        bool  // a view.WriteAt to a stegdb journal
	parent     int32 // index of the enclosing span, -1 for none
	start, end time.Duration
	bytes      int64 // view.WriteAt payload
}

// tracer keeps spans in memory until the run ends. The single client
// goroutine opens and closes nested spans on a stack; device spans may also
// come from the cache's flusher goroutine, and those have no parent.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	client int64 // goroutine id of the client

	mu    sync.Mutex
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable starts recording; the calling goroutine becomes the client.
func (t *tracer) enable() {
	if t != nil {
		t.client = goid()
		t.on.Store(true)
	}
}

func (t *tracer) disable() {
	if t != nil {
		t.on.Store(false)
	}
}

// begin opens a client span nested in the innermost open one.
func (t *tracer) begin(k kind) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: t.top(), start: now})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) { t.endBytes(id, 0, false) }

func (t *tracer) endBytes(id int32, n int64, wal bool) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end, s.bytes, s.wal = now, n, wal
	t.stack = t.stack[:len(t.stack)-1]
}

// top is the innermost open client span, -1 for none. Callers hold t.mu.
func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// device records one device call as a leaf span. Calls from any goroutine
// but the client are background work.
func (t *tracer) device(k kind, start time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	fg := goid() == t.client
	s := span{kind: k, background: !fg, parent: -1, start: start.Sub(t.t0), end: time.Since(t.t0)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if fg {
		s.parent = t.top()
	}
	t.spans = append(t.spans, s)
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack trace ("goroutine 17 [running]:").
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id int64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// tracedDevice times every call into the Disk. It forwards each call
// unchanged, so simulated cost and counts match an untraced volume.
type tracedDevice struct {
	vdisk.BatchDevice
	tr *tracer
}

func (d *tracedDevice) ReadBlock(n int64, buf []byte) error {
	t0 := time.Now()
	err := d.BatchDevice.ReadBlock(n, buf)
	d.tr.device(kDevRead, t0)
	return err
}

func (d *tracedDevice) WriteBlock(n int64, buf []byte) error {
	t0 := time.Now()
	err := d.BatchDevice.WriteBlock(n, buf)
	d.tr.device(kDevWrite, t0)
	return err
}

func (d *tracedDevice) ReadBlocks(ns []int64, bufs [][]byte) error {
	t0 := time.Now()
	err := d.BatchDevice.ReadBlocks(ns, bufs)
	d.tr.device(kDevRead, t0)
	return err
}

func (d *tracedDevice) WriteBlocks(ns []int64, bufs [][]byte) error {
	t0 := time.Now()
	err := d.BatchDevice.WriteBlocks(ns, bufs)
	d.tr.device(kDevWrite, t0)
	return err
}

// tracedView sits between stegdb and the HiddenView and times each call.
// Journal writes are told apart from home-file writes by the ".wal" name
// suffix and only ever summed per layer, never reported per object.
type tracedView struct {
	view *stegfs.HiddenView
	tr   *tracer
}

func (v *tracedView) Create(name string, data []byte) error {
	sp := v.tr.begin(kViewCreate)
	err := v.view.Create(name, data)
	v.tr.end(sp)
	return err
}

func (v *tracedView) ReadAt(name string, p []byte, off int64) (int, error) {
	sp := v.tr.begin(kViewReadAt)
	n, err := v.view.ReadAt(name, p, off)
	v.tr.end(sp)
	return n, err
}

func (v *tracedView) WriteAt(name string, p []byte, off int64) (int, error) {
	sp := v.tr.begin(kViewWriteAt)
	n, err := v.view.WriteAt(name, p, off)
	v.tr.endBytes(sp, int64(n), strings.HasSuffix(name, ".wal"))
	return n, err
}

func (v *tracedView) Resize(name string, size int64) error {
	sp := v.tr.begin(kViewResize)
	err := v.view.Resize(name, size)
	v.tr.end(sp)
	return err
}

func (v *tracedView) Stat(name string) (fsapi.FileInfo, error) {
	sp := v.tr.begin(kViewStat)
	fi, err := v.view.Stat(name)
	v.tr.end(sp)
	return fi, err
}

func (v *tracedView) Sync() error {
	sp := v.tr.begin(kViewSync)
	err := v.view.Sync()
	v.tr.end(sp)
	return err
}

// layerTimes sums a trace by layer. A span's self time is its duration
// minus the durations of its child spans; the client is one goroutine, so
// a span's children never overlap each other.
type layerTimes struct {
	count               [numKinds]int
	self, total         [numKinds]time.Duration
	fgDevice, bgDevice  time.Duration
	dbSelf, viewSelf    time.Duration // self time of the stegdb and view spans
	readAtInGet         int           // view.ReadAt calls made inside stegdb.Get
	viewCallsInCommit   int           // view calls made inside stegdb.Sync
	walBytes, homeBytes int64
}

func analyze(spans []span) layerTimes {
	var lt layerTimes
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		lt.count[s.kind]++
		lt.total[s.kind] += d
		self := d - child[i]
		lt.self[s.kind] += self
		switch {
		case s.kind.isDevice() && s.background:
			lt.bgDevice += d
		case s.kind.isDevice():
			lt.fgDevice += d
		case s.kind.isDB():
			lt.dbSelf += self
		case s.kind.isView():
			lt.viewSelf += self
		}
		if s.kind.isView() && s.parent >= 0 {
			switch spans[s.parent].kind {
			case kDbGet:
				if s.kind == kViewReadAt {
					lt.readAtInGet++
				}
			case kDbSync:
				lt.viewCallsInCommit++
			}
		}
		if s.kind == kViewWriteAt {
			if s.wal {
				lt.walBytes += s.bytes
			} else {
				lt.homeBytes += s.bytes
			}
		}
	}
	return lt
}

// dump writes every span as one tab-separated line:
// index, parent, name, background, start ns, end ns, bytes.
func dump(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tbackground\tstart_ns\tend_ns\tbytes")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%t\t%d\t%d\t%d\n", i, s.parent, kindNames[s.kind], s.background,
			s.start.Nanoseconds(), s.end.Nanoseconds(), s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
