// Package fsapi defines the common file-system interface that the benchmark
// harness drives. All five systems evaluated in the paper — StegFS,
// StegCover, StegRand, CleanDisk and FragDisk — implement it, so every
// experiment runs the same workload code against each scheme.
//
// Besides whole-file operations, the interface exposes block-granular
// cursors. The paper's multi-user experiments (Figures 7 and 8) interleave
// the I/O of concurrent users on a single spindle; cursors let the workload
// mixer round-robin individual block requests across users, which is what
// erodes the native file system's sequential advantage exactly as in the
// paper.
package fsapi

import "errors"

// Sentinel errors shared across implementations.
var (
	// ErrNotFound reports that the named file does not exist (or, for
	// steganographic schemes, cannot be located with the given key — the two
	// cases are deliberately indistinguishable).
	ErrNotFound = errors.New("fsapi: file not found")
	// ErrExists reports a create of a name that is already present.
	ErrExists = errors.New("fsapi: file already exists")
	// ErrNoSpace reports volume exhaustion.
	ErrNoSpace = errors.New("fsapi: no space left on volume")
	// ErrCorrupt reports unrecoverable data loss (StegRand overwrites).
	ErrCorrupt = errors.New("fsapi: file data corrupted")
	// ErrIsDir reports a file operation applied to a directory.
	ErrIsDir = errors.New("fsapi: is a directory")
	// ErrNotDir reports a directory operation applied to a file.
	ErrNotDir = errors.New("fsapi: not a directory")
)

// FileInfo describes a stored file.
type FileInfo struct {
	Name   string // file name as given at creation
	Size   int64  // logical size in bytes
	Blocks int64  // number of data blocks occupied
}

// FileSystem is the whole-file interface every scheme implements.
type FileSystem interface {
	// SchemeName identifies the scheme ("StegFS", "StegCover", ...).
	SchemeName() string
	// Create stores a new file with the given contents.
	Create(name string, data []byte) error
	// Read returns the full contents of the named file.
	Read(name string) ([]byte, error)
	// Write replaces the contents of an existing file.
	Write(name string, data []byte) error
	// Delete removes the named file and frees its space.
	Delete(name string) error
	// Stat describes the named file.
	Stat(name string) (FileInfo, error)
}

// Cursor performs one file operation a block at a time so a scheduler can
// interleave several users' requests. Each Step issues the physical I/O for
// one logical block of the file (which may be several device operations: a
// StegCover step touches every cover file; a StegRand write step updates all
// replicas). Every scheme builds its cursors with NewCursor.
type Cursor interface {
	// Step performs the next logical-block I/O. It returns done=true when
	// the file operation has completed; calling Step again after done is an
	// error.
	Step() (done bool, err error)
	// Remaining returns the number of logical block steps still to perform.
	Remaining() int
}

// NewCursor returns a Cursor of n steps whose i-th Step calls step(i). A
// failed step leaves the position unchanged; a Step after the last one
// returns (true, error).
func NewCursor(n int, step func(i int) error) Cursor {
	return &cursor{n: n, step: step}
}

type cursor struct {
	n, pos int
	step   func(i int) error
}

func (c *cursor) Step() (bool, error) {
	if c.pos >= c.n {
		return true, errors.New("fsapi: Step past end of cursor")
	}
	if err := c.step(c.pos); err != nil {
		return false, err
	}
	c.pos++
	return c.pos == c.n, nil
}

func (c *cursor) Remaining() int { return c.n - c.pos }

// FillBlock copies block i of the flat payload data (blocks of len(buf)
// bytes) into buf and zero-pads the rest of buf.
func FillBlock(buf, data []byte, i int) {
	n := 0
	if off := i * len(buf); off < len(data) {
		n = copy(buf, data[off:])
	}
	clear(buf[n:])
}

// CursorFS is implemented by schemes that support interleaved block-level
// access for the concurrency experiments. Their cursors are NewCursor over
// a per-block step; lookup and metadata updates happen when the cursor is
// opened.
type CursorFS interface {
	FileSystem
	// ReadCursor starts a block-by-block read of the named file.
	ReadCursor(name string) (Cursor, error)
	// WriteCursor starts a block-by-block overwrite of the named file with
	// data (same length category as created; schemes may reallocate).
	WriteCursor(name string, data []byte) (Cursor, error)
}

// Drain runs a cursor to completion and returns the number of steps taken.
func Drain(c Cursor) (int, error) {
	steps := 0
	for {
		done, err := c.Step()
		if err != nil {
			return steps, err
		}
		steps++
		if done {
			return steps, nil
		}
	}
}
