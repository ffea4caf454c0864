// Package stegcover implements the first steganographic scheme of Anderson,
// Needham and Shamir ("The Steganographic File System", IH'98), the
// StegCover baseline of the paper's evaluation (Table 4).
//
// The volume is initialized with sets of randomly generated cover files. A
// hidden file at security level j within a set is the exclusive-or of the
// first j covers; it is written by adjusting cover j so that the prefix XOR
// equals the file's contents. Reading level j therefore costs j block reads
// per logical block, and writing must additionally re-fix every occupied
// level above j so their prefix XORs are preserved — which is exactly why
// "every file read or write translates into I/O operations on multiple
// cover files" and the scheme's access times are an order of magnitude
// worse than the rest (paper §2, §5.3).
//
// Space accounting matches §5.2: with 2 MB covers and file sizes uniform in
// (1,2] MB, each occupied level is 50–100% utilized, averaging 75%.
package stegcover

import (
	"fmt"
	"sync"

	"stegfs/internal/fsapi"
	"stegfs/internal/sgcrypto"
	"stegfs/internal/vdisk"
)

// Config parameterizes the scheme.
type Config struct {
	// NumCovers is the number of cover files per set. The paper benchmarks
	// the authors' recommended 16.
	NumCovers int
	// CoverBytes is the size of each cover file; it must accommodate the
	// largest hidden file (paper: 2 MB for files in (1,2] MB).
	CoverBytes int64
	// Seed fixes the random cover initialization.
	Seed int64
}

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{NumCovers: 16, CoverBytes: 2 << 20, Seed: 1}
}

// fileMeta records where a hidden file lives.
type fileMeta struct {
	set   int
	level int // 1-based: file = XOR of covers [0, level)
	size  int64
}

// FS is a mounted StegCover volume.
type FS struct {
	mu          sync.Mutex
	dev         vdisk.Device
	cfg         Config
	coverBlocks int64 // blocks per cover
	numSets     int
	files       map[string]fileMeta
	levelUsed   [][]bool // [set][level-1]
}

// Format initializes dev with random cover files and mounts the scheme.
func Format(dev vdisk.Device, cfg Config) (*FS, error) {
	if cfg.NumCovers <= 0 || cfg.CoverBytes <= 0 {
		return nil, fmt.Errorf("stegcover: invalid config %+v", cfg)
	}
	bs := int64(dev.BlockSize())
	coverBlocks := (cfg.CoverBytes + bs - 1) / bs
	// Block 0 is reserved (parity with the other schemes' superblocks).
	usable := dev.NumBlocks() - 1
	setBlocks := coverBlocks * int64(cfg.NumCovers)
	numSets := int(usable / setBlocks)
	if numSets == 0 {
		return nil, fmt.Errorf("stegcover: volume too small for one set of %d x %d-byte covers", cfg.NumCovers, cfg.CoverBytes)
	}
	fs := &FS{
		dev:         dev,
		cfg:         cfg,
		coverBlocks: coverBlocks,
		numSets:     numSets,
		files:       make(map[string]fileMeta),
		levelUsed:   make([][]bool, numSets),
	}
	for s := range fs.levelUsed {
		fs.levelUsed[s] = make([]bool, cfg.NumCovers)
	}
	// Random patterns into every cover block: the covers ARE the cover
	// story, so they must be indistinguishable from hidden content.
	var seed [8]byte
	seed[0] = byte(cfg.Seed)
	filler := sgcrypto.NewRandomFiller(seed[:])
	buf := make([]byte, dev.BlockSize())
	for b := int64(1); b <= int64(numSets)*setBlocks; b++ {
		filler.Fill(buf)
		if err := dev.WriteBlock(b, buf); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// SchemeName implements fsapi.FileSystem.
func (fs *FS) SchemeName() string { return "StegCover" }

// Capacity returns the number of hidden files the volume can hold (one per
// cover, per set — §2: "it can accommodate as many objects as there are
// cover files").
func (fs *FS) Capacity() int { return fs.numSets * fs.cfg.NumCovers }

// coverBlock returns the physical block holding block idx of cover (set, c).
func (fs *FS) coverBlock(set, c int, idx int64) int64 {
	return 1 + (int64(set)*int64(fs.cfg.NumCovers)+int64(c))*fs.coverBlocks + idx
}

// Create implements fsapi.FileSystem.
func (fs *FS) Create(name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("%w: %q", fsapi.ErrExists, name)
	}
	if int64(len(data)) > fs.cfg.CoverBytes {
		return fmt.Errorf("%w: file %d bytes exceeds cover size %d", fsapi.ErrNoSpace, len(data), fs.cfg.CoverBytes)
	}
	set, level := -1, -1
	for s := 0; s < fs.numSets && set < 0; s++ {
		for l := 0; l < fs.cfg.NumCovers; l++ {
			if !fs.levelUsed[s][l] {
				set, level = s, l+1
				break
			}
		}
	}
	if set < 0 {
		return fmt.Errorf("%w: all %d levels occupied", fsapi.ErrNoSpace, fs.Capacity())
	}
	meta := fileMeta{set: set, level: level, size: int64(len(data))}
	if err := fs.writeLevel(meta, data); err != nil {
		return err
	}
	fs.levelUsed[set][level-1] = true
	fs.files[name] = meta
	return nil
}

// writeLevel rewrites the file stored at meta's level with data, preserving
// every other occupied level in the set.
func (fs *FS) writeLevel(meta fileMeta, data []byte) error {
	bs := fs.dev.BlockSize()
	n := (int64(len(data)) + int64(bs) - 1) / int64(bs)
	chunk := make([]byte, bs)
	for idx := int64(0); idx < n; idx++ {
		fsapi.FillBlock(chunk, data, int(idx))
		if err := fs.writeLevelBlock(meta.set, meta.level, idx, chunk); err != nil {
			return err
		}
	}
	return nil
}

// writeLevelBlock updates one logical block at a level: it reads every cover
// in the set at that index, recomputes cover `level` so the prefix XOR
// equals want, and re-fixes the covers of occupied higher levels.
func (fs *FS) writeLevelBlock(set, level int, idx int64, want []byte) error {
	k := fs.cfg.NumCovers
	bs := fs.dev.BlockSize()
	covers := make([][]byte, k)
	for c := 0; c < k; c++ {
		covers[c] = make([]byte, bs)
		if err := fs.dev.ReadBlock(fs.coverBlock(set, c, idx), covers[c]); err != nil {
			return err
		}
	}
	// Old prefix XORs: oldPrefix[l] = covers[0] ^ ... ^ covers[l-1].
	oldPrefix := make([][]byte, k+1)
	oldPrefix[0] = make([]byte, bs)
	for l := 1; l <= k; l++ {
		oldPrefix[l] = xor(oldPrefix[l-1], covers[l-1])
	}
	// New cover for this level: prefix(level-1) ^ want.
	newCovers := make([][]byte, k)
	for c := range newCovers {
		newCovers[c] = covers[c]
	}
	newCovers[level-1] = xor(oldPrefix[level-1], want)
	dirty := map[int]bool{level - 1: true}
	// Re-fix occupied higher levels so their contents are unchanged.
	newPrefix := xor(oldPrefix[level-1], newCovers[level-1])
	for l := level + 1; l <= k; l++ {
		if fs.levelUsed[set][l-1] {
			fixed := xor(newPrefix, oldPrefix[l])
			if !equal(fixed, newCovers[l-1]) {
				newCovers[l-1] = fixed
				dirty[l-1] = true
			}
			newPrefix = oldPrefix[l]
		} else {
			newPrefix = xor(newPrefix, newCovers[l-1])
		}
	}
	for c := 0; c < k; c++ {
		if dirty[c] {
			if err := fs.dev.WriteBlock(fs.coverBlock(set, c, idx), newCovers[c]); err != nil {
				return err
			}
		}
	}
	return nil
}

// readLevelBlock reconstructs one logical block: XOR of covers [0, level).
func (fs *FS) readLevelBlock(set, level int, idx int64) ([]byte, error) {
	bs := fs.dev.BlockSize()
	out := make([]byte, bs)
	buf := make([]byte, bs)
	for c := 0; c < level; c++ {
		if err := fs.dev.ReadBlock(fs.coverBlock(set, c, idx), buf); err != nil {
			return nil, err
		}
		for i := range out {
			out[i] ^= buf[i]
		}
	}
	return out, nil
}

// Read implements fsapi.FileSystem.
func (fs *FS) Read(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	bs := int64(fs.dev.BlockSize())
	n := (meta.size + bs - 1) / bs
	out := make([]byte, 0, n*bs)
	for idx := int64(0); idx < n; idx++ {
		blk, err := fs.readLevelBlock(meta.set, meta.level, idx)
		if err != nil {
			return nil, err
		}
		out = append(out, blk...)
	}
	return out[:meta.size], nil
}

// Write implements fsapi.FileSystem.
func (fs *FS) Write(name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	if int64(len(data)) > fs.cfg.CoverBytes {
		return fmt.Errorf("%w: %d bytes exceeds cover size", fsapi.ErrNoSpace, len(data))
	}
	meta.size = int64(len(data))
	if err := fs.writeLevel(meta, data); err != nil {
		return err
	}
	fs.files[name] = meta
	return nil
}

// Delete implements fsapi.FileSystem. The level is released; its cover keeps
// its last contents (which remain indistinguishable from randomness).
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	fs.levelUsed[meta.set][meta.level-1] = false
	delete(fs.files, name)
	return nil
}

// Stat implements fsapi.FileSystem.
func (fs *FS) Stat(name string) (fsapi.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return fsapi.FileInfo{}, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	bs := int64(fs.dev.BlockSize())
	return fsapi.FileInfo{Name: name, Size: meta.size, Blocks: (meta.size + bs - 1) / bs}, nil
}

// SpaceUtilization returns aggregate unique file bytes / volume capacity,
// the §5.2 metric.
func (fs *FS) SpaceUtilization() float64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var sum int64
	for _, m := range fs.files {
		sum += m.size
	}
	return float64(sum) / float64(fs.dev.NumBlocks()*int64(fs.dev.BlockSize()))
}

func xor(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ReadCursor implements fsapi.CursorFS: each Step reconstructs one logical
// block (level reads + XOR).
func (fs *FS) ReadCursor(name string) (fsapi.Cursor, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	bs := int64(fs.dev.BlockSize())
	return fsapi.NewCursor(int((meta.size+bs-1)/bs), func(i int) error {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		_, err := fs.readLevelBlock(meta.set, meta.level, int64(i))
		return err
	}), nil
}

// WriteCursor implements fsapi.CursorFS: each Step writes one logical block
// (read every cover + re-fix writes).
func (fs *FS) WriteCursor(name string, data []byte) (fsapi.Cursor, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", fsapi.ErrNotFound, name)
	}
	if int64(len(data)) > fs.cfg.CoverBytes {
		return nil, fmt.Errorf("%w: %d bytes exceeds cover size", fsapi.ErrNoSpace, len(data))
	}
	meta.size = int64(len(data))
	fs.files[name] = meta
	bs := int64(fs.dev.BlockSize())
	chunk := make([]byte, bs)
	return fsapi.NewCursor(int((meta.size+bs-1)/bs), func(i int) error {
		fsapi.FillBlock(chunk, data, i)
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.writeLevelBlock(meta.set, meta.level, int64(i), chunk)
	}), nil
}

var _ fsapi.CursorFS = (*FS)(nil)
