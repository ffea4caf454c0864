package stegfs

import (
	"encoding/binary"
	"fmt"
	"math"
)

// superMagic identifies a StegFS volume.
const superMagic = "STEGFS03"

// superVersion is the on-disk format version.
const superVersion = 1

// superblock is the plaintext metadata in block 0. Everything here is
// deliberately information an adversary may see: volume geometry, region
// boundaries and the public parameters. volKey protects only the dummy
// files, which the paper concedes "could be vulnerable to an attacker with
// administrator privileges" — abandoned blocks provide the extra,
// untraceable layer of cover.
type superblock struct {
	blockSize   uint32
	numBlocks   uint64
	bmStart     uint64
	bmLen       uint64
	inoStart    uint64
	inoLen      uint64
	dataStart   uint64
	maxPlain    uint64
	pctAband    float64
	freeMin     uint32
	freeMax     uint32
	nDummy      uint32
	dummyAvg    uint64
	seed        int64
	volKey      [32]byte // key for system-maintained dummy files
	nAbandoned  uint64   // how many blocks were abandoned at format time
	headerProbe uint32   // MaxHeaderProbes
	freeStop    uint32   // FreeProbeStop
	flags       uint8    // volume flags (flagDeterministicKeys)
}

// flagDeterministicKeys records that the volume key and view FAKs derive
// from the seed (experiment volumes).
const flagDeterministicKeys = 1 << 0

// params returns the volume parameters the superblock records. FillVolume
// only matters to Format, so it reads as its default, true.
func (sb *superblock) params() Params {
	return Params{
		PctAbandoned:      sb.pctAband,
		FreeMin:           int(sb.freeMin),
		FreeMax:           int(sb.freeMax),
		NDummy:            int(sb.nDummy),
		DummyAvgSize:      int64(sb.dummyAvg),
		MaxPlainFiles:     int(sb.maxPlain),
		MaxHeaderProbes:   int(sb.headerProbe),
		FreeProbeStop:     int(sb.freeStop),
		Seed:              sb.seed,
		FillVolume:        true,
		DeterministicKeys: sb.flags&flagDeterministicKeys != 0,
	}
}

// superblockLen is the serialized length; it must fit the smallest block.
const superblockLen = 8 + 4 + 4 + 8*7 + 8 + 4 + 4 + 4 + 8 + 8 + 32 + 8 + 4 + 4 + 1

// encodeSuper serializes the superblock into buf (one device block).
func encodeSuper(sb *superblock, buf []byte) error {
	if len(buf) < superblockLen {
		return fmt.Errorf("stegfs: block size %d too small for superblock (%d)", len(buf), superblockLen)
	}
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, superMagic)
	off := 8
	put32 := func(v uint32) { binary.BigEndian.PutUint32(buf[off:], v); off += 4 }
	put64 := func(v uint64) { binary.BigEndian.PutUint64(buf[off:], v); off += 8 }
	put32(superVersion)
	put32(sb.blockSize)
	put64(sb.numBlocks)
	put64(sb.bmStart)
	put64(sb.bmLen)
	put64(sb.inoStart)
	put64(sb.inoLen)
	put64(sb.dataStart)
	put64(sb.maxPlain)
	put64(math.Float64bits(sb.pctAband))
	put32(sb.freeMin)
	put32(sb.freeMax)
	put32(sb.nDummy)
	put64(sb.dummyAvg)
	put64(uint64(sb.seed))
	copy(buf[off:], sb.volKey[:])
	off += 32
	put64(sb.nAbandoned)
	put32(sb.headerProbe)
	put32(sb.freeStop)
	buf[off] = sb.flags
	return nil
}

// decodeSuper parses block 0.
func decodeSuper(buf []byte) (*superblock, error) {
	if len(buf) < superblockLen {
		return nil, fmt.Errorf("stegfs: block too small for superblock")
	}
	if string(buf[:8]) != superMagic {
		return nil, fmt.Errorf("stegfs: bad magic %q (not a StegFS volume)", buf[:8])
	}
	off := 8
	get32 := func() uint32 { v := binary.BigEndian.Uint32(buf[off:]); off += 4; return v }
	get64 := func() uint64 { v := binary.BigEndian.Uint64(buf[off:]); off += 8; return v }
	if v := get32(); v != superVersion {
		return nil, fmt.Errorf("stegfs: unsupported version %d", v)
	}
	sb := &superblock{}
	sb.blockSize = get32()
	sb.numBlocks = get64()
	sb.bmStart = get64()
	sb.bmLen = get64()
	sb.inoStart = get64()
	sb.inoLen = get64()
	sb.dataStart = get64()
	sb.maxPlain = get64()
	sb.pctAband = math.Float64frombits(get64())
	sb.freeMin = get32()
	sb.freeMax = get32()
	sb.nDummy = get32()
	sb.dummyAvg = get64()
	sb.seed = int64(get64())
	copy(sb.volKey[:], buf[off:off+32])
	off += 32
	sb.nAbandoned = get64()
	sb.headerProbe = get32()
	sb.freeStop = get32()
	sb.flags = buf[off]
	return sb, nil
}
