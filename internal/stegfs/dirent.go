package stegfs

import (
	"encoding/binary"
	"fmt"
)

// Entry is one record of a hidden directory or of a user's UAK directory:
// the (file name, file access key) pair of §3.2, extended with the physical
// name the header-location hash needs (the physical name embeds the owner's
// user id, so a recipient of a shared file must learn it too).
type Entry struct {
	// Name is the display name: a path component inside a hidden directory,
	// or the full object name inside a UAK directory.
	Name string
	// Phys is the physical name used to locate the object's header.
	Phys string
	// FAK is the object's file access key.
	FAK []byte
	// Flags carries the object type (FlagFile, FlagDir, FlagDummy).
	Flags byte
}

// encodeEntries serializes a directory payload.
func encodeEntries(entries []Entry) []byte {
	size := 4
	for _, e := range entries {
		size += 1 + 2 + len(e.Name) + 2 + len(e.Phys) + 2 + len(e.FAK)
	}
	out := make([]byte, size)
	binary.BigEndian.PutUint32(out, uint32(len(entries)))
	off := 4
	putBytes := func(b []byte) {
		binary.BigEndian.PutUint16(out[off:], uint16(len(b)))
		off += 2
		copy(out[off:], b)
		off += len(b)
	}
	for _, e := range entries {
		out[off] = e.Flags
		off++
		putBytes([]byte(e.Name))
		putBytes([]byte(e.Phys))
		putBytes(e.FAK)
	}
	return out
}

// decodeEntries parses a directory payload.
func decodeEntries(data []byte) ([]Entry, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("stegfs: directory payload too short (%d bytes)", len(data))
	}
	n := int(binary.BigEndian.Uint32(data))
	// Each entry takes at least 7 bytes (a flag byte and three 2-byte
	// lengths); reject a count the payload cannot hold before sizing the
	// slice by it.
	if n > (len(data)-4)/7 {
		return nil, fmt.Errorf("stegfs: directory payload claims %d entries in %d bytes", n, len(data))
	}
	off := 4
	getBytes := func() ([]byte, error) {
		if off+2 > len(data) {
			return nil, fmt.Errorf("stegfs: truncated directory payload")
		}
		l := int(binary.BigEndian.Uint16(data[off:]))
		off += 2
		if off+l > len(data) {
			return nil, fmt.Errorf("stegfs: truncated directory payload")
		}
		b := data[off : off+l]
		off += l
		return b, nil
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		if off >= len(data) {
			return nil, fmt.Errorf("stegfs: truncated directory payload")
		}
		var e Entry
		e.Flags = data[off]
		off++
		b, err := getBytes()
		if err != nil {
			return nil, err
		}
		e.Name = string(b)
		if b, err = getBytes(); err != nil {
			return nil, err
		}
		e.Phys = string(b)
		if b, err = getBytes(); err != nil {
			return nil, err
		}
		e.FAK = append([]byte(nil), b...)
		out = append(out, e)
	}
	return out, nil
}

// findEntry returns the index of the entry named name, or -1.
func findEntry(entries []Entry, name string) int {
	for i := range entries {
		if entries[i].Name == name {
			return i
		}
	}
	return -1
}
