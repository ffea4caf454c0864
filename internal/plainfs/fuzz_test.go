package plainfs

import (
	"reflect"
	"testing"
)

// FuzzDecodeInode feeds arbitrary bytes to the central-directory inode
// decoder (inode records are plaintext on disk, so a seized or tampered
// volume hands it fully untrusted input). It must never panic, and a
// successful decode must survive a round trip through encodeInode.
func FuzzDecodeInode(f *testing.F) {
	in := &inode{used: true, name: "notes.txt", size: 70000, nblocks: 69, root: rootWith(NumDirect)}
	buf := make([]byte, InodeSize)
	if err := encodeInode(in, buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	corrupt := append([]byte(nil), buf...)
	corrupt[1], corrupt[2] = 0xFF, 0xFF // name length past maxNameLen
	f.Add(corrupt)
	f.Add(make([]byte, InodeSize))
	f.Add([]byte{1, 0, 3, 'a', 'b', 'c'})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeInode(data)
		if err != nil {
			return
		}
		out := make([]byte, InodeSize)
		if err := encodeInode(got, out); err != nil {
			t.Fatalf("re-encode of decoded inode failed: %v", err)
		}
		again, err := decodeInode(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("inode round trip mismatch:\n%+v\n%+v", got, again)
		}
	})
}
