// Hiddendb: the paper's future-work direction (§6) — database tables and
// B-trees hidden inside StegFS. A salary table lives in a hidden file; to
// anyone without the key, the volume shows only encrypted, unlisted blocks.
//
//	go run ./examples/hiddendb
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

func main() {
	store, err := vdisk.NewMemStore(32<<10, 1<<10)
	if err != nil {
		log.Fatal(err)
	}
	params := stegfs.DefaultParams()
	params.NDummy = 4
	params.DummyAvgSize = 32 << 10
	fs, err := stegfs.Format(store, params)
	if err != nil {
		log.Fatal(err)
	}

	// The HR officer's session. The table is one hidden file: its pages and
	// B-tree are all sealed under the file's access key.
	view := fs.NewHiddenView("hr-officer")
	table, err := stegdb.CreatePartitionedTable(view, "salaries.db", 1, false, 0)
	if err != nil {
		log.Fatal(err)
	}

	people := []struct {
		id     uint64
		record string
	}{
		{1001, "Ada Lovelace, Principal Engineer, $245k"},
		{1002, "Grace Hopper, Distinguished Engineer, $260k"},
		{1003, "Alan Turing, Research Fellow, $250k"},
		{1004, "Hedy Lamarr, Inventor in Residence, $240k"},
	}
	for _, p := range people {
		if err := table.Put(binary.BigEndian.AppendUint64(nil, p.id), []byte(p.record)); err != nil {
			log.Fatal(err)
		}
	}

	// Point lookup: a descent of the B-tree.
	rec, ok, err := table.Get(binary.BigEndian.AppendUint64(nil, 1002))
	if err != nil || !ok {
		log.Fatalf("lookup: %v", err)
	}
	fmt.Println("point lookup:", string(rec))

	// Ordered scan through the B-tree.
	fmt.Println("ordered scan:")
	if err := table.Scan(func(k, v []byte) bool {
		fmt.Printf("  %x -> %s\n", k, v)
		return true
	}); err != nil {
		log.Fatal(err)
	}

	rows, _ := table.Rows()
	fmt.Printf("table: %d rows in %d hidden pages\n", rows, table.Pages())

	// What the rest of the world sees: an empty central directory and a
	// bitmap full of indistinguishable used blocks.
	fmt.Println("central directory as seen by an admin:", fs.PlainNames())
	fmt.Printf("blocks in use (table + dummies + abandoned, indistinguishable): %d\n",
		fs.Bitmap().CountSet()-fs.DataStart())
}
