// Command stegfsck cross-validates a StegFS volume image offline.
//
// Usage:
//
//	stegfsck -bs 1024 volume.img
//	stegfsck -bs 1024 -uid alice -names diary,ledger volume.img
//	stegfsck -bs 1024 -repair volume.img
//
// The check is key-asymmetric by design: geometry, the metadata region,
// plain files, and the system dummy set are always verified; hidden files
// are verified only for the keys supplied via -uid/-names (DeterministicKeys
// volumes) or -table. Used blocks no key reaches are reported as a count —
// they are indistinguishable cover, never an error.
//
// Exit status:
//
//	0  clean
//	1  inconsistencies found (the check ran to the end)
//	2  usage error
//	3  the check could not complete: the image could not be opened or read,
//	   or a -repair could not be persisted; nothing is known about its state
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// Exit codes; see the package comment.
const (
	exitClean        = 0
	exitInconsistent = 1
	exitUsage        = 2
	exitIncomplete   = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run checks the image named by args and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("stegfsck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		bs     = fl.Int("bs", 1<<10, "block size the image was formatted with")
		repair = fl.Bool("repair", false, "re-mark reachable-but-free blocks used and persist the bitmap")
		uid    = fl.String("uid", "", "user id owning -names (DeterministicKeys volumes)")
		names  = fl.String("names", "", "comma-separated hidden file names under -uid to verify")
		table  = fl.String("table", "", "embedded stegdb table to check, as uid/name")
		quiet  = fl.Bool("q", false, "print only errors")
	)
	if err := fl.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "stegfsck:", msg)
		return exitUsage
	}
	if fl.NArg() != 1 {
		fl.Usage()
		return usage("exactly one volume image required")
	}
	if *names != "" && *uid == "" {
		return usage("-names requires -uid")
	}
	opts := stegfs.CheckOptions{Repair: *repair}
	if *names != "" {
		opts.ViewFiles = map[string][]string{*uid: strings.Split(*names, ",")}
	}
	if *table != "" {
		u, n, ok := strings.Cut(*table, "/")
		if !ok {
			return usage("-table must be uid/name")
		}
		opts.Tables = []stegfs.TableRef{{UID: u, Name: n}}
		// CheckAny discovers whether the name is a plain table or partition
		// zero of a partitioned one, adopts every constituent hidden file
		// (partitions and journal siblings), and checks the whole structure;
		// the returned file list feeds stegfs block accounting.
		opts.CheckTable = func(view *stegfs.HiddenView, name string) ([]string, error) {
			return stegdb.CheckAny(view, view.Adopt, name)
		}
	}

	incomplete := func(err error) int {
		fmt.Fprintln(stderr, "stegfsck: check could not complete:", err)
		return exitIncomplete
	}
	store, err := vdisk.OpenFileStore(fl.Arg(0), *bs)
	if err != nil {
		return incomplete(err)
	}
	defer store.Close()
	rep, err := stegfs.Check(store, opts)
	if err != nil {
		return incomplete(err)
	}
	if *repair {
		if err := store.Sync(); err != nil {
			return incomplete(err)
		}
	}
	if !*quiet {
		fmt.Fprint(stdout, rep.Summary())
	}
	if !rep.OK() {
		if *quiet {
			for _, e := range rep.Errors {
				fmt.Fprintln(stderr, "stegfsck:", e)
			}
		}
		return exitInconsistent
	}
	if !*quiet {
		fmt.Fprintln(stdout, "clean")
	}
	return exitClean
}
