// Command stegctl operates on a StegFS volume image, exposing the nine
// steganographic APIs of Section 4 plus the plain-file operations.
//
// Usage:
//
//	stegctl -vol v.img <subcommand> [flags]
//
// Subcommands:
//
//	ls                                     list plain files (what an admin sees)
//	put   -name N -in FILE                 create a plain file
//	get   -name N -out FILE                read a plain file
//	rm    -name N                          delete a plain file
//	steg-create  -uid U -uak K -name N [-dir] [-in FILE]   steg_create
//	steg-put     -uid U -uak K -name N[,N...] -in F[,F...] [-workers W]
//	                                           parallel multi-file steg_create
//	steg-hide    -uid U -uak K -path P -name N             steg_hide
//	steg-unhide  -uid U -uak K -path P -name N             steg_unhide
//	steg-ls      -uid U -uak K                             list a UAK directory
//	steg-cat     -uid U -uak K -name N[,N...] [-out FILE]   connect + read (parallel)
//	steg-write   -uid U -uak K -name N -in FILE            connect + write
//	steg-rm      -uid U -uak K -name N                     delete hidden object
//	keygen       -priv F -pub F                            recipient key pair
//	getentry     -uid U -uak K -name N -pub F -out ENTRY   steg_getentry
//	addentry     -uid U -uak K -priv F -entry ENTRY        steg_addentry
//	backup       -out FILE                                 steg_backup
//	recover      -in FILE                                  steg_recovery
//	tick-dummies                                           dummy maintenance round
package main

import (
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"stegfs/internal/sgcrypto"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stegctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("stegctl", flag.ExitOnError)
	vol := global.String("vol", "", "volume image path (required)")
	bs := global.Int("bs", 1<<10, "block size the volume was formatted with")
	cache := global.Int("cache", 0, "mount through a block cache of this many blocks (0 = uncached)")
	cachePolicy := global.String("cache-policy", "", "cache replacement policy: lru|2q (default lru)")
	writeBehind := global.Int("write-behind", 0, "start early write-back once this many dirty blocks accumulate (0 = only at sync)")
	flushWorkers := global.Int("flush-workers", 0, "background flusher goroutines servicing write-behind runs (0 = default 1; negative is rejected)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand")
	}
	cmd, cmdArgs := rest[0], rest[1:]

	// keygen does not need a volume.
	if cmd == "keygen" {
		return cmdKeygen(cmdArgs)
	}
	if *vol == "" {
		return fmt.Errorf("-vol is required")
	}
	store, err := vdisk.OpenFileStore(*vol, *bs)
	if err != nil {
		return err
	}
	defer store.Close()

	if cmd == "recover" {
		return cmdRecover(store, cmdArgs)
	}
	fs, err := stegfs.Mount(store, stegfs.WithCache(*cache),
		stegfs.WithCachePolicy(*cachePolicy), stegfs.WithWriteBehind(*writeBehind, *flushWorkers))
	if err != nil {
		return err
	}
	cmdErr := runCmd(fs, cmd, cmdArgs)
	// Sync flushes the cache (data before metadata) and then the
	// superblock/bitmap, so the image on disk is always consistent. With a
	// write-back cache this is the moment data reaches the device — a
	// swallowed error here would silently lose everything just written.
	if err := fs.Sync(); err != nil && cmdErr == nil {
		cmdErr = fmt.Errorf("sync volume: %w", err)
	}
	if err := store.Sync(); err != nil && cmdErr == nil {
		cmdErr = fmt.Errorf("sync store: %w", err)
	}
	return cmdErr
}

func runCmd(fs *stegfs.FS, cmd string, cmdArgs []string) error {
	switch cmd {
	case "ls":
		for _, n := range fs.PlainNames() {
			fmt.Println(n)
		}
		return nil
	case "put":
		return cmdPut(fs, cmdArgs)
	case "get":
		return cmdGet(fs, cmdArgs)
	case "rm":
		return cmdRm(fs, cmdArgs)
	case "steg-create":
		return cmdStegCreate(fs, cmdArgs)
	case "steg-put":
		return cmdStegPut(fs, cmdArgs)
	case "steg-hide":
		return cmdStegHide(fs, cmdArgs)
	case "steg-unhide":
		return cmdStegUnhide(fs, cmdArgs)
	case "steg-ls":
		return cmdStegLs(fs, cmdArgs)
	case "steg-cat":
		return cmdStegCat(fs, cmdArgs)
	case "steg-write":
		return cmdStegWrite(fs, cmdArgs)
	case "steg-rm":
		return cmdStegRm(fs, cmdArgs)
	case "getentry":
		return cmdGetEntry(fs, cmdArgs)
	case "addentry":
		return cmdAddEntry(fs, cmdArgs)
	case "backup":
		return cmdBackup(fs, cmdArgs)
	case "tick-dummies":
		return fs.TickDummies()
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// userFlags declares the common -uid/-uak pair.
func userFlags(fl *flag.FlagSet) (uid, uak *string) {
	uid = fl.String("uid", "", "user id")
	uak = fl.String("uak", "", "user access key")
	return
}

func session(fs *stegfs.FS, uid string) (*stegfs.Session, error) {
	if uid == "" {
		return nil, fmt.Errorf("-uid is required")
	}
	return fs.NewSession(uid)
}

func cmdPut(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("put", flag.ExitOnError)
	name := fl.String("name", "", "plain file name")
	in := fl.String("in", "", "input file")
	fl.Parse(args)
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	return fs.Create(*name, data)
}

func cmdGet(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("get", flag.ExitOnError)
	name := fl.String("name", "", "plain file name")
	out := fl.String("out", "", "output file (default stdout)")
	fl.Parse(args)
	data, err := fs.Read(*name)
	if err != nil {
		return err
	}
	return writeOut(*out, data)
}

func cmdRm(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("rm", flag.ExitOnError)
	name := fl.String("name", "", "plain file name")
	fl.Parse(args)
	return fs.Delete(*name)
}

func cmdStegCreate(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("steg-create", flag.ExitOnError)
	uid, uak := userFlags(fl)
	name := fl.String("name", "", "hidden object name")
	dir := fl.Bool("dir", false, "create a hidden directory")
	in := fl.String("in", "", "initial contents (files only)")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	objtype := stegfs.FlagFile
	var data []byte
	if *dir {
		objtype = stegfs.FlagDir
	} else if *in != "" {
		if data, err = os.ReadFile(*in); err != nil {
			return err
		}
	}
	return s.CreateHidden(*name, []byte(*uak), objtype, data)
}

func cmdStegPut(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("steg-put", flag.ExitOnError)
	uid, uak := userFlags(fl)
	name := fl.String("name", "", "hidden object name(s), comma-separated")
	in := fl.String("in", "", "input file(s), comma-separated, one per name")
	workers := fl.Int("workers", 4, "bound on concurrent object writes")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	names := strings.Split(*name, ",")
	files := strings.Split(*in, ",")
	if len(names) != len(files) {
		return fmt.Errorf("steg-put: %d names but %d input files", len(names), len(files))
	}
	datas := make([][]byte, len(files))
	for i, f := range files {
		if datas[i], err = os.ReadFile(f); err != nil {
			return err
		}
	}
	// Writers to distinct hidden objects overlap their device waits (the
	// object creations spread across the sharded allocator's groups); the
	// directory entries are recorded in one namespace-lock hold at the end.
	return s.CreateHiddenBatch(names, []byte(*uak), datas, *workers)
}

func cmdStegHide(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("steg-hide", flag.ExitOnError)
	uid, uak := userFlags(fl)
	path := fl.String("path", "", "plain file to hide")
	name := fl.String("name", "", "target hidden object name")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	return s.Hide(*path, *name, []byte(*uak))
}

func cmdStegUnhide(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("steg-unhide", flag.ExitOnError)
	uid, uak := userFlags(fl)
	path := fl.String("path", "", "target plain file name")
	name := fl.String("name", "", "hidden object to reveal")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	return s.Unhide(*path, *name, []byte(*uak))
}

func cmdStegLs(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("steg-ls", flag.ExitOnError)
	uid, uak := userFlags(fl)
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	entries, err := s.ListHidden([]byte(*uak))
	if err != nil {
		return err
	}
	for _, e := range entries {
		kind := "file"
		if e.Flags&stegfs.FlagDir != 0 {
			kind = "dir"
		}
		fmt.Printf("%-4s %s\n", kind, e.Name)
	}
	return nil
}

func cmdStegCat(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("steg-cat", flag.ExitOnError)
	uid, uak := userFlags(fl)
	name := fl.String("name", "", "hidden object name(s), comma-separated; multiple names are read in parallel")
	out := fl.String("out", "", "output file (default stdout; with multiple names, a -<name> suffix is appended)")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	names := strings.Split(*name, ",")
	for _, n := range names {
		if err := s.Connect(n, []byte(*uak)); err != nil {
			return err
		}
	}
	defer s.Logoff()
	// Reads of distinct hidden objects hold only per-object shared locks, so
	// a multi-name cat overlaps its device waits; outputs are emitted in the
	// order the names were given.
	datas := make([][]byte, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			datas[i], errs[i] = s.ReadHidden(n)
		}(i, n)
	}
	wg.Wait()
	for i, n := range names {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", n, errs[i])
		}
		dst := *out
		if dst != "" && len(names) > 1 {
			dst = dst + "-" + strings.ReplaceAll(n, "/", "_")
		}
		if err := writeOut(dst, datas[i]); err != nil {
			return err
		}
	}
	return nil
}

func cmdStegWrite(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("steg-write", flag.ExitOnError)
	uid, uak := userFlags(fl)
	name := fl.String("name", "", "hidden object name")
	in := fl.String("in", "", "input file")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if err := s.Connect(*name, []byte(*uak)); err != nil {
		return err
	}
	defer s.Logoff()
	return s.WriteHidden(*name, data)
}

func cmdStegRm(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("steg-rm", flag.ExitOnError)
	uid, uak := userFlags(fl)
	name := fl.String("name", "", "hidden object name")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	return s.DeleteHidden(*name, []byte(*uak))
}

func cmdKeygen(args []string) error {
	fl := flag.NewFlagSet("keygen", flag.ExitOnError)
	privPath := fl.String("priv", "", "private key output (PEM)")
	pubPath := fl.String("pub", "", "public key output (PEM)")
	fl.Parse(args)
	priv, err := sgcrypto.GenerateKeyPair()
	if err != nil {
		return err
	}
	privPEM := pem.EncodeToMemory(&pem.Block{Type: "RSA PRIVATE KEY", Bytes: x509.MarshalPKCS1PrivateKey(priv)})
	pubPEM := pem.EncodeToMemory(&pem.Block{Type: "RSA PUBLIC KEY", Bytes: x509.MarshalPKCS1PublicKey(&priv.PublicKey)})
	if err := os.WriteFile(*privPath, privPEM, 0o600); err != nil {
		return err
	}
	return os.WriteFile(*pubPath, pubPEM, 0o644)
}

func loadPriv(path string) (*rsa.PrivateKey, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	blk, _ := pem.Decode(raw)
	if blk == nil {
		return nil, fmt.Errorf("%s: not PEM", path)
	}
	return x509.ParsePKCS1PrivateKey(blk.Bytes)
}

func loadPub(path string) (*rsa.PublicKey, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	blk, _ := pem.Decode(raw)
	if blk == nil {
		return nil, fmt.Errorf("%s: not PEM", path)
	}
	return x509.ParsePKCS1PublicKey(blk.Bytes)
}

func cmdGetEntry(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("getentry", flag.ExitOnError)
	uid, uak := userFlags(fl)
	name := fl.String("name", "", "hidden object to share")
	pubPath := fl.String("pub", "", "recipient public key (PEM)")
	out := fl.String("out", "", "entry-file output path")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	pub, err := loadPub(*pubPath)
	if err != nil {
		return err
	}
	ct, err := s.GetEntry(*name, []byte(*uak), pub)
	if err != nil {
		return err
	}
	return os.WriteFile(*out, ct, 0o600)
}

func cmdAddEntry(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("addentry", flag.ExitOnError)
	uid, uak := userFlags(fl)
	privPath := fl.String("priv", "", "recipient private key (PEM)")
	entry := fl.String("entry", "", "entry-file path")
	fl.Parse(args)
	s, err := session(fs, *uid)
	if err != nil {
		return err
	}
	priv, err := loadPriv(*privPath)
	if err != nil {
		return err
	}
	ct, err := os.ReadFile(*entry)
	if err != nil {
		return err
	}
	if err := s.AddEntry(ct, priv, []byte(*uak)); err != nil {
		return err
	}
	// Figure 4: "the ciphertext is destroyed" after the entry is added.
	return os.Remove(*entry)
}

func cmdBackup(fs *stegfs.FS, args []string) error {
	fl := flag.NewFlagSet("backup", flag.ExitOnError)
	out := fl.String("out", "", "backup file path")
	fl.Parse(args)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	return fs.Backup(f)
}

func cmdRecover(store *vdisk.FileStore, args []string) error {
	fl := flag.NewFlagSet("recover", flag.ExitOnError)
	in := fl.String("in", "", "backup file path")
	fl.Parse(args)
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	fs, err := stegfs.Recover(store, f)
	if err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	return store.Sync()
}

func writeOut(path string, data []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
