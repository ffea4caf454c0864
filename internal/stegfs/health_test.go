package stegfs

import (
	"bytes"
	"errors"
	"testing"

	"stegfs/internal/vdisk"
)

func healthParams() Params {
	p := DefaultParams()
	p.Seed = 99
	p.DeterministicKeys = true
	p.NDummy = 1
	p.FillVolume = false
	p.MaxPlainFiles = 8
	return p
}

func newHealthVolume(t *testing.T, opts ...Option) (*vdisk.FaultStore, *FS) {
	t.Helper()
	mem, err := vdisk.NewMemStore(2048, 512)
	if err != nil {
		t.Fatal(err)
	}
	fstore := vdisk.NewFaultStore(mem, 17)
	fs, err := Format(fstore, healthParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return fstore, fs
}

// TestHealthDegradesToReadOnly: an unrecoverable write fault flips the mount
// read-only — reads keep serving, every mutator path fails fast with
// ErrReadOnly, and Health reports the cause.
func TestHealthDegradesToReadOnly(t *testing.T) {
	fstore, fs := newHealthVolume(t)
	view := fs.NewHiddenView("alice")
	if err := view.Create("prewritten", []byte("survives degradation")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("plain.txt", []byte("plain payload")); err != nil {
		t.Fatal(err)
	}
	// Checkpoint so the remount at the end sees a bitmap that knows about
	// the files created above.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if h := fs.Health(); h.ReadOnly || h.Faults != 0 {
		t.Fatalf("healthy mount reports %+v", h)
	}

	// Every device write now fails; the next mutation is unrecoverable.
	fstore.SetTransientRates(0, 1, 1<<30)
	if err := view.Write("prewritten", []byte("new content")); err == nil {
		t.Fatal("write on a dead device succeeded")
	}
	fstore.Disarm()

	h := fs.Health()
	if !h.ReadOnly || h.Reason == "" || h.Faults == 0 {
		t.Fatalf("mount not degraded after unrecoverable write: %+v", h)
	}

	// Mutators fail fast with ErrReadOnly — even though the device is fine
	// again (degradation is sticky until remount).
	if err := view.Write("prewritten", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("hidden write = %v, want ErrReadOnly", err)
	}
	if err := view.Create("newfile", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("hidden create = %v, want ErrReadOnly", err)
	}
	if err := view.Delete("prewritten"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("hidden delete = %v, want ErrReadOnly", err)
	}
	if err := fs.Create("other.txt", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("plain create = %v, want ErrReadOnly", err)
	}
	if err := fs.Write("plain.txt", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("plain write = %v, want ErrReadOnly", err)
	}
	if err := fs.Delete("plain.txt"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("plain delete = %v, want ErrReadOnly", err)
	}
	if err := fs.TickDummies(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("dummy tick = %v, want ErrReadOnly", err)
	}

	// Reads keep serving.
	got, err := view.Read("prewritten")
	if err != nil {
		t.Fatalf("read on degraded mount: %v", err)
	}
	if !bytes.Equal(got, []byte("survives degradation")) {
		t.Fatal("degraded read returned wrong payload")
	}
	if _, err := fs.Read("plain.txt"); err != nil {
		t.Fatalf("plain read on degraded mount: %v", err)
	}

	// A fresh mount of the same (healed) device is writable again.
	fs2, err := Mount(fstore)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("alice")
	if err := view2.Adopt("prewritten"); err != nil {
		t.Fatal(err)
	}
	if err := view2.Write("prewritten", []byte("post-remount")); err != nil {
		t.Fatalf("remount still read-only: %v", err)
	}
}

// TestHealthRetryAbsorbsTransients: mounted WithRetry, a noisy device's
// transient faults never reach the FS — no degradation, no visible errors,
// and Health reports the retry work done on the FS's behalf.
func TestHealthRetryAbsorbsTransients(t *testing.T) {
	mem, err := vdisk.NewMemStore(2048, 512)
	if err != nil {
		t.Fatal(err)
	}
	fstore := vdisk.NewFaultStore(mem, 23)
	fs, err := Format(fstore, healthParams(), WithRetry(8))
	if err != nil {
		t.Fatal(err)
	}
	fstore.SetTransientRates(0.02, 0.02, 2)
	view := fs.NewHiddenView("bob")
	payload := bytes.Repeat([]byte("noisy device "), 200)
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		if err := view.Create(name, payload); err != nil {
			t.Fatalf("create %s under 2%% transients: %v", name, err)
		}
		got, err := view.Read(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload %s mismatch", name)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync under transients: %v", err)
	}
	h := fs.Health()
	if h.ReadOnly || h.Faults != 0 {
		t.Fatalf("transients leaked past the retry layer: %+v", h)
	}
	if h.Retries == 0 {
		t.Fatal("device injected faults but Health reports zero retries")
	}
	if h.GiveUps != 0 {
		t.Fatalf("retry layer gave up %d times", h.GiveUps)
	}
}

// TestHealthSyncFailureDegrades: a failed durability barrier is exactly the
// "device cannot persist what mutators believe durable" case — it must
// degrade the mount even when the individual mutations all succeeded.
func TestHealthSyncFailureDegrades(t *testing.T) {
	fstore, fs := newHealthVolume(t, WithCache(128))
	defer fs.Cache().StopFlushers() //nolint:errcheck
	view := fs.NewHiddenView("carol")
	if err := view.Create("f", []byte("cached")); err != nil {
		t.Fatal(err)
	}
	fstore.SetTransientRates(0, 1, 1<<30)
	if err := fs.Sync(); err == nil {
		t.Fatal("sync with a dead device succeeded")
	}
	fstore.Disarm()
	if h := fs.Health(); !h.ReadOnly {
		t.Fatalf("failed barrier did not degrade: %+v", h)
	}
	if err := view.Create("g", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("create after failed barrier = %v, want ErrReadOnly", err)
	}
}

// TestHealthWriteAtFaultDegrades: an in-place WriteAt writes payload through
// the same mover as Write, so its unrecoverable device write fault degrades
// the mount too.
func TestHealthWriteAtFaultDegrades(t *testing.T) {
	fstore, fs := newHealthVolume(t)
	view := fs.NewHiddenView("alice")
	if err := view.Create("f", bytes.Repeat([]byte{1}, 2000)); err != nil {
		t.Fatal(err)
	}
	fstore.SetTransientRates(0, 1, 1<<30)
	if _, err := view.WriteAt("f", []byte("patch"), 600); err == nil {
		t.Fatal("WriteAt on a dead device succeeded")
	}
	fstore.Disarm()
	if h := fs.Health(); !h.ReadOnly || h.Faults == 0 {
		t.Fatalf("mount not degraded after a failed WriteAt: %+v", h)
	}
	if _, err := view.WriteAt("f", []byte("patch"), 600); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WriteAt after degradation = %v, want ErrReadOnly", err)
	}
}
