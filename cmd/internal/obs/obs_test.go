package obs

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"daisy"
	"daisy/internal/telemetry"
)

// profiledRun runs c_sieve with the flags' telemetry attached and
// returns the finish error.
func profiledRun(t *testing.T, f *Flags) error {
	t.Helper()
	tel, finish, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	w, err := daisy.WorkloadByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := daisy.NewMemory(8 << 20)
	if err := prog.Load(m); err != nil {
		t.Fatal(err)
	}
	ma, err := daisy.NewMachine(m, &daisy.Env{In: w.Input(1)}, daisy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	ma.AttachTelemetry(tel)
	if err := ma.Run(prog.Entry(), 0); err != nil && !errors.Is(err, daisy.ErrHalt) {
		t.Fatal(err)
	}
	ma.SyncTelemetry()
	return finish()
}

// TestProfileWrittenAndValidated: -profile FILE leaves a payload that
// ValidatePprof accepts, with one sample per attributed base PC.
func TestProfileWrittenAndValidated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pb")
	if err := profiledRun(t, &Flags{Sample: 1, ProfileFile: path}); err != nil {
		t.Fatal(err)
	}
	r, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sum, err := telemetry.ValidatePprof(r)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples == 0 || sum.Locations == 0 {
		t.Fatalf("empty profile: %s", sum)
	}
}

// TestCorruptProfileFailsFinish: a payload that does not read back as
// valid pprof makes finish fail. /dev/null accepts the write and reads
// back empty.
func TestCorruptProfileFailsFinish(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("needs /dev/null")
	}
	err := profiledRun(t, &Flags{Sample: 1, ProfileFile: os.DevNull})
	if err == nil || !strings.Contains(err.Error(), "invalid pprof payload") {
		t.Fatalf("finish = %v, want an invalid-payload error", err)
	}
}
