package tradcomp

import (
	"bytes"
	"errors"
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

const memSize = 8 << 20

func TestProfileCollection(t *testing.T) {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Train(prog, w.Input(1), memSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr) == 0 {
		t.Fatal("no branches profiled")
	}
	found := false
	for pc := range pr {
		if p, ok := pr.Prob(pc); ok && p >= 0 && p <= 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no usable probabilities")
	}
	if _, ok := pr.Prob(0xdeadbeec); ok {
		t.Fatal("unknown pc should have no profile")
	}
}

// TestBaselineCorrectAndFaster: the baseline must still compute correct
// results (verified against the interpreter) and, averaged over the user
// benchmarks, extract at least as much ILP as DAISY (Table 5.2's point).
func TestBaselineCorrectAndFaster(t *testing.T) {
	var sumTrad, sumDaisy float64
	n := 0
	for _, name := range []string{"c_sieve", "wc", "fgrep", "lex"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		in := w.Input(1)

		// Reference output.
		m0 := mem.New(memSize)
		_ = prog.Load(m0)
		env0 := &interp.Env{In: in}
		ip := interp.New(m0, env0, prog.Entry())
		if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
			t.Fatal(err)
		}

		// Baseline run with output check.
		pr, err := Train(prog, in, memSize)
		if err != nil {
			t.Fatal(err)
		}
		m1 := mem.New(memSize)
		_ = prog.Load(m1)
		env1 := &interp.Env{In: in}
		ma := vmm.New(m1, env1, vmm.Options{Trans: Options(vliw.BigConfig, pr), AdaptiveSpeculation: true})
		if err := ma.Run(prog.Entry(), 0); err != nil {
			t.Fatalf("%s: baseline run: %v", name, err)
		}
		if !bytes.Equal(env0.Out, env1.Out) {
			t.Fatalf("%s: baseline output differs", name)
		}
		if got, want := ma.Stats.BaseInsts(), ip.InstCount; got != want {
			t.Fatalf("%s: instruction count %d != %d", name, got, want)
		}
		trad := ma.Stats.ILP()

		// DAISY run.
		m2 := mem.New(memSize)
		_ = prog.Load(m2)
		md := vmm.New(m2, &interp.Env{In: in}, vmm.DefaultOptions())
		if err := md.Run(prog.Entry(), 0); err != nil {
			t.Fatal(err)
		}
		daisy := md.Stats.ILP()

		t.Logf("%s: trad %.2f vs daisy %.2f", name, trad, daisy)
		sumTrad += trad
		sumDaisy += daisy
		n++
	}
	if sumTrad < sumDaisy*0.95 {
		t.Errorf("baseline mean ILP %.2f should not trail DAISY %.2f",
			sumTrad/float64(n), sumDaisy/float64(n))
	}
}

func TestMeasureAPI(t *testing.T) {
	w, _ := workload.ByName("wc")
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Measure(prog, w.Input(1), vliw.BigConfig, memSize)
	if err != nil {
		t.Fatal(err)
	}
	if r.ILP <= 1 || r.VLIWs == 0 || r.BaseInsts == 0 || r.CodeBytes == 0 {
		t.Fatalf("implausible result %+v", r)
	}
}
