package vmm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/workload"
)

// TestInterpretiveModeCorrect runs every benchmark in interpretive
// (trace-guided) compilation mode and checks full equivalence with the
// reference interpreter — the trace recorder must not disturb memory or
// the I/O streams.
func TestInterpretiveModeCorrect(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			in := w.Input(1)
			prog, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}

			m1 := mem.New(8 << 20)
			_ = prog.Load(m1)
			env1 := &interp.Env{In: in}
			ip := interp.New(m1, env1, prog.Entry())
			if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
				t.Fatal(err)
			}

			m2 := mem.New(8 << 20)
			_ = prog.Load(m2)
			env2 := &interp.Env{In: in}
			opt := DefaultOptions()
			opt.Interpretive = true
			ma := New(m2, env2, opt)
			if err := ma.Run(prog.Entry(), 0); err != nil {
				t.Fatalf("interpretive mode: %v", err)
			}

			if !bytes.Equal(env1.Out, env2.Out) {
				t.Fatalf("output differs:\n got %q\nwant %q", env2.Out, env1.Out)
			}
			if got, want := ma.Stats.BaseInsts(), ip.InstCount; got != want {
				t.Fatalf("instruction counts: %d vs %d", got, want)
			}
			if !m1.EqualData(m2) {
				t.Fatalf("memory differs at %#x", m1.FirstDifference(m2))
			}
			if ma.Stats.TraceRecInsts == 0 {
				t.Fatal("trace recorder never ran")
			}
			t.Logf("%s: ILP %.2f (static-mode groups would differ), %d recorder insts",
				w.Name, ma.Stats.InfILP(), ma.Stats.TraceRecInsts)
		})
	}
}

// TestInterpretiveCompilesLessCode: trace-guided groups must schedule
// fewer instructions (no cold sides) than the static two-path compiler on
// a branchy program, while executing identically.
func TestInterpretiveCompilesLessCode(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := w.Input(1)

	run := func(interpretive bool) (*Machine, error) {
		m := mem.New(8 << 20)
		if err := prog.Load(m); err != nil {
			return nil, err
		}
		opt := DefaultOptions()
		opt.Interpretive = interpretive
		ma := New(m, &interp.Env{In: in}, opt)
		return ma, ma.Run(prog.Entry(), 0)
	}
	static, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trans.Stats.BaseInsts >= static.Trans.Stats.BaseInsts {
		t.Errorf("interpretive mode scheduled %d insts, static %d — tracing should compile less",
			traced.Trans.Stats.BaseInsts, static.Trans.Stats.BaseInsts)
	}
	t.Logf("scheduled insts: static %d, interpretive %d; ILP: static %.2f, interpretive %.2f",
		static.Trans.Stats.BaseInsts, traced.Trans.Stats.BaseInsts,
		static.Stats.InfILP(), traced.Stats.InfILP())
}

// TestInterpretiveDivergentInput: record on one path, then execute data
// that takes the other path — lazy entries must cover it exactly.
func TestInterpretiveDivergentInput(t *testing.T) {
	src := `
_start:	li r0, 2
	sc                # getc
	cmpwi r3, 'x'
	beq isx
	li r4, 111
	b join
isx:	li r4, 222
join:	li r0, 2
	sc                # second getc decides again
	cmpwi r3, 'y'
	beq isy
	addi r4, r4, 1
	b fin
isy:	addi r4, r4, 2
fin:	li r0, 0
	sc
`
	for _, input := range []string{"ab", "xy", "xb", "ay"} {
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		m1 := mem.New(1 << 20)
		_ = prog.Load(m1)
		ip := interp.New(m1, &interp.Env{In: []byte(input)}, prog.Entry())
		if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
			t.Fatal(err)
		}
		m2 := mem.New(1 << 20)
		_ = prog.Load(m2)
		opt := DefaultOptions()
		opt.Interpretive = true
		ma := New(m2, &interp.Env{In: []byte(input)}, opt)
		if err := ma.Run(prog.Entry(), 0); err != nil {
			t.Fatalf("input %q: %v", input, err)
		}
		if ma.St.GPR[4] != ip.St.GPR[4] {
			t.Fatalf("input %q: r4 = %d, want %d", input, ma.St.GPR[4], ip.St.GPR[4])
		}
	}
}

// TestLookAheadLeavesMachineUntouched runs the look-ahead over guest code
// that reads input, writes output, and stores both to data memory and
// into its own (translated, so write-protected) code page. Everything the
// look-ahead interprets happens on throwaway copies: afterwards the
// machine's memory bytes, read-only bits, pending code-modification
// marks, I/O environment, register file and PC are exactly as before, and
// the real run still sees all of its input.
func TestLookAheadLeavesMachineUntouched(t *testing.T) {
	src := `
_start:	lis r1, 0x8
	li r9, 0xff0
	li r12, 3
	mtctr r12
loop:	li r0, 2
	sc
	stb r3, 0(r1)
	addi r1, r1, 1
	stw r3, 0(r9)
	li r0, 1
	sc
	bdnz loop
` + halt + `
	.org 0xff0
	.word 0
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Entry()&^0xfff != 0 {
		t.Fatalf("entry %#x: the code-page store below assumes page 0", prog.Entry())
	}
	mm := mem.New(1 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	env := &interp.Env{In: []byte("abc")}
	ma := New(mm, env, DefaultOptions())
	ma.Start(prog.Entry(), 0)
	if _, err := ma.groupAt(prog.Entry()); err != nil { // protects the code page
		t.Fatal(err)
	}
	if !mm.ReadOnly(0) {
		t.Fatal("code page not protected after translation")
	}

	memBefore := mm.Clone()
	roBefore := make([]bool, mm.Size()>>mem.ProtectShift)
	for u := range roBefore {
		roBefore[u] = mm.ReadOnly(uint32(u) << mem.ProtectShift)
	}
	envBefore := *env
	envBefore.Out = append([]byte(nil), env.Out...)
	rfBefore, stBefore := ma.Exec.RF, ma.St

	for _, budget := range []uint64{10, 1000} {
		branches := 0
		n := ma.lookAhead(prog.Entry(), budget, func(pc uint32, taken bool) { branches++ })
		if n == 0 || n > budget {
			t.Fatalf("budget %d: look-ahead interpreted %d insts", budget, n)
		}
		if budget == 1000 && branches != 3 {
			t.Fatalf("look-ahead to halt saw %d branches, want 3", branches)
		}
		if !mm.EqualData(memBefore) {
			t.Fatalf("budget %d: memory changed at %#x", budget, mm.FirstDifference(memBefore))
		}
		for u, ro := range roBefore {
			if mm.ReadOnly(uint32(u)<<mem.ProtectShift) != ro {
				t.Fatalf("budget %d: read-only bit of unit %d changed", budget, u)
			}
		}
		if len(ma.dirty) != 0 {
			t.Fatalf("budget %d: look-ahead store marked code pages modified: %v", budget, ma.dirty)
		}
		if !reflect.DeepEqual(*env, envBefore) {
			t.Fatalf("budget %d: I/O environment changed: %+v -> %+v", budget, envBefore, *env)
		}
		if !reflect.DeepEqual(ma.Exec.RF, rfBefore) || ma.St != stBefore {
			t.Fatalf("budget %d: register file or PC changed", budget)
		}
	}

	for {
		halted, err := ma.StepGroup()
		if err != nil {
			t.Fatal(err)
		}
		if halted {
			break
		}
	}
	if string(env.Out) != "abc" {
		t.Fatalf("real run wrote %q, want \"abc\"", env.Out)
	}
}
