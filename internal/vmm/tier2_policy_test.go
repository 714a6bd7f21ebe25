package vmm

// Regression tests for the tier-2 policy machinery interacting with the
// rest of the VMM's page-lifecycle management: quarantine races (the
// retained tier-1 translation must never leak when quarantine fires
// around a tier-2 promotion) and the §3.5 commit-record reconstruction
// handed to fault observers at deoptimization time.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/tradcomp/sched"
	"daisy/internal/vliw"
)

// tier2PoolInvariant asserts m.tier2 ⊆ m.pages through the public
// accessors: every page holding an optimizing translation must also hold
// the retained tier-1 translation it deoptimizes to.
func tier2PoolInvariant(t *testing.T, ma *Machine) {
	t.Helper()
	t1 := make(map[uint32]struct{})
	for _, b := range ma.TranslatedPages() {
		t1[b] = struct{}{}
	}
	for _, b := range ma.Tier2Pages() {
		if _, ok := t1[b]; !ok {
			t.Fatalf("tier-2 translation for page %#x has no retained tier-1 translation (pool %v)", b, ma.TranslatedPages())
		}
	}
}

// TestTier2QuarantinePoolConsistency races SMC-driven quarantine cycles
// against tier-2 promotions on the same hot page and checks, at every
// group boundary, that the translation pool stays consistent: tier-2
// translations are always shadowed by a retained tier-1 translation, and
// the pool never accumulates leaked pages across repeated
// engage/release/repromote cycles. This is the regression test for the
// invalidate() path forgetting the tier-2 shadow when quarantine fires
// mid-retranslation.
func TestTier2QuarantinePoolConsistency(t *testing.T) {
	src := `
_start:	lis r1, 0x8
	li r5, 7
	li r6, 0
	li r12, 400
	mtctr r12
hot:	stw r5, 0(r1)
	addi r5, r5, 3
	add r6, r6, r5
	lwz r7, 0(r1)
	xor r8, r7, r6
	bdnz hot
` + halt

	for _, tc := range []struct {
		name  string
		async bool
	}{
		{"sync", false},
		{"async", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}

			opt := defOpt()
			opt.Tier2 = true
			opt.Tier2Threshold = 2
			opt.QuarantineThreshold = 2
			opt.QuarantineWindow = 100_000
			opt.QuarantineBackoff = 200
			opt.AsyncTranslate = tc.async

			mm := mem.New(1 << 20)
			if err := prog.Load(mm); err != nil {
				t.Fatal(err)
			}
			ma := New(mm, &interp.Env{}, opt)
			defer ma.Close()

			maxPool := 0
			groups := 0
			ma.Start(prog.Entry(), 10_000_000)
			for {
				halted, err := ma.StepGroup()
				if err != nil {
					t.Fatalf("machine failed: %v", err)
				}
				tier2PoolInvariant(t, ma)
				if n := len(ma.TranslatedPages()); n > maxPool {
					maxPool = n
				}
				if halted {
					break
				}
				groups++
				if groups%7 == 0 {
					// A guest store into the hot code page: invalidation at
					// the next boundary, quarantine once the trouble events
					// accumulate — racing any pending tier-2 promotion.
					ma.InjectSMC(prog.Entry())
				}
			}
			tier2PoolInvariant(t, ma)

			// The program lives on one code page; the pool must never have
			// grown past it no matter how many quarantine×tier-2 cycles ran.
			if maxPool > 1 {
				t.Fatalf("translation pool grew to %d pages for a one-page program", maxPool)
			}
			if ma.Stats.Quarantines == 0 {
				t.Fatalf("SMC storm never engaged quarantine; the race was not exercised")
			}
			if !tc.async && ma.Stats.Tier2Promotions == 0 {
				t.Fatalf("page was never promoted to tier 2; the race was not exercised")
			}

			// Architected equivalence end to end.
			rm := mem.New(1 << 20)
			if err := prog.Load(rm); err != nil {
				t.Fatal(err)
			}
			ip := interp.New(rm, &interp.Env{}, prog.Entry())
			if err := ip.Run(10_000_000); !errors.Is(err, interp.ErrHalt) {
				t.Fatalf("interpreter: %v", err)
			}
			st1, st2 := ip.St, ma.St
			st2.PC = st1.PC
			if d := st1.Diff(&st2); d != "" {
				t.Fatalf("final state differs: %s", d)
			}
			if got, want := ma.Stats.BaseInsts(), ip.InstCount; got != want {
				t.Fatalf("instruction counts differ: vmm=%d interp=%d", got, want)
			}
		})
	}
}

// TestTier2DeoptReconstructionState injects a storage fault into a tier-2
// translation of a loop whose architected state is a closed-form function
// of CTR, and checks that every exact §3.5 commit-record reconstruction
// names the faulting store and hands back precisely the architected state
// at the boundary before it.
func TestTier2DeoptReconstructionState(t *testing.T) {
	// Pre-loop: lis, li, li, li, mtctr — the faulting stw is entry+20.
	// At the boundary before the store in iteration i (0-based):
	//   CTR = 400-i,  r5 = 7+3i,  r6 = Σ_{k=1..i}(7+3k) = 7i+3i(i+1)/2.
	src := `
_start:	lis r1, 0x8
	li r5, 7
	li r6, 0
	li r12, 400
	mtctr r12
hot:	stw r5, 0(r1)
	addi r5, r5, 3
	add r6, r6, r5
	bdnz hot
` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	storePC := prog.Entry() + 20

	opt := defOpt()
	opt.Tier2 = true
	opt.Tier2Threshold = 2

	mm := mem.New(1 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	ma := New(mm, &interp.Env{}, opt)
	defer ma.Close()

	// The store faults only under tier-2 execution, so every fault is a
	// deoptimization and the tier-1 re-execution always succeeds.
	ma.Exec.FaultHook = func(pc, addr uint32, size int, write bool) *mem.Fault {
		if !write || addr != 0x80000 {
			return nil
		}
		if g := ma.CurrentGroup(); g == nil || g.TierOf() < 2 {
			return nil
		}
		ma.Stats.InjectedFaults++
		return &mem.Fault{Addr: addr, Write: write, Kind: mem.FaultInjected}
	}

	exactSeen := 0
	ma.OnFault = func(f *vliw.Fault, pc uint32) {
		g := ma.CurrentGroup()
		if g == nil || g.TierOf() < 2 {
			return
		}
		rpc, rf, exact := ma.ReconstructFault(f)
		if !exact {
			return
		}
		exactSeen++
		if rpc != storePC {
			t.Errorf("exact reconstruction named pc %#x, want the faulting store %#x", rpc, storePC)
		}
		var st ppc.State
		rf.ToState(&st)
		i := 400 - st.CTR
		if i > 400 {
			t.Fatalf("reconstructed CTR %d is outside the loop", st.CTR)
		}
		if want := 7 + 3*i; st.GPR[5] != want {
			t.Errorf("iteration %d: reconstructed r5 = %d, want %d", i, st.GPR[5], want)
		}
		if want := 7*i + 3*i*(i+1)/2; st.GPR[6] != want {
			t.Errorf("iteration %d: reconstructed r6 = %d, want %d", i, st.GPR[6], want)
		}
		if st.GPR[1] != 0x80000 {
			t.Errorf("reconstructed r1 = %#x, want 0x80000", st.GPR[1])
		}
	}

	if err := ma.Run(prog.Entry(), 10_000_000); err != nil {
		t.Fatalf("vmm: %v", err)
	}
	if ma.Stats.Tier2Deopts == 0 {
		t.Fatalf("the injected fault never deoptimized a tier-2 group")
	}
	if exactSeen == 0 {
		t.Fatalf("no deoptimization produced an exact reconstruction (deopts=%d)", ma.Stats.Tier2Deopts)
	}

	// The injected faults were absorbed by deoptimization: the guest still
	// runs to completion byte-identical to the reference interpreter.
	rm := mem.New(1 << 20)
	if err := prog.Load(rm); err != nil {
		t.Fatal(err)
	}
	ip := interp.New(rm, &interp.Env{}, prog.Entry())
	if err := ip.Run(10_000_000); !errors.Is(err, interp.ErrHalt) {
		t.Fatalf("interpreter: %v", err)
	}
	st1, st2 := ip.St, ma.St
	st2.PC = st1.PC
	if d := st1.Diff(&st2); d != "" {
		t.Fatalf("final state differs: %s", d)
	}
	if !bytes.Equal(ma.Env.Out, ip.Env.Out) {
		t.Fatalf("output differs")
	}
	if !rm.EqualData(mm) {
		t.Fatalf("memory images differ at %#x", rm.FirstDifference(mm))
	}
}

// TestTier2MemoryCarriedRecurrence is the regression test for a tier-2
// miscompile found by FuzzTier2Lockstep (corpus 2986c43ef25b2832): a hot
// loop whose cross-iteration dependence flows through memory (stw then
// lwz of the same word, with an intervening byte store that defeats
// must-alias forwarding). The unrolled superblock hoists each iteration's
// load above that iteration's store; the load's verify must then execute
// in the bypassed store's window on every path that consumed the value —
// not just where the architected commit survives dead-commit elimination,
// where the duplicated stale loads made the one remaining verify compare
// a stale value against equally stale memory and pass.
func TestTier2MemoryCarriedRecurrence(t *testing.T) {
	src := `
_start:	lis r1, 0x8
	lis r2, 0x9
	li r4, 1737
	li r5, -1758
	li r7, 1115
	li r8, -954
	li r12, 199
	mtctr r12
hot:	mullw. r3, r5, r8
	lwz r10, 32(r1)
	subf r9, r8, r3
	subf r7, r7, r3
	stw r9, 56(r1)
	xor r4, r9, r9
	mullw. r3, r10, r4
	xor r10, r5, r7
	stb r10, 42(r2)
	lwz r5, 56(r1)
	bdnz hot
` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	opt := defOpt()
	opt.Tier2 = true
	opt.Tier2Threshold = 2

	mm := mem.New(1 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	ma := New(mm, &interp.Env{}, opt)
	defer ma.Close()

	rm := mem.New(1 << 20)
	if err := prog.Load(rm); err != nil {
		t.Fatal(err)
	}
	ref := interp.New(rm, &interp.Env{}, prog.Entry())

	ma.Start(prog.Entry(), 2_000_000)
	for {
		halted, merr := ma.StepGroup()
		if merr != nil {
			t.Fatalf("machine: %v", merr)
		}
		now := ma.Stats.BaseInsts()
		rerr := ref.RunTo(now)
		if halted {
			if !errors.Is(rerr, interp.ErrHalt) {
				t.Fatalf("machine halted at %d insts; reference did not (%v)", now, rerr)
			}
			break
		}
		if rerr != nil {
			t.Fatalf("reference stopped (%v) while machine continued to %d", rerr, now)
		}
		st1, st2 := ref.St, ma.St
		if d := st1.Diff(&st2); d != "" {
			t.Fatalf("state differs at inst %d: %s", now, d)
		}
	}
	st1, st2 := ref.St, ma.St
	st2.PC = st1.PC
	if d := st1.Diff(&st2); d != "" {
		t.Fatalf("final state differs: %s", d)
	}
	if !rm.EqualData(mm) {
		t.Fatalf("memory images differ at %#x", rm.FirstDifference(mm))
	}
	// The bypassing loads' discharged verifies must have caught the alias
	// at least once under tier-2 before the page demoted.
	if ma.Stats.Tier2Dispatches == 0 {
		t.Fatalf("loop never ran at tier 2; the bypass was not exercised")
	}
	if ma.Stats.Tier2Deopts == 0 && ma.Stats.AliasRecoveries == 0 {
		t.Fatalf("no alias was ever detected; the verify discipline was not exercised")
	}
}

// tier2PromotionSrc is a halting loop whose body calls into a second
// page, so every iteration ends a StepGroup and the loop page is
// dispatched (and counted by the tier-2 policy) once per trip.
const tier2PromotionSrc = `
_start:	lis r1, 0x8
	li r5, 7
	li r6, 0
	li r12, 3000
	mtctr r12
hot:	stw r5, 0(r1)
	addi r5, r5, 3
	bl f
	bdnz hot
	mr r3, r6
	li r0, 1
	sc
` + halt + `
	.org 0x11000
f:	lwz r7, 0(r1)
	add r6, r6, r7
	blr
`

// TestTier2PromotionFailure plants a failure in every tier-2 promotion of
// the loop page, on a synchronous machine (the job runs inline) and an
// async one (the job runs on a worker), as a panic and as an error. Tier
// 2 is an optimization, so in every case the page keeps its tier-1
// translation, is never quarantined, and backs its promotion off; only
// the panics count as translator panics; and the guest cannot tell.
func TestTier2PromotionFailure(t *testing.T) {
	prog, err := asm.Assemble(tier2PromotionSrc)
	if err != nil {
		t.Fatal(err)
	}
	rm := mem.New(1 << 20)
	if err := prog.Load(rm); err != nil {
		t.Fatal(err)
	}
	renv := &interp.Env{}
	ip := interp.New(rm, renv, prog.Entry())
	if err := ip.Run(10_000_000); !errors.Is(err, interp.ErrHalt) {
		t.Fatalf("interpreter: %v", err)
	}
	base := prog.Entry() &^ 0xfff

	for _, async := range []bool{false, true} {
		for _, panics := range []bool{true, false} {
			name := map[bool]string{false: "sync", true: "async"}[async] + "/" +
				map[bool]string{true: "panic", false: "err"}[panics]
			t.Run(name, func(t *testing.T) {
				opt := defOpt()
				opt.Tier2 = true
				opt.Tier2Threshold = 2
				opt.AsyncTranslate = async
				opt.HotThreshold = 1
				mm := mem.New(1 << 20)
				if err := prog.Load(mm); err != nil {
					t.Fatal(err)
				}
				env := &interp.Env{}
				ma := New(mm, env, opt)
				defer ma.Close()

				// Plan only for promotions: a dispatch that already has its
				// tier-1 group. Page builds, async enqueues and entry
				// extensions (no group at the PC yet) translate normally.
				planted := 0
				ma.FaultTranslation = func(b uint32) *TranslationFault {
					if pt := ma.pages[b]; b != base || pt == nil || pt.Groups[ma.St.PC] == nil {
						return nil
					}
					planted++
					if panics {
						return &TranslationFault{Panic: true}
					}
					return &TranslationFault{Err: errors.New("planted tier-2 failure")}
				}

				ma.Start(prog.Entry(), 10_000_000)
				for {
					// Let an in-flight promotion's result land before the
					// next dispatch, so the failure is handled mid-run.
					deadline := time.Now().Add(10 * time.Second)
					for len(ma.InflightPages()) > 0 && len(ma.pipe.done) == 0 && time.Now().Before(deadline) {
						time.Sleep(50 * time.Microsecond)
					}
					halted, err := ma.StepGroup()
					if err != nil {
						t.Fatalf("machine failed: %v", err)
					}
					if halted {
						break
					}
				}

				if planted != 1 {
					t.Fatalf("%d promotion attempts, want exactly 1 inside the first backoff span", planted)
				}
				st := ma.t2[base]
				if st == nil || st.backoff != tier2BackoffBase {
					t.Fatalf("failed promotion did not back off: %+v", st)
				}
				if ma.tier2[base] != nil {
					t.Fatal("a failed promotion installed tier 2")
				}
				if ma.Stats.Quarantines != 0 {
					t.Fatalf("tier-2 failure quarantined a page (%d)", ma.Stats.Quarantines)
				}
				if ma.pages[base] == nil {
					t.Fatal("loop page lost its tier-1 translation")
				}
				wantPanics := uint64(0)
				if panics {
					wantPanics = 1
				}
				if ma.Stats.TranslatorPanics != wantPanics {
					t.Fatalf("TranslatorPanics = %d, want %d", ma.Stats.TranslatorPanics, wantPanics)
				}
				if !bytes.Equal(env.Out, renv.Out) || len(env.Out) == 0 {
					t.Fatalf("output %q, want %q", env.Out, renv.Out)
				}
				if got, want := ma.Stats.BaseInsts(), ip.InstCount; got != want {
					t.Fatalf("instruction counts differ: vmm=%d interp=%d", got, want)
				}
			})
		}
	}
}

// TestTier2FullQueueDoesNotReprofile pins the backpressure pre-check for
// promotions: with the single worker held and a one-slot queue, hot pages
// whose promotion gates are met keep being pushed back, and each push-back
// must cost nothing — the promotion-time profile is measured only for
// jobs that are actually submitted.
func TestTier2FullQueueDoesNotReprofile(t *testing.T) {
	src := "_start:\tbl f1\n\tbl f2\n\tbl f3\n\taddi r1, r1, 1\n\tb _start\n" +
		"\t.org 0x11000\nf1:\tblr\n" +
		"\t.org 0x12000\nf2:\tblr\n" +
		"\t.org 0x13000\nf3:\tblr\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 17)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.AsyncQueueDepth = 1
	opt.HotThreshold = 1
	opt.InterpBudget = 3
	opt.Tier2 = true
	opt.Tier2Threshold = 2
	// Promotion waits far longer than the tier-1 phase below takes, so the
	// four tier-1 jobs are the only ones the first four tokens release.
	opt.Tier2Stability = 500
	m := New(mm, &interp.Env{}, opt)
	defer m.Close()
	m.pipe.testHold = make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		m.pipe.testHold <- struct{}{}
	}
	m.Start(prog.Entry(), 0)
	stepUntil(t, m, "four tier-1 pages published", func() bool {
		return m.Stats.AsyncPublishes == 4
	})
	if m.Stats.Tier2ProfileInsts != 0 {
		t.Fatalf("promotion profiled during the tier-1 phase (%d insts)", m.Stats.Tier2ProfileInsts)
	}

	// The worker now holds the first promotion and the queue the second;
	// every later promotion attempt meets a full queue.
	full := m.Stats.AsyncQueueFull
	stepUntil(t, m, "two promotions in flight and a push-back", func() bool {
		return len(m.InflightPages()) == 2 && m.Stats.AsyncQueueFull > full
	})
	profiled, full := m.Stats.Tier2ProfileInsts, m.Stats.AsyncQueueFull
	if budget := uint64(tier2ProfileMul * sched.Tier2().Window); profiled == 0 || profiled > 2*budget {
		t.Fatalf("%d profile insts for 2 submitted promotions (budget %d each)", profiled, budget)
	}
	for i := 0; i < 500; i++ {
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.AsyncQueueFull-full < 100 {
		t.Fatalf("only %d push-backs in 500 dispatches; the queue was not under pressure", m.Stats.AsyncQueueFull-full)
	}
	if m.Stats.Tier2ProfileInsts != profiled {
		t.Fatalf("push-backs re-profiled: %d -> %d profile insts with no job submitted",
			profiled, m.Stats.Tier2ProfileInsts)
	}
}
