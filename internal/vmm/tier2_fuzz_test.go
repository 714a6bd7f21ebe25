package vmm

// The tier-2 differential fuzzer. Random branchy/memory programs run on
// three engines — the reference interpreter, the tier-1 machine, and the
// tier-2 machine with optimizing retranslation forced hot — under
// deterministically injected storage faults. Both machines are held to
// the interpreter in lockstep: full architected state, every dirty memory
// unit and the output stream must agree at every precise boundary, and a
// tier-2 deoptimization whose §3.5 reconstruction claims exactness must
// name the same faulting base instruction the retained tier-1 translation
// subsequently reports precisely.
//
// Fault injection is a pure hash of (pc, addr, write) rather than a draw
// sequence, so the same guest access faults in every engine regardless of
// how differently the two tiers schedule it.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/vliw"
)

// genTier2Program emits one random program with a hot bdnz loop (so low
// promotion thresholds fire), data traffic on two scratch pages, cold
// branch sides (path-departure fodder) and occasional output syscalls.
func genTier2Program(rng *rand.Rand) string {
	var b bytes.Buffer
	b.WriteString("_start:\n\tlis r1, 0x8\n\tlis r2, 0x9\n")
	for r := 3; r <= 10; r++ {
		fmt.Fprintf(&b, "\tli r%d, %d\n", r, rng.Intn(4000)-2000)
	}
	iters := 48 + rng.Intn(160)
	fmt.Fprintf(&b, "\tli r12, %d\n\tmtctr r12\nhot:\n", iters)
	n := 6 + rng.Intn(14)
	for k := 0; k < n; k++ {
		d := 3 + rng.Intn(8)
		a := 3 + rng.Intn(8)
		c := 3 + rng.Intn(8)
		switch rng.Intn(12) {
		case 0:
			fmt.Fprintf(&b, "\tstw r%d, %d(r1)\n", d, 4*rng.Intn(16))
		case 1:
			fmt.Fprintf(&b, "\tlwz r%d, %d(r1)\n", d, 4*rng.Intn(16))
		case 2:
			fmt.Fprintf(&b, "\tstb r%d, %d(r2)\n", d, rng.Intn(64))
		case 3:
			fmt.Fprintf(&b, "\tlbz r%d, %d(r2)\n", d, rng.Intn(64))
		case 4:
			fmt.Fprintf(&b, "\tsth r%d, %d(r2)\n", d, 64+2*rng.Intn(16))
		case 5:
			fmt.Fprintf(&b, "\tadd r%d, r%d, r%d\n", d, a, c)
		case 6:
			fmt.Fprintf(&b, "\tmullw. r%d, r%d, r%d\n", d, a, c)
		case 7:
			fmt.Fprintf(&b, "\tcmpw cr%d, r%d, r%d\n", rng.Intn(8), a, c)
		case 8:
			// A data-dependent branch: its cold side is code the profiled
			// tier-2 superblock may not compile, forcing path departures.
			fmt.Fprintf(&b, "\tcmpwi r%d, %d\n\tblt sk%d\n\txor r%d, r%d, r%d\nsk%d:\n",
				d, rng.Intn(200)-100, k, d, d, a, k)
		case 9:
			fmt.Fprintf(&b, "\tli r0, 1\n\tsc\n") // putc(r3)
		case 10:
			fmt.Fprintf(&b, "\tsubf r%d, r%d, r%d\n", d, a, c)
		default:
			fmt.Fprintf(&b, "\txor r%d, r%d, r%d\n", d, a, c)
		}
	}
	if rng.Intn(2) == 0 {
		b.WriteString("\tbl sub\n")
	}
	b.WriteString("\tbdnz hot\n\tb done\nsub:\taddi r3, r3, 1\n\tblr\ndone:\n")
	b.WriteString(halt)
	return b.String()
}

// injectAt decides, as a pure function of the access and a salt, whether
// a translated data access takes an injected storage fault.
func injectAt(pc, addr uint32, write bool, salt uint64, mod uint16) bool {
	if mod == 0 {
		return false
	}
	h := uint64(0xcbf29ce484222325) ^ salt
	for _, w := range [3]uint64{uint64(pc), uint64(addr), b2u(write)} {
		h = (h ^ w) * 0x100000001b3
	}
	return h%uint64(mod) == 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fuzzLockstep runs prog on one machine configuration against a fresh
// reference interpreter and validates every precise boundary. It returns
// the machine for cross-engine assertions.
func fuzzLockstep(t *testing.T, prog *asm.Program, opt Options, salt uint64, mod uint16) *Machine {
	t.Helper()
	rm := mem.New(1 << 20)
	if err := prog.Load(rm); err != nil {
		t.Fatal(err)
	}
	ref := interp.New(rm, &interp.Env{}, prog.Entry())

	mm := mem.New(1 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	ma := New(mm, &interp.Env{}, opt)
	defer ma.Close()
	rm.TrackWrites(true)
	mm.TrackWrites(true)

	if mod != 0 {
		ma.Exec.FaultHook = func(pc, addr uint32, size int, write bool) *mem.Fault {
			if !injectAt(pc, addr, write, salt, mod) {
				return nil
			}
			ma.Stats.InjectedFaults++
			return &mem.Fault{Addr: addr, Write: write, Kind: mem.FaultInjected}
		}
	}

	// The reconstruction wall: when a tier-2 group deoptimizes and the
	// commit-record reconstruction claims exactness, the (pc, state) pair
	// it hands back must lie on the reference interpreter's committed path
	// from the last precise boundary — the §3.5 walk named a real
	// architected boundary, not a plausible-looking fabrication. (The next
	// tier-1 fault pc cannot be asserted directly: re-execution starts at
	// the group-entry checkpoint, so an earlier access whose speculative
	// tier-2 fault was absorbed may fault first.)
	ma.OnFault = func(f *vliw.Fault, pc uint32) {
		g := ma.CurrentGroup()
		if g == nil || g.TierOf() < 2 {
			return
		}
		rpc, rrf, exact := ma.ReconstructFault(f)
		if !exact {
			return
		}
		var want ppc.State
		rrf.ToState(&want)
		ci := interp.New(rm.Clone(), ref.Env.Clone(), ref.St.PC)
		ci.St = ref.St
		ci.InstCount = ref.InstCount
		for k := 0; k < 8192; k++ {
			if ci.St.PC == rpc {
				got := ci.St
				want.PC = got.PC
				if got.Diff(&want) == "" {
					return
				}
			}
			if err := ci.RunTo(ci.InstCount + 1); err != nil {
				break
			}
		}
		t.Errorf("exact deopt reconstruction at pc %#x does not lie on the reference path from the last boundary", rpc)
	}

	ma.Start(prog.Entry(), 2_000_000)
	for {
		halted, merr := ma.StepGroup()
		now := ma.Stats.BaseInsts()
		if merr != nil {
			if errors.Is(merr, ErrBudget) {
				return ma // truncated pathological input; boundaries validated so far
			}
			t.Fatalf("machine failed after %d insts: %v", now, merr)
		}
		rerr := ref.RunTo(now)
		if halted {
			if !errors.Is(rerr, interp.ErrHalt) || ref.InstCount != now {
				t.Fatalf("machine halted after %d insts; reference did not (insts %d, err %v)", now, ref.InstCount, rerr)
			}
			st1, st2 := ref.St, ma.St
			st2.PC = st1.PC // halt leaves the PCs trivially offset
			if d := st1.Diff(&st2); d != "" {
				t.Fatalf("final state differs: %s", d)
			}
			if !bytes.Equal(ma.Env.Out, ref.Env.Out) {
				t.Fatalf("final output differs: %q vs %q", ma.Env.Out, ref.Env.Out)
			}
			return ma
		}
		if rerr != nil {
			t.Fatalf("reference ended after %d insts (%v) while machine continued to %d", ref.InstCount, rerr, now)
		}
		st1, st2 := ref.St, ma.St
		if d := st1.Diff(&st2); d != "" {
			t.Fatalf("state differs at inst %d: %s", now, d)
		}
		units := mm.TakeDirtyUnits()
		seen := make(map[uint32]struct{}, len(units))
		for _, u := range units {
			seen[u] = struct{}{}
		}
		for _, u := range rm.TakeDirtyUnits() {
			if _, ok := seen[u]; !ok {
				units = append(units, u)
			}
		}
		for _, u := range units {
			if !bytes.Equal(mm.UnitBytes(u), rm.UnitBytes(u)) {
				t.Fatalf("memory differs at inst %d near %#x", now, u<<mem.ProtectShift)
			}
		}
		if !bytes.Equal(ma.Env.Out, ref.Env.Out) {
			t.Fatalf("output differs at inst %d", now)
		}
	}
}

// FuzzTier2Lockstep is the tier-2 compatibility fuzzer. The seed corpus
// is derived from the committed golden fingerprints — every golden JSON
// digests to one program seed — plus fixed fault-rate probes, so `go
// test` replays a stable matrix and `go test -fuzz` explores beyond it.
func FuzzTier2Lockstep(f *testing.F) {
	if golds, err := filepath.Glob(filepath.Join("..", "golden", "testdata", "golden", "*.json")); err == nil {
		for _, p := range golds {
			b, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			h := uint64(0xcbf29ce484222325)
			for _, c := range b {
				h = (h ^ uint64(c)) * 0x100000001b3
			}
			f.Add(int64(h), uint16(0))
			f.Add(int64(h), uint16(211))
		}
	}
	f.Add(int64(2026), uint16(0))
	f.Add(int64(2026), uint16(97))
	f.Add(int64(7), uint16(31)) // heavy fault rate: deopt storms
	f.Fuzz(func(t *testing.T, seed int64, mod uint16) {
		prog, err := asm.Assemble(genTier2Program(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("generated program does not assemble: %v", err)
		}
		salt := uint64(seed) * 0x9e3779b97f4a7c15

		t1opt := defOpt()
		ma1 := fuzzLockstep(t, prog, t1opt, salt, mod)

		t2opt := defOpt()
		t2opt.Tier2 = true
		t2opt.Tier2Threshold = 2
		ma2 := fuzzLockstep(t, prog, t2opt, salt, mod)

		// Cross-engine: both tiers already matched their own reference, so
		// they must also match each other exactly.
		if !bytes.Equal(ma1.Env.Out, ma2.Env.Out) {
			t.Errorf("tier-1 and tier-2 outputs differ: %q vs %q", ma1.Env.Out, ma2.Env.Out)
		}
		if ma1.Stats.BaseInsts() != ma2.Stats.BaseInsts() {
			t.Errorf("completed instruction counts differ: tier-1 %d, tier-2 %d",
				ma1.Stats.BaseInsts(), ma2.Stats.BaseInsts())
		}
	})
}
