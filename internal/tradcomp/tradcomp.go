// Package tradcomp is the "traditional VLIW compiler" baseline of
// Table 5.2: the same list scheduler as internal/core, freed from the
// constraints dynamic compilation imposes on DAISY.
//
// Concretely the baseline gets: whole-program scope (no page-boundary
// stopping rule), profile-directed branch probabilities from a prior
// training run, far larger window and unrolling budgets, and — the big
// one — no per-instruction in-order commit copies: results are committed
// only at trace exits, because a static compiler is allowed imprecise
// exceptions (Appendix B). Load speculation stays on: imprecise-mode
// faults recover at group granularity via the VMM's checkpoint+journal
// (the reproduction's resume_vliw equivalent).
package tradcomp

import (
	"errors"
	"fmt"

	"daisy/internal/asm"
	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/tradcomp/sched"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
)

// Result reports an ILP measurement.
type Result struct {
	ILP       float64
	VLIWs     uint64
	BaseInsts uint64
	CodeBytes uint64
}

// Train interprets the program once, collecting the branch profile.
func Train(prog *asm.Program, input []byte, memSize uint32) (sched.Profile, error) {
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return nil, err
	}
	pr := make(sched.Profile)
	ip := interp.New(m, &interp.Env{In: input}, prog.Entry())
	ip.OnBranch = pr.Record
	if err := ip.Run(2_000_000_000); !errors.Is(err, interp.ErrHalt) {
		return nil, fmt.Errorf("tradcomp: training run: %w", err)
	}
	return pr, nil
}

// Options returns the baseline's translator options for a machine
// configuration and profile, derived through the shared scheduling recipe
// (sched.Baseline) so the VMM's optimizing tier and this static baseline
// cannot drift apart.
func Options(cfg vliw.Config, pr sched.Profile) core.Options {
	base := core.DefaultOptions()
	base.Config = cfg
	return sched.Baseline().Derive(base, pr)
}

// Measure runs the program compiled by the baseline and reports its ILP;
// output correctness is still verified against the interpreter by the
// package tests.
func Measure(prog *asm.Program, input []byte, cfg vliw.Config, memSize uint32) (Result, error) {
	pr, err := Train(prog, input, memSize)
	if err != nil {
		return Result{}, err
	}
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return Result{}, err
	}
	opt := vmm.Options{Trans: Options(cfg, pr), InterpBudget: 64, AdaptiveSpeculation: true}
	ma := vmm.New(m, &interp.Env{In: input}, opt)
	if err := ma.Run(prog.Entry(), 2_000_000_000); err != nil {
		return Result{}, fmt.Errorf("tradcomp: measured run: %w", err)
	}
	return Result{
		ILP:       ma.Stats.ILP(),
		VLIWs:     ma.Stats.Exec.VLIWs,
		BaseInsts: ma.Stats.BaseInsts(),
		CodeBytes: ma.Trans.Stats.CodeBytes,
	}, nil
}
