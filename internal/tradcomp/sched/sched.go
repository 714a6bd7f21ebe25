// Package sched factors the traditional-compiler scheduling recipe out of
// internal/tradcomp so the VMM can reuse it without an import cycle
// (tradcomp imports vmm to run its measurements).
//
// A Recipe is the set of scheduler budgets that distinguish an optimizing
// translation from DAISY's fast one-pass tier: a much larger window,
// deeper join/unroll budgets, deferred commits (imprecise exceptions with
// dead-commit elimination — renamed results superseded before a path exit
// are simply never committed), and profile-directed branch probabilities.
// Derive applies a recipe to a tier-1 option set, so every knob the recipe
// does not own (machine config, page size, speculation switches) is
// inherited unchanged and the two tiers stay comparable.
package sched

import "daisy/internal/core"

// Recipe is one optimizing-scheduler configuration.
type Recipe struct {
	// Window is the maximum path length in base instructions.
	Window int
	// MaxJoinVisits and MaxLoopVisits are the §A.1 revisit budgets.
	MaxJoinVisits int
	MaxLoopVisits int
	// CrossPage lifts the page-boundary stopping rule (sound only for a
	// static whole-program compiler; a runtime tier must keep it off so
	// SMC invalidation stays page-granular).
	CrossPage bool
	// Tier stamps the produced groups (and, at >= 2, turns on the
	// pending-commit metadata the VMM's deoptimizer needs).
	Tier uint8
}

// Profile counts the directions of conditional branches observed by
// interpreting ahead: [not taken, taken] per branch address. It is the
// profile-directed feedback both optimizing recipes consume — a whole
// training run for the static baseline, a promotion-time look-ahead for
// the runtime tier-2.
type Profile map[uint32][2]uint64

// Record counts one execution of the branch at pc; its signature matches
// the interpreter's OnBranch hook.
func (p Profile) Record(pc uint32, taken bool) {
	c := p[pc]
	if taken {
		c[1]++
	} else {
		c[0]++
	}
	p[pc] = c
}

// Prob returns the measured taken probability of the branch at pc, or
// ok=false when the branch was never observed.
func (p Profile) Prob(pc uint32) (float64, bool) {
	c, ok := p[pc]
	if !ok || c[0]+c[1] == 0 {
		return 0, false
	}
	return float64(c[1]) / float64(c[0]+c[1]), true
}

// Derive returns base reconfigured to the recipe, with prof (may be nil)
// as the profile feedback for branch probabilities.
func (r Recipe) Derive(base core.Options, prof Profile) core.Options {
	opt := base
	opt.PreciseExceptions = false
	opt.CrossPage = r.CrossPage
	opt.Window = r.Window
	opt.MaxJoinVisits = r.MaxJoinVisits
	opt.MaxLoopVisits = r.MaxLoopVisits
	opt.ProfileProb = nil
	if prof != nil {
		opt.ProfileProb = prof.Prob
	}
	opt.TraceGuide = nil
	opt.Tier = r.Tier
	return opt
}

// Baseline is the Table 5.2 traditional-compiler recipe: whole-program
// scope with the big budgets tradcomp has always used.
func Baseline() Recipe {
	return Recipe{Window: 512, MaxJoinVisits: 8, MaxLoopVisits: 12, CrossPage: true, Tier: 1}
}

// Tier2 is the runtime optimizing tier: the same budgets as the static
// baseline, but page-scoped (CrossPage off) so SMC invalidation and the
// page-granular deopt machinery stay sound, and Tier stamped 2 so the
// scheduler emits superblock commit records at every precise-exception
// boundary.
func Tier2() Recipe {
	return Recipe{Window: 512, MaxJoinVisits: 8, MaxLoopVisits: 12, CrossPage: false, Tier: 2}
}
