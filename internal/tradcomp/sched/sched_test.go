package sched

import (
	"testing"

	"daisy/internal/core"
)

// TestRecipesDerive pins the two shipped recipes: the static baseline and
// the runtime tier-2 differ only in page scope and tier stamp, and Derive
// must leave every knob a recipe does not own untouched.
func TestRecipesDerive(t *testing.T) {
	base := core.DefaultOptions()
	base.TraceGuide = func(pc uint32) (bool, bool) { return true, true }
	prof := Profile{0x100: {1, 1}}

	b := Baseline().Derive(base, prof)
	t2 := Tier2().Derive(base, prof)

	for _, o := range []core.Options{b, t2} {
		if o.PreciseExceptions {
			t.Error("optimizing recipes must defer commits")
		}
		if o.Window != 512 || o.MaxJoinVisits != 8 || o.MaxLoopVisits != 12 {
			t.Errorf("budgets not applied: %+v", o)
		}
		if o.TraceGuide != nil {
			t.Error("Derive must clear any interpretive-compilation guide")
		}
		if o.ProfileProb == nil {
			t.Error("profile feedback not wired through")
		}
		if o.Config != base.Config || o.PageSize != base.PageSize ||
			o.SpeculateLoads != base.SpeculateLoads {
			t.Error("inherited knobs were modified")
		}
	}
	if !b.CrossPage || b.Tier != 1 {
		t.Errorf("baseline: CrossPage=%v Tier=%d, want whole-program tier 1", b.CrossPage, b.Tier)
	}
	if t2.CrossPage || t2.Tier != 2 {
		t.Errorf("tier2: CrossPage=%v Tier=%d, want page-scoped tier 2", t2.CrossPage, t2.Tier)
	}
}

// TestProfileCounts pins the counting profile both recipes consume:
// Record tallies [not taken, taken], Prob is the taken fraction, and an
// unobserved branch has no probability (the translator's static guess
// applies).
func TestProfileCounts(t *testing.T) {
	p := make(Profile)
	for _, taken := range []bool{true, true, true, false} {
		p.Record(0x100, taken)
	}
	if got := p[0x100]; got != [2]uint64{1, 3} {
		t.Fatalf("counts %v, want [1 3]", got)
	}
	if pr, ok := p.Prob(0x100); !ok || pr != 0.75 {
		t.Fatalf("Prob = %v, %v; want 0.75, true", pr, ok)
	}
	if _, ok := p.Prob(0x104); ok {
		t.Fatal("unobserved branch must have no probability")
	}
	if o := Tier2().Derive(core.DefaultOptions(), nil); o.ProfileProb != nil {
		t.Fatal("a nil profile must leave the translator on static guesses")
	}
}
