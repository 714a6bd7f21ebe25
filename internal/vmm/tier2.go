package vmm

// The optimizing retranslation tier. DAISY's one-pass translator (tier 1)
// keeps translation cheap enough to pay on first touch; this file closes
// the profile -> retranslate loop on top of it: a page that stays hot and
// stable is retranslated at tier-2 effort — the traditional compiler's
// scheduling recipe (sched.Tier2: a 512-instruction window, deeper
// join/unroll budgets, deferred commits with dead-commit elimination)
// guided by branch probabilities measured at promotion time — forming
// superblocks along the hot path across the original group boundaries.
//
// A promotion is an ordinary translation job (async.go): newJob snapshots
// the page, the machine goroutine draws any chaos plan and then measures
// the branch profile with lookAhead, and workerTranslate runs the tier-2
// recipe behind the recover barrier. The only difference between the two
// machines is who runs the job: an async machine submits it to the worker
// pool, a synchronous one runs it inline. Either way the result goes
// through publishTier2 — the same staleness check, the same failure
// backoff (never a quarantine: the page's tier-1 translation is fine), the
// same install.
//
// The deal tier 2 strikes is speed for precision: a deferred-commit group
// is precise only at its entry and its path ends. Anything that needs a
// precise state mid-group — an exception, an alias verify failure, a store
// into translated code, a chaos-forced deopt — deoptimizes: the group's
// journaled stores are undone, the register file returns to the group-entry
// checkpoint, and the next dispatch of the page runs the *retained tier-1
// translation* (never a fresh inline translation, and never the
// interpreter: tier 1 is always still installed, because installTier2
// requires it and invalidation tears both tiers down together).
//
// Policy state is per page: promotion needs Tier2Threshold dispatches and
// Tier2Stability completed instructions since the last invalidation;
// repeated deopts or hot-path departures demote the tier-2 translation
// with exponential backoff before promotion is retried. All clocks are the
// machine's deterministic instruction clock, so identical runs promote,
// deopt, and demote identically.

import (
	"daisy/internal/core"
	"daisy/internal/tradcomp/sched"
	"daisy/internal/vliw"
)

// t2State is one page's position in the tier-2 policy.
type t2State struct {
	dispatches int    // dispatches into the tier-1 translation since reset
	since      uint64 // instruction clock when tracking (re)started
	departures int    // leaky bucket of hot-path departures
	deopts     int    // deopts since promotion
	notBefore  uint64 // no promotion until the instruction clock reaches this
	backoff    uint64 // current demotion backoff span; doubles per demotion
	skipOnce   bool   // next dispatch uses tier 1 (set by a deopt)
	plantDeopt bool   // chaos: force a deopt on the next tier-2 dispatch
}

// Tier-2 policy constants. Limits are deliberately small: tier 2 is an
// optimization, so the honest reaction to a translation that keeps
// deoptimizing (or whose profiled hot path execution keeps leaving) is to
// retire it and fall back to the always-correct tier 1.
const (
	tier2DeoptLimit     = 4      // deopts before the translation is demoted
	tier2DepartureLimit = 8      // net path departures before demotion
	tier2BackoffBase    = 50_000 // first demotion backoff (base insts)
	tier2ProfileMul     = 8      // profiling budget, in tier-2 windows
)

// tier2Threshold returns the promotion dispatch threshold (default 8).
func (m *Machine) tier2Threshold() int {
	if m.Opt.Tier2Threshold > 0 {
		return m.Opt.Tier2Threshold
	}
	return 8
}

// tier2Dispatch is the tier-selection point: every dispatch in tier-2 mode
// funnels through it (chaining is disabled) with the resolved tier-1 group
// in hand, so the tier-1 translation — the deopt target — provably exists
// whenever a tier-2 group is preferred over it.
func (m *Machine) tier2Dispatch(g1 *vliw.Group) *vliw.Group {
	base := m.St.PC &^ (m.Trans.Opt.PageSize - 1)
	st := m.t2[base]
	if st == nil {
		st = &t2State{since: m.instClock()}
		m.t2[base] = st
	}
	pt2, ok := m.tier2[base]
	if !ok {
		m.maybePromote(base, st)
		return g1
	}
	if st.skipOnce {
		// The dispatch immediately after a deopt must make progress on
		// tier 1, or a deterministic tier-2 fault would redispatch forever.
		st.skipOnce = false
		return g1
	}
	g2, ok := pt2.Groups[m.St.PC]
	if !ok {
		// Hot-path departure: execution reached an address the profiled
		// tier-2 translation never compiled (a cold branch side, a return
		// landing). Tier 1 carries it; persistent departure means the
		// profile no longer describes the program, so demote.
		st.departures++
		m.Stats.Tier2PathDepartures++
		if st.departures >= tier2DepartureLimit {
			m.demoteTier2(base)
		}
		return g1
	}
	if st.plantDeopt {
		// Chaos-planted deopt (tier2-deopt-storm): take the full deopt
		// accounting path without executing the group, exactly as if its
		// first VLIW had faulted — nothing has run, so the current state
		// already is the checkpoint.
		st.plantDeopt = false
		m.noteDeopt(base)
		if m.tp != nil {
			m.tp.tier2Deopt(m, m.St.PC)
		}
		return g1
	}
	m.Stats.Tier2Dispatches++
	if st.departures > 0 {
		st.departures-- // leaky bucket: successful tier-2 dispatches forgive
	}
	return g2
}

// maybePromote counts one tier-1 dispatch into the page and retranslates
// at tier-2 effort once the page is hot (Tier2Threshold dispatches) and
// stable (Tier2Stability instructions since the last invalidation), and
// any demotion backoff has expired. A failed promotion — a planted or real
// translator panic, a translation error — costs only the attempt: the page
// keeps running tier 1 and promotion backs off.
func (m *Machine) maybePromote(base uint32, st *t2State) {
	st.dispatches++
	now := m.instClock()
	if st.dispatches < m.tier2Threshold() || now < st.notBefore ||
		now-st.since < m.Opt.Tier2Stability {
		return
	}
	if m.pages[base] == nil {
		return // no tier-1 translation to deoptimize to
	}
	if m.busy(base) {
		return // the gates stay met, so a later dispatch retries
	}
	job, ok := m.newJob(base, m.St.PC)
	if !ok {
		return
	}
	// The plan is drawn before profiling, both on the machine goroutine,
	// so seeded injectors stay deterministic.
	job.plan = m.plantedFault(base)
	job.tier2 = true
	job.profile = m.tier2Profile(job.entry)
	job.noSpec = m.inhibit[base]
	if job.plan != nil {
		m.applyTier2Plan(job.plan, job.profile, st)
	}
	if m.pipe != nil {
		m.submit(job)
		return
	}
	m.publishTier2(workerTranslate(job, m.Opt.Trans))
}

// applyTier2Plan executes the machine-side half of a chaos plan at
// promotion time: a stale profile inverts every measured branch direction
// (tier 2 then compiles exactly the cold path), and a planted deopt fires
// on the first tier-2 dispatch.
func (m *Machine) applyTier2Plan(plan *TranslationFault, profile sched.Profile, st *t2State) {
	if plan.StaleProfile {
		for pc, c := range profile {
			profile[pc] = [2]uint64{c[1], c[0]}
		}
		m.Stats.InjectedFaults++
	}
	if plan.Deopt {
		st.plantDeopt = true
		m.Stats.InjectedFaults++
	}
}

// tier2Profile measures the promotion-time branch profile by looking
// ahead from entry (the recordTrace pattern of Chapter 6). The counts
// steer tier-2 superblock formation down the measured hot path.
func (m *Machine) tier2Profile(entry uint32) sched.Profile {
	p := make(sched.Profile)
	m.Stats.Tier2ProfileInsts += m.lookAhead(entry, tier2ProfileMul*uint64(sched.Tier2().Window), p.Record)
	return p
}

// installTier2 publishes a tier-2 translation. The tier-1 translation must
// still be live — it is the deoptimization target — or the result is
// dropped; invalidation since then also restarted the stability clock, so
// dropping (rather than reinstalling tier 1) is the consistent move.
func (m *Machine) installTier2(base uint32, pt *core.PageTranslation) {
	if m.pages[base] == nil {
		m.Stats.StaleTranslationsDropped++
		return
	}
	m.tier2[base] = pt
	if st := m.t2[base]; st != nil {
		st.deopts = 0
		st.departures = 0
	}
	m.Stats.Tier2Promotions++
	if m.tp != nil {
		m.tp.tier2Promoted(m, base)
	}
	if m.OnTranslate != nil {
		m.OnTranslate(pt)
	}
}

// demoteTier2 retires a tier-2 translation that keeps deoptimizing or
// departing its hot path: the page falls back to its (still installed)
// tier-1 translation, and promotion backs off exponentially.
func (m *Machine) demoteTier2(base uint32) {
	pt2, ok := m.tier2[base]
	if !ok {
		return
	}
	pt2.Unchain()
	delete(m.tier2, base)
	m.Stats.Tier2Demotions++
	m.tier2Backoff(base)
	if m.tp != nil {
		m.tp.tier2Demoted(m, base)
	}
}

// tier2Backoff resets the page's promotion progress and pushes the next
// attempt out by a doubling span of the instruction clock.
func (m *Machine) tier2Backoff(base uint32) {
	st := m.t2[base]
	if st == nil {
		st = &t2State{}
		m.t2[base] = st
	}
	if st.backoff == 0 {
		st.backoff = tier2BackoffBase
	} else {
		st.backoff *= 2
	}
	now := m.instClock()
	st.notBefore = now + st.backoff
	st.since = now
	st.dispatches = 0
	st.departures = 0
	st.deopts = 0
}

// deoptimize services a fault inside a tier-2 group: reconstruct the
// precise architected state for the exception report (the §3.5 scan walk
// extended over superblock commit records), then rewind to the group-entry
// checkpoint and hand the PC back to the dispatcher, which will run the
// retained tier-1 translation (noteDeopt's skipOnce). The executor has
// already rolled the faulting VLIW itself back.
func (m *Machine) deoptimize(f *vliw.Fault) (bool, error) {
	if f.Alias {
		m.Stats.AliasRecoveries++
	} else if !f.CodeMod {
		// Not counted in Stats.Exceptions: the fault re-occurs on the tier-1
		// re-execution and is recovered (and counted) precisely there.
		if m.OnFault != nil {
			// Reconstruction must read the rename registers before the
			// checkpoint restore below destroys them.
			pc, _, _ := m.ReconstructFault(f)
			m.OnFault(f, pc)
		}
	}
	if m.tp != nil {
		m.tp.exception(m, f, faultArg(f))
		m.tp.tier2Deopt(m, f.VLIW.EntryBase)
	}
	m.rollbackToCheckpoint()
	m.noteDeopt(m.ckptPC &^ (m.Trans.Opt.PageSize - 1))
	return false, nil
}

// noteDeopt charges one deoptimization against the page: the next dispatch
// runs tier 1 (progress is guaranteed even for a deterministic fault), and
// past the limit the tier-2 translation is demoted outright.
func (m *Machine) noteDeopt(base uint32) {
	m.Stats.Tier2Deopts++
	st := m.t2[base]
	if st == nil {
		st = &t2State{since: m.instClock()}
		m.t2[base] = st
	}
	st.skipOnce = true
	st.deopts++
	if st.deopts >= tier2DeoptLimit {
		m.demoteTier2(base)
	}
}

// Tier2Pages returns the bases of pages currently carrying a tier-2
// translation, in ascending order (tests and inspection).
func (m *Machine) Tier2Pages() []uint32 {
	return sortedBases(m.tier2)
}
