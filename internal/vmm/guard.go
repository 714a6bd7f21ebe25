package vmm

// Panic isolation for the translation path. DAISY's compatibility promise
// is unconditional: a bug (or a chaos-planted fault) inside the translator
// must never become a guest-visible failure, because the interpreter can
// always carry the page at reduced speed. This file wraps every translator
// invocation — the synchronous page build, entry extension, and (via
// async.go) the worker pool — in a recover barrier. A panic is converted
// into:
//
//   - a counted, traced event (Stats.TranslatorPanics, EvTranslatorPanic),
//   - an interpret-only quarantine of the offending page through the
//     existing backoff machinery (a deterministic panic re-engages with a
//     doubled span each release, degrading instead of crash-looping), and
//   - a rebuilt translator, so no partially-constructed schedule state
//     survives the unwind.
//
// The guest run continues interpretively and remains byte-identical to the
// reference; only speed is lost.

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"daisy/internal/core"
	"daisy/internal/vliw"
)

// TranslationFault is a chaos-planted fault in one translation attempt.
// The fault-injection harness uses it to drive the recovery machinery this
// file and async.go implement; all fields are exercised inside the
// recover/watchdog barriers, so every plant is survivable by construction.
//
// Panic fires on every translation path (the synchronous page build and
// entry extension, async worker jobs, and tier-2 promotions). Err applies
// to translation jobs: async worker jobs, whose retry machinery absorbs
// it, and tier-2 promotions on either machine (a synchronous machine runs
// the promotion job inline), where it backs promotion off. The synchronous
// tier-1 page build and entry extension ignore Err, because a synchronous
// translation error keeps its historical fatal semantics. Hang applies
// only to async worker jobs, whose watchdog is built to absorb it. Deopt
// and StaleProfile apply only to tier-2 promotions (tier2.go), where the
// deopt/demotion machinery absorbs them: a plan drawn at promotion time
// forces the first tier-2 dispatch to deoptimize, or inverts the measured
// branch profile so the optimizing translation compiles exactly the cold
// path — both must leave guest output byte-identical.
type TranslationFault struct {
	Panic        bool          // the translator panics mid-schedule
	Hang         time.Duration // an async worker stalls this long before translating
	Err          error         // the async translation fails with this error
	Deopt        bool          // tier-2: force a deopt on the first dispatch
	StaleProfile bool          // tier-2: invert the promotion-time branch profile
}

// panicFault is the error a recovered translator panic surfaces as.
type panicFault struct {
	val   any
	stack []byte
}

func (p *panicFault) Error() string {
	return fmt.Sprintf("translator panic: %v", p.val)
}

// errTranslationUnavailable tells runGroupLoop that the page cannot be
// translated right now (panic quarantine, retry backoff) and must keep
// running interpretively. It never escapes the VMM.
var errTranslationUnavailable = errors.New("vmm: translation unavailable; interpreting")

// plantedFault consults the chaos seam for the page at base. Runs only on
// the machine goroutine (sync translation sites and the async enqueue), so
// a seeded injector's random draws stay in deterministic order.
func (m *Machine) plantedFault(base uint32) *TranslationFault {
	if m.FaultTranslation == nil {
		return nil
	}
	return m.FaultTranslation(base)
}

// safeTranslatePage is Trans.TranslatePage behind the recover barrier.
func (m *Machine) safeTranslatePage(addr uint32) (pt *core.PageTranslation, err error) {
	defer guardTranslate(&err)
	if f := m.plantedFault(addr &^ (m.Trans.Opt.PageSize - 1)); f != nil && f.Panic {
		panic("chaos: planted translator panic")
	}
	return m.Trans.TranslatePage(addr)
}

// safeEnsureEntry wraps the incremental entry-extension calls the same way.
func (m *Machine) safeEnsureEntry(pt *core.PageTranslation, addr uint32, guided bool) (g *vliw.Group, err error) {
	defer guardTranslate(&err)
	if f := m.plantedFault(addr &^ (m.Trans.Opt.PageSize - 1)); f != nil && f.Panic {
		panic("chaos: planted translator panic")
	}
	if guided {
		return m.Trans.EnsureEntryGuided(pt, addr, m.recordTrace(addr))
	}
	return m.Trans.EnsureEntry(pt, addr)
}

// guardTranslate converts a panic escaping a translator call into a
// panicFault error carrying the stack.
func guardTranslate(err *error) {
	if r := recover(); r != nil {
		*err = &panicFault{val: r, stack: debug.Stack()}
	}
}

// translatorFailed is the single funnel for a translation attempt that
// panicked on the synchronous path: count it, trace it, quarantine the
// page interpret-only, and rebuild the translator so nothing
// half-scheduled leaks into later pages. Returns the sentinel the dispatch
// loop maps to interpretation.
func (m *Machine) translatorFailed(base uint32, err error) error {
	var pf *panicFault
	if !errors.As(err, &pf) {
		// Non-panic translator errors (bad entry, fetch past memory) keep
		// their historical fatal semantics on the synchronous path: they are
		// deterministic program/setup errors, not transient service faults.
		return err
	}
	m.Stats.TranslatorPanics++
	if m.tp != nil {
		m.tp.translatorPanic(m, base)
	}
	m.resetTranslator()
	m.forceQuarantine(base)
	return errTranslationUnavailable
}

// resetTranslator rebuilds the incremental translator after a panic,
// carrying the accumulated statistics over. The old instance may hold a
// partially built page; abandoning it is the crash-only move.
func (m *Machine) resetTranslator() {
	stats := m.Trans.Stats
	opt := m.Trans.Opt
	m.Trans = core.New(m.Mem, opt)
	m.Trans.Stats = stats
}
