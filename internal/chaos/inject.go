package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"daisy/internal/mem"
	"daisy/internal/txcache"
	"daisy/internal/vmm"
)

// Injector is one seeded source of adversity. Tune adjusts the machine
// options before construction (shrinking the page pool, starving the
// interpreter budget); Arm wires the injector's hooks into a freshly
// built machine. Both must be deterministic functions of the *rand.Rand
// they are armed with: the lockstep bisector replays a scenario from
// scratch and every injection must land on the same dynamic event.
//
// Injections are deliberately confined to the translated-execution side
// of the machine (executor hooks, translation-cache surgery). The
// interpreter is the reference semantics, so the VMM's recovery paths —
// which all funnel through interpretation — re-execute the disturbed
// work cleanly, and every injection is recoverable by construction. An
// injector that changed architected inputs (memory contents, I/O) would
// not be testing the VMM; it would be testing a different program.
type Injector interface {
	// Name identifies the injector for CLI selection and reports.
	Name() string
	// Tune adjusts machine options before the machine is built.
	Tune(opt *vmm.Options)
	// Arm installs the injector's hooks on a built machine.
	Arm(m *vmm.Machine, rng *rand.Rand)
}

// Injectors returns every injector, in a fixed order.
func Injectors() []Injector {
	return []Injector{
		aliasForce{},
		memFault{},
		smcStorm{},
		castOutChurn{},
		interpStarve{},
		workerPanic{},
		workerHang{},
		queueOverflow{},
		stalePublish{},
		tier2DeoptStorm{},
		tier2StaleProfile{},
		cacheBitFlip{},
		cacheSkew{},
		cacheENOSPC{},
		cacheShortWrite{},
	}
}

// ByName returns the named injector, or nil for "none".
func ByName(name string) (Injector, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	for _, in := range Injectors() {
		if in.Name() == name {
			return in, nil
		}
	}
	return nil, fmt.Errorf("chaos: unknown injector %q", name)
}

// aliasForce forces spurious load-verify mismatches: a fraction of
// verify parcels report an alias even though memory never changed,
// driving the §3.5 roll-back-and-reexecute path far more often than real
// store aliasing would.
type aliasForce struct{}

func (aliasForce) Name() string          { return "alias-force" }
func (aliasForce) Tune(opt *vmm.Options) {}
func (aliasForce) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.Exec.AliasHook = func(pc, addr uint32) bool {
		if rng.Intn(16) != 0 {
			return false
		}
		m.Stats.InjectedFaults++
		return true
	}
}

// memFault injects storage exceptions into a fraction of translated data
// accesses. A speculative load merely tags its destination (the deferred
// exception machinery of §2.1 must absorb it); a committed access rolls
// the VLIW back to its precise entry and recovery re-executes
// interpretively, where the hook does not exist and the access succeeds.
type memFault struct{}

func (memFault) Name() string          { return "mem-fault" }
func (memFault) Tune(opt *vmm.Options) {}
func (memFault) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.Exec.FaultHook = func(pc, addr uint32, size int, write bool) *mem.Fault {
		if rng.Intn(700) != 0 {
			return nil
		}
		m.Stats.InjectedFaults++
		return &mem.Fault{Addr: addr, Write: write, Kind: mem.FaultInjected}
	}
}

// smcStorm raises spurious self-modifying-code events: translated pages
// are marked dirty as though the program had stored into them, forcing
// the §3.2 invalidate-and-retranslate path (and, with quarantine
// enabled, eventually the interpret-only degradation) without the code
// ever changing.
type smcStorm struct{}

func (smcStorm) Name() string          { return "smc-storm" }
func (smcStorm) Tune(opt *vmm.Options) {}
func (smcStorm) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.OnGroupStart = func(pc uint32) {
		if rng.Intn(24) != 0 {
			return
		}
		pages := m.TranslatedPages()
		if len(pages) == 0 {
			return
		}
		m.InjectSMC(pages[rng.Intn(len(pages))])
		m.Stats.InjectedFaults++
	}
}

// castOutChurn shrinks the translated-page pool to a single page and
// additionally invalidates random translations, so nearly every
// cross-page transfer pays a full retranslation: the paper's cast-out
// machinery under maximum pressure.
type castOutChurn struct{}

func (castOutChurn) Name() string          { return "castout-churn" }
func (castOutChurn) Tune(opt *vmm.Options) { opt.MaxPages = 1 }
func (castOutChurn) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.OnGroupStart = func(pc uint32) {
		if rng.Intn(12) != 0 {
			return
		}
		pages := m.TranslatedPages()
		if len(pages) == 0 {
			return
		}
		m.InvalidatePage(pages[rng.Intn(len(pages))])
		m.Stats.InjectedFaults++
	}
}

// interpStarve cuts the interpreter budget to a single instruction and
// supplies a trickle of injected storage faults to force recovery into
// it. Each recovery then interprets exactly one instruction and must
// immediately re-enter translated mode, planting an entry point mid
// basic-block — the worst case for the §3.4 rule that the VMM should
// leave interpretive mode quickly.
type interpStarve struct{}

func (interpStarve) Name() string          { return "interp-starve" }
func (interpStarve) Tune(opt *vmm.Options) { opt.InterpBudget = 1 }
func (interpStarve) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.Exec.FaultHook = func(pc, addr uint32, size int, write bool) *mem.Fault {
		if rng.Intn(1500) != 0 {
			return nil
		}
		m.Stats.InjectedFaults++
		return &mem.Fault{Addr: addr, Write: write, Kind: mem.FaultInjected}
	}
}

// ---- Async-pipeline crash injectors ----
//
// These arm the Machine.FaultTranslation seam, which the VMM consults on
// the machine goroutine — at enqueue time for worker jobs, at call time
// for synchronous translations — so every random draw happens in machine
// order, never worker order. The faults themselves land inside the
// recover/watchdog barriers of vmm/guard.go and vmm/async.go, which is
// exactly the machinery under test: each one must degrade to counted
// interpretation, never to a guest-visible difference.
//
// Async machines publish translations at timing-dependent boundaries, so
// per-run event sequences (and therefore the exact draw sequence) can
// differ between the lockstep run and a bisection replay. The lockstep
// assertion itself does not care — each run is internally consistent and
// must be divergence-free by construction — but a bisection of a real bug
// found under these injectors is best-effort rather than exact.

// workerPanic makes a fraction of translation attempts panic inside the
// translator. The recover barrier must convert each one into an
// interpret-only quarantine of the page (Stats.TranslatorPanics) with the
// guest output byte-identical.
type workerPanic struct{}

func (workerPanic) Name() string { return "worker-panic" }
func (workerPanic) Tune(opt *vmm.Options) {
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.HotThreshold = 1
}
func (workerPanic) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.FaultTranslation = func(base uint32) *vmm.TranslationFault {
		if rng.Intn(3) != 0 {
			return nil
		}
		m.Stats.InjectedFaults++
		return &vmm.TranslationFault{Panic: true}
	}
}

// workerHang stalls a fraction of worker translations past the watchdog
// deadline: the job must be abandoned (Stats.AsyncAbandons), a
// replacement worker spawned, the page rescheduled through the retry
// backoff, and the late result dropped by its seq (Stats.AsyncLateDrops)
// if it ever arrives.
type workerHang struct{}

func (workerHang) Name() string { return "worker-hang" }
func (workerHang) Tune(opt *vmm.Options) {
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.HotThreshold = 1
	opt.AsyncDeadline = 2 * time.Millisecond
}
func (workerHang) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.FaultTranslation = func(base uint32) *vmm.TranslationFault {
		if rng.Intn(6) != 0 {
			return nil
		}
		m.Stats.InjectedFaults++
		// 1–5ms: some hangs finish inside the 2ms deadline, some are
		// abandoned — both sides of the watchdog race get exercised.
		return &vmm.TranslationFault{Hang: time.Duration(1+rng.Intn(5)) * time.Millisecond}
	}
}

// queueOverflow throttles the pipeline to one worker and a one-slot queue
// while short hangs keep that worker busy, so enqueues constantly hit the
// full queue. Backpressure must hold: pages just stay interpretive
// (Stats.AsyncQueueFull) and retry at a later dispatch.
type queueOverflow struct{}

func (queueOverflow) Name() string { return "queue-overflow" }
func (queueOverflow) Tune(opt *vmm.Options) {
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.AsyncQueueDepth = 1
	opt.HotThreshold = 1
}
func (queueOverflow) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.FaultTranslation = func(base uint32) *vmm.TranslationFault {
		if rng.Intn(2) != 0 {
			return nil
		}
		m.Stats.InjectedFaults++
		return &vmm.TranslationFault{Hang: time.Millisecond}
	}
}

// stalePublish races in-flight translations against invalidation: pages
// with a worker job outstanding are marked self-modified, so the epoch
// check must drop the result on arrival (Stats.StaleTranslationsDropped)
// rather than publish a translation of dead bytes.
type stalePublish struct{}

func (stalePublish) Name() string { return "stale-publish" }
func (stalePublish) Tune(opt *vmm.Options) {
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.HotThreshold = 1
	opt.MaxPages = 2
}
func (stalePublish) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.OnGroupStart = func(pc uint32) {
		if rng.Intn(8) != 0 {
			return
		}
		inflight := m.InflightPages()
		if len(inflight) == 0 {
			return
		}
		m.InjectSMC(inflight[rng.Intn(len(inflight))])
		m.Stats.InjectedFaults++
	}
}

// ---- Tier-2 optimizing-retranslation injectors ----
//
// Both force optimizing retranslation on with an aggressive promotion
// threshold and then attack the tier-2 machinery through the
// FaultTranslation seam, which tier2.go consults at promotion time on the
// machine goroutine (deterministic draw order). Every disturbance must be
// absorbed by the deopt/demotion state machine: the retained tier-1
// translation carries the page and the guest stays byte-identical.

// tier2DeoptStorm plants a deoptimization on a fraction of tier-2
// promotions: the first dispatch of each planted translation takes the
// full deopt path — checkpoint rollback, skip-once redispatch on tier 1,
// deopt accounting — and repeated storms must demote the translation
// rather than livelock it.
type tier2DeoptStorm struct{}

func (tier2DeoptStorm) Name() string { return "tier2-deopt-storm" }
func (tier2DeoptStorm) Tune(opt *vmm.Options) {
	opt.Tier2 = true
	opt.Tier2Threshold = 2
}
func (tier2DeoptStorm) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.FaultTranslation = func(base uint32) *vmm.TranslationFault {
		if rng.Intn(2) != 0 {
			return nil
		}
		// InjectedFaults is counted by the machine when the plan is applied
		// at promotion time (the seam is also consulted for tier-1 builds,
		// where a deopt plan is meaningless and ignored).
		return &vmm.TranslationFault{Deopt: true}
	}
}

// tier2StaleProfile inverts the measured branch profile on a fraction of
// tier-2 promotions, so the optimizing translation compiles exactly the
// cold path: the superblock is maximally wrong about the program. The
// path-departure machinery must carry every dispatch on tier 1 and
// eventually demote the useless translation — never diverge.
type tier2StaleProfile struct{}

func (tier2StaleProfile) Name() string { return "tier2-stale-profile" }
func (tier2StaleProfile) Tune(opt *vmm.Options) {
	opt.Tier2 = true
	opt.Tier2Threshold = 2
}
func (tier2StaleProfile) Arm(m *vmm.Machine, rng *rand.Rand) {
	m.FaultTranslation = func(base uint32) *vmm.TranslationFault {
		if rng.Intn(2) != 0 {
			return nil
		}
		return &vmm.TranslationFault{StaleProfile: true}
	}
}

// ---- Persistent-cache I/O injectors ----
//
// Each build gets a fresh in-memory store (Tune runs once per machine
// construction), so the lockstep run and both bisection replays see
// identical cache state evolution. Arm reaches the store through the
// machine's options, never through the injector: one injector value
// serves scenarios that run in parallel. MaxPages=2 keeps cast-outs
// frequent, so evicted pages keep coming back through the cache-load
// path and damaged entries are actually read, not just written.

// cacheBitFlip flips bytes inside stored entries. Every read of a damaged
// entry must degrade to a counted corrupt miss and a fresh translation.
type cacheBitFlip struct{}

func (cacheBitFlip) Name() string { return "cache-bitflip" }
func (cacheBitFlip) Tune(opt *vmm.Options) {
	opt.Cache = txcache.OpenMemory()
	opt.MaxPages = 2
}
func (cacheBitFlip) Arm(m *vmm.Machine, rng *rand.Rand) {
	store := m.Opt.Cache
	m.OnGroupStart = func(pc uint32) {
		if rng.Intn(64) != 0 {
			return
		}
		if n := store.Corrupt(); n > 0 {
			m.Stats.InjectedFaults++
		}
	}
}

// cacheSkew rewrites stored entries to a foreign format version,
// simulating a cache directory shared with a different translator build.
// Reads must degrade to counted version-skew misses.
type cacheSkew struct{}

func (cacheSkew) Name() string { return "cache-skew" }
func (cacheSkew) Tune(opt *vmm.Options) {
	opt.Cache = txcache.OpenMemory()
	opt.MaxPages = 2
}
func (cacheSkew) Arm(m *vmm.Machine, rng *rand.Rand) {
	store := m.Opt.Cache
	m.OnGroupStart = func(pc uint32) {
		if rng.Intn(64) != 0 {
			return
		}
		if n := store.SkewVersion(txcache.Version + 1); n > 0 {
			m.Stats.InjectedFaults++
		}
	}
}

// cacheENOSPC fails cache writes as if the volume were full, flapping the
// condition on and off. Saves must degrade to counted bypass
// (Stats.CacheSaveErrors, then the store's own write-bypass) and clearing
// the condition must re-arm the write path; translation itself is never
// affected.
type cacheENOSPC struct{}

func (cacheENOSPC) Name() string { return "cache-enospc" }
func (cacheENOSPC) Tune(opt *vmm.Options) {
	opt.Cache = txcache.OpenMemory()
	opt.Cache.SetFailMode(txcache.FailENOSPC)
	opt.MaxPages = 2
}
func (cacheENOSPC) Arm(m *vmm.Machine, rng *rand.Rand) {
	store := m.Opt.Cache
	full := true
	m.OnGroupStart = func(pc uint32) {
		if rng.Intn(48) != 0 {
			return
		}
		full = !full
		if full {
			store.SetFailMode(txcache.FailENOSPC)
		} else {
			store.SetFailMode(txcache.FailNone)
		}
		m.Stats.InjectedFaults++
	}
}

// cacheShortWrite tears every cache write: the entry lands truncated, as
// if the process had died mid-write after the rename. Subsequent reads
// must fail the checksum and degrade to counted corrupt misses.
type cacheShortWrite struct{}

func (cacheShortWrite) Name() string { return "cache-shortwrite" }
func (cacheShortWrite) Tune(opt *vmm.Options) {
	opt.Cache = txcache.OpenMemory()
	opt.Cache.SetFailMode(txcache.FailShortWrite)
	opt.MaxPages = 2
}
func (cacheShortWrite) Arm(m *vmm.Machine, rng *rand.Rand) {
	// No randomness needed: every write is torn; every read of a torn
	// entry must miss cleanly. The injected-fault counter rides on the
	// store's own corrupt-miss counter instead.
}
