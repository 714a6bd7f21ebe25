// Package vmm implements DAISY's Virtual Machine Monitor: the software
// that lives in ROM on the real machine (Figure 3.1) and gives the base
// architecture 100% compatible execution on the VLIW.
//
// The VMM owns page translation and cast-out, valid entry points,
// self-modifying-code invalidation via the non-architected read-only bits
// (§3.2), cross-page branch resolution (§3.4), system-call emulation, and
// precise exception recovery: a faulting VLIW rolls back to its entry —
// always an exact base-instruction boundary — and the VMM interprets
// forward from there, reaching the faulting instruction with precise
// architected state (§3.5 and §3.6).
package vmm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/txcache"
	"daisy/internal/vliw"
)

// Options configure a Machine beyond the translator options.
type Options struct {
	Trans core.Options

	// MaxPages bounds the translated-page pool; the least recently used
	// page translation is cast out when it fills (0: unlimited).
	MaxPages int

	// InterpBudget is how many instructions the VMM interprets after a
	// fault or an untranslated-code exit before it forces a new entry
	// point (the paper's rule: leave interpretive mode quickly).
	InterpBudget int

	// GuestFaultVectors selects §3.3 exception delivery: data storage
	// faults fill SRR0/SRR1/DAR/DSISR and transfer to the base operating
	// system's handler at vector 0x300 instead of surfacing as Go errors.
	// Data effective addresses are translated through the guest page
	// table (Chapter 4) when MSR[DR] is on.
	GuestFaultVectors bool

	// AdaptiveSpeculation enables the remedy §5 sketches for alias-heavy
	// code: a page whose groups keep failing load-verify is retranslated
	// with loads kept in store order. The paper's own implementation
	// lacked this ("does not yet have this feature"), so it is off by
	// default; the traditional-compiler baseline turns it on.
	AdaptiveSpeculation bool

	// Interpretive selects Chapter 6's interpretive compilation: before
	// translating an entry, the VMM interprets ahead on a throwaway copy
	// of the machine, records the branch directions actually taken, and
	// compiles only that path. Cold branch sides stay untranslated until
	// execution reaches them.
	Interpretive bool

	// QuarantineThreshold enables graceful degradation: a page suffering
	// this many translation-trouble events (SMC invalidations, alias
	// recoveries, recovered exceptions) within QuarantineWindow completed
	// instructions is blacklisted to interpret-only mode instead of being
	// retranslated, so a thrashing page degrades to interpreter speed
	// rather than paying translation cost on every trip. 0 disables.
	QuarantineThreshold int

	// QuarantineWindow is the event-counting window, in completed base
	// instructions.
	QuarantineWindow uint64

	// QuarantineBackoff is the first quarantine span in completed base
	// instructions; each re-quarantine of the same page doubles it
	// (exponential backoff before translation is retried).
	QuarantineBackoff uint64

	// AsyncTranslate moves page translation off the execution path: hot
	// pages are translated by a bounded worker pool while the machine
	// keeps interpreting, and finished translations are published at
	// precise boundaries (see async.go). Off by default — the golden and
	// lockstep walls pin the synchronous machine. Ignored in Interpretive
	// mode, whose trace-guided translation is inherently inline.
	AsyncTranslate bool

	// AsyncWorkers is the translator pool size (0: 2).
	AsyncWorkers int

	// AsyncQueueDepth bounds the pending-translation queue; a full queue
	// pushes back (the page stays interpretive and retries later) rather
	// than growing without bound (0: 8).
	AsyncQueueDepth int

	// HotThreshold is how many dispatches into an untranslated page it
	// takes before the async pipeline spends translation effort on it
	// (0: 2). Only consulted when AsyncTranslate is on.
	HotThreshold int

	// AsyncDeadline is the wall-clock budget one in-flight translation may
	// spend before the worker watchdog abandons it: the job leaves the
	// inflight set (the page keeps interpreting and is rescheduled through
	// the retry backoff), a replacement worker is spawned for the
	// presumed-stuck one, and the late result — if it ever arrives — is
	// dropped (0: 2s). Only consulted when AsyncTranslate is on.
	AsyncDeadline time.Duration

	// AsyncMaxRetries bounds how many times a failed worker translation
	// (error, watchdog abandonment) is rescheduled with exponential
	// backoff before the page is quarantined interpret-only instead
	// (0: 3).
	AsyncMaxRetries int

	// Cache, if non-nil, is the persistent cross-run translation cache:
	// consulted (by page-content digest + options fingerprint) before any
	// page translation is scheduled, and written through after each one
	// completes. Works with both the synchronous and async machines.
	Cache *txcache.Store

	// Tier2 enables optimizing retranslation (tier2.go): a page that stays
	// hot and stable is retranslated at tier-2 effort — the traditional
	// compiler's scheduling recipe (sched.Tier2: a larger window, deeper
	// revisit budgets, deferred commits with dead-commit elimination) along
	// the measured hot path. A tier-2 fault deoptimizes to the retained
	// tier-1 translation of the same page; it never retranslates inline.
	// Requires precise tier-1 translation (Trans.PreciseExceptions).
	Tier2 bool

	// Tier2Threshold is how many dispatches into a tier-1-translated page
	// it takes before the page is considered hot enough to retranslate at
	// tier-2 effort (0: 8). Only consulted when Tier2 is on.
	Tier2Threshold int

	// Tier2Stability is the stability window in completed base
	// instructions: the page must have gone at least this long since its
	// last invalidation before tier-2 effort is spent on it, so code that
	// keeps self-modifying never earns an optimizing translation (0: no
	// stability requirement). Only consulted when Tier2 is on.
	Tier2Stability uint64
}

// DefaultOptions mirrors the paper's headline setup.
func DefaultOptions() Options {
	return Options{Trans: core.DefaultOptions(), InterpBudget: 64}
}

// Stats collects the dynamic counters behind the paper's tables.
type Stats struct {
	Exec vliw.Stats // VLIWs, base instructions, loads/stores, aliases

	InterpInsts  uint64 // instructions executed interpretively by the VMM
	Syscalls     uint64
	PagesBuilt   uint64 // "VLIW translation missing" exceptions serviced
	GroupsBuilt  uint64
	EntriesBuilt uint64 // "invalid entry point" exceptions serviced
	CastOuts     uint64

	CrossDirect uint64 // Table 5.6: direct cross-page branches
	CrossLR     uint64 // via the link register
	CrossCTR    uint64 // via the count register
	IntraEntry  uint64 // same-page entry-point transfers

	// Group chaining (a pure wall-clock optimization: neither counter
	// feeds any paper table, and IntraEntry above counts chained and
	// dispatched transfers identically).
	ChainPatches uint64 // exit edges patched with a direct group link
	ChainFollows uint64 // dispatches bypassed by following a chain

	SMCInvalidations    uint64
	Exceptions          uint64 // precise exceptions recovered
	AliasRecoveries     uint64 // load-verify re-executions (Table 5.7)
	AliasRetranslations uint64 // entries rebuilt without load speculation
	TraceRecInsts       uint64 // instructions interpreted by the trace recorder

	Quarantines        uint64 // pages degraded to interpret-only mode
	QuarantineReleases uint64 // quarantines expired (translation retried)
	InjectedFaults     uint64 // chaos-harness injections observed
	TranslatorPanics   uint64 // translator panics recovered (sync path and workers)

	// Asynchronous translation pipeline (async.go).
	AsyncEnqueues            uint64 // pages handed to the worker pool
	AsyncPublishes           uint64 // worker results installed
	AsyncQueueFull           uint64 // enqueues pushed back by a full queue
	StaleTranslationsDropped uint64 // in-flight results discarded by epoch/digest

	// Async fault tolerance (worker watchdog and retry/backoff; async.go).
	AsyncRetries          uint64 // failed worker translations rescheduled with backoff
	AsyncRetriesExhausted uint64 // retry budgets spent; pages quarantined instead
	AsyncAbandons         uint64 // in-flight jobs abandoned past AsyncDeadline
	AsyncLateDrops        uint64 // abandoned results that arrived late and were dropped
	AsyncRespawns         uint64 // worker goroutines respawned by the watchdog

	// Persistent translation cache (per-machine view; the Store keeps its
	// own cross-machine counters). Misses are partitioned by reason:
	// CacheMisses == CacheMissAbsent + CacheMissCorrupt + CacheMissSkew +
	// CacheMissOptions.
	CacheHits        uint64
	CacheHotHits     uint64 // hits served from the store's decoded hot tier
	CacheMisses      uint64
	CacheMissAbsent  uint64 // no entry under the content address
	CacheMissCorrupt uint64 // entry damaged (checksum/decode failure)
	CacheMissSkew    uint64 // entry from another format version
	CacheMissOptions uint64 // entry's key echo disagreed with its address
	CacheStores      uint64
	CacheSaveErrors  uint64 // cache writes that failed; translation unaffected

	// Optimizing retranslation tier (tier2.go).
	Tier2Promotions     uint64 // pages retranslated at tier-2 effort
	Tier2Publishes      uint64 // async tier-2 results installed
	Tier2Dispatches     uint64 // dispatches served by a tier-2 group
	Tier2Deopts         uint64 // tier-2 faults deoptimized to tier-1
	Tier2PathDepartures uint64 // dispatches that left the tier-2 hot path
	Tier2Demotions      uint64 // tier-2 translations retired (deopt/departure storms)
	Tier2ProfileInsts   uint64 // instructions interpreted by the promotion profiler

	Cycles      uint64 // VLIW issue cycles (one per attempted tree instruction)
	StallCycles uint64 // extra cycles from the attached cache model
}

// BaseInsts returns the total completed base instructions (translated +
// interpreted).
func (s *Stats) BaseInsts() uint64 { return s.Exec.BaseInsts + s.InterpInsts }

// ILP returns base instructions per cycle including cache stalls (the
// finite-cache ILP when a hierarchy is attached); interpreted instructions
// are charged one cycle each.
func (s *Stats) ILP() float64 {
	cyc := s.Cycles + s.StallCycles + s.InterpInsts
	if cyc == 0 {
		return 0
	}
	return float64(s.BaseInsts()) / float64(cyc)
}

// InfILP returns base instructions per VLIW issue cycle, ignoring cache
// stalls: the paper's infinite-cache pathlength reduction.
func (s *Stats) InfILP() float64 {
	cyc := s.Cycles + s.InterpInsts
	if cyc == 0 {
		return 0
	}
	return float64(s.BaseInsts()) / float64(cyc)
}

// Machine is a base architecture machine implemented by dynamic
// translation onto the VLIW.
type Machine struct {
	Mem   *mem.Memory
	Env   *interp.Env
	Trans *core.Translator
	Exec  *vliw.Executor
	Opt   Options
	Stats Stats

	// St holds PC and MSR; GPRs/CR/LR/CTR/XER live in Exec.RF while
	// translated code runs.
	St ppc.State

	// OnFault, if non-nil, observes each recovered exception: the rolled
	// back fault and the precise base address found by the §3.5 scan.
	OnFault func(f *vliw.Fault, scanPC uint32)

	// StallFn, if non-nil, returns extra stall cycles for a memory
	// access (wired to the cache simulator).
	StallFn func(addr uint32, size int, write bool, fetch bool) uint64

	// OnGroupStart, if non-nil, observes the base PC at the top of every
	// translated-execution attempt (one call per runGroup). The chaos
	// harness drives its SMC-storm and cast-out injectors from it.
	OnGroupStart func(pc uint32)

	// OnTranslate, if non-nil, observes every page translation the moment
	// it is built or extended with a new entry group — before any of its
	// code runs. The chaos mutation tests use it to plant translator bugs.
	OnTranslate func(pt *core.PageTranslation)

	// FaultTranslation, if non-nil, is consulted on the machine goroutine
	// once per translation attempt of the page at base, before the
	// translator runs (synchronous path) or as the job is enqueued (async
	// path, where the plan rides in the job to the worker). Chaos
	// injectors return a TranslationFault to plant panics, hangs, and
	// errors inside the recover/watchdog barriers of guard.go and
	// async.go; nil means translate normally.
	FaultTranslation func(base uint32) *TranslationFault

	// OnBoundary, if non-nil, observes every committed VLIW boundary with
	// the total completed base-instruction count. In precise-exception
	// mode each such boundary is an exact architected state (Chapter 2),
	// which is what the lockstep bisector exploits; the hook is not
	// invoked in imprecise mode, where only group entries are precise.
	OnBoundary func(completed uint64)

	pages map[uint32]*core.PageTranslation
	lru   *pageLRU
	dirty map[uint32]bool

	// quar tracks per-page translation trouble for the interpret-only
	// quarantine (graceful degradation; see quarantine.go).
	quar map[uint32]*quarState

	// Adaptive speculation throttle (§5: "an entry point could be
	// retranslated with movement of loads above stores inhibited"):
	// pages whose groups keep alias-faulting are rebuilt without load
	// speculation.
	aliasCount map[uint32]int // by page base
	inhibit    map[uint32]bool

	curGroup *vliw.Group
	maxInsts uint64

	// Asynchronous translation pipeline state (async.go): the worker
	// pool, per-page invalidation epochs, and per-page hotness counters.
	// pipe is nil on a synchronous machine; epoch and hot exist only with
	// it. optFP memoizes the translator-options fingerprint for the
	// persistent cache key.
	pipe  *txPipeline
	epoch map[uint32]uint64
	hot   map[uint32]int
	optFP uint64

	// cachePending defers entry-extension write-through: a page that
	// grows entry points during a run is rewritten to the persistent
	// cache once — at halt or Close — not once per extension. The map
	// holds the exact translation that was extended; the flush drops a
	// page whose translation has since been invalidated (its bytes may
	// have changed, so the pending rewrite would be mis-keyed).
	cachePending map[uint32]*core.PageTranslation

	// Optimizing retranslation tier (tier2.go). tier2 maps page base to
	// the tier-2 translation; its keys are always a subset of pages — the
	// tier-1 translation is retained as the deoptimization target. t2
	// holds each page's promotion/demotion policy state; t2journal is
	// swapped into the executor while a tier-2 (deferred-commit) group
	// runs. All nil unless Opt.Tier2.
	tier2     map[uint32]*core.PageTranslation
	t2        map[uint32]*t2State
	t2journal *vliw.StoreJournal

	// tp is the attached telemetry probe (nil when telemetry is off; see
	// telemetry.go — every hot-path site is a single nil check).
	tp *telProbe

	// scanBuf is the reused node buffer for expanding the executor's step
	// log on the (rare) fault-scan path.
	scanBuf []*vliw.Node

	// Imprecise-mode checkpoint (the reproduction's stand-in for
	// Appendix B's resume_vliw): the register file and PC at the current
	// group's entry, plus a journal of the group's stores and the
	// completed-instruction count (rolled-back work must not be counted).
	ckptRF    vliw.RegFile
	ckptPC    uint32
	ckptInsts uint64
}

// New builds a machine over a loaded memory image.
func New(m *mem.Memory, env *interp.Env, opt Options) *Machine {
	if opt.InterpBudget <= 0 {
		opt.InterpBudget = 64
	}
	if opt.Interpretive {
		// Tracing compiles only executed paths, so the window and
		// unrolling budgets can grow without the static mode's code
		// explosion ("we can afford a larger window size", Chapter 6).
		opt.Trans.Window *= 4
		opt.Trans.MaxJoinVisits *= 2
		opt.Trans.MaxLoopVisits *= 2
	}
	ma := &Machine{
		Mem:        m,
		Env:        env,
		Trans:      core.New(m, opt.Trans),
		Exec:       &vliw.Executor{Mem: m},
		Opt:        opt,
		pages:      make(map[uint32]*core.PageTranslation),
		lru:        newPageLRU(),
		dirty:      make(map[uint32]bool),
		quar:       make(map[uint32]*quarState),
		aliasCount: make(map[uint32]int),
		inhibit:    make(map[uint32]bool),
	}
	m.OnProtectedStore = func(addr uint32, size int) {
		ma.dirty[addr&^(ma.Trans.Opt.PageSize-1)] = true
	}
	// The StallFn bridge hooks are installed by Start only when a cache
	// model is attached, so the common case pays no indirect call per
	// memory access or VLIW fetch.
	if !opt.Trans.PreciseExceptions {
		// Without per-instruction commits, faults recover by rolling the
		// whole group back: journal its stores.
		ma.Exec.Journal = &vliw.StoreJournal{}
	}
	if opt.GuestFaultVectors {
		ma.Exec.AddrXlate = func(vaddr uint32, write bool) (uint32, *mem.Fault) {
			return interp.DataTranslate(ma.Mem, &ma.St, vaddr, write)
		}
	}
	if opt.AsyncTranslate && !opt.Interpretive {
		ma.startPipeline()
	}
	if opt.Tier2 {
		ma.tier2 = make(map[uint32]*core.PageTranslation)
		ma.t2 = make(map[uint32]*t2State)
		ma.t2journal = &vliw.StoreJournal{}
	}
	return ma
}

// ErrBudget is returned when Run's instruction budget is exhausted.
var ErrBudget = errors.New("vmm: instruction budget exhausted")

// Run executes from entry until the program halts (returns nil), the
// instruction budget is exhausted, or an unrecoverable error occurs.
func (m *Machine) Run(entry uint32, maxInsts uint64) error {
	m.Start(entry, maxInsts)
	for {
		halted, err := m.StepGroup()
		if err != nil {
			return err
		}
		if halted {
			return nil
		}
	}
}

// Start prepares the machine to execute from entry with the given
// instruction budget (0: unlimited), without running anything. Callers
// then drive execution with StepGroup; Run is the Start+StepGroup loop.
func (m *Machine) Start(entry uint32, maxInsts uint64) {
	m.St.PC = entry
	m.maxInsts = maxInsts
	m.Exec.RF.FromState(&m.St)
	if m.StallFn != nil {
		m.Exec.OnMem = func(addr uint32, size int, write bool) {
			m.Stats.StallCycles += m.StallFn(addr, size, write, false)
		}
		m.Exec.OnFetch = func(v *vliw.VLIW) {
			m.Stats.StallCycles += m.StallFn(v.Addr, v.Bytes, false, true)
		}
	} else {
		m.Exec.OnMem = nil
		m.Exec.OnFetch = nil
	}
}

// StepGroup advances execution to the next precise synchronization point:
// a group exit, a serviced system call, or a halt. On return St holds the
// complete architected state, making every boundary a valid comparison
// point for a lockstep differential checker. It reports halted=true on a
// clean program halt.
func (m *Machine) StepGroup() (halted bool, err error) {
	if err := m.checkBudget(); err != nil {
		return false, err
	}
	halt, err := m.runGroup()
	m.Exec.RF.ToState(&m.St)
	if errors.Is(err, errHaltFromInterp) {
		halt, err = true, nil
	}
	if halt {
		// Program done: write the deferred entry-extension rewrites through
		// to the persistent cache (Close catches runs that never halt).
		m.flushCacheStores()
	}
	return halt, err
}

func (m *Machine) checkBudget() error {
	// Reads the executor's live counter rather than the Stats mirror so
	// runGroup does not have to re-sync the mirror on every VLIW.
	if m.maxInsts > 0 && m.Exec.Stats.BaseInsts+m.Stats.InterpInsts >= m.maxInsts {
		return fmt.Errorf("%w (pc %#x)", ErrBudget, m.St.PC)
	}
	return nil
}

// pageFor returns (building if needed) the translation of the page
// containing addr — the "VLIW translation missing" service (§3.1).
func (m *Machine) pageFor(addr uint32) (*core.PageTranslation, error) {
	base := addr &^ (m.Trans.Opt.PageSize - 1)
	if pt, ok := m.pages[base]; ok {
		m.touch(base)
		return pt, nil
	}
	// A persistent-cache hit installs the prior run's translation of these
	// exact bytes instead of rebuilding it (async machines consult the
	// cache in groupAsync before the page ever reaches here).
	if m.cacheUsable(base) && m.installCached(addr) {
		return m.pages[base], nil
	}
	before := m.Trans.Stats
	var pt *core.PageTranslation
	var err error
	if m.Opt.Interpretive {
		pt = core.EmptyPage(addr, m.Trans.Opt.PageSize)
	} else {
		pt, err = m.safeTranslatePage(addr)
	}
	if err != nil {
		return nil, m.translatorFailed(base, err)
	}
	m.Stats.PagesBuilt++
	m.Stats.GroupsBuilt += m.Trans.Stats.Groups - before.Groups
	if m.tp != nil {
		m.tp.translated(m, addr, before)
		m.tp.spanLiveSync(m, base)
	}
	if m.OnTranslate != nil {
		m.OnTranslate(pt)
	}
	m.pages[base] = pt
	m.touch(base)
	// Protect the page so stores into it raise the code-modification
	// interrupt (§3.2).
	m.Mem.SetReadOnly(base, true)
	m.castOut()
	m.cacheStore(pt)
	return pt, nil
}

func (m *Machine) touch(base uint32) { m.lru.touch(base) }

func (m *Machine) castOut() {
	if m.Opt.MaxPages <= 0 {
		return
	}
	for len(m.pages) > m.Opt.MaxPages {
		victim, ok := m.lru.victim()
		if !ok {
			return
		}
		m.invalidate(victim)
		m.Stats.CastOuts++
		if m.tp != nil {
			m.tp.castOut(m, victim)
		}
	}
}

// invalidate destroys the translation of one page (§3.2). Every caller —
// SMC drain, LRU cast-out, quarantine engagement, adaptive retranslation —
// funnels through here, so the unchain walk below is the single point
// where group-chaining links die with the translation they point into.
func (m *Machine) invalidate(base uint32) {
	// Bump the page's epoch before the existence check: the page may have
	// no published translation yet but still have one in flight, and that
	// result must not land after this invalidation.
	m.bumpEpoch(base)
	if m.tp != nil {
		m.tp.spanInvalidate(m, base)
	}
	// The optimizing tier dies with the page: both the tier-2 translation
	// and the promotion-policy state (its stability clock restarts from the
	// invalidation). Without this, a quarantine engaging while a tier-2
	// retranslation is pending would leak the retained tier-1 translation's
	// tier-2 shadow — m.tier2 must always be a subset of m.pages.
	if pt2, ok := m.tier2[base]; ok {
		pt2.Unchain()
		delete(m.tier2, base)
	}
	delete(m.t2, base)
	pt, ok := m.pages[base]
	if !ok {
		return
	}
	pt.Unchain()
	delete(m.pages, base)
	m.lru.remove(base)
	m.Mem.SetReadOnly(base, false)
}

// chainingEnabled reports whether exit edges may be patched with (and
// followed through) direct group links. Any observation hook — the
// lockstep validator's OnGroupStart/OnBoundary, or a chaos injector's
// executor hooks — disables chaining entirely, so PR 1's differential
// validation still sees every dispatch the unchained machine would make.
func (m *Machine) chainingEnabled() bool {
	// Tier-2 mode also disables chaining: every dispatch must funnel
	// through tier2Dispatch so the tiering policy can count it and prefer
	// the optimizing translation — a chained tier-1 hop would bypass both.
	return m.OnGroupStart == nil && m.OnBoundary == nil &&
		m.Exec.FaultHook == nil && m.Exec.AliasHook == nil && !m.Opt.Tier2
}

// InvalidatePage destroys the translation of the page containing addr, if
// any (exported for the chaos harness's cast-out churn injector; a real
// VMM would do this on a TLB or page-table invalidation from the guest).
func (m *Machine) InvalidatePage(addr uint32) {
	m.invalidate(addr &^ (m.Trans.Opt.PageSize - 1))
}

// InjectSMC marks the page containing addr as modified, exactly as a
// guest store into protected code would: its translation is invalidated
// at the next precise boundary. Spurious events are harmless — that is
// the §3.2 safety property the chaos SMC-storm injector exercises.
func (m *Machine) InjectSMC(addr uint32) {
	m.dirty[addr&^(m.Trans.Opt.PageSize-1)] = true
}

// TranslatedPages returns the bases of currently translated pages in
// ascending order (deterministic, for seeded injectors and inspection).
func (m *Machine) TranslatedPages() []uint32 { return sortedBases(m.pages) }

// sortedBases returns the page bases keying pages in ascending order.
func sortedBases[V any](pages map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(pages))
	for b := range pages {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CurrentGroup returns the translated group most recently entered (nil
// before any translated execution), for divergence reporting.
func (m *Machine) CurrentGroup() *vliw.Group { return m.curGroup }

// groupAt resolves the base address to a translated group, servicing
// missing-translation and invalid-entry exceptions on the way.
func (m *Machine) groupAt(addr uint32) (*vliw.Group, error) {
	if m.inhibit[addr&^(m.Trans.Opt.PageSize-1)] {
		saved := m.Trans.Opt.SpeculateLoads
		m.Trans.Opt.SpeculateLoads = false
		defer func() { m.Trans.Opt.SpeculateLoads = saved }()
	}
	pt, err := m.pageFor(addr)
	if err != nil {
		return nil, err
	}
	if g, ok := pt.Groups[addr]; ok {
		return g, nil
	}
	before := m.Trans.Stats
	g, err := m.safeEnsureEntry(pt, addr, m.Opt.Interpretive)
	if err != nil {
		return nil, m.translatorFailed(addr&^(m.Trans.Opt.PageSize-1), err)
	}
	m.Stats.EntriesBuilt++
	m.Stats.GroupsBuilt += m.Trans.Stats.Groups - before.Groups
	if m.tp != nil {
		m.tp.translated(m, addr, before)
	}
	if m.OnTranslate != nil {
		m.OnTranslate(pt)
	}
	// The page grew a new entry group: its cache entry needs a rewrite so
	// the next run reloads the extended translation. Deferred — a run
	// discovering N entry points on one page must pay one rewrite, not N
	// (each rewrite re-encodes and re-compresses the whole page).
	m.cacheDefer(pt)
	return g, nil
}

// cacheDefer schedules a write-through rewrite of the page's cache entry
// for the next flushCacheStores (halt or Close).
func (m *Machine) cacheDefer(pt *core.PageTranslation) {
	if !m.cacheUsable(pt.Base) {
		return
	}
	if m.cachePending == nil {
		m.cachePending = make(map[uint32]*core.PageTranslation)
	}
	m.cachePending[pt.Base] = pt
}

// flushCacheStores writes every pending entry-extension rewrite. A page
// whose pending translation is no longer the live one was invalidated in
// between — its bytes may differ from the translation's input, so the
// rewrite is dropped (content addressing would make it unreachable at
// best, mis-keyed at worst).
func (m *Machine) flushCacheStores() {
	if len(m.cachePending) == 0 {
		return
	}
	for _, base := range sortedBases(m.cachePending) {
		if pt := m.cachePending[base]; m.pages[base] == pt {
			m.cacheStore(pt)
		}
	}
	m.cachePending = nil
}

// lookAhead interprets up to budget instructions ahead from entry,
// starting from the current register file, on throwaway copies of memory
// and the I/O environment, reporting every conditional branch to
// onBranch. Halt, fault or budget exhaustion all end it; it returns the
// number of instructions interpreted. The machine itself is untouched.
// Chapter 6: "since we are decoding the base architecture instructions,
// interpreting them at that point adds only a small overhead".
func (m *Machine) lookAhead(entry uint32, budget uint64, onBranch func(pc uint32, taken bool)) uint64 {
	ip := interp.New(m.Mem.Clone(), m.Env.Clone(), entry)
	m.Exec.RF.ToState(&ip.St)
	ip.St.PC = entry
	ip.OnBranch = onBranch
	_ = ip.Run(budget)
	return ip.InstCount
}

// recordTrace looks ahead from entry, recording the direction of every
// conditional branch in order, and returns a guide the translator
// consumes in that order (interpretive compilation, Chapter 6).
func (m *Machine) recordTrace(entry uint32) func(pc uint32) (bool, bool) {
	type rec struct {
		pc    uint32
		taken bool
	}
	var recs []rec
	m.Stats.TraceRecInsts += m.lookAhead(entry, uint64(4*m.Trans.Opt.Window), func(pc uint32, taken bool) {
		recs = append(recs, rec{pc, taken})
	})
	i := 0
	return func(pc uint32) (bool, bool) {
		if i >= len(recs) || recs[i].pc != pc {
			return false, false
		}
		t := recs[i].taken
		i++
		return t, true
	}
}

// runGroup executes translated code from the current PC until control
// leaves the current page, a system call is serviced, or the program
// halts. It returns halt=true on SysHalt.
//
// The Stats.Exec mirror is synced once per runGroup here (plus at the few
// in-loop points that read it: boundary hooks, recovery, SMC drains)
// instead of after every VLIW; checkBudget reads the live executor
// counter directly.
func (m *Machine) runGroup() (bool, error) {
	if m.tp != nil && m.tp.sampleDispatch() {
		startPC := m.St.PC
		beforeExec := m.Exec.Stats
		beforeFollows := m.Stats.ChainFollows
		m.tp.profBegin(m)
		halt, err := m.runGroupLoop()
		m.tp.profEnd(m)
		m.Stats.Exec = m.Exec.Stats
		d := m.Exec.Stats.Sub(beforeExec)
		m.tp.dispatchRun(m, startPC, d.BaseInsts, d.VLIWs, m.Stats.ChainFollows-beforeFollows)
		return halt, err
	}
	halt, err := m.runGroupLoop()
	m.Stats.Exec = m.Exec.Stats
	return halt, err
}

func (m *Machine) runGroupLoop() (bool, error) {
	if m.OnGroupStart != nil {
		m.OnGroupStart(m.St.PC)
	}
	m.drainDirty()
	if m.pipe != nil {
		// Publish finished worker translations first, at this precise
		// boundary: drainDirty has just applied any pending invalidations,
		// so a published result is checked against final epochs.
		m.drainAsync()
	}
	if m.pageQuarantined(m.St.PC) {
		// Graceful degradation: the page keeps invalidating or faulting
		// its translations, so run it interpretively until the backoff
		// expires instead of translating it yet again.
		return false, m.interpret()
	}
	var g *vliw.Group
	var err error
	if m.pipe != nil {
		g, err = m.groupAsync(m.St.PC)
		if err == nil && g == nil {
			// Cold, queued, or in flight: keep executing interpretively.
			return false, m.interpret()
		}
	} else {
		g, err = m.groupAt(m.St.PC)
	}
	if errors.Is(err, errTranslationUnavailable) {
		// Panic isolation: the translator blew up on this page and the
		// page is now quarantined. Architected semantics are preserved by
		// interpreting; only speed is lost.
		return false, m.interpret()
	}
	if err != nil {
		return false, err
	}
	if m.Opt.Tier2 {
		// Prefer a tier-2 translation of this PC when one exists, and feed
		// the promotion policy otherwise. The executor journals a tier-2
		// (deferred-commit) group's stores so a fault can deoptimize to the
		// group-entry checkpoint; tier-1 groups on this machine are precise
		// and need no journal.
		g = m.tier2Dispatch(g)
		if g.TierOf() >= 2 {
			m.Exec.Journal = m.t2journal
		} else {
			m.Exec.Journal = nil
		}
	}
	m.curGroup = g
	m.Exec.ResetPath()
	m.checkpoint(g.Entry)
	v := g.VLIWs[0]
	chainOK := m.chainingEnabled()
	runStart := m.Exec.Stats.BaseInsts // virtual-clock origin of this dispatch run

	for {
		if err := m.checkBudget(); err != nil {
			if m.Exec.Journal != nil {
				// Mid-group state of a deferred-commit group is not
				// architected; report budget exhaustion from the precise
				// group-entry checkpoint instead.
				m.rollbackToCheckpoint()
			}
			return false, err
		}
		exit, fault := m.Exec.Exec(v)
		m.Stats.Cycles++ // one cycle per attempted VLIW
		if fault != nil {
			m.Stats.Exec = m.Exec.Stats
			return m.recover(fault)
		}

		// Self-modifying code reaches here only via interpretation (a
		// translated store into protected code rolls back instead), but
		// drain defensively at this precise boundary.
		smcHit := m.drainDirty()

		// A committed VLIW is a precise architected boundary (precise
		// mode only). Inside a tier-2 group only path ends are precise —
		// deferred commits flush there — so mid-path ExitNext boundaries
		// are skipped. Syscall exits defer the callback until the service
		// routine has run, so the observed state includes its effects.
		if m.OnBoundary != nil && m.Trans.Opt.PreciseExceptions &&
			(m.curGroup.TierOf() < 2 || exit.Kind != vliw.ExitNext) &&
			exit.Kind != vliw.ExitSyscall {
			m.Stats.Exec = m.Exec.Stats
			m.OnBoundary(m.Stats.BaseInsts())
		}
		if m.tp != nil && exit.Kind != vliw.ExitSyscall {
			m.tp.boundary(m, v.EntryBase, m.Exec.Stats.BaseInsts-runStart)
		}

		switch exit.Kind {
		case vliw.ExitNext:
			if smcHit {
				if m.Exec.Journal != nil {
					// A deferred-commit group's VLIW boundary is not a
					// precise state: roll back to the group entry before
					// handing control to the dispatcher.
					m.rollbackToCheckpoint()
					return false, nil
				}
				// The next VLIW may belong to an invalidated translation:
				// continue at its precise entry via a fresh lookup.
				m.St.PC = exit.Next.EntryBase
				return false, nil
			}
			v = exit.Next
			continue

		case vliw.ExitEntry:
			m.Stats.IntraEntry++
			m.St.PC = exit.Target
			if smcHit {
				return false, nil
			}
			if m.Opt.Tier2 {
				// Every transfer returns to the dispatcher so the tiering
				// policy sees it: promotion counting, tier-2 preference,
				// and the per-group journal switch all live there.
				return false, nil
			}
			// A chained exit edge already names the target group: hop to
			// it without touching the dispatch maps. (Skipping the LRU
			// touch is benign — the hop is intra-page, so no other page's
			// recency can interleave before the next real dispatch.)
			if exit.Chain != nil && chainOK {
				m.Stats.ChainFollows++
				m.profFlushGroup() // attribute the group we are leaving
				m.curGroup = exit.Chain
				m.Exec.ResetPath()
				m.checkpoint(exit.Chain.Entry)
				v = exit.Chain.VLIWs[0]
				continue
			}
			// Stay inside the page: hop to the target group directly.
			if m.pages[m.St.PC&^(m.Trans.Opt.PageSize-1)] == nil {
				return false, nil
			}
			ng, err := m.groupAt(m.St.PC)
			if errors.Is(err, errTranslationUnavailable) {
				return false, m.interpret()
			}
			if err != nil {
				return false, err
			}
			// Patch the exit edge that got us here so the next trip skips
			// the dispatch above. The leaf — the last node the executor
			// visited, whose Exit is the one Exec just returned — is
			// recovered from the last step's recorded directions.
			if chainOK {
				if steps := m.Exec.Steps; len(steps) > 0 {
					leaf := vliw.StepLeaf(m.curGroup, steps[len(steps)-1])
					if leaf != nil && leaf.Exit.Kind == vliw.ExitEntry && leaf.Exit.Chain == nil {
						leaf.Exit.Chain = ng
						m.Stats.ChainPatches++
						if m.tp != nil {
							m.tp.chainPatched(m, ng.Entry)
						}
					}
				}
			}
			m.profFlushGroup() // after the patch above, which reads the step log
			m.curGroup = ng
			m.Exec.ResetPath()
			m.checkpoint(ng.Entry)
			v = ng.VLIWs[0]
			continue

		case vliw.ExitOffpage:
			// Constant-propagated indirect branches keep their original
			// type for Table 5.6 (exit.Via records the origin).
			switch exit.Via.Kind {
			case vliw.RLR:
				m.Stats.CrossLR++
			case vliw.RCTR:
				m.Stats.CrossCTR++
			default:
				m.Stats.CrossDirect++
			}
			m.St.PC = exit.Target
			return false, nil

		case vliw.ExitIndirect:
			tgt, _, _ := m.Exec.RF.Read(exit.Via)
			tgt &^= 3
			switch exit.Via.Kind {
			case vliw.RLR:
				m.crossIndirect(tgt, &m.Stats.CrossLR)
			case vliw.RCTR:
				m.crossIndirect(tgt, &m.Stats.CrossCTR)
			default:
				m.crossIndirect(tgt, &m.Stats.CrossLR)
			}
			m.St.PC = tgt
			return false, nil

		case vliw.ExitSyscall:
			m.Stats.Syscalls++
			m.Exec.RF.ToState(&m.St)
			m.St.PC = exit.Target
			err := m.Env.Syscall(&m.St, m.Mem)
			if errors.Is(err, interp.ErrHalt) {
				return true, nil
			}
			if err != nil {
				return false, err
			}
			m.Exec.RF.FromState(&m.St)
			m.Exec.ClearSpec()
			if m.OnBoundary != nil && m.Trans.Opt.PreciseExceptions {
				m.Stats.Exec = m.Exec.Stats
				m.OnBoundary(m.Stats.BaseInsts())
			}
			return false, nil

		case vliw.ExitInterp:
			m.St.PC = exit.Target
			return false, m.interpret()

		default:
			return false, fmt.Errorf("vmm: unexpected exit %v", exit)
		}
	}
}

// crossIndirect counts an indirect transfer by type when it crosses a page
// boundary (Table 5.6 counts cross-page branches).
func (m *Machine) crossIndirect(tgt uint32, counter *uint64) {
	if tgt&^(m.Trans.Opt.PageSize-1) != m.St.PC&^(m.Trans.Opt.PageSize-1) {
		*counter++
	} else {
		m.Stats.IntraEntry++
	}
}

// recover services a VLIW fault: the executor has rolled the register
// file back to the VLIW's entry — a precise instruction boundary — and
// the VMM resumes interpretively from there. Aliases (load-verify
// mismatches) re-execute silently; true exceptions are also located
// precisely with the §3.5 scan for reporting.
func (m *Machine) recover(f *vliw.Fault) (bool, error) {
	if m.curGroup != nil && m.curGroup.TierOf() >= 2 {
		// A tier-2 fault deoptimizes to the retained tier-1 translation
		// (tier2.go); it never retranslates or interprets inline.
		return m.deoptimize(f)
	}
	if !m.Trans.Opt.PreciseExceptions {
		// Appendix B-style recovery: without per-instruction commits, a
		// VLIW entry is not a precise boundary — but the group entry is
		// (every path exit flushes its deferred commits). Undo the
		// group's stores, restore the checkpointed registers, and
		// re-execute interpretively from the group entry.
		if f.Alias {
			m.Stats.AliasRecoveries++
			m.noteAlias()
		} else if !f.CodeMod {
			m.Stats.Exceptions++
		}
		if m.tp != nil {
			m.tp.exception(m, f, faultArg(f))
		}
		m.Exec.Journal.Undo(m.Mem)
		m.Exec.RF = m.ckptRF
		m.St.PC = m.ckptPC
		m.Exec.Stats.BaseInsts = m.ckptInsts
		m.Stats.Exec = m.Exec.Stats
		return false, m.interpret()
	}
	if f.CodeMod {
		// interpret() will re-execute the store; the protected-store hook
		// then marks the page dirty and the next runGroup retranslates.
	} else if f.Alias {
		m.Stats.AliasRecoveries++
		m.noteAlias()
		m.noteGroupTrouble()
	} else {
		m.Stats.Exceptions++
		m.noteGroupTrouble()
		if m.OnFault != nil {
			scanPC, _ := m.ScanFault(f)
			m.OnFault(f, scanPC)
		}
	}
	if m.tp != nil {
		m.tp.exception(m, f, faultArg(f))
	}
	m.St.PC = f.Resume
	return false, m.interpret()
}

// faultArg encodes a fault's class for the trace event stream.
func faultArg(f *vliw.Fault) uint64 {
	switch {
	case f.CodeMod:
		return 2
	case f.Alias:
		return 1
	default:
		return 0
	}
}

// noteGroupTrouble charges a recovery event against the current group's
// page for the quarantine policy.
func (m *Machine) noteGroupTrouble() {
	if m.curGroup != nil {
		m.noteTrouble(m.curGroup.Entry &^ (m.Trans.Opt.PageSize - 1))
	}
}

// aliasRetranslateThreshold is how many alias recoveries one group entry
// may cause before it is rebuilt without load speculation.
const aliasRetranslateThreshold = 4

// noteAlias implements the paper's adaptive remedy for alias-heavy code:
// after repeated load-verify failures, the offending entry point is
// retranslated with loads kept in store order.
func (m *Machine) noteAlias() {
	if !m.Opt.AdaptiveSpeculation || m.curGroup == nil {
		return
	}
	base := m.curGroup.Entry &^ (m.Trans.Opt.PageSize - 1)
	m.aliasCount[base]++
	if m.aliasCount[base] < aliasRetranslateThreshold || m.inhibit[base] {
		return
	}
	m.inhibit[base] = true
	m.Stats.AliasRetranslations++
	m.invalidate(base)
	m.Mem.SetReadOnly(base, true) // the code itself is unchanged
}

// interpret runs the base interpreter from the current PC until it
// reaches an existing translation entry or exhausts the budget (in which
// case a new entry is created at the stopping point). This is also how
// rfi-style re-entries avoid flooding pages with entry points (§3.4).
func (m *Machine) interpret() error {
	// While a worker owns a job, give it the CPU before interpreting on:
	// with as many workers as CPUs, a queued worker otherwise waits for
	// the machine goroutine to be preempted, and the page it would
	// translate stays interpretive for that long.
	if m.pipe != nil && len(m.pipe.inflight) > 0 {
		runtime.Gosched()
	}
	m.Exec.RF.ToState(&m.St)
	ip := interp.New(m.Mem, m.Env, m.St.PC)
	ip.St = m.St
	ip.DeliverDSI = m.Opt.GuestFaultVectors
	startPage := m.St.PC &^ (m.Trans.Opt.PageSize - 1)
	for steps := 0; steps < m.Opt.InterpBudget; steps++ {
		if m.hasEntry(ip.St.PC) && steps > 0 {
			break
		}
		// With the async pipeline on, a page crossing returns to the
		// dispatcher: hotness is counted per dispatched page, so gliding
		// across pages interpretively would starve the tiering policy of
		// exactly the touches it is supposed to count.
		if m.pipe != nil && steps > 0 && ip.St.PC&^(m.Trans.Opt.PageSize-1) != startPage {
			break
		}
		if err := ip.Step(); err != nil {
			m.Stats.InterpInsts += ip.InstCount
			m.St = ip.St
			if errors.Is(err, interp.ErrHalt) {
				m.Exec.RF.FromState(&m.St)
				return errHaltFromInterp
			}
			// A precise interpreter fault: deliver to the base OS.
			m.Exec.RF.FromState(&m.St)
			return m.deliver(err)
		}
	}
	m.Stats.InterpInsts += ip.InstCount
	m.St = ip.St
	m.Exec.RF.FromState(&m.St)
	m.Exec.ClearSpec()
	return nil
}

var errHaltFromInterp = errors.New("vmm: halted during interpretation")

// checkpoint records the group-entry state for imprecise-mode recovery.
func (m *Machine) checkpoint(entry uint32) {
	if m.Exec.Journal == nil {
		return
	}
	m.ckptRF = m.Exec.RF
	m.ckptPC = entry
	m.ckptInsts = m.Exec.Stats.BaseInsts
	m.Exec.Journal.Reset()
}

// rollbackToCheckpoint rewinds a deferred-commit group to its entry: the
// journaled stores are undone, the register file and PC return to the
// checkpoint, and the rolled-back instructions are uncounted. The result
// is the precise architected state the group was entered with.
func (m *Machine) rollbackToCheckpoint() {
	m.Exec.Journal.Undo(m.Mem)
	m.Exec.RF = m.ckptRF
	m.St.PC = m.ckptPC
	m.Exec.Stats.BaseInsts = m.ckptInsts
	m.Stats.Exec = m.Exec.Stats
	m.Exec.ClearSpec()
}

// drainDirty invalidates the translations of pages whose code was
// modified, reporting whether any invalidation happened.
func (m *Machine) drainDirty() bool {
	if len(m.dirty) == 0 {
		return false
	}
	m.Stats.Exec = m.Exec.Stats // noteTrouble timestamps in completed insts
	for b := range m.dirty {
		m.invalidate(b) // also bumps the page's in-flight epoch
		m.Stats.SMCInvalidations++
		if m.tp != nil {
			m.tp.smcInvalidate(m, b)
		}
		m.noteTrouble(b)
		delete(m.dirty, b)
	}
	return true
}

func (m *Machine) hasEntry(addr uint32) bool {
	pt, ok := m.pages[addr&^(m.Trans.Opt.PageSize-1)]
	if !ok {
		return false
	}
	_, ok = pt.Groups[addr]
	return ok
}

// deliver reports an exception to the base architecture operating system
// (§3.3): SRR0/SRR1/DAR are filled and control transfers to the handler
// vector. Our reproduction has no resident OS, so when no handler is
// configured the error is surfaced to the caller with precise state.
func (m *Machine) deliver(err error) error {
	var f *mem.Fault
	if errors.As(err, &f) {
		m.St.SRR0 = m.St.PC
		m.St.SRR1 = m.St.MSR
		m.St.DAR = f.Addr
		if f.Write {
			m.St.DSISR = 0x0200_0000
		} else {
			m.St.DSISR = 0x0000_0000
		}
	}
	return err
}
