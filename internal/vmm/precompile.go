package vmm

// Whole-binary pre-translation ("AOT warm-up"). A fleet bringing up many
// machines over one shared persistent cache pays the full translation
// cost once per page — but still serially, on whichever machine touches
// the page first, interleaved with interpretation while the hot-threshold
// dues are paid. Precompile removes even that: it scans a span of the
// loaded image and translates every page in one parallel pass over a
// transient worker pool, populating the persistent cache before any guest
// instruction runs.
//
// The publish-safety argument is by construction: precompilation shares
// the async pipeline's worker primitives (private snapshots, private
// translators, panic isolation) but NEVER installs a result into the
// machine — the only sink is the content-addressed cache, and the only
// reader of that cache re-keys every page by its current bytes at install
// time (installCached). A precompiled translation can therefore never
// reach execution on a page whose bytes have changed: the digest in the
// key would differ and the load would miss. The epoch/digest staleness
// re-check before each Save is an economy, not a correctness requirement
// — it avoids writing entries a concurrent invalidation already made
// unreachable.

import (
	"errors"
	"fmt"
	"runtime"
)

// PrecompileReport summarizes one pre-translation pass.
type PrecompileReport struct {
	Pages         int // distinct pages considered
	AlreadyCached int // pages the cache already held (skipped unread)
	Skipped       int // pages the cache may not serve (cacheUsable said no)
	Translated    int // pages translated by the pass
	Stored        int // translations written to the cache
	Failed        int // pages whose translation errored (data pages, faults)
	Stale         int // results dropped by the epoch/digest re-check
	SaveErrors    int // cache writes that failed (store counts the reasons)
}

func (r PrecompileReport) String() string {
	return fmt.Sprintf("precompile: %d pages: %d cached, %d translated, %d stored, %d failed, %d stale, %d skipped, %d save-errors",
		r.Pages, r.AlreadyCached, r.Translated, r.Stored, r.Failed, r.Stale, r.Skipped, r.SaveErrors)
}

// ErrNoCache is returned by Precompile on a machine without a persistent
// cache: the pass has no sink, so running it would only burn CPU.
var ErrNoCache = errors.New("vmm: precompile needs Options.Cache")

// Precompile translates every page named by entries (each entry address
// names the page containing it and is used as that page's translation
// entry point) and writes the results to the persistent cache. It runs on
// the machine goroutine — like every translation entry point — and must
// not race Run; pages already cached are skipped without being read.
//
// Failures are per-page and final for the pass: a page that does not
// translate (a data page, a planted fault) is counted and skipped — it
// will be handled by the normal interpret/translate path if it is ever
// actually executed. Precompile never quarantines, never retries, and
// never touches the machine's page table, hotness or retry state.
func (m *Machine) Precompile(entries []uint32) (PrecompileReport, error) {
	var rep PrecompileReport
	if m.Opt.Cache == nil {
		return rep, ErrNoCache
	}
	ps := m.Trans.Opt.PageSize

	// Dedupe by page, preserving first-seen entry for each.
	seen := make(map[uint32]bool, len(entries))
	jobs := make([]txJob, 0, len(entries))
	for _, entry := range entries {
		base := entry &^ (ps - 1)
		if seen[base] {
			continue
		}
		seen[base] = true
		rep.Pages++
		if !m.cacheUsable(base) {
			rep.Skipped++
			continue
		}
		key, ok := m.cacheKey(base)
		if !ok {
			rep.Skipped++
			continue
		}
		if m.Opt.Cache.Has(key) {
			rep.AlreadyCached++
			continue
		}
		job, ok := m.newJob(base, entry)
		if !ok {
			rep.Skipped++
			continue
		}
		jobs = append(jobs, job)
	}
	if len(jobs) == 0 {
		return rep, nil
	}

	// A transient pool over the async pipeline's worker primitives. It is
	// independent of m.pipe (which may not exist, or may be busy with a
	// live machine's jobs): precompilation must not compete with demand
	// translation for queue slots, and a synchronous machine can precompile
	// too.
	workers := m.Opt.AsyncWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	p := &txPipeline{
		jobs:    make(chan txJob, len(jobs)),
		done:    make(chan txResult, len(jobs)),
		opt:     m.Opt.Trans,
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		p.spawnWorker()
	}
	for _, j := range jobs {
		p.jobs <- j
	}
	close(p.jobs)
	p.wg.Wait()
	close(p.done)

	before := m.Stats
	for r := range p.done {
		if r.err != nil {
			rep.Failed++
			var pf *panicFault
			if errors.As(r.err, &pf) {
				m.Stats.TranslatorPanics++
			}
			continue
		}
		rep.Translated++
		// The same staleness rule publish applies. (Content addressing
		// would keep a stale entry unreachable anyway; dropping it keeps
		// the cache clean.)
		if m.stale(r.job) {
			m.Stats.StaleTranslationsDropped++
			continue
		}
		m.Trans.Stats = m.Trans.Stats.Add(r.stats)
		m.cacheStore(r.pt)
	}
	rep.Stale = int(m.Stats.StaleTranslationsDropped - before.StaleTranslationsDropped)
	rep.Stored = int(m.Stats.CacheStores - before.CacheStores)
	rep.SaveErrors = int(m.Stats.CacheSaveErrors - before.CacheSaveErrors)
	return rep, nil
}
