package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
)

// layers is the traced run: set-up once, the untraced warm-up pass,
// untraced passes for half the run's seconds, traced passes for the other
// half, then the reference interpreter over the job list in a phase of its
// own. The per-layer metrics come from the traced passes; comparing their
// guest_mips with the untraced passes' gives the tracing overhead.
func (c runConfig) layers(ctx context.Context) (result, []line, error) {
	s, err := newSuite(c.mix, c.seed)
	if err != nil {
		return result{}, nil, err
	}
	warm, err := s.runPass(ctx, 0, warmJobs, nil, c.tmp, c.fail)
	if err != nil {
		return result{}, nil, err
	}
	plain, err := c.passes(ctx, s, 1, c.seconds/2, nil)
	if err != nil {
		return result{}, nil, err
	}
	tr := newTracer()
	traced, err := c.passes(ctx, s, 1+len(plain), c.seconds/2, tr)
	if err != nil {
		return result{}, nil, err
	}
	r := result{Attempted: warm.attempted, Failed: warm.failed}
	for _, p := range append(append([]pass(nil), plain...), traced...) {
		r.Attempted += p.attempted
		r.Failed += p.failed
	}

	n := 1 + len(plain) + len(traced)
	phase := tr.begin("interp", -1, -1)
	var interpInsts uint64
	for i, j := range s.jobs {
		ref := s.refs[j]
		insts, out, err := interpret(s.progs[j.prog].prog, ref.in, tr, phase, n*len(s.jobs)+i)
		r.Attempted++
		if err == nil && (insts != ref.insts || !bytes.Equal(out, ref.want)) {
			err = fmt.Errorf("reference interpreter retired %d instructions (set-up: %d) or changed its output", insts, ref.insts)
		}
		if err != nil {
			r.Failed++
			f := s.failure(n, i)
			f.err = err
			c.fail(f)
		}
		interpInsts += insts
	}
	tr.end(phase)

	otherFrac, err := tr.conserve()
	if err != nil {
		fmt.Fprintf(c.stderr, "FAIL workload=%s seed=%d: trace conservation: %v\n", c.mix.name, c.seed, err)
		r.Failed++
	}
	r.Correct = r.Failed == 0
	if err := tr.write(filepath.Join(c.out, fmt.Sprintf("spans-%s-%d.jsonl", c.mix.name, c.seed))); err != nil {
		return result{}, nil, err
	}
	return r, layerLines(tr, plain, traced, interpInsts, otherFrac), nil
}

// layerLines derives the per-layer metrics from a traced run.
func layerLines(tr *tracer, plain, traced []pass, interpInsts uint64, otherFrac float64) []line {
	type agg struct {
		ns    []float64
		total float64
		alloc float64
	}
	spans := make(map[string]*agg)
	newClose := make(map[int]float64) // vmm.new + vmm.close by job
	for _, s := range tr.spans {
		a := spans[s.Name]
		if a == nil {
			a = &agg{}
			spans[s.Name] = a
		}
		d := float64(s.dur())
		a.ns = append(a.ns, d)
		a.total += d
		a.alloc += float64(s.Alloc)
		if s.Name == "vmm.new" || s.Name == "vmm.close" {
			newClose[s.Job] += d
		}
	}
	get := func(name string) *agg {
		if a := spans[name]; a != nil {
			return a
		}
		return &agg{}
	}
	var nc []float64
	for _, d := range newClose {
		nc = append(nc, d)
	}

	var insts, interpI, steps, follows, t2disp, t2prom, t2deopt, pubs, enq, stale uint64
	var loads, aliases, vliws, rollbacks, hits, hotHits, misses uint64
	var tNanos, tInsts, tWork, tCode uint64
	var cls [nStepClasses]stepSum
	for _, j := range tr.jobs {
		st := &j.Stats
		insts += st.BaseInsts()
		interpI += st.InterpInsts
		follows += st.ChainFollows
		t2disp += st.Tier2Dispatches
		t2prom += st.Tier2Promotions
		t2deopt += st.Tier2Deopts
		pubs += st.AsyncPublishes
		enq += st.AsyncEnqueues
		stale += st.StaleTranslationsDropped
		loads += st.Exec.Loads
		aliases += st.Exec.Aliases
		vliws += st.Exec.VLIWs
		rollbacks += st.Exec.Rollbacks
		hits += st.CacheHits
		hotHits += st.CacheHotHits
		misses += st.CacheMisses
		tNanos += j.Trans.Nanos
		tInsts += j.Trans.BaseInsts
		tWork += j.Trans.WorkUnits
		tCode += j.Trans.CodeBytes
		for c, s := range j.Steps {
			cls[c].N += s.N
			cls[c].Ns += s.Ns
			cls[c].Insts += s.Insts
			steps += s.N
		}
	}
	var decodes, stores, raw, stored uint64
	for _, r := range tr.rounds {
		decodes += r.Decodes
		stores += r.Stores
		raw += r.BytesRaw
		stored += r.BytesStored
	}
	var gcs, pauseNs float64
	var plainMips, tracedMips []float64
	for _, p := range traced {
		gcs += float64(p.gcs)
		pauseNs += float64(p.gcPauseNs)
		tracedMips = append(tracedMips, ratio(float64(p.counts.Insts), p.wall.Seconds()))
	}
	for _, p := range plain {
		plainMips = append(plainMips, ratio(float64(p.counts.Insts), p.wall.Seconds()))
	}

	jobs := len(tr.jobs)
	fj := float64(jobs)
	rounds := len(tr.rounds)
	fr := float64(rounds)
	jobNs := get("job").total
	runNs := get("vmm.run").total
	f := func(v uint64) float64 { return float64(v) }
	return []line{
		{"mem.setup_ms_p50", median(get("mem.setup").ns) / 1e6, "ms", len(get("mem.setup").ns), true},
		{"mem.setup_alloc_mb", ratio(get("mem.setup").alloc, fj) / 1e6, "MB", jobs, true},
		{"mem.setup_share", ratio(get("mem.setup").total, jobNs), "frac", jobs, true},
		{"vmm.new_ms_p50", median(nc) / 1e6, "ms", len(nc), true},
		{"vmm.run_ms_p50", median(get("vmm.run").ns) / 1e6, "ms", len(get("vmm.run").ns), true},
		{"vmm.run_alloc_mb", ratio(get("vmm.run").alloc, fj) / 1e6, "MB", jobs, true},
		{"vmm.exec_ns_per_inst", ratio(float64(cls[stepExec].Ns), f(cls[stepExec].Insts)), "ns/inst", int(cls[stepExec].N), true},
		{"vmm.exec_share", ratio(float64(cls[stepExec].Ns), jobNs), "frac", jobs, true},
		{"vmm.translate_step_ms", ratio(float64(cls[stepTranslate].Ns), fj) / 1e6, "ms", int(cls[stepTranslate].N), true},
		{"vmm.interp_frac", ratio(f(interpI), f(insts)), "frac", jobs, true},
		{"vmm.steps_per_kinst", ratio(1000*f(steps), f(insts)), "1/kinst", int(steps), true},
		{"vmm.chain_follow_frac", ratio(f(follows), f(follows+steps)), "frac", int(follows + steps), true},
		{"vmm.tier2_dispatch_frac", ratio(f(t2disp), f(follows+steps)), "frac", int(follows + steps), true},
		{"vmm.tier2_promotions_per_job", ratio(f(t2prom), fj), "count", jobs, true},
		{"vmm.tier2_deopts_per_kdispatch", ratio(1000*f(t2deopt), f(t2disp)), "1/kdisp", int(t2disp), true},
		{"vmm.tier2_profile_frac", ratio(float64(cls[stepTier2].Ns), runNs), "frac", int(cls[stepTier2].N), true},
		{"vmm.async_publish_frac", ratio(f(pubs), f(enq)), "frac", int(enq), true},
		{"vmm.async_stale_drops", ratio(f(stale), fj), "count", jobs, true},
		{"vliw.alias_frac", ratio(f(aliases), f(loads)), "frac", int(loads), true},
		{"vliw.rollback_frac", ratio(f(rollbacks), f(vliws)), "frac", int(vliws), true},
		{"core.translate_ms_per_job", ratio(f(tNanos), fj) / 1e6, "ms", jobs, true},
		{"core.translate_ns_per_inst", ratio(f(tNanos), f(tInsts)), "ns/inst", int(tInsts), true},
		{"core.translate_share", ratio(f(tNanos), jobNs), "frac", jobs, true},
		{"core.work_units_per_inst", ratio(f(tWork), f(tInsts)), "unit/inst", int(tInsts), true},
		{"core.code_bytes_per_inst", ratio(f(tCode), f(tInsts)), "B/inst", int(tInsts), true},
		{"txcache.precompile_ms", ratio(get("txcache.precompile").total, fr) / 1e6, "ms", rounds, true},
		{"txcache.hit_frac", ratio(f(hits), f(hits+misses)), "frac", int(hits + misses), true},
		{"txcache.hot_hit_frac", ratio(f(hotHits), f(hits)), "frac", int(hits), true},
		{"txcache.decodes_per_round", ratio(f(decodes), fr), "count", rounds, true},
		{"txcache.stores_per_round", ratio(f(stores), fr), "count", rounds, true},
		{"txcache.compress_ratio", ratio(f(stored), f(raw)), "ratio", rounds, true},
		{"interp.ns_per_inst", ratio(get("interp.ref").total, f(interpInsts)), "ns/inst", len(get("interp.ref").ns), true},
		{"go.gc_per_job", ratio(gcs, fj), "count", jobs, true},
		{"go.gc_pause_ms_per_job", ratio(pauseNs, fj) / 1e6, "ms", jobs, true},
		{"trace.other_frac", otherFrac, "frac", jobs, true},
		{"trace_overhead_frac", 1 - ratio(median(tracedMips), median(plainMips)), "frac", len(tracedMips), true},
	}
}
