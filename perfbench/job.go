package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"daisy"
	"daisy/internal/asm"
	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/txcache"
	"daisy/internal/vmm"
)

// counts are a pass's exact totals over the jobs that passed the oracle.
// On the synchronous mixes they repeat for a seed.
type counts struct {
	Insts, Cycles, PagesBuilt, Promotions, WorkUnits uint64
}

// pass is one run of a suite's whole job list.
type pass struct {
	wall      time.Duration
	jobMs     []float64
	counts    counts
	alloc     uint64 // Go heap bytes allocated during the pass
	gcs       uint32
	gcPauseNs uint64
	attempted int
	failed    int
}

// failure identifies a job that failed the oracle or did not finish.
type failure struct {
	pass, index int
	job         job
	program     string
	err         error
}

// runPass runs the first count jobs of the suite's list once, in order,
// from one goroutine. Jobs of the fleet mix run in rounds of roundJobs;
// tmp holds each round's store until the round ends. Failed jobs are
// counted and passed to fail; an error means the pass could not go on.
func (s *suite) runPass(ctx context.Context, n, count int, tr *tracer, tmp string, fail func(failure)) (pass, error) {
	var p pass
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < count; {
		if err := ctx.Err(); err != nil {
			return p, err
		}
		if !s.mix.fleet {
			out, err := s.runJob(s.jobs[i], s.mix.options(nil), tr, n*len(s.jobs)+i, -1)
			p.add(out, err, s.failure(n, i), fail)
			i++
			continue
		}
		end := min(i+roundJobs, count)
		if err := s.runRound(n, i, end, tr, tmp, &p, fail); err != nil {
			return p, err
		}
		i = end
	}
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	p.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return p, nil
}

func (s *suite) failure(pass, i int) failure {
	return failure{pass: pass, index: i, job: s.jobs[i], program: s.progs[s.jobs[i].prog].w.Name}
}

func (p *pass) add(out jobOut, err error, f failure, fail func(failure)) {
	p.attempted++
	p.jobMs = append(p.jobMs, float64(out.wall)/1e6)
	if err != nil {
		p.failed++
		f.err = err
		fail(f)
		return
	}
	p.counts.Insts += out.st.BaseInsts()
	p.counts.Cycles += out.st.Cycles + out.st.InterpInsts
	p.counts.PagesBuilt += out.st.PagesBuilt
	p.counts.Promotions += out.st.Tier2Promotions
	p.counts.WorkUnits += out.trans.WorkUnits
}

// runRound runs fleet jobs [from, end), one block of the list, over one
// fresh on-disk store. It precompiles the programs of the round's first
// half into the store, then runs every job of the round on an async
// machine. The second half's programs start cold, so the async pipeline
// translates and publishes them and writes them through to the store.
// Every second job opens its own handle on the directory, so its loads
// decode the disk tier instead of reading the first handle's hot tier.
func (s *suite) runRound(n, from, end int, tr *tracer, tmp string, p *pass, fail func(failure)) error {
	dir := filepath.Join(tmp, fmt.Sprintf("round-%d-%d", n, from))
	defer os.RemoveAll(dir)
	rs := tr.begin("round", -1, -1)
	store, err := txcache.Open(dir)
	if err != nil {
		return err
	}
	stores := []*txcache.Store{store}
	for _, j := range s.jobs[from : from+(end-from+1)/2] {
		sp := tr.begin("txcache.precompile", rs, -1)
		err := precompile(s.progs[j.prog].prog, s.mix.options(store))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("precompile %s: %w", s.progs[j.prog].w.Name, err)
		}
	}
	for i := from; i < end; i++ {
		st := store
		if (i-from)%2 == 1 {
			sp := tr.begin("txcache.open", rs, -1)
			st, err = txcache.Open(dir)
			tr.end(sp)
			if err != nil {
				return err
			}
			stores = append(stores, st)
		}
		out, err := s.runJob(s.jobs[i], s.mix.options(st), tr, n*len(s.jobs)+i, rs)
		p.add(out, err, s.failure(n, i), fail)
	}
	tr.end(rs)
	if tr != nil {
		var r roundTrace
		for _, st := range stores {
			c := st.Stats()
			r.Decodes += c.Decodes
			r.Stores += c.Stores
			r.BytesRaw += c.BytesRaw
			r.BytesStored += c.BytesStored
		}
		tr.rounds = append(tr.rounds, r)
	}
	return nil
}

// precompile translates every page of prog into the machine's store.
func precompile(prog *asm.Program, opt vmm.Options) error {
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return err
	}
	ma, err := vmm.NewMachine(m, &interp.Env{}, opt)
	if err != nil {
		return err
	}
	defer ma.Close()
	_, err = daisy.Precompile(ma, prog)
	return err
}

// jobOut is what one job left for the metrics.
type jobOut struct {
	wall  time.Duration // mem.New to Close
	st    vmm.Stats
	trans core.Stats
}

// runJob runs one job on a fresh machine and checks it against its
// reference: the output must equal the model's and the retired
// instruction count the reference interpreter's.
func (s *suite) runJob(j job, opt vmm.Options, tr *tracer, id, parent int) (out jobOut, err error) {
	r := s.refs[j]
	if r.err != nil {
		return out, r.err
	}
	prog := s.progs[j.prog].prog
	env := &interp.Env{In: r.in}
	// A run past twice the reference length has run away.
	budget := 2*r.insts + 1<<16
	var steps [nStepClasses]stepSum

	start := time.Now()
	js := tr.begin("job", parent, id)
	err = machine(prog, env, opt, budget, tr, js, id, &out, &steps)
	tr.end(js)
	out.wall = time.Since(start)
	if tr != nil {
		tr.jobs = append(tr.jobs, &jobTrace{ID: id, Prog: s.progs[j.prog].w.Name, Scale: j.scale, Stats: out.st, Trans: out.trans, Steps: steps})
	}
	switch {
	case err != nil:
		return out, err
	case !bytes.Equal(env.Out, r.want):
		return out, fmt.Errorf("output differs from the model (%d bytes, want %d)", len(env.Out), len(r.want))
	case out.st.BaseInsts() != r.insts:
		return out, fmt.Errorf("retired %d instructions, the reference interpreter %d", out.st.BaseInsts(), r.insts)
	}
	return out, nil
}

// machine runs prog from mem.New to Close, recording a span around each
// layer call and, on a traced run, StepGroup time by class into steps.
func machine(prog *asm.Program, env *interp.Env, opt vmm.Options, budget uint64,
	tr *tracer, js, id int, out *jobOut, steps *[nStepClasses]stepSum) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	sp := tr.begin("mem.setup", js, id)
	m := mem.New(memSize)
	err = prog.Load(m)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("vmm.new", js, id)
	ma, err := vmm.NewMachine(m, env, opt)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer func() {
		sp := tr.begin("vmm.close", js, id)
		ma.Close()
		tr.end(sp)
		out.st, out.trans = ma.Stats, ma.Trans.Stats
	}()

	sp = tr.begin("vmm.run", js, id)
	defer tr.end(sp)
	ma.Start(prog.Entry(), budget)
	for {
		var before stepSnap
		var t0 int64
		if tr != nil {
			before = snapshot(ma)
			t0 = tr.now()
		}
		halted, err := ma.StepGroup()
		if tr != nil {
			d := tr.now() - t0
			after := snapshot(ma)
			c := &steps[classify(before, after)]
			c.N++
			c.Ns += d
			c.Insts += after.insts - before.insts
		}
		if err != nil || halted {
			return err
		}
	}
}
