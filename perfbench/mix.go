package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/txcache"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

const (
	// memSize is the guest physical memory of every job, the size the
	// daisy-run tool uses by default.
	memSize = 8 << 20

	// minJobs is the fewest jobs a run times, so that at least ten lie
	// beyond its p90.
	minJobs = 100

	// roundJobs is how many fleet jobs share one translation store: one
	// block of the job list, a job of each program.
	roundJobs = 8

	// warmJobs is the length of the untimed warm-up pass: the head of the
	// list, two fleet rounds. It lets the Go heap grow to its working size
	// before timing starts without spending a whole pass of the longest
	// mixes on it.
	warmJobs = 2 * roundJobs

	// A run builds its suite minSetups to maxSetups times (see setupTimes).
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second

	defaultSeed = 1
	// heldOutSeed is kept out of every tuning run; a claimed gain must
	// also hold on it.
	heldOutSeed = 1997
)

// job is one guest program run: a workload program at an input scale.
type job struct {
	prog, scale int
}

// mix is one named workload: how its job list is drawn and how each job's
// machine is configured.
type mix struct {
	name string
	// list salts the job-list order. Mixes with the same salt and jobs
	// run them in the same order for a seed, so steady and tier2 compare
	// job for job.
	list               int64
	minScale, maxScale int
	reps               int // times each (program, scale) pair is in the list
	tier2              bool
	// fleet runs jobs in rounds over a fresh on-disk store that each
	// round first fills with Precompile, on async machines.
	fleet bool
}

var mixes = []mix{
	{name: "steady", list: 1, minScale: 8, maxScale: 16, reps: 1},
	{name: "cold", list: 2, minScale: 1, maxScale: 2, reps: 8},
	{name: "tier2", list: 1, minScale: 8, maxScale: 16, reps: 1, tier2: true},
	{name: "fleet", list: 3, minScale: 1, maxScale: 2, reps: 8, fleet: true},
}

func mixByName(name string) (mix, error) {
	for _, m := range mixes {
		if m.name == name {
			return m, nil
		}
	}
	return mix{}, fmt.Errorf("unknown workload %q (want steady, cold, tier2, fleet or all)", name)
}

// jobs draws the mix's job list for a seed: every (program, scale) pair
// of the mix's range reps times, plus one job of each program at a seeded
// scale. The list is a run of blocks that each hold one job of every
// program. A seeded split of the programs into two halves alternates
// between the front and the back of the blocks, each half in seeded order:
// a fleet round (one block) precompiles its front half, so every program
// is precompiled in every second round and starts cold in the others.
// Two seeds thus run nearly the same work. Drawing every scale and order
// at random instead moved run_ms_p90 by more than the host's own noise
// from one seed to the next, and unbalanced fleet rounds moved guest_mips
// by a quarter.
func (m mix) jobs(seed int64, nprogs int) []job {
	rng := rand.New(rand.NewSource(seed*1_000_003 + m.list))
	per := make([][]job, nprogs)
	for p := range per {
		for sc := m.minScale; sc <= m.maxScale; sc++ {
			for r := 0; r < m.reps; r++ {
				per[p] = append(per[p], job{prog: p, scale: sc})
			}
		}
		per[p] = append(per[p], job{prog: p, scale: m.minScale + rng.Intn(m.maxScale-m.minScale+1)})
		rng.Shuffle(len(per[p]), func(i, k int) { per[p][i], per[p][k] = per[p][k], per[p][i] })
	}
	perm := rng.Perm(nprogs)
	halves := [2][]int{perm[:nprogs/2], perm[nprogs/2:]}
	var js []job
	for b := range per[0] {
		for _, h := range []int{b % 2, 1 - b%2} {
			for _, i := range rng.Perm(len(halves[h])) {
				p := halves[h][i]
				js = append(js, per[p][b])
			}
		}
	}
	return js
}

// options returns the machine options of one job of the mix: the defaults,
// plus tier-2, or the async pipeline over store.
func (m mix) options(store *txcache.Store) vmm.Options {
	opt := vmm.DefaultOptions()
	opt.Tier2 = m.tier2
	if m.fleet {
		opt.AsyncTranslate = true
		opt.AsyncWorkers = runtime.GOMAXPROCS(0)
		opt.Cache = store
	}
	return opt
}

// program is one assembled workload.
type program struct {
	w    workload.Workload
	prog *asm.Program
}

// ref is the oracle for one (program, scale) pair: the input the machine
// receives, the output the independent Go model expects, and the retired
// instruction count of the reference interpreter.
type ref struct {
	in, want []byte
	insts    uint64
	err      error // the reference itself failed; every job on it fails
}

// suite is a mix's set-up: programs, the seeded job list and the
// references, all built before any timing starts.
type suite struct {
	mix   mix
	progs []program
	jobs  []job
	refs  map[job]*ref
}

// newSuite builds the programs, draws the job list and computes each
// distinct job's reference.
func newSuite(m mix, seed int64) (*suite, error) {
	s := &suite{mix: m, refs: make(map[job]*ref)}
	for _, w := range workload.All() {
		p, err := w.Build()
		if err != nil {
			return nil, err
		}
		s.progs = append(s.progs, program{w: w, prog: p})
	}
	s.jobs = m.jobs(seed, len(s.progs))
	for _, j := range s.jobs {
		if s.refs[j] == nil {
			s.refs[j] = s.reference(j)
		}
	}
	return s, nil
}

func (s *suite) reference(j job) *ref {
	p := s.progs[j.prog]
	r := &ref{in: p.w.Input(j.scale)}
	r.want = p.w.Model(r.in)
	insts, out, err := interpret(p.prog, r.in, nil, -1, -1)
	switch {
	case err != nil:
		r.err = fmt.Errorf("reference interpreter: %w", err)
	case !bytes.Equal(out, r.want):
		r.err = errors.New("reference interpreter output differs from the model")
	}
	r.insts = insts
	return r
}

// interpret runs prog on in under the reference interpreter and returns
// its retired instruction count and output. A traced call records an
// interp.ref span around interp.New and Run.
func interpret(prog *asm.Program, in []byte, tr *tracer, parent, id int) (uint64, []byte, error) {
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return 0, nil, err
	}
	env := &interp.Env{In: in}
	sp := tr.begin("interp.ref", parent, id)
	ip := interp.New(m, env, prog.Entry())
	err := ip.Run(0)
	tr.end(sp)
	if !errors.Is(err, interp.ErrHalt) {
		return ip.InstCount, nil, err
	}
	return ip.InstCount, env.Out, nil
}

// setupTimes builds the suite at least minSetups times, and again while
// the builds so far took less than setupBudget (at most maxSetups), so a
// cheap set-up still yields a steady median. It returns the last suite
// with the wall time of each build.
func setupTimes(m mix, seed int64) (*suite, []float64, error) {
	var s *suite
	var secs []float64
	var total time.Duration
	for len(secs) < minSetups || (total < setupBudget && len(secs) < maxSetups) {
		t0 := time.Now()
		var err error
		if s, err = newSuite(m, seed); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		total += d
		secs = append(secs, d.Seconds())
	}
	return s, secs, nil
}
