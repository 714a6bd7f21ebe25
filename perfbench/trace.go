package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"daisy/internal/core"
	"daisy/internal/vmm"
)

// span is one timed interval around a call into a layer, recorded from
// the benchmark's own code. Spans of one job share its id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace origin
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // Go heap bytes allocated inside the span
	Parent int    `json:"parent"`      // index of the enclosing span, -1 for none
	Job    int    `json:"job"`         // job id, -1 outside jobs
}

func (s span) dur() int64 { return s.End - s.Start }

// stepClass sorts one StepGroup call by what the machine's counters say it
// did. The first matching class wins, in declaration order after exec.
type stepClass int

const (
	stepExec      stepClass = iota // none of the below: executor, dispatch, chaining
	stepTier2                      // tier-2 look-ahead profile or promotion
	stepPublish                    // async results installed
	stepTranslate                  // inline tier-1 translation
	stepTxcache                    // translation-store lookup
	stepInterp                     // interpretation by the VMM
	nStepClasses
)

var stepClassNames = [nStepClasses]string{"exec", "tier2", "publish", "translate", "txcache", "interp"}

// stepSum totals the StepGroup calls of one class in one job.
type stepSum struct {
	N     uint64 `json:"n"`
	Ns    int64  `json:"ns"`
	Insts uint64 `json:"insts"` // base instructions retired by these calls
}

// stepSnap holds the counters that classify a StepGroup call.
type stepSnap struct {
	insts, interp, groups, cache, publish, tier2 uint64
}

func snapshot(ma *vmm.Machine) stepSnap {
	s := &ma.Stats
	return stepSnap{
		insts:   s.BaseInsts(),
		interp:  s.InterpInsts,
		groups:  ma.Trans.Stats.Groups,
		cache:   s.CacheHits + s.CacheMisses,
		publish: s.AsyncPublishes + s.Tier2Publishes,
		tier2:   s.Tier2Promotions + s.Tier2ProfileInsts,
	}
}

func classify(before, after stepSnap) stepClass {
	switch {
	case after.tier2 != before.tier2:
		return stepTier2
	case after.publish != before.publish:
		return stepPublish
	case after.groups != before.groups:
		return stepTranslate
	case after.cache != before.cache:
		return stepTxcache
	case after.interp != before.interp:
		return stepInterp
	}
	return stepExec
}

// jobTrace is what a traced job leaves besides its spans: the machine's
// and translator's counters after the job, and its StepGroup time by class.
type jobTrace struct {
	ID    int                   `json:"job"`
	Prog  string                `json:"program"`
	Scale int                   `json:"scale"`
	Stats vmm.Stats             `json:"-"`
	Trans core.Stats            `json:"-"`
	Steps [nStepClasses]stepSum `json:"steps"`
}

// roundTrace is a fleet round's translation-store counters, summed over
// every handle the round opened.
type roundTrace struct {
	Decodes, Stores, BytesRaw, BytesStored uint64
}

// tracer keeps spans and per-job counters in memory; write saves them at
// the end of the run. A nil tracer records nothing, which is how the
// untraced run calls the same code.
type tracer struct {
	origin time.Time
	spans  []span
	jobs   []*jobTrace
	rounds []roundTrace
	alloc  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Job: job, Alloc: t.allocated(), Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = t.now()
	s.Alloc = t.allocated() - s.Alloc
}

// conservationTol is how far a parent span may differ from its children
// plus the gaps between them ("other"): the larger of 2µs and 0.5%.
func conservationTol(d int64) int64 { return max(2000, d/200) }

// conserve checks every parent span against its children: each child lies
// inside its parent, siblings do not overlap, and children plus other sum
// to the parent within conservationTol. StepGroup time summed per class
// must fit inside its vmm.run span the same way. It returns the share of
// job time that no child span covers.
func (t *tracer) conserve() (otherFrac float64, err error) {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	runs := make(map[int]span)
	var jobNs, otherNs int64
	for i, p := range t.spans {
		if p.Name == "vmm.run" {
			runs[p.Job] = p
		}
		ks := kids[i]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		var sum, other int64
		at := p.Start
		for _, k := range ks {
			if k.Start < at || k.End > p.End || k.End < k.Start {
				return 0, fmt.Errorf("span %s (job %d) escapes its parent %s or overlaps a sibling", k.Name, k.Job, p.Name)
			}
			other += k.Start - at
			sum += k.dur()
			at = k.End
		}
		other += p.End - at
		if d := sum + other - p.dur(); d > conservationTol(p.dur()) || -d > conservationTol(p.dur()) {
			return 0, fmt.Errorf("span %s (job %d): children %dns + other %dns != %dns", p.Name, p.Job, sum, other, p.dur())
		}
		if p.Name == "job" {
			jobNs += p.dur()
			otherNs += other
		}
	}
	for _, j := range t.jobs {
		var steps int64
		for _, s := range j.Steps {
			steps += s.Ns
		}
		if r, ok := runs[j.ID]; ok && steps > r.dur()+conservationTol(r.dur()) {
			return 0, fmt.Errorf("job %d: StepGroup time %dns exceeds its vmm.run span %dns", j.ID, steps, r.dur())
		}
	}
	if jobNs == 0 {
		return 0, fmt.Errorf("trace holds no job spans")
	}
	return float64(otherNs) / float64(jobNs), nil
}

// write saves the spans, then one line per job with its StepGroup sums, as
// JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, j := range t.jobs {
		if err := enc.Encode(j); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
