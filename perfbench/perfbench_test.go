package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testJobs is how much of a job list the tests run: enough jobs to touch
// most programs, few enough to keep the tests quick.
const testJobs = 24

func testSuite(t *testing.T, name string, seed int64) *suite {
	t.Helper()
	m, err := mixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSuite(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func noFail(t *testing.T) func(failure) {
	return func(f failure) { t.Errorf("job %d (%s, scale %d) failed: %v", f.index, f.program, f.job.scale, f.err) }
}

// On the synchronous mixes a seed fixes the work exactly: two runs of one
// seed retire the same instructions in the same cycles, build the same
// pages, promote the same pages and spend the same translation work.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"steady", "cold", "tier2"} {
		t.Run(name, func(t *testing.T) {
			var got [2]counts
			for i := range got {
				s := testSuite(t, name, defaultSeed)
				p, err := s.runPass(context.Background(), 0, testJobs, nil, t.TempDir(), noFail(t))
				if err != nil {
					t.Fatal(err)
				}
				got[i] = p.counts
			}
			if got[0] != got[1] {
				t.Fatalf("counts differ between two runs of seed %d: %+v vs %+v", defaultSeed, got[0], got[1])
			}
			c := got[0]
			if c.Insts == 0 || c.Cycles == 0 || c.PagesBuilt == 0 || c.WorkUnits == 0 {
				t.Fatalf("a count never moved: %+v", c)
			}
			if (c.Promotions > 0) != (name == "tier2") {
				t.Fatalf("%d tier-2 promotions on %s", c.Promotions, name)
			}
		})
	}
}

func TestJobLists(t *testing.T) {
	steady := testSuite(t, "steady", 5)
	if again := testSuite(t, "steady", 5); !equalJobs(steady.jobs, again.jobs) {
		t.Fatal("one seed drew two job lists")
	}
	if tier2 := testSuite(t, "tier2", 5); !equalJobs(steady.jobs, tier2.jobs) {
		t.Fatal("steady and tier2 draw different job lists for one seed")
	}
	if other := testSuite(t, "steady", 6); equalJobs(steady.jobs, other.jobs) {
		t.Fatal("two seeds drew the same job list")
	}
	for _, m := range mixes {
		seen := make(map[job]int)
		extra := make(map[int]int)
		for _, j := range m.jobs(5, 8) {
			if j.scale < m.minScale || j.scale > m.maxScale {
				t.Fatalf("%s: job %+v outside the scale range", m.name, j)
			}
			if seen[j]++; seen[j] > m.reps {
				extra[j.prog]++
			}
		}
		if len(seen) != 8*(m.maxScale-m.minScale+1) || len(extra) != 8 {
			t.Fatalf("%s: %d distinct jobs, extra jobs by program %v", m.name, len(seen), extra)
		}
		for p, n := range extra {
			if n != 1 {
				t.Fatalf("%s: program %d has %d extra jobs", m.name, p, n)
			}
		}
		js := m.jobs(5, 8)
		for b := 0; b < len(js); b += 8 {
			progs := make(map[int]bool)
			for _, j := range js[b : b+8] {
				progs[j.prog] = true
			}
			if len(progs) != 8 {
				t.Fatalf("%s: block at %d runs %d programs, want all 8", m.name, b, len(progs))
			}
		}
	}
}

func equalJobs(a, b []job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A traced pass conserves time, and the check fails on a trace whose
// child span escapes its parent.
func TestConservation(t *testing.T) {
	s := testSuite(t, "cold", defaultSeed)
	tr := newTracer()
	if _, err := s.runPass(context.Background(), 0, testJobs, tr, t.TempDir(), noFail(t)); err != nil {
		t.Fatal(err)
	}
	other, err := tr.conserve()
	if err != nil {
		t.Fatal(err)
	}
	if other < 0 || other > 0.05 {
		t.Fatalf("other covers %.3f of job time", other)
	}
	for i, sp := range tr.spans {
		if sp.Name == "vmm.run" {
			tr.spans[i].End = tr.spans[sp.Parent].End + 1e6
			break
		}
	}
	if _, err := tr.conserve(); err == nil {
		t.Fatal("a span ending after its job passed the conservation check")
	}
}

// A fleet round reads and writes its store through fresh handles, and
// removes the store's directory when it ends.
func TestFleetRound(t *testing.T) {
	s := testSuite(t, "fleet", defaultSeed)
	tmp := t.TempDir()
	tr := newTracer()
	var p pass
	if err := s.runRound(0, 0, roundJobs, tr, tmp, &p, noFail(t)); err != nil {
		t.Fatal(err)
	}
	if p.attempted != roundJobs || p.failed != 0 {
		t.Fatalf("round ran %d jobs, %d failed", p.attempted, p.failed)
	}
	r := tr.rounds[0]
	if r.Decodes == 0 || r.Stores == 0 {
		t.Fatalf("round did not exercise the store: %+v", r)
	}
	var hits uint64
	for _, j := range tr.jobs {
		hits += j.Stats.CacheHits
	}
	if hits == 0 {
		t.Fatal("no job loaded a translation from the store")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("round left %d entries in its temp dir", len(left))
	}
}

// The result line carries exactly the metrics BENCHMARK.json names: the
// end-to-end ones untraced, the per-layer ones traced.
func TestResultMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]named{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "cold", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace %s: correct=%v attempted=%d failed=%d", trace, r.Correct, r.Attempted, r.Failed)
		}
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s (%s) missing or with another unit: %+v", trace, m.Name, m.Unit, got)
			}
		}
		if len(r.Metrics) != len(want) {
			var have []string
			for k := range r.Metrics {
				have = append(have, k)
			}
			sort.Strings(have)
			sort.Strings(names)
			t.Errorf("trace %s: result has %v, BENCHMARK.json names %v", trace, have, names)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cold", "--trace", "2"},
		{"--workload", "cold", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
