// Command perfbench is the repository's host-time benchmark. One
// goroutine submits guest programs ("jobs") one after another, each on a
// fresh DAISY machine, and the next job starts when the previous one
// halts (a closed loop with one client). Every job is checked against an
// independent oracle: its output must equal the workload's Go model and
// its retired instruction count the reference interpreter's.
//
// Usage (from the root of the source tree; run.sh builds and runs it):
//
//	perfbench --workload steady|cold|tier2|fleet|all [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// again with spans recorded around every layer call and prints the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md lists what
// each metric measures and which workload it should move on.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "job mix: steady, cold, tier2, fleet, or all")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("job-list seed (held-out seed: %d)", heldOutSeed))
	seconds := fl.Int("seconds", 10, "measured seconds per workload (whole passes, at least one)")
	trace := fl.Int("trace", 0, "1: traced run that prints the per-layer metrics")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and fleet stores")
	rev := fl.String("rev", "unknown", "source revision to record with the result")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var ms []mix
	if *name == "all" {
		ms = mixes
	} else {
		m, err := mixByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		ms = []mix{m}
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmp := filepath.Join(*out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(stdout, "env: rev=%s source=%s go=%s cpu=%q nproc=%d gomaxprocs=%d seed=%d seconds=%d trace=%d\n",
		*rev, sourceDigest("."), runtime.Version(), cpuModel(), nproc, runtime.GOMAXPROCS(0), *seed, *seconds, *trace)

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, m := range ms {
		cfg := runConfig{mix: m, seed: *seed, seconds: time.Duration(*seconds) * time.Second, tmp: tmp, out: *out, stderr: stderr}
		var r result
		var lines []line
		var err error
		if *trace == 1 {
			r, lines, err = cfg.layers(ctx)
		} else {
			r, lines, err = cfg.endToEnd(ctx)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", m.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %d jobs attempted, %d failed\n", m.name, r.Attempted, r.Failed)
		for _, l := range lines {
			fmt.Fprintf(stdout, "  %-34s %14.6g %-9s n=%d\n", l.name, l.value, l.unit, l.n)
			if !l.report {
				continue
			}
			key := l.name
			if len(ms) > 1 {
				key = m.name + "." + l.name
			}
			total.Metrics[key] = metric{Value: l.value, Unit: l.unit}
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line is one printed metric with its sample count. Lines with report
// unset are printed for people and left out of the result line.
type line struct {
	name   string
	value  float64
	unit   string
	n      int
	report bool
}

// runConfig is one workload's run.
type runConfig struct {
	mix      mix
	seed     int64
	seconds  time.Duration
	tmp, out string
	stderr   io.Writer
}

func (c runConfig) fail(f failure) {
	fmt.Fprintf(c.stderr, "FAIL workload=%s seed=%d pass=%d job=%d program=%s scale=%d: %v\n",
		c.mix.name, c.seed, f.pass, f.index, f.program, f.job.scale, f.err)
}

// passes runs whole passes of s from pass number first on until d has
// passed and at least minJobs jobs have run.
func (c runConfig) passes(ctx context.Context, s *suite, first int, d time.Duration, tr *tracer) ([]pass, error) {
	var ps []pass
	deadline := time.Now().Add(d)
	for len(ps)*len(s.jobs) < minJobs || time.Now().Before(deadline) {
		p, err := s.runPass(ctx, first+len(ps), len(s.jobs), tr, c.tmp, c.fail)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// endToEnd is the untraced run: set-up (several times), an untimed
// warm-up pass over the first warmJobs jobs, then timed passes over the
// whole list for the run's seconds.
func (c runConfig) endToEnd(ctx context.Context) (result, []line, error) {
	s, setups, err := setupTimes(c.mix, c.seed)
	if err != nil {
		return result{}, nil, err
	}
	warm, err := s.runPass(ctx, 0, warmJobs, nil, c.tmp, c.fail)
	if err != nil {
		return result{}, nil, err
	}
	ps, err := c.passes(ctx, s, 1, c.seconds, nil)
	if err != nil {
		return result{}, nil, err
	}
	r := result{Attempted: warm.attempted, Failed: warm.failed}
	var mips, jobMs []float64
	var insts, cycles, alloc float64
	for _, p := range ps {
		r.Attempted += p.attempted
		r.Failed += p.failed
		mips = append(mips, ratio(float64(p.counts.Insts), p.wall.Seconds())/1e6)
		jobMs = append(jobMs, p.jobMs...)
		insts += float64(p.counts.Insts)
		cycles += float64(p.counts.Cycles)
		alloc += float64(p.alloc)
	}
	r.Correct = r.Failed == 0
	fmt.Fprintf(c.stderr, "%s: guest_mips by pass %.4g\n", c.mix.name, mips)
	return r, []line{
		{"guest_mips", median(mips), "Minst/s", len(mips), true},
		{"run_ms_p50", quantile(jobMs, 0.5), "ms", len(jobMs), true},
		{"run_ms_p90", quantile(jobMs, 0.9), "ms", len(jobMs), true},
		{"sim_cycles_per_inst", ratio(cycles, insts), "cycle/inst", len(jobMs), true},
		{"alloc_mb_per_job", alloc / float64(len(jobMs)) / 1e6, "MB", len(jobMs), true},
		{"failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), "frac", r.Attempted, false},
		{"setup_s", median(setups), "s", len(setups), true},
	}, nil
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the exact code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	for _, p := range paths { // WalkDir visits in lexical order
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}

// cpuModel returns the first processor's model name, or the architecture.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
