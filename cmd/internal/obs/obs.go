// Package obs is the shared observability flag plumbing for the daisy
// command-line tools: one -telemetry switch plus exporter/profiling flags,
// so daisy-run, daisy-chaos and daisy-experiments expose the same surface.
// -top with -snapshot-every redraws the top screen live.
package obs

import (
	"flag"
	"fmt"
	"os"
	"time"

	"daisy/internal/telemetry"
)

// Flags holds the registered observability flags.
type Flags struct {
	Telemetry     bool
	Sample        int
	TraceCap      int
	PromFile      string
	JSONLFile     string
	ChromeFile    string
	ProfileFile   string
	Spans         bool
	Top           bool
	CPUProfile    string
	MemProfile    string
	SnapshotEvery time.Duration
}

// Register installs the flags on the default flag set.
func Register() *Flags {
	f := &Flags{}
	def := telemetry.DefaultOptions()
	flag.BoolVar(&f.Telemetry, "telemetry", false, "attach the telemetry layer (metrics + event trace)")
	flag.IntVar(&f.Sample, "sample", def.SampleEvery, "telemetry: sample 1 in N dispatches")
	flag.IntVar(&f.TraceCap, "trace-cap", def.TraceCap, "telemetry: event ring capacity (0 disables tracing)")
	flag.StringVar(&f.PromFile, "prom", "", "telemetry: write Prometheus text metrics to FILE at exit")
	flag.StringVar(&f.JSONLFile, "trace-jsonl", "", "telemetry: write the event trace as JSONL to FILE at exit")
	flag.StringVar(&f.ChromeFile, "trace-chrome", "", "telemetry: write a Chrome trace_event file to FILE at exit")
	flag.StringVar(&f.ProfileFile, "profile", "", "telemetry: write a guest pprof profile (base-PC attribution) to FILE at exit")
	flag.BoolVar(&f.Spans, "spans", false, "telemetry: trace page-lifecycle spans (begin/end events + latency histograms)")
	flag.BoolVar(&f.Top, "top", false, "telemetry: print the top screen to stderr at exit (redrawn live with -snapshot-every)")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to FILE")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to FILE at exit")
	flag.DurationVar(&f.SnapshotEvery, "snapshot-every", 0, "telemetry: print a snapshot line (with -top: redraw the top screen) to stderr every interval")
	return f
}

// Enabled reports whether any flag implies a telemetry instance.
func (f *Flags) Enabled() bool {
	return f.Telemetry || f.PromFile != "" || f.JSONLFile != "" ||
		f.ChromeFile != "" || f.ProfileFile != "" || f.Spans ||
		f.Top || f.SnapshotEvery > 0
}

// Setup builds the telemetry instance (nil if not enabled) and starts
// profiling / periodic snapshots. The returned finish func stops them and
// writes every requested export; call it exactly once, after the run.
func (f *Flags) Setup() (tel *telemetry.Telemetry, finish func() error, err error) {
	var stops []func()
	if f.CPUProfile != "" {
		stop, err := telemetry.StartCPUProfile(f.CPUProfile)
		if err != nil {
			return nil, nil, err
		}
		stops = append(stops, stop)
	}
	start := time.Now()
	if f.Enabled() {
		tel = telemetry.New(telemetry.Options{
			SampleEvery: f.Sample,
			TraceCap:    f.TraceCap,
			Profile:     f.ProfileFile != "",
			Spans:       f.Spans,
		})
		switch {
		case f.SnapshotEvery > 0 && f.Top:
			stops = append(stops, liveTop(tel, start, f.SnapshotEvery))
		case f.SnapshotEvery > 0:
			stops = append(stops, telemetry.PeriodicSnapshots(tel, os.Stderr, f.SnapshotEvery))
		}
	}
	finish = func() error {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		if f.MemProfile != "" {
			if err := telemetry.WriteHeapProfile(f.MemProfile); err != nil {
				return err
			}
		}
		if tel == nil {
			return nil
		}
		if f.Top {
			fmt.Fprint(os.Stderr, telemetry.RenderTop(tel.Snapshot(), time.Since(start), telemetry.TopOptions{}))
		}
		if f.PromFile != "" {
			if err := writeFile(f.PromFile, func(w *os.File) error {
				return tel.Snapshot().WritePrometheus(w)
			}); err != nil {
				return err
			}
		}
		if f.ProfileFile != "" {
			if err := writeProfile(f.ProfileFile, tel.Profile()); err != nil {
				return err
			}
		}
		tr := tel.Tracer()
		if f.JSONLFile != "" && tr != nil {
			if err := writeFile(f.JSONLFile, func(w *os.File) error { return tr.WriteJSONL(w) }); err != nil {
				return err
			}
		}
		if f.ChromeFile != "" && tr != nil {
			if err := writeFile(f.ChromeFile, func(w *os.File) error { return tr.WriteChromeTrace(w) }); err != nil {
				return err
			}
		}
		return nil
	}
	return tel, finish, nil
}

// liveTop redraws the top screen on stderr every interval until stopped.
func liveTop(tel *telemetry.Telemetry, start time.Time, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprint(os.Stderr, "\x1b[2J\x1b[H"+
					telemetry.RenderTop(tel.Snapshot(), time.Since(start), telemetry.TopOptions{}))
			}
		}
	}()
	return func() { close(done); <-exited }
}

// writeProfile writes the guest pprof payload to path, re-reads it
// through ValidatePprof so a bad payload is an error here rather than in
// `go tool pprof` later, and prints the flat report to stderr.
func writeProfile(path string, prof *telemetry.Profile) error {
	if err := writeFile(path, func(w *os.File) error { return prof.WritePprof(w) }); err != nil {
		return err
	}
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	sum, err := telemetry.ValidatePprof(r)
	if err != nil {
		return fmt.Errorf("%s: invalid pprof payload: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "[profile] wrote %s: %s (inspect with: go tool pprof -top %s)\n", path, sum, path)
	fmt.Fprint(os.Stderr, prof.RenderTop(10))
	return nil
}

func writeFile(path string, fn func(*os.File) error) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
