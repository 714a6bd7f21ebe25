// daisy-experiments regenerates every table and figure of the paper's
// evaluation on this reproduction's workloads and prints them in the
// paper's layout. EXPERIMENTS.md archives one run of this program.
//
// Usage:
//
//	daisy-experiments              # everything, default scale
//	daisy-experiments -scale 3     # bigger inputs
//	daisy-experiments -only t51,t53,f52
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"daisy/cmd/internal/obs"
	"daisy/internal/experiments"
)

func main() {
	var (
		scale = flag.Int("scale", 2, "benchmark input scale")
		only  = flag.String("only", "", "comma-separated experiment ids (t51..t59, f51..f55, cost, oracle, ablate, pipeline, aot)")
	)
	ob := obs.Register()
	flag.Parse()
	// The runner builds its machines internally, so only the profiling
	// half of the observability flags applies here (-cpuprofile /
	// -memprofile); attach telemetry to a single run with daisy-run, or
	// watch one live with daisy-run -top -snapshot-every D.
	_, finish, err := ob.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "daisy-experiments:", err)
		os.Exit(1)
	}
	runErr := run(*scale, *only)
	if ferr := finish(); ferr != nil && runErr == nil {
		runErr = ferr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "daisy-experiments:", runErr)
		os.Exit(1)
	}
}

func run(scale int, only string) error {
	r := experiments.NewRunner(scale)
	sel := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sel[s] = true
		}
	}
	want := func(id string) bool { return len(sel) == 0 || sel[id] }

	// Full-suite runs warm the runner's memo cache across all cores
	// first; table generation then replays the cached measurements in
	// order, so the output is bit-identical to a serial run.
	if len(sel) == 0 {
		if err := r.MeasureAll(experiments.SuiteRequests()); err != nil {
			return err
		}
	}

	for _, e := range experiments.Experiments() {
		if !want(e.ID) {
			continue
		}
		t, err := e.Run(r)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("[%s]\n%s\n", e.ID, t)
	}
	return nil
}
