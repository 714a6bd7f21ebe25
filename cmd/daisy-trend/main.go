// daisy-trend owns the repository's benchmark snapshots: it captures
// `go test -bench` output as a BENCH_*.json snapshot, renders the
// history as a perf-trend wall, and diffs and gates two snapshots under
// one regression policy.
//
//	go test -run='^$' -bench=. -count=4 -benchmem . | daisy-trend capture > BENCH_new.json
//	daisy-trend wall                  # every BENCH_*.json, one markdown table
//	daisy-trend wall -plots trend/    # plus one SVG sparkline per metric
//	daisy-trend check NEW             # gate NEW against the newest BENCH_*.json
//	daisy-trend check -all OLD NEW    # gate, and print every other delta too
//
// History runs oldest first: by manifest date, else by the commit that
// added the file, else by name. `check` compares benchstat-style —
// min-of-N summaries, Mann-Whitney rank-sum significance when both sides
// retained samples — and gates on the pinned key metrics (see -keys).
// Wall-clock metrics only gate between snapshots from the same host;
// deterministic counters gate everywhere; a key missing from either
// snapshot fails. An intentional regression or removal is acknowledged
// with -ack "Benchmark/metric" in the CI invocation instead of silently
// raising thresholds. The run ends with one line naming every pinned key
// that was not gated, and why.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"daisy/internal/perfwall"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "capture":
		err = captureCmd(os.Args[2:])
	case "wall":
		err = wallCmd(os.Args[2:])
	case "check":
		err = checkCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "daisy-trend: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daisy-trend:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  daisy-trend capture [-benchtime T] < bench.txt > BENCH.json   snapshot go test -bench output
  daisy-trend wall [-dir D] [-plots DIR] [files...]   render the trend wall
  daisy-trend check [flags] [OLD.json] NEW.json       gate on regressions
                                                      (OLD: the newest BENCH_*.json here)

check flags:
  -keys  comma-separated Benchmark/metric pairs (default: the pinned headline metrics)
  -ack   comma-separated Benchmark/metric pairs whose regression or absence is intentional
  -all   also print every non-gated benchmark/metric delta
`)
}

// captureCmd reads `go test -bench` output on stdin, echoes it to stderr
// so a piped `make bench` still shows live progress, and writes the
// schema-1 snapshot to stdout.
func captureCmd(args []string) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	benchtime := fs.String("benchtime", "", "benchtime the suite ran with, recorded in the manifest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := perfwall.ParseBench(io.TeeReader(os.Stdin, os.Stderr))
	if err != nil {
		return err
	}
	snap.Manifest.BenchTime = *benchtime
	b, err := snap.Encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

func wallCmd(args []string) error {
	fs := flag.NewFlagSet("wall", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory to glob BENCH_*.json from when no files are given")
	plots := fs.String("plots", "", "also write one SVG sparkline per series into DIR")
	markdown := fs.Bool("md", true, "render markdown (false: aligned text)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files, err := history(*dir, fs.Args())
	if err != nil {
		return err
	}
	t := perfwall.WallTable(files)
	if *markdown {
		fmt.Print(t.Markdown())
	} else {
		fmt.Print(t)
	}
	if *plots != "" {
		if err := writePlots(*plots, files); err != nil {
			return err
		}
	}
	return nil
}

func writePlots(dir string, files []perfwall.HistoryFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	labels := make([]string, len(files))
	for i, f := range files {
		labels[i] = f.Label
	}
	n := 0
	for _, s := range perfwall.AlignHistory(files) {
		svg := perfwall.Sparkline(s.Key.String(), labels, s.Values, 640, 180)
		name := perfwall.SafeName(s.Key.Bench+"_"+s.Key.Metric) + ".svg"
		if err := os.WriteFile(filepath.Join(dir, name), svg, 0o644); err != nil {
			return err
		}
		n++
	}
	fmt.Fprintf(os.Stderr, "[daisy-trend] %d sparklines in %s\n", n, dir)
	return nil
}

func checkCmd(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	keysFlag := fs.String("keys", "", "comma-separated Benchmark/metric pairs to gate on")
	ackFlag := fs.String("ack", "", "comma-separated Benchmark/metric pairs whose regression or absence is intentional")
	all := fs.Bool("all", false, "also print every non-gated delta")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var oldPath, newPath string
	switch fs.NArg() {
	case 1:
		newPath = fs.Arg(0)
		var err error
		if oldPath, err = newestSnapshot(newPath); err != nil {
			return err
		}
	case 2:
		oldPath, newPath = fs.Arg(0), fs.Arg(1)
	default:
		return fmt.Errorf("check needs [OLD] NEW, got %d files", fs.NArg())
	}
	oldS, err := perfwall.ReadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newS, err := perfwall.ReadSnapshot(newPath)
	if err != nil {
		return err
	}

	keys, err := parseKeys(*keysFlag)
	if err != nil {
		return err
	}
	acked, err := parseKeys(*ackFlag)
	if err != nil {
		return err
	}

	results, failed := perfwall.Check(oldS, newS, keys, acked, perfwall.CompareOptions{})
	fmt.Printf("%s -> %s\n", oldPath, newPath)
	if !perfwall.SameHost(oldS.Manifest, newS.Manifest) {
		fmt.Println("(different or unknown hosts: wall-clock metrics are informational only)")
	}
	var notGated []string
	for _, res := range results {
		if res.NotGated != "" {
			why := res.NotGated
			if res.Acked {
				why += ", acked"
			}
			notGated = append(notGated, fmt.Sprintf("%s (%s)", res.Key, why))
		}
		switch {
		case res.Delta == nil && res.Acked:
			fmt.Printf("  ACKED %-55s (missing)\n", res.Key)
		case res.Delta == nil:
			fmt.Printf("  FAIL  %-55s (missing)\n", res.Key)
		case res.Acked:
			fmt.Printf("  ACKED %s\n", res.Delta)
		case res.Delta.Regression:
			fmt.Printf("  FAIL  %s\n", res.Delta)
		default:
			fmt.Printf("  ok    %s\n", res.Delta)
		}
	}
	if *all {
		gated := map[string]bool{}
		for _, res := range results {
			gated[res.Key.String()] = true
		}
		fmt.Println("  --")
		for _, d := range perfwall.CompareSnapshots(oldS, newS, perfwall.CompareOptions{}) {
			if gated[d.Bench+"/"+d.Metric] {
				continue
			}
			fmt.Printf("  info  %s\n", d)
		}
	}
	if len(notGated) == 0 {
		notGated = []string{"none"}
	}
	fmt.Println("not gated:", strings.Join(notGated, "; "))
	if failed {
		return fmt.Errorf("significant regression or missing key on pinned metrics (acknowledge an intentional one with -ack \"Benchmark/metric\")")
	}
	fmt.Println("trend gate: ok")
	return nil
}

// history loads paths, or every BENCH_*.json in dir when none are
// given, oldest first.
func history(dir string, paths []string) ([]perfwall.HistoryFile, error) {
	if len(paths) == 0 {
		paths, _ = filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json files in %s", dir)
	}
	files, err := perfwall.LoadHistory(paths)
	if err != nil {
		return nil, err
	}
	perfwall.SortHistory(files, perfwall.GitAddTime)
	return files, nil
}

// newestSnapshot returns the newest BENCH_*.json in the working
// directory other than exclude.
func newestSnapshot(exclude string) (string, error) {
	files, err := history(".", nil)
	if err != nil {
		return "", err
	}
	ex, _ := filepath.Abs(exclude)
	for i := len(files) - 1; i >= 0; i-- {
		if p, _ := filepath.Abs(files[i].Path); p != ex {
			return files[i].Path, nil
		}
	}
	return "", fmt.Errorf("no BENCH_*.json baseline other than %s", exclude)
}

// parseKeys parses a comma-separated list of Benchmark/metric pairs.
func parseKeys(list string) ([]perfwall.Key, error) {
	var keys []perfwall.Key
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		bench, metric, ok := strings.Cut(s, "/")
		if bench == "" || metric == "" || !ok {
			return nil, fmt.Errorf("bad key %q (want Benchmark/metric, e.g. BenchmarkExecutorThroughput/ns/op)", s)
		}
		keys = append(keys, perfwall.Key{Bench: bench, Metric: metric})
	}
	return keys, nil
}
