package perfwall

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"daisy/internal/stats"
)

// TestDecodeLegacyHeaderless: the six seed BENCH_*.json files are bare
// arrays; they must parse with a nil manifest.
func TestDecodeLegacyHeaderless(t *testing.T) {
	legacy := `[
  {"name": "BenchmarkExecutorThroughput", "iters": 1,
   "metrics": {"B/op": 9233080, "allocs/op": 782, "ns/op": 3348965}}
]`
	s, err := Decode([]byte(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest != nil {
		t.Fatal("legacy snapshot must have nil manifest")
	}
	r := s.Result("BenchmarkExecutorThroughput")
	if r == nil || r.Metrics["allocs/op"] != 782 || r.Iters != 1 {
		t.Fatalf("legacy parse: %+v", r)
	}
	if got := r.SampleValues("ns/op"); len(got) != 1 || got[0] != 3348965 {
		t.Fatalf("legacy SampleValues: %v", got)
	}
}

// TestCommittedHistoryParses walks the real repository history: every
// committed BENCH_*.json must load, and no pinned key present in both
// snapshots of a consecutive pair may regress (the acceptance bar for
// `daisy-trend check`; keys added later are missing from older pairs).
func TestCommittedHistoryParses(t *testing.T) {
	repoRoot := "../.."
	paths, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Skipf("no committed snapshots found: %v", err)
	}
	files, err := LoadHistory(paths)
	if err != nil {
		t.Fatal(err)
	}
	SortHistory(files, GitAddTime)
	for i := 1; i < len(files); i++ {
		res, failed := Check(files[i-1].Snap, files[i].Snap, nil, nil, CompareOptions{})
		if failed {
			for _, r := range res {
				if r.Delta != nil && r.Delta.Regression {
					t.Errorf("%s -> %s: gate failed on %s: %+v",
						files[i-1].Label, files[i].Label, r.Key, *r.Delta)
				}
			}
		}
	}
	// And the wall renders every file as a column.
	w := WallTable(files)
	if len(w.Columns) != len(files)+3 {
		t.Fatalf("wall columns: %v", w.Columns)
	}
	if w.Rows() == 0 {
		t.Fatal("empty wall")
	}
}

func historyFiles(paths ...string) []HistoryFile {
	files := make([]HistoryFile, len(paths))
	for i, p := range paths {
		files[i] = HistoryFile{Path: p, Label: historyLabel(p), Snap: &Snapshot{}}
	}
	return files
}

func historyOrder(t *testing.T, files []HistoryFile, want ...string) {
	t.Helper()
	var got []string
	for _, f := range files {
		got = append(got, f.Path)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("order:\n got  %v\n want %v", got, want)
	}
}

// TestSortHistoryPaths: with no times known, the file names decide.
func TestSortHistoryPaths(t *testing.T) {
	files := historyFiles(
		"BENCH_2026-08-05_telemetry.json",
		"BENCH_2026-08-08_aot.json",
		"BENCH_2026-08-05.json",
		"BENCH_2026-08-05_pre.json",
		"BENCH_2026-08-08_tier2.json",
		"BENCH_2026-08-05_pipeline.json",
	)
	SortHistory(files, nil)
	historyOrder(t, files,
		"BENCH_2026-08-05_pre.json", // a _pre "before" leads its date group
		"BENCH_2026-08-05.json",
		"BENCH_2026-08-05_pipeline.json",
		"BENCH_2026-08-05_telemetry.json",
		"BENCH_2026-08-08_aot.json",
		"BENCH_2026-08-08_tier2.json",
	)
}

// TestSortHistorySameDayCommitOrder: same-day suffixes follow the
// commits that added them, not their names (telemetry was committed
// before pipeline, tier2 before aot), a manifest date beats the add
// time, and an uncommitted manifest-less file is the newest.
func TestSortHistorySameDayCommitOrder(t *testing.T) {
	added := map[string]int64{
		"BENCH_2026-08-05.json":           1785902202,
		"BENCH_2026-08-05_pre.json":       1785902202, // same commit: _pre leads
		"BENCH_2026-08-05_telemetry.json": 1785904454,
		"BENCH_2026-08-05_pipeline.json":  1785907478,
		"BENCH_2026-08-08_tier2.json":     1786216044,
		"BENCH_2026-08-08_aot.json":       1786219739,
		"BENCH_2026-08-09_dated.json":     1786200000, // manifest says later
	}
	files := historyFiles(
		"BENCH_local.json",
		"BENCH_2026-08-08_aot.json",
		"BENCH_2026-08-05_pipeline.json",
		"BENCH_2026-08-09_dated.json",
		"BENCH_2026-08-08_tier2.json",
		"BENCH_2026-08-05_telemetry.json",
		"BENCH_2026-08-05.json",
		"BENCH_2026-08-05_pre.json",
	)
	files[3].Snap.Manifest = &Manifest{Date: "2026-08-10T00:00:00Z"}
	SortHistory(files, func(path string) time.Time {
		if sec, ok := added[path]; ok {
			return time.Unix(sec, 0)
		}
		return time.Time{}
	})
	historyOrder(t, files,
		"BENCH_2026-08-05_pre.json",
		"BENCH_2026-08-05.json",
		"BENCH_2026-08-05_telemetry.json",
		"BENCH_2026-08-05_pipeline.json",
		"BENCH_2026-08-08_tier2.json",
		"BENCH_2026-08-08_aot.json",
		"BENCH_2026-08-09_dated.json",
		"BENCH_local.json",
	)
}

// TestParseBenchLine: the capture path from `go test -bench` text to a
// snapshot, one result line at a time.
func TestParseBenchLine(t *testing.T) {
	one := "BenchmarkExecutorThroughput-8   3   1234567 ns/op   2.50 insts/VLIW   788 allocs/op"
	s, err := ParseBench(strings.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	r := s.Result("BenchmarkExecutorThroughput") // -GOMAXPROCS suffix stripped
	if len(s.Results) != 1 || r == nil || r.Iters != 3 {
		t.Fatalf("parse: %+v", s.Results)
	}
	if r.Metrics["ns/op"] != 1234567 || r.Metrics["insts/VLIW"] != 2.5 || r.Metrics["allocs/op"] != 788 {
		t.Fatalf("metrics: %v", r.Metrics)
	}
	if s.Manifest == nil || s.Manifest.Count != 1 || s.Manifest.Tool != "daisy-trend" {
		t.Fatalf("single run: manifest %+v", s.Manifest)
	}

	// Non-result lines are skipped; a bare name (GOMAXPROCS=1 output)
	// keeps its name.
	for _, bad := range []string{
		"goos: linux",
		"PASS",
		"ok  \tdaisy/internal/vmm\t1.2s",
		"BenchmarkNoMetrics-8 5",
		"--- BENCH: BenchmarkX",
		"BenchmarkBadIters-8 x 5 ns/op",
		"BenchmarkBadValue-8 1 fast ns/op",
	} {
		if s, err := ParseBench(strings.NewReader(bad)); err != nil || len(s.Results) != 0 {
			t.Errorf("parsed non-result line %q: %+v %v", bad, s, err)
		}
	}
	if s, _ := ParseBench(strings.NewReader("BenchmarkBare 10 5 ns/op")); s.Result("BenchmarkBare") == nil {
		t.Fatalf("bare name: %+v", s.Results)
	}
}

// countedBench is -count 3 output with one benchmark that ran once.
const countedBench = `goos: linux
BenchmarkA-4   1   300 ns/op   9 allocs/op
BenchmarkOnce-4   1   7 ns/op
BenchmarkA-4   2   100 ns/op   11 allocs/op
BenchmarkA-4   1   200 ns/op   10 allocs/op
PASS`

// TestParseBenchFoldsRepeatedRuns: under -count N, repeated lines fold
// to the per-metric minimum, Iters sums, samples stay in capture order,
// and Count comes from the input.
func TestParseBenchFoldsRepeatedRuns(t *testing.T) {
	s, err := ParseBench(strings.NewReader(countedBench))
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Manifest.Count)
	}
	a := s.Result("BenchmarkA")
	if a.Iters != 4 || a.Metrics["ns/op"] != 100 || a.Metrics["allocs/op"] != 9 {
		t.Fatalf("fold: %+v", a)
	}
	if got := a.Samples["ns/op"]; len(got) != 3 || got[0] != 300 || got[1] != 100 || got[2] != 200 {
		t.Fatalf("samples out of capture order: %v", got)
	}
}

// TestParseBenchDropsSingleSamples: one-element sample arrays carry
// nothing the summary does not, so a benchmark that ran once keeps none,
// while a multi-sample benchmark keeps every metric's samples.
func TestParseBenchDropsSingleSamples(t *testing.T) {
	s, err := ParseBench(strings.NewReader("BenchmarkX-8 3 5 ns/op"))
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Result("BenchmarkX"); r == nil || r.Samples != nil {
		t.Fatalf("single run kept samples: %+v", s.Results)
	}
	s, err = ParseBench(strings.NewReader(countedBench))
	if err != nil {
		t.Fatal(err)
	}
	if once := s.Result("BenchmarkOnce"); once.Samples != nil || once.Metrics["ns/op"] != 7 {
		t.Fatalf("one-element samples kept: %+v", once)
	}
	if a := s.Result("BenchmarkA"); len(a.Samples["ns/op"]) != 3 || len(a.Samples["allocs/op"]) != 3 {
		t.Fatalf("multi-sample arrays dropped: %+v", a.Samples)
	}
	if s, err := ParseBench(strings.NewReader("")); err != nil || len(s.Results) != 0 {
		t.Fatalf("empty input: %+v %v", s, err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Manifest: CollectManifest("test"),
		Results: []Result{
			{Name: "Z", Iters: 2, Metrics: map[string]float64{"ns/op": 5},
				Samples: map[string][]float64{"ns/op": {6, 5}}},
			{Name: "A", Iters: 1, Metrics: map[string]float64{"ns/op": 1}},
		},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest == nil || got.Manifest.Schema != SchemaVersion || got.Manifest.Tool != "test" {
		t.Fatalf("manifest round-trip: %+v", got.Manifest)
	}
	if got.Manifest.GoVersion == "" || got.Manifest.GOMAXPROCS == 0 || got.Manifest.Date == "" {
		t.Fatalf("manifest provenance fields empty: %+v", got.Manifest)
	}
	if len(got.Results) != 2 || got.Results[0].Name != "A" {
		t.Fatalf("results not sorted: %+v", got.Results)
	}
	if v := got.Result("Z").SampleValues("ns/op"); len(v) != 2 || v[0] != 6 {
		t.Fatalf("samples lost: %v", v)
	}
}

func TestDecodeRejectsFutureSchema(t *testing.T) {
	_, err := Decode([]byte(`{"manifest":{"schema":99},"results":[]}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema accepted: %v", err)
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, err := Decode([]byte("  \n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSameHost(t *testing.T) {
	a := &Manifest{CPU: "x", GOOS: "linux", GOARCH: "amd64"}
	b := &Manifest{CPU: "x", GOOS: "linux", GOARCH: "amd64"}
	if !SameHost(a, b) {
		t.Fatal("identical hosts")
	}
	if SameHost(a, nil) || SameHost(nil, b) {
		t.Fatal("nil manifest matched")
	}
	if SameHost(a, &Manifest{CPU: "y", GOOS: "linux", GOARCH: "amd64"}) {
		t.Fatal("different CPU matched")
	}
	if SameHost(&Manifest{GOOS: "linux", GOARCH: "amd64"}, b) {
		t.Fatal("CPU-less manifest matched")
	}
}

// TestRunFolder exercises the run-folder writer and its validator.
func TestRunFolder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	rf, err := NewRunFolder(dir, CollectManifest("daisy-paper"), 1, []string{"-scale", "1"})
	if err != nil {
		t.Fatal(err)
	}
	tb := stats.NewTable("Table 5.1 (test)", "Program", "ILP")
	tb.Row("wc", 3.09)
	if err := rf.AddTable("t51", tb, 12.5); err != nil {
		t.Fatal(err)
	}
	if err := rf.WriteSamples([]SampleSeries{{Name: "pipeline/wc/sync", Unit: "ms", Values: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := rf.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := Validate(dir); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Deleting a rendering must fail validation.
	if err := os.Remove(filepath.Join(dir, "tables", "t51.csv")); err != nil {
		t.Fatal(err)
	}
	if err := Validate(dir); err == nil {
		t.Fatal("validation passed with a missing table rendering")
	}
}

func TestSparklineSVG(t *testing.T) {
	svg := string(Sparkline("BenchmarkX ns/op", []string{"a", "b", "c"}, []float64{1, 3, 2}, 0, 0))
	for _, want := range []string{"<svg", "polyline", "BenchmarkX ns/op", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q:\n%s", want, svg)
		}
	}
	// Escaping and empty data must not produce broken XML.
	svg = string(Sparkline(`a<b>&"c`, nil, nil, 100, 50))
	if strings.Contains(svg, "<b>") || !strings.Contains(svg, "no data") {
		t.Fatalf("svg escape/empty: %s", svg)
	}
	// NaN gaps are skipped, not plotted.
	svg = string(Sparkline("gap", []string{"a", "b", "c"}, []float64{1, nan(), 2}, 0, 0))
	if c := strings.Count(svg, "<circle"); c != 2 {
		t.Fatalf("want 2 points around a NaN gap, got %d", c)
	}
}

func nan() float64 { v := 0.0; return v / v }
