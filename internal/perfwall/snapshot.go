// Package perfwall is the performance-trend subsystem: the schema the
// BENCH_*.json snapshots are written in, the manifest that stamps each
// snapshot with its provenance (git SHA, toolchain, host), benchstat-style
// min-of-N comparison with a significance test, the trend wall that lines
// the whole snapshot history up per metric, and the run-folder writer the
// paper harness (cmd/daisy-paper) archives experiment grids into.
//
// The repository's six seed snapshots predate the schema and are bare
// JSON arrays of results; every reader here accepts both forms, so the
// history stays one unbroken trajectory.
package perfwall

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the snapshot file format. Version 0 is the
// implied version of the legacy headerless files (a bare JSON array of
// results); version 1 added the manifest header and per-rep samples.
const SchemaVersion = 1

// Result is one benchmark's parsed measurements: the standard ns/op,
// B/op and allocs/op plus every custom metric attached with
// b.ReportMetric. With -count N capture, Metrics holds the per-metric
// minimum across the N samples (the benchstat summary statistic) and
// Samples retains every per-rep value in capture order.
type Result struct {
	Name    string               `json:"name"`
	Iters   int64                `json:"iters"` // total iterations across all samples
	Metrics map[string]float64   `json:"metrics"`
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// SampleValues returns every captured value of one metric: the retained
// per-rep samples when present, else the single summary value.
func (r *Result) SampleValues(metric string) []float64 {
	if s := r.Samples[metric]; len(s) > 0 {
		return s
	}
	if v, ok := r.Metrics[metric]; ok {
		return []float64{v}
	}
	return nil
}

// Snapshot is one BENCH_*.json file: an optional provenance manifest and
// the sorted benchmark results.
type Snapshot struct {
	Manifest *Manifest `json:"manifest,omitempty"`
	Results  []Result  `json:"results"`
}

// Result returns the named benchmark's result, or nil.
func (s *Snapshot) Result(name string) *Result {
	for i := range s.Results {
		if s.Results[i].Name == name {
			return &s.Results[i]
		}
	}
	return nil
}

// Sort orders results by benchmark name (the canonical file order).
func (s *Snapshot) Sort() {
	sort.Slice(s.Results, func(i, j int) bool { return s.Results[i].Name < s.Results[j].Name })
}

// Decode parses snapshot bytes in either form: the schema-1 object with
// a manifest header, or the legacy headerless array the seed history is
// written in (Manifest stays nil for those). Results come back sorted.
func Decode(b []byte) (*Snapshot, error) {
	trimmed := bytes.TrimLeft(b, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("perfwall: empty snapshot")
	}
	if trimmed[0] == '[' {
		var rs []Result
		if err := json.Unmarshal(trimmed, &rs); err != nil {
			return nil, err
		}
		s := &Snapshot{Results: rs}
		s.Sort()
		return s, nil
	}
	var s Snapshot
	if err := json.Unmarshal(trimmed, &s); err != nil {
		return nil, err
	}
	if s.Manifest != nil && s.Manifest.Schema > SchemaVersion {
		return nil, fmt.Errorf("perfwall: snapshot schema %d is newer than this tool (%d)",
			s.Manifest.Schema, SchemaVersion)
	}
	s.Sort()
	return &s, nil
}

// ReadSnapshot loads one snapshot file (either form).
func ReadSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode renders the snapshot in the schema-1 form, results sorted,
// trailing newline included.
func (s *Snapshot) Encode() ([]byte, error) {
	s.Sort()
	if s.Manifest != nil {
		s.Manifest.Schema = SchemaVersion
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseBench captures `go test -bench` output into a snapshot stamped
// with this host's manifest. Repeated lines for one benchmark (-count N)
// fold into one Result: each summary metric keeps its minimum, Iters
// sums across runs, and the raw values stay in capture order under
// Samples. The manifest's Count is the longest sample list. A benchmark
// that ran once carries no distribution, so its one-element sample
// arrays are dropped.
func ParseBench(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	snap := &Snapshot{Manifest: CollectManifest("daisy-trend")}
	byName := map[string]int{}
	for sc.Scan() {
		name, iters, metrics, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		i, seen := byName[name]
		if !seen {
			i = len(snap.Results)
			byName[name] = i
			snap.Results = append(snap.Results, Result{Name: name,
				Metrics: map[string]float64{}, Samples: map[string][]float64{}})
		}
		res := &snap.Results[i]
		res.Iters += iters
		for m, v := range metrics {
			if old, ok := res.Metrics[m]; !ok || v < old {
				res.Metrics[m] = v
			}
			res.Samples[m] = append(res.Samples[m], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range snap.Results {
		res := &snap.Results[i]
		n := 0
		for _, vs := range res.Samples {
			n = max(n, len(vs))
		}
		if n <= 1 {
			res.Samples = nil
		}
		snap.Manifest.Count = max(snap.Manifest.Count, n)
	}
	return snap, nil
}

// parseBenchLine parses one benchmark result line of the form
//
//	BenchmarkName-8   1   123456 ns/op   3.14 some-metric   456 B/op   7 allocs/op
func parseBenchLine(line string) (name string, iters int64, metrics map[string]float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", 0, nil, false
	}
	name = f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", 0, nil, false
	}
	metrics = map[string]float64{}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", 0, nil, false
		}
		metrics[f[i+1]] = v
	}
	return name, iters, metrics, true
}
