package perfwall

import (
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"daisy/internal/stats"
)

// HistoryFile is one snapshot in the repository's benchmark history.
type HistoryFile struct {
	Path  string
	Label string // column heading: file name minus BENCH_ / .json
	Snap  *Snapshot
}

// LoadHistory reads every snapshot path in order. Labels are derived
// from the file names; order the result with SortHistory.
func LoadHistory(paths []string) ([]HistoryFile, error) {
	var files []HistoryFile
	for _, p := range paths {
		s, err := ReadSnapshot(p)
		if err != nil {
			return nil, err
		}
		files = append(files, HistoryFile{Path: p, Label: historyLabel(p), Snap: s})
	}
	return files, nil
}

// SortHistory orders snapshots oldest first. A snapshot's time is its
// manifest date when it has one, else added(path) — GitAddTime, the time
// of the commit that added the file, outside tests. Snapshots of known
// time sort by it, ahead of those whose time is unknown (zero, or a nil
// added): uncommitted files are the newest. Ties and unknowns fall back
// on the file name: dated names sort chronologically, and a "_pre"
// variant — the convention for a before/after pair's "before" — leads
// the other snapshots of its date.
func SortHistory(files []HistoryFile, added func(path string) time.Time) {
	at := make(map[string]time.Time, len(files))
	for _, f := range files {
		var t time.Time
		if m := f.Snap.Manifest; m != nil {
			t, _ = time.Parse(time.RFC3339, m.Date)
		}
		if t.IsZero() && added != nil {
			t = added(f.Path)
		}
		at[f.Path] = t
	}
	nameKey := func(label string) string {
		date, _, _ := strings.Cut(label, "_")
		if strings.HasSuffix(label, "_pre") {
			return date + "\x00" + label
		}
		return date + "\x01" + label
	}
	sort.SliceStable(files, func(i, j int) bool {
		ti, tj := at[files[i].Path], at[files[j].Path]
		switch {
		case ti.IsZero() != tj.IsZero():
			return tj.IsZero()
		case !ti.Equal(tj):
			return ti.Before(tj)
		}
		return nameKey(files[i].Label) < nameKey(files[j].Label)
	})
}

// GitAddTime returns the time of the git commit that added path, or the
// zero time when git, the repository or the commit is unavailable (an
// uncommitted file).
func GitAddTime(path string) time.Time {
	out, err := exec.Command("git", "-C", filepath.Dir(path), "log", "--diff-filter=A",
		"--format=%ct", "--", filepath.Base(path)).Output()
	if err != nil {
		return time.Time{}
	}
	first, _, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
	sec, err := strconv.ParseInt(first, 10, 64)
	if err != nil {
		return time.Time{}
	}
	return time.Unix(sec, 0)
}

func historyLabel(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, ".json")
	base = strings.TrimPrefix(base, "BENCH_")
	return base
}

// Series is one benchmark/metric trajectory across the history: one
// value (or NaN) per history file, in file order.
type Series struct {
	Key    Key
	Values []float64 // NaN where the file lacks the pair
}

// Points returns the non-NaN (index, value) pairs.
func (s *Series) Points() (idx []int, vals []float64) {
	for i, v := range s.Values {
		if v == v { // !NaN
			idx = append(idx, i)
			vals = append(vals, v)
		}
	}
	return idx, vals
}

// AlignHistory builds the per-metric series of every benchmark/metric
// pair appearing anywhere in the history, sorted by benchmark then
// metric name.
func AlignHistory(files []HistoryFile) []Series {
	seen := map[Key]bool{}
	var keys []Key
	for _, f := range files {
		for _, r := range f.Snap.Results {
			for m := range r.Metrics {
				k := Key{r.Name, m}
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Bench != keys[j].Bench {
			return keys[i].Bench < keys[j].Bench
		}
		return keys[i].Metric < keys[j].Metric
	})
	out := make([]Series, 0, len(keys))
	for _, k := range keys {
		s := Series{Key: k}
		for _, f := range files {
			v := math.NaN()
			if r := f.Snap.Result(k.Bench); r != nil {
				if x, ok := r.Metrics[k.Metric]; ok {
					v = x
				}
			}
			s.Values = append(s.Values, v)
		}
		out = append(out, s)
	}
	return out
}

// WallTable renders the full history as one table: a row per
// benchmark/metric, a column per snapshot, values formatted compactly,
// and a trend column comparing the last value to the first.
func WallTable(files []HistoryFile) *stats.Table {
	cols := []string{"benchmark", "metric"}
	for _, f := range files {
		cols = append(cols, f.Label)
	}
	cols = append(cols, "first→last")
	t := stats.NewTable(fmt.Sprintf("Perf-trend wall over %d snapshots", len(files)), cols...)
	for _, s := range AlignHistory(files) {
		row := []any{s.Key.Bench, s.Key.Metric}
		for _, v := range s.Values {
			if v != v {
				row = append(row, "")
			} else {
				row = append(row, compact(v))
			}
		}
		_, vals := s.Points()
		trend := ""
		if len(vals) >= 2 && vals[0] != 0 {
			pct := (vals[len(vals)-1] - vals[0]) / vals[0] * 100
			trend = fmt.Sprintf("%+.1f%%", pct)
		}
		row = append(row, trend)
		t.Row(row...)
	}
	return t
}

// compact formats a metric value for the dense wall table.
func compact(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case a >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case a >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case a >= 1e4:
		return fmt.Sprintf("%.3gk", v/1e3)
	case a >= 100 || a == float64(int64(a)):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
