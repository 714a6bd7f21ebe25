package perfwall

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MetricClass partitions metrics by how trustworthy a single sample is.
type MetricClass int

const (
	// ClassTime is host wall-clock (ns/op, *-ms, *-ns): noisy, and not
	// comparable at all across different hosts.
	ClassTime MetricClass = iota
	// ClassNoisyDet is deterministic in intent but allowed small drift
	// run-to-run (B/op tracks allocator size classes).
	ClassNoisyDet
	// ClassDet is a deterministic model output (cycles/inst, ILP,
	// allocs/op, counts): any real movement is a code change.
	ClassDet
)

// ClassOf classifies a metric by name.
func ClassOf(metric string) MetricClass {
	switch {
	case metric == "ns/op", metric == "MB/s",
		strings.HasSuffix(metric, "-ms"), strings.HasSuffix(metric, "-ns"):
		return ClassTime
	case metric == "B/op":
		return ClassNoisyDet
	default:
		return ClassDet
	}
}

// HigherIsBetter reports the improvement direction of a metric. Cost
// metrics (times, allocations, misses) improve downward; rates and
// throughputs improve upward.
func HigherIsBetter(metric string) bool {
	switch {
	case metric == "MB/s",
		strings.Contains(metric, "ILP"),
		strings.Contains(metric, "reduction"),
		strings.HasSuffix(metric, "-hits"),
		metric == "warm-hits":
		return true
	}
	return false
}

// Key names one pinned benchmark/metric pair the trend gate watches.
type Key struct {
	Bench  string
	Metric string
}

func (k Key) String() string { return k.Bench + "/" + k.Metric }

// DefaultKeys are the repository's headline numbers: the executor hot
// loop (time and allocation discipline), the tier-2 optimization payoff,
// and the fleet cold-start aggregate. `daisy-trend check` gates on these
// unless told otherwise.
var DefaultKeys = []Key{
	{"BenchmarkExecutorThroughput", "ns/op"},
	{"BenchmarkExecutorThroughput", "allocs/op"},
	{"BenchmarkTier2", "t2-cycles/inst"},
	{"BenchmarkFleetColdStart", "aot-fleet-ms"},
}

// CompareOptions tunes the regression policy.
type CompareOptions struct {
	// Alpha is the significance level of the Mann-Whitney test (default
	// 0.05) when both sides carry enough samples.
	Alpha float64
	// TimeThreshold is the minimum |delta| (fraction, default 0.25) for
	// a single-sample wall-clock metric to count as a regression — wide,
	// because two single runs on a busy host routinely differ by 20%.
	TimeThreshold float64
	// DetThreshold is the same for deterministic metrics (default 0.03).
	DetThreshold float64
	// NoisyDetThreshold covers ClassNoisyDet (default 0.10).
	NoisyDetThreshold float64
	// MinEffect is the minimum |delta| (fraction, default 0.02) for a
	// statistically significant difference to matter at all: with enough
	// samples the test can resolve arbitrarily small true slowdowns.
	MinEffect float64
	// MinSamples is how many samples each side needs before the rank-sum
	// test replaces the threshold fallback (default 4).
	MinSamples int
}

func (o *CompareOptions) fill() {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.TimeThreshold == 0 {
		o.TimeThreshold = 0.25
	}
	if o.DetThreshold == 0 {
		o.DetThreshold = 0.03
	}
	if o.NoisyDetThreshold == 0 {
		o.NoisyDetThreshold = 0.10
	}
	if o.MinEffect == 0 {
		o.MinEffect = 0.02
	}
	if o.MinSamples == 0 {
		o.MinSamples = 4
	}
}

// Delta is one benchmark/metric comparison between two snapshots.
type Delta struct {
	Bench  string
	Metric string
	Old    float64 // summary statistic (min of samples)
	New    float64
	OldN   int
	NewN   int
	Pct    float64 // (new-old)/old * 100
	P      float64 // Mann-Whitney p-value; 1 when the test could not run
	// Significant: the movement is beyond what the policy attributes to
	// noise. Regression additionally requires the wrong direction and a
	// gateable comparison (wall-clock metrics across different hosts are
	// never gateable).
	Significant bool
	Regression  bool
	Note        string
}

func (d Delta) String() string {
	return fmt.Sprintf("%-38s %-16s %12.4g %12.4g %+7.1f%% p=%.3f %s",
		d.Bench, d.Metric, d.Old, d.New, d.Pct, d.P, d.Note)
}

// summarize returns the benchstat summary statistic — the minimum — of a
// metric's samples (lower-is-better metrics) or the maximum (rates).
func summarize(metric string, samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	best := samples[0]
	for _, v := range samples[1:] {
		if HigherIsBetter(metric) {
			best = math.Max(best, v)
		} else {
			best = math.Min(best, v)
		}
	}
	return best
}

// CompareSnapshots lines two snapshots up and classifies every shared
// benchmark/metric pair under the regression policy:
//
//   - both sides >= MinSamples samples: Mann-Whitney rank-sum at Alpha,
//     with a MinEffect floor on the summary delta;
//   - otherwise: class-specific threshold on the summary delta;
//   - wall-clock metrics are only *gateable* when both manifests name
//     the same host (SameHost) — across hosts they are annotated and
//     reported but can never be regressions.
func CompareSnapshots(old, new *Snapshot, opts CompareOptions) []Delta {
	opts.fill()
	sameHost := SameHost(old.Manifest, new.Manifest)
	var out []Delta
	for i := range old.Results {
		or := &old.Results[i]
		nr := new.Result(or.Name)
		if nr == nil {
			continue
		}
		var metrics []string
		for m := range or.Metrics {
			if _, ok := nr.Metrics[m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			out = append(out, compareMetric(or, nr, m, sameHost, &opts))
		}
	}
	return out
}

func compareMetric(or, nr *Result, metric string, sameHost bool, opts *CompareOptions) Delta {
	os, ns := or.SampleValues(metric), nr.SampleValues(metric)
	d := Delta{
		Bench: or.Name, Metric: metric,
		Old: summarize(metric, os), New: summarize(metric, ns),
		OldN: len(os), NewN: len(ns), P: 1,
	}
	if d.Old != 0 {
		d.Pct = (d.New - d.Old) / d.Old * 100
	}
	class := ClassOf(metric)

	tested := false
	if len(os) >= opts.MinSamples && len(ns) >= opts.MinSamples {
		d.P = MannWhitneyP(os, ns)
		tested = true
		d.Significant = d.P < opts.Alpha && math.Abs(d.Pct) >= opts.MinEffect*100
	} else {
		thr := opts.DetThreshold
		switch class {
		case ClassTime:
			thr = opts.TimeThreshold
		case ClassNoisyDet:
			thr = opts.NoisyDetThreshold
		}
		d.Significant = math.Abs(d.Pct) >= thr*100
		if d.Significant {
			d.Note = "(threshold; too few samples for a test)"
		}
	}

	worse := d.Pct > 0
	if HigherIsBetter(metric) {
		worse = d.Pct < 0
	}
	gateable := class != ClassTime || sameHost
	if class == ClassTime && !sameHost {
		d.Note = strings.TrimSpace(d.Note + " (cross-host: informational only)")
	}
	d.Regression = d.Significant && worse && gateable
	if d.Regression && tested {
		d.Note = strings.TrimSpace(d.Note + " (rank-sum)")
	}
	return d
}

// CheckResult is the outcome of gating one pinned key metric.
type CheckResult struct {
	Key   Key
	Delta *Delta // nil when the key is absent from either snapshot
	// Acked: a regression or a missing key that was acknowledged.
	Acked bool
	// NotGated says why the key could not fail the gate on its numbers:
	// "missing" (absent from either snapshot), or a wall-clock metric
	// between different or unknown hosts. Empty when it was gated.
	NotGated string
}

// Not-gated reasons a CheckResult carries.
const (
	NotGatedMissing   = "missing"
	NotGatedCrossHost = "wall-clock, different or unknown hosts"
)

// Check runs the trend gate: every pinned key metric is compared, and
// any unacknowledged regression fails the gate, as does a key missing
// from either snapshot. acked lists the keys whose regression or absence
// is intentional (the documented escape hatch for a deliberate
// trade-off).
func Check(old, new *Snapshot, keys, acked []Key, opts CompareOptions) (results []CheckResult, failed bool) {
	if len(keys) == 0 {
		keys = DefaultKeys
	}
	opts.fill()
	sameHost := SameHost(old.Manifest, new.Manifest)
	ackSet := make(map[Key]bool, len(acked))
	for _, a := range acked {
		ackSet[a] = true
	}
	for _, k := range keys {
		res := CheckResult{Key: k, NotGated: NotGatedMissing}
		or, nr := old.Result(k.Bench), new.Result(k.Bench)
		if or != nil && nr != nil {
			if _, ok := or.Metrics[k.Metric]; ok {
				if _, ok := nr.Metrics[k.Metric]; ok {
					d := compareMetric(or, nr, k.Metric, sameHost, &opts)
					res.Delta = &d
					res.NotGated = ""
					if ClassOf(k.Metric) == ClassTime && !sameHost {
						res.NotGated = NotGatedCrossHost
					}
				}
			}
		}
		if res.Delta == nil || res.Delta.Regression {
			if ackSet[k] {
				res.Acked = true
			} else {
				failed = true
			}
		}
		results = append(results, res)
	}
	return results, failed
}
