package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef documents one metric: its unit, which direction is better,
// and — for per-layer metrics — which end-to-end metric it should move
// and on which workload. BENCHMARK.json lists the same names and units;
// the self-test holds the two in step.
type metricDef struct {
	Name, Unit, Better string
	Moves, On          string
}

// endToEnd are the untraced run's metrics, reported by every workload.
var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "ok_frac", Unit: "ratio", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the traced run's metrics, per operation. A metric whose
// layer the workload does not reach reads 0 and is listed under
// not_measured in the run's envelope.
var perLayer = []metricDef{
	{"encode.build_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_op", "fabric-cold"},
	{"encode.alloc_mb", "MB", "lower", "alloc_mb_per_op", "fabric-cold"},
	{"encode.allocs_k", "k", "lower", "alloc_mb_per_op, cpu_ms_per_op", "fabric-cold"},
	{"encode.deltas", "count", "lower", "(count behind encode.build_ms, smt.maximize_ms)", "fabric-cold"},
	{"smt.cnf_vars", "count", "lower", "(count behind encode.build_ms, smt.maximize_ms)", "fabric-cold"},
	{"smt.cnf_clauses", "count", "lower", "(count behind encode.build_ms, smt.maximize_ms)", "fabric-cold"},
	{"smt.intern_hit_ratio", "ratio", "higher", "(count behind encode.build_ms)", "fabric-cold"},
	{"objective.instantiate_ms", "ms", "lower", "latency_p50_ms", "fabric-cold"},
	{"smt.maximize_ms", "ms", "lower", "latency_p50_ms, throughput_per_s", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"smt.alloc_mb", "MB", "lower", "alloc_mb_per_op", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"smt.sat_calls", "count", "lower", "latency_p50_ms", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"sat.conflicts", "count", "lower", "latency_p50_ms", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"sat.decisions", "count", "lower", "latency_p50_ms", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"sat.propagations", "count", "lower", "latency_p50_ms", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"sat.restarts", "count", "lower", "latency_p50_ms", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"sat.props_per_ms", "1/ms", "higher", "latency_p50_ms", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"sat.peak_clause_mb", "MB", "lower", "peak_rss_mb", "fabric-cold (smt and sat take about a third of its layer time)"},
	{"encode.extract_ms", "ms", "lower", "latency_p50_ms (small)", "all"},
	{"encode.apply_ms", "ms", "lower", "latency_p50_ms (small)", "all"},
	{"simulate.validate_ms", "ms", "lower", "latency_p50_ms", "aedd-sessions; negligible on fabric-cold"},
	{"core.dest_parallel_speedup", "ratio", "higher", "latency_p50_ms vs cpu_ms_per_op", "fabric-cold"},
	{"runtime.gc_cycles_per_op", "count", "lower", "latency_p50_ms, cpu_ms_per_op", "fabric-cold"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "latency_p50_ms, cpu_ms_per_op", "fabric-cold"},
	{"config.parse_ms", "ms", "lower", "latency_p50_ms", "aedd-sessions"},
	{"policy.group_ms", "ms", "lower", "latency_p50_ms", "fabric-cold (inside Engine.Solve on aedd-sessions)"},
	{"api.materialize_ms", "ms", "lower", "latency_p50_ms", "aedd-sessions"},
	{"core.hit_ms", "ms", "lower", "latency_p50_ms", "aedd-sessions"},
	{"core.rebind_ms", "ms", "lower", "latency_p50_ms, latency_p95_ms", "aedd-sessions"},
	{"core.reencode_ms", "ms", "lower", "latency_p95_ms", "aedd-sessions"},
	{"core.cache_hit_ratio", "ratio", "higher", "latency_p50_ms", "aedd-sessions"},
	{"core.rebind_ratio", "ratio", "higher", "latency_p95_ms", "aedd-sessions"},
	{"api.from_result_ms", "ms", "lower", "latency_p50_ms", "aedd-sessions"},
	{"api.json_ms", "ms", "lower", "latency_p50_ms", "aedd-sessions"},
	{"service.wire_queue_ms", "ms", "lower", "latency_p95_ms", "aedd-sessions"},
	{"service.rejects", "count", "lower", "ok_frac", "aedd-sessions"},
	{"loadgen.late_p95_ms", "ms", "lower", "none: benchmark health", "aedd-sessions"},
	{"trace.overhead_ratio", "ratio", "lower", "none: tracing overhead of the traced run", "all"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill attaches units to measured values and insists every defined
// metric was measured, so a metric is never silently left out.
func fill(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not defined", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spread summarizes a per-operation sample for the envelope.
type spread struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func spreadOf(xs []float64) spread {
	return spread{N: len(xs), P25: quantile(xs, 0.25), P50: quantile(xs, 0.5), P75: quantile(xs, 0.75)}
}

func ms(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1000 }
