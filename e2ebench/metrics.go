package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. moves says which end-to-end metric
// a per-layer metric should move, and on which workloads.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics of the untraced run (--trace 0), reported for
// every workload. error_rate is not among them: it is 0 on a correct
// engine, so it travels as the result's attempted/failed counts and is
// printed on its own line.
var endToEnd = []metricDef{
	{"throughput_mbps", "MB/s", "higher", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_tail_ms", "ms", "lower", ""},
	{"first_match_p50_ms", "ms", "lower", ""},
	{"alloc_kb_per_mb", "KB/MB", "lower", ""},
	{"setup_s", "s", "lower", ""},
}

// perLayer are the metrics of the traced run (--trace 1). A layer that does
// not run on a workload reports 0 for its metrics there.
var perLayer = []metricDef{
	{"compile.query_us", "us", "lower", "setup_s (all)"},
	{"compile.evaluator_us", "us", "lower", "latency_p50_ms (subscriptions, json-feed)"},
	{"scan.ns_per_event", "ns", "lower", "throughput_mbps (catalog), latency_p50_ms (json-feed)"},
	{"scan.mbps", "MB/s", "higher", "throughput_mbps (catalog), latency_p50_ms (json-feed)"},
	{"scan.allocs_per_call", "count", "lower", "alloc_kb_per_mb (subscriptions, json-feed)"},
	{"code.ns_per_event", "ns", "lower", "throughput_mbps (catalog)"},
	{"code.passes_per_event", "count", "lower", "latency_p50_ms (subscriptions)"},
	{"code.distinct_labels", "count", "lower", ""},
	{"code.unknown_ratio", "ratio", "lower", ""},
	{"step.registerless_ns_per_event", "ns", "lower", "throughput_mbps (catalog)"},
	{"step.stackless_ns_per_event", "ns", "lower", "throughput_mbps (catalog)"},
	{"step.pushdown_ns_per_event", "ns", "lower", "throughput_mbps (catalog)"},
	{"step.earliest_ns_per_event", "ns", "lower", "latency_p50_ms (json-feed)"},
	{"step.max_depth", "count", "lower", ""},
	{"emit.ns_per_match", "ns", "lower", "latency_p50_ms (all)"},
	{"emit.matches_per_call", "count", "higher", ""},
	{"emit.first_match_event_delay", "events", "lower", "first_match_p50_ms (catalog, json-feed)"},
	{"product.plan_us", "us", "lower", "latency_p50_ms (subscriptions)"},
	{"product.step_ns_per_event", "ns", "lower", "throughput_mbps (subscriptions)"},
	{"product.groups", "count", "higher", ""},
	{"product.loose", "count", "lower", ""},
	{"product.cache_hit_ratio", "ratio", "higher", ""},
	{"parallel.buffer_ms", "ms", "lower", "first_match_p50_ms (catalog-workers)"},
	{"parallel.split_us", "us", "lower", "latency_p50_ms (catalog-workers)"},
	{"parallel.select_ms", "ms", "lower", "throughput_mbps (catalog-workers)"},
	{"parallel.seq_ms", "ms", "lower", "throughput_mbps (catalog-workers)"},
	{"parallel.speedup", "ratio", "higher", "throughput_mbps (catalog-workers)"},
	{"parallel.chunks", "count", "higher", "throughput_mbps (catalog-workers)"},
	{"parallel.fallback.speculative", "count", "lower", "throughput_mbps (catalog-workers)"},
	{"parallel.fallback.deep", "count", "lower", "throughput_mbps (catalog-workers)"},
	{"parallel.fallback.short", "count", "lower", "throughput_mbps (catalog-workers)"},
	{"parallel.fallback.cutall", "count", "lower", "throughput_mbps (catalog-workers)"},
	{"parallel.boundary_ratio", "ratio", "lower", "throughput_mbps (catalog-workers)"},
	{"gc.cycles_per_call", "count", "lower", "latency_tail_ms (all)"},
	{"gc.pause_ms", "ms", "lower", "latency_tail_ms (all)"},
	{"heap.alloc_bytes_per_event", "B", "lower", "alloc_kb_per_mb (all)"},
	{"heap.retained_bytes_per_call", "B", "lower", "latency_tail_ms (subscriptions)"},
	{"trace.coverage_ratio", "ratio", "higher", ""},
	{"trace.overhead_ratio", "ratio", "lower", ""},
	{"split.compile", "ratio", "lower", "latency_p50_ms (subscriptions, json-feed)"},
	{"split.plan", "ratio", "lower", "latency_p50_ms (subscriptions)"},
	{"split.scan", "ratio", "lower", "throughput_mbps (catalog)"},
	{"split.buffer", "ratio", "lower", "first_match_p50_ms (catalog-workers)"},
	{"split.split", "ratio", "lower", "latency_p50_ms (catalog-workers)"},
	{"split.code", "ratio", "lower", "throughput_mbps (catalog)"},
	{"split.step", "ratio", "lower", "throughput_mbps (catalog, subscriptions)"},
	{"split.parallel", "ratio", "lower", "throughput_mbps (catalog-workers)"},
	{"split.emit", "ratio", "lower", "latency_p50_ms (all)"},
	{"split.call", "ratio", "lower", ""},
}

// layers are the span layers the split.* metrics partition call time into;
// "call" is the call span's own self time, the part no layer span covers.
var layers = []string{"compile", "plan", "scan", "buffer", "split", "code", "step", "parallel", "emit", "call"}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie above it; xs is sorted in place.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	i = min(max(i, 0), len(xs)-1)
	return xs[i], len(xs) - 1 - i
}

// tailWindowBeyond is the fewest calls beyond the percentile a tail window
// keeps: with fewer, one window's percentile is noisier than the stalls
// windowing guards against.
const tailWindowBeyond = 50

// windowedTail splits the calls, in call order, into up to five equal
// windows — as many as keep tailWindowBeyond calls beyond the percentile
// in each — and returns the median of the windows' p-th percentiles, the
// window count and the fewest calls beyond the percentile in a window. A
// stall of the host that hits a minority of the run moves one window's
// tail, not the reported one.
func windowedTail(lat []float64, p float64) (tail float64, windows, beyond int) {
	n := len(lat)
	windows = min(5, max(1, int(float64(n)*(1-p/100))/tailWindowBeyond))
	size := n / windows
	tails := make([]float64, 0, windows)
	beyond = n
	for i := 0; i < windows; i++ {
		v, b := percentile(append([]float64(nil), lat[i*size:(i+1)*size]...), p)
		tails = append(tails, v)
		beyond = min(beyond, b)
	}
	return median(tails), windows, beyond
}
