// Command e2ebench is the repository's end-to-end benchmark: bytes in to
// matches out through the public API (Query.SelectXML/SelectJSON and
// MultiQuery.SelectXML), with every result checked against the
// internal/tree oracle.
//
// It generates one workload's inputs from a seed, runs them in a closed
// loop (one caller goroutine making back-to-back calls) for a fixed time
// and prints the end-to-end metrics; with -trace 1 it instead drives each
// layer's exported functions itself, records spans around them and prints
// the per-layer split. The last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash e2ebench/run.sh --workload catalog --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// The untraced run sets up at least minSetups times and until setupTime
// has passed, at most maxSetups times; setup_s is the median.
const (
	minSetups = 5
	maxSetups = 15
	setupTime = 1500 * time.Millisecond
)

func main() {
	name := flag.String("workload", "catalog", "workload: catalog, catalog-workers, subscriptions or json-feed")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 20, "measured run length in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory for the traced run's span dump")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(*name, *seed, d, *traceDir)
	} else {
		res, err = runEndToEnd(*name, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setUp builds the workload and warms it: one pass of every op fills the
// engine's lazy compiles and the product cache. A full GC first keeps an
// earlier set-up's garbage out of the timing.
func setUp(name string, seed int64) (*workload, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := buildWorkload(name, seed, fullSizes)
	if err != nil {
		return nil, 0, err
	}
	for i := range w.ops {
		w.call(&w.ops[i])
	}
	return w, time.Since(t0), nil
}

// loopResult is what one closed-loop run measured.
type loopResult struct {
	calls, failed int
	bytes, events int64
	lat           []float64 // per call, ms
	first         []float64 // per matching call, ms to the first match
	passMBps      []float64 // per full pass over the ops
	elapsed       time.Duration
	mem0, mem1    runtime.MemStats
	retained      int64 // live heap growth over the run, after a full GC
}

// closedLoop runs whole passes over the workload's ops, back to back on
// this goroutine, until d has elapsed.
func closedLoop(w *workload, d time.Duration) *loopResult {
	r := &loopResult{lat: make([]float64, 0, 1<<16), first: make([]float64, 0, 1<<16), passMBps: make([]float64, 0, 1<<12)}
	runtime.GC()
	runtime.ReadMemStats(&r.mem0)
	start := time.Now()
	for time.Since(start) < d {
		passStart := time.Now()
		var passBytes int64
		for i := range w.ops {
			o := &w.ops[i]
			ok := w.call(o)
			lat := time.Since(w.chk.start)
			r.calls++
			if !ok {
				r.failed++
			}
			n := int64(len(w.inputs[o.input]))
			passBytes += n
			r.bytes += n
			r.events += int64(w.events[o.input])
			r.lat = append(r.lat, ms(lat))
			if w.chk.first >= 0 {
				r.first = append(r.first, ms(w.chk.first))
			}
		}
		r.passMBps = append(r.passMBps, float64(passBytes)/1e6/time.Since(passStart).Seconds())
	}
	r.elapsed = time.Since(start)
	runtime.ReadMemStats(&r.mem1)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.retained = int64(after.HeapAlloc) - int64(r.mem0.HeapAlloc)
	return r
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func runEndToEnd(name string, seed int64, d time.Duration) (result, error) {
	var w *workload
	var setups []float64
	for t0 := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(t0) < setupTime); {
		var took time.Duration
		var err error
		if w, took, err = setUp(name, seed); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	r := closedLoop(w, d)
	mb := float64(r.bytes) / 1e6
	tail, windows, beyond := windowedTail(r.lat, w.tailPct)
	m := map[string]float64{
		"throughput_mbps":    median(r.passMBps),
		"latency_p50_ms":     median(append([]float64(nil), r.lat...)),
		"latency_tail_ms":    tail,
		"first_match_p50_ms": median(r.first),
		"alloc_kb_per_mb":    float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / 1e3 / mb,
		"setup_s":            median(setups),
	}
	fmt.Printf("# %s seed=%d: %d calls in %d passes over %.1fs, %.2f MB, %d events, GOMAXPROCS=%d, workers=%d\n",
		name, seed, r.calls, len(r.passMBps), r.elapsed.Seconds(), mb, r.events, runtime.GOMAXPROCS(0), w.opt.Workers)
	fmt.Printf("# setup_s is the median of %d set-ups\n", len(setups))
	fmt.Printf("# latency_tail_ms is the median over %d windows of %d calls of each window's p%g (>= %d calls beyond it)\n",
		windows, len(r.lat)/windows, w.tailPct, beyond)
	if w.kind == kindParallelXML {
		fmt.Printf("# Stats.Fallback counts (\"\" = exact fan-out), warm-up included: %v\n", w.fallbacks)
	}
	fmt.Printf("%-22s %12.6f\n", "error_rate", float64(r.failed)/float64(r.calls))
	res := result{Correct: r.failed == 0, Attempted: r.calls, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, def := range endToEnd {
		res.Metrics[def.name] = metricValue{m[def.name], def.unit}
		fmt.Printf("%-22s %12.6f %s\n", def.name, m[def.name], def.unit)
	}
	return res, nil
}
