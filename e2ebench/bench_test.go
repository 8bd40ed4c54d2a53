package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"stackless"
)

var tinySizes = sizes{catalogNodes: 2000, messages: 8, subs: 12, jsonMessages: 6, maxMsgUnits: 20}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, tinySizes)
		c, _ := buildWorkload(name, 8, tinySizes)
		same, differ := true, false
		for i := range a.inputs {
			same = same && bytes.Equal(a.inputs[i], b.inputs[i])
			differ = differ || i >= len(c.inputs) || !bytes.Equal(a.inputs[i], c.inputs[i])
		}
		if !same || len(a.inputs) != len(b.inputs) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
		for i := range a.queries {
			if a.queries[i].expr != b.queries[i].expr {
				t.Errorf("%s: query %d differs across runs of seed 7", name, i)
			}
		}
	}
}

func TestZipfStrataSameMultisetPerSeed(t *testing.T) {
	a := zipfStrata(newRand(1, 0), 1.1, 1, 160, 128)
	b := zipfStrata(newRand(2, 0), 1.1, 1, 160, 128)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("strata differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if a[0] != 1 || a[len(a)-1] <= a[len(a)/2] {
		t.Fatalf("strata not Zipf-shaped: %v", a)
	}
}

// Every op of a tiny instance of each workload must agree with the
// oracle through the public API and through the traced layer drivers.
func TestEngineAgreesWithOracleTiny(t *testing.T) {
	for _, name := range workloadNames {
		if name == "catalog-workers" && runtime.GOMAXPROCS(0) < 2 {
			t.Logf("%s: skipped, needs GOMAXPROCS >= 2 to fan out", name)
			continue
		}
		w, err := buildWorkload(name, 3, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		for i := range w.ops {
			if !w.call(&w.ops[i]) {
				t.Errorf("%s: op %d disagrees with the oracle or its pinned tier", name, i)
			}
			matches += len(w.ops[i].want)
		}
		if matches == 0 {
			t.Errorf("%s: no op matches anything", name)
		}
		tr := newTracer(w)
		for i := range w.ops {
			tr.run(&w.ops[i])
		}
		if tr.failed != 0 {
			t.Errorf("%s: %d traced ops disagree with the oracle", name, tr.failed)
		}
		if len(tr.rec.kept) == 0 {
			t.Errorf("%s: traced run kept no spans", name)
		}
	}
}

func TestSubscriptionTemplatesPinTheirTier(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, s := range genSubscriptions(newRand(seed, 4), 64) {
			q, err := stackless.CompileXPath(s.expr, msgVocab)
			if err != nil {
				t.Fatal(err)
			}
			c := q.Classify()
			got := stackless.Stack
			switch {
			case c.Registerless:
				got = stackless.Registerless
			case c.StacklessQuery:
				got = stackless.Stackless
			}
			if got != s.tier {
				t.Errorf("seed %d: %s classifies as %v, template pins %v", seed, s.expr, got, s.tier)
			}
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit, Better string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s: code has %v, BENCHMARK.json has %v", kind, d, l)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, l := range layers {
		if !seen["split."+l] {
			t.Errorf("layer %q has no split metric", l)
		}
	}
}

func TestSelfTimesHandBuiltTree(t *testing.T) {
	// call [0,100]
	//   compile [0,10]
	//   scan [10,40]  with a child [20,30] and an overlapping child [25,35]
	//   emit [90,110] sticks out of call by 10
	spans := []span{
		{ID: 0, Parent: -1, Name: "call", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "compile", Start: 0, End: 10},
		{ID: 2, Parent: 0, Name: "scan", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a", Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: "b", Start: 25, End: 35},
		{ID: 5, Parent: 0, Name: "emit", Start: 90, End: 110},
	}
	want := []int64{100 - 10 - 30 - 10, 10, 30 - 15, 10, 10, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if layerOf("step.pushdown") != "step" || layerOf("scan") != "scan" {
		t.Error("layerOf does not cut at the first dot")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, beyond := percentile(xs, 95); v != 95 || beyond != 5 {
		t.Errorf("p95 of 1..100 = %v with %d beyond, want 95 with 5", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	lat := make([]float64, 5000)
	for i := range lat {
		lat[i] = float64(i%100 + 1)
	}
	for i := 0; i < 1000; i++ { // the first window stalls
		lat[i] *= 50
	}
	tail, windows, beyond := windowedTail(lat, 95)
	if windows != 5 || beyond != 50 || tail != 95 {
		t.Errorf("windowedTail = %v over %d windows (%d beyond), want 95 over 5 (50 beyond)", tail, windows, beyond)
	}
	if _, windows, beyond := windowedTail(lat[:1500], 95); windows != 1 || beyond != 75 {
		t.Errorf("1500 calls at p95: %d windows (%d beyond), want 1 (75 beyond)", windows, beyond)
	}
}
