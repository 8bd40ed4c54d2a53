package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"stackless"
	"stackless/internal/alphabet"
	"stackless/internal/dfa"
	"stackless/internal/rex"
	"stackless/internal/tree"
)

// kind says which public entry point a workload calls and, in the traced
// run, which layer driver mirrors it.
type kind int

const (
	kindSeqXML       kind = iota // Query.SelectXML, Workers=1
	kindParallelXML              // Query.SelectXML, Workers=nproc
	kindMultiXML                 // MultiQuery.SelectXML
	kindEarliestJSON             // Query.SelectJSON, Earliest
)

// hit is one expected or observed match: query index and preorder
// position.
type hit struct{ q, pos int32 }

// querySpec is one compiled query with its expected tier and the
// oracle's automaton, compiled independently of the engine's evaluators.
type querySpec struct {
	expr   string
	tier   stackless.Strategy
	public *stackless.Query
	oracle *dfa.DFA
}

// op is one call of the closed loop: an input, the query it runs (-1: the
// workload's multi-query) and the oracle's answer in emission order.
type op struct {
	input int
	query int
	want  []hit
}

// workload is a generated input set plus the queries and the ops of one
// pass of the closed loop.
type workload struct {
	name    string
	kind    kind
	tailPct float64 // the percentile latency_tail_ms reports
	vocab   []string
	inputs  [][]byte
	trees   []*tree.Node // the inputs' trees, dropped once the oracle has run
	events  []int        // tag events per input
	depth   int          // deepest node of any input
	queries []querySpec
	multi   *stackless.MultiQuery
	ops     []op
	opt     stackless.Options

	// Closures handed to the public API, made once so a call allocates
	// nothing on the benchmark's side.
	chk     *checker
	onMatch func(stackless.Match)
	onMulti func(stackless.MultiMatch)

	// fallbacks counts Stats.Fallback of the Workers>1 calls, so a silent
	// sequential degradation shows in the output.
	fallbacks map[string]int
}

var workloadNames = []string{"catalog", "catalog-workers", "subscriptions", "json-feed"}

// sizes fixes the generated volume of each workload: the catalog's
// elements, the subscription and JSON message pools, and the subscription
// count.
type sizes struct {
	catalogNodes int
	messages     int
	subs         int
	jsonMessages int
	maxMsgUnits  int // message size cap in 200-byte units
}

var fullSizes = sizes{catalogNodes: 57344, messages: 128, subs: 64, jsonMessages: 240, maxMsgUnits: 160}

// buildWorkload generates the named workload's inputs from seed, compiles
// its queries and computes the oracle's answers.
func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "catalog", "catalog-workers":
		w, err = buildCatalog(name, seed, sz)
	case "subscriptions":
		w, err = buildSubscriptions(seed, sz)
	case "json-feed":
		w, err = buildJSONFeed(seed, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	for _, t := range w.trees {
		w.events = append(w.events, 2*t.Size())
		w.depth = max(w.depth, t.Height())
	}
	// The trees would only add to the live heap every GC cycle marks.
	w.trees = nil
	w.chk = &checker{}
	w.fallbacks = map[string]int{}
	w.onMatch = func(m stackless.Match) { w.chk.hit(0, m.Pos) }
	w.onMulti = func(m stackless.MultiMatch) { w.chk.hit(m.Query, m.Pos) }
	return w, nil
}

// compileQuery compiles expr through the public API and, separately, the
// oracle's DFA over the same alphabet: the vocabulary plus the query's own
// symbols, as stackless.CompileRegex builds it.
func compileQuery(expr string, tier stackless.Strategy, vocab []string, jsonPath bool) (querySpec, error) {
	var q *stackless.Query
	var rx string
	var err error
	if jsonPath {
		if q, err = stackless.CompileJSONPath(expr, vocab); err == nil {
			rx, err = stackless.JSONPathToRegex(expr)
		}
	} else {
		if q, err = stackless.CompileXPath(expr, vocab); err == nil {
			rx, err = stackless.XPathToRegex(expr)
		}
	}
	if err != nil {
		return querySpec{}, err
	}
	d, err := oracleDFA(rx, vocab)
	if err != nil {
		return querySpec{}, err
	}
	return querySpec{expr: expr, tier: tier, public: q, oracle: d}, nil
}

func oracleDFA(rx string, vocab []string) (*dfa.DFA, error) {
	node, err := rex.Parse(rx)
	if err != nil {
		return nil, err
	}
	alph := alphabet.New(vocab...)
	for _, s := range node.SymbolNames() {
		alph.Add(s)
	}
	return rex.Compile(node, alph)
}

// want returns query q's oracle answer on tree t.
func wantOne(q int, d *dfa.DFA, t *tree.Node) []hit {
	var out []hit
	for _, p := range tree.SelectQL(d, t) {
		out = append(out, hit{int32(q), int32(p)})
	}
	return out
}

// catalogQueries are one query per tier of the markup encoding.
var catalogQueries = []struct {
	expr string
	tier stackless.Strategy
}{
	{"//discount", stackless.Registerless},
	{"/catalog/item/category//name", stackless.Stackless},
	{"//category/name", stackless.Stack},
}

func buildCatalog(name string, seed int64, sz sizes) (*workload, error) {
	in, root := genCatalog(seed, sz.catalogNodes)
	w := &workload{name: name, kind: kindSeqXML, tailPct: 95, vocab: catalogVocab,
		inputs: [][]byte{in}, trees: []*tree.Node{root}, opt: stackless.Options{Workers: 1}}
	if name == "catalog-workers" {
		w.kind = kindParallelXML
		w.opt.Workers = runtime.NumCPU()
	}
	for i, cq := range catalogQueries {
		s, err := compileQuery(cq.expr, cq.tier, catalogVocab, false)
		if err != nil {
			return nil, err
		}
		w.queries = append(w.queries, s)
		w.ops = append(w.ops, op{input: 0, query: i, want: wantOne(0, s.oracle, root)})
	}
	return w, nil
}

// subTemplates are the subscription shapes, each with the tier it pins
// over msgVocab for any two distinct non-root labels X and Y
// (TestSubscriptionTiers checks this over many seeds).
var subTemplates = []struct {
	format string
	tier   stackless.Strategy
}{
	{"//%[1]s", stackless.Registerless},
	{"/msg//%[1]s", stackless.Registerless},
	{"/msg/%[1]s/%[2]s", stackless.Stackless},
	{"/msg/%[1]s//%[2]s", stackless.Stackless},
	{"//%[1]s//%[2]s", stackless.Stackless},
	{"//%[1]s/%[2]s", stackless.Stack},
}

// subscription is one generated XPath subscription and the tier its
// template pins.
type subscription struct {
	expr string
	tier stackless.Strategy
}

// genSubscriptions draws n subscriptions: the templates in equal shares,
// in a seeded order, over Zipf-popular labels, so popular labels are
// subscribed to most.
func genSubscriptions(r *rand.Rand, n int) []subscription {
	pick := newZipf(r, 1.2, 1, len(msgVocab)-1)
	order := r.Perm(n)
	out := make([]subscription, n)
	for i := range out {
		x := pick.next()
		y := pick.next()
		for y == x {
			y = 1 + r.Intn(len(msgVocab)-1)
		}
		t := subTemplates[order[i]%len(subTemplates)]
		out[i] = subscription{fmt.Sprintf(t.format, msgVocab[x], msgVocab[y]), t.tier}
	}
	return out
}

func buildSubscriptions(seed int64, sz sizes) (*workload, error) {
	w := &workload{name: "subscriptions", kind: kindMultiXML, tailPct: 99, vocab: msgVocab,
		opt: stackless.Options{Workers: 1}}
	r := newRand(seed, 3)
	for _, units := range zipfStrata(r, 1.1, 1, sz.maxMsgUnits, sz.messages) {
		in, t := genMessage(r, 200*units)
		w.inputs = append(w.inputs, in)
		w.trees = append(w.trees, t)
	}
	var pub []*stackless.Query
	for _, sub := range genSubscriptions(newRand(seed, 4), sz.subs) {
		s, err := compileQuery(sub.expr, sub.tier, msgVocab, false)
		if err != nil {
			return nil, err
		}
		w.queries = append(w.queries, s)
		pub = append(pub, s.public)
	}
	mq, err := stackless.NewMultiQuery(pub...)
	if err != nil {
		return nil, err
	}
	w.multi = mq
	for i, t := range w.trees {
		var want []hit
		for q, s := range w.queries {
			want = append(want, wantOne(q, s.oracle, t)...)
		}
		// The multi-query emits in document order, then query order.
		sort.Slice(want, func(a, b int) bool {
			if want[a].pos != want[b].pos {
				return want[a].pos < want[b].pos
			}
			return want[a].q < want[b].q
		})
		w.ops = append(w.ops, op{input: i, query: -1, want: want})
	}
	return w, nil
}

// jsonQueries are one JSONPath query per tier of the term encoding.
var jsonQueries = []struct {
	expr string
	tier stackless.Strategy
}{
	{"$..price", stackless.Registerless},
	{"$..tags..name", stackless.Stackless},
	{"$..x.y", stackless.Stack},
}

func buildJSONFeed(seed int64, sz sizes) (*workload, error) {
	w := &workload{name: "json-feed", kind: kindEarliestJSON, tailPct: 99, vocab: jsonVocab,
		opt: stackless.Options{Workers: 1, Earliest: true}}
	for _, jq := range jsonQueries {
		s, err := compileQuery(jq.expr, jq.tier, jsonVocab, true)
		if err != nil {
			return nil, err
		}
		w.queries = append(w.queries, s)
	}
	r := newRand(seed, 5)
	for i, units := range zipfStrata(r, 1.1, 1, sz.maxMsgUnits/4, sz.jsonMessages) {
		t := genJSONMessage(r, 200*units)
		var b bytes.Buffer
		writeJSON(&b, r, t)
		w.inputs = append(w.inputs, b.Bytes())
		w.trees = append(w.trees, t)
		q := i % len(w.queries)
		w.ops = append(w.ops, op{input: i, query: q, want: wantOne(0, w.queries[q].oracle, t)})
	}
	return w, nil
}

// checker compares the match stream of one call against the oracle as it
// arrives, without allocating, and stamps the first match.
type checker struct {
	want  []hit
	n     int
	bad   bool
	start time.Time
	first time.Duration // -1 until the first match
}

func (c *checker) reset(want []hit) {
	c.want, c.n, c.bad, c.first = want, 0, false, -1
	c.start = time.Now()
}

func (c *checker) hit(q, pos int) {
	if c.n == 0 {
		c.first = time.Since(c.start)
	}
	if c.n >= len(c.want) || c.want[c.n] != (hit{int32(q), int32(pos)}) {
		c.bad = true
	}
	c.n++
}

func (c *checker) ok() bool { return !c.bad && c.n == len(c.want) }

// call runs op o through the public API and reports whether it succeeded:
// no error, matches identical to the oracle in positions and order, every
// query on its expected tier, and — for catalog-workers — a real fan-out.
// The checker holds the call's start and first-match times.
func (w *workload) call(o *op) bool {
	c := w.chk
	c.reset(o.want)
	switch w.kind {
	case kindMultiXML:
		st, err := w.multi.SelectXML(bytes.NewReader(w.inputs[o.input]), w.opt, w.onMulti)
		if err != nil || !c.ok() || st.ProductGroups < 1 {
			return false
		}
		for i, s := range w.queries {
			if st.Strategies[i] != s.tier {
				return false
			}
		}
		return true
	case kindEarliestJSON:
		s := &w.queries[o.query]
		st, err := s.public.SelectJSON(bytes.NewReader(w.inputs[o.input]), w.opt, w.onMatch)
		return err == nil && c.ok() && st.Strategy == s.tier
	default:
		s := &w.queries[o.query]
		st, err := s.public.SelectXML(bytes.NewReader(w.inputs[o.input]), w.opt, w.onMatch)
		if err != nil || !c.ok() || st.Strategy != s.tier {
			return false
		}
		if w.kind != kindParallelXML {
			return true
		}
		w.fallbacks[st.Fallback]++
		return st.Chunks > 1
	}
}
