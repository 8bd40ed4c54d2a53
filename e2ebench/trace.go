package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"stackless"
	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/obs"
	"stackless/internal/parallel"
	"stackless/internal/product"
	"stackless/internal/stackeval"
)

// The traced run drives each layer's exported functions itself, in the
// order the public entry point calls them, and records a span around each
// call from this file: call → compile, scan, code, step.<tier>, emit, plus
// plan (MultiQuery) and buffer/split/parallel (Workers>1). Spans stay in
// memory; the first dumpOps ops' spans are written out as JSON at exit.

// dumpOps is how many ops' spans the span dump keeps.
const dumpOps = 64

// span is one traced interval. IDs are per op while recording and global
// in the dump; Parent is -1 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects the current op's spans.
type recorder struct {
	epoch time.Time
	op    int
	cur   []span
	kept  []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) begin(name string, parent int) int {
	r.cur = append(r.cur, span{ID: len(r.cur), Parent: parent, Op: r.op, Name: name, Start: r.now()})
	return len(r.cur) - 1
}

func (r *recorder) end(i int) { r.cur[i].End = r.now() }

// next closes the current op, keeping its spans for the dump while fewer
// than dumpOps ops are kept.
func (r *recorder) next() {
	if r.op < dumpOps {
		base := len(r.kept)
		for _, s := range r.cur {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			r.kept = append(r.kept, s)
		}
	}
	r.cur = r.cur[:0]
	r.op++
}

// selfTimes returns each span's duration minus the part of its interval
// covered by the union of its children's intervals. Spans are indexed by
// ID; children may overlap each other or stick out of their parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered, lo, hi int64
		open := false
		for _, k := range ks {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b <= a {
				continue
			}
			if open && a <= hi {
				hi = max(hi, b)
				continue
			}
			if open {
				covered += hi - lo
			}
			lo, hi, open = a, b, true
		}
		if open {
			covered += hi - lo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

var stepSpan = map[stackless.Strategy]string{
	stackless.Registerless: "step.registerless",
	stackless.Stackless:    "step.stackless",
	stackless.Stack:        "step.pushdown",
}

// evaluatorFor picks a query's machine exactly as the public API does for
// each call: the cheapest tier whose constructor succeeds.
func evaluatorFor(an *classify.Analysis, term bool) (core.Evaluator, stackless.Strategy) {
	if term {
		if tag, err := core.BlindRegisterlessQL(an); err == nil {
			return tag.Evaluator(), stackless.Registerless
		}
		if ev, err := core.BlindStacklessQL(an); err == nil {
			return ev, stackless.Stackless
		}
	} else {
		if tag, err := core.RegisterlessQL(an); err == nil {
			return tag.Evaluator(), stackless.Registerless
		}
		if ev, err := core.StacklessQL(an); err == nil {
			return ev, stackless.Stackless
		}
	}
	return stackeval.QL(an.D), stackless.Stack
}

// tracer runs traced ops and accumulates the per-layer measurements.
type tracer struct {
	rec recorder
	w   *workload
	an  []*classify.Analysis // per query, compiled apart from the public Query
	col *obs.Collector

	// Per traced call.
	callNs, layerNs, compileNs, planNs   []float64
	bufferNs, splitNs, selectNs, seqNs   []float64
	firstDelay, chunks, groups, looseCnt []float64

	// Totals over the traced calls.
	calls, failed, events, bytes, matches int64
	codedEvents, productEvents            int64
	self                                  map[string]int64 // self time by span name, under call spans
	stepped                               map[string]int64 // events stepped by step span name
	fallbacks                             map[string]int64

	// Scratch reused across calls.
	batch  []encoding.Event
	coded  [][]encoding.CodedEvent
	hits   [][]int32
	ghits  [][]int32
	gmasks [][]uint64
	next   []int
	evs    []core.Evaluator
	tiers  []stackless.Strategy
	got    []int // match positions collected inside a layer, emitted after it
	at     []int // events consumed when each collected match arrived
}

func newTracer(w *workload) *tracer {
	t := &tracer{w: w, col: &obs.Collector{}, rec: recorder{epoch: time.Now()},
		self: map[string]int64{}, stepped: map[string]int64{}, fallbacks: map[string]int64{}}
	for _, s := range w.queries {
		t.an = append(t.an, classify.Analyze(s.oracle))
	}
	n := len(w.queries)
	t.coded = make([][]encoding.CodedEvent, n)
	t.hits = make([][]int32, n)
	t.next = make([]int, n)
	t.evs = make([]core.Evaluator, n)
	t.tiers = make([]stackless.Strategy, n)
	return t
}

// fill reads the next batch of up to encoding.DefaultBatch events and
// counts its opens.
func (t *tracer) fill(src encoding.Source) ([]encoding.Event, int, error) {
	t.batch = t.batch[:0]
	opens := 0
	for len(t.batch) < encoding.DefaultBatch {
		e, err := src.Next()
		if err != nil {
			return t.batch, opens, err
		}
		if e.Kind == encoding.Open {
			opens++
		}
		t.batch = append(t.batch, e)
	}
	return t.batch, opens, nil
}

// run traces one op and folds its spans into the totals.
func (t *tracer) run(o *op) {
	c := t.w.chk
	c.reset(o.want)
	var ok bool
	switch t.w.kind {
	case kindSeqXML:
		ok = t.seqXML(o)
	case kindParallelXML:
		ok = t.parallelXML(o)
	case kindMultiXML:
		ok = t.multiXML(o)
	case kindEarliestJSON:
		ok = t.earliestJSON(o)
	}
	t.calls++
	if !ok || !c.ok() {
		t.failed++
	}
	t.events += int64(t.w.events[o.input])
	t.bytes += int64(len(t.w.inputs[o.input]))
	t.matches += int64(c.n)

	spans := t.rec.cur
	self := selfTimes(spans)
	var layerSum, compile, plan int64
	for i, s := range spans {
		switch {
		case s.Name == "call":
			t.callNs = append(t.callNs, float64(s.End-s.Start))
			t.self["call"] += self[i]
		case s.Name == "base":
			t.seqNs = append(t.seqNs, float64(s.End-s.Start))
		default:
			t.self[s.Name] += self[i]
			layerSum += self[i]
			switch s.Name {
			case "compile":
				compile += self[i]
			case "plan":
				plan += self[i]
			case "buffer":
				t.bufferNs = append(t.bufferNs, float64(self[i]))
			case "split":
				t.splitNs = append(t.splitNs, float64(self[i]))
			case "parallel":
				t.selectNs = append(t.selectNs, float64(self[i]))
			}
		}
	}
	t.layerNs = append(t.layerNs, float64(layerSum))
	t.compileNs = append(t.compileNs, float64(compile))
	if t.w.kind == kindMultiXML {
		t.planNs = append(t.planNs, float64(plan))
	}
	t.rec.next()
}

func (t *tracer) noteFirst(delay int) {
	if delay >= 0 {
		t.firstDelay = append(t.firstDelay, float64(delay))
	}
}

// openIndex returns the index in events of the Open of preorder position
// pos.
func openIndex(events []encoding.Event, pos int) int {
	for i, e := range events {
		if e.Kind == encoding.Open {
			if pos == 0 {
				return i
			}
			pos--
		}
	}
	return -1
}

// seqXML mirrors Query.SelectXML with Workers=1: the coded batch pipeline.
func (t *tracer) seqXML(o *op) bool {
	r, c := &t.rec, t.w.chk
	call := r.begin("call", -1)
	sp := r.begin("compile", call)
	ev, tier := evaluatorFor(t.an[o.query], false)
	be, coded := ev.(core.BatchEvaluator)
	if coded {
		be.Reset()
	}
	r.end(sp)
	if !coded || tier != t.w.queries[o.query].tier {
		r.end(call)
		return false
	}
	sp = r.begin("code", call)
	coder := alphabet.NewCoder(be.CodeAlphabet())
	r.end(sp)
	sp = r.begin("scan", call)
	src := encoding.CheckBalance(t.w.scanner(o.input))
	r.end(sp)
	step := stepSpan[tier]
	pos, delay := -1, -1
	for {
		sp = r.begin("scan", call)
		batch, opens, err := t.fill(src)
		r.end(sp)
		if len(batch) > 0 {
			sp = r.begin("code", call)
			t.coded[0] = encoding.CodeEvents(coder, batch, t.coded[0][:0])
			r.end(sp)
			sp = r.begin(step, call)
			t.hits[0] = be.SelectBatch(t.coded[0], t.hits[0][:0])
			r.end(sp)
			sp = r.begin("emit", call)
			k, prev := 0, 0
			for _, h := range t.hits[0] {
				for j := prev; j < int(h); j++ {
					k += 1 - int(t.coded[0][j].Kind)
				}
				k++
				prev = int(h) + 1
				c.hit(0, pos+k)
			}
			r.end(sp)
			if delay < 0 && len(t.hits[0]) > 0 {
				delay = len(batch) - 1 - int(t.hits[0][0])
			}
			pos += opens
			t.stepped[step] += int64(len(batch))
			t.codedEvents += int64(len(batch))
		}
		if err != nil {
			r.end(call)
			t.noteFirst(delay)
			return err == io.EOF
		}
	}
}

// fallbackReason mirrors how the public API qualifies a Workers>1 run.
func fallbackReason(policy core.CutPolicy, cuts []int, events []encoding.Event) string {
	switch {
	case policy == core.CutAll:
		return "cutall"
	case len(cuts) == 0:
		return "short"
	case policy == core.CutBoundedDepth && !parallel.SpeculationViable(events, len(cuts)+1):
		return "deep"
	case policy == core.CutBoundedDepth:
		return "speculative"
	}
	return ""
}

// parallelXML mirrors Query.SelectXML with Workers>1: buffer the whole
// stream, split it, select chunk-parallel, then emit. A base span outside
// the call times the sequential coded select over the same buffered events.
func (t *tracer) parallelXML(o *op) bool {
	r, c := &t.rec, t.w.chk
	call := r.begin("call", -1)
	sp := r.begin("compile", call)
	ev, tier := evaluatorFor(t.an[o.query], false)
	cm, chunkable := ev.(core.Chunkable)
	r.end(sp)
	if !chunkable || tier != t.w.queries[o.query].tier {
		r.end(call)
		return false
	}
	sp = r.begin("buffer", call)
	events, err := encoding.ReadAll(encoding.CheckBalance(t.w.scanner(o.input)))
	r.end(sp)
	if err != nil {
		r.end(call)
		return false
	}
	sp = r.begin("split", call)
	workers := t.w.opt.Workers
	cuts := parallel.SplitPoints(len(events), workers)
	reason := fallbackReason(cm.Cut(), cuts, events)
	r.end(sp)
	chunks0 := t.col.Chunks.Load()
	t.got = t.got[:0]
	sp = r.begin("parallel", call)
	parallel.SelectObs(parallel.Shared(), cm, events, workers, t.col, func(m core.Match) { t.got = append(t.got, m.Pos) })
	r.end(sp)
	sp = r.begin("emit", call)
	for _, p := range t.got {
		c.hit(0, p)
	}
	r.end(sp)
	r.end(call)

	t.fallbacks[reason]++
	t.chunks = append(t.chunks, float64(t.col.Chunks.Load()-chunks0))
	if len(t.got) > 0 {
		t.noteFirst(len(events) - 1 - openIndex(events, t.got[0]))
	}
	sp = r.begin("base", -1)
	_, err = core.SelectCoded(ev, encoding.NewSliceSource(events), func(core.Match) {})
	r.end(sp)
	return err == nil
}

// multiXML mirrors MultiQuery.SelectXML's sequential coded pass: every
// query's machine, the product plan, then per batch one coding pass per
// product group and loose machine, the steps, and the demultiplexed,
// (position, query)-ordered emission.
func (t *tracer) multiXML(o *op) bool {
	r := &t.rec
	call := r.begin("call", -1)
	sp := r.begin("compile", call)
	ok := true
	for i, an := range t.an {
		t.evs[i], t.tiers[i] = evaluatorFor(an, false)
		t.evs[i].Reset()
		ok = ok && t.tiers[i] == t.w.queries[i].tier
	}
	r.end(sp)
	sp = r.begin("plan", call)
	plan := product.BuildPlan(t.evs, product.Shared(), 0, t.col)
	r.end(sp)
	sp = r.begin("compile", call)
	loose, groups := plan.Loose, plan.Groups
	bes := make([]core.BatchEvaluator, len(loose))
	coders := make([]*alphabet.Coder, len(loose))
	for li, q := range loose {
		be, coded := t.evs[q].(core.BatchEvaluator)
		if !coded {
			r.end(sp)
			r.end(call)
			return false
		}
		bes[li] = be
		coders[li] = alphabet.NewCoder(be.CodeAlphabet())
	}
	gevs := make([]*core.ProductEvaluator, len(groups))
	gcoders := make([]*alphabet.Coder, len(groups))
	for gi, g := range groups {
		gevs[gi] = g.Machine.Evaluator()
		gcoders[gi] = alphabet.NewCoder(g.Machine.Alphabet())
	}
	for len(t.ghits) < len(groups) {
		t.ghits = append(t.ghits, nil)
		t.gmasks = append(t.gmasks, nil)
	}
	r.end(sp)
	t.groups = append(t.groups, float64(len(groups)))
	t.looseCnt = append(t.looseCnt, float64(len(loose)))
	sp = r.begin("scan", call)
	src := encoding.CheckBalance(t.w.scanner(o.input))
	r.end(sp)
	pos, delay := -1, -1
	for {
		sp = r.begin("scan", call)
		batch, _, err := t.fill(src)
		r.end(sp)
		if len(batch) > 0 {
			// Loose machines use t.coded[0:len(loose)], groups the slots
			// after them.
			sp = r.begin("code", call)
			for li := range loose {
				t.coded[li] = encoding.CodeEvents(coders[li], batch, t.coded[li][:0])
			}
			for gi := range groups {
				t.coded[len(loose)+gi] = encoding.CodeEvents(gcoders[gi], batch, t.coded[len(loose)+gi][:0])
			}
			r.end(sp)
			for li, q := range loose {
				step := stepSpan[t.tiers[q]]
				sp = r.begin(step, call)
				t.hits[q] = bes[li].SelectBatch(t.coded[li], t.hits[q][:0])
				r.end(sp)
				t.stepped[step] += int64(len(batch))
			}
			for gi := range groups {
				sp = r.begin("step.product", call)
				t.ghits[gi], t.gmasks[gi] = gevs[gi].SelectBatchMasks(t.coded[len(loose)+gi], t.ghits[gi][:0], t.gmasks[gi][:0])
				r.end(sp)
				t.productEvents += int64(len(batch))
			}
			sp = r.begin("emit", call)
			first := t.demux(groups, batch, &pos)
			r.end(sp)
			if delay < 0 && first >= 0 {
				delay = len(batch) - 1 - first
			}
			t.codedEvents += int64(len(batch) * (len(loose) + len(groups)))
		}
		if err != nil {
			r.end(call)
			t.noteFirst(delay)
			return ok && err == io.EOF
		}
	}
}

// demux spreads the groups' hit masks over per-query hit lists, then
// replays the batch's opens and emits in (position, query) order, as the
// sequential multi-query pass does. It returns the batch index of the
// first hit, or -1.
func (t *tracer) demux(groups []product.Group, batch []encoding.Event, pos *int) int {
	c := t.w.chk
	for gi, g := range groups {
		for _, q := range g.Queries {
			t.hits[q] = t.hits[q][:0]
		}
		words := g.Machine.MaskWords()
		for h, j := range t.ghits[gi] {
			for wi, word := range t.gmasks[gi][h*words : (h+1)*words] {
				for word != 0 {
					q := g.Queries[wi*64+bits.TrailingZeros64(word)]
					word &= word - 1
					t.hits[q] = append(t.hits[q], j)
				}
			}
		}
	}
	first := -1
	for q := range t.next {
		t.next[q] = 0
		if len(t.hits[q]) > 0 && (first < 0 || int(t.hits[q][0]) < first) {
			first = int(t.hits[q][0])
		}
	}
	if first < 0 {
		for _, e := range batch {
			if e.Kind == encoding.Open {
				*pos++
			}
		}
		return -1
	}
	for j, e := range batch {
		if e.Kind != encoding.Open {
			continue
		}
		*pos++
		for q := range t.next {
			if t.next[q] < len(t.hits[q]) && t.hits[q][t.next[q]] == int32(j) {
				t.next[q]++
				c.hit(q, *pos)
			}
		}
	}
	return first
}

// earliestJSON mirrors Query.SelectJSON with Earliest: the per-event
// earliest driver over the JSON bridge. The scan layer buffers the
// message's events first so the step layer can be timed on its own;
// matches collected during the step are emitted after it, and each one's
// event delay is read from a counting source at its callback.
func (t *tracer) earliestJSON(o *op) bool {
	r, c := &t.rec, t.w.chk
	call := r.begin("call", -1)
	sp := r.begin("compile", call)
	ev, tier := evaluatorFor(t.an[o.query], true)
	r.end(sp)
	if tier != t.w.queries[o.query].tier {
		r.end(call)
		return false
	}
	sp = r.begin("scan", call)
	events, err := encoding.ReadAll(encoding.CheckBalance(t.w.scanner(o.input)))
	r.end(sp)
	if err != nil {
		r.end(call)
		return false
	}
	t.got, t.at = t.got[:0], t.at[:0]
	cs := encoding.Counting(encoding.NewSliceSource(events))
	step := stepSpan[tier]
	sp = r.begin(step, call)
	_, err = core.SelectEarliestObs(ev, nil, cs, func(m core.Match) {
		t.got = append(t.got, m.Pos)
		t.at = append(t.at, cs.Consumed())
	})
	r.end(sp)
	sp = r.begin("emit", call)
	for _, p := range t.got {
		c.hit(0, p)
	}
	r.end(sp)
	r.end(call)
	t.stepped[step] += int64(len(events))
	if len(t.got) > 0 {
		t.noteFirst(t.at[0] - 1 - openIndex(events, t.got[0]))
	}
	return err == nil
}

// runTraced sets the workload up once, measures untraced calls for a third
// of d (the base of the coverage and overhead ratios, and the GC and heap
// figures), traces calls for half of d, then probes the scan allocations
// and the label statistics, and writes the span dump.
func runTraced(name string, seed int64, d time.Duration, dir string) (result, error) {
	w, _, err := setUp(name, seed)
	if err != nil {
		return result{}, err
	}
	var compileUs []float64
	for _, s := range w.queries {
		t0 := time.Now()
		if w.kind == kindEarliestJSON {
			_, err = stackless.CompileJSONPath(s.expr, w.vocab)
		} else {
			_, err = stackless.CompileXPath(s.expr, w.vocab)
		}
		if err != nil {
			return result{}, err
		}
		compileUs = append(compileUs, float64(time.Since(t0))/1e3)
	}

	base := closedLoop(w, d/3)
	t := newTracer(w)
	for i := range w.ops { // warm the tracer's own compiles and scratch
		t.run(&w.ops[i])
	}
	t = newTracer(w)
	start := time.Now()
	for time.Since(start) < d/2 {
		for i := range w.ops {
			t.run(&w.ops[i])
		}
	}

	m := t.metrics(base)
	m["compile.query_us"] = median(compileUs)
	m["scan.allocs_per_call"] = scanAllocs(w)
	m["code.distinct_labels"], m["code.unknown_ratio"] = labelStats(w)
	m["step.max_depth"] = float64(w.depth)

	if err := writeSpans(dir, name, seed, t.rec.kept); err != nil {
		return result{}, err
	}
	fmt.Printf("# %s seed=%d traced: %d calls (%d failed), untraced base: %d calls, GOMAXPROCS=%d\n",
		name, seed, t.calls, t.failed, base.calls, runtime.GOMAXPROCS(0))
	res := result{Correct: t.failed == 0 && base.failed == 0, Attempted: int(t.calls) + base.calls,
		Failed: int(t.failed) + base.failed, Metrics: map[string]metricValue{}}
	for _, def := range perLayer {
		res.Metrics[def.name] = metricValue{m[def.name], def.unit}
		fmt.Printf("%-32s %14.4f %-6s %s\n", def.name, m[def.name], def.unit, def.moves)
	}
	return res, nil
}

// metrics turns the traced totals, and the untraced base run, into the
// per-layer metrics.
func (t *tracer) metrics(base *loopResult) map[string]float64 {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ev := float64(t.events)
	layer := map[string]float64{}
	var total float64
	for name, ns := range t.self {
		layer[layerOf(name)] += float64(ns)
		total += float64(ns)
	}
	scanNs := float64(t.self["scan"] + t.self["buffer"])
	var stepNs float64
	for _, s := range stepSpan {
		stepNs += float64(t.self[s])
	}
	untracedCall := median(append([]float64(nil), base.lat...)) * 1e6
	m := map[string]float64{
		"compile.evaluator_us":           median(t.compileNs) / 1e3,
		"scan.ns_per_event":              div(scanNs, ev),
		"scan.mbps":                      div(float64(t.bytes)/1e6, scanNs/1e9),
		"code.ns_per_event":              div(float64(t.self["code"]), float64(t.codedEvents)),
		"code.passes_per_event":          div(float64(t.codedEvents), ev),
		"step.registerless_ns_per_event": div(float64(t.self["step.registerless"]), float64(t.stepped["step.registerless"])),
		"step.stackless_ns_per_event":    div(float64(t.self["step.stackless"]), float64(t.stepped["step.stackless"])),
		"step.pushdown_ns_per_event":     div(float64(t.self["step.pushdown"]), float64(t.stepped["step.pushdown"])),
		"emit.ns_per_match":              div(float64(t.self["emit"]), float64(t.matches)),
		"emit.matches_per_call":          div(float64(t.matches), float64(t.calls)),
		"emit.first_match_event_delay":   median(t.firstDelay),
		"product.plan_us":                median(t.planNs) / 1e3,
		"product.step_ns_per_event":      div(float64(t.self["step.product"]), float64(t.productEvents)),
		"product.groups":                 median(t.groups),
		"product.loose":                  median(t.looseCnt),
		"parallel.buffer_ms":             median(t.bufferNs) / 1e6,
		"parallel.split_us":              median(t.splitNs) / 1e3,
		"parallel.select_ms":             median(t.selectNs) / 1e6,
		"parallel.seq_ms":                median(t.seqNs) / 1e6,
		"parallel.speedup":               div(median(t.seqNs), median(t.selectNs)),
		"parallel.chunks":                median(t.chunks),
		"parallel.fallback.speculative":  float64(t.fallbacks["speculative"]),
		"parallel.fallback.deep":         float64(t.fallbacks["deep"]),
		"parallel.fallback.short":        float64(t.fallbacks["short"]),
		"parallel.fallback.cutall":       float64(t.fallbacks["cutall"]),
		"parallel.boundary_ratio":        div(float64(t.col.BoundaryEvents.Load()), float64(t.col.Events.Load())),
		"gc.cycles_per_call":             div(float64(base.mem1.NumGC-base.mem0.NumGC), float64(base.calls)),
		"gc.pause_ms":                    div(float64(base.mem1.PauseTotalNs-base.mem0.PauseTotalNs)/1e6, float64(base.mem1.NumGC-base.mem0.NumGC)),
		"heap.alloc_bytes_per_event":     div(float64(base.mem1.TotalAlloc-base.mem0.TotalAlloc), float64(base.events)),
		"heap.retained_bytes_per_call":   div(float64(base.retained), float64(base.calls)),
		"trace.coverage_ratio":           div(median(t.layerNs), untracedCall),
		"trace.overhead_ratio":           div(median(t.callNs), untracedCall),
	}
	if t.w.kind == kindEarliestJSON {
		m["step.earliest_ns_per_event"] = div(stepNs, ev)
	}
	if hits, misses := t.col.ProductCacheHits.Load(), t.col.ProductCacheMisses.Load(); hits+misses > 0 {
		m["product.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	for _, l := range layers {
		m["split."+l] = div(layer[l], total)
	}
	return m
}

// scanner returns the scan layer's source over input i: the JSON bridge
// for json-feed, the XML scanner otherwise.
func (w *workload) scanner(i int) encoding.Source {
	if w.kind == kindEarliestJSON {
		return encoding.NewJSONSource(bytes.NewReader(w.inputs[i]))
	}
	return encoding.NewXMLScanner(bytes.NewReader(w.inputs[i]))
}

// scanAllocs is the heap allocations of one scan of an input to its end,
// averaged over a pass of the ops.
func scanAllocs(w *workload) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, o := range w.ops {
		src := w.scanner(o.input)
		for {
			if _, err := src.Next(); err != nil {
				break
			}
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(w.ops))
}

// labelStats counts the distinct labels over a pass's inputs and the share
// of coded events whose label falls outside the coding alphabet of the
// queries an op runs.
func labelStats(w *workload) (distinct, unknown float64) {
	labels := map[string]bool{}
	var coded, unk int
	for _, o := range w.ops {
		events, _ := encoding.ReadAll(w.scanner(o.input))
		for _, e := range events {
			if e.Kind == encoding.Open {
				labels[e.Label] = true
			}
		}
		qs := []int{o.query}
		if o.query < 0 {
			qs = qs[:0]
			for q := range w.queries {
				qs = append(qs, q)
			}
		}
		for _, q := range qs {
			coder := alphabet.NewCoder(w.queries[q].oracle.Alphabet)
			for _, ce := range encoding.CodeEvents(coder, events, nil) {
				if ce.Kind == encoding.Open {
					coded++
					if ce.Sym == coder.Unknown() {
						unk++
					}
				}
			}
		}
	}
	if coded > 0 {
		unknown = float64(unk) / float64(coded)
	}
	return float64(len(labels)), unknown
}

// writeSpans dumps the kept spans as JSON.
func writeSpans(dir, name string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
