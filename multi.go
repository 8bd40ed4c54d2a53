package stackless

import (
	"fmt"
	"io"
	"sync"
	"time"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/obs"
	"stackless/internal/parallel"
	"stackless/internal/product"
)

// Multi-query evaluation: run several path queries over one document in a
// single streaming pass. This is the workload the paper's introduction
// highlights (factoring the dominant parsing cost across queries, as in
// SAX-based systems): the document is scanned once, and each query's
// machine steps on every event.

// MultiQuery is a set of compiled queries evaluated together. Compatible
// registerless queries are merged into product automata (DESIGN.md §13) and
// stepped once per event for the whole group; the rest fan out as before.
type MultiQuery struct {
	queries []*Query

	// noProduct disables product compilation, forcing the pre-§13 fan-out.
	// Unexported: it exists for the differential tests and the benchmark
	// baseline, not as API — fan-out is never preferable when a product
	// compiles.
	noProduct bool
}

// NewMultiQuery groups queries for single-pass evaluation.
func NewMultiQuery(queries ...*Query) (*MultiQuery, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("stackless: empty multi-query")
	}
	return &MultiQuery{queries: queries}, nil
}

// MultiMatch is a selected node together with the index of the query that
// selected it.
type MultiMatch struct {
	Query int
	Match
}

// MultiStats describes a multi-query run.
type MultiStats struct {
	// Strategies per query.
	Strategies []Strategy
	// Events processed once for the whole batch.
	Events int
	// Matches per query.
	Matches []int
	// Workers used for chunk-parallel evaluation (1 = sequential pass);
	// Options.Workers clamped to GOMAXPROCS, as in Stats.
	Workers int
	// Pipeline actually used: PipelineCoded for every run but a sequential
	// Earliest one, which takes the per-event PipelineString pass. The
	// sequential runs are core's coded and earliest passes, the same ones
	// a single Query runs.
	Pipeline Pipeline
	// ProductGroups is the number of product automata the query set was
	// merged into (0 when every query ran loose — singletons, incompatible
	// families, products over the state cap, or the per-event string path,
	// which never products).
	ProductGroups int
	// Earliest reports which earliest-emission mode the run carried when
	// Options.Earliest was set: EarliestExact when every query's machine
	// carries compiled earliest-decision flags (the pass additionally stops
	// stepping once all machines prove no further match), EarliestApprox
	// otherwise — including every Workers>1 run, which buffers and joins.
	// EarliestOff when earliest emission was not requested.
	Earliest EarliestMode
}

// SelectXML streams the document once and reports each query's matches.
func (m *MultiQuery) SelectXML(r io.Reader, opt Options, fn func(MultiMatch)) (MultiStats, error) {
	return m.selectSource(encoding.NewXMLScanner(r), MarkupEncoding, opt, fn)
}

// SelectJSON streams a JSON document once under the term encoding.
func (m *MultiQuery) SelectJSON(r io.Reader, opt Options, fn func(MultiMatch)) (MultiStats, error) {
	return m.selectSource(encoding.NewJSONSource(r), TermEncoding, opt, fn)
}

// SelectTerm streams a brace-notation document once under the term encoding.
func (m *MultiQuery) SelectTerm(r io.Reader, opt Options, fn func(MultiMatch)) (MultiStats, error) {
	return m.selectSource(encoding.NewTermScanner(r), TermEncoding, opt, fn)
}

func (m *MultiQuery) selectSource(src encoding.Source, enc Encoding, opt Options, fn func(MultiMatch)) (MultiStats, error) {
	src = opt.guard(src)
	opt.Workers = effectiveWorkers(opt.Workers)
	c := opt.Collector
	stats := MultiStats{
		Strategies: make([]Strategy, len(m.queries)),
		Matches:    make([]int, len(m.queries)),
	}
	evs := make([]core.QueryMachine, len(m.queries))
	machines := make([]core.Evaluator, len(m.queries))
	for i, q := range m.queries {
		var err error
		if evs[i], stats.Strategies[i], err = compileRun(enc, opt, q.queryEvaluator, q.stackQuery); err != nil {
			return stats, fmt.Errorf("query %d (%s): %w", i, q, err)
		}
		evs[i].Reset()
		machines[i] = evs[i]
	}
	if opt.Workers > 1 {
		if opt.Earliest {
			// Chunk-parallel runs buffer the stream and emit at the join;
			// emission order survives the join, but only the safe
			// approximation's latency bound holds.
			stats.Earliest = EarliestApprox
		}
		plan := m.plan(machines, c)
		stats.ProductGroups = len(plan.Groups)
		return m.selectParallel(src, opt, evs, plan, stats, fn)
	}
	stats.Workers = 1
	matches := stats.Matches
	count := func(q int, cm core.Match) {
		matches[q]++
		if fn != nil {
			fn(MultiMatch{Query: q, Match: Match{Pos: cm.Pos, Depth: cm.Depth, Label: cm.Label}})
		}
	}
	var err error
	if !opt.Earliest {
		plan := m.plan(machines, c)
		stats.ProductGroups = len(plan.Groups)
		stats.Pipeline = PipelineCoded
		stats.Events, err = core.SelectCodedSet(machines, plan.Loose, plan.Groups, c, src, count)
		return stats, err
	}
	// Earliest emission runs the per-event pass. The mode is exact only
	// when every machine carries earliest flags; one approximated member
	// never decides, so the whole set degrades to the safe approximation.
	stats.Pipeline = PipelineString
	stats.Earliest = EarliestExact
	for _, ev := range machines {
		if core.EarliestClassOf(ev) != EarliestExact {
			stats.Earliest = EarliestApprox
		}
	}
	stats.Events, err = core.SelectEarliestSet(machines, c, src, count)
	return stats, err
}

// plan groups the machines into product groups (internal/product) through
// the shared LRU cache, or fans everything out when products are disabled.
func (m *MultiQuery) plan(machines []core.Evaluator, c *obs.Collector) product.Plan {
	if m.noProduct {
		return product.FanoutPlan(len(machines))
	}
	return product.BuildPlan(machines, product.Shared(), 0, c)
}

// selectParallel fans the product groups and the loose queries — and
// their chunks — across the shared worker pool, then merges the per-query
// match streams back into the exact emission order of the sequential pass
// (position, then query index). A product group is one chunk-parallel run
// for its whole member set (internal/product's two-phase driver); each
// query of the group owns its own demuxed stream, so the merge below is
// oblivious to how a stream was produced.
func (m *MultiQuery) selectParallel(src encoding.Source, opt Options, evs []core.QueryMachine, plan product.Plan, stats MultiStats, fn func(MultiMatch)) (MultiStats, error) {
	c := opt.Collector
	events, err := encoding.ReadAll(src)
	stats.Events = len(events)
	if err != nil {
		if c != nil {
			c.Events.Add(int64(len(events)) * int64(len(evs)))
		}
		return stats, err
	}
	stats.Workers = opt.Workers
	stats.Pipeline = PipelineCoded
	perQuery := make([][]Match, len(evs))
	var wg sync.WaitGroup
	for gi := range plan.Groups {
		g := plan.Groups[gi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each query index belongs to exactly one group, so appends to
			// perQuery race with no other goroutine.
			product.SelectChunks(parallel.Shared(), g.Machine, events, opt.Workers, c, func(bit int, cm core.Match) {
				q := g.Queries[bit]
				perQuery[q] = append(perQuery[q], Match{Pos: cm.Pos, Depth: cm.Depth, Label: cm.Label})
			})
		}()
	}
	for _, i := range plan.Loose {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel.SelectObs(parallel.Shared(), evs[i], events, opt.Workers, c, func(cm core.Match) {
				perQuery[i] = append(perQuery[i], Match{Pos: cm.Pos, Depth: cm.Depth, Label: cm.Label})
			})
		}()
	}
	wg.Wait()
	var mergeStart time.Time
	if c != nil {
		mergeStart = time.Now()
		defer func() {
			c.Phases[obs.PhaseMerge].Observe(time.Since(mergeStart))
		}()
	}
	next := make([]int, len(perQuery))
	for {
		best := -1
		for qi := range perQuery {
			if next[qi] >= len(perQuery[qi]) {
				continue
			}
			if best < 0 || perQuery[qi][next[qi]].Pos < perQuery[best][next[best]].Pos {
				best = qi
			}
		}
		if best < 0 {
			return stats, nil
		}
		mt := perQuery[best][next[best]]
		next[best]++
		stats.Matches[best]++
		if fn != nil {
			fn(MultiMatch{Query: best, Match: mt})
		}
	}
}
