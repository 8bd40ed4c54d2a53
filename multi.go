package stackless

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"time"

	"stackless/internal/alphabet"
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
	// Earliest one, which takes the per-event PipelineString pass. Every
	// query machine compiles, so the sequential coded pass steps each
	// machine (or product) in whole batches; instrumented runs stay on it,
	// flushing counters per batch.
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
	for i, q := range m.queries {
		var err error
		if opt.ForceStack {
			evs[i], stats.Strategies[i] = q.stackQuery(), Stack
		} else {
			evs[i], stats.Strategies[i], err = q.queryEvaluator(enc, !opt.ForbidStack)
		}
		if err != nil {
			return stats, fmt.Errorf("query %d (%s): %w", i, q, err)
		}
		if c != nil {
			core.Instrument(evs[i], c)
			if stats.Strategies[i] == Stack {
				c.StackFallbacks.Inc()
			}
		}
		evs[i].Reset()
	}
	if opt.Workers > 1 {
		if opt.Earliest {
			// Chunk-parallel runs buffer the stream and emit at the join;
			// emission order survives the join, but only the safe
			// approximation's latency bound holds.
			stats.Earliest = EarliestApprox
		}
		plan := m.plan(evs, c)
		stats.ProductGroups = len(plan.Groups)
		return m.selectParallel(src, opt, evs, plan, stats, fn)
	}
	stats.Workers = 1
	if !opt.Earliest {
		plan := m.plan(evs, c)
		stats.ProductGroups = len(plan.Groups)
		stats.Pipeline = PipelineCoded
		return m.selectBatched(src, evs, plan, c, stats, fn)
	}
	stats.Pipeline = PipelineString
	// Earliest emission runs the per-event pass — it already emits every
	// match at its deciding Open — plus the early-exit check: once every
	// machine proves no further match is possible, stepping stops and the
	// rest of the stream only drains (event accounting and the balance
	// guard are unchanged). The mode is exact only when every machine
	// carries earliest flags; one approximated member never decides, so
	// the whole set degrades to the safe approximation.
	var deciders []core.EarliestDecider
	if opt.Earliest {
		stats.Earliest = EarliestExact
		deciders = make([]core.EarliestDecider, len(evs))
		for i, ev := range evs {
			if d, ok := ev.(core.EarliestDecider); ok {
				deciders[i] = d
			} else {
				stats.Earliest = EarliestApprox
			}
		}
	}
	decided := false
	pos := -1
	depth := 0
	// Every machine steps on every event, so the collector counts events
	// per machine (matching the parallel fan-out, where each query is its
	// own pass over the buffered events).
	if c != nil {
		defer func() {
			c.Events.Add(int64(stats.Events) * int64(len(evs)))
		}()
	}
	for {
		e, err := src.Next()
		if err == io.EOF {
			return stats, nil
		}
		if err != nil {
			return stats, err
		}
		stats.Events++
		if e.Kind == encoding.Open {
			pos++
			depth++
			if c != nil {
				c.Depth.Observe(depth)
			}
		} else {
			depth--
		}
		if decided {
			continue
		}
		for i, ev := range evs {
			ev.Step(e)
			if e.Kind == encoding.Open && ev.Accepting() {
				stats.Matches[i]++
				if c != nil {
					c.Matches.Inc()
					c.Latency.Observe(0)
				}
				if fn != nil {
					fn(MultiMatch{Query: i, Match: Match{Pos: pos, Depth: depth, Label: e.Label}})
				}
			}
		}
		if stats.Earliest == EarliestExact {
			decided = true
			for _, d := range deciders {
				if !d.NoFutureMatches() {
					decided = false
					break
				}
			}
		}
	}
}

// plan groups the evaluators into product groups (internal/product) through
// the shared LRU cache, or fans everything out when products are disabled.
func (m *MultiQuery) plan(evs []core.QueryMachine, c *obs.Collector) product.Plan {
	if m.noProduct {
		return product.FanoutPlan(len(evs))
	}
	machines := make([]core.Evaluator, len(evs))
	for i, ev := range evs {
		machines[i] = ev
	}
	return product.BuildPlan(machines, product.Shared(), 0, c)
}

// selectBatched is the compiled fast path of the sequential multi-query
// pass: the document is scanned once into batches of stream-local label
// ids (encoding.TagBatcher); each product group lowers the batch through
// its own coder under its shared union alphabet — one slice load per event
// — and steps its product whole, demultiplexing hit masks into per-query
// hit lists, while loose machines code and step individually as before. Matches are replayed from the
// per-query hit lists in the exact (position, query) order of the per-event
// pass. An instrumented run stays on this path: the collector's event total
// flushes once per return, depths observe per open during the replay walk
// (forced even on hitless batches), and matches count as they emit —
// counter for counter what the per-event pass reports.
//
//treelint:partial instrumented runs flush batched counters into obs
func (m *MultiQuery) selectBatched(src encoding.Source, evs []core.QueryMachine, plan product.Plan, c *obs.Collector, stats MultiStats, fn func(MultiMatch)) (MultiStats, error) {
	n := len(evs)
	loose := plan.Loose
	coders := make([]*alphabet.Coder, len(loose))
	coded := make([][]encoding.CodedEvent, len(loose))
	for li, q := range loose {
		coders[li] = alphabet.NewCoder(evs[q].CodeAlphabet())
	}
	groups := plan.Groups
	gevs := make([]*core.ProductEvaluator, len(groups))
	gcoders := make([]*alphabet.Coder, len(groups))
	gcoded := make([][]encoding.CodedEvent, len(groups))
	ghits := make([][]int32, len(groups))
	gmasks := make([][]uint64, len(groups))
	for gi, g := range groups {
		gevs[gi] = g.Machine.Evaluator()
		gcoders[gi] = alphabet.NewCoder(g.Machine.Alphabet())
	}
	hits := make([][]int32, n)
	next := make([]int, n)
	if c != nil {
		// Every machine steps on every event, as in the per-event pass and
		// the parallel fan-out — a product steps once but counts for each
		// member.
		defer func() {
			c.Events.Add(int64(stats.Events) * int64(n))
		}()
	}
	tags := encoding.NewTagBatcher(src, encoding.DefaultBatch)
	pos, depth := -1, 0
	for {
		batch, opens, srcErr := tags.Next()
		if len(batch) > 0 {
			stats.Events += len(batch)
			anyHits := false
			for li, q := range loose {
				coded[li] = tags.Code(coders[li], coded[li])
				hits[q] = evs[q].SelectBatch(coded[li], hits[q][:0])
				next[q] = 0
				anyHits = anyHits || len(hits[q]) > 0
			}
			for gi := range gevs {
				g := &groups[gi]
				for _, q := range g.Queries {
					hits[q] = hits[q][:0]
					next[q] = 0
				}
				gcoded[gi] = tags.Code(gcoders[gi], gcoded[gi])
				ghits[gi], gmasks[gi] = gevs[gi].SelectBatchMasks(gcoded[gi], ghits[gi][:0], gmasks[gi][:0])
				words := g.Machine.MaskWords()
				for h, j := range ghits[gi] {
					for wi, word := range gmasks[gi][h*words : (h+1)*words] {
						for word != 0 {
							q := g.Queries[wi*64+bits.TrailingZeros64(word)]
							word &= word - 1
							hits[q] = append(hits[q], j)
							anyHits = true
						}
					}
				}
			}
			if !anyHits && c == nil {
				pos += opens
				depth += 2*opens - len(batch)
			} else {
				for j := range batch {
					if batch[j].Kind != encoding.Open {
						depth--
						continue
					}
					pos++
					depth++
					if c != nil {
						c.Depth.Observe(depth)
					}
					for q := 0; q < n; q++ {
						if next[q] < len(hits[q]) && hits[q][next[q]] == int32(j) {
							next[q]++
							stats.Matches[q]++
							if c != nil {
								c.Matches.Inc()
								// Batched emission: decided at batch index
								// j, confirmed after index len(batch)-1.
								c.Latency.Observe(len(batch) - 1 - j)
							}
							if fn != nil {
								fn(MultiMatch{Query: q, Match: Match{Pos: pos, Depth: depth, Label: tags.Label(j)}})
							}
						}
					}
				}
			}
		}
		if srcErr == io.EOF {
			return stats, nil
		}
		if srcErr != nil {
			return stats, srcErr
		}
	}
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
