package stackless

import (
	"io"
	"runtime"

	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/obs"
	"stackless/internal/parallel"
	"stackless/internal/stackeval"
)

// Collector aggregates observability metrics across evaluations: atomic
// counters (events, matches, fallbacks, chunk cuts), bounded depth /
// register / stack-depth / queue-depth histograms and per-phase timings.
// The alias lets callers use it without importing the internal package;
// obtain one with NewCollector, attach it via Options.Collector, and read
// it with Snapshot (JSON-ready) or String (expvar.Var-compatible). One
// collector may be shared by concurrent evaluations. Attaching a collector
// adds a few percent of overhead; a nil Collector is completely free (a
// nil-check per hook, zero allocations — see DESIGN.md §9).
type Collector = obs.Collector

// ObsSnapshot is the JSON-ready point-in-time view of a Collector.
type ObsSnapshot = obs.Snapshot

// NewCollector returns an empty metrics collector.
func NewCollector() *Collector { return &obs.Collector{} }

// Match is one selected node, reported at its opening tag (pre-selection,
// Section 2.3) so callers can stream the node's subtree without buffering.
type Match struct {
	// Pos is the node's preorder position in the document, 0-based.
	Pos int
	// Depth is the node's depth; the root has depth 1.
	Depth int
	// Label is the node's label.
	Label string
}

// Pipeline identifies which event pipeline an evaluation ran. It is an
// alias of core.Pipeline so the engine and the public API share one enum;
// treelint's enumswitch holds switches over it to totality.
type Pipeline = core.Pipeline

// Re-exported pipeline members, so callers compare Stats.Pipeline against
// typed constants instead of raw strings.
const (
	PipelineCoded  = core.PipelineCoded
	PipelineString = core.PipelineString
)

// EarliestMode says which earliest-emission guarantee a run carried; it is
// an alias of core.EarliestMode (see DESIGN.md §14).
type EarliestMode = core.EarliestMode

// Re-exported earliest modes, so callers compare Stats.Earliest against
// typed constants.
const (
	// EarliestOff: Options.Earliest was not set (the default).
	EarliestOff = core.EarliestOff
	// EarliestExact: per-event emission with zero deferral plus the
	// compiled earliest-decision flags — the run stops stepping at the
	// earliest event proving no further match is possible.
	EarliestExact = core.EarliestExact
	// EarliestApprox: the conservative safe approximation — every match
	// still emits at its deciding event (sequential runs) or in document
	// order at the join (parallel runs), but without a mid-stream
	// no-future-matches decision.
	EarliestApprox = core.EarliestApprox
)

// Stats describes how an evaluation ran.
type Stats struct {
	// Strategy actually used (registerless / stackless / stack).
	Strategy Strategy
	// Events processed (opening + closing tags).
	Events int
	// Matches reported.
	Matches int
	// Workers that evaluated chunks concurrently: 1 for a sequential run
	// (including when the strategy cannot be chunked), the effective worker
	// count — Options.Workers clamped to GOMAXPROCS — for a chunk-parallel
	// one.
	Workers int
	// Pipeline actually used: PipelineCoded when the run stepped the
	// symbol-coded batch pipeline (dense transition tables, see DESIGN.md
	// §11), PipelineString for the per-event label-resolving path. Select
	// runs are coded unless sequential with Earliest set; Recognize runs
	// are string on the EL/AL wrappers (stackless and stack tiers).
	Pipeline Pipeline
	// Chunks the stream was split into: 1 for any sequential pass,
	// including parallel requests that degraded (see Fallback).
	Chunks int
	// CutPolicy of the chosen machine ("none", "newmin", "belowentry",
	// "all") when chunk-parallel evaluation was requested; empty otherwise.
	CutPolicy string
	// Fallback qualifies how a Workers>1 request actually ran.
	// Sequential degradations: "strategy" (Recognize only: the machine is
	// not chunkable — the synopsis EL machine and its AL negation; every
	// Select machine chunks), "cutall" (unrestricted DRA: every event
	// is a boundary), "short" (too few events to cut), or "deep" (the
	// pushdown's speculative chunking was not viable: the stream's depth
	// is too large against the chunk size, see
	// parallel.SpeculationViable). "speculative" marks a run that *did*
	// fan out, on the pushdown's speculative CutBoundedDepth summaries
	// (DESIGN.md §16). Empty when the run fanned out on an exact summary
	// or was never asked to parallelize.
	Fallback string
	// Earliest reports which earliest-emission mode the run carried when
	// Options.Earliest was set: EarliestExact when the chosen machine
	// carries compiled earliest-decision flags (tag DFAs and stackless
	// machines), EarliestApprox for the safe approximation (all other
	// families, and every Workers>1 run, which buffers and joins).
	// EarliestOff when earliest emission was not requested.
	Earliest EarliestMode
}

// Options tune evaluation. The zero value is the default: pick the
// cheapest strategy and fall back to the stack when the theorems say a
// stackless machine cannot exist.
type Options struct {
	// ForbidStack makes evaluation fail instead of falling back to the
	// pushdown simulation (useful to surface Theorem 3.1 violations).
	ForbidStack bool
	// ForceStack skips the stackless machines entirely (baseline runs).
	ForceStack bool
	// TrustInput skips the O(1) tag-balance guard. Weak validation assumes
	// well-formed input; by default the engine still rejects streams whose
	// tags do not balance (gross transport errors), at one counter's cost.
	TrustInput bool
	// Workers > 1 evaluates the stream chunk-parallel on the shared worker
	// pool: the events are buffered, split into chunks, simulated
	// concurrently from every machine state and joined (see
	// internal/parallel and DESIGN.md §8). The match set is identical to
	// the sequential run. The count is clamped to GOMAXPROCS — requesting
	// more workers than cores only adds join overhead (EXPERIMENTS.md);
	// Stats.Workers reports the clamped value. Falls back to sequential
	// evaluation when the chosen strategy cannot be chunked (the synopsis
	// EL machine) or when the pushdown fallback's speculative chunking is
	// not viable for the stream (see Stats.Fallback); note that chunking
	// trades the model's O(1) memory for throughput by buffering the
	// event stream.
	// In a MultiQuery run each product group is one chunk-parallel pass
	// for its whole member set (DESIGN.md §13).
	Workers int
	// Earliest requests the earliest-emission latency contract (DESIGN.md
	// §14): every match is reported at the exact event that decides it,
	// never deferred to a batch boundary, and machines with compiled
	// earliest-decision flags stop stepping at the earliest event proving
	// no further match is possible. The match set, order and errors are
	// identical to the default run; the trade is throughput — the
	// sequential earliest driver runs the per-event string path, not the
	// batched coded one. Stats.Earliest reports which mode actually ran.
	// With Workers > 1 the chunk-parallel engine is used unchanged
	// (matches still arrive in document order at the join) and the run
	// reports the safe approximation.
	Earliest bool
	// Collector, when non-nil, receives detailed metrics for the run —
	// counters, histograms and phase timings beyond what Stats reports
	// (see NewCollector and DESIGN.md §9). Nil disables collection at
	// zero cost.
	Collector *Collector
}

func (o Options) guard(src encoding.Source) encoding.Source {
	if o.TrustInput {
		return src
	}
	return encoding.CheckBalance(src)
}

// effectiveWorkers clamps a requested worker count to GOMAXPROCS: beyond
// the core count extra chunks only add boundary-replay and join work (the
// workers=2-on-1-core regression in EXPERIMENTS.md).
func effectiveWorkers(n int) int {
	if p := runtime.GOMAXPROCS(0); n > p {
		return p
	}
	return n
}

// SelectXML streams an XML document and calls fn for each node selected by
// the query, in document order.
func (q *Query) SelectXML(r io.Reader, opt Options, fn func(Match)) (Stats, error) {
	return q.selectSource(encoding.NewXMLScanner(r), MarkupEncoding, opt, fn)
}

// SelectXMLFull uses the encoding/xml bridge (slower, full XML support).
func (q *Query) SelectXMLFull(r io.Reader, opt Options, fn func(Match)) (Stats, error) {
	return q.selectSource(encoding.NewStdXMLSource(r), MarkupEncoding, opt, fn)
}

// SelectJSON streams a JSON document under the term encoding. Object keys
// are node labels; array elements are labelled "item"; the document root is
// labelled "$" (see internal/encoding).
func (q *Query) SelectJSON(r io.Reader, opt Options, fn func(Match)) (Stats, error) {
	return q.selectSource(encoding.NewJSONSource(r), TermEncoding, opt, fn)
}

// SelectTerm streams a brace-notation document (a{b{}c{}}) under the term
// encoding.
func (q *Query) SelectTerm(r io.Reader, opt Options, fn func(Match)) (Stats, error) {
	return q.selectSource(encoding.NewTermScanner(r), TermEncoding, opt, fn)
}

func (q *Query) selectSource(src encoding.Source, enc Encoding, opt Options, fn func(Match)) (Stats, error) {
	src = opt.guard(src)
	opt.Workers = effectiveWorkers(opt.Workers)
	c := opt.Collector
	ev, st, err := compileRun(enc, opt, q.queryEvaluator, q.stackQuery)
	if err != nil {
		return Stats{Strategy: st}, err
	}
	stats := Stats{Strategy: st, Workers: 1, Chunks: 1, Pipeline: PipelineCoded}
	report := func(m core.Match) {
		stats.Matches++
		if fn != nil {
			fn(Match{Pos: m.Pos, Depth: m.Depth, Label: m.Label})
		}
	}
	if opt.Workers > 1 {
		if opt.Earliest {
			// The chunk-parallel engine buffers the stream and emits at
			// the join; document order survives, but only the safe
			// approximation's latency bound does.
			stats.Earliest = EarliestApprox
		}
		events, err := bufferChunks(src, ev, opt.Workers, c, &stats)
		if err != nil {
			return stats, err
		}
		parallel.SelectObs(parallel.Shared(), ev, events, opt.Workers, c, report)
		return stats, nil
	}
	if opt.Earliest {
		// Earliest emission runs the per-event driver: matches emit at
		// their deciding Open, never at a batch boundary, at the cost of
		// the coded pipeline's throughput.
		stats.Pipeline = PipelineString
		stats.Earliest = core.EarliestClassOf(ev)
		events, err := core.SelectEarliestObs(ev, c, src, report)
		stats.Events = events
		return stats, err
	}
	events, err := core.SelectCodedObs(ev, c, src, report)
	stats.Events = events
	return stats, err
}

// bufferChunks reads the whole stream for a chunk-parallel run of m over
// the given number of workers and records in stats how the engine will
// split it: Events, Workers, CutPolicy, Chunks and Fallback ("cutall",
// "short", "deep" or "speculative"; see Stats.Fallback). The decision
// mirrors internal/parallel's, which the run then makes itself.
func bufferChunks(src encoding.Source, m core.Chunkable, workers int, c *obs.Collector, stats *Stats) ([]encoding.Event, error) {
	events, err := encoding.ReadAll(src)
	stats.Events = len(events)
	if err != nil {
		if c != nil {
			c.Events.Add(int64(len(events)))
		}
		return nil, err
	}
	stats.Workers = workers
	policy := m.Cut()
	stats.CutPolicy = policy.String()
	cuts := parallel.SplitPoints(len(events), workers)
	switch {
	case policy == core.CutAll:
		stats.Fallback = "cutall"
	case len(cuts) == 0:
		stats.Fallback = "short"
	case policy == core.CutBoundedDepth && !parallel.SpeculationViable(events, len(cuts)+1):
		stats.Fallback = "deep"
	default:
		stats.Chunks = len(cuts) + 1
		if policy == core.CutBoundedDepth {
			stats.Fallback = "speculative"
		}
	}
	return events, nil
}

// RecognizeEL streams an XML document and reports whether some branch's
// label path belongs to the query language (the tree language EL).
func (q *Query) RecognizeEL(r io.Reader, opt Options) (bool, Stats, error) {
	return q.recognize(encoding.NewXMLScanner(r), MarkupEncoding, opt, q.elEvaluator, q.stackEL)
}

// RecognizeAL streams an XML document and reports whether every branch's
// label path belongs to the query language (the tree language AL) — the
// weak-validation semantics of Section 4.1.
func (q *Query) RecognizeAL(r io.Reader, opt Options) (bool, Stats, error) {
	return q.recognize(encoding.NewXMLScanner(r), MarkupEncoding, opt, q.alEvaluator, q.stackAL)
}

// RecognizeELTerm and RecognizeALTerm are the term-encoding variants over
// brace-notation input.
func (q *Query) RecognizeELTerm(r io.Reader, opt Options) (bool, Stats, error) {
	return q.recognize(encoding.NewTermScanner(r), TermEncoding, opt, q.elEvaluator, q.stackEL)
}

// RecognizeALTerm recognizes AL over brace-notation input.
func (q *Query) RecognizeALTerm(r io.Reader, opt Options) (bool, Stats, error) {
	return q.recognize(encoding.NewTermScanner(r), TermEncoding, opt, q.alEvaluator, q.stackAL)
}

func (q *Query) recognize(src encoding.Source, enc Encoding, opt Options,
	pickFn func(Encoding, bool) (core.Evaluator, Strategy, error),
	stackFn func() core.Evaluator) (bool, Stats, error) {
	src = opt.guard(src)
	opt.Workers = effectiveWorkers(opt.Workers)
	c := opt.Collector
	ev, st, err := compileRun(enc, opt, pickFn, stackFn)
	if err != nil {
		return false, Stats{Strategy: st}, err
	}
	stats := Stats{Strategy: st, Workers: 1, Chunks: 1, Pipeline: PipelineString}
	if cm, chunkable := ev.(core.Chunkable); chunkable && opt.Workers > 1 {
		if parallel.Coded(cm) {
			stats.Pipeline = PipelineCoded
		}
		events, err := bufferChunks(src, cm, opt.Workers, c, &stats)
		if err != nil {
			return false, stats, err
		}
		return parallel.RecognizeObs(parallel.Shared(), cm, events, opt.Workers, c), stats, nil
	}
	if opt.Workers > 1 {
		stats.Fallback = "strategy"
		if c != nil {
			c.SeqFallbacks.Inc()
		}
	}
	if core.CodedCapable(ev) {
		stats.Pipeline = PipelineCoded
	}
	ok, events, err := core.RecognizeCodedObs(ev, c, src)
	stats.Events = events
	return ok, stats, err
}

// compileRun compiles a run's machine under opt — stack() when
// opt.ForceStack, else pick(enc, !opt.ForbidStack) — and attaches
// opt.Collector to it. Select, Recognize and MultiQuery runs all take their
// machines from here, so a one-member MultiQuery run is instrumented
// exactly like its Query's.
func compileRun[M core.Evaluator](enc Encoding, opt Options, pick func(Encoding, bool) (M, Strategy, error), stack func() M) (ev M, st Strategy, err error) {
	if opt.ForceStack {
		ev, st = stack(), Stack
	} else if ev, st, err = pick(enc, !opt.ForbidStack); err != nil {
		return ev, st, err
	}
	if c := opt.Collector; c != nil {
		core.Instrument(ev, c)
		if st == Stack {
			c.StackFallbacks.Inc()
		}
	}
	return ev, st, nil
}

func (q *Query) stackQuery() core.QueryMachine { return stackeval.QL(q.an.D) }
func (q *Query) stackEL() core.Evaluator       { return stackeval.EL(q.an.D) }
func (q *Query) stackAL() core.Evaluator       { return stackeval.AL(q.an.D) }
