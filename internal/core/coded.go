package core

import (
	"math/bits"

	"stackless/internal/alphabet"
	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// Compiled symbol-coded pipeline (DESIGN.md §11). Machines that can lower
// their transitions into flat state×symbol tables implement BatchEvaluator;
// the coded pass below batches the event stream through
// encoding.TagBatcher and steps whole batches per call, eliminating the
// per-event interface dispatch and label hashing of the string pipeline.
// It is the one sequential coded driver: a Query run is a set of one
// machine, a MultiQuery run a set of loose machines and product groups.
// Every machine the public API compiles for a query — tag DFA, stackless
// DRA and pushdown — is a QueryMachine; machines that do not compile (the
// EL/AL wrappers) fall back to the generic Select/Recognize path, so the
// coded entry points are drop-in replacements with identical results
// either way.

// BatchEvaluator is the compiled contract: an Evaluator that also steps
// dense symbol-coded batches. StepBatch(b) must be equivalent to Step on
// each event of b with the labels decoded under CodeAlphabet — including
// the poison convention: the unknown sentinel Sym (= CodeAlphabet().Size())
// behaves exactly like a label outside the alphabet.
type BatchEvaluator interface {
	Evaluator
	// CodeAlphabet returns the alphabet whose Coder produces the codes
	// StepBatch and SelectBatch consume.
	CodeAlphabet() *alphabet.Alphabet
	// StepBatch processes a coded batch.
	StepBatch(batch []encoding.CodedEvent)
	// SelectBatch is StepBatch that also appends to hits the batch-relative
	// indices of Open events after which the machine pre-selects, returning
	// the extended slice.
	SelectBatch(batch []encoding.CodedEvent, hits []int32) []int32
}

// CodedSegmentKernel is the one-pass all-states segment simulation of the
// chunk-parallel engine over coded events (internal/parallel codes the
// buffered stream once and hands each fork coded segments). It must agree
// with SimulateSegmentGeneric on the decoded segment.
type CodedSegmentKernel interface {
	// SimulateSegmentCoded runs the segment from every control state at
	// once, appending match candidates to cands when it is non-nil.
	SimulateSegmentCoded(seg []encoding.CodedEvent, cands *CandSet) []SegmentExit
}

// QueryMachine is a node-selecting machine of the public API: every tier
// the query compiler picks (tag DFA, stackless DRA, pushdown) steps coded
// batches, chunks, and summarizes coded segments, so a query run always
// takes the compiled pipeline.
type QueryMachine interface {
	BatchEvaluator
	Chunkable
	CodedSegmentKernel
}

// CodedCapable reports whether ev runs the compiled pipeline — used by the
// public API to report which pipeline a run took.
func CodedCapable(ev Evaluator) bool {
	_, ok := ev.(BatchEvaluator)
	return ok
}

// SelectCoded is Select through the compiled pipeline when ev supports it,
// falling back to Select otherwise. Matches, order and errors are identical
// to Select's.
func SelectCoded(ev Evaluator, src encoding.Source, fn func(Match)) (int, error) {
	return SelectCodedObs(ev, nil, src, fn)
}

// SelectCodedObs is SelectCoded reporting into a collector: the coded pass
// over a set of one machine.
func SelectCodedObs(ev Evaluator, c *obs.Collector, src encoding.Source, fn func(Match)) (int, error) {
	if !CodedCapable(ev) {
		return SelectObs(ev, c, src, fn)
	}
	one := [1]Evaluator{ev}
	return SelectCodedSet(one[:], lone, nil, c, src, func(_ int, m Match) {
		if fn != nil {
			fn(m)
		}
	})
}

// lone is the loose list of a set of one machine.
var lone = []int{0}

// RecognizeCoded is Recognize through the compiled pipeline when ev
// supports it, falling back to Recognize otherwise.
func RecognizeCoded(ev Evaluator, src encoding.Source) (bool, error) {
	ok, _, err := RecognizeCodedObs(ev, nil, src)
	return ok, err
}

// RecognizeCodedObs is RecognizeCoded reporting into a collector; it also
// returns the number of events the run consumed.
func RecognizeCodedObs(ev Evaluator, c *obs.Collector, src encoding.Source) (bool, int, error) {
	if !CodedCapable(ev) {
		return recognizeString(ev, c, src)
	}
	one := [1]Evaluator{ev}
	events, err := SelectCodedSet(one[:], lone, nil, c, src, nil)
	return err == nil && ev.Accepting(), events, err
}

// ProductGroup is one product automaton of a coded pass: the compiled
// product of some machines of the set, and for each of its mask bits the
// member's index in the set.
type ProductGroup struct {
	Queries []int
	Machine *ProductDFA
}

// passUnit is one stepping unit of a coded pass — a loose machine or a
// product group — with its coder and reusable per-batch buffers.
type passUnit struct {
	be      BatchEvaluator
	product *ProductEvaluator // non-nil for a product group
	queries []int             // the group's members by mask bit; the loose machine's index
	coder   *alphabet.Coder
	coded   []encoding.CodedEvent
	hits    []int32
	masks   []uint64
}

// SelectCodedSet is the sequential coded pass over a set of machines. The
// document is scanned once into batches of stream-local label ids
// (encoding.TagBatcher). Each loose machine (evs[q] for q in loose, a
// BatchEvaluator) lowers the batch through its own coder and steps it
// whole; each product group steps its product once for all its members
// and demultiplexes the hit masks. Matches replay in (position, machine)
// order, as a per-event pass would emit them, and fn receives the
// machine's index in evs. With a nil fn the pass only steps (StepBatch): a
// recognizing run, whose caller reads Accepting afterwards.
//
// Match labels come from the batcher's label window, not the code
// alphabet: machines that accept regardless of the label (the synopsis ⊤
// state) can select events whose Sym is the lossy unknown sentinel. The
// collector is touched per batch and per match, never per event on the nil
// path; the run's totals and every machine's batched counters flush once
// at the end, events counting once per machine.
//
//treelint:partial instrumented runs observe depths per batch and flush counters into obs
func SelectCodedSet(evs []Evaluator, loose []int, groups []ProductGroup, c *obs.Collector, src encoding.Source, fn func(q int, m Match)) (int, error) {
	units := make([]passUnit, 0, len(loose)+len(groups))
	for i := range loose {
		be := evs[loose[i]].(BatchEvaluator)
		be.Reset()
		units = append(units, passUnit{be: be, queries: loose[i : i+1], coder: alphabet.NewCoder(be.CodeAlphabet())})
	}
	for _, g := range groups {
		pe := g.Machine.Evaluator()
		units = append(units, passUnit{be: pe, product: pe, queries: g.Queries, coder: alphabet.NewCoder(g.Machine.Alphabet())})
	}
	hits := make([][]int32, len(evs))
	next := make([]int, len(evs))
	tags := encoding.NewTagBatcher(src, encoding.DefaultBatch)
	events, matches := 0, 0
	pos, depth := -1, 0
	for {
		batch, opens, err := tags.Next()
		if len(batch) > 0 {
			events += len(batch)
			for i := range units {
				u := &units[i]
				if u.coded == nil {
					u.coded = make([]encoding.CodedEvent, 0, len(batch))
				}
				u.coded = tags.Code(u.coder, u.coded)
				switch {
				case fn == nil:
					u.be.StepBatch(u.coded)
				case u.product == nil:
					q := u.queries[0]
					hits[q] = u.be.SelectBatch(u.coded, hits[q][:0])
				default:
					u.demux(hits)
				}
			}
			if c != nil {
				d := depth
				for _, e := range batch {
					if e.Kind == encoding.Open {
						d++
						c.Depth.Observe(d)
					} else {
						d--
					}
				}
			}
			if fn != nil {
				matches += replay(batch, tags, hits, next, pos, depth, c, fn)
			}
			pos += opens
			depth += 2*opens - len(batch)
		}
		if err != nil {
			return endRun(c, evs, events, matches, err)
		}
	}
}

// demux steps a product group's batch and spreads its hit masks over the
// members' hit lists.
func (u *passUnit) demux(hits [][]int32) {
	for _, q := range u.queries {
		hits[q] = hits[q][:0]
	}
	u.hits, u.masks = u.product.SelectBatchMasks(u.coded, u.hits[:0], u.masks[:0])
	words := u.product.p.MaskWords()
	for h, j := range u.hits {
		for wi, word := range u.masks[h*words : (h+1)*words] {
			for word != 0 {
				q := u.queries[wi*64+bits.TrailingZeros64(word)]
				word &= word - 1
				hits[q] = append(hits[q], j)
			}
		}
	}
}

// replay emits a stepped batch's hits in (position, machine) order and
// returns how many it emitted; pos and depth are the stream's values before
// the batch. Position and depth at a hit both derive from the count of Open
// events before it (depth after event j is depth₀ + 2·opens − (j+1)), so
// replay counts opens branchlessly up to each hit and never walks the tail
// after the last one.
func replay(batch []encoding.CodedEvent, tags *encoding.TagBatcher, hits [][]int32, next []int, pos, depth int, c *obs.Collector, fn func(int, Match)) int {
	o, j := 0, 0
	if len(hits) == 1 {
		// A set of one: the hits are already in emission order.
		for _, h := range hits[0] {
			for ; j < int(h); j++ {
				o += 1 - int(batch[j].Kind)
			}
			o++ // the hit itself is an Open
			j++
			if c != nil {
				c.Latency.Observe(len(batch) - 1 - int(h))
			}
			fn(0, Match{Pos: pos + o, Depth: depth + 2*o - j, Label: tags.Label(int(h))})
		}
		return len(hits[0])
	}
	for q := range next {
		next[q] = 0
	}
	emitted := 0
	for {
		h := int32(len(batch))
		for q, hq := range hits {
			if next[q] < len(hq) && hq[next[q]] < h {
				h = hq[next[q]]
			}
		}
		if int(h) == len(batch) {
			return emitted
		}
		for ; j < int(h); j++ {
			o += 1 - int(batch[j].Kind)
		}
		o++ // the hit itself is an Open
		j++
		m := Match{Pos: pos + o, Depth: depth + 2*o - j, Label: tags.Label(int(h))}
		for q, hq := range hits {
			if next[q] < len(hq) && hq[next[q]] == h {
				next[q]++
				emitted++
				if c != nil {
					// Batched emission: decided at batch index h,
					// confirmed after index len(batch)-1.
					c.Latency.Observe(len(batch) - 1 - int(h))
				}
				fn(q, m)
			}
		}
	}
}
