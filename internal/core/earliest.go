package core

import (
	"fmt"

	"stackless/internal/encoding"
	"stackless/internal/obs"
)

// Earliest query answering (DESIGN.md §14), after the 2026
// Gienieczko–Muñoz–Murlak–Paperman follow-up on earliest query answering
// for streamed trees.
//
// Under pre-selection semantics (Section 2.3) every match is *decided* at
// its own Open event, so the per-match earliest point is the event itself;
// what the fast paths trade away is *emission*: the coded pipeline confirms
// hits only at batch boundaries (up to encoding.DefaultBatch events late)
// and the chunk-parallel engine only at the end-of-stream join. The
// earliest drivers below restore the per-event contract — each match is
// reported with zero deferral, at the very event that decides it — and add
// the complementary *negative* guarantee: machines that expose per-state
// earliest-decision flags (EarliestDecider) let the driver prove, mid
// stream, that no future event can produce another match, after which the
// run is decided and stepping stops (the stream still drains, so event
// accounting and balance checking are unchanged).

// EarliestMode says which earliest-decision guarantee a run carried.
type EarliestMode int

// The three modes, from absent to strongest.
const (
	// EarliestOff: earliest emission was not requested (the default).
	EarliestOff EarliestMode = iota
	// EarliestExact: per-event emission plus the compiled earliest-decision
	// flags — the run additionally detects the earliest event after which
	// no further match is possible.
	EarliestExact
	// EarliestApprox: the conservative safe approximation — per-event
	// emission with zero deferral, but no mid-stream "no future matches"
	// decision (the machine carries no earliest flags). Every match is
	// still emitted at its provably earliest event.
	EarliestApprox
)

func (m EarliestMode) String() string {
	switch m {
	case EarliestOff:
		return "off"
	case EarliestExact:
		return "exact"
	case EarliestApprox:
		return "approx"
	}
	return fmt.Sprintf("EarliestMode(%d)", int(m))
}

// EarliestDecider is the earliest-evaluation contract: an Evaluator whose
// compiled tables carry per-state earliest-decision flags (tag DFAs and
// stackless machines fold them into the §11 []int32 form). NoFutureMatches
// must be sound and monotone along a run: once it reports true, no suffix
// of any well-formed continuation can make the machine pre-select another
// node, and it keeps reporting true if the machine steps further.
type EarliestDecider interface {
	Evaluator
	// NoFutureMatches reports that the current configuration cannot reach
	// an accepting Open transition on any future event sequence.
	NoFutureMatches() bool
}

// EarliestClassOf reports the mode an earliest run of ev gets: exact for
// machines implementing EarliestDecider, the safe approximation for the
// rest (synopsis, table DRAs, the pushdown fallback and the EL/AL
// wrappers). The approximation never consults flags, so every family — and
// any user-supplied Evaluator — gets *some* latency bound: zero emission
// deferral, with end-of-stream as the trivial decision point.
func EarliestClassOf(ev Evaluator) EarliestMode {
	if _, ok := ev.(EarliestDecider); ok {
		return EarliestExact
	}
	return EarliestApprox
}

// SelectEarliest is Select with the earliest emission contract: fn fires
// at the exact Open event deciding each match (never deferred to a batch
// boundary), and for EarliestDecider machines the run stops stepping at
// the earliest event proving no further match is possible. The match set,
// order, event count and errors are identical to Select's.
func SelectEarliest(ev Evaluator, src encoding.Source, fn func(Match)) (int, error) {
	return SelectEarliestObs(ev, nil, src, fn)
}

// SelectEarliestObs is SelectEarliest reporting into a collector: the
// earliest pass over a set of one machine.
func SelectEarliestObs(ev Evaluator, c *obs.Collector, src encoding.Source, fn func(Match)) (int, error) {
	one := [1]Evaluator{ev}
	var emit func(int, Match)
	if fn != nil {
		emit = func(_ int, m Match) { fn(m) }
	}
	return SelectEarliestSet(one[:], c, src, emit)
}

// SelectEarliestSet is the earliest pass over a set of machines: every
// machine steps on every event, and fn receives each match (with the
// machine's index in evs) inside the step of its deciding Open, in
// (position, machine) order. The run is exact when every machine is an
// EarliestDecider: once all of them report NoFutureMatches, stepping
// stops. A decided run keeps draining the source — the event count,
// balance-guard errors and depth histogram must match Select exactly — at
// one source call per event. A nil collector costs one check per Open and
// per match and, for a set of one, no allocation; an instrumented run
// observes the depth per Open and a zero latency per match (that is the
// contract), and flushes like the coded pass.
//
//treelint:partial instrumented runs observe depths per open and flush counters into obs
func SelectEarliestSet(evs []Evaluator, c *obs.Collector, src encoding.Source, fn func(q int, m Match)) (int, error) {
	decs := make([]EarliestDecider, 0, 1) // a set of one keeps its decider on the stack
	for _, ev := range evs {
		ev.Reset()
		if d, ok := ev.(EarliestDecider); ok && decs != nil {
			decs = append(decs, d)
		} else {
			decs = nil
		}
	}
	events, matches := 0, 0
	pos, depth := -1, 0
	for {
		e, err := src.Next()
		if err != nil {
			return endRun(c, evs, events, matches, err)
		}
		events++
		if e.Kind == encoding.Open {
			pos++
			depth++
			if c != nil {
				c.Depth.Observe(depth)
			}
		} else {
			depth--
		}
		for q, ev := range evs {
			ev.Step(e)
			if e.Kind == encoding.Open && ev.Accepting() {
				matches++
				if c != nil {
					c.Latency.Observe(0)
				}
				if fn != nil {
					fn(q, Match{Pos: pos, Depth: depth, Label: e.Label})
				}
			}
		}
		if decs != nil && allDecided(decs) {
			break
		}
	}
	// Decided: no machine steps again, and the rest of the stream only
	// drains.
	for {
		e, err := src.Next()
		if err != nil {
			return endRun(c, evs, events, matches, err)
		}
		events++
		if c != nil {
			depth += 1 - 2*int(e.Kind)
			if e.Kind == encoding.Open {
				c.Depth.Observe(depth)
			}
		}
	}
}

// allDecided reports whether every decider proves no further match.
func allDecided(decs []EarliestDecider) bool {
	for _, d := range decs {
		if !d.NoFutureMatches() {
			return false
		}
	}
	return true
}
